//! Piecewise-linear empirical curves.
//!
//! The Optane model is driven by bandwidth-versus-concurrency curves taken
//! from the paper (§II-B) and from the measurement studies it builds on
//! (Yang et al. FAST'20, Izraelevitz et al. arXiv:1903.05714, Peng et al.
//! MEMSYS'19). A [`Curve`] interpolates linearly between calibration points
//! and clamps outside the measured range — extrapolating device behaviour
//! beyond measurements would invent data.

/// A piecewise-linear curve defined by `(x, y)` points with strictly
/// increasing `x`. Evaluation clamps to the first/last point outside the
/// domain.
#[derive(Debug, Clone, PartialEq)]
pub struct Curve {
    points: Vec<(f64, f64)>,
}

impl Curve {
    /// Build from calibration points. Panics if fewer than one point is
    /// given or if `x` values are not strictly increasing.
    pub fn new(points: Vec<(f64, f64)>) -> Self {
        assert!(!points.is_empty(), "a curve needs at least one point");
        for w in points.windows(2) {
            assert!(
                w[1].0 > w[0].0,
                "curve x values must be strictly increasing ({} !< {})",
                w[0].0,
                w[1].0
            );
        }
        for &(x, y) in &points {
            assert!(
                x.is_finite() && y.is_finite(),
                "curve points must be finite"
            );
        }
        Self { points }
    }

    /// Convenience constructor from a slice.
    pub fn from_points(points: &[(f64, f64)]) -> Self {
        Self::new(points.to_vec())
    }

    /// Evaluate at `x` with linear interpolation and boundary clamping.
    pub fn eval(&self, x: f64) -> f64 {
        let pts = &self.points;
        if x <= pts[0].0 {
            return pts[0].1;
        }
        if x >= pts[pts.len() - 1].0 {
            return pts[pts.len() - 1].1;
        }
        // Binary search for the surrounding segment.
        let mut lo = 0;
        let mut hi = pts.len() - 1;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            if pts[mid].0 <= x {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let (x0, y0) = pts[lo];
        let (x1, y1) = pts[hi];
        y0 + (y1 - y0) * (x - x0) / (x1 - x0)
    }

    /// The largest `y` over the calibration points (the curve's peak).
    pub fn peak(&self) -> f64 {
        self.points.iter().map(|p| p.1).fold(f64::MIN, f64::max)
    }

    /// The `x` of the peak `y` (first occurrence).
    pub fn peak_x(&self) -> f64 {
        let peak = self.peak();
        self.points
            .iter()
            .find(|p| p.1 == peak)
            .map(|p| p.0)
            .unwrap_or(0.0)
    }

    /// The calibration points.
    pub fn points(&self) -> &[(f64, f64)] {
        &self.points
    }

    /// A new curve with every `y` multiplied by `factor`.
    pub fn scaled(&self, factor: f64) -> Curve {
        Curve::new(self.points.iter().map(|&(x, y)| (x, y * factor)).collect())
    }
}

/// Interpolate a value on a log2(size) axis between a small-access plateau
/// and a large-access plateau. Used for single-thread bandwidth as a
/// function of access (object) granularity: tiny accesses waste stripe and
/// XPLine bandwidth, large streaming accesses reach the device peak.
pub(crate) fn log_size_interp(
    size_bytes: u64,
    small_size: u64,
    small_value: f64,
    large_size: u64,
    large_value: f64,
) -> f64 {
    assert!(small_size < large_size);
    if size_bytes <= small_size {
        return small_value;
    }
    if size_bytes >= large_size {
        return large_value;
    }
    let t = ((size_bytes as f64).ln() - (small_size as f64).ln())
        / ((large_size as f64).ln() - (small_size as f64).ln());
    small_value + (large_value - small_value) * t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eval_interpolates() {
        let c = Curve::from_points(&[(0.0, 0.0), (10.0, 100.0)]);
        assert_eq!(c.eval(5.0), 50.0);
        assert_eq!(c.eval(2.5), 25.0);
    }

    #[test]
    fn eval_clamps() {
        let c = Curve::from_points(&[(1.0, 10.0), (2.0, 20.0)]);
        assert_eq!(c.eval(0.0), 10.0);
        assert_eq!(c.eval(3.0), 20.0);
    }

    #[test]
    fn eval_multi_segment() {
        let c = Curve::from_points(&[(0.0, 0.0), (4.0, 13.9), (24.0, 10.4)]);
        assert!((c.eval(2.0) - 6.95).abs() < 1e-12);
        assert!((c.eval(14.0) - (13.9 + (10.4 - 13.9) * 0.5)).abs() < 1e-12);
    }

    #[test]
    fn peak_and_peak_x() {
        let c = Curve::from_points(&[(0.0, 0.0), (4.0, 13.9), (24.0, 10.4)]);
        assert_eq!(c.peak(), 13.9);
        assert_eq!(c.peak_x(), 4.0);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted() {
        Curve::from_points(&[(1.0, 0.0), (1.0, 5.0)]);
    }

    #[test]
    fn scaled_multiplies() {
        let c = Curve::from_points(&[(0.0, 2.0), (1.0, 4.0)]).scaled(0.5);
        assert_eq!(c.eval(0.0), 1.0);
        assert_eq!(c.eval(1.0), 2.0);
    }

    #[test]
    fn log_interp_plateaus_and_middle() {
        let v = log_size_interp(1024, 4096, 1.0, 1 << 20, 4.0);
        assert_eq!(v, 1.0);
        let v = log_size_interp(1 << 21, 4096, 1.0, 1 << 20, 4.0);
        assert_eq!(v, 4.0);
        let mid = log_size_interp(65536, 4096, 1.0, 1 << 20, 4.0);
        assert!(mid > 1.0 && mid < 4.0);
    }

    #[test]
    fn log_interp_is_monotone() {
        let mut prev = 0.0;
        for shift in 11..=21 {
            let v = log_size_interp(1u64 << shift, 4096, 1.0, 1 << 20, 4.0);
            assert!(v >= prev);
            prev = v;
        }
    }
}
