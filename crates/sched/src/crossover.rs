//! Crossover analysis: where does the optimal configuration flip?
//!
//! The paper's evaluation is a story of crossovers — GTC+ReadOnly flips
//! from parallel to serial between 8 and 16 ranks and to local-write
//! placement by 24 (Fig. 6); the 2 KB microbenchmark flips from parallel
//! to serial between 16 and 24 (Fig. 5). A scheduler that knows *where*
//! the flip sits for a workload family can pick configurations for rank
//! counts it has never measured. This module sweeps a parameter axis and
//! reports every flip point with the margins on both sides.

use pmemflow_core::{sweep, ExecError, ExecutionParams, SchedConfig};
use pmemflow_workloads::WorkflowSpec;

/// The axis a sweep varies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Axis {
    /// Ranks per component (the paper's concurrency axis).
    Ranks,
    /// Object size in bytes, holding snapshot volume constant (the paper's
    /// granularity axis: fewer, larger objects vs many small ones).
    ObjectBytes,
}

/// One evaluated point of a sweep.
#[derive(Debug, Clone)]
pub struct SweepPoint {
    /// The axis value.
    pub value: u64,
    /// The winning configuration at this point.
    pub winner: SchedConfig,
    /// Predicted runtime of the winner, seconds.
    pub runtime: f64,
    /// Margin of the winner over the runner-up (≥ 1.0).
    pub margin: f64,
}

/// A detected flip between two adjacent sweep points.
#[derive(Debug, Clone)]
pub struct Crossover {
    /// Axis value before the flip.
    pub from_value: u64,
    /// Axis value after the flip.
    pub to_value: u64,
    /// Winner before.
    pub from: SchedConfig,
    /// Winner after.
    pub to: SchedConfig,
}

/// Result of a crossover sweep.
#[derive(Debug, Clone)]
pub struct SweepResult {
    /// Every evaluated point, in axis order.
    pub points: Vec<SweepPoint>,
    /// Every flip between adjacent points.
    pub crossovers: Vec<Crossover>,
}

fn apply(spec: &WorkflowSpec, axis: Axis, value: u64) -> WorkflowSpec {
    let mut s = spec.clone();
    match axis {
        Axis::Ranks => s.ranks = value as usize,
        Axis::ObjectBytes => {
            let snapshot = s.writer.io.snapshot_bytes();
            let objects = (snapshot / value).max(1);
            for io in [&mut s.writer.io, &mut s.reader.io] {
                io.object_bytes = value;
                io.objects_per_snapshot = objects;
            }
        }
    }
    s
}

/// Sweep `axis` over `values` for `spec`, deciding the best configuration
/// at each point with the model, and report all flips.
pub fn sweep_axis(
    spec: &WorkflowSpec,
    axis: Axis,
    values: &[u64],
    params: &ExecutionParams,
) -> Result<SweepResult, ExecError> {
    if values.is_empty() {
        return Err(ExecError::Spec("empty sweep".into()));
    }
    let mut points = Vec::with_capacity(values.len());
    for &v in values {
        let candidate = apply(spec, axis, v);
        candidate.validate().map_err(ExecError::Spec)?;
        let sw = sweep(&candidate, params)?;
        let best = sw.best();
        let runner_up = sw
            .runs
            .iter()
            .filter(|r| r.config != best.config)
            .map(|r| r.total)
            .fold(f64::INFINITY, f64::min);
        points.push(SweepPoint {
            value: v,
            winner: best.config,
            runtime: best.total,
            margin: runner_up / best.total,
        });
    }
    let crossovers = points
        .windows(2)
        .filter(|w| w[0].winner != w[1].winner)
        .map(|w| Crossover {
            from_value: w[0].value,
            to_value: w[1].value,
            from: w[0].winner,
            to: w[1].winner,
        })
        .collect();
    Ok(SweepResult { points, crossovers })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemflow_workloads::{gtc_readonly, micro_2kb};

    fn params() -> ExecutionParams {
        ExecutionParams::default()
    }

    #[test]
    fn gtc_readonly_flips_to_serial_with_ranks() {
        // The paper's Fig. 6 arc: parallel at 8, serial by 16/24.
        let r = sweep_axis(&gtc_readonly(8), Axis::Ranks, &[8, 16, 24], &params()).unwrap();
        assert_eq!(r.points.len(), 3);
        assert!(
            !r.crossovers.is_empty(),
            "expected at least one flip across 8..24 ranks"
        );
        use pmemflow_core::ExecMode;
        assert_eq!(r.points[0].winner.mode, ExecMode::Parallel);
        assert_eq!(r.points[2].winner.mode, ExecMode::Serial);
    }

    #[test]
    fn micro_2kb_flips_between_16_and_24() {
        // Fig. 5: P-LocR at 8, serial by 24.
        let r = sweep_axis(&micro_2kb(8), Axis::Ranks, &[8, 24], &params()).unwrap();
        assert_eq!(r.crossovers.len(), 1);
        let x = &r.crossovers[0];
        assert_eq!((x.from_value, x.to_value), (8, 24));
        use pmemflow_core::ExecMode;
        assert_eq!(x.from.mode, ExecMode::Parallel);
        assert_eq!(x.to.mode, ExecMode::Serial);
    }

    #[test]
    fn object_size_axis_preserves_snapshot_volume() {
        let base = micro_2kb(8);
        let snapshot = base.writer.io.snapshot_bytes();
        let s = apply(&base, Axis::ObjectBytes, 64 << 20);
        assert_eq!(s.writer.io.object_bytes, 64 << 20);
        assert_eq!(s.writer.io.snapshot_bytes(), snapshot);
    }

    #[test]
    fn object_size_sweep_flips_placement() {
        // Growing objects from 2 KB to 64 MB at high concurrency turns the
        // latency-bound small-object workload (LocR) into the
        // bandwidth-bound large-object one (LocW) — Fig. 4 vs Fig. 5.
        let r = sweep_axis(
            &micro_2kb(24),
            Axis::ObjectBytes,
            &[2048, 64 << 20],
            &params(),
        )
        .unwrap();
        use pmemflow_core::Placement;
        assert_eq!(r.points[0].winner.placement, Placement::LocR);
        assert_eq!(r.points[1].winner.placement, Placement::LocW);
    }

    #[test]
    fn margins_are_sane() {
        let r = sweep_axis(&micro_2kb(8), Axis::Ranks, &[8], &params()).unwrap();
        assert!(r.points[0].margin >= 1.0);
        assert!(r.crossovers.is_empty());
    }

    #[test]
    fn empty_sweep_rejected() {
        assert!(sweep_axis(&micro_2kb(8), Axis::Ranks, &[], &params()).is_err());
    }
}
