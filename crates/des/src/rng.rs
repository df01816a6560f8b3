//! A small deterministic PRNG for tests, calibration search, and payload
//! generation.
//!
//! The engine itself is strictly deterministic and never consumes
//! randomness; this module exists so the *surrounding* tooling (randomized
//! property tests, the calibration tuner) has a seedable, dependency-free
//! source that behaves identically on every platform. SplitMix64 is the
//! standard 64-bit mixer from Steele et al., "Fast splittable pseudorandom
//! number generators" (OOPSLA 2014): a full-period counter-based generator
//! that passes BigCrush and costs three multiplies per draw.

/// A seedable SplitMix64 generator.
#[derive(Debug, Clone)]
pub struct SplitMix64 {
    state: u64,
}

impl SplitMix64 {
    /// Create a generator from a seed. Any seed (including 0) is fine.
    pub fn new(seed: u64) -> Self {
        Self { state: seed }
    }

    /// Next raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform f64 in `[0, 1)` (53 bits of precision).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 * (1.0 / (1u64 << 53) as f64)
    }

    /// Uniform f64 in `[lo, hi)`.
    pub fn range_f64(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.next_f64()
    }

    /// Uniform u64 in `[lo, hi)`. `hi` must be greater than `lo`.
    pub fn range_u64(&mut self, lo: u64, hi: u64) -> u64 {
        assert!(hi > lo, "empty range [{lo}, {hi})");
        lo + self.next_u64() % (hi - lo)
    }

    /// Uniform usize in `[lo, hi)`.
    pub fn range_usize(&mut self, lo: usize, hi: usize) -> usize {
        self.range_u64(lo as u64, hi as u64) as usize
    }

    /// A fair coin flip.
    pub fn next_bool(&mut self) -> bool {
        self.next_u64() & 1 == 1
    }

    /// Fill `buf` with pseudorandom bytes.
    fn fill_bytes(&mut self, buf: &mut [u8]) {
        let mut chunks = buf.chunks_exact_mut(8);
        for chunk in &mut chunks {
            chunk.copy_from_slice(&self.next_u64().to_le_bytes());
        }
        let rest = chunks.into_remainder();
        if !rest.is_empty() {
            let w = self.next_u64().to_le_bytes();
            rest.copy_from_slice(&w[..rest.len()]);
        }
    }

    /// A pseudorandom byte vector of length `len`.
    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = vec![0u8; len];
        self.fill_bytes(&mut v);
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_per_seed() {
        let a: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        let b: Vec<u64> = {
            let mut r = SplitMix64::new(42);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_eq!(a, b);
        let c: Vec<u64> = {
            let mut r = SplitMix64::new(43);
            (0..8).map(|_| r.next_u64()).collect()
        };
        assert_ne!(a, c);
    }

    #[test]
    fn ranges_respect_bounds() {
        let mut r = SplitMix64::new(7);
        for _ in 0..1000 {
            let f = r.range_f64(2.0, 3.0);
            assert!((2.0..3.0).contains(&f));
            let u = r.range_u64(10, 20);
            assert!((10..20).contains(&u));
        }
    }

    #[test]
    fn fill_bytes_covers_tail() {
        let mut r = SplitMix64::new(1);
        let v = r.bytes(13);
        assert_eq!(v.len(), 13);
        assert!(v.iter().any(|&b| b != 0));
    }

    #[test]
    fn f64_distribution_sane() {
        let mut r = SplitMix64::new(99);
        let n = 10_000;
        let mean: f64 = (0..n).map(|_| r.next_f64()).sum::<f64>() / n as f64;
        assert!((mean - 0.5).abs() < 0.02, "mean {mean}");
    }
}
