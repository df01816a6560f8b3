//! The crate's one seeded generator.

/// SplitMix64, same constants as `pmemflow_des::rng` (this crate stays
/// dependency-free, so the three-line generator is restated here).
pub(crate) struct Sm64(pub(crate) u64);

impl Sm64 {
    pub(crate) fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}
