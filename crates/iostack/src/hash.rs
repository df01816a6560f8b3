//! Checksums for on-PMEM records.
//!
//! Both stacks checksum every persisted record so that recovery can detect
//! torn writes after a crash. FNV-1a is used: it is tiny, dependency-free,
//! and collision-resistant enough for torn-write detection (we are guarding
//! against truncation and interleaved zeroes, not adversaries).

/// 64-bit FNV-1a over a byte slice.
pub fn fnv1a(data: &[u8]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = OFFSET;
    for &b in data {
        h ^= b as u64;
        h = h.wrapping_mul(PRIME);
    }
    h
}

/// FNV-1a over several slices, as if concatenated.
pub(crate) fn fnv1a_multi(parts: &[&[u8]]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0100_0000_01b3;
    let mut h = OFFSET;
    for part in parts {
        for &b in *part {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn known_vector() {
        // FNV-1a("") is the offset basis.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        // Standard test vector: fnv1a("a") = 0xaf63dc4c8601ec8c.
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn different_data_different_hash() {
        assert_ne!(fnv1a(b"hello"), fnv1a(b"hellp"));
        assert_ne!(fnv1a(b"\0"), fnv1a(b""));
    }

    #[test]
    fn multi_matches_concat() {
        let concat = fnv1a(b"abcdef");
        let multi = fnv1a_multi(&[b"ab", b"cd", b"ef"]);
        assert_eq!(concat, multi);
    }

    #[test]
    fn torn_write_detected() {
        let data = vec![0x5au8; 4096];
        let good = fnv1a(&data);
        let mut torn = data.clone();
        for b in &mut torn[2048..] {
            *b = 0;
        }
        assert_ne!(good, fnv1a(&torn));
    }
}
