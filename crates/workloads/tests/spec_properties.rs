//! Randomized-but-deterministic tests on workflow specifications and the
//! suite builders (seeded generator, reproducible failures).

use pmemflow_des::rng::SplitMix64;
use pmemflow_workloads::{
    gtc_matmul, gtc_readonly, micro_2kb, micro_64mb, miniamr_matmul, miniamr_readonly, IoPattern,
    SizeClass,
};

/// Snapshot bytes = objects × object size for any pattern.
#[test]
fn snapshot_bytes_is_product() {
    let mut rng = SplitMix64::new(0x3bec_0001);
    let mut cases = 0;
    while cases < 256 {
        let objects = rng.range_u64(1, 1_000_000);
        let size = rng.range_u64(1, 1 << 28);
        if objects.checked_mul(size).is_none() {
            continue;
        }
        cases += 1;
        let io = IoPattern {
            objects_per_snapshot: objects,
            object_bytes: size,
        };
        assert_eq!(io.snapshot_bytes(), objects * size);
    }
}

/// Size classification boundary sits exactly at 1 MiB.
#[test]
fn size_class_boundary() {
    let mut rng = SplitMix64::new(0x3bec_0002);
    // Sweep random sizes plus the exact boundary neighborhood.
    let mut sizes: Vec<u64> = (0..256).map(|_| rng.range_u64(1, 1 << 30)).collect();
    sizes.extend([1, (1 << 20) - 1, 1 << 20, (1 << 20) + 1, 1 << 29]);
    for size in sizes {
        let io = IoPattern {
            objects_per_snapshot: 1,
            object_bytes: size,
        };
        if size >= 1 << 20 {
            assert_eq!(io.size_class(), SizeClass::Large);
        } else {
            assert_eq!(io.size_class(), SizeClass::Small);
        }
    }
}

/// Every builder yields a valid workflow at any feasible rank count, with
/// total bytes linear in ranks and iterations.
#[test]
fn builders_validate_at_any_rank_count() {
    for ranks in 1..28usize {
        for spec in [
            micro_64mb(ranks),
            micro_2kb(ranks),
            gtc_readonly(ranks),
            gtc_matmul(ranks),
            miniamr_readonly(ranks),
            miniamr_matmul(ranks),
        ] {
            spec.validate().unwrap();
            assert_eq!(
                spec.total_bytes_written(),
                spec.ranks as u64 * spec.iterations * spec.writer.io.snapshot_bytes()
            );
            // 1:1 exchange invariant.
            assert_eq!(spec.writer.io, spec.reader.io);
        }
    }
}

/// with_ranks preserves everything but the rank count.
#[test]
fn with_ranks_only_changes_ranks() {
    let mut rng = SplitMix64::new(0x3bec_0003);
    for _case in 0..64 {
        let a = rng.range_usize(1, 28);
        let b = rng.range_usize(1, 28);
        let s = gtc_matmul(a);
        let t = s.with_ranks(b);
        assert_eq!(t.ranks, b);
        assert_eq!(t.writer, s.writer);
        assert_eq!(t.reader, s.reader);
        assert_eq!(t.iterations, s.iterations);
    }
}
