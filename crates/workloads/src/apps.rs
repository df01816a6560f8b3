//! The paper's workload builders (§IV-B).
//!
//! Six workflow families: two microbenchmarks (64 MB / 2 KB objects, pure
//! I/O) and four application workflows (GTC and miniAMR simulations, each
//! coupled with a read-only or a matrix-multiplication analytics kernel).
//!
//! Virtual compute durations are the calibration constants of the proxy
//! kernels; each is documented with the workload property it encodes. The
//! paper characterizes components *qualitatively* (Table II: compute
//! high/low, I/O index high/low); the constants below are chosen so the
//! characterization matches and can be re-derived on real hardware by
//! timing the [`crate::kernels`].

use crate::spec::{ComponentSpec, ConcurrencyClass, IoPattern, WorkflowSpec};
use crate::suite::Family;

/// Iterations per rank for every suite workflow (§IV-B: "Each thread in
/// the microbenchmark performs 10 iterations"; application runs use the
/// same depth).
pub(crate) const SUITE_ITERATIONS: u64 = 10;

/// GTC object size: a few large 2-D/3-D checkpoint arrays (§VI-A: "GTC
/// uses 229 MB objects").
const GTC_OBJECT_BYTES: u64 = 229 << 20;
/// GTC objects per rank snapshot (a handful of large arrays).
const GTC_OBJECTS: u64 = 2;
/// GTC simulation compute per iteration: the paper classes GTC's
/// simulation as compute-heavy with a *low* simulation I/O index
/// (Table II rows 2/6/10).
const GTC_COMPUTE_SECONDS: f64 = 0.544;
/// Compute per iteration of the GTC-coupled MatrixMult analytics: "10
/// million matrix multiplications of large 2D arrays" — a long compute
/// phase interleaving PMEM reads (Table II: analytics compute high).
const GTC_MATMUL_SECONDS: f64 = 0.629;

/// miniAMR object size: many small blocks (§VI-A: 4.5 KB objects).
const MINIAMR_OBJECT_BYTES: u64 = 4608;
/// miniAMR objects per rank snapshot (the paper's snapshots hold 528 K
/// small objects across the job; per-rank counts weak-scale).
const MINIAMR_OBJECTS: u64 = 33_000;
/// miniAMR simulation compute per iteration: a light stencil sweep —
/// the paper classes miniAMR's simulation as I/O-heavy (sim write high,
/// compute low; Table II rows 3/4/7/8).
const MINIAMR_COMPUTE_SECONDS: f64 = 0.0127;
/// Compute per iteration of the miniAMR-coupled MatrixMult analytics:
/// 5 small matrix multiplications per object × 33 K objects — "the
/// compute phase length is still relatively large" (§IV-B).
const MINIAMR_MATMUL_SECONDS: f64 = 0.307;

/// Microbenchmark snapshot: 1 GB per rank per iteration (§IV-B).
const MICRO_SNAPSHOT_BYTES: u64 = 1 << 30;

/// A microbenchmark's per-iteration I/O: 1 GB snapshots of
/// `object_bytes` objects.
pub(crate) const fn micro_io(object_bytes: u64) -> IoPattern {
    IoPattern {
        objects_per_snapshot: MICRO_SNAPSHOT_BYTES / object_bytes,
        object_bytes,
    }
}

/// GTC's per-iteration I/O: a few large checkpoint arrays.
pub(crate) const GTC_IO: IoPattern = IoPattern {
    objects_per_snapshot: GTC_OBJECTS,
    object_bytes: GTC_OBJECT_BYTES,
};

/// miniAMR's per-iteration I/O: many small blocks.
pub(crate) const MINIAMR_IO: IoPattern = IoPattern {
    objects_per_snapshot: MINIAMR_OBJECTS,
    object_bytes: MINIAMR_OBJECT_BYTES,
};

/// Assemble `family`'s workflow at `ranks` around its
/// [`Family::writer_io`]; the reader consumes at the same granularity
/// (§IV-C).
pub(crate) fn build(family: Family, ranks: usize) -> WorkflowSpec {
    let io = family.writer_io();
    let component = |name: &str, compute_per_iteration| ComponentSpec {
        name: name.into(),
        compute_per_iteration,
        io,
    };
    let gtc = || component("gtc", GTC_COMPUTE_SECONDS);
    let miniamr = || component("miniamr", MINIAMR_COMPUTE_SECONDS);
    let read_only = || component("readonly", 0.0);
    let (name, writer, reader) = match family {
        Family::Micro64MB | Family::Micro2KB => (
            format!("{}x{ranks}", family.name()),
            component("micro-writer", 0.0),
            component("micro-reader", 0.0),
        ),
        Family::GtcReadOnly => (format!("gtc+readonly x{ranks}"), gtc(), read_only()),
        Family::GtcMatMul => (
            format!("gtc+matmult x{ranks}"),
            gtc(),
            component("matmult", GTC_MATMUL_SECONDS),
        ),
        Family::MiniAmrReadOnly => (format!("miniamr+readonly x{ranks}"), miniamr(), read_only()),
        Family::MiniAmrMatMul => (
            format!("miniamr+matmult x{ranks}"),
            miniamr(),
            component("matmult", MINIAMR_MATMUL_SECONDS),
        ),
    };
    WorkflowSpec {
        name,
        writer,
        reader,
        ranks,
        iterations: SUITE_ITERATIONS,
    }
}

/// The 64 MB-object microbenchmark (Fig. 4): pure I/O both sides, large
/// objects, 1 GB snapshots.
pub fn micro_64mb(ranks: usize) -> WorkflowSpec {
    Family::Micro64MB.build(ranks)
}

/// The 2 KB-object microbenchmark (Fig. 5): pure I/O both sides, half a
/// million objects per snapshot, software-overhead dominated.
pub fn micro_2kb(ranks: usize) -> WorkflowSpec {
    Family::Micro2KB.build(ranks)
}

/// GTC + Read-Only (Fig. 6): compute-heavy simulation with large objects,
/// I/O-only analytics.
pub fn gtc_readonly(ranks: usize) -> WorkflowSpec {
    Family::GtcReadOnly.build(ranks)
}

/// GTC + MatrixMult (Fig. 7): compute-heavy simulation and compute-heavy
/// analytics.
pub fn gtc_matmul(ranks: usize) -> WorkflowSpec {
    Family::GtcMatMul.build(ranks)
}

/// miniAMR + Read-Only (Fig. 8): I/O-heavy simulation with many small
/// objects, I/O-only analytics.
pub fn miniamr_readonly(ranks: usize) -> WorkflowSpec {
    Family::MiniAmrReadOnly.build(ranks)
}

/// miniAMR + MatrixMult (Fig. 9): I/O-heavy simulation, compute-heavy
/// analytics.
pub fn miniamr_matmul(ranks: usize) -> WorkflowSpec {
    Family::MiniAmrMatMul.build(ranks)
}

/// Convenience: the three paper concurrency levels.
pub fn paper_rank_levels() -> [usize; 3] {
    [
        ConcurrencyClass::Low.ranks(),
        ConcurrencyClass::Medium.ranks(),
        ConcurrencyClass::High.ranks(),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::SizeClass;

    #[test]
    fn all_builders_validate() {
        for ranks in paper_rank_levels() {
            for spec in [
                micro_64mb(ranks),
                micro_2kb(ranks),
                gtc_readonly(ranks),
                gtc_matmul(ranks),
                miniamr_readonly(ranks),
                miniamr_matmul(ranks),
            ] {
                spec.validate().unwrap();
            }
        }
    }

    #[test]
    fn micro_data_sizes_match_figures() {
        // Fig. 4: "Threads: 8, Data size: 80GB" etc. — 1 GB × 10
        // iterations per rank.
        assert_eq!(micro_64mb(8).total_bytes_written(), 80 << 30);
        assert_eq!(micro_64mb(16).total_bytes_written(), 160 << 30);
        assert_eq!(micro_64mb(24).total_bytes_written(), 240 << 30);
        assert_eq!(micro_2kb(8).total_bytes_written(), 80 << 30);
    }

    #[test]
    fn micro_2kb_has_half_million_objects() {
        let s = micro_2kb(16);
        // §VIII: "The 2K workflow at 16 MPI ranks has large number (528K)
        // of small objects in a snapshot."
        assert_eq!(s.writer.io.objects_per_snapshot, 524_288);
    }

    #[test]
    fn size_classes_match_table2() {
        assert_eq!(micro_64mb(8).writer.io.size_class(), SizeClass::Large);
        assert_eq!(micro_2kb(8).writer.io.size_class(), SizeClass::Small);
        assert_eq!(gtc_readonly(8).writer.io.size_class(), SizeClass::Large);
        assert_eq!(miniamr_matmul(8).writer.io.size_class(), SizeClass::Small);
    }

    #[test]
    fn gtc_is_compute_heavy_miniamr_io_heavy() {
        let gtc = gtc_readonly(16);
        let amr = miniamr_readonly(16);
        // Compute per unit of written data: GTC computes far longer per
        // byte than miniAMR (the calibrated absolute values are small
        // because weak-scaled per-rank snapshots are sub-GB).
        let gtc_ratio = gtc.writer.compute_per_iteration / gtc.writer.io.snapshot_bytes() as f64;
        let amr_ratio = amr.writer.compute_per_iteration / amr.writer.io.snapshot_bytes() as f64;
        assert!(gtc_ratio > 5.0 * amr_ratio, "{gtc_ratio} vs {amr_ratio}");
        assert!(amr.writer.compute_per_iteration < 0.5);
        // GTC objects are huge, miniAMR objects tiny.
        assert!(gtc.writer.io.object_bytes > 100 << 20);
        assert!(amr.writer.io.object_bytes < 10 << 10);
    }

    #[test]
    fn readonly_kernels_have_no_compute() {
        assert_eq!(gtc_readonly(8).reader.compute_per_iteration, 0.0);
        assert_eq!(miniamr_readonly(8).reader.compute_per_iteration, 0.0);
        assert!(gtc_matmul(8).reader.compute_per_iteration > 0.0);
        assert!(miniamr_matmul(8).reader.compute_per_iteration > 0.0);
    }
}
