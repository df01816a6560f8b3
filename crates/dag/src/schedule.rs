//! Staging-I/O pricing.

use crate::graph::DagSpec;
use pmemflow_core::ExecutionParams;
use pmemflow_des::{Direction, Locality};

/// Software seconds stage `i` spends moving its staged intermediates
/// through PMEM: writing its out-edges and reading its in-edges, priced
/// through the same iostack snapshot path (`snapshot_sw_time`) the
/// in-situ exchange and the checkpoint tax pay. Object granularity is
/// the stage's own writer pattern for writes and each producer's
/// pattern for reads — small-object stages pay the per-op software tax
/// on staging exactly as they do in-situ.
pub fn stage_io_seconds(spec: &DagSpec, stage: usize, exec: &ExecutionParams) -> f64 {
    let cost = exec.cost_model();
    let mut secs = 0.0;
    let write_latency = exec.profile.latency(Direction::Write, Locality::Local);
    let read_latency = exec.profile.latency(Direction::Read, Locality::Local);
    for e in &spec.edges {
        if e.from != stage && e.to != stage {
            continue;
        }
        // Both ends move the producer's objects.
        let object_bytes = spec.stages[e.from].family.writer_io().object_bytes;
        let objects = e.bytes.div_ceil(object_bytes).max(1);
        if e.from == stage {
            secs += cost.snapshot_sw_time(Direction::Write, objects, object_bytes, write_latency);
        }
        if e.to == stage {
            secs += cost.snapshot_sw_time(Direction::Read, objects, object_bytes, read_latency);
        }
    }
    secs
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::{DagEdge, StageKind, StageSpec};
    use pmemflow_workloads::Family;

    fn chain() -> DagSpec {
        let stage = |name: &'static str, kind| StageSpec {
            name: name.into(),
            kind,
            family: Family::Micro64MB,
            ranks: 8,
        };
        DagSpec {
            name: "chain".into(),
            stages: vec![
                stage("sim", StageKind::Writer),
                stage("a1", StageKind::Analytics),
                stage("viz", StageKind::Reader),
            ],
            edges: vec![
                DagEdge {
                    from: 0,
                    to: 1,
                    bytes: 8 << 30,
                },
                DagEdge {
                    from: 1,
                    to: 2,
                    bytes: 8 << 30,
                },
            ],
        }
    }

    #[test]
    fn staging_io_is_positive_and_heavier_for_small_objects() {
        let exec = ExecutionParams::default();
        let d = chain();
        let mid = stage_io_seconds(&d, 1, &exec);
        assert!(mid > 0.0);
        // The middle stage both reads and writes a full edge; the sink
        // only reads one.
        assert!(mid > stage_io_seconds(&d, 2, &exec));

        // Same volume in 2 KB objects pays far more software time.
        let mut small = chain();
        for s in &mut small.stages {
            s.family = Family::Micro2KB;
        }
        assert!(stage_io_seconds(&small, 1, &exec) > 10.0 * mid);
    }
}
