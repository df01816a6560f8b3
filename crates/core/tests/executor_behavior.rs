//! Behavioural tests of the executor's deployment semantics: incremental
//! publishing, pipelining, staggering, batching.

use pmemflow_core::{execute, ExecutionParams, SchedConfig};
use pmemflow_workloads::{ComponentSpec, IoPattern, WorkflowSpec};

fn spec(ranks: usize, object_bytes: u64, objects: u64, cw: f64, cr: f64) -> WorkflowSpec {
    let io = IoPattern {
        objects_per_snapshot: objects,
        object_bytes,
    };
    WorkflowSpec {
        name: "behave".into(),
        writer: ComponentSpec {
            name: "w".into(),
            compute_per_iteration: cw,
            io,
        },
        reader: ComponentSpec {
            name: "r".into(),
            compute_per_iteration: cr,
            io,
        },
        ranks,
        iterations: 5,
    }
}

#[test]
fn parallel_reader_io_overlaps_writer_io() {
    // Pure-I/O workflow: in parallel mode, reader flows must coexist with
    // writer flows on the device (peak concurrency > ranks), because
    // objects are published incrementally within a snapshot.
    let params = ExecutionParams::default();
    let s = spec(6, 1 << 20, 16, 0.0, 0.0);
    let m = execute(&s, SchedConfig::P_LOC_W, &params).unwrap();
    assert!(
        m.device.peak_concurrency > 6,
        "peak {} should exceed the rank count",
        m.device.peak_concurrency
    );
}

#[test]
fn serial_never_overlaps_even_with_incremental_publishing() {
    let params = ExecutionParams::default();
    let s = spec(6, 1 << 20, 16, 0.0, 0.0);
    let m = execute(&s, SchedConfig::S_LOC_W, &params).unwrap();
    assert!(m.device.peak_concurrency <= 6);
}

#[test]
fn stagger_spreads_write_bursts() {
    // With compute phases, staggering lowers the peak device concurrency
    // relative to lockstep ranks.
    let s = spec(12, 8 << 20, 8, 1.0, 0.0);
    let lockstep = ExecutionParams {
        stagger: 0.0,
        ..Default::default()
    };
    let staggered = ExecutionParams {
        stagger: 2.0,
        ..Default::default()
    };
    let a = execute(&s, SchedConfig::S_LOC_W, &lockstep).unwrap();
    let b = execute(&s, SchedConfig::S_LOC_W, &staggered).unwrap();
    assert!(
        (b.device.mean_busy_concurrency()) < a.device.mean_busy_concurrency() + 1e-9,
        "stagger should not increase mean concurrency: {} vs {}",
        b.device.mean_busy_concurrency(),
        a.device.mean_busy_concurrency()
    );
    assert!(b.device.peak_concurrency <= a.device.peak_concurrency);
}

#[test]
fn pure_io_workflow_has_no_compute_time() {
    let params = ExecutionParams::default();
    let m = execute(
        &spec(4, 1 << 20, 4, 0.0, 0.0),
        SchedConfig::P_LOC_R,
        &params,
    )
    .unwrap();
    assert_eq!(m.writer.compute_time, 0.0);
    assert_eq!(m.reader.compute_time, 0.0);
    assert!(m.writer.io_time > 0.0);
}

#[test]
fn compute_heavy_writer_accumulates_compute_time() {
    let params = ExecutionParams::default();
    let m = execute(
        &spec(4, 1 << 20, 4, 0.7, 0.0),
        SchedConfig::S_LOC_W,
        &params,
    )
    .unwrap();
    // 5 iterations × 0.7 s plus the stagger offset (mean over ranks).
    assert!(m.writer.compute_time >= 3.5 - 1e-9);
}

#[test]
fn single_rank_single_object_minimal_workflow() {
    let params = ExecutionParams::default();
    let m = execute(&spec(1, 4096, 1, 0.0, 0.0), SchedConfig::P_LOC_R, &params).unwrap();
    assert!(m.total > 0.0);
    assert_eq!(m.device.flows_completed, 2 * 5); // one write + one read per iteration
}

#[test]
fn total_time_monotone_in_iterations() {
    let params = ExecutionParams::default();
    let mut s3 = spec(4, 1 << 20, 8, 0.1, 0.1);
    s3.iterations = 3;
    let mut s9 = s3.clone();
    s9.iterations = 9;
    let a = execute(&s3, SchedConfig::P_LOC_R, &params).unwrap();
    let b = execute(&s9, SchedConfig::P_LOC_R, &params).unwrap();
    assert!(b.total > a.total);
}

#[test]
fn more_ranks_move_more_bytes() {
    let params = ExecutionParams::default();
    let a = execute(
        &spec(4, 1 << 20, 8, 0.0, 0.0),
        SchedConfig::S_LOC_W,
        &params,
    )
    .unwrap();
    let b = execute(
        &spec(8, 1 << 20, 8, 0.0, 0.0),
        SchedConfig::S_LOC_W,
        &params,
    )
    .unwrap();
    assert!((b.writer.bytes / a.writer.bytes - 2.0).abs() < 1e-9);
}
