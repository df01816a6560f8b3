//! Measure a workflow's scheduling-relevant characteristics.
//!
//! The paper determines I/O indexes by running each component standalone —
//! serially, with node-local PMEM (§IV-C) — and notes that concurrency
//! parameters "are statically determined via parameters in workflow launch
//! scripts without actually requiring a run" (§IV-A). This module does the
//! same: two cheap standalone simulations produce the full
//! [`WorkflowProfile`].

use crate::profile::{Level, WorkflowProfile};
use pmemflow_core::{execute_component_standalone, ExecError, ExecutionParams, StandaloneReport};
use pmemflow_des::Direction;
use pmemflow_workloads::{ComponentSpec, WorkflowSpec};

/// Iterations used for characterization runs (a prefix of the workflow is
/// enough; the per-iteration structure repeats).
const PROBE_ITERATIONS: u64 = 3;

/// Duty- and busy-fraction-weighted device concurrency of a component's
/// standalone run.
fn effective_concurrency(
    report: &StandaloneReport,
    component: &ComponentSpec,
    dir: Direction,
    params: &ExecutionParams,
) -> f64 {
    let n_flows = report.device.mean_busy_concurrency();
    if n_flows <= 0.0 {
        return 0.0;
    }
    let cost = params.cost_model();
    let sw_tpb = cost.sw_time_per_byte(
        dir,
        component.io.object_bytes,
        params.profile.latency(dir, pmemflow_des::Locality::Local),
    );
    let per_flow_rate = report.device.busy_throughput() / n_flows;
    let duty = (1.0 - per_flow_rate * sw_tpb).clamp(0.05, 1.0);
    let busy_fraction = if report.component.finish_time > 0.0 {
        (report.device.busy_time.seconds() / report.component.finish_time).clamp(0.0, 1.0)
    } else {
        0.0
    };
    n_flows * duty * busy_fraction
}

/// Characterize `spec` under `params` by standalone component runs.
pub fn characterize(
    spec: &WorkflowSpec,
    params: &ExecutionParams,
) -> Result<WorkflowProfile, ExecError> {
    spec.validate().map_err(ExecError::Spec)?;
    let writer = execute_component_standalone(
        &spec.writer,
        spec.ranks,
        PROBE_ITERATIONS,
        Direction::Write,
        params,
    )?;
    let reader = execute_component_standalone(
        &spec.reader,
        spec.ranks,
        PROBE_ITERATIONS,
        Direction::Read,
        params,
    )?;

    let sim_io_index = writer.component.io_index();
    let analytics_io_index = reader.component.io_index();
    // Effective device concurrency: flow concurrency weighted by duty
    // cycle (software time is off-device) and by the fraction of the run
    // the component's I/O is active — §VIII's "the actual level of
    // concurrency experienced by PMEM is a complex function of MPI ranks,
    // software overhead … and interleaving compute" made measurable.
    let n_w = effective_concurrency(&writer, &spec.writer, Direction::Write, params);
    let n_r = effective_concurrency(&reader, &spec.reader, Direction::Read, params);
    // Saturation: *period-averaged* write throughput (bytes over the whole
    // run, compute phases included) relative to the device's capacity at
    // the duty-weighted effective concurrency. Burst throughput always
    // touches the curve; what distinguishes "bandwidth constrained" in the
    // paper's sense (§VI-A vs §VI-B) is whether the average demand does.
    let avg_throughput = if writer.component.finish_time > 0.0 {
        writer.device.total_bytes() / writer.component.finish_time
    } else {
        0.0
    };
    let capacity = params.profile.local_write_bw.eval(n_w.max(1.0)).max(1.0);
    let write_saturation = (avg_throughput / capacity).min(2.0);

    Ok(WorkflowProfile {
        name: spec.name.clone(),
        sim_compute: Level::from_compute_share(1.0 - sim_io_index),
        sim_write: Level::from_io_index(sim_io_index),
        analytics_compute: Level::from_compute_share(1.0 - analytics_io_index),
        analytics_read: Level::from_io_index(analytics_io_index),
        object_size: spec.writer.io.size_class(),
        concurrency: spec.concurrency_class(),
        sim_io_index,
        analytics_io_index,
        sim_device_concurrency: n_w,
        analytics_device_concurrency: n_r,
        write_saturation,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemflow_workloads::{gtc_readonly, micro_64mb, miniamr_readonly};

    fn params() -> ExecutionParams {
        ExecutionParams::default()
    }

    #[test]
    fn micro_is_pure_io_and_saturating() {
        let p = characterize(&micro_64mb(24), &params()).unwrap();
        assert_eq!(p.sim_compute, Level::Nil);
        assert_eq!(p.sim_write, Level::High);
        assert_eq!(p.analytics_read, Level::High);
        assert!(
            p.is_bandwidth_constrained(),
            "saturation {}",
            p.write_saturation
        );
        assert!(
            p.sim_device_concurrency > 10.0,
            "n_eff {}",
            p.sim_device_concurrency
        );
    }

    #[test]
    fn gtc_sim_is_compute_heavy() {
        let p = characterize(&gtc_readonly(8), &params()).unwrap();
        assert!(p.sim_io_index < 0.5, "index {}", p.sim_io_index);
        assert!(p.sim_compute >= Level::Medium);
        // Low effective device concurrency: writes are brief bursts in a
        // long compute period.
        assert!(
            p.sim_device_concurrency < 4.0,
            "n_eff {}",
            p.sim_device_concurrency
        );
    }

    #[test]
    fn miniamr_sim_is_io_heavy() {
        let p = characterize(&miniamr_readonly(16), &params()).unwrap();
        assert!(p.sim_io_index > 0.5, "index {}", p.sim_io_index);
        assert_eq!(p.sim_write, Level::High);
    }

    #[test]
    fn profile_carries_workflow_identity() {
        let p = characterize(&micro_64mb(8), &params()).unwrap();
        assert!(p.name.contains("64MB"));
        assert_eq!(p.concurrency, pmemflow_workloads::ConcurrencyClass::Low);
    }
}
