//! The workflow executor: builds and runs the discrete-event simulation
//! for one workflow under one scheduler configuration.
//!
//! Deployment model (paper §II-A, Fig. 2): writer ranks are pinned to one
//! socket, reader ranks to the other, one rank per core, and the streaming
//! channel lives in the PMEM of socket 0; the placement decision
//! ([`SchedConfig::writer_locality`]) picks which component runs there. Serial
//! execution inserts a global barrier between the simulation and analytics
//! components; parallel execution pipelines the reader one version behind
//! its writer.

use crate::config::{ExecMode, SchedConfig};
use crate::metrics::{ComponentMetrics, RunMetrics};
use pmemflow_des::{
    Action, Direction, FlowAttrs, ProcessReport, SimDuration, SimError, Simulation,
};
use pmemflow_iostack::{StackCostModel, StackKind};
use pmemflow_pmem::{DeviceProfile, OptaneAllocator};
use pmemflow_workloads::{ComponentSpec, WorkflowSpec};

/// Physical cores per socket of the paper's dual-socket testbed (§V).
pub const CORES_PER_SOCKET: usize = 28;

/// Check that `ranks_per_socket` ranks fit one socket, one rank per core.
#[inline]
pub fn check_fit(ranks_per_socket: usize) -> Result<(), ExecError> {
    if ranks_per_socket > CORES_PER_SOCKET {
        return Err(ExecError::Capacity {
            requested: ranks_per_socket,
        });
    }
    Ok(())
}

/// How many batches a snapshot's objects are published in. Objects are
/// made visible to the reader *as they are written* (the versioned
/// stores publish per object), so in parallel mode reader I/O overlaps
/// writer I/O within the same iteration — the defining property of the
/// paper's parallel execution mode ("their I/O operations … overlap in
/// time", §II-A). Batching bounds the event count; 8 batches per
/// snapshot resolves the overlap to 12.5% granularity.
const BATCHES_PER_SNAPSHOT: u64 = 8;

/// Everything the executor needs besides the workflow and configuration.
#[derive(Debug, Clone)]
pub struct ExecutionParams {
    /// Device model (defaults to the paper's Optane gen-1 testbed).
    pub profile: DeviceProfile,
    /// Which I/O stack carries the channel (defaults to NVStream).
    pub stack: StackKind,
    /// Deterministic rank desynchronization: writer rank `i` starts with an
    /// extra delay of `i/ranks × compute_per_iteration × stagger`. Real MPI
    /// ranks drift apart over compute phases, so I/O windows spread instead
    /// of arriving in lockstep bursts; workloads with no compute phase
    /// (the microbenchmarks) stay fully synchronized, which is also
    /// physical — they re-converge on the shared device. 1.0 spreads ranks
    /// across one full compute phase.
    pub stagger: f64,
    /// Record per-rank span timelines (compute/io/wait) in the returned
    /// metrics — renderable as ASCII Gantt charts or Chrome traces.
    pub record_timeline: bool,
    /// Override the I/O stack cost model (None = derive from `stack`).
    /// Used by calibration sweeps and ablation benches.
    pub cost_override: Option<StackCostModel>,
}

impl Default for ExecutionParams {
    fn default() -> Self {
        Self {
            profile: DeviceProfile::optane_gen1(),
            stack: StackKind::NvStream,
            stagger: 2.46,
            cost_override: None,
            record_timeline: false,
        }
    }
}

impl ExecutionParams {
    /// Same parameters with a different I/O stack.
    pub fn with_stack(mut self, stack: StackKind) -> Self {
        self.stack = stack;
        self
    }

    /// Same parameters with a different device profile.
    pub fn with_profile(mut self, profile: DeviceProfile) -> Self {
        self.profile = profile;
        self
    }

    /// The I/O stack cost model: `cost_override` if set, else `stack`'s.
    pub fn cost_model(&self) -> StackCostModel {
        self.cost_override
            .unwrap_or_else(|| self.stack.cost_model())
    }
}

/// Errors from executing a workflow.
#[derive(Debug)]
pub enum ExecError {
    /// The workflow specification failed validation.
    Spec(String),
    /// More ranks on one socket than it has cores.
    Capacity {
        /// Ranks the socket would have to hold.
        requested: usize,
    },
    /// The simulation itself failed (deadlock, runaway).
    Sim(SimError),
}

impl std::fmt::Display for ExecError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ExecError::Spec(s) => write!(f, "invalid workflow: {s}"),
            ExecError::Capacity { requested } => write!(
                f,
                "pinning failed: a socket has {CORES_PER_SOCKET} cores, {requested} requested"
            ),
            ExecError::Sim(e) => write!(f, "simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ExecError {}

impl From<SimError> for ExecError {
    fn from(e: SimError) -> Self {
        ExecError::Sim(e)
    }
}

/// Build the flow attributes for one component's snapshot I/O.
///
/// `compute_per_object` is the kernel compute the component interleaves
/// between consecutive object accesses; per §VIII it hides device access
/// latency (a reader with compute between reads is not latency-chain
/// bound), so both the charged per-op latency and — for remote reads — the
/// single-thread rate are adjusted by the hiding fraction.
fn flow_attrs(
    dir: Direction,
    loc: pmemflow_des::Locality,
    object_bytes: u64,
    compute_per_object: f64,
    cost: &StackCostModel,
    profile: &DeviceProfile,
) -> FlowAttrs {
    let lat = profile.latency(dir, loc);
    let hide_frac = if compute_per_object > 0.0 {
        compute_per_object / (compute_per_object + lat)
    } else {
        0.0
    };
    let lat_eff = lat * (1.0 - hide_frac);
    FlowAttrs {
        direction: dir,
        locality: loc,
        access_bytes: object_bytes,
        sw_time_per_byte: cost.sw_time_per_byte(dir, object_bytes, lat_eff),
        peak_device_rate: profile.single_thread_rate_with_hiding(dir, loc, object_bytes, hide_frac),
    }
}

fn component_metrics(reports: &[&ProcessReport]) -> ComponentMetrics {
    let n = reports.len().max(1) as f64;
    ComponentMetrics {
        compute_time: reports
            .iter()
            .map(|r| r.compute_time.seconds())
            .sum::<f64>()
            / n,
        io_time: reports.iter().map(|r| r.io_time.seconds()).sum::<f64>() / n,
        wait_time: reports.iter().map(|r| r.wait_time.seconds()).sum::<f64>() / n,
        channel_waits: reports.iter().map(|r| r.channel_waits).sum(),
        finish_time: reports
            .iter()
            .filter_map(|r| r.finished_at)
            .map(|t| t.seconds())
            .fold(0.0, f64::max),
        bytes: reports.iter().map(|r| r.io_bytes).sum(),
    }
}

/// Build the writer/reader rank processes of one workflow into `sim`,
/// sharing device `dev`. Process names are `{prefix}writer-{r}` /
/// `{prefix}reader-{r}` so metrics can be attributed per workflow.
fn build_workflow_processes(
    sim: &mut Simulation,
    dev: pmemflow_des::ResourceId,
    spec: &WorkflowSpec,
    config: SchedConfig,
    params: &ExecutionParams,
    prefix: &str,
) {
    let cost = params.cost_model();
    // Writers emit their compute as a distinct phase before the I/O phase
    // (checkpoint-style), so no per-object interleaving on the write side;
    // analytics kernels compute *between* object reads (§IV-B).
    let w_attrs = flow_attrs(
        Direction::Write,
        config.writer_locality(),
        spec.writer.io.object_bytes,
        0.0,
        &cost,
        &params.profile,
    );
    let reader_compute_per_object =
        spec.reader.compute_per_iteration / spec.reader.io.objects_per_snapshot as f64;
    let r_attrs = flow_attrs(
        Direction::Read,
        config.reader_locality(),
        spec.reader.io.object_bytes,
        reader_compute_per_object,
        &cost,
        &params.profile,
    );
    let channels: Vec<_> = (0..spec.ranks).map(|_| sim.add_channel()).collect();
    // A snapshot is published incrementally: objects become visible as
    // they are written. Channel versions count *batches* published so far.
    let batches = BATCHES_PER_SNAPSHOT
        .min(spec.writer.io.objects_per_snapshot)
        .max(1);
    let snapshot_bytes = spec.writer.io.snapshot_bytes() as f64;
    let batch_bytes = snapshot_bytes / batches as f64;
    // Charge the reader for *its* snapshot size, not the writer's. The
    // suite's specs are 1:1 exchanges (validate() enforces it for the
    // public entry points), but a subsampling reader must not silently
    // inherit the writer's byte count.
    let reader_batch_bytes = spec.reader.io.snapshot_bytes() as f64 / batches as f64;
    let final_watermark = spec.iterations * batches;

    for (rank, &ch) in channels.iter().enumerate() {
        let mut actions = Vec::with_capacity((spec.iterations * (batches * 2 + 1)) as usize + 1);
        let stagger_delay =
            spec.writer.compute_per_iteration * params.stagger * rank as f64 / spec.ranks as f64;
        if stagger_delay > 0.0 {
            actions.push(Action::Compute(SimDuration::from_secs(stagger_delay)));
        }
        for v in 1..=spec.iterations {
            if spec.writer.compute_per_iteration > 0.0 {
                actions.push(Action::Compute(SimDuration::from_secs(
                    spec.writer.compute_per_iteration,
                )));
            }
            for k in 1..=batches {
                actions.push(Action::Io {
                    resource: dev,
                    bytes: batch_bytes,
                    attrs: w_attrs,
                });
                actions.push(Action::Publish {
                    channel: ch,
                    version: (v - 1) * batches + k,
                });
            }
        }
        sim.spawn(format!("{prefix}writer-{rank}"), actions);
    }

    // The analytics kernel interleaves its compute between object reads
    // (§VIII "Interleaved compute hides effects of access contention"), so
    // reader compute is spread across the batches of an iteration.
    let reader_compute_per_batch = spec.reader.compute_per_iteration / batches as f64;
    for (rank, &ch) in channels.iter().enumerate() {
        let mut actions = Vec::with_capacity((spec.iterations * batches * 3) as usize + spec.ranks);
        match config.mode {
            ExecMode::Serial => {
                // Global barrier: wait until *every* writer has published
                // its final batch (analytics starts after simulation
                // completes, §II-A).
                for &other in &channels {
                    actions.push(Action::WaitVersion {
                        channel: other,
                        version: final_watermark,
                    });
                }
                for _v in 1..=spec.iterations {
                    for _k in 1..=batches {
                        actions.push(Action::Io {
                            resource: dev,
                            bytes: reader_batch_bytes,
                            attrs: r_attrs,
                        });
                        if reader_compute_per_batch > 0.0 {
                            actions.push(Action::Compute(SimDuration::from_secs(
                                reader_compute_per_batch,
                            )));
                        }
                    }
                }
            }
            ExecMode::Parallel => {
                // Pipelined: consume each batch as soon as the paired
                // writer publishes it — reader I/O overlaps writer I/O.
                for v in 1..=spec.iterations {
                    for k in 1..=batches {
                        actions.push(Action::WaitVersion {
                            channel: ch,
                            version: (v - 1) * batches + k,
                        });
                        actions.push(Action::Io {
                            resource: dev,
                            bytes: reader_batch_bytes,
                            attrs: r_attrs,
                        });
                        if reader_compute_per_batch > 0.0 {
                            actions.push(Action::Compute(SimDuration::from_secs(
                                reader_compute_per_batch,
                            )));
                        }
                    }
                }
            }
        }
        sim.spawn(format!("{prefix}reader-{rank}"), actions);
    }
}

/// Execute `spec` under `config` and return the measurements.
pub fn execute(
    spec: &WorkflowSpec,
    config: SchedConfig,
    params: &ExecutionParams,
) -> Result<RunMetrics, ExecError> {
    spec.validate().map_err(ExecError::Spec)?;
    check_fit(spec.ranks)?;
    let mut runs = execute_many(&[(spec, config)], params)?;
    Ok(runs.pop().expect("one metrics record per workflow"))
}

/// Execute several workflows concurrently on the same node and device
/// (see [`crate::coschedule`] for the validated entry point). Returns one
/// metrics record per workflow; `total` is measured from the shared t = 0
/// to that workflow's last reader finish. A lone workflow's processes are
/// named `writer-{r}` / `reader-{r}` and its record carries the timeline;
/// with several, names are prefixed `wf{i}-`.
pub(crate) fn execute_many(
    workflows: &[(&WorkflowSpec, SchedConfig)],
    params: &ExecutionParams,
) -> Result<Vec<RunMetrics>, ExecError> {
    let lone = workflows.len() == 1;
    let prefix = |i: usize| {
        if lone {
            String::new()
        } else {
            format!("wf{i}-")
        }
    };
    let mut sim = Simulation::new();
    if params.record_timeline {
        sim = sim.with_timeline();
    }
    let dev = sim.add_resource(Box::new(OptaneAllocator::new(params.profile.clone())));
    for (i, &(spec, config)) in workflows.iter().enumerate() {
        build_workflow_processes(&mut sim, dev, spec, config, params, &prefix(i));
    }
    let mut report = sim.run()?;
    let mut timeline = if lone { report.timeline.take() } else { None };
    let mut out = Vec::with_capacity(workflows.len());
    for (i, &(_, config)) in workflows.iter().enumerate() {
        let wp = format!("{}writer-", prefix(i));
        let rp = format!("{}reader-", prefix(i));
        let writers: Vec<&ProcessReport> = report
            .processes
            .iter()
            .filter(|p| p.name.starts_with(&wp))
            .collect();
        let readers: Vec<&ProcessReport> = report
            .processes
            .iter()
            .filter(|p| p.name.starts_with(&rp))
            .collect();
        // A workflow whose readers never reported a finish time must not
        // silently claim total == 0; fall back to the shared end time
        // (the engine guarantees all processes finished when run() is Ok,
        // but the prefix filter above could still come up empty).
        let reader_finish = readers
            .iter()
            .filter_map(|p| p.finished_at)
            .map(|t| t.seconds())
            .reduce(f64::max)
            .unwrap_or_else(|| report.end_time.seconds());
        out.push(RunMetrics {
            config,
            total: reader_finish,
            writer: component_metrics(&writers),
            reader: component_metrics(&readers),
            device: report.resources[0].clone(),
            events: report.events_processed,
            max_heap_depth: report.max_heap_depth,
            timeline: timeline.take(),
        });
    }
    Ok(out)
}

/// Execute `spec` under all four Table I configurations.
pub fn sweep(
    spec: &WorkflowSpec,
    params: &ExecutionParams,
) -> Result<crate::metrics::ConfigSweep, ExecError> {
    let mut runs = Vec::with_capacity(4);
    for config in SchedConfig::ALL {
        runs.push(execute(spec, config, params)?);
    }
    Ok(crate::metrics::ConfigSweep {
        workflow: spec.name.clone(),
        runs,
    })
}

/// Result of a standalone component run: per-rank aggregates plus the
/// device's view of the traffic.
#[derive(Debug, Clone)]
pub struct StandaloneReport {
    /// Mean per-rank metrics.
    pub component: ComponentMetrics,
    /// Device traffic/occupancy report.
    pub device: pmemflow_des::ResourceReport,
}

/// Run one component standalone — serial, with node-local PMEM — which is
/// exactly the operating point the paper uses to define a component's
/// **I/O index** (§IV-C).
pub fn execute_component_standalone(
    component: &ComponentSpec,
    ranks: usize,
    iterations: u64,
    dir: Direction,
    params: &ExecutionParams,
) -> Result<StandaloneReport, ExecError> {
    if ranks == 0 || iterations == 0 {
        return Err(ExecError::Spec(
            "ranks and iterations must be positive".into(),
        ));
    }
    check_fit(ranks)?;
    let cost = params.cost_model();
    let attrs = flow_attrs(
        dir,
        pmemflow_des::Locality::Local,
        component.io.object_bytes,
        0.0,
        &cost,
        &params.profile,
    );
    let mut sim = Simulation::new();
    let dev = sim.add_resource(Box::new(OptaneAllocator::new(params.profile.clone())));
    let bytes = component.io.snapshot_bytes() as f64;
    for rank in 0..ranks {
        let mut actions = Vec::new();
        for _ in 0..iterations {
            if component.compute_per_iteration > 0.0 {
                actions.push(Action::Compute(SimDuration::from_secs(
                    component.compute_per_iteration,
                )));
            }
            actions.push(Action::Io {
                resource: dev,
                bytes,
                attrs,
            });
        }
        sim.spawn(format!("standalone-{rank}"), actions);
    }
    let report = sim.run()?;
    let procs: Vec<&ProcessReport> = report.processes.iter().collect();
    Ok(StandaloneReport {
        component: component_metrics(&procs),
        device: report.resources[0].clone(),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemflow_workloads::{micro_2kb, micro_64mb};

    fn params() -> ExecutionParams {
        ExecutionParams::default()
    }

    #[test]
    fn micro64_serial_locw_runs() {
        let m = execute(&micro_64mb(8), SchedConfig::S_LOC_W, &params()).unwrap();
        assert!(m.total > 0.0);
        // 80 GB written + 80 GB read.
        assert!((m.writer.bytes - 80.0 * (1u64 << 30) as f64).abs() < 1e6);
        assert!((m.reader.bytes - 80.0 * (1u64 << 30) as f64).abs() < 1e6);
        // Serial: readers finish strictly after writers.
        assert!(m.reader.finish_time > m.writer.finish_time);
        assert_eq!(m.total, m.reader.finish_time);
    }

    #[test]
    fn serial_reader_never_overlaps_writer() {
        let m = execute(&micro_64mb(8), SchedConfig::S_LOC_W, &params()).unwrap();
        // In serial mode every reader waits out the whole writer phase.
        let (w_phase, r_phase) = m.serial_split();
        assert!(w_phase > 0.0 && r_phase > 0.0);
        assert!(m.reader.wait_time >= w_phase * 0.99);
    }

    #[test]
    fn parallel_overlaps() {
        let s = execute(&micro_64mb(8), SchedConfig::S_LOC_W, &params()).unwrap();
        let p = execute(&micro_64mb(8), SchedConfig::P_LOC_W, &params()).unwrap();
        // Parallel must overlap some reader I/O with writer I/O: peak
        // device concurrency exceeds the rank count.
        assert!(p.device.peak_concurrency > 8);
        assert!(s.device.peak_concurrency <= 8);
    }

    #[test]
    fn remote_write_placement_slows_bandwidth_bound_writers() {
        let locw = execute(&micro_64mb(24), SchedConfig::S_LOC_W, &params()).unwrap();
        let locr = execute(&micro_64mb(24), SchedConfig::S_LOC_R, &params()).unwrap();
        // Writer phase must be clearly slower when writes are remote
        // (calibrated remote-write curve; paper Fig. 4c shows the same).
        assert!(
            locr.writer.finish_time > 1.3 * locw.writer.finish_time,
            "remote {} vs local {}",
            locr.writer.finish_time,
            locw.writer.finish_time
        );
    }

    #[test]
    fn sweep_covers_all_configs() {
        let sw = sweep(&micro_2kb(8), &params()).unwrap();
        assert_eq!(sw.runs.len(), 4);
        for (run, cfg) in sw.runs.iter().zip(SchedConfig::ALL) {
            assert_eq!(run.config, cfg);
            assert!(run.total > 0.0);
        }
    }

    #[test]
    fn standalone_io_index_pure_io_is_one() {
        let spec = micro_64mb(8);
        let m =
            execute_component_standalone(&spec.writer, 8, 2, Direction::Write, &params()).unwrap();
        assert!(m.component.io_index() > 0.99);
        assert!(m.device.mean_busy_concurrency() > 1.0);
    }

    #[test]
    fn standalone_io_index_compute_heavy_is_low() {
        let spec = pmemflow_workloads::gtc_readonly(8);
        let m =
            execute_component_standalone(&spec.writer, 8, 2, Direction::Write, &params()).unwrap();
        let idx = m.component.io_index();
        assert!(idx < 0.4, "GTC sim I/O index should be low, got {idx}");
    }

    #[test]
    fn too_many_ranks_fail_to_pin() {
        let spec = micro_64mb(29); // paper node has 28 cores/socket
        assert!(matches!(
            execute(&spec, SchedConfig::S_LOC_W, &params()),
            Err(ExecError::Capacity { requested: 29 })
        ));
        assert!(matches!(
            execute_component_standalone(&spec.writer, 29, 1, Direction::Write, &params()),
            Err(ExecError::Capacity { requested: 29 })
        ));
        assert!(check_fit(CORES_PER_SOCKET).is_ok());
    }

    #[test]
    fn reader_bytes_follow_reader_spec_when_asymmetric() {
        // Regression: reader flows used to be charged batch bytes derived
        // from the *writer's* snapshot size. Build an asymmetric exchange
        // (reader consumes a quarter of what the writer produces) directly
        // — the public entry points validate() it away — and check the
        // per-component byte accounting.
        let mut spec = micro_64mb(4);
        spec.reader.io.object_bytes = spec.writer.io.object_bytes / 4;
        let params = params();
        let mut sim = Simulation::new();
        let dev = sim.add_resource(Box::new(OptaneAllocator::new(params.profile.clone())));
        build_workflow_processes(&mut sim, dev, &spec, SchedConfig::P_LOC_R, &params, "");
        let report = sim.run().unwrap();
        let written: f64 = report
            .processes
            .iter()
            .filter(|p| p.name.starts_with("writer-"))
            .map(|p| p.io_bytes)
            .sum();
        let read: f64 = report
            .processes
            .iter()
            .filter(|p| p.name.starts_with("reader-"))
            .map(|p| p.io_bytes)
            .sum();
        let expect_written = spec.total_bytes_written() as f64;
        let expect_read =
            (spec.ranks as u64 * spec.iterations * spec.reader.io.snapshot_bytes()) as f64;
        assert!((written - expect_written).abs() / expect_written < 1e-9);
        assert!(
            (read - expect_read).abs() / expect_read < 1e-9,
            "read {read} vs {expect_read}"
        );
    }

    #[test]
    fn execute_many_totals_are_positive_and_cover_readers() {
        // Regression: a tenant whose reader finish times went missing used
        // to report total == 0.0 from the fold's 0.0 seed.
        let (a, b) = (micro_2kb(4), micro_64mb(4));
        let workflows = [(&a, SchedConfig::P_LOC_R), (&b, SchedConfig::S_LOC_W)];
        let metrics = execute_many(&workflows, &params()).unwrap();
        assert_eq!(metrics.len(), 2);
        for m in &metrics {
            assert!(m.total > 0.0, "tenant reported zero total");
            assert!(
                m.total >= m.reader.finish_time - 1e-9,
                "total {} below reader finish {}",
                m.total,
                m.reader.finish_time
            );
            assert!(
                m.reader.channel_waits > 0,
                "readers must have parked at least once"
            );
        }
    }

    #[test]
    fn engine_counters_surface_in_metrics() {
        let m = execute(&micro_2kb(4), SchedConfig::P_LOC_R, &params()).unwrap();
        assert!(m.events > 0);
        assert!(m.max_heap_depth > 0);
        assert!(m.max_heap_depth as u64 <= m.events);
        // Parallel readers park on every batch they outrun.
        assert!(m.reader.channel_waits > 0);
        // Writers never wait on channels in this workload shape.
        assert_eq!(m.writer.channel_waits, 0);
    }

    #[test]
    fn determinism_across_runs() {
        let a = execute(&micro_2kb(16), SchedConfig::P_LOC_R, &params()).unwrap();
        let b = execute(&micro_2kb(16), SchedConfig::P_LOC_R, &params()).unwrap();
        assert_eq!(a.total.to_bits(), b.total.to_bits());
        assert_eq!(a.events, b.events);
    }

    #[test]
    fn nova_is_slower_than_nvstream_for_small_objects() {
        let spec = micro_2kb(8);
        let nvs = execute(&spec, SchedConfig::S_LOC_R, &params()).unwrap();
        let nova = execute(
            &spec,
            SchedConfig::S_LOC_R,
            &params().with_stack(StackKind::Nova),
        )
        .unwrap();
        // End-to-end the write phase may be bandwidth-bound in both stacks;
        // the software-cost difference shows up squarely in the local-read
        // phase (reads are never bandwidth-bound here).
        let (_, nvs_read) = nvs.serial_split();
        let (_, nova_read) = nova.serial_split();
        assert!(
            nova_read > 1.4 * nvs_read,
            "NOVA read phase {nova_read} vs NVStream {nvs_read}"
        );
        assert!(
            nova.total > 1.15 * nvs.total,
            "NOVA {} vs NVStream {}",
            nova.total,
            nvs.total
        );
    }
}
