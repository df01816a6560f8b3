//! The online cluster campaign: admit, queue, place, drain — and recover.
//!
//! A campaign serves a stream of workflow arrivals over `N` modeled nodes.
//! The loop is an event-driven simulation one level above the per-workflow
//! DES: its events are arrivals, job completions, scheduled faults, and
//! backoff expiries, and the service-time model for each running job comes
//! from the device model below it.
//!
//! ## Service model
//!
//! Each job carries `solo` — its predicted solo runtime (from the oracle's
//! per-configuration sweep) in *solo-seconds* — and `progress`, how many of
//! those it has banked. While a set `S` of jobs is resident on a node,
//! every job `j ∈ S` progresses at rate
//! `1 / (slowdown_j(S) · degrade · (1 + f))`, where the slowdowns come
//! from co-simulating `S` against the shared PMEM device
//! ([`Oracle::corun_slowdowns`], memoized per multiset), `degrade` is the
//! node's transient bandwidth-class penalty from the fault plan, and `f`
//! is the checkpoint tax (below). Whenever `S` changes — an admission, a
//! completion, or an interruption — the node is re-priced and progress
//! carries over. This is a quantized mean-field approximation:
//! interference is exact for each resident set, held piecewise-constant
//! between membership changes.
//!
//! ## Faults and checkpoint/restart
//!
//! A [`FaultSpec`] expands into a deterministic [`FaultPlan`]: per-node
//! crash/repair and degradation windows plus per-attempt job failures.
//! When checkpointing is on ([`CheckpointSpec::interval`] > 0), every job
//! writes a checkpoint image into node-local PMEM each `interval`
//! solo-seconds; the write is charged through the I/O-stack cost model
//! ([`snapshot_sw_time`](../../pmemflow_iostack/struct.StackCostModel.html)),
//! so heavier stacks pay a bigger tax `f = image_cost / interval` exactly
//! as the paper couples software cost to device latency. On a crash (or a
//! job-level failure) every resident is interrupted: its progress rolls
//! back to the last checkpoint boundary (to zero without checkpointing),
//! the difference is booked as *lost work*, and the job is re-queued with
//! exponential backoff — keeping its original arrival priority and its
//! original configuration (a checkpoint image is only valid under the
//! configuration that wrote it). A job interrupted more times than its
//! retry budget is reported as `failed` instead of silently vanishing:
//! every submission ends in exactly one job record.
//!
//! ## Workflow DAGs and staging as a second resource
//!
//! A DAG-shaped submission ([`Arrival::dag`]) expands at arrival into one
//! stage job per graph node, each a plain coupled workflow the oracle
//! already prices. Stages with unmet dependencies are *held* (invisible
//! to policies) and released — at the DAG's original arrival priority —
//! the instant their last predecessor completes; each stage's solo time
//! additionally carries its staged-I/O seconds ([`stage_io_seconds`]).
//! The DAG's whole staging footprint ([`DagSpec::staging_gib`]) is
//! co-reserved on the node its first stage lands on (the *home* node)
//! and held until every stage settles; later stages are pinned home,
//! where their staged inputs live. Capacity is hard: no placement may
//! push a node's reserved GiB past [`CampaignConfig::staging_gib`].
//! A completed checkpoint stage banks one revival: a later stage that
//! exhausts its retry budget consumes it and restarts fresh from the
//! staged snapshot instead of failing the workflow; with no banked
//! revival the DAG fails and its not-yet-running stages settle as failed
//! records (running siblings drain normally, releasing nothing new).
//!
//! ## Determinism
//!
//! Everything is ordered by `(time, id)` with total f64 comparisons, the
//! arrival stream and the fault plan are seeded independently, and all
//! parallelism (`jobs`) lives in caches whose values are bit-identical
//! however they are computed — so a campaign's JSONL is byte-identical
//! for any `--jobs` and across runs.

use crate::arrivals::{arrival_for_draw, draw_submission, generate_open, Arrival, ArrivalSpec};
use crate::policy::{NodeView, Policy, QueuedJob, ResidentView};
use crate::predict::Oracle;
use crate::pricing::PriceCache;
use pmemflow_core::{json_escape, json_f64, ExecError, ExecutionParams, SchedConfig};
use pmemflow_dag::{stage_io_seconds, DagClass, DagSpec, StageKind, GIB};
use pmemflow_des::rng::SplitMix64;
use pmemflow_des::{Direction, Locality};
use pmemflow_fault::{requeue_backoff, CheckpointSpec, FaultEventKind, FaultPlan, FaultSpec};
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};
use std::sync::Arc;

/// Runtime threshold for bounded slowdown (seconds): jobs shorter than
/// this are not allowed to dominate the metric (Feitelson's BSLD).
pub const BSLD_TAU: f64 = 10.0;

/// Everything a campaign needs besides the policy.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of identical nodes (each the paper's dual-socket testbed
    /// unless `exec.node` says otherwise).
    pub nodes: usize,
    /// The arrival stream.
    pub arrivals: ArrivalSpec,
    /// Stream seed.
    pub seed: u64,
    /// Per-node execution parameters (device profile, I/O stack, ...).
    pub exec: ExecutionParams,
    /// Fault-injection schedule (default: nothing ever breaks).
    pub faults: FaultSpec,
    /// Checkpoint/restart parameters (default: checkpointing off — an
    /// interrupted job restarts from scratch).
    pub checkpoint: CheckpointSpec,
    /// Per-node PMEM staging capacity in GiB — the second schedulable
    /// resource. DAG submissions co-reserve their whole footprint here
    /// for their lifetime. Default 1536 GiB (12 x 128 GB DIMMs).
    pub staging_gib: f64,
}

impl Default for CampaignConfig {
    fn default() -> CampaignConfig {
        CampaignConfig {
            nodes: 1,
            arrivals: ArrivalSpec::Poisson {
                rate: 0.01,
                count: 0,
                mix: pmemflow_workloads::Family::all().to_vec(),
                dags: Vec::new(),
            },
            seed: 0,
            exec: ExecutionParams::default(),
            faults: FaultSpec::default(),
            checkpoint: CheckpointSpec::default(),
            staging_gib: 1536.0,
        }
    }
}

/// Errors from running a campaign.
#[derive(Debug)]
pub enum ClusterError {
    /// Bad campaign configuration.
    Config(String),
    /// A simulation below the campaign failed.
    Exec(ExecError),
}

impl std::fmt::Display for ClusterError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ClusterError::Config(s) => write!(f, "invalid campaign: {s}"),
            ClusterError::Exec(e) => write!(f, "campaign simulation failed: {e}"),
        }
    }
}

impl std::error::Error for ClusterError {}

impl From<ExecError> for ClusterError {
    fn from(e: ExecError) -> Self {
        ClusterError::Exec(e)
    }
}

/// The fate of one served job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Submission id (arrival order).
    pub id: u64,
    /// Workflow display name.
    pub workflow: String,
    /// Ranks per component.
    pub ranks: usize,
    /// Configuration it ran under (pinned across restarts).
    pub config: SchedConfig,
    /// Node it ran on last.
    pub node: usize,
    /// Submission time.
    pub arrival: f64,
    /// First admission time (restarts do not reset it).
    pub start: f64,
    /// Completion time — or, for a failed job, the time of the final
    /// interruption that exhausted its retry budget.
    pub finish: f64,
    /// Predicted solo runtime under `config` (the job's work).
    pub solo: f64,
    /// How many times the job was interrupted and re-queued.
    pub restarts: u32,
    /// Solo-seconds of progress rolled back across all interruptions.
    pub lost_work: f64,
    /// Wall-seconds spent writing checkpoint images into local PMEM.
    pub ckpt_overhead: f64,
    /// Whether the job ran to completion (`false`: retry budget exhausted).
    pub completed: bool,
    /// Owning DAG label for stage jobs (e.g. "diamond#3"); empty for
    /// plain jobs.
    pub dag: String,
    /// Stage name within the DAG (e.g. "sim", "viz"); empty for plain
    /// jobs.
    pub stage: String,
    /// GiB of staged intermediates this stage moves (in + out edges);
    /// 0 for plain jobs.
    pub staging_gib: f64,
}

impl JobRecord {
    /// Queue wait: first admission − submission.
    pub fn wait(&self) -> f64 {
        self.start - self.arrival
    }

    /// Response time: completion − submission.
    pub fn response(&self) -> f64 {
        self.finish - self.arrival
    }

    /// Stretch since first admission (interference, faults, requeue delays
    /// and checkpoint tax included): time in service over solo time.
    pub fn stretch(&self) -> f64 {
        (self.finish - self.start) / self.solo
    }

    /// Bounded slowdown: `max(response / max(solo, tau), 1)`.
    pub fn bounded_slowdown(&self, tau: f64) -> f64 {
        (self.response() / self.solo.max(tau)).max(1.0)
    }

    /// JSONL `outcome` field value.
    pub fn outcome(&self) -> &'static str {
        if self.completed {
            "completed"
        } else {
            "failed"
        }
    }
}

/// The result of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Policy that served the campaign.
    pub policy: String,
    /// Stream seed.
    pub seed: u64,
    /// Node count.
    pub nodes: usize,
    /// Every served job, in submission order — completed *and* failed:
    /// each submission produces exactly one record.
    pub jobs: Vec<JobRecord>,
    /// Time the last job finished (or failed).
    pub makespan: f64,
    /// Per-node busy core-seconds (both sockets).
    pub busy_core_secs: Vec<f64>,
    /// Total cores per node (both sockets).
    pub cores_per_node: usize,
    /// Per-node PMEM staging capacity, GiB.
    pub staging_capacity: f64,
    /// Per-node peak of co-reserved staging GiB over the campaign — the
    /// high-water mark the hard capacity check enforced.
    pub peak_staging_gib: Vec<f64>,
    /// Distinct co-residency sets priced against the device model so far.
    /// Diagnostics only: with a shared oracle this counts other concurrent
    /// campaigns' pricing too, so it is NOT deterministic and is excluded
    /// from the JSONL.
    pub corun_sets_priced: usize,
    /// Wall seconds spent inside node re-pricing (the campaign-local
    /// price cache). Timing diagnostics — NOT deterministic, excluded
    /// from the JSONL. Pricing is a small fraction of the loop, below
    /// end-to-end timer noise, so benchmarks read its cost here.
    pub reprice_secs: f64,
    /// How many node re-pricings the campaign performed (deterministic).
    pub reprice_calls: u64,
}

impl CampaignOutcome {
    /// The jobs that ran to completion (queueing aggregates cover these;
    /// failed jobs are counted separately, not averaged in).
    pub fn completed_jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.completed)
    }

    /// How many jobs completed.
    pub fn completed(&self) -> usize {
        self.completed_jobs().count()
    }

    /// How many jobs exhausted their retry budget.
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.completed()
    }

    /// Total interruptions across all jobs.
    pub fn total_restarts(&self) -> u64 {
        self.jobs.iter().map(|j| j.restarts as u64).sum()
    }

    /// Total solo-seconds rolled back across all jobs.
    pub fn total_lost_work(&self) -> f64 {
        self.jobs.iter().map(|j| j.lost_work).sum()
    }

    /// Total wall-seconds spent writing checkpoints across all jobs.
    pub fn total_ckpt_overhead(&self) -> f64 {
        self.jobs.iter().map(|j| j.ckpt_overhead).sum()
    }

    /// Mean queue wait over completed jobs, seconds.
    pub fn mean_wait(&self) -> f64 {
        mean(self.completed_jobs().map(JobRecord::wait))
    }

    /// 95th-percentile queue wait over completed jobs (nearest-rank).
    pub fn p95_wait(&self) -> f64 {
        let mut waits: Vec<f64> = self.completed_jobs().map(JobRecord::wait).collect();
        if waits.is_empty() {
            return 0.0;
        }
        waits.sort_by(f64::total_cmp);
        waits[((waits.len() as f64 * 0.95).ceil() as usize).clamp(1, waits.len()) - 1]
    }

    /// Mean response time over completed jobs, seconds.
    pub fn mean_response(&self) -> f64 {
        mean(self.completed_jobs().map(JobRecord::response))
    }

    /// Mean bounded slowdown over completed jobs (tau = [`BSLD_TAU`]).
    pub fn mean_bounded_slowdown(&self) -> f64 {
        mean(self.completed_jobs().map(|j| j.bounded_slowdown(BSLD_TAU)))
    }

    /// Maximum bounded slowdown over completed jobs.
    pub fn max_bounded_slowdown(&self) -> f64 {
        self.completed_jobs()
            .map(|j| j.bounded_slowdown(BSLD_TAU))
            .fold(1.0, f64::max)
    }

    /// Per-node utilization: busy core-seconds over `cores × makespan`.
    pub fn utilization(&self) -> Vec<f64> {
        let denom = self.cores_per_node as f64 * self.makespan;
        self.busy_core_secs
            .iter()
            .map(|&b| if denom > 0.0 { b / denom } else { 0.0 })
            .collect()
    }

    /// Serialize the campaign as JSON Lines: one `"kind":"job"` record per
    /// job (submission order) and one closing `"kind":"campaign"` summary.
    /// Every field is deterministic.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity((self.jobs.len() + 1) * 256);
        for j in &self.jobs {
            out.push_str(&format!(
                "{{\"kind\":\"job\",\"policy\":\"{}\",\"seed\":{},\"id\":{},\"workflow\":\"{}\",\
                 \"ranks\":{},\"config\":\"{}\",\"dag\":\"{}\",\"stage\":\"{}\",\
                 \"staging_gib\":{},\"node\":{},\"arrival_s\":{},\"start_s\":{},\
                 \"finish_s\":{},\"wait_s\":{},\"response_s\":{},\"solo_s\":{},\"stretch\":{},\
                 \"bounded_slowdown\":{},\"restarts\":{},\"lost_work_s\":{},\
                 \"ckpt_overhead_s\":{},\"outcome\":\"{}\"}}\n",
                json_escape(&self.policy),
                self.seed,
                j.id,
                json_escape(&j.workflow),
                j.ranks,
                j.config.label(),
                json_escape(&j.dag),
                json_escape(&j.stage),
                json_f64(j.staging_gib),
                j.node,
                json_f64(j.arrival),
                json_f64(j.start),
                json_f64(j.finish),
                json_f64(j.wait()),
                json_f64(j.response()),
                json_f64(j.solo),
                json_f64(j.stretch()),
                json_f64(j.bounded_slowdown(BSLD_TAU)),
                j.restarts,
                json_f64(j.lost_work),
                json_f64(j.ckpt_overhead),
                j.outcome(),
            ));
        }
        let util = self
            .utilization()
            .iter()
            .map(|u| json_f64(*u))
            .collect::<Vec<_>>()
            .join(",");
        let peaks = self
            .peak_staging_gib
            .iter()
            .map(|g| json_f64(*g))
            .collect::<Vec<_>>()
            .join(",");
        out.push_str(&format!(
            "{{\"kind\":\"campaign\",\"policy\":\"{}\",\"seed\":{},\"nodes\":{},\"jobs\":{},\
             \"completed\":{},\"failed\":{},\"makespan_s\":{},\"mean_wait_s\":{},\
             \"p95_wait_s\":{},\"mean_response_s\":{},\"mean_bounded_slowdown\":{},\
             \"max_bounded_slowdown\":{},\"total_restarts\":{},\"total_lost_work_s\":{},\
             \"total_ckpt_overhead_s\":{},\"staging_capacity_gib\":{},\
             \"peak_staging_gib\":[{}],\"utilization\":[{}]}}\n",
            json_escape(&self.policy),
            self.seed,
            self.nodes,
            self.jobs.len(),
            self.completed(),
            self.failed(),
            json_f64(self.makespan),
            json_f64(self.mean_wait()),
            json_f64(self.p95_wait()),
            json_f64(self.mean_response()),
            json_f64(self.mean_bounded_slowdown()),
            json_f64(self.max_bounded_slowdown()),
            self.total_restarts(),
            json_f64(self.total_lost_work()),
            json_f64(self.total_ckpt_overhead()),
            json_f64(self.staging_capacity),
            peaks,
            util,
        ));
        out
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}

struct Running {
    id: u64,
    workflow: Arc<str>,
    ranks: usize,
    config: SchedConfig,
    /// Interned pricing identity of `(workflow, ranks, config)`.
    tenant: u32,
    arrival: f64,
    /// First admission time, preserved across restarts.
    first_start: f64,
    client: Option<usize>,
    /// Predicted solo runtime under `config`.
    solo: f64,
    /// Solo-seconds of work banked so far (monotone within an attempt).
    progress: f64,
    restarts: u32,
    lost_work: f64,
    ckpt_overhead: f64,
    /// Current rate divisor from the node's resident set.
    slowdown: f64,
    /// Solo-progress at which this attempt dies of its own cause (drawn
    /// from the fault plan at placement; always < `solo` when present).
    fail_at: Option<f64>,
    /// `(dag index, stage index)` for DAG stage jobs.
    dag: Option<(u32, usize)>,
}

impl Running {
    /// The progress at which the next per-job event fires: the attempt's
    /// own failure point if one is scheduled, completion otherwise.
    fn target(&self) -> f64 {
        self.fail_at.unwrap_or(self.solo)
    }

    /// Wall-seconds per solo-second on a node with penalty `degrade` and
    /// checkpoint multiplier `ckpt_mult`.
    fn wall_mult(&self, degrade: f64, ckpt_mult: f64) -> f64 {
        self.slowdown * degrade * ckpt_mult
    }

    fn projected_event(&self, now: f64, degrade: f64, ckpt_mult: f64) -> f64 {
        now + (self.target() - self.progress).max(0.0) * self.wall_mult(degrade, ckpt_mult)
    }
}

struct NodeState {
    running: Vec<Running>,
    busy_core_secs: f64,
    /// Whether the node is alive (crashed nodes hold no jobs).
    up: bool,
    /// Transient bandwidth-class penalty (1.0 = healthy).
    degrade: f64,
}

struct Queued {
    /// The policy-facing fields (id, workflow, ranks, arrival), stored
    /// in the shape policies consume so a scheduling round can hand out
    /// `&QueuedJob` borrows instead of cloning every entry.
    job: QueuedJob,
    client: Option<usize>,
    restarts: u32,
    /// Solo-seconds of checkpointed progress the next attempt resumes from.
    resume: f64,
    /// Earliest time the job may be placed again (backoff after restarts).
    eligible: f64,
    lost_work: f64,
    ckpt_overhead: f64,
    /// First admission time, once the job has started at least once.
    first_start: Option<f64>,
    /// Configuration pinned by the first attempt: a checkpoint image is
    /// only valid under the configuration that wrote it.
    config: Option<SchedConfig>,
    /// `(dag index, stage index)` for DAG stage jobs.
    dag: Option<(u32, usize)>,
}

/// Keep the queue sorted by (arrival, id): a restarted job re-enters at
/// its original priority, not at the back. The index is maintained in
/// the same breath so it can never drift from the queue. Sortedness
/// makes the insert point a binary search, and the ring buffer makes
/// the insert shift only the shorter side — fresh arrivals (largest
/// key, back of the queue) cost O(log n) + O(1) even when a backlogged
/// campaign holds tens of thousands of entries.
fn enqueue(queue: &mut VecDeque<Queued>, index: &mut QueueIndex, q: Queued, now: f64) {
    index.on_enqueue(&q, now);
    let at = queue.partition_point(|o| (o.job.arrival, o.job.id) <= (q.job.arrival, q.job.id));
    queue.insert(at, q);
}

/// Position of the first queued entry at or past `(arrival, id)` in the
/// queue's order. A DAG's stages share its arrival and hold contiguous
/// ids, so its queued stages form one run starting at
/// `seek(queue, d.arrival, d.first_stage_id)`, and stage `si` (if
/// queued) sits at `seek(queue, d.arrival, d.first_stage_id + si)`.
fn seek(queue: &VecDeque<Queued>, arrival: f64, id: u64) -> usize {
    queue.partition_point(|o| (o.job.arrival, o.job.id) < (arrival, id))
}

/// What became of an interrupted attempt.
enum Interrupted {
    /// Back to the queue, to resume from `resume` after the backoff.
    Requeue(Queued),
    /// Retry budget exhausted: the submission ends here.
    Failed(JobRecord),
}

/// Roll an interrupted attempt back to its last checkpoint and decide its
/// fate under the retry budget.
fn interrupt(r: Running, node: usize, now: f64, ckpt: &CheckpointSpec) -> Interrupted {
    let resume = if ckpt.interval > 0.0 {
        ((r.progress / ckpt.interval).floor() * ckpt.interval).min(r.progress)
    } else {
        0.0
    };
    let lost_work = r.lost_work + (r.progress - resume).max(0.0);
    let restarts = r.restarts + 1;
    if restarts > ckpt.retry_budget {
        return Interrupted::Failed(JobRecord {
            id: r.id,
            workflow: r.workflow.to_string(),
            ranks: r.ranks,
            config: r.config,
            node,
            arrival: r.arrival,
            start: r.first_start,
            finish: now,
            solo: r.solo,
            restarts,
            lost_work,
            ckpt_overhead: r.ckpt_overhead,
            completed: false,
            // DAG identity is filled in by the caller, which owns the
            // stage-graph state.
            dag: String::new(),
            stage: String::new(),
            staging_gib: 0.0,
        });
    }
    let backoff = requeue_backoff(ckpt.backoff_base, restarts);
    Interrupted::Requeue(Queued {
        job: QueuedJob {
            id: r.id,
            workflow: r.workflow,
            ranks: r.ranks,
            arrival: r.arrival,
            // The reservation persists across restarts (it is held for
            // the DAG's lifetime) — a restarted stage carries none.
            staging: 0.0,
            // A stage restarts where its staged inputs live: PMEM
            // staging survives the crash, the attempt does not.
            home: r.dag.map(|_| node),
        },
        client: r.client,
        restarts,
        resume,
        eligible: now + backoff,
        lost_work,
        ckpt_overhead: r.ckpt_overhead,
        first_start: Some(r.first_start),
        config: Some(r.config),
        dag: r.dag,
    })
}

/// Rebuild one node's policy-facing view in place, reusing its
/// `residents` and `staging_holds` allocations. Field-for-field
/// identical to constructing the view from scratch at the same instant.
/// The holds come from the node's [`StagingState::homed`] index, so a
/// refresh costs O(residents + DAGs homed here), not a scan over every
/// DAG the campaign has seen.
fn refresh_view(
    view: &mut NodeView,
    n: &NodeState,
    now: f64,
    ckpt_mult: f64,
    staging: &StagingState,
    dags: &[DagRun],
) {
    view.up = n.up;
    view.residents.clear();
    view.residents
        .extend(n.running.iter().map(|r| ResidentView {
            id: r.id,
            workflow: r.workflow.clone(),
            ranks: r.ranks,
            config: r.config,
            projected_finish: r.projected_event(now, n.degrade, ckpt_mult),
        }));
    view.staging_reserved = staging.reserved[view.id];
    view.staged_gib = staging.live[view.id];
    view.staging_holds.clear();
    view.staging_holds
        .extend(staging.homed[view.id].iter().map(|&di| {
            let d = &dags[di as usize];
            (now + d.remaining_solo(), d.reservation)
        }));
    debug_assert_eq!(
        view.staging_holds,
        staging_holds_reference(dags, view.id, now),
        "homed index diverged from the reference scan"
    );
}

/// A node's staging holds by a scan over every DAG ever submitted: the
/// reference the [`StagingState::homed`] index is asserted equal to
/// under `debug_assertions`. `home` is `Some` only while stages remain
/// unsettled, so the second condition is a belt-and-braces check.
fn staging_holds_reference(dags: &[DagRun], node: usize, now: f64) -> Vec<(f64, f64)> {
    dags.iter()
        .filter(|d| d.home == Some(node) && d.unsettled > 0)
        .map(|d| (now + d.remaining_solo(), d.reservation))
        .collect()
}

/// Per-node PMEM staging occupancy — the second schedulable resource.
/// `reserved` is what placements are checked against (hard capacity);
/// `live` tracks the staged intermediates actually resident, which the
/// interference-aware policy prices as pressure; `homed` says which
/// DAGs hold the reservations, so node views read their holds from it.
struct StagingState {
    capacity: f64,
    reserved: Vec<f64>,
    live: Vec<f64>,
    peak: Vec<f64>,
    /// Per node, the indices of the DAGs homed there, ascending — the
    /// order the policies see their holds in. A DAG enters when its
    /// first stage is placed and leaves when its last stage settles.
    homed: Vec<Vec<u32>>,
}

impl StagingState {
    fn new(capacity: f64, nodes: usize) -> StagingState {
        StagingState {
            capacity,
            reserved: vec![0.0; nodes],
            live: vec![0.0; nodes],
            peak: vec![0.0; nodes],
            homed: vec![Vec::new(); nodes],
        }
    }

    /// Home DAG `di` on `node`: reserve its whole footprint `gib` and
    /// index it in submission order.
    fn home(&mut self, node: usize, di: u32, gib: f64) {
        self.reserved[node] += gib;
        self.peak[node] = self.peak[node].max(self.reserved[node]);
        let homed = &mut self.homed[node];
        let at = homed.binary_search(&di).expect_err("DAG homed twice");
        homed.insert(at, di);
    }

    /// Release DAG `di`'s reservation and live bytes on its home `node`.
    fn release(&mut self, node: usize, di: u32, reserved: f64, live: f64) {
        self.reserved[node] -= reserved;
        self.live[node] -= live;
        let homed = &mut self.homed[node];
        let at = homed.binary_search(&di).expect("homed DAG is indexed");
        homed.remove(at);
    }
}

/// Where one DAG stage is in its lifecycle.
#[derive(Clone, Copy, PartialEq, Eq)]
enum StageState {
    /// Dependencies unmet: invisible to policies.
    Held,
    /// In the queue (ready or in backoff).
    Ready,
    /// Resident on the home node.
    Running,
    /// Done: completed, failed, or cascade-failed.
    Settled,
}

/// One in-flight DAG submission's state.
struct DagRun {
    /// DAG label ("class#id"), the JSONL `dag` field of every stage.
    label: Arc<str>,
    spec: DagSpec,
    arrival: f64,
    client: Option<usize>,
    /// Job id of stage 0; stage `i` is `first_stage_id + i`.
    first_stage_id: u64,
    /// Per-stage count of predecessors not yet completed.
    deps_left: Vec<usize>,
    state: Vec<StageState>,
    /// Stages not yet settled; 0 means the DAG is finished.
    unsettled: usize,
    /// Per-stage estimated solo runtime (oracle best-config solo plus
    /// staged-I/O seconds) — release-time estimates for EASY's dual
    /// shadow and the solo of cascade-failed records.
    est_solo: Vec<f64>,
    /// Per-stage staged-I/O solo-seconds, added onto the oracle solo at
    /// placement.
    extra_solo: Vec<f64>,
    /// Whole-DAG staging footprint, GiB, co-reserved on `home` from the
    /// first stage placement until the last stage settles.
    reservation: f64,
    /// Node holding the reservation (set at first placement).
    home: Option<usize>,
    /// GiB of intermediates currently live on the home node.
    live_gib: f64,
    /// Banked checkpoint revivals: one per completed checkpoint stage.
    tokens: u32,
    /// A stage exhausted its retry budget with no revival banked; held
    /// and queued stages were settled as failed, nothing new releases.
    failed: bool,
}

impl DagRun {
    /// Estimated solo-seconds of work left: the release horizon of the
    /// staging hold.
    fn remaining_solo(&self) -> f64 {
        self.state
            .iter()
            .zip(&self.est_solo)
            .filter(|(st, _)| **st != StageState::Settled)
            .map(|(_, s)| s)
            .sum()
    }

    /// GiB of staged intermediates stage `i` touches (in + out edges).
    fn stage_staging_gib(&self, i: usize) -> f64 {
        (self.spec.stage_in_bytes(i) + self.spec.stage_out_bytes(i)) as f64 / GIB
    }
}

/// Backoff expiries strictly in the future, as event-loop candidates.
/// Exact comparison, no epsilon: an expiry at or before `now` is already
/// eligible (the queue view's business, not the event queue's), and an
/// expiry a nanosecond ahead must be selectable as the next event — the
/// old `e > now + 1e-9` filter dropped it from the candidate set and
/// parked the job on whatever unrelated event happened to come later.
fn next_backoff_expiry(queue: &VecDeque<Queued>, now: f64) -> Option<f64> {
    queue
        .iter()
        .map(|q| q.eligible)
        .filter(|&e| e > now)
        .min_by(f64::total_cmp)
}

/// Whether a queued job's backoff has expired at `now`. Exact, matching
/// [`next_backoff_expiry`]: a job is never placed before its expiry and
/// never waits past it, because the expiry itself is an event candidate.
fn backoff_expired(q: &Queued, now: f64) -> bool {
    q.eligible <= now
}

/// `f64` with the engine's total order, for use as a heap key.
#[derive(PartialEq)]
struct OrdF64(f64);

impl Eq for OrdF64 {}
impl PartialOrd for OrdF64 {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for OrdF64 {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.total_cmp(&other.0)
    }
}

/// Incremental indexes over the queue, so per-event bookkeeping does not
/// rescan every queued entry. Under a backlogged campaign the queue holds
/// tens of thousands of fat records; the two O(queue) scans the event
/// loop used to make per event (`next_backoff_expiry` and the capacity
/// precheck's min-ranks pass) dominated whole campaigns at cluster scale.
/// Every answer is exact — the fast paths degrade to the reference scans
/// (asserted equal under `debug_assertions`) whenever they cannot answer
/// precisely.
struct QueueIndex {
    /// Backoff expiries of queued entries, lazily pruned. An entry is
    /// pushed when it enters the queue with `eligible` still in the
    /// future and becomes stale once `now` passes that instant. A placed
    /// entry left the queue past its expiry (a job is never placed
    /// during backoff), so it is stale by the same rule.
    backoff: BinaryHeap<Reverse<OrdF64>>,
    /// Expiries of entries that left the queue still inside their
    /// backoff — a failed DAG cascades its queued stages out whatever
    /// their backoff. Each cancels one equal `backoff` entry when both
    /// reach the top, so a removed job never surfaces as an event.
    cancelled: BinaryHeap<Reverse<OrdF64>>,
    /// Multiset of `ranks` over the whole queue, backoff state ignored.
    /// Exact for eligibility-filtered queries while no backoff is
    /// pending, which is every round of a fault-free campaign.
    rank_counts: BTreeMap<usize, usize>,
}

impl QueueIndex {
    fn new() -> QueueIndex {
        QueueIndex {
            backoff: BinaryHeap::new(),
            cancelled: BinaryHeap::new(),
            rank_counts: BTreeMap::new(),
        }
    }

    fn on_enqueue(&mut self, q: &Queued, now: f64) {
        *self.rank_counts.entry(q.job.ranks).or_insert(0) += 1;
        if q.eligible > now {
            self.backoff.push(Reverse(OrdF64(q.eligible)));
        }
    }

    fn on_remove(&mut self, q: &Queued, now: f64) {
        if q.eligible > now {
            self.cancelled.push(Reverse(OrdF64(q.eligible)));
        }
        match self.rank_counts.get_mut(&q.job.ranks) {
            Some(1) => {
                self.rank_counts.remove(&q.job.ranks);
            }
            Some(n) => *n -= 1,
            None => unreachable!("rank multiset out of sync with the queue"),
        }
    }

    /// Drop expiries at or before `now` and cancel removed entries at the
    /// top; what remains are exactly the queued entries still in backoff
    /// (`cancelled` stays a sub-multiset of `backoff`, so when their
    /// minima differ the `backoff` minimum is live).
    fn prune(&mut self, now: f64) {
        let expired =
            |h: &BinaryHeap<Reverse<OrdF64>>| h.peek().is_some_and(|Reverse(OrdF64(e))| *e <= now);
        while expired(&self.backoff) {
            self.backoff.pop();
        }
        while expired(&self.cancelled) {
            self.cancelled.pop();
        }
        while self.backoff.peek().is_some() && self.backoff.peek() == self.cancelled.peek() {
            self.backoff.pop();
            self.cancelled.pop();
        }
    }

    /// [`next_backoff_expiry`] without the scan: the earliest expiry
    /// strictly after `now`, if any entry is still in backoff.
    fn next_expiry(&mut self, now: f64) -> Option<f64> {
        self.prune(now);
        self.backoff.peek().map(|Reverse(OrdF64(e))| *e)
    }

    /// Whether any queued entry is still inside its backoff at `now` —
    /// when false, every queued entry is eligible and the rank multiset
    /// answers eligibility-filtered queries exactly.
    fn has_backoff(&mut self, now: f64) -> bool {
        self.prune(now);
        !self.backoff.is_empty()
    }

    /// Smallest `ranks` over the whole queue.
    fn min_ranks(&self) -> Option<usize> {
        self.rank_counts.keys().next().copied()
    }
}

/// The node re-pricing machinery: the campaign-local incremental
/// [`PriceCache`] in front of the shared oracle.
#[derive(Default)]
struct Repricer {
    prices: PriceCache,
    ids: Vec<u32>,
    slowdowns: Vec<f64>,
    /// Wall nanoseconds spent repricing, and how many times — surfaced
    /// on [`CampaignOutcome`] so benchmarks can time the pricing path in
    /// isolation (it is ~1% of the loop; end-to-end wall can't see it).
    spent_ns: u64,
    calls: u64,
}

impl Repricer {
    /// Re-price a node after a membership change: one co-simulation of
    /// the resident multiset (memoized), progress carries over.
    fn reprice(&mut self, node: &mut NodeState, oracle: &Oracle) -> Result<(), ClusterError> {
        let t0 = std::time::Instant::now();
        self.calls += 1;
        self.ids.clear();
        self.ids.extend(node.running.iter().map(|r| r.tenant));
        self.prices.price(oracle, &self.ids, &mut self.slowdowns)?;
        // Every reprice in every campaign test is held bit-equal to the
        // oracle's multiset path on the same residents in node order.
        #[cfg(test)]
        {
            let keys: Vec<crate::predict::TenantKey> = node
                .running
                .iter()
                .map(|r| crate::predict::TenantKey::new(&r.workflow, r.ranks, r.config))
                .collect();
            let want = oracle.corun_slowdowns(&keys)?;
            let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&self.slowdowns),
                bits(&want),
                "price cache diverged from the oracle for {keys:?}"
            );
        }
        for (r, &s) in node.running.iter_mut().zip(self.slowdowns.iter()) {
            r.slowdown = s.max(1.0);
        }
        self.spent_ns += t0.elapsed().as_nanos() as u64;
        Ok(())
    }
}

/// Closed-loop stream state inside the loop.
struct ClosedLoop {
    think: f64,
    mix: Vec<pmemflow_workloads::Family>,
    dags: Vec<DagClass>,
    rng: SplitMix64,
    /// Submissions not yet made.
    budget: u64,
    next_id: u64,
}

impl ClosedLoop {
    fn submit(&mut self, time: f64, client: usize) -> Option<Arrival> {
        if self.budget == 0 {
            return None;
        }
        self.budget -= 1;
        let draw = draw_submission(&self.mix, &self.dags, &mut self.rng);
        let id = self.next_id;
        self.next_id += 1;
        Some(arrival_for_draw(
            draw,
            id,
            time,
            Some(client),
            &mut self.rng,
        ))
    }
}

/// Build the queue entry for a released (or source) DAG stage. The
/// entry keeps the DAG's arrival as its priority; an un-homed DAG's
/// stages each carry the whole reservation (the first one placed homes
/// the DAG and the siblings are rewritten pinned and weightless).
fn stage_entry(d: &DagRun, di: u32, si: usize, now: f64) -> Queued {
    let stage = &d.spec.stages[si];
    Queued {
        job: QueuedJob {
            id: d.first_stage_id + si as u64,
            workflow: stage.family.name().into(),
            ranks: stage.ranks,
            arrival: d.arrival,
            staging: if d.home.is_none() { d.reservation } else { 0.0 },
            home: d.home,
        },
        client: None,
        restarts: 0,
        resume: 0.0,
        eligible: now,
        lost_work: 0.0,
        ckpt_overhead: 0.0,
        first_start: None,
        config: None,
        dag: Some((di, si)),
    }
}

/// The failed record for a stage settled by cascade (its DAG failed
/// before it ever ran). `q` is its queue entry if it was ready.
fn failed_stage_record(
    d: &DagRun,
    si: usize,
    q: Option<&Queued>,
    now: f64,
    oracle: &Oracle,
) -> JobRecord {
    let stage = &d.spec.stages[si];
    let config = q
        .and_then(|q| q.config)
        .unwrap_or_else(|| oracle.best_config(stage.family.name(), stage.ranks));
    JobRecord {
        id: d.first_stage_id + si as u64,
        workflow: stage.family.name().to_string(),
        ranks: stage.ranks,
        config,
        node: d.home.unwrap_or(0),
        arrival: d.arrival,
        start: q.and_then(|q| q.first_start).unwrap_or(now),
        finish: now,
        solo: d.est_solo[si],
        restarts: q.map_or(0, |q| q.restarts),
        lost_work: q.map_or(0.0, |q| q.lost_work),
        ckpt_overhead: q.map_or(0.0, |q| q.ckpt_overhead),
        completed: false,
        dag: d.label.to_string(),
        stage: stage.name.clone(),
        staging_gib: d.stage_staging_gib(si),
    }
}

/// Release the staging reservation (and DAG `di`'s place in the homed
/// index) and fire the owning client once the last stage settles.
/// Idempotent: home and client are taken.
fn finish_dag_if_settled(
    di: u32,
    d: &mut DagRun,
    staging: &mut StagingState,
    finished_clients: &mut Vec<usize>,
) {
    if d.unsettled > 0 {
        return;
    }
    if let Some(h) = d.home.take() {
        staging.release(h, di, d.reservation, d.live_gib);
        d.live_gib = 0.0;
    }
    if let Some(c) = d.client.take() {
        finished_clients.push(c);
    }
}

/// Bookkeeping after stage `si` of dag `di` completes on `node`: bank a
/// checkpoint revival, roll the node's live staged bytes (outputs
/// appear, consumed inputs free), release ready successors into the
/// queue at the DAG's arrival priority, and close out the DAG when this
/// was the last stage.
#[allow(clippy::too_many_arguments)]
fn stage_completed(
    di: u32,
    si: usize,
    node: usize,
    now: f64,
    queue: &mut VecDeque<Queued>,
    qindex: &mut QueueIndex,
    dags: &mut [DagRun],
    staging: &mut StagingState,
    held: &mut usize,
    finished_clients: &mut Vec<usize>,
) {
    let d = &mut dags[di as usize];
    d.state[si] = StageState::Settled;
    d.unsettled -= 1;
    if d.spec.stages[si].kind == StageKind::Checkpoint {
        d.tokens += 1;
    }
    let delta = (d.spec.stage_out_bytes(si) as f64 - d.spec.stage_in_bytes(si) as f64) / GIB;
    d.live_gib += delta;
    staging.live[node] += delta;
    if !d.failed {
        for succ in d.spec.successors(si) {
            if d.state[succ] != StageState::Held {
                continue;
            }
            d.deps_left[succ] -= 1;
            if d.deps_left[succ] == 0 {
                *held -= 1;
                d.state[succ] = StageState::Ready;
                enqueue(queue, qindex, stage_entry(d, di, succ, now), now);
            }
        }
    }
    finish_dag_if_settled(di, d, staging, finished_clients);
}

/// Handle an interrupted attempt end to end: requeue it (stage jobs come
/// back pinned home), revive it from a banked checkpoint snapshot, or
/// fail it — and on a stage failure, fail the whole DAG and cascade its
/// not-yet-running stages into failed records.
#[allow(clippy::too_many_arguments)]
fn settle_interrupted(
    r: Running,
    node: usize,
    now: f64,
    ckpt: &CheckpointSpec,
    oracle: &Oracle,
    queue: &mut VecDeque<Queued>,
    qindex: &mut QueueIndex,
    records: &mut Vec<JobRecord>,
    dags: &mut [DagRun],
    staging: &mut StagingState,
    held: &mut usize,
    finished_clients: &mut Vec<usize>,
    makespan: &mut f64,
) {
    let client = r.client;
    let dag = r.dag;
    match interrupt(r, node, now, ckpt) {
        Interrupted::Requeue(q) => {
            if let Some((di, si)) = dag {
                dags[di as usize].state[si] = StageState::Ready;
            }
            enqueue(queue, qindex, q, now);
        }
        Interrupted::Failed(mut rec) => {
            *makespan = (*makespan).max(now);
            let Some((di, si)) = dag else {
                records.push(rec);
                if let Some(c) = client {
                    finished_clients.push(c);
                }
                return;
            };
            let d = &mut dags[di as usize];
            if d.tokens > 0 && !d.failed {
                // A completed checkpoint stage banked a revival: restart
                // this stage fresh from the staged snapshot after one
                // base backoff instead of failing the workflow.
                d.tokens -= 1;
                d.state[si] = StageState::Ready;
                enqueue(
                    queue,
                    qindex,
                    Queued {
                        job: QueuedJob {
                            id: rec.id,
                            workflow: Arc::from(rec.workflow.as_str()),
                            ranks: rec.ranks,
                            arrival: rec.arrival,
                            staging: 0.0,
                            home: Some(node),
                        },
                        client: None,
                        restarts: 0,
                        resume: 0.0,
                        eligible: now + ckpt.backoff_base,
                        lost_work: rec.lost_work,
                        ckpt_overhead: rec.ckpt_overhead,
                        first_start: Some(rec.start),
                        config: Some(rec.config),
                        dag,
                    },
                    now,
                );
                return;
            }
            rec.dag = d.label.to_string();
            rec.stage = d.spec.stages[si].name.clone();
            rec.staging_gib = d.stage_staging_gib(si);
            records.push(rec);
            d.state[si] = StageState::Settled;
            d.unsettled -= 1;
            d.failed = true;
            // Cascade: held and ready siblings settle as failed records;
            // running siblings drain normally but release nothing new.
            for sj in 0..d.spec.stages.len() {
                match d.state[sj] {
                    StageState::Held => {
                        *held -= 1;
                        records.push(failed_stage_record(d, sj, None, now, oracle));
                        d.state[sj] = StageState::Settled;
                        d.unsettled -= 1;
                    }
                    StageState::Ready => {
                        let qi = seek(queue, d.arrival, d.first_stage_id + sj as u64);
                        assert!(
                            queue.get(qi).is_some_and(|q| q.dag == Some((di, sj))),
                            "ready stage is queued"
                        );
                        debug_assert_eq!(
                            Some(qi),
                            queue.iter().position(|q| q.dag == Some((di, sj)))
                        );
                        qindex.on_remove(&queue[qi], now);
                        let q = queue.remove(qi).expect("index in range");
                        records.push(failed_stage_record(d, sj, Some(&q), now, oracle));
                        d.state[sj] = StageState::Settled;
                        d.unsettled -= 1;
                    }
                    StageState::Running | StageState::Settled => {}
                }
            }
            finish_dag_if_settled(di, d, staging, finished_clients);
        }
    }
}

/// Serve `config.arrivals` with `policy`, using up to `jobs` parallel
/// simulations for the oracle warm-up (never affecting results). Returns
/// the per-job records and campaign aggregates.
pub fn run_campaign(
    config: &CampaignConfig,
    policy: &dyn Policy,
    jobs: usize,
) -> Result<CampaignOutcome, ClusterError> {
    validate(config)?;
    let oracle = Oracle::build(&config.arrivals.alphabet(), &config.exec, jobs)?;
    run_campaign_with_oracle(config, policy, &oracle)
}

fn validate(config: &CampaignConfig) -> Result<(), ClusterError> {
    if config.nodes == 0 {
        return Err(ClusterError::Config("at least one node required".into()));
    }
    config.faults.validate().map_err(ClusterError::Config)?;
    config.checkpoint.validate().map_err(ClusterError::Config)?;
    if !config.staging_gib.is_finite() || config.staging_gib <= 0.0 {
        return Err(ClusterError::Config(
            "staging capacity must be positive and finite".into(),
        ));
    }
    let cores_per_socket = config.exec.node.cores_per_socket();
    // Reject alphabet entries that cannot run even on an empty node —
    // better a config error up front than a stuck queue later.
    for (name, ranks, _) in config.arrivals.alphabet() {
        if ranks > cores_per_socket {
            return Err(ClusterError::Config(format!(
                "{name}@{ranks} can never fit a {cores_per_socket}-core socket"
            )));
        }
    }
    Ok(())
}

/// [`run_campaign`] against a pre-built (shareable) oracle.
pub fn run_campaign_with_oracle(
    config: &CampaignConfig,
    policy: &dyn Policy,
    oracle: &Oracle,
) -> Result<CampaignOutcome, ClusterError> {
    validate(config)?;
    let cores_per_socket = config.exec.node.cores_per_socket();
    let ckpt = &config.checkpoint;

    // Checkpoint tax: one image of `state_bytes` (written as
    // `object_bytes` objects) into local PMEM every `interval`
    // solo-seconds, charged through the same stack cost model the
    // in-situ I/O pays — heavier software stacks tax checkpoints harder.
    let ckpt_frac = if ckpt.interval > 0.0 {
        let cost = config
            .exec
            .cost_override
            .unwrap_or_else(|| config.exec.stack.cost_model());
        let objects = ckpt.state_bytes.div_ceil(ckpt.object_bytes);
        let latency = config
            .exec
            .profile
            .latency(Direction::Write, Locality::Local);
        cost.snapshot_sw_time(Direction::Write, objects, ckpt.object_bytes, latency) / ckpt.interval
    } else {
        0.0
    };
    let ckpt_mult = 1.0 + ckpt_frac;
    let mut plan = FaultPlan::new(&config.faults, config.nodes);

    let mut pending: VecDeque<Arrival> = VecDeque::new();
    let mut closed: Option<ClosedLoop> = None;
    match &config.arrivals {
        ArrivalSpec::Closed {
            clients,
            think,
            count,
            mix,
            dags,
        } => {
            let mut state = ClosedLoop {
                think: *think,
                mix: mix.clone(),
                dags: dags.clone(),
                rng: SplitMix64::new(config.seed),
                budget: *count,
                next_id: 0,
            };
            // Every client submits its first job at t = 0.
            for c in 0..*clients {
                if let Some(a) = state.submit(0.0, c) {
                    pending.push_back(a);
                }
            }
            closed = Some(state);
        }
        open => {
            pending.extend(generate_open(open, config.seed).expect("open stream"));
        }
    }

    let mut nodes: Vec<NodeState> = (0..config.nodes)
        .map(|_| NodeState {
            running: Vec::new(),
            busy_core_secs: 0.0,
            up: true,
            degrade: 1.0,
        })
        .collect();
    let mut queue: VecDeque<Queued> = VecDeque::new();
    let mut qindex = QueueIndex::new();
    let mut records: Vec<JobRecord> = Vec::new();
    let mut staging = StagingState::new(config.staging_gib, config.nodes);
    let mut dags: Vec<DagRun> = Vec::new();
    // Stages whose dependencies are unmet: invisible to policies, but
    // still work in flight.
    let mut held: usize = 0;
    // Job ids are assigned in pop order: one per plain submission (so
    // plain streams keep id == arrival id) and one per stage of a DAG
    // submission, contiguous in stage order.
    let mut next_job_id: u64 = 0;
    let mut now = 0.0f64;
    let mut makespan = 0.0f64;
    let mut repricer = Repricer::default();
    // Node-view scratch, alive for the whole campaign and refreshed in
    // place: each node keeps its `residents` allocation across rounds,
    // so a consult costs field writes, not a thousand fresh `Vec`s.
    // (The queue view is still borrowed per round — it holds references
    // into `queue`, which the loop mutates between rounds.)
    let mut node_views: Vec<NodeView> = (0..config.nodes)
        .map(|id| NodeView {
            id,
            cores_per_socket,
            up: true,
            residents: Vec::new(),
            staging_capacity: config.staging_gib,
            staging_reserved: 0.0,
            staged_gib: 0.0,
            staging_holds: Vec::new(),
        })
        .collect();

    loop {
        // Stop once nothing is in flight anywhere; the fault plan is an
        // infinite stream, so it only counts as an event source while
        // there is work it could affect.
        let work_remains = !pending.is_empty()
            || !queue.is_empty()
            || held > 0
            || nodes.iter().any(|n| !n.running.is_empty());
        if !work_remains {
            break;
        }

        // Next event: the earliest of (arrival, per-job completion or
        // self-failure on an up node, backoff expiry, scheduled fault).
        let next_arrival = pending.front().map(|a| a.time);
        let next_job_event = nodes
            .iter()
            .filter(|n| n.up)
            .flat_map(|n| {
                n.running
                    .iter()
                    .map(move |r| r.projected_event(now, n.degrade, ckpt_mult))
            })
            .min_by(f64::total_cmp);
        let next_eligible = qindex.next_expiry(now);
        debug_assert_eq!(
            next_eligible.map(f64::to_bits),
            next_backoff_expiry(&queue, now).map(f64::to_bits),
            "backoff index diverged from the reference scan"
        );
        let next_fault = plan.peek_time();
        let Some(t) = [next_arrival, next_job_event, next_eligible, next_fault]
            .into_iter()
            .flatten()
            .min_by(f64::total_cmp)
        else {
            // Work remains but no event can release it: the post-loop
            // queue check reports the stuck jobs.
            break;
        };
        debug_assert!(t >= now - 1e-9, "time went backwards: {t} < {now}");
        let t = t.max(now);
        let dt = (t - now).max(0.0);

        // Advance running work and busy time to t. Rates are piecewise
        // constant on [now, t] because every rate change (membership,
        // degrade window, crash) is itself an event candidate above.
        // A zero-length step adds exactly +0.0 everywhere (progress and
        // busy time are never -0.0), so skipping it is bit-identical.
        if dt > 0.0 {
            for node in &mut nodes {
                if !node.up {
                    continue;
                }
                let env_mult = node.degrade * ckpt_mult;
                for r in &mut node.running {
                    r.progress += dt / (r.slowdown * env_mult);
                    // Of the dt wall-seconds, the checkpoint writes claim
                    // the f/(1+f) share (both numerator and denominator
                    // stretch with slowdown and degrade alike).
                    r.ckpt_overhead += dt * ckpt_frac / ckpt_mult;
                    node.busy_core_secs += 2.0 * r.ranks as f64 * dt;
                }
            }
        }
        now = t;

        let mut changed: Vec<usize> = Vec::new();
        let mut finished_clients: Vec<usize> = Vec::new();

        // Scheduled faults due at t, in the plan's deterministic order.
        while plan.peek_time().is_some_and(|ft| ft <= now + 1e-9) {
            let e = plan.pop().expect("peeked event exists");
            match e.kind {
                FaultEventKind::Crash => {
                    let node = &mut nodes[e.node];
                    node.up = false;
                    // Evacuate every resident back to its last checkpoint.
                    let evacuated: Vec<Running> = node.running.drain(..).collect();
                    for r in evacuated {
                        settle_interrupted(
                            r,
                            e.node,
                            now,
                            ckpt,
                            oracle,
                            &mut queue,
                            &mut qindex,
                            &mut records,
                            &mut dags,
                            &mut staging,
                            &mut held,
                            &mut finished_clients,
                            &mut makespan,
                        );
                    }
                }
                FaultEventKind::Repair => nodes[e.node].up = true,
                FaultEventKind::DegradeStart => {
                    nodes[e.node].degrade = config.faults.degrade_factor
                }
                FaultEventKind::DegradeEnd => nodes[e.node].degrade = 1.0,
            }
        }

        // Per-job events at t (tolerance for float drift), deterministic
        // order by (node, id): completions, or the attempt's own failure.
        for (ni, node) in nodes.iter_mut().enumerate() {
            if !node.up {
                continue;
            }
            let mut i = 0;
            while i < node.running.len() {
                let due =
                    node.running[i].projected_event(now, node.degrade, ckpt_mult) <= now + 1e-9;
                if !due {
                    i += 1;
                    continue;
                }
                let r = node.running.remove(i);
                if !changed.contains(&ni) {
                    changed.push(ni);
                }
                if r.fail_at.is_some() {
                    // The attempt dies of its own cause (fail_at < solo).
                    settle_interrupted(
                        r,
                        ni,
                        now,
                        ckpt,
                        oracle,
                        &mut queue,
                        &mut qindex,
                        &mut records,
                        &mut dags,
                        &mut staging,
                        &mut held,
                        &mut finished_clients,
                        &mut makespan,
                    );
                } else {
                    makespan = makespan.max(now);
                    if let Some(c) = r.client {
                        finished_clients.push(c);
                    }
                    let (dag_label, stage_name, staging_gib) = match r.dag {
                        Some((di, si)) => {
                            let d = &dags[di as usize];
                            (
                                d.label.to_string(),
                                d.spec.stages[si].name.clone(),
                                d.stage_staging_gib(si),
                            )
                        }
                        None => (String::new(), String::new(), 0.0),
                    };
                    records.push(JobRecord {
                        id: r.id,
                        workflow: r.workflow.to_string(),
                        ranks: r.ranks,
                        config: r.config,
                        node: ni,
                        arrival: r.arrival,
                        start: r.first_start,
                        finish: now,
                        solo: r.solo,
                        restarts: r.restarts,
                        lost_work: r.lost_work,
                        ckpt_overhead: r.ckpt_overhead,
                        completed: true,
                        dag: dag_label,
                        stage: stage_name,
                        staging_gib,
                    });
                    if let Some((di, si)) = r.dag {
                        stage_completed(
                            di,
                            si,
                            ni,
                            now,
                            &mut queue,
                            &mut qindex,
                            &mut dags,
                            &mut staging,
                            &mut held,
                            &mut finished_clients,
                        );
                    }
                }
            }
        }
        // Closed loop: each finished submission (completed or failed)
        // triggers its client's next think.
        if let Some(state) = closed.as_mut() {
            finished_clients.sort_unstable();
            for c in finished_clients {
                if let Some(a) = state.submit(now + state.think, c) {
                    // Insert keeping pending sorted by (time, id).
                    let at = pending.partition_point(|p| (p.time, p.id) <= (a.time, a.id));
                    pending.insert(at, a);
                }
            }
        }

        // Arrivals at t. A plain submission takes one job id; a DAG
        // submission expands into one stage job per graph node (ids
        // contiguous in stage order), sources queued now and the rest
        // held until their dependencies complete.
        while pending.front().is_some_and(|a| a.time <= now + 1e-9) {
            let a = pending.pop_front().expect("front exists");
            if let Some(spec) = a.dag {
                let di = dags.len() as u32;
                let n = spec.stages.len();
                let extra_solo: Vec<f64> = (0..n)
                    .map(|i| stage_io_seconds(&spec, i, &config.exec))
                    .collect();
                let est_solo: Vec<f64> = spec
                    .stages
                    .iter()
                    .zip(&extra_solo)
                    .map(|(st, extra)| {
                        let name = st.family.name();
                        oracle.solo_runtime(name, st.ranks, oracle.best_config(name, st.ranks))
                            + extra
                    })
                    .collect();
                let reservation = spec.staging_gib();
                if reservation > staging.capacity + 1e-9 {
                    return Err(ClusterError::Config(format!(
                        "DAG {} needs {reservation:.1} GiB staging but nodes hold {:.1}",
                        a.workflow, staging.capacity
                    )));
                }
                let deps_left: Vec<usize> = (0..n).map(|i| spec.predecessors(i).len()).collect();
                let state: Vec<StageState> = deps_left
                    .iter()
                    .map(|&dl| {
                        if dl == 0 {
                            StageState::Ready
                        } else {
                            StageState::Held
                        }
                    })
                    .collect();
                held += state.iter().filter(|&&st| st == StageState::Held).count();
                let d = DagRun {
                    label: Arc::from(a.workflow.as_str()),
                    spec,
                    arrival: a.time,
                    client: a.client,
                    first_stage_id: next_job_id,
                    deps_left,
                    state,
                    unsettled: n,
                    est_solo,
                    extra_solo,
                    reservation,
                    home: None,
                    live_gib: 0.0,
                    tokens: 0,
                    failed: false,
                };
                next_job_id += n as u64;
                for si in 0..n {
                    if d.state[si] == StageState::Ready {
                        enqueue(&mut queue, &mut qindex, stage_entry(&d, di, si, now), now);
                    }
                }
                dags.push(d);
            } else {
                let id = next_job_id;
                next_job_id += 1;
                enqueue(
                    &mut queue,
                    &mut qindex,
                    Queued {
                        job: QueuedJob {
                            id,
                            workflow: a.workflow.into(),
                            ranks: a.ranks,
                            arrival: a.time,
                            staging: 0.0,
                            home: None,
                        },
                        client: a.client,
                        restarts: 0,
                        resume: 0.0,
                        eligible: a.time,
                        lost_work: 0.0,
                        ckpt_overhead: 0.0,
                        first_start: None,
                        config: None,
                        dag: None,
                    },
                    now,
                );
            }
        }

        for &ni in &changed {
            repricer.reprice(&mut nodes[ni], oracle)?;
        }

        // Policy rounds: consult, apply what fits, re-price, repeat until
        // the policy places nothing more (each round shrinks the queue, so
        // this terminates). Policies only see jobs past their backoff and
        // the up/down state of every node.
        // Capacity precheck per round: when even the narrowest eligible
        // job cannot fit the freest up node, no capacity-respecting
        // policy can place anything — skip building the queue and node
        // snapshots and consulting the policy at all. (A placement that
        // does not fit would be skipped below and the round would end
        // with `placed_any == false` anyway, so the outcome is identical
        // for any deterministic policy.) Running before the snapshot
        // build matters: on a backlogged campaign this turns a
        // head-of-line-blocked round into one integer scan instead of an
        // O(queue) snapshot allocation. `None` means nothing is past its
        // backoff — no round to run. The min comes from the rank multiset
        // whenever no entry is inside its backoff (every queued entry is
        // eligible, so the unfiltered multiset is exact — the whole of a
        // fault-free campaign); otherwise from the reference scan.
        let mut views_fresh = false;
        let mut touched: Vec<usize> = Vec::new();
        while let Some(min_ranks) = if qindex.has_backoff(now) {
            queue
                .iter()
                .filter(|q| backoff_expired(q, now))
                .map(|q| q.job.ranks)
                .min()
        } else {
            debug_assert_eq!(
                qindex.min_ranks(),
                queue.iter().map(|q| q.job.ranks).min(),
                "rank multiset diverged from the queue"
            );
            qindex.min_ranks()
        } {
            let max_free = nodes
                .iter()
                .filter(|n| n.up)
                .map(|n| {
                    cores_per_socket
                        .saturating_sub(n.running.iter().map(|r| r.ranks).sum::<usize>())
                })
                .max()
                .unwrap_or(0);
            if min_ranks > max_free {
                break;
            }
            // Backoff pending: the view is the eligible subset. None
            // pending (all of a fault-free campaign): every queued entry
            // is past its backoff, so the filter is the identity — skip
            // the predicate and collect with an exact size hint.
            let queue_view: Vec<&QueuedJob> = if qindex.has_backoff(now) {
                queue
                    .iter()
                    .filter(|q| backoff_expired(q, now))
                    .map(|q| &q.job)
                    .collect()
            } else {
                debug_assert!(queue.iter().all(|q| backoff_expired(q, now)));
                queue.iter().map(|q| &q.job).collect()
            };
            // First round at this instant: every view is stale (the
            // projections moved with `now`, faults may have flipped
            // `up`). Later rounds: only nodes the previous round placed
            // on (and re-priced) changed — refresh exactly those.
            if views_fresh {
                for &ni in &touched {
                    refresh_view(
                        &mut node_views[ni],
                        &nodes[ni],
                        now,
                        ckpt_mult,
                        &staging,
                        &dags,
                    );
                }
            } else {
                for (view, n) in node_views.iter_mut().zip(nodes.iter()) {
                    refresh_view(view, n, now, ckpt_mult, &staging, &dags);
                }
                views_fresh = true;
            }
            let batch = policy.schedule(now, &queue_view, &node_views, oracle)?;
            if batch.is_empty() {
                break;
            }
            let mut placed_any = false;
            touched.clear();
            for p in batch {
                let Some(qi) = queue.iter().position(|q| q.job.id == p.job) else {
                    return Err(ClusterError::Config(format!(
                        "policy {} placed unknown job {}",
                        policy.name(),
                        p.job
                    )));
                };
                let used: usize = nodes[p.node].running.iter().map(|r| r.ranks).sum();
                if !nodes[p.node].up
                    || used + queue[qi].job.ranks > cores_per_socket
                    || queue[qi].job.home.is_some_and(|h| h != p.node)
                    || staging.reserved[p.node] + queue[qi].job.staging > staging.capacity + 1e-9
                {
                    // Batch raced its own earlier placements (or another
                    // stage homed the DAG elsewhere); re-consult.
                    continue;
                }
                qindex.on_remove(&queue[qi], now);
                let q = queue.remove(qi).expect("placement index in range");
                if let Some((di, si)) = q.dag {
                    let d = &mut dags[di as usize];
                    if d.home.is_none() {
                        // First placement homes the DAG: reserve its
                        // whole staging footprint here for its lifetime
                        // and pin every queued sibling to this node. The
                        // siblings are one contiguous run of the queue.
                        d.home = Some(p.node);
                        staging.home(p.node, di, d.reservation);
                        let run = seek(&queue, d.arrival, d.first_stage_id);
                        let sibling = |o: &Queued| o.dag.is_some_and(|(odi, _)| odi == di);
                        for o in queue.range_mut(run..).take_while(|o| sibling(o)) {
                            o.job.home = Some(p.node);
                            o.job.staging = 0.0;
                        }
                        debug_assert!(
                            queue
                                .iter()
                                .filter(|o| sibling(o))
                                .all(|o| o.job.home == Some(p.node)),
                            "a queued sibling escaped the pinning run"
                        );
                    }
                    d.state[si] = StageState::Running;
                }
                // A restarted job keeps the configuration its checkpoint
                // was written under, whatever the policy prefers now.
                let cfg = q.config.unwrap_or(p.config);
                let tenant = repricer
                    .prices
                    .intern(oracle, &q.job.workflow, q.job.ranks, cfg);
                // A stage additionally pays its staged I/O (edge volumes
                // through the PMEM snapshot path) on top of the oracle
                // solo of its workflow.
                let solo = repricer.prices.solo(tenant)
                    + q.dag
                        .map_or(0.0, |(di, si)| dags[di as usize].extra_solo[si]);
                let fail_at = plan
                    .job_failure(q.job.id, q.restarts as u64)
                    .map(|frac| q.resume + frac * (solo - q.resume))
                    .filter(|&fa| fa > q.resume && fa < solo - 1e-9);
                nodes[p.node].running.push(Running {
                    id: q.job.id,
                    workflow: q.job.workflow,
                    ranks: q.job.ranks,
                    config: cfg,
                    tenant,
                    arrival: q.job.arrival,
                    first_start: q.first_start.unwrap_or(now),
                    client: q.client,
                    solo,
                    progress: q.resume,
                    restarts: q.restarts,
                    lost_work: q.lost_work,
                    ckpt_overhead: q.ckpt_overhead,
                    slowdown: 1.0,
                    fail_at,
                    dag: q.dag,
                });
                if !touched.contains(&p.node) {
                    touched.push(p.node);
                }
                placed_any = true;
            }
            for &ni in &touched {
                repricer.reprice(&mut nodes[ni], oracle)?;
            }
            if !placed_any {
                break;
            }
        }
    }

    if !queue.is_empty() || held > 0 {
        return Err(ClusterError::Config(format!(
            "campaign drained with {} jobs still queued and {held} stages held (policy {})",
            queue.len(),
            policy.name()
        )));
    }
    debug_assert!(
        staging.homed.iter().all(Vec::is_empty),
        "a settled DAG is still indexed as homed"
    );
    records.sort_by_key(|r| r.id);
    Ok(CampaignOutcome {
        policy: policy.name().to_string(),
        seed: config.seed,
        nodes: config.nodes,
        jobs: records,
        makespan,
        busy_core_secs: nodes.iter().map(|n| n.busy_core_secs).collect(),
        cores_per_node: 2 * cores_per_socket,
        staging_capacity: config.staging_gib,
        peak_staging_gib: staging.peak,
        corun_sets_priced: oracle.corun_cache_len(),
        reprice_secs: repricer.spent_ns as f64 / 1e9,
        reprice_calls: repricer.calls,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{all_policies, Fcfs};
    use std::collections::BTreeMap;

    fn micro_config(n_arrivals: u64, nodes: usize) -> CampaignConfig {
        CampaignConfig {
            nodes,
            arrivals: ArrivalSpec::parse(&format!(
                "poisson:rate=0.005,n={n_arrivals},mix=micro-64mb"
            ))
            .unwrap(),
            seed: 42,
            ..CampaignConfig::default()
        }
    }

    #[test]
    fn fcfs_campaign_serves_every_arrival() {
        let cfg = micro_config(6, 2);
        let out = run_campaign(&cfg, &Fcfs, 2).unwrap();
        assert_eq!(out.jobs.len(), 6);
        assert_eq!(out.completed(), 6);
        assert_eq!(out.failed(), 0);
        for (i, j) in out.jobs.iter().enumerate() {
            assert_eq!(j.id, i as u64);
            assert!(j.start >= j.arrival - 1e-9, "job {i} started early");
            assert!(j.finish > j.start, "job {i} has no service time");
            assert!(j.node < 2);
            assert!(j.stretch() >= 0.999, "job {i} ran faster than solo");
            assert_eq!(j.restarts, 0);
            assert_eq!(j.lost_work, 0.0);
            assert_eq!(j.ckpt_overhead, 0.0, "no checkpointing configured");
        }
        assert!(out.makespan >= out.jobs.iter().map(|j| j.finish).fold(0.0, f64::max) - 1e-9);
        let util = out.utilization();
        assert_eq!(util.len(), 2);
        assert!(util.iter().all(|&u| (0.0..=1.0 + 1e-9).contains(&u)));
    }

    #[test]
    fn zero_nodes_is_a_config_error() {
        let cfg = micro_config(3, 0);
        assert!(matches!(
            run_campaign(&cfg, &Fcfs, 1),
            Err(ClusterError::Config(_))
        ));
    }

    #[test]
    fn oversized_workload_is_rejected_up_front() {
        let mut cfg = micro_config(3, 2);
        cfg.exec.node = pmemflow_platform::Node::dual_socket(4, 1 << 30, 1 << 30);
        assert!(matches!(
            run_campaign(&cfg, &Fcfs, 1),
            Err(ClusterError::Config(_))
        ));
    }

    #[test]
    fn bad_fault_spec_is_a_config_error() {
        let mut cfg = micro_config(3, 2);
        cfg.faults.job_fail_prob = 2.0;
        assert!(matches!(
            run_campaign(&cfg, &Fcfs, 1),
            Err(ClusterError::Config(_))
        ));
        let mut cfg = micro_config(3, 2);
        cfg.checkpoint.interval = -5.0;
        assert!(matches!(
            run_campaign(&cfg, &Fcfs, 1),
            Err(ClusterError::Config(_))
        ));
    }

    #[test]
    fn closed_loop_respects_population_and_budget() {
        let cfg = CampaignConfig {
            nodes: 2,
            arrivals: ArrivalSpec::parse("closed:clients=2,think=5,n=8,mix=micro-64mb").unwrap(),
            seed: 1,
            ..CampaignConfig::default()
        };
        let out = run_campaign(&cfg, &Fcfs, 2).unwrap();
        assert_eq!(out.jobs.len(), 8);
        // At most `clients` jobs are ever in flight: sort by start, check
        // every start has fewer than 2 unfinished predecessors.
        for j in &out.jobs {
            let in_flight = out
                .jobs
                .iter()
                .filter(|o| o.id != j.id && o.start <= j.start && o.finish > j.start)
                .count();
            assert!(
                in_flight < 2,
                "job {} overlapped {} others",
                j.id,
                in_flight
            );
        }
    }

    #[test]
    fn jsonl_is_parseable_shape() {
        let out = run_campaign(&micro_config(4, 2), &Fcfs, 2).unwrap();
        let text = out.to_jsonl();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 5); // 4 jobs + summary
        for l in &lines {
            assert!(l.starts_with('{') && l.ends_with('}'));
            assert_eq!(l.matches('{').count(), l.matches('}').count());
        }
        assert!(lines[..4].iter().all(|l| l.contains("\"kind\":\"job\"")));
        assert!(lines[..4]
            .iter()
            .all(|l| l.contains("\"outcome\":\"completed\"")));
        assert!(lines[4].contains("\"kind\":\"campaign\""));
        assert!(lines[4].contains("\"mean_bounded_slowdown\":"));
        assert!(lines[4].contains("\"total_lost_work_s\":"));
    }

    #[test]
    fn all_policies_serve_the_same_stream() {
        let cfg = micro_config(5, 2);
        let oracle = Oracle::build(&cfg.arrivals.alphabet(), &cfg.exec, 2).unwrap();
        for policy in all_policies() {
            let out = run_campaign_with_oracle(&cfg, policy.as_ref(), &oracle).unwrap();
            assert_eq!(out.jobs.len(), 5, "{}", policy.name());
            assert_eq!(out.policy, policy.name());
        }
    }

    /// A fault campaign sized against the workload's own solo runtime so
    /// crashes reliably hit running jobs.
    fn faulty_config(solo: f64, nodes: usize) -> CampaignConfig {
        let mut cfg = micro_config(6, nodes);
        cfg.faults = FaultSpec {
            seed: 11,
            mtbf: solo,
            repair: solo / 10.0,
            ..FaultSpec::default()
        };
        cfg.checkpoint = CheckpointSpec {
            interval: solo / 5.0,
            retry_budget: 8,
            backoff_base: 1.0,
            ..CheckpointSpec::default()
        };
        cfg
    }

    /// Solo runtime of the test workload, from a fault-free run.
    fn micro_solo() -> f64 {
        let out = run_campaign(&micro_config(1, 1), &Fcfs, 1).unwrap();
        out.jobs[0].solo
    }

    #[test]
    fn crashes_requeue_and_resume_from_checkpoints() {
        let solo = micro_solo();
        let cfg = faulty_config(solo, 2);
        let out = run_campaign(&cfg, &Fcfs, 2).unwrap();
        // Conservation: every submission ends in exactly one record.
        assert_eq!(out.jobs.len(), 6, "lost or duplicated jobs");
        assert_eq!(out.completed() + out.failed(), 6);
        assert!(
            out.total_restarts() > 0,
            "an MTBF equal to the solo runtime must interrupt someone"
        );
        for j in &out.jobs {
            assert!(j.lost_work >= -1e-9);
            assert!(
                j.lost_work <= cfg.checkpoint.interval * (j.restarts as f64 + 1.0) + 1e-6,
                "job {} lost {} solo-seconds with {} restarts — checkpoints not honored",
                j.id,
                j.lost_work,
                j.restarts
            );
            if j.completed {
                assert!(j.finish > j.start - 1e-9);
            } else {
                assert!(j.restarts > cfg.checkpoint.retry_budget);
            }
        }
        // Checkpoint writes cost wall time for everyone who ran.
        assert!(out.total_ckpt_overhead() > 0.0);
    }

    #[test]
    fn fault_campaigns_are_deterministic_and_seed_sensitive() {
        let solo = micro_solo();
        let cfg = faulty_config(solo, 2);
        let a = run_campaign(&cfg, &Fcfs, 1).unwrap().to_jsonl();
        let b = run_campaign(&cfg, &Fcfs, 2).unwrap().to_jsonl();
        assert_eq!(a, b, "fault campaign differs across --jobs");
        let mut other = cfg.clone();
        other.faults.seed = 12;
        let c = run_campaign(&other, &Fcfs, 1).unwrap().to_jsonl();
        assert_ne!(a, c, "fault seed has no effect");
    }

    #[test]
    fn checkpoint_tax_slows_completion_down() {
        let base = micro_config(2, 1);
        let fast = run_campaign(&base, &Fcfs, 1).unwrap();
        let mut taxed_cfg = base.clone();
        taxed_cfg.checkpoint.interval = fast.jobs[0].solo / 10.0;
        let taxed = run_campaign(&taxed_cfg, &Fcfs, 1).unwrap();
        assert!(
            taxed.mean_response() > fast.mean_response(),
            "checkpoint writes must cost wall time: {} vs {}",
            taxed.mean_response(),
            fast.mean_response()
        );
        assert!(taxed.jobs.iter().all(|j| j.ckpt_overhead > 0.0));
        assert!(fast.jobs.iter().all(|j| j.ckpt_overhead == 0.0));
    }

    #[test]
    fn exhausted_retry_budget_reports_failed_not_hung() {
        let solo = micro_solo();
        let mut cfg = faulty_config(solo, 1);
        // Crash far faster than any checkpoint accumulates and allow a
        // single retry: most submissions must die, none may hang.
        cfg.faults.mtbf = solo / 5.0;
        cfg.faults.repair = solo / 50.0;
        cfg.checkpoint.interval = 0.0; // restarts from scratch
        cfg.checkpoint.retry_budget = 1;
        let out = run_campaign(&cfg, &Fcfs, 1).unwrap();
        assert_eq!(out.jobs.len(), 6, "every submission must be accounted");
        assert!(
            out.failed() > 0,
            "mtbf at a fifth of the solo time with one retry must kill someone"
        );
        for j in out.jobs.iter().filter(|j| !j.completed) {
            assert_eq!(j.restarts, 2, "budget 1 means the 2nd interrupt is fatal");
            assert!(j.lost_work > 0.0, "a scratch restart loses all progress");
        }
    }

    /// The campaign-local incremental price cache must agree with a
    /// full-node reprice through the oracle, bit for bit, across
    /// admissions, completions, crashes and degradations. `Repricer`
    /// checks every reprice against the oracle under `cfg(test)`; these
    /// fault configurations make sure that check sees churn.
    #[test]
    fn incremental_pricing_matches_oracle_under_faults() {
        let solo = micro_solo();
        for (seed, policy) in [(11u64, 0usize), (12, 0), (11, 3)] {
            let mut cfg = faulty_config(solo, 2);
            cfg.faults.seed = seed;
            cfg.faults.degrade_mtbf = solo * 2.0;
            cfg.faults.job_fail_prob = 0.3;
            let policies = all_policies();
            let out = run_campaign(&cfg, policies[policy].as_ref(), 2).unwrap();
            assert!(
                out.reprice_calls > 0,
                "no reprice reached the oracle check (fault seed {seed})"
            );
        }
    }

    /// The oracle warm-up parallelism must never leak into results: the
    /// fault-campaign JSONL is byte-identical across `--jobs 1/4/8`.
    #[test]
    fn fault_campaign_jsonl_is_jobs_invariant() {
        let solo = micro_solo();
        let mut cfg = faulty_config(solo, 2);
        cfg.faults.job_fail_prob = 0.3;
        let reference = run_campaign(&cfg, &Fcfs, 1).unwrap().to_jsonl();
        for jobs in [4, 8] {
            let got = run_campaign(&cfg, &Fcfs, jobs).unwrap().to_jsonl();
            assert_eq!(reference, got, "--jobs {jobs} changed the campaign JSONL");
        }
    }

    /// Regression for the `next_eligible` epsilon bug: a backoff expiry a
    /// nanosecond ahead must be selectable as the next event (the old
    /// `e > now + 1e-9` filter dropped it from the candidate set), and
    /// eligibility must be exact — never a nanosecond early.
    #[test]
    fn backoff_expiry_selection_is_exact() {
        let q = |eligible: f64| Queued {
            job: QueuedJob {
                id: 0,
                workflow: "w".into(),
                ranks: 1,
                arrival: 0.0,
                staging: 0.0,
                home: None,
            },
            client: None,
            restarts: 0,
            resume: 0.0,
            eligible,
            lost_work: 0.0,
            ckpt_overhead: 0.0,
            first_start: None,
            config: None,
            dag: None,
        };
        let now = 100.0;
        let sub_ns = now + 1e-10;
        assert_eq!(
            next_backoff_expiry(&VecDeque::from([q(sub_ns)]), now),
            Some(sub_ns),
            "a sub-nanosecond future expiry must be an event candidate"
        );
        assert!(
            !backoff_expired(&q(sub_ns), now),
            "a job must wait for its own expiry, not be placed early"
        );
        // At or before now: eligible, and no longer an event candidate.
        assert!(backoff_expired(&q(now), now));
        assert!(backoff_expired(&q(now - 1.0), now));
        assert_eq!(next_backoff_expiry(&VecDeque::from([q(now)]), now), None);
        // The earliest future expiry wins.
        assert_eq!(
            next_backoff_expiry(&VecDeque::from([q(now + 2.0), q(now + 1.0)]), now),
            Some(now + 1.0)
        );
    }

    /// The incremental [`QueueIndex`] must agree with the reference
    /// scans it replaces — next backoff expiry and eligible-min-ranks —
    /// across randomized enqueue/advance/remove churn.
    #[test]
    fn queue_index_matches_reference_scans_under_churn() {
        let mk = |id: u64, ranks: usize, eligible: f64| Queued {
            job: QueuedJob {
                id,
                workflow: "w".into(),
                ranks,
                arrival: 0.0,
                staging: 0.0,
                home: None,
            },
            client: None,
            restarts: 0,
            resume: 0.0,
            eligible,
            lost_work: 0.0,
            ckpt_overhead: 0.0,
            first_start: None,
            config: None,
            dag: None,
        };
        let mut rng = SplitMix64::new(0x1D_E11);
        let mut queue: VecDeque<Queued> = VecDeque::new();
        let mut index = QueueIndex::new();
        let mut now = 0.0f64;
        for id in 0..2_000u64 {
            match rng.range_u64(0, 5) {
                // Enqueue: half already eligible, half in future backoff.
                0 | 1 => {
                    let ranks = [8, 16, 24][rng.range_usize(0, 3)];
                    let eligible = now + rng.range_f64(-5.0, 5.0);
                    enqueue(&mut queue, &mut index, mk(id, ranks, eligible), now);
                }
                // Advance time, sometimes exactly onto an expiry.
                2 => {
                    now = match next_backoff_expiry(&queue, now) {
                        Some(e) if rng.next_bool() => e,
                        _ => now + rng.range_f64(0.0, 3.0),
                    };
                }
                // Remove a random *eligible* entry, like a placement.
                3 => {
                    let eligible: Vec<usize> = (0..queue.len())
                        .filter(|&i| backoff_expired(&queue[i], now))
                        .collect();
                    if !eligible.is_empty() {
                        let qi = eligible[rng.range_usize(0, eligible.len())];
                        index.on_remove(&queue[qi], now);
                        queue.remove(qi);
                    }
                }
                // Remove any entry, in backoff or not, like a DAG cascade.
                _ => {
                    if !queue.is_empty() {
                        let qi = rng.range_usize(0, queue.len());
                        index.on_remove(&queue[qi], now);
                        queue.remove(qi);
                    }
                }
            }
            assert_eq!(
                index.next_expiry(now).map(f64::to_bits),
                next_backoff_expiry(&queue, now).map(f64::to_bits),
                "expiry diverged at step {id}"
            );
            let scan_min = queue
                .iter()
                .filter(|q| backoff_expired(q, now))
                .map(|q| q.job.ranks)
                .min();
            if index.has_backoff(now) {
                assert_eq!(
                    index.min_ranks(),
                    queue.iter().map(|q| q.job.ranks).min(),
                    "rank multiset diverged at step {id}"
                );
            } else {
                assert_eq!(
                    index.min_ranks(),
                    scan_min,
                    "with no backoff pending the multiset must be the \
                     eligible min exactly (step {id})"
                );
            }
        }
    }

    #[test]
    fn job_level_failures_alone_trigger_restarts() {
        let mut cfg = micro_config(4, 2);
        cfg.faults = FaultSpec {
            seed: 3,
            job_fail_prob: 0.5,
            ..FaultSpec::default()
        };
        cfg.checkpoint.interval = micro_solo() / 4.0;
        let out = run_campaign(&cfg, &Fcfs, 1).unwrap();
        assert_eq!(out.jobs.len(), 4);
        assert!(
            out.total_restarts() > 0,
            "a 50% per-attempt failure rate over 4 jobs should restart someone"
        );
        assert_eq!(out.completed() + out.failed(), 4);
    }
    /// A mixed plain + DAG arrival stream over two nodes.
    fn dag_config(n: u64, nodes: usize) -> CampaignConfig {
        CampaignConfig {
            nodes,
            arrivals: ArrivalSpec::parse(&format!("poisson:rate=0.0008,n={n},mix=micro-64mb+dag"))
                .unwrap(),
            seed: 9,
            ..CampaignConfig::default()
        }
    }

    /// Regenerate the arrival stream and index DAG specs by label, then
    /// look up each (dag, stage) job record.
    fn dag_specs_and_records(
        cfg: &CampaignConfig,
        out: &CampaignOutcome,
    ) -> Vec<(pmemflow_dag::DagSpec, Vec<JobRecord>)> {
        let arrivals = generate_open(&cfg.arrivals, cfg.seed).unwrap();
        arrivals
            .into_iter()
            .filter_map(|a| a.dag)
            .map(|spec| {
                let recs: Vec<JobRecord> = spec
                    .stages
                    .iter()
                    .map(|st| {
                        out.jobs
                            .iter()
                            .find(|j| j.dag == spec.name && j.stage == st.name)
                            .unwrap_or_else(|| {
                                panic!("no record for stage {} of {}", st.name, spec.name)
                            })
                            .clone()
                    })
                    .collect();
                (spec, recs)
            })
            .collect()
    }

    #[test]
    fn dag_campaign_respects_topology_and_is_jobs_invariant() {
        let cfg = dag_config(8, 2);
        let out = run_campaign(&cfg, &Fcfs, 1).unwrap();
        let dags = dag_specs_and_records(&cfg, &out);
        assert!(!dags.is_empty(), "seed 9 over 8 arrivals must draw a DAG");
        let mut plain = 0;
        for j in &out.jobs {
            assert!(j.completed, "fault-free run completes everything");
            if j.dag.is_empty() {
                assert_eq!(j.staging_gib, 0.0);
                plain += 1;
            }
        }
        assert_eq!(
            out.jobs.len(),
            plain + dags.iter().map(|(d, _)| d.stages.len()).sum::<usize>()
        );
        for (spec, recs) in &dags {
            // Every edge's consumer starts at or after its producer ends.
            for e in &spec.edges {
                assert!(
                    recs[e.to].start >= recs[e.from].finish - 1e-6,
                    "{}: stage {} started before its input {} was staged",
                    spec.name,
                    spec.stages[e.to].name,
                    spec.stages[e.from].name
                );
            }
            // A stage pays its staged I/O on top of the workflow solo.
            for (si, r) in recs.iter().enumerate() {
                let io = stage_io_seconds(spec, si, &cfg.exec);
                assert!(r.solo >= io - 1e-9, "stage solo must include its I/O");
                let expected = (spec.stage_in_bytes(si) + spec.stage_out_bytes(si)) as f64 / GIB;
                assert!((r.staging_gib - expected).abs() < 1e-9);
            }
        }
        // Byte-identical JSONL for any worker count.
        let reference = out.to_jsonl();
        for jobs in [4, 8] {
            let got = run_campaign(&cfg, &Fcfs, jobs).unwrap().to_jsonl();
            assert_eq!(reference, got, "--jobs {jobs} changed the campaign JSONL");
        }
    }

    #[test]
    fn staging_reservations_never_overcommit_any_node() {
        let cfg = dag_config(10, 2);
        for policy in all_policies() {
            let out = run_campaign(&cfg, policy.as_ref(), 2).unwrap();
            let dags = dag_specs_and_records(&cfg, &out);
            // All stages of a DAG run on its home node, and the whole
            // footprint is held there from first start to last finish.
            let holds: Vec<(usize, f64, f64, f64)> = dags
                .iter()
                .map(|(spec, recs)| {
                    let node = recs[0].node;
                    assert!(
                        recs.iter().all(|r| r.node == node),
                        "{}: stages straddle nodes under {}",
                        spec.name,
                        policy.name()
                    );
                    let start = recs.iter().map(|r| r.start).fold(f64::MAX, f64::min);
                    let finish = recs.iter().map(|r| r.finish).fold(0.0, f64::max);
                    (node, start, finish, spec.staging_gib())
                })
                .collect();
            for &(node, start, _, _) in &holds {
                let resident: f64 = holds
                    .iter()
                    .filter(|&&(n, s, f, _)| n == node && s <= start && start < f)
                    .map(|&(_, _, _, gib)| gib)
                    .sum();
                assert!(
                    resident <= out.staging_capacity + 1e-9,
                    "{}: node {node} over-committed to {resident:.1} GiB",
                    policy.name()
                );
            }
            for (ni, &peak) in out.peak_staging_gib.iter().enumerate() {
                assert!(
                    peak <= out.staging_capacity + 1e-9,
                    "{}: node {ni} peak {peak:.1} GiB over capacity",
                    policy.name()
                );
            }
            if !dags.is_empty() {
                assert!(out.peak_staging_gib.iter().any(|&p| p > 0.0));
            }
        }
    }

    #[test]
    fn dag_campaigns_conserve_submissions_under_faults() {
        let mut cfg = dag_config(8, 2);
        cfg.faults = FaultSpec {
            seed: 5,
            mtbf: 40_000.0,
            repair: 4_000.0,
            job_fail_prob: 0.2,
            ..FaultSpec::default()
        };
        cfg.checkpoint = CheckpointSpec {
            interval: 10_000.0,
            retry_budget: 2,
            backoff_base: 1.0,
            ..CheckpointSpec::default()
        };
        let out = run_campaign(&cfg, &Fcfs, 1).unwrap();
        let arrivals = generate_open(&cfg.arrivals, cfg.seed).unwrap();
        let expected: usize = arrivals
            .iter()
            .map(|a| a.dag.as_ref().map_or(1, |d| d.stages.len()))
            .sum();
        assert_eq!(out.jobs.len(), expected, "every stage ends in one record");
        assert_eq!(out.completed() + out.failed(), expected);
        // Determinism holds under faults too.
        let reference = out.to_jsonl();
        let got = run_campaign(&cfg, &Fcfs, 8).unwrap().to_jsonl();
        assert_eq!(reference, got);
    }

    /// The per-node homed index behind `NodeView::staging_holds` must give
    /// the reference scan's holds, values and order, at every view
    /// refresh, and drain to empty once the campaign settles. Both are
    /// asserted inside the campaign loop under `debug_assertions`. This
    /// campaign drives every path that homes or settles a DAG: crashes
    /// requeue pinned stages, job failures exhaust the retry budget and
    /// cascade, banked checkpoints revive stages, and the backfilling
    /// policies home DAGs out of submission order, which inserts into the
    /// middle of a node's list. The checks below prove each path ran.
    #[test]
    fn staging_holds_match_reference_scan_under_churn() {
        let cfg = CampaignConfig {
            nodes: 3,
            arrivals: ArrivalSpec::parse("poisson:rate=1,n=60,mix=all+dag").unwrap(),
            seed: 42,
            faults: FaultSpec {
                seed: 1234,
                mtbf: 40.0,
                repair: 10.0,
                degrade_mtbf: 60.0,
                degrade_duration: 15.0,
                job_fail_prob: 0.1,
                ..FaultSpec::default()
            },
            checkpoint: CheckpointSpec {
                interval: 3.0,
                retry_budget: 2,
                ..CheckpointSpec::default()
            },
            ..CampaignConfig::default()
        };
        let arrivals = generate_open(&cfg.arrivals, cfg.seed).unwrap();
        let expected: usize = arrivals
            .iter()
            .map(|a| a.dag.as_ref().map_or(1, |d| d.stages.len()))
            .sum();
        let oracle = Oracle::build(&cfg.arrivals.alphabet(), &cfg.exec, 2).unwrap();
        let (mut restarts, mut cascaded, mut revived, mut out_of_order) = (0, 0, 0, 0);
        for policy in all_policies() {
            let out = run_campaign_with_oracle(&cfg, policy.as_ref(), &oracle).unwrap();
            assert_eq!(out.jobs.len(), expected, "{}", policy.name());
            restarts += out.total_restarts();
            let stages = out.jobs.iter().filter(|j| !j.dag.is_empty());
            // Never-started stages settled by a DAG failure.
            cascaded += stages
                .clone()
                .filter(|j| !j.completed && j.start == j.finish)
                .count();
            // A revival requeues with lost work kept and restarts reset.
            revived += stages
                .clone()
                .filter(|j| j.lost_work > 0.0 && j.restarts == 0)
                .count();
            // Per DAG (in submission order): home node, homing time (its
            // first stage start) and settle time (its last stage finish).
            let mut spans: BTreeMap<u64, (usize, f64, f64)> = BTreeMap::new();
            for j in stages {
                let id = j.dag.rsplit('#').next().unwrap().parse().unwrap();
                let span = spans.entry(id).or_insert((j.node, j.start, j.finish));
                assert_eq!(span.0, j.node, "every stage of a DAG runs at home");
                span.1 = span.1.min(j.start);
                span.2 = span.2.max(j.finish);
            }
            // A DAG homed while a later-submitted one is still held on the
            // same node lands mid-list, not at the end.
            let spans: Vec<_> = spans.into_values().collect();
            for (i, a) in spans.iter().enumerate() {
                out_of_order += spans[i + 1..]
                    .iter()
                    .filter(|b| b.0 == a.0 && b.1 < a.1 && a.1 < b.2)
                    .count();
            }
        }
        assert!(restarts > 0, "no crash or job failure restarted a stage");
        assert!(cascaded > 0, "no DAG failure cascaded");
        assert!(revived > 0, "no banked checkpoint revived a stage");
        assert!(out_of_order > 0, "every DAG was homed in submission order");
    }
}
