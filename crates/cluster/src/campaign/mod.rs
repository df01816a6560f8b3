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
//! (the oracle's co-run memo, keyed on the multiset), `degrade` is the
//! node's transient bandwidth-class penalty from the fault plan, and `f`
//! is the checkpoint tax (below). Whenever `S` changes — an admission, a
//! completion, or an interruption — the node is re-priced and progress
//! carries over. This is a quantized mean-field approximation:
//! interference is exact for each resident set, held piecewise-constant
//! between membership changes.
//!
//! Between rate changes progress is affine in time, so the loop stores
//! it that way: each resident keeps an anchor time, the progress banked
//! there and its rate, and re-anchors only when its node is re-priced,
//! degrades or crashes. Its next event (completion or own failure) is
//! then an absolute time that does not move while the rate holds; a
//! `(time, node, epoch)` heap over the nodes' earliest events picks the
//! next one, and a re-anchored node's older entries are cancelled by
//! epoch. A node's busy core-seconds and an attempt's checkpoint tax
//! accrue when membership changes, and node views are refreshed only
//! for the nodes that changed — an instant costs work in proportion to
//! what changed at it, not to the node count.
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
//! A DAG-shaped submission
//! ([`Submission::Dag`](crate::arrivals::Submission::Dag)) expands at
//! arrival into one stage job per graph node, each a plain coupled
//! workflow the oracle already prices. Stages with unmet dependencies
//! are *held* (invisible to policies) and released — at the DAG's
//! original arrival priority — the instant their last predecessor
//! completes; each stage's solo time additionally carries its staged-I/O
//! seconds ([`stage_io_seconds`](dag::stage_io_seconds)). The DAG's
//! whole staging footprint
//! ([`DagSpec::staging_gib`](crate::stage_graph::DagSpec::staging_gib)) is
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

mod dag;
mod event_loop;
mod node;
mod queue;
mod record;

pub use record::{CampaignOutcome, JobRecord};

use crate::arrivals::{Arrival, ArrivalSpec};
use crate::fault::{CheckpointSpec, FaultPlan, FaultSpec};
use crate::policy::Policy;
use crate::predict::Oracle;
use dag::{DagRun, StagingState};
use event_loop::{ClosedLoop, Scratch};
use node::{EventHeap, FreeCores, NodeState, Repricer, Views};
use pmemflow_core::{check_fit, ExecError, ExecutionParams, CORES_PER_SOCKET};
use queue::{JobArena, Queue};
use std::collections::VecDeque;

/// Everything a campaign needs besides the policy.
#[derive(Debug, Clone)]
pub struct CampaignConfig {
    /// Number of identical nodes, each the paper's dual-socket testbed
    /// ([`pmemflow_core::CORES_PER_SOCKET`] cores per socket).
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

/// One campaign in flight: everything the event loop mutates. Its
/// methods live with their seam: the loop in `event_loop`, DAG settling
/// in `dag`, residents, their events and node views in `node`.
struct Campaign<'a> {
    config: &'a CampaignConfig,
    policy: &'a dyn Policy,
    oracle: &'a Oracle,
    /// Checkpoint tax `f` (see [`Campaign::new`]) and the wall-time
    /// multiplier `1 + f` it puts on every running job.
    ckpt_frac: f64,
    ckpt_mult: f64,
    plan: FaultPlan,
    /// Submissions not yet admitted, sorted by `(time, id)`.
    pending: VecDeque<Arrival>,
    closed: Option<ClosedLoop>,
    nodes: Vec<NodeState<'a>>,
    /// Where every queued job version lives; the queue, its policy view
    /// and the residents borrow from it.
    arena: &'a JobArena,
    queue: Queue<'a>,
    /// The booked records, each in its job id's slot.
    records: Vec<Option<JobRecord>>,
    staging: StagingState,
    dags: Vec<DagRun>,
    /// Stages whose dependencies are unmet: invisible to policies, but
    /// still work in flight.
    held: usize,
    /// Job ids are assigned in pop order: one per plain submission (so
    /// plain streams keep id == arrival id) and one per stage of a DAG
    /// submission, contiguous in stage order.
    next_job_id: u64,
    now: f64,
    makespan: f64,
    repricer: Repricer,
    /// Each node's earliest resident event, epoch-cancelled.
    events: EventHeap,
    /// Up nodes by cores in use: the capacity precheck's answer.
    free: FreeCores,
    /// The node views policies read, refreshed where marked stale.
    views: Views,
    /// Closed-loop clients whose submission ended at this instant.
    finished_clients: Vec<usize>,
    /// Per-instant buffers, empty between uses.
    scratch: Scratch<'a>,
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
    // Reject alphabet entries that cannot run even on an empty node —
    // better a config error up front than a stuck queue later.
    for (family, ranks) in config.arrivals.alphabet() {
        if check_fit(ranks).is_err() {
            return Err(ClusterError::Config(format!(
                "{}@{ranks} can never fit a {CORES_PER_SOCKET}-core socket",
                family.name()
            )));
        }
    }
    Ok(())
}

/// Serve `config.arrivals` with `policy` against a pre-built (shareable)
/// oracle. Returns the per-job records and campaign aggregates.
pub fn run_campaign_with_oracle(
    config: &CampaignConfig,
    policy: &dyn Policy,
    oracle: &Oracle,
) -> Result<CampaignOutcome, ClusterError> {
    validate(config)?;
    let arena = JobArena::new();
    Campaign::new(config, policy, oracle, &arena).run()
}

#[cfg(test)]
mod tests;
