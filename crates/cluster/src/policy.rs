//! Pluggable queue policies.
//!
//! A policy is consulted whenever the cluster state changes (an arrival or
//! a completion) and returns the batch of placements to make *now*. It
//! borrows the campaign's own queue (in queue order) and node views,
//! plus the shared prediction [`Oracle`]; the campaign loop applies the
//! batch and re-prices affected nodes. A round costs what it looks at
//! and places: the campaign hands over its queue as it stands, and the
//! policies plan in per-node slots, kept in a per-thread buffer reused
//! from round to round and filled from a node's view on the round's
//! first look, so nothing is copied or allocated per queued job or per
//! node.
//!
//! Four policies ship:
//!
//! * [`Fcfs`] — strict first-come-first-served: the queue head is placed
//!   on the first node with capacity; a blocked head blocks everyone
//!   behind it. The baseline every HPC batch scheduler starts from.
//! * [`EasyBackfill`] — FCFS plus EASY backfilling: a blocked head gets a
//!   shadow reservation at the earliest predicted time capacity frees
//!   (model-driven runtime predictions), and later jobs may jump the
//!   queue when they cannot delay that reservation. The reservation is
//!   *dual-resource* (per Kopański's burst-buffer-aware EASY,
//!   arXiv:2111.10200): the shadow instant is when both enough cores and
//!   enough PMEM staging capacity are predicted free, and
//!   staging-carrying jobs may not backfill onto the shadow node at all
//!   — their reservation outlives their own runtime.
//! * [`Table2Rule`] — the paper's Table II as an online policy: each job
//!   runs under its classified row's configuration and is placed on the
//!   least-loaded node with capacity (blocked jobs are skipped, not
//!   barriers).
//! * [`InterferenceAware`] — best-fit by predicted co-run damage: every
//!   candidate node is scored by co-simulating the job against the node's
//!   residents on the shared device model, and the job joins the node
//!   where the *marginal aggregate slowdown* (its own plus what it
//!   inflicts) is smallest — and only if that cost clears an admission
//!   threshold, because under PMEM contention declining a legal placement
//!   often beats taking it. Staged DAG intermediates resident on a node
//!   enter the score as a staging-pressure term, so workflows spread away
//!   from nodes whose PMEM already holds live cross-stage data.
//!
//! All policies treat PMEM staging capacity as a second schedulable
//! resource: a job declaring a staging footprint only fits a node whose
//! remaining capacity covers it, and a job pinned to its DAG's home node
//! (where its staged inputs live) is never placed elsewhere.

use crate::predict::{Oracle, TenantKey};
use pmemflow_core::{check_fit, ExecError, SchedConfig, CORES_PER_SOCKET};
use pmemflow_workloads::Family;
use std::cell::Cell;

/// A job waiting in the queue, as policies see it. The campaign keeps
/// its queue as a contiguous `&QueuedJob` sequence in queue order and
/// hands policies that slice itself (`&[&QueuedJob]`), so a scheduling
/// round over a deep backlog copies nothing; only while some entry is
/// inside its restart backoff is the eligible subset collected.
#[derive(Debug, Clone)]
pub struct QueuedJob {
    /// Submission id (arrival order).
    pub id: u64,
    /// Workload family.
    pub family: Family,
    /// Ranks per component (the per-socket core demand).
    pub ranks: usize,
    /// Submission time.
    pub arrival: f64,
    /// PMEM staging GiB to co-reserve at placement. Non-zero only for
    /// the first-placed stage of a workflow DAG, which reserves the
    /// whole DAG's footprint on its home node; plain jobs and
    /// already-homed stages carry 0.
    pub staging: f64,
    /// Home-node pin: once a DAG has reserved staging on a node, every
    /// later stage must run where its staged inputs live.
    pub home: Option<usize>,
}

/// A running job, as policies see it.
#[derive(Debug, Clone, PartialEq)]
pub struct ResidentView {
    /// Submission id.
    pub id: u64,
    /// Workload family.
    pub family: Family,
    /// Ranks per component.
    pub ranks: usize,
    /// Configuration it runs under.
    pub config: SchedConfig,
    /// Projected completion time at the current interference rate (an
    /// absolute time: it holds until the node's rates next change).
    pub projected_finish: f64,
}

/// One node's occupancy, as policies see it.
#[derive(Debug, Clone, PartialEq)]
pub struct NodeView {
    /// Node id.
    pub id: usize,
    /// Whether the node is alive. Crashed nodes appear in the snapshot
    /// (so node ids stay stable) but hold no jobs and accept none.
    pub up: bool,
    /// Jobs currently running on the node.
    pub residents: Vec<ResidentView>,
    /// PMEM staging capacity, GiB.
    pub staging_capacity: f64,
    /// GiB currently co-reserved by active DAG holds.
    pub staging_reserved: f64,
    /// GiB of staged intermediates currently live on the node (always
    /// within the reserved amount; interference pressure input).
    pub staged_gib: f64,
    /// Active staging holds as `(remaining_solo_seconds, gib)` — the
    /// hold is estimated to release the sum of the owning DAG's
    /// unsettled stages' solo runtimes after the instant it is read at,
    /// so a policy consulted at `now` reads the release time as
    /// `now + remaining`. One hold per DAG homed on the node, in
    /// ascending DAG-submission order. EASY's dual-resource shadow walks
    /// these.
    pub staging_holds: Vec<(f64, f64)>,
}

impl NodeView {
    /// Cores used per socket (every job pins `ranks` writers on one socket
    /// and `ranks` readers on the other, so both sockets carry the sum).
    fn used_cores(&self) -> usize {
        self.residents.iter().map(|r| r.ranks).sum()
    }

    /// Whether a `ranks`-wide job fits right now (never on a down node).
    pub fn fits(&self, ranks: usize) -> bool {
        self.up && check_fit(self.used_cores() + ranks).is_ok()
    }

    /// The tenant keys of the residents (for co-run pricing).
    fn resident_keys(&self) -> impl Iterator<Item = TenantKey> + '_ {
        self.residents
            .iter()
            .map(|r| TenantKey::new(r.family, r.ranks, r.config))
    }
}

/// A placement decision: start queue entry `job` on `node` under `config`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Placement {
    /// Submission id of the queued job.
    pub job: u64,
    /// Target node.
    pub node: usize,
    /// Configuration to run under.
    pub config: SchedConfig,
}

/// A queue policy. Implementations must be deterministic: the same
/// arguments must always produce the same batch.
pub trait Policy: Send + Sync {
    /// Short CLI name.
    fn name(&self) -> &'static str;

    /// Decide which queued jobs to start now. `queue` is in arrival
    /// order; `nodes` is in id order. The batch must be internally
    /// consistent (the campaign validates cumulative capacity).
    fn schedule(
        &self,
        now: f64,
        queue: &[&QueuedJob],
        nodes: &[NodeView],
        oracle: &Oracle,
    ) -> Result<Vec<Placement>, ExecError>;
}

/// Resolve a policy by CLI name.
pub fn policy_by_name(name: &str) -> Option<Box<dyn Policy>> {
    match name.to_ascii_lowercase().as_str() {
        "fcfs" => Some(Box::new(Fcfs)),
        "easy" | "easy-backfill" | "backfill" => Some(Box::new(EasyBackfill)),
        "table2" => Some(Box::new(Table2Rule)),
        "interference" | "interference-aware" => Some(Box::new(InterferenceAware)),
        _ => None,
    }
}

/// Valid `--policy` names for error messages and help text.
pub const POLICY_CHOICES: &str = "fcfs, easy, table2, interference, all";

/// All four policies in comparison order.
pub fn all_policies() -> Vec<Box<dyn Policy>> {
    vec![
        Box::new(Fcfs),
        Box::new(EasyBackfill),
        Box::new(Table2Rule),
        Box::new(InterferenceAware),
    ]
}

/// Tolerance for staging-capacity comparisons (GiB): reservations are
/// sums of exact binary volumes, but planned state accumulates floats.
const STAGING_EPS: f64 = 1e-9;

/// One node's planned state: up or not, cores in use and staging GiB
/// reserved, this batch's placements included. Valid in the round it
/// is stamped with.
#[derive(Clone, Copy, Default)]
struct Slot {
    round: u64,
    up: bool,
    used: usize,
    staging: f64,
}

thread_local! {
    /// The last round's stamp and its slots, handed to the next round on
    /// this thread: once warm, a round allocates nothing and clears
    /// nothing, since a bumped stamp makes every slot stale at once.
    static PLAN_SCRATCH: Cell<(u64, Vec<Cell<Slot>>)> = const { Cell::new((0, Vec::new())) };
}

/// The occupancy the policies plan cumulative batches against — cores
/// *and* staging, so a batch is internally consistent on both
/// resources. A node's slot is read from its view the first time the
/// round reaches it and then carries the batch's own placements, so a
/// round costs the nodes it looks at, and every later look is an index.
struct PlanState<'n> {
    nodes: &'n [NodeView],
    round: u64,
    slots: Vec<Cell<Slot>>,
    staging_cap: f64,
}

impl<'n> PlanState<'n> {
    fn new(nodes: &'n [NodeView]) -> PlanState<'n> {
        let (last, mut slots) = PLAN_SCRATCH.take();
        if slots.len() < nodes.len() {
            slots.resize(nodes.len(), Cell::default());
        }
        PlanState {
            nodes,
            round: last + 1,
            slots,
            staging_cap: nodes.first().map_or(0.0, |n| n.staging_capacity),
        }
    }

    /// `node`'s slot, read from its view on the round's first look.
    #[inline]
    fn slot(&self, node: usize) -> Slot {
        let s = self.slots[node].get();
        if s.round == self.round {
            s
        } else {
            self.refresh(node)
        }
    }

    #[cold]
    #[inline(never)]
    fn refresh(&self, node: usize) -> Slot {
        let n = &self.nodes[node];
        let s = Slot {
            round: self.round,
            up: n.up,
            used: n.used_cores(),
            staging: n.staging_reserved,
        };
        self.slots[node].set(s);
        s
    }

    fn used(&self, node: usize) -> usize {
        self.slot(node).used
    }

    fn staging(&self, node: usize) -> f64 {
        self.slot(node).staging
    }

    /// The cores in use on `node` if `job` fits it right now: the node
    /// is up, honors the job's home pin, and has both the cores and the
    /// staging headroom.
    fn fit(&self, node: usize, job: &QueuedJob) -> Option<usize> {
        if job.home.is_some_and(|h| h != node) {
            return None;
        }
        let s = self.slot(node);
        (s.up
            && check_fit(s.used + job.ranks).is_ok()
            && s.staging + job.staging <= self.staging_cap + STAGING_EPS)
            .then_some(s.used)
    }

    fn fits(&self, node: usize, job: &QueuedJob) -> bool {
        self.fit(node, job).is_some()
    }

    fn first_fit(&self, job: &QueuedJob) -> Option<usize> {
        (0..self.nodes.len()).find(|&n| self.fits(n, job))
    }

    /// Least-loaded node with room; ties go to the lowest id.
    fn least_loaded_fit(&self, job: &QueuedJob) -> Option<usize> {
        (0..self.nodes.len())
            .filter_map(|n| Some((self.fit(n, job)?, n)))
            .min()
            .map(|(_, n)| n)
    }

    fn place(&mut self, node: usize, job: &QueuedJob) {
        let s = self.slot(node);
        self.slots[node].set(Slot {
            used: s.used + job.ranks,
            staging: s.staging + job.staging,
            ..s
        });
    }
}

impl Drop for PlanState<'_> {
    fn drop(&mut self) {
        PLAN_SCRATCH.set((self.round, std::mem::take(&mut self.slots)));
    }
}

/// Strict first-come-first-served (see module docs).
pub struct Fcfs;

impl Policy for Fcfs {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn schedule(
        &self,
        _now: f64,
        queue: &[&QueuedJob],
        nodes: &[NodeView],
        oracle: &Oracle,
    ) -> Result<Vec<Placement>, ExecError> {
        let mut plan = PlanState::new(nodes);
        let mut batch = Vec::new();
        for job in queue {
            let Some(node) = plan.first_fit(job) else {
                break; // head-of-line blocking: nobody may overtake
            };
            plan.place(node, job);
            batch.push(Placement {
                job: job.id,
                node,
                config: oracle.best_config(job.family, job.ranks),
            });
        }
        Ok(batch)
    }
}

/// EASY backfilling over FCFS (see module docs).
pub(crate) struct EasyBackfill;

impl Policy for EasyBackfill {
    fn name(&self) -> &'static str {
        "easy"
    }

    fn schedule(
        &self,
        now: f64,
        queue: &[&QueuedJob],
        nodes: &[NodeView],
        oracle: &Oracle,
    ) -> Result<Vec<Placement>, ExecError> {
        let mut plan = PlanState::new(nodes);
        let mut batch = Vec::new();
        let mut rest = queue;
        // FCFS prefix: place heads while they fit.
        while let Some(job) = rest.first() {
            let Some(node) = plan.first_fit(job) else {
                break;
            };
            plan.place(node, job);
            batch.push(Placement {
                job: job.id,
                node,
                config: oracle.best_config(job.family, job.ranks),
            });
            rest = &rest[1..];
        }
        let Some(head) = rest.first() else {
            return Ok(batch);
        };
        // Dual-resource shadow reservation for the blocked head: per
        // node, the earliest time both enough cores (residents finishing)
        // and enough staging capacity (DAG holds releasing) are predicted
        // free. Both free curves are nondecreasing over the horizon, so
        // the joint instant is the max of the two single-resource
        // instants. Jobs just placed in the prefix are pessimistically
        // assumed to run to the end of the shadow horizon (they only
        // just started). A home-pinned head can only be anchored on its
        // home node.
        let mut shadow_node = 0usize;
        let mut shadow_time = f64::INFINITY;
        for node in nodes {
            // A down node cannot anchor the head's reservation: nothing
            // frees on it and nothing may start on it.
            if !node.up || check_fit(plan.used(node.id)).is_err() {
                continue;
            }
            if head.home.is_some_and(|h| h != node.id) {
                continue;
            }
            let mut finishes: Vec<(f64, usize)> = node
                .residents
                .iter()
                .map(|r| (r.projected_finish, r.ranks))
                .collect();
            finishes.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
            let mut t = now;
            let mut free = CORES_PER_SOCKET - plan.used(node.id);
            let mut fits_at = None;
            if free >= head.ranks {
                fits_at = Some(t);
            }
            for (finish, ranks) in finishes {
                if fits_at.is_some() {
                    break;
                }
                free += ranks;
                t = finish.max(now);
                if free >= head.ranks {
                    fits_at = Some(t);
                }
            }
            // Staging side: walk the node's holds in release order until
            // enough capacity is predicted free for the head's footprint.
            let mut staging_at = None;
            let mut staging_free = node.staging_capacity - plan.staging(node.id);
            if head.staging <= staging_free + STAGING_EPS {
                staging_at = Some(now);
            } else {
                let mut holds: Vec<(f64, f64)> = node
                    .staging_holds
                    .iter()
                    .map(|&(remaining, gib)| (now + remaining, gib))
                    .collect();
                holds.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.total_cmp(&b.1)));
                for (release, gib) in holds {
                    staging_free += gib;
                    if head.staging <= staging_free + STAGING_EPS {
                        staging_at = Some(release.max(now));
                        break;
                    }
                }
            }
            if let (Some(c), Some(s)) = (fits_at, staging_at) {
                let t = c.max(s);
                if t < shadow_time {
                    shadow_time = t;
                    shadow_node = node.id;
                }
            }
        }
        // Backfill pass: later jobs may start now when they fit and cannot
        // delay the reservation — on the shadow node only if predicted to
        // finish by the shadow time *and* carrying no staging (a staging
        // reservation outlives the job's own runtime, so it could hold
        // the head's capacity hostage past any runtime prediction);
        // elsewhere freely.
        for job in &rest[1..] {
            let config = oracle.best_config(job.family, job.ranks);
            let predicted_end = now + oracle.solo_runtime(job.family, job.ranks, config);
            let candidate = (0..nodes.len()).filter(|&n| plan.fits(n, job)).find(|&n| {
                n != shadow_node || (predicted_end <= shadow_time && job.staging == 0.0)
            });
            if let Some(node) = candidate {
                plan.place(node, job);
                batch.push(Placement {
                    job: job.id,
                    node,
                    config,
                });
            }
        }
        Ok(batch)
    }
}

/// Table II rule-based placement (see module docs).
pub(crate) struct Table2Rule;

impl Policy for Table2Rule {
    fn name(&self) -> &'static str {
        "table2"
    }

    fn schedule(
        &self,
        _now: f64,
        queue: &[&QueuedJob],
        nodes: &[NodeView],
        oracle: &Oracle,
    ) -> Result<Vec<Placement>, ExecError> {
        let mut plan = PlanState::new(nodes);
        let mut batch = Vec::new();
        for job in queue {
            let Some(node) = plan.least_loaded_fit(job) else {
                continue; // list scheduling: skip blocked jobs
            };
            plan.place(node, job);
            batch.push(Placement {
                job: job.id,
                node,
                config: oracle.table2_config(job.family, job.ranks),
            });
        }
        Ok(batch)
    }
}

/// Largest acceptable marginal aggregate slowdown for a non-head job to
/// join a node under [`InterferenceAware`]. A lone tenant costs exactly
/// 1.0, so this allows co-location only while the *total* added stretch
/// (the job's own plus what it inflicts on residents) stays below one
/// extra job-equivalent. The queue head is exempt — it always takes the
/// cheapest node, so nothing starves.
const MAX_MARGINAL: f64 = 2.0;

/// Weight of [`InterferenceAware`]'s staging-pressure term: live staged
/// intermediates (plus the incoming job's own footprint) as a fraction of
/// node staging capacity, added to the marginal-slowdown score. Zero
/// effect on plain campaigns (no staged bytes, no footprints); on DAG
/// campaigns it spreads work away from nodes whose PMEM already holds
/// cross-stage data.
const STAGING_WEIGHT: f64 = 1.0;

/// Interference-aware best fit (see module docs).
pub(crate) struct InterferenceAware;

impl Policy for InterferenceAware {
    fn name(&self) -> &'static str {
        "interference"
    }

    fn schedule(
        &self,
        _now: f64,
        queue: &[&QueuedJob],
        nodes: &[NodeView],
        oracle: &Oracle,
    ) -> Result<Vec<Placement>, ExecError> {
        let mut plan = PlanState::new(nodes);
        // This batch's own placements, in order, so scoring sees them
        // too: (node, tenant key, staging GiB).
        let mut own: Vec<(usize, TenantKey, f64)> = Vec::new();
        // A candidate node's planned residents, rebuilt per candidate.
        let mut set: Vec<TenantKey> = Vec::new();
        let mut batch = Vec::new();
        for (qi, job) in queue.iter().enumerate() {
            let config = oracle.best_config(job.family, job.ranks);
            let key = TenantKey::new(job.family, job.ranks, config);
            let mut best: Option<(f64, usize, usize)> = None; // (cost, used, node)
            for (node, view) in nodes.iter().enumerate() {
                if !plan.fits(node, job) {
                    continue;
                }
                let mine = || own.iter().filter(move |o| o.0 == node);
                set.clear();
                set.extend(view.resident_keys());
                set.extend(mine().map(|o| o.1));
                // Marginal aggregate cost of joining this node: the job's
                // own slowdown plus the extra slowdown it inflicts on the
                // planned residents. Scoring only the incoming job's side
                // over-packs — a newcomer can run nearly unharmed while
                // wrecking a bandwidth-bound resident.
                let before: f64 = oracle.corun_slowdowns(&set)?.iter().sum();
                set.push(key);
                let after: f64 = oracle.corun_slowdowns(&set)?.iter().sum();
                // Staged intermediates resident across stage boundaries
                // price like load: the more of the node's PMEM staging
                // is live (or about to be), the costlier joining it is.
                let pressure = if view.staging_capacity > 0.0 {
                    let planned_staging = mine().fold(0.0, |gib, o| gib + o.2);
                    STAGING_WEIGHT * (view.staged_gib + planned_staging + job.staging)
                        / view.staging_capacity
                } else {
                    0.0
                };
                let score = (after - before + pressure, plan.used(node), node);
                if best.is_none_or(|b| score < b) {
                    best = Some(score);
                }
            }
            let Some((cost, _, node)) = best else {
                continue; // skip blocked jobs, like table2
            };
            // Non-head jobs may not join when the co-location damage
            // outweighs the service: waiting for a cheaper slot beats
            // inflating everyone's runtime.
            if qi > 0 && cost > MAX_MARGINAL {
                continue;
            }
            plan.place(node, job);
            own.push((node, key, job.staging));
            batch.push(Placement {
                job: job.id,
                node,
                config,
            });
        }
        Ok(batch)
    }
}
