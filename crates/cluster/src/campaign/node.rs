//! Nodes: the attempts resident on them, their re-pricing, the heap of
//! their projected events, the free-core index and the views policies
//! read. Every per-node index here changes only when its node does, so
//! an event instant costs work in proportion to the nodes it touches.

use super::dag::{DagRun, StagingState};
use super::queue::Queued;
use super::{Campaign, ClusterError};
use crate::policy::{NodeView, ResidentView};
use crate::predict::{Oracle, TenantId};
use pmemflow_core::{SchedConfig, CORES_PER_SOCKET};
use pmemflow_des::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// One attempt resident on a node. Its progress is affine in time
/// between re-anchors: `progress + (t - anchor) / pace` solo-seconds at
/// time `t`, so nothing has to touch it while its rate holds.
pub(super) struct Running<'a> {
    /// The queue entry it was placed from, its configuration and first
    /// start pinned at placement; an interruption rewrites it in place
    /// for the requeue.
    pub(super) q: Queued<'a>,
    /// The oracle's interned id of the job's `TenantKey`: family, ranks and
    /// pinned configuration.
    pub(super) tenant: TenantId,
    /// Predicted solo runtime under the pinned configuration.
    pub(super) solo: f64,
    /// Solo-seconds of work banked at `anchor` (monotone within an
    /// attempt).
    pub(super) progress: f64,
    /// The campaign time `progress` was banked at.
    anchor: f64,
    /// When the attempt was placed; its checkpoint tax accrues from here.
    placed: f64,
    /// Current rate divisor from the node's resident set.
    slowdown: f64,
    /// Wall-seconds per solo-second since `anchor`: the slowdown times
    /// the node's degrade penalty times the checkpoint multiplier.
    pace: f64,
    /// When the next per-job event fires (the attempt's own failure
    /// point if one is scheduled, completion otherwise): an absolute
    /// time that holds until the next re-anchor.
    event_at: f64,
    /// Solo-progress at which this attempt dies of its own cause (drawn
    /// from the fault plan at placement; always < `solo` when present).
    pub(super) fail_at: Option<f64>,
}

impl<'a> Running<'a> {
    /// An attempt placed at `now` on a node whose environment multiplier
    /// (degrade × checkpoint) is `env`, resuming from `q.resume`. It runs
    /// unslowed until its node is re-priced.
    pub(super) fn new(
        q: Queued<'a>,
        tenant: TenantId,
        solo: f64,
        fail_at: Option<f64>,
        now: f64,
        env: f64,
    ) -> Running<'a> {
        let mut r = Running {
            progress: q.resume,
            q,
            tenant,
            solo,
            anchor: now,
            placed: now,
            slowdown: 1.0,
            pace: env,
            event_at: f64::INFINITY,
            fail_at,
        };
        r.reanchor(now, 1.0, env);
        r
    }

    /// The configuration pinned at placement.
    pub(super) fn config(&self) -> SchedConfig {
        self.q.config.expect("configuration pinned at placement")
    }

    /// Solo-seconds banked by time `t` at the current rate.
    fn progress_at(&self, t: f64) -> f64 {
        self.progress + (t - self.anchor) / self.pace
    }

    /// Bank progress up to `t`, then continue at `slowdown` on a node
    /// whose environment multiplier is `env`; the event time moves to
    /// where the new rate puts it.
    fn reanchor(&mut self, t: f64, slowdown: f64, env: f64) {
        self.progress = self.progress_at(t);
        self.anchor = t;
        self.slowdown = slowdown;
        self.pace = slowdown * env;
        let target = self.fail_at.unwrap_or(self.solo);
        self.event_at = t + (target - self.progress).max(0.0) * self.pace;
    }
}

pub(super) struct NodeState<'a> {
    pub(super) running: Vec<Running<'a>>,
    /// Cores per socket the residents occupy, kept in step with
    /// `running`.
    pub(super) used: usize,
    pub(super) busy_core_secs: f64,
    /// The campaign time `busy_core_secs` is accrued to.
    busy_since: f64,
    /// Whether the node is alive (crashed nodes hold no jobs).
    pub(super) up: bool,
    /// Transient bandwidth-class penalty (1.0 = healthy).
    pub(super) degrade: f64,
    /// Bumped whenever the residents' events move: event-heap entries
    /// carrying an older epoch are stale.
    epoch: u64,
}

impl NodeState<'_> {
    pub(super) fn new() -> Self {
        NodeState {
            running: Vec::new(),
            used: 0,
            busy_core_secs: 0.0,
            busy_since: 0.0,
            up: true,
            degrade: 1.0,
            epoch: 0,
        }
    }

    /// Bank the busy core-seconds (both sockets) of the residents since
    /// the last membership change.
    fn accrue_busy(&mut self, now: f64) {
        self.busy_core_secs += 2.0 * self.used as f64 * (now - self.busy_since);
        self.busy_since = now;
    }

    /// The earliest event among the residents.
    fn next_event(&self) -> Option<f64> {
        self.running
            .iter()
            .map(|r| r.event_at)
            .min_by(f64::total_cmp)
    }
}

/// Each node's earliest resident event as `(time, node, epoch)`, at most
/// one live entry per node. An entry is live while its epoch matches its
/// node's; re-scheduling a node bumps the epoch, so older entries are
/// dropped when they surface — the `QueueIndex` backoff pattern.
#[derive(Default)]
pub(super) struct EventHeap(BinaryHeap<Reverse<(SimTime, usize, u64)>>);

impl EventHeap {
    /// Drop stale entries at the top.
    fn prune(&mut self, nodes: &[NodeState]) {
        while let Some(&Reverse((_, ni, epoch))) = self.0.peek() {
            if nodes[ni].epoch == epoch {
                break;
            }
            self.0.pop();
        }
    }

    /// The earliest per-job event on any node; `None` when no node holds
    /// a resident.
    pub(super) fn next(&mut self, nodes: &[NodeState]) -> Option<f64> {
        self.prune(nodes);
        self.0.peek().map(|Reverse((t, _, _))| t.0)
    }

    /// Take the live entries due by `horizon` into `due`: the nodes with
    /// a resident event due, in ascending node order.
    fn pop_due(&mut self, nodes: &[NodeState], horizon: f64, due: &mut Vec<usize>) {
        due.clear();
        while self.next(nodes).is_some_and(|t| t <= horizon) {
            let Reverse((_, ni, _)) = self.0.pop().expect("peeked entry exists");
            due.push(ni);
        }
        due.sort_unstable();
    }
}

/// Up nodes counted by cores in use, so the freest up node is found in
/// O(cores per socket) instead of a scan over every node.
pub(super) struct FreeCores {
    by_used: Vec<usize>,
}

impl FreeCores {
    /// `nodes` empty up nodes.
    pub(super) fn new(nodes: usize) -> FreeCores {
        let mut by_used = vec![0; CORES_PER_SOCKET + 1];
        by_used[0] = nodes;
        FreeCores { by_used }
    }

    fn add(&mut self, used: usize) {
        self.by_used[used] += 1;
    }

    fn remove(&mut self, used: usize) {
        self.by_used[used] -= 1;
    }

    /// Free cores on the freest up node; 0 when every node is down.
    pub(super) fn max_free(&self) -> usize {
        let cores = self.by_used.len() - 1;
        self.by_used
            .iter()
            .position(|&n| n > 0)
            .map_or(0, |used| cores - used)
    }
}

/// The node views handed to policies, refreshed in place and only where
/// something changed: each view keeps its `residents` and
/// `staging_holds` allocations across rounds, and a view is marked stale
/// by whatever changes its node's membership, rates or up/down state.
/// Staging changes ride along: a DAG homes with its first placement,
/// and its holds and live bytes change only when one of its stages
/// leaves the home node.
pub(super) struct Views {
    pub(super) views: Vec<NodeView>,
    stale: Vec<bool>,
    stale_list: Vec<usize>,
    /// A view filled afresh for each node in turn by the reference
    /// check, reused so that the check allocates nothing once warm.
    #[cfg(debug_assertions)]
    reference: NodeView,
    /// Per node, its staging holds by one scan over every DAG ever
    /// submitted: the reference the views' holds, read from the
    /// [`homed`](super::dag::StagingState::homed) index, are asserted
    /// equal to. Refilled each round, reusing its allocations.
    #[cfg(debug_assertions)]
    reference_holds: Vec<Vec<(f64, f64)>>,
}

impl Views {
    pub(super) fn new(nodes: usize, staging_capacity: f64) -> Views {
        Views {
            views: (0..nodes)
                .map(|id| empty_view(id, staging_capacity))
                .collect(),
            stale: vec![false; nodes],
            stale_list: Vec::new(),
            #[cfg(debug_assertions)]
            reference: empty_view(0, staging_capacity),
            #[cfg(debug_assertions)]
            reference_holds: vec![Vec::new(); nodes],
        }
    }

    pub(super) fn mark(&mut self, ni: usize) {
        if !self.stale[ni] {
            self.stale[ni] = true;
            self.stale_list.push(ni);
        }
    }
}

fn empty_view(id: usize, staging_capacity: f64) -> NodeView {
    NodeView {
        id,
        up: true,
        residents: Vec::new(),
        staging_capacity,
        staging_reserved: 0.0,
        staged_gib: 0.0,
        staging_holds: Vec::new(),
    }
}

/// Fill node `view.id`'s policy-facing view in place from its state
/// `n`, reusing the view's `residents` and `staging_holds` allocations.
/// The holds come from the node's
/// [`homed`](super::dag::StagingState::homed) index, so a refresh costs
/// O(residents + DAGs homed here), not a scan over every DAG the
/// campaign has seen. Nothing in a view moves with `now`: projected
/// finishes are absolute and holds carry their remaining solo-seconds.
fn fill_view(view: &mut NodeView, n: &NodeState, staging: &StagingState, dags: &[DagRun]) {
    let ni = view.id;
    view.up = n.up;
    view.residents.clear();
    view.residents
        .extend(n.running.iter().map(|r| ResidentView {
            id: r.q.job.id,
            family: r.q.job.family,
            ranks: r.q.job.ranks,
            config: r.config(),
            projected_finish: r.event_at,
        }));
    view.staging_reserved = staging.reserved[ni];
    view.staged_gib = staging.live[ni];
    view.staging_holds.clear();
    view.staging_holds
        .extend(staging.homed[ni].iter().map(|&di| {
            let d = &dags[di as usize];
            (d.remaining_solo(), d.reservation)
        }));
}

/// The node re-pricing machinery: scratch for the residents' ids and
/// slowdowns, which the oracle's co-run memo prices.
#[derive(Default)]
pub(super) struct Repricer {
    ids: Vec<TenantId>,
    slowdowns: Vec<f64>,
    /// Wall nanoseconds spent repricing, and how many times — surfaced
    /// on [`CampaignOutcome`](super::CampaignOutcome) so benchmarks can
    /// time the pricing path in isolation (a few percent of the loop;
    /// end-to-end wall can't see it).
    pub(super) spent_ns: u64,
    pub(super) calls: u64,
}

impl Repricer {
    /// Re-price a node after a membership change at `now`: one
    /// co-simulation of the resident multiset (memoized), and every
    /// resident re-anchored at the new rate — progress carries over.
    fn reprice(
        &mut self,
        node: &mut NodeState,
        oracle: &Oracle,
        now: f64,
        ckpt_mult: f64,
    ) -> Result<(), ClusterError> {
        let t0 = std::time::Instant::now();
        self.calls += 1;
        self.ids.clear();
        self.ids.extend(node.running.iter().map(|r| r.tenant));
        oracle.slowdowns(&self.ids, &mut self.slowdowns)?;
        let env = node.degrade * ckpt_mult;
        for (r, &s) in node.running.iter_mut().zip(self.slowdowns.iter()) {
            r.reanchor(now, s.max(1.0), env);
        }
        self.spent_ns += t0.elapsed().as_nanos() as u64;
        Ok(())
    }
}

impl<'a> Campaign<'a> {
    /// Start attempt `r` on node `ni` now. The node must be re-priced
    /// before the loop next reads its events.
    pub(super) fn join(&mut self, ni: usize, r: Running<'a>) {
        let node = &mut self.nodes[ni];
        node.accrue_busy(self.now);
        let used = node.used + r.q.job.ranks;
        node.running.push(r);
        self.set_used(ni, used);
    }

    /// Take resident `i` off node `ni` now, its progress and checkpoint
    /// tax banked to this instant. The node must be re-scheduled (or
    /// re-priced) before the loop next reads its events.
    pub(super) fn take_resident(&mut self, ni: usize, i: usize) -> Running<'a> {
        let now = self.now;
        let node = &mut self.nodes[ni];
        node.accrue_busy(now);
        let mut r = node.running.remove(i);
        let used = node.used - r.q.job.ranks;
        r.progress = r.progress_at(now);
        r.anchor = now;
        // Of the wall-seconds on the node, the checkpoint writes claim
        // the f/(1+f) share (both numerator and denominator stretch with
        // slowdown and degrade alike).
        r.q.ckpt_overhead += (now - r.placed) * self.ckpt_frac / self.ckpt_mult;
        self.set_used(ni, used);
        r
    }

    fn set_used(&mut self, ni: usize, used: usize) {
        let node = &mut self.nodes[ni];
        if node.up {
            self.free.remove(node.used);
            self.free.add(used);
        }
        node.used = used;
        self.views.mark(ni);
    }

    /// Bring node `ni` up (repair) or down (crash; its residents must
    /// be taken off next).
    pub(super) fn set_up(&mut self, ni: usize, up: bool) {
        let node = &mut self.nodes[ni];
        if node.up != up {
            if up {
                self.free.add(node.used);
            } else {
                self.free.remove(node.used);
            }
            node.up = up;
        }
        self.views.mark(ni);
    }

    /// Change node `ni`'s degrade penalty: every resident re-anchors at
    /// the new rate.
    pub(super) fn set_degrade(&mut self, ni: usize, degrade: f64) {
        let (now, node) = (self.now, &mut self.nodes[ni]);
        node.degrade = degrade;
        let env = degrade * self.ckpt_mult;
        for r in &mut node.running {
            r.reanchor(now, r.slowdown, env);
        }
        self.reschedule(ni);
    }

    /// Re-price node `ni` and re-schedule its events.
    pub(super) fn reprice(&mut self, ni: usize) -> Result<(), ClusterError> {
        self.repricer
            .reprice(&mut self.nodes[ni], self.oracle, self.now, self.ckpt_mult)?;
        self.reschedule(ni);
        Ok(())
    }

    /// Node `ni`'s resident events moved: retire its heap entry and push
    /// its new earliest event, if it holds anyone.
    pub(super) fn reschedule(&mut self, ni: usize) {
        let node = &mut self.nodes[ni];
        node.epoch += 1;
        if let Some(t) = node.next_event() {
            self.events.0.push(Reverse((SimTime(t), ni, node.epoch)));
        }
        self.views.mark(ni);
    }

    /// Take off every resident whose event is due by `horizon` into
    /// `due`, with its node: in node order, and within a node in
    /// placement order.
    pub(super) fn take_due(&mut self, horizon: f64, due: &mut Vec<(usize, Running<'a>)>) {
        let mut nodes = std::mem::take(&mut self.scratch.due_nodes);
        self.events.pop_due(&self.nodes, horizon, &mut nodes);
        for &ni in &nodes {
            let mut i = 0;
            while i < self.nodes[ni].running.len() {
                if self.nodes[ni].running[i].event_at <= horizon {
                    due.push((ni, self.take_resident(ni, i)));
                } else {
                    i += 1;
                }
            }
        }
        self.scratch.due_nodes = nodes;
    }

    /// Refresh every stale view before a policy round.
    pub(super) fn refresh_views(&mut self) {
        while let Some(ni) = self.views.stale_list.pop() {
            self.views.stale[ni] = false;
            fill_view(
                &mut self.views.views[ni],
                &self.nodes[ni],
                &self.staging,
                &self.dags,
            );
        }
        #[cfg(debug_assertions)]
        {
            // `home` is `Some` only while stages remain unsettled, so the
            // second condition is a belt-and-braces check.
            let holds = &mut self.views.reference_holds;
            holds.iter_mut().for_each(Vec::clear);
            for d in &self.dags {
                if let Some(h) = d.home.filter(|_| d.unsettled > 0) {
                    holds[h].push((d.remaining_solo(), d.reservation));
                }
            }
            let fresh = &mut self.views.reference;
            for (ni, node) in self.nodes.iter().enumerate() {
                fresh.id = ni;
                fill_view(fresh, node, &self.staging, &self.dags);
                assert!(
                    *fresh == self.views.views[ni],
                    "a node view went stale without being marked"
                );
                assert!(
                    fresh.staging_holds == holds[ni],
                    "homed index diverged from the reference scan"
                );
            }
        }
    }

    /// The per-instant reference checks: the event heap's minimum is a
    /// scan of the anchored projections, and each node's used-core count
    /// (and the free-core index over them) is its residents' sum.
    #[cfg(debug_assertions)]
    pub(super) fn check_indexes(&self, heap_min: Option<f64>) {
        let scan = self
            .nodes
            .iter()
            .filter_map(NodeState::next_event)
            .min_by(f64::total_cmp);
        assert_eq!(
            heap_min.map(f64::to_bits),
            scan.map(f64::to_bits),
            "event heap diverged from the resident scan"
        );
        let mut by_used = [0; CORES_PER_SOCKET + 1];
        for (ni, n) in self.nodes.iter().enumerate() {
            let sum: usize = n.running.iter().map(|r| r.q.job.ranks).sum();
            assert_eq!(n.used, sum, "node {ni}'s used-core count diverged");
            assert!(n.up || n.running.is_empty(), "node {ni} is down but busy");
            if n.up {
                by_used[n.used] += 1;
            }
        }
        assert_eq!(self.free.by_used, by_used, "free-core index diverged");
    }
}
