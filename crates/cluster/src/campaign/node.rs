//! Nodes: the attempts resident on them, their re-pricing and the view
//! policies read.

use super::dag::staging_holds_reference;
use super::queue::Queued;
use super::{Campaign, ClusterError};
use crate::policy::ResidentView;
use crate::predict::Oracle;
use crate::pricing::PriceCache;
use pmemflow_core::SchedConfig;

/// One attempt resident on a node.
pub(super) struct Running {
    /// The queue entry it was placed from, its configuration and first
    /// start pinned at placement; an interruption rewrites it in place
    /// for the requeue.
    pub(super) q: Queued,
    /// Interned pricing identity of `(workflow, ranks, config)`.
    pub(super) tenant: u32,
    /// Predicted solo runtime under the pinned configuration.
    pub(super) solo: f64,
    /// Solo-seconds of work banked so far (monotone within an attempt).
    pub(super) progress: f64,
    /// Current rate divisor from the node's resident set.
    pub(super) slowdown: f64,
    /// Solo-progress at which this attempt dies of its own cause (drawn
    /// from the fault plan at placement; always < `solo` when present).
    pub(super) fail_at: Option<f64>,
}

impl Running {
    /// The configuration pinned at placement.
    pub(super) fn config(&self) -> SchedConfig {
        self.q.config.expect("configuration pinned at placement")
    }

    /// When the next per-job event fires — the attempt's own failure
    /// point if one is scheduled, completion otherwise — on a node with
    /// penalty `degrade` and checkpoint multiplier `ckpt_mult`.
    pub(super) fn projected_event(&self, now: f64, degrade: f64, ckpt_mult: f64) -> f64 {
        let target = self.fail_at.unwrap_or(self.solo);
        now + (target - self.progress).max(0.0) * (self.slowdown * degrade * ckpt_mult)
    }
}

pub(super) struct NodeState {
    pub(super) running: Vec<Running>,
    pub(super) busy_core_secs: f64,
    /// Whether the node is alive (crashed nodes hold no jobs).
    pub(super) up: bool,
    /// Transient bandwidth-class penalty (1.0 = healthy).
    pub(super) degrade: f64,
}

impl NodeState {
    /// Cores per socket the residents occupy.
    pub(super) fn used_cores(&self) -> usize {
        self.running.iter().map(|r| r.q.job.ranks).sum()
    }
}

/// The node re-pricing machinery: the campaign-local incremental
/// [`PriceCache`] in front of the shared oracle.
#[derive(Default)]
pub(super) struct Repricer {
    pub(super) prices: PriceCache,
    ids: Vec<u32>,
    slowdowns: Vec<f64>,
    /// Wall nanoseconds spent repricing, and how many times — surfaced
    /// on [`CampaignOutcome`](super::CampaignOutcome) so benchmarks can
    /// time the pricing path in isolation (it is ~1% of the loop;
    /// end-to-end wall can't see it).
    pub(super) spent_ns: u64,
    pub(super) calls: u64,
}

impl Repricer {
    /// Re-price a node after a membership change: one co-simulation of
    /// the resident multiset (memoized), progress carries over.
    pub(super) fn reprice(
        &mut self,
        node: &mut NodeState,
        oracle: &Oracle,
    ) -> Result<(), ClusterError> {
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
                .map(|r| {
                    crate::predict::TenantKey::new(&r.q.job.workflow, r.q.job.ranks, r.config())
                })
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

impl Campaign<'_> {
    /// Rebuild node `ni`'s policy-facing view in place, reusing its
    /// `residents` and `staging_holds` allocations. Field-for-field
    /// identical to constructing the view from scratch at the same
    /// instant. The holds come from the node's
    /// [`homed`](super::dag::StagingState::homed) index, so a refresh
    /// costs O(residents + DAGs homed here), not a scan over every DAG
    /// the campaign has seen.
    pub(super) fn refresh_view(&mut self, ni: usize) {
        let (view, n, now) = (&mut self.node_views[ni], &self.nodes[ni], self.now);
        view.up = n.up;
        view.residents.clear();
        view.residents
            .extend(n.running.iter().map(|r| ResidentView {
                id: r.q.job.id,
                workflow: r.q.job.workflow.clone(),
                ranks: r.q.job.ranks,
                config: r.config(),
                projected_finish: r.projected_event(now, n.degrade, self.ckpt_mult),
            }));
        view.staging_reserved = self.staging.reserved[ni];
        view.staged_gib = self.staging.live[ni];
        view.staging_holds.clear();
        view.staging_holds
            .extend(self.staging.homed[ni].iter().map(|&di| {
                let d = &self.dags[di as usize];
                (now + d.remaining_solo(), d.reservation)
            }));
        debug_assert_eq!(
            view.staging_holds,
            staging_holds_reference(&self.dags, ni, now),
            "homed index diverged from the reference scan"
        );
    }
}
