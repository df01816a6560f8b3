//! The campaign queue: entries kept in `(arrival, id)` order and the
//! [`QueueIndex`] maintained beside them.

use crate::policy::QueuedJob;
use pmemflow_core::SchedConfig;
use pmemflow_des::SimTime;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap, VecDeque};

pub(super) struct Queued {
    /// The policy-facing fields (id, workflow, ranks, arrival), stored
    /// in the shape policies consume so a scheduling round can hand out
    /// `&QueuedJob` borrows instead of cloning every entry.
    pub(super) job: QueuedJob,
    pub(super) client: Option<usize>,
    pub(super) restarts: u32,
    /// Solo-seconds of checkpointed progress the next attempt resumes from.
    pub(super) resume: f64,
    /// Earliest time the job may be placed again (backoff after restarts).
    pub(super) eligible: f64,
    pub(super) lost_work: f64,
    pub(super) ckpt_overhead: f64,
    /// First admission time, once the job has started at least once.
    pub(super) first_start: Option<f64>,
    /// Configuration pinned by the first attempt: a checkpoint image is
    /// only valid under the configuration that wrote it.
    pub(super) config: Option<SchedConfig>,
    /// `(dag index, stage index)` for DAG stage jobs.
    pub(super) dag: Option<(u32, usize)>,
}

impl Queued {
    /// The entry of a submission (or DAG stage) that has never run.
    pub(super) fn fresh(
        job: QueuedJob,
        client: Option<usize>,
        eligible: f64,
        dag: Option<(u32, usize)>,
    ) -> Queued {
        Queued {
            job,
            client,
            restarts: 0,
            resume: 0.0,
            eligible,
            lost_work: 0.0,
            ckpt_overhead: 0.0,
            first_start: None,
            config: None,
            dag,
        }
    }
}

/// Keep the queue sorted by (arrival, id): a restarted job re-enters at
/// its original priority, not at the back. The index is maintained in
/// the same breath so it can never drift from the queue. Sortedness
/// makes the insert point a binary search, and the ring buffer makes
/// the insert shift only the shorter side — fresh arrivals (largest
/// key, back of the queue) cost O(log n) + O(1) even when a backlogged
/// campaign holds tens of thousands of entries.
pub(super) fn enqueue(queue: &mut VecDeque<Queued>, index: &mut QueueIndex, q: Queued, now: f64) {
    index.on_enqueue(&q, now);
    let at = queue.partition_point(|o| (o.job.arrival, o.job.id) <= (q.job.arrival, q.job.id));
    // Ids are issued in admission order, so they ascend along the queue
    // too: `Campaign::place` binary-searches on them.
    debug_assert!(
        (at == 0 || queue[at - 1].job.id < q.job.id)
            && queue.get(at).is_none_or(|o| q.job.id < o.job.id),
        "job {} breaks the queue's id order",
        q.job.id
    );
    queue.insert(at, q);
}

/// Position of the first queued entry at or past `(arrival, id)` in the
/// queue's order. A DAG's stages share its arrival and hold contiguous
/// ids, so its queued stages form one run starting at
/// `seek(queue, d.arrival, d.first_stage_id)`, and stage `si` (if
/// queued) sits at `seek(queue, d.arrival, d.first_stage_id + si)`.
pub(super) fn seek(queue: &VecDeque<Queued>, arrival: f64, id: u64) -> usize {
    queue.partition_point(|o| (o.job.arrival, o.job.id) < (arrival, id))
}

/// Backoff expiries strictly in the future, as event-loop candidates.
/// Exact comparison, no epsilon: an expiry at or before `now` is already
/// eligible (the queue view's business, not the event queue's), and an
/// expiry a nanosecond ahead must be selectable as the next event — the
/// old `e > now + 1e-9` filter dropped it from the candidate set and
/// parked the job on whatever unrelated event happened to come later.
pub(super) fn next_backoff_expiry(queue: &VecDeque<Queued>, now: f64) -> Option<f64> {
    queue
        .iter()
        .map(|q| q.eligible)
        .filter(|&e| e > now)
        .min_by(f64::total_cmp)
}

/// Whether a queued job's backoff has expired at `now`. Exact, matching
/// [`next_backoff_expiry`]: a job is never placed before its expiry and
/// never waits past it, because the expiry itself is an event candidate.
pub(super) fn backoff_expired(q: &Queued, now: f64) -> bool {
    q.eligible <= now
}

/// Incremental indexes over the queue, so per-event bookkeeping does not
/// rescan every queued entry. Under a backlogged campaign the queue holds
/// tens of thousands of fat records; the two O(queue) scans the event
/// loop used to make per event (`next_backoff_expiry` and the capacity
/// precheck's min-ranks pass) dominated whole campaigns at cluster scale.
/// Every answer is exact — the fast paths degrade to the reference scans
/// (asserted equal under `debug_assertions`) whenever they cannot answer
/// precisely.
#[derive(Default)]
pub(super) struct QueueIndex {
    /// Backoff expiries of queued entries, lazily pruned. An entry is
    /// pushed when it enters the queue with `eligible` still in the
    /// future and becomes stale once `now` passes that instant. A placed
    /// entry left the queue past its expiry (a job is never placed
    /// during backoff), so it is stale by the same rule.
    backoff: BinaryHeap<Reverse<SimTime>>,
    /// Expiries of entries that left the queue still inside their
    /// backoff — a failed DAG cascades its queued stages out whatever
    /// their backoff. Each cancels one equal `backoff` entry when both
    /// reach the top, so a removed job never surfaces as an event.
    cancelled: BinaryHeap<Reverse<SimTime>>,
    /// Multiset of `ranks` over the whole queue, backoff state ignored.
    /// Exact for eligibility-filtered queries while no backoff is
    /// pending, which is every round of a fault-free campaign.
    rank_counts: BTreeMap<usize, usize>,
}

impl QueueIndex {
    fn on_enqueue(&mut self, q: &Queued, now: f64) {
        *self.rank_counts.entry(q.job.ranks).or_insert(0) += 1;
        if q.eligible > now {
            self.backoff.push(Reverse(SimTime(q.eligible)));
        }
    }

    pub(super) fn on_remove(&mut self, q: &Queued, now: f64) {
        if q.eligible > now {
            self.cancelled.push(Reverse(SimTime(q.eligible)));
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
            |h: &BinaryHeap<Reverse<SimTime>>| h.peek().is_some_and(|Reverse(e)| e.0 <= now);
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
    pub(super) fn next_expiry(&mut self, now: f64) -> Option<f64> {
        self.prune(now);
        self.backoff.peek().map(|Reverse(e)| e.0)
    }

    /// Whether any queued entry is still inside its backoff at `now` —
    /// when false, every queued entry is eligible and the rank multiset
    /// answers eligibility-filtered queries exactly.
    pub(super) fn has_backoff(&mut self, now: f64) -> bool {
        self.prune(now);
        !self.backoff.is_empty()
    }

    /// Smallest `ranks` over the whole queue.
    pub(super) fn min_ranks(&self) -> Option<usize> {
        self.rank_counts.keys().next().copied()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemflow_des::rng::SplitMix64;

    fn entry(id: u64, ranks: usize, eligible: f64) -> Queued {
        let job = QueuedJob {
            id,
            workflow: "w".into(),
            ranks,
            arrival: 0.0,
            staging: 0.0,
            home: None,
        };
        Queued::fresh(job, None, eligible, None)
    }

    /// Regression for the `next_eligible` epsilon bug: a backoff expiry a
    /// nanosecond ahead must be selectable as the next event (the old
    /// `e > now + 1e-9` filter dropped it from the candidate set), and
    /// eligibility must be exact — never a nanosecond early.
    #[test]
    fn backoff_expiry_selection_is_exact() {
        let q = |eligible: f64| entry(0, 1, eligible);
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
        let mut rng = SplitMix64::new(0x1D_E11);
        let mut queue: VecDeque<Queued> = VecDeque::new();
        let mut index = QueueIndex::default();
        let mut now = 0.0f64;
        for id in 0..2_000u64 {
            match rng.range_u64(0, 5) {
                // Enqueue: half already eligible, half in future backoff.
                0 | 1 => {
                    let ranks = [8, 16, 24][rng.range_usize(0, 3)];
                    let eligible = now + rng.range_f64(-5.0, 5.0);
                    enqueue(&mut queue, &mut index, entry(id, ranks, eligible), now);
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
}
