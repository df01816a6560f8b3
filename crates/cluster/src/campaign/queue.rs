//! The campaign queue: entries kept in `(arrival, id)` order, their
//! keys, the policy's view of them and the [`QueueIndex`] maintained
//! beside them, and the [`JobArena`] the view points into.

use crate::policy::QueuedJob;
use pmemflow_core::SchedConfig;
use pmemflow_des::SimTime;
use std::cell::{Cell, OnceCell};
use std::collections::{BTreeMap, VecDeque};

/// Append-only storage for the policy-facing [`QueuedJob`]s of one
/// campaign. A stored job never moves or changes, so the queue, its
/// policy view and the residents all hold plain `&'a QueuedJob`
/// references for the campaign's lifetime; an entry whose pin or
/// staging changes gets a new version. Slots live in fixed-size chunks,
/// each allocated once when the previous one fills, so the arena
/// touches at most one chunk more than it uses and every chunk comes
/// from (and returns to) the ordinary heap; the chunks are found
/// through tables of doubling size (table `k` holds `TABLE_BASE << k`
/// chunks).
pub(super) struct JobArena {
    tables: [OnceCell<Box<[OnceCell<Chunk>]>>; JobArena::TABLES],
    len: Cell<usize>,
}

type Chunk = Box<[OnceCell<QueuedJob>]>;

/// `n` empty cells.
fn cells<T>(n: usize) -> Box<[OnceCell<T>]> {
    (0..n).map(|_| OnceCell::new()).collect()
}

impl JobArena {
    /// Slots per chunk: 64 KiB of jobs.
    const CHUNK: usize = 1024;
    const TABLE_BASE: usize = 8;
    const TABLES: usize = 40;

    pub(super) fn new() -> JobArena {
        JobArena {
            tables: [const { OnceCell::new() }; JobArena::TABLES],
            len: Cell::new(0),
        }
    }

    /// Store `job` for the arena's lifetime.
    pub(super) fn alloc(&self, job: QueuedJob) -> &QueuedJob {
        let i = self.len.get();
        self.len.set(i + 1);
        let c = i / Self::CHUNK;
        // Table k starts at chunk TABLE_BASE * (2^k - 1).
        let k = (c / Self::TABLE_BASE + 1).ilog2() as usize;
        let table = self.tables[k].get_or_init(|| cells(Self::TABLE_BASE << k));
        let chunk = table[c - Self::TABLE_BASE * ((1 << k) - 1)].get_or_init(|| cells(Self::CHUNK));
        let slot = &chunk[i % Self::CHUNK];
        assert!(slot.set(job).is_ok(), "arena slot {i} filled twice");
        slot.get().expect("slot just filled")
    }
}

/// One queued entry: the policy-facing job and the campaign's own
/// bookkeeping for it.
pub(super) struct Queued<'a> {
    /// The policy-facing fields (id, workflow, ranks, arrival, staging,
    /// home pin), shared with the queue's policy view.
    pub(super) job: &'a QueuedJob,
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

impl<'a> Queued<'a> {
    /// The entry of a submission (or DAG stage) that has never run.
    pub(super) fn fresh(
        job: &'a QueuedJob,
        client: Option<usize>,
        eligible: f64,
        dag: Option<(u32, usize)>,
    ) -> Queued<'a> {
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

/// The queue: entries sorted by `(arrival, id)` — a restarted job
/// re-enters at its original priority, not at the back — and, in
/// lockstep, their keys (`keys[i]` is `entries[i]`'s `(arrival, id)`),
/// the policy's view of them (`view[i]` is `entries[i].job`) and the
/// [`QueueIndex`]. Every change goes through the methods below, so the
/// four never disagree. Sortedness makes each insert point a
/// binary search over the keys, and the ring buffers shift only the
/// shorter side — a fresh arrival (largest key, back of the queue)
/// costs O(1) even when a backlogged campaign holds tens of thousands
/// of entries.
#[derive(Default)]
pub(super) struct Queue<'a> {
    entries: VecDeque<Queued<'a>>,
    /// Each entry's `(arrival, id)`, inline: the binary searches probe
    /// these 16 bytes instead of following a reference into the arena.
    /// A new version of an entry's job keeps its arrival and id, so
    /// [`Queue::pin_dag`] leaves them as they are.
    keys: VecDeque<(f64, u64)>,
    /// The jobs of `entries`, contiguous once a round asks: a
    /// fault-free round hands it to the policy as it stands.
    view: VecDeque<&'a QueuedJob>,
    index: QueueIndex,
    /// Scratch for the eligible subset while some entry is in backoff.
    eligible: Vec<&'a QueuedJob>,
}

impl<'a> Queue<'a> {
    pub(super) fn len(&self) -> usize {
        self.entries.len()
    }

    pub(super) fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    pub(super) fn iter(&self) -> impl Iterator<Item = &Queued<'a>> {
        self.entries.iter()
    }

    pub(super) fn get(&self, i: usize) -> Option<&Queued<'a>> {
        self.entries.get(i)
    }

    /// Insert `q` at its `(arrival, id)` position.
    pub(super) fn enqueue(&mut self, q: Queued<'a>, now: f64) {
        self.index.on_enqueue(&q, now);
        let key = (q.job.arrival, q.job.id);
        // A fresh arrival has the largest key: check the back first.
        let at = if self.keys.back().is_none_or(|&last| last < key) {
            self.keys.len()
        } else {
            self.seek(key.0, key.1)
        };
        // Ids are issued in admission order, so they ascend along the
        // queue too: `position` binary-searches on them.
        debug_assert!(
            (at == 0 || self.keys[at - 1].1 < key.1)
                && self.keys.get(at).is_none_or(|o| key.1 < o.1),
            "job {} breaks the queue's id order",
            key.1
        );
        self.keys.insert(at, key);
        self.view.insert(at, q.job);
        self.entries.insert(at, q);
    }

    /// Take entry `i` out.
    pub(super) fn remove(&mut self, i: usize, now: f64) -> Queued<'a> {
        self.index.on_remove(&self.entries[i], now);
        self.keys.remove(i);
        self.view.remove(i);
        self.entries.remove(i).expect("queue index in range")
    }

    /// Position of queued job `id`: `Err` when it is not queued. The
    /// head is checked first, because FCFS places it.
    pub(super) fn position(&self, id: u64) -> Result<usize, usize> {
        match self.keys.front() {
            Some(&(_, head)) if head == id => Ok(0),
            _ => self.keys.binary_search_by_key(&id, |&(_, i)| i),
        }
    }

    /// Position of the first queued entry at or past `(arrival, id)` in
    /// the queue's order. A DAG's stages share its arrival and hold
    /// contiguous ids, so its queued stages form one run starting at
    /// `seek(d.arrival, d.first_stage_id)`, and stage `si` (if queued)
    /// sits at `seek(d.arrival, d.first_stage_id + si)`.
    pub(super) fn seek(&self, arrival: f64, id: u64) -> usize {
        self.keys.partition_point(|&key| key < (arrival, id))
    }

    /// Pin every queued stage of DAG `di` (the run from `run`) to its
    /// home `node`, weightless: each gets a new version from `arena`,
    /// swapped into its entry and the view alike.
    pub(super) fn pin_dag(&mut self, run: usize, di: u32, node: usize, arena: &'a JobArena) {
        let sibling = |o: &Queued| o.dag.is_some_and(|(odi, _)| odi == di);
        let stages = self
            .entries
            .range_mut(run..)
            .zip(self.view.range_mut(run..));
        for (o, v) in stages.take_while(|(o, _)| sibling(o)) {
            o.job = arena.alloc(QueuedJob {
                home: Some(node),
                staging: 0.0,
                ..o.job.clone()
            });
            *v = o.job;
        }
        debug_assert!(
            self.entries
                .iter()
                .filter(|o| sibling(o))
                .all(|o| o.job.home == Some(node)),
            "a queued sibling escaped the pinning run"
        );
    }

    /// The jobs a policy round may place at `now`, in queue order. With
    /// no entry in backoff (every round of a fault-free campaign) that
    /// is the whole view, handed out as it stands; otherwise the
    /// eligible subset, collected into reused scratch.
    pub(super) fn policy_view(&mut self, now: f64) -> &[&'a QueuedJob] {
        if self.index.has_backoff(now) {
            self.eligible.clear();
            self.eligible.extend(
                self.entries
                    .iter()
                    .filter(|q| backoff_expired(q, now))
                    .map(|q| q.job),
            );
            return &self.eligible;
        }
        debug_assert!(self.entries.iter().all(|q| backoff_expired(q, now)));
        #[cfg(debug_assertions)]
        self.check_view();
        self.view.make_contiguous()
    }

    /// The view and the keys against the reference collect of the
    /// entries' jobs: the same jobs in the same order, every field equal.
    #[cfg(debug_assertions)]
    fn check_view(&self) {
        assert_eq!(self.view.len(), self.entries.len(), "view length diverged");
        assert_eq!(self.keys.len(), self.entries.len(), "keys length diverged");
        for ((v, q), &(arrival, id)) in self.view.iter().zip(&self.entries).zip(&self.keys) {
            let j = q.job;
            assert!(
                id == j.id && arrival.to_bits() == j.arrival.to_bits(),
                "queue keys diverged from the entries at job {}",
                j.id
            );
            assert!(
                v.id == j.id
                    && v.family == j.family
                    && v.ranks == j.ranks
                    && v.arrival.to_bits() == j.arrival.to_bits()
                    && v.staging.to_bits() == j.staging.to_bits()
                    && v.home == j.home,
                "policy view diverged from the queue at job {}",
                j.id
            );
        }
    }

    /// The earliest backoff expiry strictly after `now`, if any entry
    /// is still in backoff.
    pub(super) fn next_expiry(&mut self, now: f64) -> Option<f64> {
        self.index.next_expiry(now)
    }

    /// Whether any queued entry is still inside its backoff at `now`.
    pub(super) fn has_backoff(&mut self, now: f64) -> bool {
        self.index.has_backoff(now)
    }

    /// Smallest `ranks` over the whole queue.
    pub(super) fn min_ranks(&self) -> Option<usize> {
        self.index.min_ranks()
    }
}

/// Backoff expiries strictly in the future, as event-loop candidates.
/// Exact comparison, no epsilon: an expiry at or before `now` is already
/// eligible (the queue view's business, not the event queue's), and an
/// expiry a nanosecond ahead must be selectable as the next event — the
/// old `e > now + 1e-9` filter dropped it from the candidate set and
/// parked the job on whatever unrelated event happened to come later.
pub(super) fn next_backoff_expiry<'q, 'a: 'q>(
    entries: impl IntoIterator<Item = &'q Queued<'a>>,
    now: f64,
) -> Option<f64> {
    entries
        .into_iter()
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
struct QueueIndex {
    /// Multiset (expiry → count) of the backoff expiries of the queued
    /// entries still in backoff. An entry joins when it enters the queue
    /// with `eligible` in the future and leaves when its job leaves the
    /// queue (a failed DAG cascades its queued stages out whatever their
    /// backoff) or `now` passes its expiry, whichever comes first.
    backoff: BTreeMap<SimTime, usize>,
    /// Multiset of `ranks` over the whole queue, backoff state ignored.
    /// Exact for eligibility-filtered queries while no backoff is
    /// pending, which is every round of a fault-free campaign.
    rank_counts: BTreeMap<usize, usize>,
}

/// Take one `key` out of the multiset `counts`.
fn decrement<K: Ord>(counts: &mut BTreeMap<K, usize>, key: K) {
    match counts.get_mut(&key) {
        Some(1) => {
            counts.remove(&key);
        }
        Some(n) => *n -= 1,
        None => unreachable!("multiset out of sync with the queue"),
    }
}

impl QueueIndex {
    fn on_enqueue(&mut self, q: &Queued, now: f64) {
        *self.rank_counts.entry(q.job.ranks).or_insert(0) += 1;
        if q.eligible > now {
            *self.backoff.entry(SimTime(q.eligible)).or_insert(0) += 1;
        }
    }

    fn on_remove(&mut self, q: &Queued, now: f64) {
        self.prune(now);
        if q.eligible > now {
            decrement(&mut self.backoff, SimTime(q.eligible));
        }
        decrement(&mut self.rank_counts, q.job.ranks);
    }

    /// Drop the expiries at or before `now`: what remains are exactly
    /// the queued entries still in backoff.
    fn prune(&mut self, now: f64) {
        while let Some(first) = self.backoff.first_entry() {
            if first.key().0 > now {
                break;
            }
            first.remove();
        }
    }

    /// [`next_backoff_expiry`] without the scan: the earliest expiry
    /// strictly after `now`, if any entry is still in backoff.
    fn next_expiry(&mut self, now: f64) -> Option<f64> {
        self.prune(now);
        self.backoff.first_key_value().map(|(e, _)| e.0)
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

#[cfg(test)]
mod tests {
    use super::*;
    use pmemflow_des::rng::SplitMix64;
    use pmemflow_workloads::Family;

    fn entry(arena: &JobArena, id: u64, ranks: usize, eligible: f64) -> Queued<'_> {
        let job = arena.alloc(QueuedJob {
            id,
            family: Family::GtcMatMul,
            ranks,
            arrival: 0.0,
            staging: 0.0,
            home: None,
        });
        Queued::fresh(job, None, eligible, None)
    }

    /// Regression for the `next_eligible` epsilon bug: a backoff expiry a
    /// nanosecond ahead must be selectable as the next event (the old
    /// `e > now + 1e-9` filter dropped it from the candidate set), and
    /// eligibility must be exact — never a nanosecond early.
    #[test]
    fn backoff_expiry_selection_is_exact() {
        let arena = JobArena::new();
        let q = |eligible: f64| entry(&arena, 0, 1, eligible);
        let now = 100.0;
        let sub_ns = now + 1e-10;
        assert_eq!(
            next_backoff_expiry(&[q(sub_ns)], now),
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
        assert_eq!(next_backoff_expiry(&[q(now)], now), None);
        // The earliest future expiry wins.
        assert_eq!(
            next_backoff_expiry(&[q(now + 2.0), q(now + 1.0)], now),
            Some(now + 1.0)
        );
    }

    /// Arena references stay valid, and keep their values, across the
    /// inserts that open new chunks.
    #[test]
    fn arena_references_survive_later_inserts() {
        let arena = JobArena::new();
        let held: Vec<&QueuedJob> = (0..5_000u64)
            .map(|id| entry(&arena, id, id as usize % 7, 0.0).job)
            .collect();
        for (id, job) in held.iter().enumerate() {
            assert_eq!((job.id, job.ranks), (id as u64, id % 7));
        }
    }

    /// `seek` and `position` against linear scans over the entries'
    /// jobs, and the inline keys against the entries, across churn that
    /// mixes what a campaign does to its queue: fresh arrivals at the
    /// back, DAG stages released at their DAG's older arrival, backoff
    /// requeues at their original priority in the middle, head removals
    /// (FCFS placements) and `pin_dag` re-versioning a DAG's queued
    /// stages.
    #[test]
    fn seek_and_position_match_linear_scans_under_churn() {
        /// A DAG submission: its arrival, its stage ids `first..first +
        /// stages`, the next stage to release, and its pin.
        struct Dag {
            arrival: f64,
            first: u64,
            stages: u64,
            released: u64,
            home: Option<usize>,
        }
        let arena = JobArena::new();
        let mut rng = SplitMix64::new(0x5EE_C0DE);
        let mut queue = Queue::default();
        let mut dags: Vec<Dag> = Vec::new();
        // Entries taken off the head, waiting to be requeued.
        let mut out: Vec<Queued> = Vec::new();
        let (mut now, mut next_id) = (0.0f64, 0u64);
        let job = |id: u64, arrival: f64, home: Option<usize>| {
            arena.alloc(QueuedJob {
                id,
                family: Family::GtcMatMul,
                ranks: 8,
                arrival,
                staging: 0.0,
                home,
            })
        };
        for step in 0..2_000 {
            match rng.range_u64(0, 7) {
                // A plain arrival, at the back.
                0 => {
                    queue.enqueue(Queued::fresh(job(next_id, now, None), None, now, None), now);
                    next_id += 1;
                }
                // A DAG arrival: ids for every stage, its source queued.
                1 => {
                    let di = dags.len() as u32;
                    let stages = rng.range_u64(2, 6);
                    let q = Queued::fresh(job(next_id, now, None), None, now, Some((di, 0)));
                    queue.enqueue(q, now);
                    dags.push(Dag {
                        arrival: now,
                        first: next_id,
                        stages,
                        released: 1,
                        home: None,
                    });
                    next_id += stages;
                }
                // A stage release, at its DAG's arrival: half of them
                // from the newest open DAG, which may share its instant
                // with the back of the queue.
                2 => {
                    let open: Vec<usize> = (0..dags.len())
                        .filter(|&i| dags[i].released < dags[i].stages)
                        .collect();
                    let pick = if rng.next_bool() {
                        open.len().wrapping_sub(1)
                    } else {
                        rng.range_usize(0, open.len().max(1))
                    };
                    if let Some(&i) = open.get(pick) {
                        let d = &mut dags[i];
                        let si = d.released as usize;
                        let j = job(d.first + d.released, d.arrival, d.home);
                        d.released += 1;
                        queue.enqueue(Queued::fresh(j, None, now, Some((i as u32, si))), now);
                    }
                }
                // A head removal, half of them requeued later.
                3 | 4 => {
                    if !queue.is_empty() {
                        let q = queue.remove(0, now);
                        if rng.next_bool() {
                            out.push(q);
                        }
                    }
                }
                // A backoff requeue at the entry's original priority.
                5 => {
                    if !out.is_empty() {
                        let mut q = out.swap_remove(rng.range_usize(0, out.len()));
                        q.eligible = now + rng.range_f64(0.0, 5.0);
                        queue.enqueue(q, now);
                    }
                }
                // A DAG homed: its queued stages, one run, pinned.
                _ => {
                    if !dags.is_empty() {
                        let di = rng.range_usize(0, dags.len());
                        let node = rng.range_usize(0, 64);
                        let d = &mut dags[di];
                        d.home = Some(node);
                        let run = queue.seek(d.arrival, d.first);
                        queue.pin_dag(run, di as u32, node, &arena);
                    }
                }
            }
            // Half the steps share an instant, as closed-loop clients
            // with no think time do: equal arrivals order by id.
            if rng.next_bool() {
                now += rng.range_f64(0.0, 1.0);
            }
            #[cfg(debug_assertions)]
            queue.check_view();
            // Probe the queued keys, the requeue-pending ones and each
            // DAG's first stage: a sample of each, and both ends.
            let key = |q: &Queued| (q.job.arrival, q.job.id);
            let keys: Vec<(f64, u64)> = queue
                .iter()
                .map(key)
                .chain(out.iter().map(key))
                .chain(dags.iter().map(|d| (d.arrival, d.first)))
                .collect();
            let ends = [queue.get(0), queue.get(queue.len().wrapping_sub(1))];
            let probes = (0..16)
                .filter_map(|_| keys.get(rng.range_usize(0, keys.len().max(1))).copied())
                .chain(ends.into_iter().flatten().map(key));
            for (arrival, id) in probes {
                let scan = queue.iter().take_while(|q| key(q) < (arrival, id)).count();
                assert_eq!(
                    queue.seek(arrival, id),
                    scan,
                    "seek({arrival}, {id}) diverged at step {step}"
                );
                let scan = match queue.iter().position(|q| q.job.id == id) {
                    Some(at) => Ok(at),
                    None => Err(queue.iter().take_while(|q| q.job.id < id).count()),
                };
                assert_eq!(
                    queue.position(id),
                    scan,
                    "position({id}) diverged at step {step}"
                );
            }
        }
    }

    /// The incremental [`QueueIndex`] must agree with the reference
    /// scans it replaces — next backoff expiry and eligible-min-ranks —
    /// and the policy view with the entries, across randomized
    /// enqueue/advance/remove churn.
    #[test]
    fn queue_index_matches_reference_scans_under_churn() {
        let arena = JobArena::new();
        let mut rng = SplitMix64::new(0x1D_E11);
        let mut queue = Queue::default();
        let mut now = 0.0f64;
        for id in 0..2_000u64 {
            match rng.range_u64(0, 5) {
                // Enqueue: half already eligible, half in future backoff.
                0 | 1 => {
                    let ranks = [8, 16, 24][rng.range_usize(0, 3)];
                    let eligible = now + rng.range_f64(-5.0, 5.0);
                    queue.enqueue(entry(&arena, id, ranks, eligible), now);
                }
                // Advance time, sometimes exactly onto an expiry.
                2 => {
                    now = match next_backoff_expiry(queue.iter(), now) {
                        Some(e) if rng.next_bool() => e,
                        _ => now + rng.range_f64(0.0, 3.0),
                    };
                }
                // Remove a random *eligible* entry, like a placement.
                3 => {
                    let eligible: Vec<usize> = (0..queue.len())
                        .filter(|&i| backoff_expired(&queue.entries[i], now))
                        .collect();
                    if !eligible.is_empty() {
                        let qi = eligible[rng.range_usize(0, eligible.len())];
                        queue.remove(qi, now);
                    }
                }
                // Remove any entry, in backoff or not, like a DAG cascade.
                _ => {
                    if !queue.is_empty() {
                        let qi = rng.range_usize(0, queue.len());
                        queue.remove(qi, now);
                    }
                }
            }
            assert_eq!(
                queue.next_expiry(now).map(f64::to_bits),
                next_backoff_expiry(queue.iter(), now).map(f64::to_bits),
                "expiry diverged at step {id}"
            );
            let eligible: Vec<u64> = queue
                .iter()
                .filter(|q| backoff_expired(q, now))
                .map(|q| q.job.id)
                .collect();
            let scan_min = queue
                .iter()
                .filter(|q| backoff_expired(q, now))
                .map(|q| q.job.ranks)
                .min();
            if queue.has_backoff(now) {
                assert_eq!(
                    queue.min_ranks(),
                    queue.iter().map(|q| q.job.ranks).min(),
                    "rank multiset diverged at step {id}"
                );
            } else {
                assert_eq!(
                    queue.min_ranks(),
                    scan_min,
                    "with no backoff pending the multiset must be the \
                     eligible min exactly (step {id})"
                );
            }
            let view: Vec<u64> = queue.policy_view(now).iter().map(|j| j.id).collect();
            assert_eq!(view, eligible, "policy view diverged at step {id}");
        }
    }
}
