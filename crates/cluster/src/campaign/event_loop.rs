//! The campaign event loop: each step of an event instant is one
//! method on [`Campaign`].

use super::dag::{DagRun, StageState, StagingState};
use super::node::{EventHeap, FreeCores, NodeState, Repricer, Running, Views};
use super::queue::{backoff_expired, next_backoff_expiry, JobArena, Queue, Queued};
use super::{Campaign, CampaignConfig, CampaignOutcome, ClusterError, JobRecord};
use crate::arrivals::{
    arrival_for_draw, draw_submission, generate_open, Arrival, ArrivalSpec, Submission,
};
use crate::fault::{requeue_backoff, CheckpointSpec, FaultEventKind, FaultPlan};
use crate::policy::{Placement, Policy, QueuedJob};
use crate::predict::{Oracle, TenantKey};
use crate::stage_graph::DagClass;
use pmemflow_core::{check_fit, CORES_PER_SOCKET};
use pmemflow_des::rng::SplitMix64;
use pmemflow_des::{Direction, Locality};
use std::borrow::Cow;
use std::collections::VecDeque;

/// Closed-loop stream state inside the loop.
pub(super) struct ClosedLoop {
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
        let arrival = arrival_for_draw(draw, id, time, Some(client), &mut self.rng);
        Some(arrival)
    }
}

/// Buffers an event instant fills and empties again, owned by the
/// campaign so that a warm instant allocates nothing for them.
#[derive(Default)]
pub(super) struct Scratch<'a> {
    /// Nodes with a resident event due, in node order.
    pub(super) due_nodes: Vec<usize>,
    /// Residents whose event is due, with their nodes.
    due: Vec<(usize, Running<'a>)>,
    /// Nodes whose residents settled at this instant.
    changed: Vec<usize>,
    /// Nodes a policy round placed on.
    touched: Vec<usize>,
}

impl<'a> Campaign<'a> {
    /// A campaign at t = 0: every node up and empty, and the arrival
    /// stream generated (closed loop: each client's first submission).
    pub(super) fn new(
        config: &'a CampaignConfig,
        policy: &'a dyn Policy,
        oracle: &'a Oracle,
        arena: &'a JobArena,
    ) -> Campaign<'a> {
        let ckpt = &config.checkpoint;
        // Checkpoint tax: one image of `STATE_BYTES` (written as
        // `OBJECT_BYTES` objects) into local PMEM every `interval`
        // solo-seconds, charged through the same stack cost model the
        // in-situ I/O pays — heavier software stacks tax checkpoints harder.
        let ckpt_frac = if ckpt.interval > 0.0 {
            let cost = config.exec.cost_model();
            let object_bytes = CheckpointSpec::OBJECT_BYTES;
            let objects = CheckpointSpec::STATE_BYTES.div_ceil(object_bytes);
            let latency = config
                .exec
                .profile
                .latency(Direction::Write, Locality::Local);
            cost.snapshot_sw_time(Direction::Write, objects, object_bytes, latency) / ckpt.interval
        } else {
            0.0
        };
        let mut pending = VecDeque::new();
        let closed = match &config.arrivals {
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
                pending.extend((0..*clients).filter_map(|c| state.submit(0.0, c)));
                Some(state)
            }
            open => {
                pending.extend(generate_open(open, config.seed).expect("open stream"));
                None
            }
        };
        Campaign {
            config,
            policy,
            oracle,
            ckpt_frac,
            ckpt_mult: 1.0 + ckpt_frac,
            plan: FaultPlan::new(&config.faults, config.nodes),
            pending,
            closed,
            nodes: (0..config.nodes).map(|_| NodeState::new()).collect(),
            arena,
            queue: Queue::default(),
            // Every slot a record can land in, reserved once: growing
            // the table by doubling touched fresh pages, about 1,000
            // page faults per perfbench campaign.
            records: Vec::with_capacity(config.arrivals.max_jobs() as usize),
            staging: StagingState::new(config.nodes),
            dags: Vec::new(),
            held: 0,
            next_job_id: 0,
            now: 0.0,
            makespan: 0.0,
            repricer: Repricer::default(),
            events: EventHeap::default(),
            free: FreeCores::new(config.nodes),
            views: Views::new(config.nodes, config.staging_gib),
            finished_clients: Vec::new(),
            scratch: Scratch::default(),
        }
    }

    /// Serve the campaign to the end, one event instant at a time.
    pub(super) fn run(mut self) -> Result<CampaignOutcome, ClusterError> {
        while let Some(t) = self.next_event() {
            self.now = t;
            self.fire_faults();
            self.settle_due_jobs();
            self.resubmit_finished_clients();
            self.admit_arrivals()?;
            let changed = std::mem::take(&mut self.scratch.changed);
            for &ni in &changed {
                self.reprice(ni)?;
            }
            self.scratch.changed = changed;
            self.schedule()?;
        }
        self.outcome()
    }

    /// The next event: the earliest of (arrival, per-job completion or
    /// self-failure, backoff expiry, scheduled fault). `None` stops the
    /// loop once nothing is in flight anywhere (the fault plan is an
    /// infinite stream, so it only counts as an event source while there
    /// is work it could affect), or when work remains but no event can
    /// release it (the outcome reports the stuck jobs).
    fn next_event(&mut self) -> Option<f64> {
        let now = self.now;
        // A node holds a live heap entry exactly while it holds a resident.
        let next_job_event = self.events.next(&self.nodes);
        #[cfg(debug_assertions)]
        self.check_indexes(next_job_event);
        let work_remains = !self.pending.is_empty()
            || !self.queue.is_empty()
            || self.held > 0
            || next_job_event.is_some();
        if !work_remains {
            return None;
        }
        let next_arrival = self.pending.front().map(|a| a.time);
        let next_eligible = self.queue.next_expiry(now);
        debug_assert_eq!(
            next_eligible.map(f64::to_bits),
            next_backoff_expiry(self.queue.iter(), now).map(f64::to_bits),
            "backoff index diverged from the reference scan"
        );
        let next_fault = self.plan.peek_time();
        let t = [next_arrival, next_job_event, next_eligible, next_fault]
            .into_iter()
            .flatten()
            .min_by(f64::total_cmp)?;
        debug_assert!(t >= now - 1e-9, "time went backwards: {t} < {now}");
        Some(t.max(now))
    }

    /// Scheduled faults due now, in the plan's deterministic order.
    fn fire_faults(&mut self) {
        let now = self.now;
        while self.plan.peek_time().is_some_and(|ft| ft <= now + 1e-9) {
            let e = self.plan.pop().expect("peeked event exists");
            let ni = e.node;
            match e.kind {
                FaultEventKind::Crash => {
                    self.set_up(ni, false);
                    // Evacuate every resident back to its last checkpoint,
                    // in placement order.
                    while !self.nodes[ni].running.is_empty() {
                        let r = self.take_resident(ni, 0);
                        self.settle_interrupted(r, ni);
                    }
                    self.reschedule(ni);
                }
                FaultEventKind::Repair => self.set_up(ni, true),
                FaultEventKind::DegradeStart => {
                    self.set_degrade(ni, self.config.faults.degrade_factor)
                }
                FaultEventKind::DegradeEnd => self.set_degrade(ni, 1.0),
            }
        }
    }

    /// Per-job events due now (tolerance for float drift): completions,
    /// or the attempt's own failure. They settle in node order, residents
    /// in placement order; settling never touches `nodes`, so every due
    /// job is taken out first. Leaves the nodes whose residents changed
    /// in `scratch.changed`.
    fn settle_due_jobs(&mut self) {
        let mut due = std::mem::take(&mut self.scratch.due);
        self.take_due(self.now + 1e-9, &mut due);
        let changed = &mut self.scratch.changed;
        changed.clear();
        changed.extend(due.iter().map(|&(ni, _)| ni));
        changed.dedup();
        for (ni, r) in due.drain(..) {
            if r.fail_at.is_some() {
                // The attempt dies of its own cause (fail_at < solo).
                self.settle_interrupted(r, ni);
            } else {
                self.record(&r.q, ni, r.solo, true);
                if let Some((di, si)) = r.q.dag {
                    self.stage_completed(di, si, ni);
                }
            }
        }
        self.scratch.due = due;
    }

    /// Closed loop: each finished submission (completed or failed)
    /// triggers its client's next think.
    fn resubmit_finished_clients(&mut self) {
        self.finished_clients.sort_unstable();
        let Some(state) = self.closed.as_mut() else {
            return;
        };
        for c in self.finished_clients.drain(..) {
            if let Some(a) = state.submit(self.now + state.think, c) {
                // Insert keeping pending sorted by (time, id).
                let at = self
                    .pending
                    .partition_point(|p| (p.time, p.id) <= (a.time, a.id));
                self.pending.insert(at, a);
            }
        }
    }

    /// Arrivals due now. A plain submission takes one job id; a DAG
    /// submission expands into one stage job per graph node, sources
    /// queued now and the rest held until their dependencies complete.
    pub(super) fn admit_arrivals(&mut self) -> Result<(), ClusterError> {
        let now = self.now;
        while self.pending.front().is_some_and(|a| a.time <= now + 1e-9) {
            let a = self.pending.pop_front().expect("front exists");
            let spec = match a.what {
                Submission::Plain(family) => {
                    let job = self.arena.alloc(QueuedJob {
                        id: self.next_job_id,
                        family,
                        ranks: a.ranks,
                        arrival: a.time,
                        staging: 0.0,
                        home: None,
                    });
                    self.next_job_id += 1;
                    self.queue
                        .enqueue(Queued::fresh(job, a.client, a.time, None), now);
                    continue;
                }
                Submission::Dag(spec) => spec,
            };
            let di = self.dags.len() as u32;
            let d = DagRun::new(
                spec,
                a.time,
                a.client,
                self.next_job_id,
                self.oracle,
                &self.config.exec,
            );
            if d.reservation > self.config.staging_gib + 1e-9 {
                return Err(ClusterError::Config(format!(
                    "DAG {} needs {:.1} GiB staging but nodes hold {:.1}",
                    d.spec.name, d.reservation, self.config.staging_gib
                )));
            }
            self.next_job_id += d.stages.len() as u64;
            for (si, st) in d.stages.iter().enumerate() {
                match st.state {
                    StageState::Held => self.held += 1,
                    _ => self
                        .queue
                        .enqueue(d.stage_entry(di, si, now, self.arena), now),
                }
            }
            self.dags.push(d);
        }
        Ok(())
    }

    /// Policy rounds: consult, apply what fits, re-price, repeat until
    /// the policy places nothing more (each round shrinks the queue, so
    /// this terminates). Policies only see jobs past their backoff and
    /// the up/down state of every node.
    fn schedule(&mut self) -> Result<(), ClusterError> {
        let now = self.now;
        let mut touched = std::mem::take(&mut self.scratch.touched);
        // Capacity precheck per round: when even the narrowest eligible
        // job cannot fit the freest up node, no capacity-respecting
        // policy can place anything — skip refreshing the node views
        // and consulting the policy at all. (A placement that does not
        // fit would be skipped below and the round would end with
        // nothing placed anyway, so the outcome is identical for any
        // deterministic policy.) On a backlogged campaign this turns a
        // head-of-line-blocked round into an index lookup instead of a
        // policy's walk over the nodes.
        while let Some(min_ranks) = self.min_eligible_ranks() {
            if min_ranks > self.free.max_free() {
                break;
            }
            // Only nodes that changed since the last round — this
            // instant's settles, faults and the previous round's
            // placements — are refreshed.
            self.refresh_views();
            #[cfg(debug_assertions)]
            self.check_dag_pins();
            // The queue's own view: as it stands when no entry is in
            // backoff (all of a fault-free campaign), else the eligible
            // subset.
            let view = self.queue.policy_view(now);
            let batch = self
                .policy
                .schedule(now, view, &self.views.views, self.oracle)?;
            touched.clear();
            for p in batch {
                if self.place(p)? && !touched.contains(&p.node) {
                    touched.push(p.node);
                }
            }
            for &ni in &touched {
                self.reprice(ni)?;
            }
            if touched.is_empty() {
                break;
            }
        }
        self.scratch.touched = touched;
        Ok(())
    }

    /// The narrowest eligible job's `ranks`; `None` when nothing is past
    /// its backoff — no round to run. The rank multiset answers whenever
    /// no entry is inside its backoff (every queued entry is eligible,
    /// so the unfiltered multiset is exact — the whole of a fault-free
    /// campaign); otherwise the reference scan does.
    fn min_eligible_ranks(&mut self) -> Option<usize> {
        let now = self.now;
        if self.queue.has_backoff(now) {
            return self
                .queue
                .iter()
                .filter(|q| backoff_expired(q, now))
                .map(|q| q.job.ranks)
                .min();
        }
        debug_assert_eq!(
            self.queue.min_ranks(),
            self.queue.iter().map(|q| q.job.ranks).min(),
            "rank multiset diverged from the queue"
        );
        self.queue.min_ranks()
    }

    /// Every queued stage carries its DAG's pin, and the whole
    /// reservation exactly while the DAG is un-homed; a plain job
    /// carries neither. Checked before every policy round, so a stage
    /// that missed its re-pin never reaches a policy.
    #[cfg(debug_assertions)]
    fn check_dag_pins(&self) {
        for q in self.queue.iter() {
            let want = q.dag.map_or((None, 0.0), |(di, _)| {
                let d = &self.dags[di as usize];
                (d.home, d.entry_staging())
            });
            assert!(
                q.job.home == want.0 && q.job.staging.to_bits() == want.1.to_bits(),
                "queued job {} carries pin {:?} and staging {}, not {want:?}",
                q.job.id,
                q.job.home,
                q.job.staging
            );
        }
    }

    /// Apply one placement of the policy's batch. `false` when it no
    /// longer fits: the batch raced its own earlier placements (or
    /// another stage homed the DAG elsewhere); the next round re-consults.
    pub(super) fn place(&mut self, p: Placement) -> Result<bool, ClusterError> {
        // The queue is in (arrival, id) order and ids are issued in
        // admission order, so ids ascend along it (`enqueue` asserts so).
        let Ok(qi) = self.queue.position(p.job) else {
            return Err(ClusterError::Config(format!(
                "policy {} placed unknown job {}",
                self.policy.name(),
                p.job
            )));
        };
        let (node, job) = (&self.nodes[p.node], self.queue.get(qi).expect("found").job);
        if !node.up
            || check_fit(node.used + job.ranks).is_err()
            || job.home.is_some_and(|h| h != p.node)
            || self.staging.reserved[p.node] + job.staging > self.config.staging_gib + 1e-9
        {
            return Ok(false);
        }
        let now = self.now;
        let mut q = self.queue.remove(qi, now);
        if let Some((di, si)) = q.dag {
            let d = &mut self.dags[di as usize];
            // A queued stage carries its DAG's pin, and the whole
            // reservation exactly while the DAG is un-homed: a stage
            // requeued with the reservation would count it twice.
            debug_assert!(
                q.job.home == d.home && q.job.staging == d.entry_staging(),
                "stage {si} of DAG {di} lost its home pin or staging reservation"
            );
            if d.home.is_none() {
                // First placement homes the DAG: reserve its whole
                // staging footprint here for its lifetime and pin every
                // queued sibling to this node. The siblings are one
                // contiguous run of the queue.
                d.home = Some(p.node);
                self.staging.home(p.node, di, d.reservation);
                let run = self.queue.seek(d.arrival, d.first_stage_id);
                self.queue.pin_dag(run, di, p.node, self.arena);
            }
            d.stages[si].state = StageState::Running;
        }
        // A restarted job keeps the configuration its checkpoint was
        // written under, whatever the policy prefers now.
        let config = *q.config.get_or_insert(p.config);
        q.first_start.get_or_insert(now);
        let (tenant, solo) = self
            .oracle
            .intern(TenantKey::new(q.job.family, q.job.ranks, config));
        // A stage additionally pays its staged I/O (edge volumes through
        // the PMEM snapshot path) on top of the oracle solo of its
        // workflow.
        let solo = solo
            + q.dag
                .map_or(0.0, |(di, si)| self.dags[di as usize].stages[si].extra_solo);
        let fail_at = self
            .plan
            .job_failure(q.job.id, q.restarts as u64)
            .map(|frac| q.resume + frac * (solo - q.resume))
            .filter(|&fa| fa > q.resume && fa < solo - 1e-9);
        let env = self.nodes[p.node].degrade * self.ckpt_mult;
        let r = Running::new(q, tenant, solo, fail_at, now, env);
        self.join(p.node, r);
        Ok(true)
    }

    /// Book the one record of `q`'s submission, ending now on `node`,
    /// into its id's slot. An entry that ran carries its pinned
    /// configuration and first start; one that never ran gets the
    /// oracle's best configuration and starts now. A plain job's
    /// closed-loop client is finished here; a DAG's when its last stage
    /// settles.
    pub(super) fn record(&mut self, q: &Queued, node: usize, solo: f64, completed: bool) {
        let (dag, stage, staging_gib) = match q.dag {
            Some((di, si)) => {
                let d = &self.dags[di as usize];
                let stage = d.spec.stages[si].name.clone();
                (d.spec.name.clone(), stage, d.stage_staging_gib(si))
            }
            None => (String::new(), Cow::Borrowed(""), 0.0),
        };
        let job = &q.job;
        let slot = job.id as usize;
        if slot >= self.records.len() {
            self.records.resize_with(slot + 1, || None);
        }
        let booked = self.records[slot].replace(JobRecord {
            id: job.id,
            family: job.family,
            ranks: job.ranks,
            config: q
                .config
                .unwrap_or_else(|| self.oracle.best_config(job.family, job.ranks)),
            node,
            arrival: job.arrival,
            start: q.first_start.unwrap_or(self.now),
            finish: self.now,
            solo,
            restarts: q.restarts,
            lost_work: q.lost_work,
            ckpt_overhead: q.ckpt_overhead,
            completed,
            dag,
            stage,
            staging_gib,
        });
        assert!(booked.is_none(), "job {slot} has two records");
        self.makespan = self.makespan.max(self.now);
        if let Some(c) = q.client {
            self.finished_clients.push(c);
        }
    }

    /// Handle an interrupted attempt end to end. Roll it back to its
    /// last checkpoint; then, under the retry budget, requeue it (stage
    /// jobs come back pinned home). Past the budget, revive it from a
    /// banked checkpoint snapshot, or fail it — and on a stage failure,
    /// fail the whole DAG.
    pub(super) fn settle_interrupted(&mut self, r: Running<'a>, node: usize) {
        let config = self.config;
        let ckpt = &config.checkpoint;
        let mut q = r.q;
        let resume = if ckpt.interval > 0.0 {
            ((r.progress / ckpt.interval).floor() * ckpt.interval).min(r.progress)
        } else {
            0.0
        };
        q.lost_work += (r.progress - resume).max(0.0);
        q.restarts += 1;
        // A stage restarts where its staged inputs live: PMEM staging
        // survives the crash, the attempt does not. The reservation
        // persists across restarts (it is held for the DAG's lifetime) —
        // a restarted stage carries none.
        q.job = self.arena.alloc(QueuedJob {
            home: q.dag.map(|_| node),
            staging: 0.0,
            ..q.job.clone()
        });
        if q.restarts <= ckpt.retry_budget {
            q.resume = resume;
            q.eligible = self.now + requeue_backoff(ckpt.backoff_base, q.restarts);
            return self.requeue(q);
        }
        let Some((di, si)) = q.dag else {
            return self.record(&q, node, r.solo, false);
        };
        let d = &mut self.dags[di as usize];
        if d.tokens > 0 && !d.failed {
            // A completed checkpoint stage banked a revival: restart
            // this stage fresh from the staged snapshot after one base
            // backoff instead of failing the workflow.
            d.tokens -= 1;
            q.restarts = 0;
            q.resume = 0.0;
            q.eligible = self.now + ckpt.backoff_base;
            return self.requeue(q);
        }
        self.record(&q, node, r.solo, false);
        self.fail_dag(di, si);
    }

    /// Put an interrupted attempt's entry back in the queue.
    fn requeue(&mut self, q: Queued<'a>) {
        if let Some((di, si)) = q.dag {
            self.dags[di as usize].stages[si].state = StageState::Ready;
        }
        self.queue.enqueue(q, self.now);
    }

    /// The per-job records and campaign aggregates once the loop stops,
    /// or the stuck jobs if work remains.
    fn outcome(self) -> Result<CampaignOutcome, ClusterError> {
        if !self.queue.is_empty() || self.held > 0 {
            return Err(ClusterError::Config(format!(
                "campaign drained with {} jobs still queued and {} stages held (policy {})",
                self.queue.len(),
                self.held,
                self.policy.name()
            )));
        }
        debug_assert!(
            self.staging.homed.iter().all(Vec::is_empty),
            "a settled DAG is still indexed as homed"
        );
        // Ids are dense, `0..n`, and every one has settled: the slots
        // unwrap in place, already in id order. The outcome keeps the
        // table's whole reservation, a loose upper bound (every DAG at
        // its class's largest size): shrinking it hands the allocator a
        // smaller block, so the next campaign's table is mapped afresh
        // and pays its page faults again.
        let jobs = self
            .records
            .into_iter()
            .map(|r| r.expect("every job id has a record"))
            .collect();
        Ok(CampaignOutcome {
            policy: self.policy.name().to_string(),
            seed: self.config.seed,
            nodes: self.config.nodes,
            jobs,
            makespan: self.makespan,
            busy_core_secs: self.nodes.iter().map(|n| n.busy_core_secs).collect(),
            cores_per_node: 2 * CORES_PER_SOCKET,
            staging_capacity: self.config.staging_gib,
            peak_staging_gib: self.staging.peak,
            reprice_secs: self.repricer.spent_ns as f64 / 1e9,
            reprice_calls: self.repricer.calls,
        })
    }
}
