//! The discrete-event engine.
//!
//! The engine advances a virtual clock through a binary heap of
//! timestamped events; real runs keep at most a few dozen pending. Two
//! event kinds exist: process wake-ups (compute phases ending) and
//! resource checks (the earliest moment a fluid flow can complete under the
//! current rate assignment). Whenever the set of flows on a resource changes,
//! its pending check goes stale (an epoch counter) and the next check's
//! sequence number is reserved. Rates are recomputed by the resource's
//! [`RateAllocator`] once per simulated instant, when the instant ends, and
//! the fresh check is scheduled under that reserved number: many ranks
//! starting or finishing I/O together cost one allocation, and events pop in
//! the order an allocation per change would give. A check that could land
//! at the current instant is scheduled at once instead.
//!
//! Determinism: events are ordered by `(time, sequence)`, all arithmetic is
//! pure `f64`, and no randomness or wall-clock input exists anywhere in the
//! engine, so identical inputs yield bit-identical reports.
//!
//! Each resource keeps a class table: a flow's [`FlowClass`] is interned
//! once, at submission, and the table counts the live flows of every class
//! and keeps the live classes in class order, changing that order only
//! when a class appears or empties. A reallocation hands the allocator one
//! [`ClassView`] per live class and takes back class-major rates; the k-th
//! live flow of a class, in submission order, runs at its class's k-th
//! slot. The resource also keeps the fewest bytes any live flow has left,
//! so noting a change never walks the flows.
//!
//! Apart from what a run records (marks, timelines) and what an allocator
//! keeps for itself, the per-event paths do not allocate once a run has
//! warmed up: each resource owns the scratch its allocator reads and
//! writes, completed flows go through one reused buffer, and each channel
//! keeps its parked waiters so a publish visits only them.

use crate::flow::{ActiveFlow, ClassView, FlowAttrs, FlowClass, FlowId, RateAllocator};
use crate::process::{Action, ChannelId, ProcessId, ResourceId};
use crate::stats::{ClassBytes, ProcessReport, ResourceReport, SimReport};
use crate::time::{SimDuration, SimTime};
use crate::trace::{ProcessTimeline, Span, SpanKind, Timeline};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Bytes below which a flow is considered complete (guards float residue).
const EPS_BYTES: f64 = 1e-3;
/// Smallest admissible flow rate, bytes/s. Prevents a zero-rate stall.
const MIN_RATE: f64 = 1.0;

/// Errors a run can end with.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The event budget was exhausted — almost certainly a model bug
    /// (e.g. a process spinning on instantaneous actions).
    EventBudgetExhausted {
        /// The configured budget.
        budget: u64,
    },
    /// The clock passed the configured horizon before all processes
    /// finished.
    HorizonExceeded {
        /// The configured horizon.
        horizon: SimTime,
    },
    /// Processes remain blocked with no pending events: a synchronization
    /// deadlock (e.g. a reader waiting for a version nobody publishes).
    Deadlock {
        /// Names of the blocked processes.
        blocked: Vec<String>,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::EventBudgetExhausted { budget } => {
                write!(f, "event budget of {budget} exhausted")
            }
            SimError::HorizonExceeded { horizon } => {
                write!(f, "simulation horizon {horizon} exceeded")
            }
            SimError::Deadlock { blocked } => {
                write!(f, "deadlock; blocked processes: {}", blocked.join(", "))
            }
        }
    }
}

impl std::error::Error for SimError {}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EventKind {
    Wake(ProcessId),
    ResourceCheck { resource: ResourceId, epoch: u64 },
}

#[derive(Debug, Clone, Copy)]
struct Event {
    time: SimTime,
    seq: u64,
    kind: EventKind,
}

impl PartialEq for Event {
    fn eq(&self, other: &Self) -> bool {
        self.time == other.time && self.seq == other.seq
    }
}
impl Eq for Event {}
impl Ord for Event {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.time.cmp(&other.time).then(self.seq.cmp(&other.seq))
    }
}
impl PartialOrd for Event {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ProcState {
    /// Waiting for a scheduled wake (fresh, or in a compute phase).
    Scheduled,
    /// Waiting for an I/O flow to complete.
    InIo {
        io_started: SimTime,
    },
    /// Parked on a version channel.
    WaitingVersion {
        channel: ChannelId,
        version: u64,
        since: SimTime,
    },
    Done,
}

struct ProcSlot {
    /// The actions still to perform, in order.
    script: std::vec::IntoIter<Action>,
    state: ProcState,
    report: ProcessReport,
    timeline: ProcessTimeline,
}

/// One class interned by a resource.
struct ClassEntry {
    class: FlowClass,
    attrs: FlowAttrs,
    /// The largest rate a member can be given: its intrinsic rate, taken
    /// once, at least `MIN_RATE`.
    cap: f64,
    /// Live flows of the class.
    live: usize,
    /// During a reallocation's scatter: the slot of the next member.
    next_slot: usize,
}

/// The classes a resource's flows have had, each interned at the first
/// submission of one of its flows and kept for the rest of the run.
#[derive(Default)]
struct ClassTable {
    entries: Vec<ClassEntry>,
    /// Indices of the entries with live flows, in ascending class order.
    live: Vec<usize>,
}

impl ClassTable {
    /// Count a new live flow with `attrs`, returning its class's index.
    fn join(&mut self, attrs: &FlowAttrs) -> usize {
        let class = FlowClass::of(attrs);
        let c = match self.entries.iter().position(|e| e.class == class) {
            Some(c) => c,
            None => {
                self.entries.push(ClassEntry {
                    class,
                    attrs: *attrs,
                    cap: attrs.intrinsic_rate().max(MIN_RATE),
                    live: 0,
                    next_slot: 0,
                });
                self.entries.len() - 1
            }
        };
        self.entries[c].live += 1;
        if self.entries[c].live == 1 {
            let at = (self.live).partition_point(|&j| self.entries[j].class < class);
            self.live.insert(at, c);
        }
        c
    }

    /// Count one live flow of class `c` fewer.
    fn leave(&mut self, c: usize) {
        self.entries[c].live -= 1;
        if self.entries[c].live == 0 {
            let at = self.live.iter().position(|&j| j == c);
            self.live.remove(at.expect("an emptied class is live"));
        }
    }

    /// The largest rate cap over the live classes (0 if none).
    fn max_cap(&self) -> f64 {
        (self.live.iter()).fold(0.0, |m: f64, &c| m.max(self.entries[c].cap))
    }

    /// Write one view per live class, in class order, into `views`, and
    /// point each live class at its first class-major slot.
    fn views(&mut self, views: &mut Vec<ClassView>) {
        views.clear();
        let mut next = 0;
        for &c in &self.live {
            let e = &mut self.entries[c];
            e.next_slot = next;
            next += e.live;
            views.push(ClassView {
                attrs: e.attrs,
                count: e.live,
            });
        }
    }
}

struct ResourceState {
    allocator: Box<dyn RateAllocator>,
    /// Live flows in submission (== flow-id) order.
    flows: Vec<ActiveFlow>,
    classes: ClassTable,
    /// The fewest bytes a live flow has left (∞ with none), kept by
    /// `settle`, submission and `resource_check`.
    min_remaining: f64,
    /// Allocator input and output, rebuilt in place on every reallocation.
    views: Vec<ClassView>,
    rates: Vec<f64>,
    class_bytes: ClassBytes,
    last_update: SimTime,
    epoch: u64,
    /// Sequence number reserved for the check of a reallocation deferred
    /// to the end of the current instant.
    deferred_seq: Option<u64>,
    report: ResourceReport,
}

impl ResourceState {
    fn into_report(mut self) -> ResourceReport {
        self.class_bytes.fold_into(&mut self.report.bytes_by_class);
        self.report
    }
}

#[derive(Debug, Default)]
struct ChannelState {
    published: u64,
    has_published: bool,
    /// Processes parked on this channel, in process-id order.
    waiters: Vec<ProcessId>,
}

/// A configured simulation: resources, channels, and processes, plus run
/// limits. Build one, then call [`Simulation::run`].
pub struct Simulation {
    now: SimTime,
    seq: u64,
    events: BinaryHeap<Reverse<Event>>,
    procs: Vec<ProcSlot>,
    resources: Vec<ResourceState>,
    channels: Vec<ChannelState>,
    /// Flows completed by the current resource check (reused buffer).
    finished: Vec<ActiveFlow>,
    /// Resources whose flows changed during the current instant.
    deferred: Vec<ResourceId>,
    next_flow_id: u64,
    event_budget: u64,
    horizon: SimTime,
    events_processed: u64,
    max_heap_depth: usize,
    record_timeline: bool,
}

impl Default for Simulation {
    fn default() -> Self {
        Self::new()
    }
}

impl Simulation {
    /// An empty simulation with default limits (200 M events, 10^9 s).
    pub fn new() -> Self {
        Self {
            now: SimTime::ZERO,
            seq: 0,
            events: BinaryHeap::new(),
            procs: Vec::new(),
            resources: Vec::new(),
            channels: Vec::new(),
            finished: Vec::new(),
            deferred: Vec::new(),
            next_flow_id: 0,
            event_budget: 200_000_000,
            horizon: SimTime(1e9),
            events_processed: 0,
            max_heap_depth: 0,
            record_timeline: false,
        }
    }

    /// Record per-process span timelines (compute/io/wait) for rendering
    /// Gantt charts or Chrome traces. Off by default (costs memory
    /// proportional to the number of actions).
    pub fn with_timeline(mut self) -> Self {
        self.record_timeline = true;
        self
    }

    /// Register a fluid resource governed by `allocator`.
    pub fn add_resource(&mut self, allocator: Box<dyn RateAllocator>) -> ResourceId {
        let id = ResourceId(self.resources.len());
        let name = allocator.name().to_string();
        self.resources.push(ResourceState {
            allocator,
            flows: Vec::new(),
            classes: ClassTable::default(),
            min_remaining: f64::INFINITY,
            views: Vec::new(),
            rates: Vec::new(),
            class_bytes: ClassBytes::default(),
            last_update: SimTime::ZERO,
            epoch: 0,
            deferred_seq: None,
            report: ResourceReport {
                name,
                ..Default::default()
            },
        });
        id
    }

    /// Create a version channel (monotone watermark writers publish to and
    /// readers wait on).
    pub fn add_channel(&mut self) -> ChannelId {
        let id = ChannelId(self.channels.len());
        self.channels.push(ChannelState::default());
        id
    }

    /// Spawn a process that performs `script` in order and finishes when
    /// the script runs out. It takes its first action at t = 0 when the
    /// run starts (in spawn order).
    pub fn spawn(&mut self, name: impl Into<String>, script: Vec<Action>) -> ProcessId {
        let id = ProcessId(self.procs.len());
        let name = name.into();
        self.procs.push(ProcSlot {
            script: script.into_iter(),
            state: ProcState::Scheduled,
            report: ProcessReport {
                name: name.clone(),
                ..Default::default()
            },
            timeline: ProcessTimeline {
                name,
                spans: Vec::new(),
            },
        });
        id
    }

    fn push_event(&mut self, time: SimTime, kind: EventKind) {
        let seq = self.seq;
        self.seq += 1;
        self.push_event_at(time, seq, kind);
    }

    fn push_event_at(&mut self, time: SimTime, seq: u64, kind: EventKind) {
        self.events.push(Reverse(Event { time, seq, kind }));
        self.max_heap_depth = self.max_heap_depth.max(self.events.len());
    }

    /// Run to completion of every process, returning the collected reports.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        // Kick every process at t = 0 in spawn order.
        for i in 0..self.procs.len() {
            self.push_event(SimTime::ZERO, EventKind::Wake(ProcessId(i)));
        }

        loop {
            // The instant ends when the next event is later, or none is left.
            if !self.deferred.is_empty()
                && self
                    .events
                    .peek()
                    .is_none_or(|Reverse(ev)| ev.time > self.now)
            {
                self.flush_deferred();
            }
            let Some(Reverse(ev)) = self.events.pop() else {
                break;
            };
            self.events_processed += 1;
            if self.events_processed > self.event_budget {
                return Err(SimError::EventBudgetExhausted {
                    budget: self.event_budget,
                });
            }
            debug_assert!(ev.time >= self.now, "event heap violated time order");
            if ev.time > self.horizon {
                return Err(SimError::HorizonExceeded {
                    horizon: self.horizon,
                });
            }
            self.now = ev.time;
            match ev.kind {
                EventKind::Wake(pid) => self.step_process(pid),
                EventKind::ResourceCheck { resource, epoch } => {
                    if self.resources[resource.0].epoch != epoch {
                        continue; // stale: membership changed since scheduling
                    }
                    self.resource_check(resource);
                }
            }
        }

        // No more events. Every process must be Done, otherwise we deadlocked.
        let blocked: Vec<String> = self
            .procs
            .iter()
            .filter(|p| p.state != ProcState::Done)
            .map(|p| p.report.name.clone())
            .collect();
        if !blocked.is_empty() {
            return Err(SimError::Deadlock { blocked });
        }

        let timeline = if self.record_timeline {
            Some(Timeline {
                processes: self.procs.iter().map(|p| p.timeline.clone()).collect(),
                end_time: self.now,
            })
        } else {
            None
        };
        Ok(SimReport {
            end_time: self.now,
            processes: self.procs.into_iter().map(|p| p.report).collect(),
            resources: self
                .resources
                .into_iter()
                .map(ResourceState::into_report)
                .collect(),
            events_processed: self.events_processed,
            max_heap_depth: self.max_heap_depth,
            timeline,
        })
    }

    /// Drive one process until it blocks (compute, I/O, wait) or its
    /// script runs out.
    fn step_process(&mut self, pid: ProcessId) {
        loop {
            let slot = &mut self.procs[pid.0];
            if slot.state == ProcState::Done {
                return;
            }
            let Some(action) = slot.script.next() else {
                slot.state = ProcState::Done;
                slot.report.finished_at = Some(self.now);
                return;
            };
            match action {
                Action::Compute(d) => {
                    self.procs[pid.0].report.compute_time += d;
                    self.procs[pid.0].state = ProcState::Scheduled;
                    if self.record_timeline {
                        self.procs[pid.0].timeline.spans.push(Span {
                            start: self.now,
                            end: self.now + d,
                            kind: SpanKind::Compute,
                        });
                    }
                    self.push_event(self.now + d, EventKind::Wake(pid));
                    return;
                }
                Action::Io {
                    resource,
                    bytes,
                    attrs,
                } => {
                    assert!(
                        bytes.is_finite() && bytes > 0.0,
                        "I/O action must move a positive, finite byte count"
                    );
                    self.procs[pid.0].state = ProcState::InIo {
                        io_started: self.now,
                    };
                    let fid = FlowId(self.next_flow_id);
                    self.next_flow_id += 1;
                    self.settle(resource);
                    let res = &mut self.resources[resource.0];
                    res.min_remaining = res.min_remaining.min(bytes);
                    res.flows.push(ActiveFlow {
                        id: fid,
                        owner: pid,
                        class: res.classes.join(&attrs),
                        total: bytes,
                        remaining: bytes,
                        rate: 0.0,
                    });
                    self.invalidate(resource);
                    return;
                }
                Action::WaitVersion { channel, version } => {
                    let ch = &self.channels[channel.0];
                    if ch.has_published && ch.published >= version {
                        continue; // already satisfied, no time passes
                    }
                    self.procs[pid.0].report.channel_waits += 1;
                    self.procs[pid.0].state = ProcState::WaitingVersion {
                        channel,
                        version,
                        since: self.now,
                    };
                    let waiters = &mut self.channels[channel.0].waiters;
                    if let Err(at) = waiters.binary_search(&pid) {
                        waiters.insert(at, pid);
                    }
                    return;
                }
                Action::Publish { channel, version } => {
                    let ch = &mut self.channels[channel.0];
                    ch.has_published = true;
                    ch.published = ch.published.max(version);
                    let published = ch.published;
                    // Wake satisfied waiters via events at the current time
                    // (deterministic order by process id). Waking only
                    // pushes events, so nobody parks on this channel while
                    // its waiter list is taken out.
                    let mut waiters = std::mem::take(&mut ch.waiters);
                    let mut kept = 0;
                    for i in 0..waiters.len() {
                        let wid = waiters[i];
                        let ProcState::WaitingVersion { version, since, .. } =
                            self.procs[wid.0].state
                        else {
                            unreachable!("channel waiter {wid:?} is not parked");
                        };
                        if version > published {
                            waiters[kept] = wid;
                            kept += 1;
                            continue;
                        }
                        let slot = &mut self.procs[wid.0];
                        slot.report.wait_time += self.now.since(since);
                        if self.record_timeline {
                            slot.timeline.spans.push(Span {
                                start: since,
                                end: self.now,
                                kind: SpanKind::Wait,
                            });
                        }
                        slot.state = ProcState::Scheduled;
                        self.push_event(self.now, EventKind::Wake(wid));
                    }
                    waiters.truncate(kept);
                    self.channels[channel.0].waiters = waiters;
                    continue;
                }
                Action::Mark(label) => {
                    self.procs[pid.0].report.marks.push((self.now, label));
                    continue;
                }
            }
        }
    }

    /// Advance all flows on `rid` to the current time at their last rates.
    fn settle(&mut self, rid: ResourceId) {
        let res = &mut self.resources[rid.0];
        let dt = self.now.since(res.last_update);
        if !dt.is_zero() {
            let n = res.flows.len();
            res.report.record_interval(dt, n);
            res.min_remaining = f64::INFINITY;
            for fl in &mut res.flows {
                let moved = (fl.rate * dt.seconds()).min(fl.remaining);
                fl.remaining -= moved;
                res.class_bytes
                    .add(&res.classes.entries[fl.class].attrs, moved);
                res.min_remaining = res.min_remaining.min(fl.remaining);
            }
        }
        res.last_update = self.now;
    }

    /// Note a membership change on `rid`, whose flows must be settled to
    /// `self.now`. The pending check goes stale at once and the next one's
    /// sequence number is reserved, but the rates wait for the end of the
    /// instant: a later change at the same instant would replace them
    /// before any time passed, and `settle` moves no bytes over a zero
    /// interval.
    fn invalidate(&mut self, rid: ResourceId) {
        let res = &mut self.resources[rid.0];
        res.epoch += 1;
        if res.flows.is_empty() {
            res.deferred_seq = None;
            return;
        }
        let seq = self.seq;
        self.seq += 1;
        // No flow can finish sooner than the fewest bytes left over the
        // largest rate cap `reallocate` can give. If even that rounds to
        // `now`, the check may belong before later events of this instant,
        // so it is scheduled at once.
        let soonest = res.min_remaining / res.classes.max_cap();
        if self.now + SimDuration::from_secs(soonest) == self.now {
            res.deferred_seq = None;
            self.reallocate(rid, seq);
        } else if res.deferred_seq.replace(seq).is_none() {
            self.deferred.push(rid);
        }
    }

    /// Reallocate every resource whose flows changed during the instant
    /// that is ending.
    fn flush_deferred(&mut self) {
        let mut deferred = std::mem::take(&mut self.deferred);
        for &rid in &deferred {
            if let Some(seq) = self.resources[rid.0].deferred_seq.take() {
                self.reallocate(rid, seq);
            }
        }
        deferred.clear();
        self.deferred = deferred;
    }

    /// Recompute the rates on `rid` and schedule its next completion check
    /// under the reserved `seq`. Flows must be settled to `self.now`.
    fn reallocate(&mut self, rid: ResourceId, seq: u64) {
        let res = &mut self.resources[rid.0];
        res.classes.views(&mut res.views);
        debug_assert!(
            (res.views.windows(2)).all(|w| FlowClass::of(&w[0].attrs) < FlowClass::of(&w[1].attrs))
                && res.views.iter().all(|v| v.count > 0)
                && res.views.iter().map(|v| v.count).sum::<usize>() == res.flows.len(),
            "class views out of class order or miscounted"
        );
        res.rates.clear();
        res.rates.resize(res.flows.len(), 0.0);
        res.allocator.allocate(&res.views, &mut res.rates);
        // Scatter: each class's members take its slots in submission order.
        let mut next_done = f64::INFINITY;
        for fl in &mut res.flows {
            let class = &mut res.classes.entries[fl.class];
            let r = res.rates[class.next_slot].min(class.cap).max(MIN_RATE);
            class.next_slot += 1;
            fl.rate = r;
            next_done = next_done.min(fl.remaining / r);
        }
        let epoch = res.epoch;
        let t = self.now + SimDuration::from_secs(next_done);
        self.push_event_at(
            t,
            seq,
            EventKind::ResourceCheck {
                resource: rid,
                epoch,
            },
        );
    }

    /// Handle a (non-stale) resource check: settle, complete finished flows,
    /// wake their owners, reallocate.
    fn resource_check(&mut self, rid: ResourceId) {
        self.settle(rid);
        let res = &mut self.resources[rid.0];
        debug_assert!(
            res.deferred_seq.is_none(),
            "a live check outran its reallocation"
        );
        let finished = &mut self.finished;
        debug_assert!(finished.is_empty());
        // Flows stay in submission (== flow-id) order, so the finished
        // ones come out in the order their owners are woken.
        let (classes, min_remaining) = (&mut res.classes, &mut res.min_remaining);
        *min_remaining = f64::INFINITY;
        res.flows.retain(|fl| {
            let done = fl.remaining <= EPS_BYTES;
            if done {
                classes.leave(fl.class);
                finished.push(*fl);
            } else {
                *min_remaining = min_remaining.min(fl.remaining);
            }
            !done
        });
        if finished.is_empty() {
            // Float residue left every flow marginally unfinished: force the
            // nearest one to completion so the clock always advances.
            if let Some(min_idx) = res
                .flows
                .iter()
                .enumerate()
                .min_by(|a, b| a.1.remaining.total_cmp(&b.1.remaining))
                .map(|(i, _)| i)
            {
                let mut fl = res.flows.remove(min_idx);
                res.classes.leave(fl.class);
                res.class_bytes
                    .add(&res.classes.entries[fl.class].attrs, fl.remaining);
                fl.remaining = 0.0;
                finished.push(fl);
                res.min_remaining =
                    (res.flows.iter()).fold(f64::INFINITY, |m, f| m.min(f.remaining));
            }
        }
        res.report.flows_completed += finished.len() as u64;
        res.report.peak_concurrency = res
            .report
            .peak_concurrency
            .max(res.flows.len() + finished.len());
        self.invalidate(rid);
        // Wake owners in flow-id order (== submission order): deterministic.
        // Waking never re-enters a resource check, so the buffer can be
        // taken out while owners step and handed back empty afterwards.
        let mut finished = std::mem::take(&mut self.finished);
        debug_assert!(finished.windows(2).all(|w| w[0].id < w[1].id));
        for fl in &finished {
            let slot = &mut self.procs[fl.owner.0];
            if let ProcState::InIo { io_started } = slot.state {
                slot.report.io_time += self.now.since(io_started);
                if self.record_timeline {
                    slot.timeline.spans.push(Span {
                        start: io_started,
                        end: self.now,
                        kind: SpanKind::Io,
                    });
                }
            }
            slot.report.io_bytes += fl.total;
            slot.state = ProcState::Scheduled;
            self.step_process(fl.owner);
        }
        finished.clear();
        self.finished = finished;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{Direction, FairShareAllocator, Locality, UncontendedAllocator};
    use std::sync::{Arc, Mutex};

    fn io(resource: ResourceId, bytes: f64, peak: f64) -> Action {
        Action::Io {
            resource,
            bytes,
            attrs: FlowAttrs {
                direction: Direction::Write,
                locality: Locality::Local,
                access_bytes: 1 << 20,
                sw_time_per_byte: 0.0,
                peak_device_rate: peak,
            },
        }
    }

    #[test]
    fn single_compute_process() {
        let mut sim = Simulation::new();
        sim.spawn("c", vec![Action::Compute(SimDuration(2.5))]);
        let rep = sim.run().unwrap();
        assert_eq!(rep.end_time, SimTime(2.5));
        assert_eq!(rep.processes[0].compute_time.seconds(), 2.5);
    }

    #[test]
    fn empty_script_finishes_at_zero_and_is_never_stepped_again() {
        // The empty script finishes on its start event, its only one; the
        // clock then runs on to t = 1 without stepping it again.
        let mut sim = Simulation::new();
        sim.spawn("empty", Vec::new());
        sim.spawn("c", vec![Action::Compute(SimDuration(1.0))]);
        let rep = sim.run().unwrap();
        assert_eq!(rep.processes[0].finished_at, Some(SimTime::ZERO));
        assert_eq!(rep.end_time, SimTime(1.0));
        // Two start events and one compute end.
        assert_eq!(rep.events_processed, 3);
    }

    #[test]
    fn single_flow_takes_bytes_over_rate() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(Box::new(UncontendedAllocator));
        sim.spawn(
            "w",
            vec![io(r, 10e9, 2e9)], // 10 GB at 2 GB/s -> 5 s
        );
        let rep = sim.run().unwrap();
        assert!((rep.end_time.seconds() - 5.0).abs() < 1e-6);
        assert!((rep.processes[0].io_time.seconds() - 5.0).abs() < 1e-6);
        assert!((rep.resources[0].total_bytes() - 10e9).abs() < 1.0);
    }

    #[test]
    fn two_flows_share_fairly() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(Box::new(FairShareAllocator::new(2e9)));
        for i in 0..2 {
            sim.spawn(format!("w{i}"), vec![io(r, 2e9, 10e9)]);
        }
        // Each gets 1 GB/s, both finish at t = 2.
        let rep = sim.run().unwrap();
        assert!((rep.end_time.seconds() - 2.0).abs() < 1e-6);
        assert_eq!(rep.resources[0].peak_concurrency, 2);
    }

    #[test]
    fn departure_releases_bandwidth() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(Box::new(FairShareAllocator::new(2e9)));
        // A short and a long flow: short (1 GB) finishes at t=1 at 1 GB/s,
        // then long (3 GB) runs at 2 GB/s: 1 GB done by t=1, 2 GB left ->
        // finishes at t = 2.
        sim.spawn("short", vec![io(r, 1e9, 10e9)]);
        sim.spawn("long", vec![io(r, 3e9, 10e9)]);
        let rep = sim.run().unwrap();
        let short_done = rep.processes[0].finished_at.unwrap().seconds();
        let long_done = rep.processes[1].finished_at.unwrap().seconds();
        assert!((short_done - 1.0).abs() < 1e-6, "short at {short_done}");
        assert!((long_done - 2.0).abs() < 1e-6, "long at {long_done}");
    }

    #[test]
    fn staggered_arrival_reallocates() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(Box::new(FairShareAllocator::new(2e9)));
        // P0 starts I/O at t=0: 3 GB. P1 computes 1 s then 1 GB of I/O.
        // t in [0,1): p0 alone at 2 GB/s -> 2 GB done, 1 GB left.
        // t in [1,?): both at 1 GB/s. p1 needs 1 s (done t=2); p0 1 GB (t=2).
        sim.spawn("p0", vec![io(r, 3e9, 10e9)]);
        sim.spawn(
            "p1",
            vec![Action::Compute(SimDuration(1.0)), io(r, 1e9, 10e9)],
        );
        let rep = sim.run().unwrap();
        assert!((rep.end_time.seconds() - 2.0).abs() < 1e-6);
    }

    #[test]
    fn version_channel_pipelines() {
        let mut sim = Simulation::new();
        let ch_handle;
        {
            ch_handle = sim.add_channel();
        }
        let ch = ch_handle;
        // Writer computes 1 s then publishes v1, again for v2.
        sim.spawn(
            "writer",
            vec![
                Action::Compute(SimDuration(1.0)),
                Action::Publish {
                    channel: ch,
                    version: 1,
                },
                Action::Compute(SimDuration(1.0)),
                Action::Publish {
                    channel: ch,
                    version: 2,
                },
            ],
        );
        // Reader waits v1, computes 0.2, waits v2.
        sim.spawn(
            "reader",
            vec![
                Action::WaitVersion {
                    channel: ch,
                    version: 1,
                },
                Action::Compute(SimDuration(0.2)),
                Action::WaitVersion {
                    channel: ch,
                    version: 2,
                },
                Action::Mark("got-v2"),
            ],
        );
        let rep = sim.run().unwrap();
        assert!((rep.end_time.seconds() - 2.0).abs() < 1e-9);
        let reader = &rep.processes[1];
        assert!((reader.wait_time.seconds() - 1.8).abs() < 1e-9);
        assert_eq!(reader.mark("got-v2"), Some(SimTime(2.0)));
    }

    #[test]
    fn wait_on_already_published_version_is_instant() {
        let mut sim = Simulation::new();
        let ch = sim.add_channel();
        sim.spawn(
            "w",
            vec![Action::Publish {
                channel: ch,
                version: 5,
            }],
        );
        sim.spawn(
            "r",
            vec![
                Action::Compute(SimDuration(1.0)),
                Action::WaitVersion {
                    channel: ch,
                    version: 3,
                },
            ],
        );
        let rep = sim.run().unwrap();
        assert_eq!(rep.processes[1].wait_time.seconds(), 0.0);
        assert_eq!(rep.end_time, SimTime(1.0));
    }

    #[test]
    fn publish_wakes_only_satisfied_waiters() {
        let mut sim = Simulation::new();
        let a = sim.add_channel();
        let b = sim.add_channel();
        let publish = |channel, version| Action::Publish { channel, version };
        let wait = |channel, version| Action::WaitVersion { channel, version };
        sim.spawn(
            "writer",
            vec![
                Action::Compute(SimDuration(1.0)),
                publish(a, 1),
                Action::Compute(SimDuration(1.0)),
                publish(a, 2),
                Action::Compute(SimDuration(1.0)),
                publish(b, 1),
            ],
        );
        for (name, channel, version) in [("a2", a, 2), ("a1", a, 1), ("b1", b, 1), ("a1'", a, 1)] {
            sim.spawn(name, vec![wait(channel, version)]);
        }
        let rep = sim.run().unwrap();
        let finished: Vec<f64> = rep.processes[1..]
            .iter()
            .map(|p| p.finished_at.unwrap().seconds())
            .collect();
        assert_eq!(finished, [2.0, 1.0, 3.0, 1.0]);
        for p in &rep.processes[1..] {
            assert_eq!(p.wait_time.seconds(), p.finished_at.unwrap().seconds());
            assert_eq!(p.channel_waits, 1);
        }
    }

    #[test]
    fn deadlock_detected() {
        let mut sim = Simulation::new();
        let ch = sim.add_channel();
        sim.spawn(
            "r",
            vec![Action::WaitVersion {
                channel: ch,
                version: 1,
            }],
        );
        match sim.run() {
            Err(SimError::Deadlock { blocked }) => assert_eq!(blocked, vec!["r"]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn event_budget_enforced() {
        let mut sim = Simulation::new();
        sim.event_budget = 10;
        let mut actions = Vec::new();
        for _ in 0..100 {
            actions.push(Action::Compute(SimDuration(0.001)));
        }
        sim.spawn("spin", actions);
        assert!(matches!(
            sim.run(),
            Err(SimError::EventBudgetExhausted { .. })
        ));
    }

    #[test]
    fn horizon_enforced() {
        let mut sim = Simulation::new();
        sim.horizon = SimTime(1.0);
        sim.spawn("slow", vec![Action::Compute(SimDuration(5.0))]);
        assert!(matches!(sim.run(), Err(SimError::HorizonExceeded { .. })));
    }

    #[test]
    fn determinism_bitwise() {
        let build = || {
            let mut sim = Simulation::new();
            let r = sim.add_resource(Box::new(FairShareAllocator::new(3.1e9)));
            let ch = sim.add_channel();
            for i in 0..7 {
                sim.spawn(
                    format!("w{i}"),
                    vec![
                        Action::Compute(SimDuration(0.1 * (i + 1) as f64)),
                        io(r, 1.7e9 + i as f64 * 3e8, 5e9),
                        Action::Publish {
                            channel: ch,
                            version: i as u64 + 1,
                        },
                    ],
                );
            }
            sim.spawn(
                "r",
                vec![
                    Action::WaitVersion {
                        channel: ch,
                        version: 7,
                    },
                    io(r, 9e9, 8e9),
                ],
            );
            sim.run().unwrap()
        };
        let a = build();
        let b = build();
        assert_eq!(
            a.end_time.seconds().to_bits(),
            b.end_time.seconds().to_bits()
        );
        assert_eq!(a.events_processed, b.events_processed);
        for (pa, pb) in a.processes.iter().zip(b.processes.iter()) {
            assert_eq!(
                pa.io_time.seconds().to_bits(),
                pb.io_time.seconds().to_bits()
            );
        }
    }

    #[test]
    fn engine_counters_are_recorded() {
        let mut sim = Simulation::new();
        let ch = sim.add_channel();
        sim.spawn(
            "w",
            vec![
                Action::Compute(SimDuration(1.0)),
                Action::Publish {
                    channel: ch,
                    version: 1,
                },
            ],
        );
        sim.spawn(
            "r",
            vec![
                // Parks once (v1 not yet published at t=0) ...
                Action::WaitVersion {
                    channel: ch,
                    version: 1,
                },
                // ... then this wait is satisfied instantly: not counted.
                Action::WaitVersion {
                    channel: ch,
                    version: 1,
                },
            ],
        );
        let rep = sim.run().unwrap();
        assert_eq!(rep.processes[0].channel_waits, 0);
        assert_eq!(rep.processes[1].channel_waits, 1);
        assert!(rep.max_heap_depth >= 2, "both start events coexist");
        assert!(rep.max_heap_depth as u64 <= rep.events_processed);
    }

    #[test]
    fn software_overhead_reduces_rate() {
        // One flow, sw time 1 ns/byte, device 2e9 B/s -> intrinsic
        // 1/(1e-9 + 0.5e-9) = 2/3 GB/s; 2 GB should take 3 s.
        let mut sim = Simulation::new();
        let r = sim.add_resource(Box::new(UncontendedAllocator));
        sim.spawn(
            "w",
            vec![Action::Io {
                resource: r,
                bytes: 2e9,
                attrs: FlowAttrs {
                    direction: Direction::Write,
                    locality: Locality::Local,
                    access_bytes: 2048,
                    sw_time_per_byte: 1e-9,
                    peak_device_rate: 2e9,
                },
            }],
        );
        let rep = sim.run().unwrap();
        assert!((rep.end_time.seconds() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn resource_reports_track_classes() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(Box::new(UncontendedAllocator));
        sim.spawn(
            "w",
            vec![Action::Io {
                resource: r,
                bytes: 1e9,
                attrs: FlowAttrs {
                    direction: Direction::Read,
                    locality: Locality::Remote,
                    access_bytes: 4096,
                    sw_time_per_byte: 0.0,
                    peak_device_rate: 1e9,
                },
            }],
        );
        let rep = sim.run().unwrap();
        let b = rep.resources[0].bytes_by_class.get(&("R", "rem")).copied();
        assert!((b.unwrap() - 1e9).abs() < 1.0);
        assert_eq!(rep.resources[0].flows_completed, 1);
    }

    /// Records the flow count of every allocation it forwards.
    struct CountingAllocator {
        inner: FairShareAllocator,
        calls: Arc<Mutex<Vec<usize>>>,
    }

    impl RateAllocator for CountingAllocator {
        fn allocate(&mut self, classes: &[ClassView], rates: &mut [f64]) {
            self.calls.lock().unwrap().push(rates.len());
            self.inner.allocate(classes, rates);
        }
    }

    /// Logs its label into a log shared across resources at every
    /// allocation, so the order in which flows arrive on different
    /// resources is observable.
    struct LoggingAllocator {
        label: &'static str,
        log: Arc<Mutex<Vec<&'static str>>>,
    }

    impl RateAllocator for LoggingAllocator {
        fn allocate(&mut self, classes: &[ClassView], rates: &mut [f64]) {
            self.log.lock().unwrap().push(self.label);
            UncontendedAllocator.allocate(classes, rates);
        }
    }

    #[test]
    fn same_instant_arrivals_allocate_once() {
        // Four ranks compute 1 s, then each submits k GB (k = 1..=4) to a
        // 2 GB/s fair-share device. Equal shares give the closed form
        // T_k = T_{k-1} + 1 GB * (5 - k) / 2 GB/s after T_0 = 1 s.
        const N: usize = 4;
        let calls = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let r = sim.add_resource(Box::new(CountingAllocator {
            inner: FairShareAllocator::new(2e9),
            calls: Arc::clone(&calls),
        }));
        for k in 1..=N {
            sim.spawn(
                format!("w{k}"),
                vec![
                    Action::Compute(SimDuration(1.0)),
                    io(r, k as f64 * 1e9, 10e9),
                ],
            );
        }
        let rep = sim.run().unwrap();
        // One allocation for the arrival instant, then one per departure
        // that leaves flows behind.
        assert_eq!(*calls.lock().unwrap(), [4, 3, 2, 1]);
        let mut want = 1.0;
        for (k, p) in rep.processes.iter().enumerate() {
            want += 1e9 * (N - k) as f64 / 2e9;
            let got = p.finished_at.unwrap().seconds();
            assert!((got - want).abs() < 1e-9, "w{}: {got} vs {want}", k + 1);
        }
        // Two wakes per rank (start, compute end) and one live check per
        // departure: no stale check was ever pushed.
        assert_eq!(rep.events_processed, (2 * N + N) as u64);
    }

    #[test]
    fn check_due_this_instant_keeps_its_place() {
        // At t = 1e6 s a 1-byte flow on a 1e12 B/s device is due 1e-12 s
        // later, which rounds to the same instant. Its check is scheduled
        // under a lower sequence number than the wake that the publisher's
        // event pushes right after, so it must be handled first. Each
        // process then starts a flow on a resource of its own; both
        // reallocations wait for the end of the instant and run in arrival
        // order, so the log shows which process was stepped first.
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut sim = Simulation::new();
        let r = sim.add_resource(Box::new(UncontendedAllocator));
        let mut logged = |label| {
            let log = Arc::clone(&log);
            sim.add_resource(Box::new(LoggingAllocator { label, log }))
        };
        let (after_io, after_wait) = (logged("io-done"), logged("woken"));
        let ch = sim.add_channel();
        let scripts = [
            (
                "io",
                vec![
                    Action::Compute(SimDuration(1e6)),
                    io(r, 1.0, 1e12),
                    Action::Mark("io-done"),
                    io(after_io, 1e9, 1e9),
                ],
            ),
            (
                "publisher",
                vec![
                    Action::Compute(SimDuration(1e6)),
                    Action::Publish {
                        channel: ch,
                        version: 1,
                    },
                ],
            ),
            (
                "waiter",
                vec![
                    Action::WaitVersion {
                        channel: ch,
                        version: 1,
                    },
                    Action::Mark("woken"),
                    io(after_wait, 1e9, 1e9),
                ],
            ),
        ];
        for (name, script) in scripts {
            sim.spawn(name, script);
        }
        let rep = sim.run().unwrap();
        assert_eq!(*log.lock().unwrap(), ["io-done", "woken"]);
        assert_eq!(rep.processes[0].mark("io-done"), Some(SimTime(1e6)));
        assert_eq!(rep.processes[2].mark("woken"), Some(SimTime(1e6)));
    }

    fn attrs(direction: Direction, peak: f64) -> FlowAttrs {
        FlowAttrs {
            direction,
            locality: Locality::Local,
            access_bytes: 1 << 20,
            sw_time_per_byte: 0.0,
            peak_device_rate: peak,
        }
    }

    /// One allocator call: each class's direction and count.
    type Call = Vec<(Direction, usize)>;

    /// Records each call's class views, then gives slot i of the
    /// class-major rates `(i + 1)` GB/s, or defers to `inner`.
    struct RecordingAllocator {
        inner: Option<UncontendedAllocator>,
        calls: Arc<Mutex<Vec<Call>>>,
    }

    impl RateAllocator for RecordingAllocator {
        fn allocate(&mut self, classes: &[ClassView], rates: &mut [f64]) {
            let call = classes.iter().map(|c| (c.attrs.direction, c.count));
            self.calls.lock().unwrap().push(call.collect());
            match &mut self.inner {
                Some(inner) => inner.allocate(classes, rates),
                None => (rates.iter_mut().enumerate()).for_each(|(i, r)| *r = (i + 1) as f64 * 1e9),
            }
        }
    }

    fn recording(
        sim: &mut Simulation,
        inner: Option<UncontendedAllocator>,
    ) -> (ResourceId, Arc<Mutex<Vec<Call>>>) {
        let calls = Arc::new(Mutex::new(Vec::new()));
        let r = sim.add_resource(Box::new(RecordingAllocator {
            inner,
            calls: Arc::clone(&calls),
        }));
        (r, calls)
    }

    #[test]
    fn kth_member_of_a_class_runs_at_its_kth_slot() {
        // Reads sort before writes, so the four reads take slots 0..4 and
        // the three writes 4..7, each class in submission order. Each flow
        // moves (slot + 1) GB, so at its slot's (slot + 1) GB/s every flow
        // ends at exactly t = 1; any other slot would end it elsewhere.
        let (read, write) = (Direction::Read, Direction::Write);
        let arrivals = [write, read, write, read, read, write, read];
        let mut sim = Simulation::new();
        let (r, calls) = recording(&mut sim, None);
        let mut next_slot = [0, 4];
        for (i, &dir) in arrivals.iter().enumerate() {
            let slot = &mut next_slot[(dir == write) as usize];
            *slot += 1;
            let io = Action::Io {
                resource: r,
                bytes: *slot as f64 * 1e9,
                attrs: attrs(dir, 1e15),
            };
            sim.spawn(format!("p{i}"), vec![io]);
        }
        let rep = sim.run().unwrap();
        for p in &rep.processes {
            assert_eq!(p.finished_at, Some(SimTime(1.0)), "{}", p.name);
        }
        assert_eq!(*calls.lock().unwrap(), [vec![(read, 4), (write, 3)]]);
    }

    #[test]
    fn a_class_that_empties_and_returns_rejoins_in_class_order() {
        // A long write spans two reads; the read class empties at t = 1
        // and comes back at t = 2, after the write class in submission
        // order but before it in class order.
        let mut sim = Simulation::new();
        let (r, calls) = recording(&mut sim, Some(UncontendedAllocator));
        let (read, write) = (attrs(Direction::Read, 1e9), attrs(Direction::Write, 1e9));
        let io = |attrs, bytes| Action::Io {
            resource: r,
            bytes,
            attrs,
        };
        sim.spawn("w", vec![io(write, 10e9)]);
        sim.spawn(
            "r",
            vec![
                io(read, 1e9),
                Action::Compute(SimDuration(1.0)),
                io(read, 1e9),
            ],
        );
        let rep = sim.run().unwrap();
        assert_eq!(rep.processes[1].finished_at, Some(SimTime(3.0)));
        let both = vec![(Direction::Read, 1), (Direction::Write, 1)];
        let alone = vec![(Direction::Write, 1)];
        assert_eq!(
            *calls.lock().unwrap(),
            [both.clone(), alone.clone(), both, alone]
        );
    }

    #[test]
    fn a_forced_completion_leaves_its_class() {
        // Two writes of one class at t = 1e6 s. The 150-byte one is due
        // 1.5e-10 s later, which rounds to one step of the clock (about
        // 1.16e-10 s): its check finds 33.6 bytes left, so no flow is done
        // and the engine forces the nearest one to completion.
        let (start, peak, bytes) = (SimTime(1e6), 1e12, 150.0);
        let step = (start + SimDuration::from_secs(bytes / peak)).since(start);
        assert!(bytes - peak * step.seconds() > EPS_BYTES);
        let mut sim = Simulation::new();
        let (r, calls) = recording(&mut sim, Some(UncontendedAllocator));
        for (name, bytes) in [("short", bytes), ("long", 1e13)] {
            let io = Action::Io {
                resource: r,
                bytes,
                attrs: attrs(Direction::Write, peak),
            };
            let script = vec![Action::Compute(SimDuration(start.seconds())), io];
            sim.spawn(name, script);
        }
        let rep = sim.run().unwrap();
        assert_eq!(rep.processes[0].finished_at, Some(start + step));
        assert_eq!(rep.processes[0].io_bytes, bytes);
        let (two, one) = (vec![(Direction::Write, 2)], vec![(Direction::Write, 1)]);
        assert_eq!(*calls.lock().unwrap(), [two, one]);
    }
}
