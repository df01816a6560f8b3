//! The discrete-event engine.
//!
//! The engine advances a virtual clock through a binary heap of
//! timestamped events; real runs keep at most a few dozen pending. Two
//! event kinds exist: process wake-ups (compute phases ending) and
//! resource checks (the earliest moment a fluid flow can complete under the
//! current rate assignment). Whenever the set of flows on a resource changes,
//! rates are recomputed by the resource's [`RateAllocator`] and a fresh check
//! is scheduled; stale checks are invalidated by an epoch counter.
//!
//! Determinism: events are ordered by `(time, sequence)`, all arithmetic is
//! pure `f64`, and no randomness or wall-clock input exists anywhere in the
//! engine, so identical inputs yield bit-identical reports.
//!
//! Apart from what a run records (marks, timelines) and what an allocator
//! keeps for itself, the per-event paths do not allocate once a run has
//! warmed up: each resource owns the scratch its allocator reads and
//! writes, completed flows go through one reused buffer, and each channel
//! keeps its parked waiters so a publish visits only them.

use crate::flow::{ActiveFlow, FlowId, FlowView, RateAllocator};
use crate::process::{Action, ChannelId, Process, ProcessId, ResourceId, Resume};
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
    proc: Box<dyn Process>,
    state: ProcState,
    report: ProcessReport,
    timeline: ProcessTimeline,
}

struct ResourceState {
    allocator: Box<dyn RateAllocator>,
    flows: Vec<ActiveFlow>,
    /// Allocator input and output, rebuilt in place on every reallocation.
    views: Vec<FlowView>,
    rates: Vec<f64>,
    class_bytes: ClassBytes,
    last_update: SimTime,
    epoch: u64,
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

    /// Cap the number of events processed before the run aborts.
    pub fn with_event_budget(mut self, budget: u64) -> Self {
        self.event_budget = budget;
        self
    }

    /// Cap the virtual clock before the run aborts.
    pub fn with_horizon(mut self, horizon: SimTime) -> Self {
        self.horizon = horizon;
        self
    }

    /// Register a fluid resource governed by `allocator`.
    pub fn add_resource(&mut self, allocator: Box<dyn RateAllocator>) -> ResourceId {
        let id = ResourceId(self.resources.len());
        let name = allocator.name().to_string();
        self.resources.push(ResourceState {
            allocator,
            flows: Vec::new(),
            views: Vec::new(),
            rates: Vec::new(),
            class_bytes: ClassBytes::default(),
            last_update: SimTime::ZERO,
            epoch: 0,
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

    /// Spawn a process; it receives its first `next` call at t = 0 when the
    /// run starts (in spawn order).
    pub fn spawn(&mut self, proc: Box<dyn Process>) -> ProcessId {
        let id = ProcessId(self.procs.len());
        let name = proc.name();
        self.procs.push(ProcSlot {
            proc,
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
        self.events.push(Reverse(Event { time, seq, kind }));
        self.max_heap_depth = self.max_heap_depth.max(self.events.len());
    }

    /// Run to completion of every process, returning the collected reports.
    pub fn run(mut self) -> Result<SimReport, SimError> {
        // Kick every process at t = 0 in spawn order.
        for i in 0..self.procs.len() {
            self.push_event(SimTime::ZERO, EventKind::Wake(ProcessId(i)));
        }
        let mut first_call = vec![true; self.procs.len()];

        while let Some(Reverse(ev)) = self.events.pop() {
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
                EventKind::Wake(pid) => {
                    let resume = if std::mem::take(&mut first_call[pid.0]) {
                        Resume::Start
                    } else {
                        Resume::ActionDone
                    };
                    self.step_process(pid, resume);
                }
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

    /// Drive one process until it blocks (compute, I/O, wait) or finishes.
    fn step_process(&mut self, pid: ProcessId, mut resume: Resume) {
        loop {
            let action = {
                let slot = &mut self.procs[pid.0];
                if slot.state == ProcState::Done {
                    return;
                }
                slot.proc.next(self.now, resume)
            };
            resume = Resume::ActionDone;
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
                    res.flows.push(ActiveFlow {
                        id: fid,
                        owner: pid,
                        attrs,
                        total: bytes,
                        remaining: bytes,
                        rate: 0.0,
                    });
                    self.reallocate(resource);
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
                Action::Done => {
                    self.procs[pid.0].state = ProcState::Done;
                    self.procs[pid.0].report.finished_at = Some(self.now);
                    return;
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
            for fl in &mut res.flows {
                let moved = (fl.rate * dt.seconds()).min(fl.remaining);
                fl.remaining -= moved;
                res.class_bytes.add(&fl.attrs, moved);
            }
        }
        res.last_update = self.now;
    }

    /// Recompute rates after a membership change and schedule the next
    /// completion check. Must be called with flows settled to `self.now`.
    fn reallocate(&mut self, rid: ResourceId) {
        let res = &mut self.resources[rid.0];
        res.epoch += 1;
        if res.flows.is_empty() {
            return;
        }
        res.views.clear();
        res.views.extend(res.flows.iter().map(|f| FlowView {
            attrs: f.attrs,
            remaining: f.remaining,
        }));
        res.rates.clear();
        res.rates.resize(res.flows.len(), 0.0);
        res.allocator.allocate(&res.views, &mut res.rates);
        let mut next_done = f64::INFINITY;
        for (fl, &r) in res.flows.iter_mut().zip(res.rates.iter()) {
            let r = r.min(fl.attrs.intrinsic_rate()).max(MIN_RATE);
            fl.rate = r;
            next_done = next_done.min(fl.remaining / r);
        }
        let epoch = res.epoch;
        let t = self.now + SimDuration::from_secs(next_done);
        self.push_event(
            t,
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
        let finished = &mut self.finished;
        debug_assert!(finished.is_empty());
        // Flows stay in submission (== flow-id) order, so the finished
        // ones come out in the order their owners are woken.
        res.flows.retain(|fl| {
            let done = fl.remaining <= EPS_BYTES;
            if done {
                finished.push(*fl);
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
                res.class_bytes.add(&fl.attrs, fl.remaining);
                fl.remaining = 0.0;
                finished.push(fl);
            }
        }
        res.report.flows_completed += finished.len() as u64;
        res.report.peak_concurrency = res
            .report
            .peak_concurrency
            .max(res.flows.len() + finished.len());
        self.reallocate(rid);
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
            self.step_process(fl.owner, Resume::ActionDone);
        }
        finished.clear();
        self.finished = finished;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flow::{Direction, FairShareAllocator, FlowAttrs, Locality, UncontendedAllocator};
    use crate::process::ScriptProcess;

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
        sim.spawn(Box::new(ScriptProcess::new(
            "c",
            vec![Action::Compute(SimDuration(2.5))],
        )));
        let rep = sim.run().unwrap();
        assert_eq!(rep.end_time, SimTime(2.5));
        assert_eq!(rep.processes[0].compute_time.seconds(), 2.5);
    }

    #[test]
    fn single_flow_takes_bytes_over_rate() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(Box::new(UncontendedAllocator));
        sim.spawn(Box::new(ScriptProcess::new(
            "w",
            vec![io(r, 10e9, 2e9)], // 10 GB at 2 GB/s -> 5 s
        )));
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
            sim.spawn(Box::new(ScriptProcess::new(
                format!("w{i}"),
                vec![io(r, 2e9, 10e9)],
            )));
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
        sim.spawn(Box::new(ScriptProcess::new(
            "short",
            vec![io(r, 1e9, 10e9)],
        )));
        sim.spawn(Box::new(ScriptProcess::new("long", vec![io(r, 3e9, 10e9)])));
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
        sim.spawn(Box::new(ScriptProcess::new("p0", vec![io(r, 3e9, 10e9)])));
        sim.spawn(Box::new(ScriptProcess::new(
            "p1",
            vec![Action::Compute(SimDuration(1.0)), io(r, 1e9, 10e9)],
        )));
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
        sim.spawn(Box::new(ScriptProcess::new(
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
        )));
        // Reader waits v1, computes 0.2, waits v2.
        sim.spawn(Box::new(ScriptProcess::new(
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
        )));
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
        sim.spawn(Box::new(ScriptProcess::new(
            "w",
            vec![Action::Publish {
                channel: ch,
                version: 5,
            }],
        )));
        sim.spawn(Box::new(ScriptProcess::new(
            "r",
            vec![
                Action::Compute(SimDuration(1.0)),
                Action::WaitVersion {
                    channel: ch,
                    version: 3,
                },
            ],
        )));
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
        sim.spawn(Box::new(ScriptProcess::new(
            "writer",
            vec![
                Action::Compute(SimDuration(1.0)),
                publish(a, 1),
                Action::Compute(SimDuration(1.0)),
                publish(a, 2),
                Action::Compute(SimDuration(1.0)),
                publish(b, 1),
            ],
        )));
        for (name, channel, version) in [("a2", a, 2), ("a1", a, 1), ("b1", b, 1), ("a1'", a, 1)] {
            sim.spawn(Box::new(ScriptProcess::new(
                name,
                vec![wait(channel, version)],
            )));
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
        sim.spawn(Box::new(ScriptProcess::new(
            "r",
            vec![Action::WaitVersion {
                channel: ch,
                version: 1,
            }],
        )));
        match sim.run() {
            Err(SimError::Deadlock { blocked }) => assert_eq!(blocked, vec!["r"]),
            other => panic!("expected deadlock, got {other:?}"),
        }
    }

    #[test]
    fn event_budget_enforced() {
        let mut sim = Simulation::new().with_event_budget(10);
        let mut actions = Vec::new();
        for _ in 0..100 {
            actions.push(Action::Compute(SimDuration(0.001)));
        }
        sim.spawn(Box::new(ScriptProcess::new("spin", actions)));
        assert!(matches!(
            sim.run(),
            Err(SimError::EventBudgetExhausted { .. })
        ));
    }

    #[test]
    fn horizon_enforced() {
        let mut sim = Simulation::new().with_horizon(SimTime(1.0));
        sim.spawn(Box::new(ScriptProcess::new(
            "slow",
            vec![Action::Compute(SimDuration(5.0))],
        )));
        assert!(matches!(sim.run(), Err(SimError::HorizonExceeded { .. })));
    }

    #[test]
    fn determinism_bitwise() {
        let build = || {
            let mut sim = Simulation::new();
            let r = sim.add_resource(Box::new(FairShareAllocator::new(3.1e9)));
            let ch = sim.add_channel();
            for i in 0..7 {
                sim.spawn(Box::new(ScriptProcess::new(
                    format!("w{i}"),
                    vec![
                        Action::Compute(SimDuration(0.1 * (i + 1) as f64)),
                        io(r, 1.7e9 + i as f64 * 3e8, 5e9),
                        Action::Publish {
                            channel: ch,
                            version: i as u64 + 1,
                        },
                    ],
                )));
            }
            sim.spawn(Box::new(ScriptProcess::new(
                "r",
                vec![
                    Action::WaitVersion {
                        channel: ch,
                        version: 7,
                    },
                    io(r, 9e9, 8e9),
                ],
            )));
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
        sim.spawn(Box::new(ScriptProcess::new(
            "w",
            vec![
                Action::Compute(SimDuration(1.0)),
                Action::Publish {
                    channel: ch,
                    version: 1,
                },
            ],
        )));
        sim.spawn(Box::new(ScriptProcess::new(
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
        )));
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
        sim.spawn(Box::new(ScriptProcess::new(
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
        )));
        let rep = sim.run().unwrap();
        assert!((rep.end_time.seconds() - 3.0).abs() < 1e-6);
    }

    #[test]
    fn resource_reports_track_classes() {
        let mut sim = Simulation::new();
        let r = sim.add_resource(Box::new(UncontendedAllocator));
        sim.spawn(Box::new(ScriptProcess::new(
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
        )));
        let rep = sim.run().unwrap();
        let b = rep.resources[0].bytes_by_class.get(&("R", "rem")).copied();
        assert!((b.unwrap() - 1e9).abs() < 1.0);
        assert_eq!(rep.resources[0].flows_completed, 1);
    }
}
