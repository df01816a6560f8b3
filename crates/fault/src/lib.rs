//! # pmemflow-fault — deterministic fault injection
//!
//! The paper's premise is that PMEM is *persistent*, yet a best-case
//! model never exercises that persistence. This crate provides the
//! failure side of the story as pure, seeded data: a [`FaultPlan`]
//! expands a [`FaultSpec`] into a reproducible schedule of node crashes,
//! repairs, and transient device-slowdown windows, plus a stateless
//! per-attempt job-failure draw. Everything is driven by the workspace's
//! SplitMix64 discipline ([`pmemflow_des::rng`]) so a plan replays
//! byte-identically for any worker count and across runs.
//!
//! Design rules that make the campaign loop's determinism easy:
//!
//! * **Per-node streams.** Every node owns two independent RNG streams
//!   (crash/repair and degrade windows) derived from `(seed, node)`, so
//!   node 3's schedule is identical whether the cluster has 4 nodes or
//!   40, and consuming one node's events never perturbs another's.
//! * **Stateless job draws.** Whether attempt `k` of job `j` dies — and
//!   how far in — is a pure hash of `(seed, j, k)`, independent of the
//!   order the scheduler happens to place jobs in.
//! * **Lazy, ordered expansion.** Streams are infinite; events are pulled
//!   one at a time in `(time, node, kind)` order, so a campaign only ever
//!   materializes the prefix it lives through.

#![warn(missing_docs)]

use pmemflow_des::rng::SplitMix64;
use pmemflow_des::SimTime;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Parameters of a fault campaign. All times are seconds of simulated
/// campaign time; a zero `mtbf`/`degrade_mtbf`/`job_fail_prob` disables
/// that fault class, and [`FaultSpec::default`] disables everything.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSpec {
    /// Seed of the fault schedule (independent of the arrival seed so a
    /// failure trace can be replayed against different workloads).
    pub seed: u64,
    /// Mean time between crashes *per node* (exponential inter-arrival).
    /// `0.0` disables crashes.
    pub mtbf: f64,
    /// Mean node repair time (exponential); the node rejoins afterwards.
    pub repair: f64,
    /// Mean time between transient-degradation windows per node.
    /// `0.0` disables degradation.
    pub degrade_mtbf: f64,
    /// Mean duration of one degradation window (exponential).
    pub degrade_duration: f64,
    /// Progress-rate multiplier while a node is degraded (≥ 1.0): models
    /// the PMEM device dropping into a slower bandwidth class, so every
    /// resident's I/O stretches by this factor.
    pub degrade_factor: f64,
    /// Per-attempt probability (0..1) that a job dies mid-run from a
    /// cause of its own (application crash, rank failure).
    pub job_fail_prob: f64,
}

impl Default for FaultSpec {
    fn default() -> FaultSpec {
        FaultSpec {
            seed: 0,
            mtbf: 0.0,
            repair: 30.0,
            degrade_mtbf: 0.0,
            degrade_duration: 60.0,
            degrade_factor: 2.0,
            job_fail_prob: 0.0,
        }
    }
}

impl FaultSpec {
    /// Validate ranges, returning a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        for (name, v) in [
            ("mtbf", self.mtbf),
            ("repair", self.repair),
            ("degrade_mtbf", self.degrade_mtbf),
            ("degrade_duration", self.degrade_duration),
        ] {
            if !v.is_finite() || v < 0.0 {
                return Err(format!(
                    "{name} must be a finite non-negative time, got {v}"
                ));
            }
        }
        if self.mtbf > 0.0 && self.repair <= 0.0 {
            return Err("repair must be positive when crashes are enabled".into());
        }
        if self.degrade_factor < 1.0 || !self.degrade_factor.is_finite() {
            return Err(format!(
                "degrade_factor must be ≥ 1.0, got {}",
                self.degrade_factor
            ));
        }
        if !(0.0..1.0).contains(&self.job_fail_prob) {
            return Err(format!(
                "job_fail_prob must be in [0, 1), got {}",
                self.job_fail_prob
            ));
        }
        Ok(())
    }
}

/// Checkpoint/restart parameters for jobs under a fault plan. Checkpoints
/// are written into node-local PMEM and charged through the I/O-stack
/// cost model by the campaign loop; this struct only carries the knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct CheckpointSpec {
    /// Solo-seconds of useful progress between checkpoints. `0.0`
    /// disables checkpointing: an interrupted job restarts from scratch.
    pub interval: f64,
    /// How many restarts a job is granted before it is reported failed.
    pub retry_budget: u32,
    /// Base of the exponential requeue backoff: after restart `k`
    /// (1-based) the job becomes eligible again
    /// [`requeue_backoff`]`(backoff_base, k)` = `backoff_base * 2^(k-1)`
    /// seconds later — the first restart waits exactly one base period,
    /// and the exponent is clamped so a huge retry budget cannot overflow
    /// the eligible time to `+inf` and strand the job forever.
    pub backoff_base: f64,
}

impl Default for CheckpointSpec {
    fn default() -> CheckpointSpec {
        CheckpointSpec {
            interval: 0.0,
            retry_budget: 3,
            backoff_base: 5.0,
        }
    }
}

impl CheckpointSpec {
    /// Checkpoint image size in bytes (application state per job).
    pub const STATE_BYTES: u64 = 1 << 30;
    /// Object granularity the image is written in — small objects pay the
    /// stack's per-operation software cost, exactly the paper's coupling.
    pub const OBJECT_BYTES: u64 = 64 << 20;

    /// Validate ranges, returning a human-readable complaint.
    pub fn validate(&self) -> Result<(), String> {
        if !self.interval.is_finite() || self.interval < 0.0 {
            return Err(format!(
                "checkpoint interval must be finite and non-negative, got {}",
                self.interval
            ));
        }
        if !self.backoff_base.is_finite() || self.backoff_base < 0.0 {
            return Err(format!(
                "backoff base must be finite and non-negative, got {}",
                self.backoff_base
            ));
        }
        Ok(())
    }
}

/// The requeue delay before restart `restarts` (1-based) becomes
/// eligible: `base * 2^(restarts-1)`, so the first restart waits exactly
/// one base period and every further restart doubles it. The exponent is
/// clamped at 32 (≈ 4.3e9 × base) — large retry budgets back off far, but
/// never overflow the eligible time to `+inf`, which would strand the job
/// forever. A defensive `restarts = 0` waits one base period too.
pub fn requeue_backoff(base: f64, restarts: u32) -> f64 {
    base * 2f64.powi(restarts.saturating_sub(1).min(32) as i32)
}

/// What happened to a node at a [`FaultEvent`]'s instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultEventKind {
    /// The node dies; every resident job is interrupted.
    Crash,
    /// The node rejoins the cluster, empty.
    Repair,
    /// The node's PMEM drops into a degraded bandwidth class.
    DegradeStart,
    /// The degradation window ends.
    DegradeEnd,
}

impl FaultEventKind {
    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            FaultEventKind::Crash => "crash",
            FaultEventKind::Repair => "repair",
            FaultEventKind::DegradeStart => "degrade-start",
            FaultEventKind::DegradeEnd => "degrade-end",
        }
    }
}

/// One scheduled fault.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultEvent {
    /// When it happens (campaign seconds).
    pub time: f64,
    /// Which node it happens to.
    pub node: usize,
    /// What happens.
    pub kind: FaultEventKind,
}

/// An alternating on/off renewal process: `Exp(mean_up)` until the next
/// "on" event, then `Exp(mean_down)` until the matching "off" event.
struct Alternator {
    rng: SplitMix64,
    node: usize,
    mean_up: f64,
    mean_down: f64,
    on_kind: FaultEventKind,
    off_kind: FaultEventKind,
    /// The next event, pre-drawn so peeking is cheap; `None` = disabled.
    next: Option<FaultEvent>,
}

/// Exponential draw with the workspace RNG: inverse CDF of `Exp(1/mean)`.
fn exp_draw(rng: &mut SplitMix64, mean: f64) -> f64 {
    // next_f64 ∈ [0, 1); 1-u ∈ (0, 1] keeps ln() finite.
    -mean * (1.0 - rng.next_f64()).ln()
}

/// Derive an independent per-(seed, node, class) stream seed.
fn stream_seed(seed: u64, node: usize, class: u64) -> u64 {
    // One SplitMix64 step over a mixed key: cheap, stable, and distinct
    // streams never share state whatever the node count is.
    SplitMix64::new(
        seed ^ (node as u64 + 1).wrapping_mul(0x9e3779b97f4a7c15)
            ^ (class + 1).wrapping_mul(0xd1b54a32d192ed03),
    )
    .next_u64()
}

impl Alternator {
    fn new(
        seed: u64,
        node: usize,
        class: u64,
        mean_up: f64,
        mean_down: f64,
        on_kind: FaultEventKind,
        off_kind: FaultEventKind,
    ) -> Alternator {
        let mut a = Alternator {
            rng: SplitMix64::new(stream_seed(seed, node, class)),
            node,
            mean_up,
            mean_down,
            on_kind,
            off_kind,
            next: None,
        };
        if mean_up > 0.0 && mean_down > 0.0 {
            let t = exp_draw(&mut a.rng, mean_up);
            a.next = Some(FaultEvent {
                time: t,
                node,
                kind: on_kind,
            });
        }
        a
    }

    fn peek(&self) -> Option<&FaultEvent> {
        self.next.as_ref()
    }

    fn pop(&mut self) -> Option<FaultEvent> {
        let event = self.next?;
        let (mean, kind) = if event.kind == self.on_kind {
            (self.mean_down, self.off_kind)
        } else {
            (self.mean_up, self.on_kind)
        };
        let dt = exp_draw(&mut self.rng, mean);
        self.next = Some(FaultEvent {
            time: event.time + dt,
            node: self.node,
            kind,
        });
        Some(event)
    }
}

/// A fully deterministic, lazily expanded fault schedule over `nodes`
/// nodes, plus the stateless job-failure oracle.
///
/// Events are consumed in global `(time, node, kind-priority)` order via
/// [`FaultPlan::peek_time`] / [`FaultPlan::pop`]; the streams are
/// infinite, so the consumer decides when to stop pulling (a campaign
/// stops once no work remains).
pub struct FaultPlan {
    spec: FaultSpec,
    streams: Vec<Alternator>,
    /// Every enabled stream's head as `(time, node, stream)`, so the next
    /// event costs a heap peek, not a scan over `2 × nodes` streams.
    heads: BinaryHeap<Reverse<(SimTime, usize, usize)>>,
}

impl FaultPlan {
    /// Expand `spec` over `nodes` nodes.
    pub fn new(spec: &FaultSpec, nodes: usize) -> FaultPlan {
        let mut streams = Vec::with_capacity(nodes * 2);
        for node in 0..nodes {
            streams.push(Alternator::new(
                spec.seed,
                node,
                0,
                spec.mtbf,
                spec.repair,
                FaultEventKind::Crash,
                FaultEventKind::Repair,
            ));
            streams.push(Alternator::new(
                spec.seed,
                node,
                1,
                spec.degrade_mtbf,
                spec.degrade_duration,
                FaultEventKind::DegradeStart,
                FaultEventKind::DegradeEnd,
            ));
        }
        let heads = streams
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.peek().map(|e| Reverse((SimTime(e.time), e.node, i))))
            .collect();
        FaultPlan {
            spec: spec.clone(),
            streams,
            heads,
        }
    }

    /// The spec this plan was expanded from.
    pub fn spec(&self) -> &FaultSpec {
        &self.spec
    }

    /// Time of the next scheduled event, if any fault class is active.
    pub fn peek_time(&self) -> Option<f64> {
        self.heads.peek().map(|Reverse((t, _, _))| t.0)
    }

    /// Consume and return the next scheduled event: the head of the
    /// stream first in total `(time, node, stream)` order.
    pub fn pop(&mut self) -> Option<FaultEvent> {
        let Reverse((_, _, i)) = self.heads.pop()?;
        let stream = &mut self.streams[i];
        let event = stream.pop();
        if let Some(e) = stream.peek() {
            self.heads.push(Reverse((SimTime(e.time), e.node, i)));
        }
        event
    }

    /// Stateless per-attempt job failure draw: does attempt `attempt`
    /// (0-based) of job `job` die of its own cause, and if so at which
    /// fraction of the attempt's remaining work? Pure in
    /// `(seed, job, attempt)` — scheduling order cannot perturb it.
    pub fn job_failure(&self, job: u64, attempt: u64) -> Option<f64> {
        if self.spec.job_fail_prob <= 0.0 {
            return None;
        }
        let mut rng = SplitMix64::new(
            self.spec.seed
                ^ (job + 1).wrapping_mul(0x8cb92ba72f3d8dd7)
                ^ (attempt + 1).wrapping_mul(0xaef17502108ef2d9),
        );
        if rng.next_f64() < self.spec.job_fail_prob {
            // Die somewhere in the middle 90% of the attempt — never at
            // 0 (a no-op) or 1 (indistinguishable from completion).
            Some(0.05 + 0.9 * rng.next_f64())
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn requeue_backoff_doubles_from_one_base_period() {
        assert_eq!(requeue_backoff(5.0, 1), 5.0);
        assert_eq!(requeue_backoff(5.0, 2), 10.0);
        assert_eq!(requeue_backoff(5.0, 3), 20.0);
        assert_eq!(requeue_backoff(1.5, 4), 12.0);
        // Defensive: restart 0 (never produced by the campaign) waits one
        // base period rather than half of one.
        assert_eq!(requeue_backoff(5.0, 0), 5.0);
    }

    #[test]
    fn requeue_backoff_never_overflows_to_inf() {
        for restarts in [33, 100, 10_000, u32::MAX] {
            // Unclamped, 2^(u32::MAX - 1) alone is +inf whatever the
            // base, stranding the job forever.
            let b = requeue_backoff(5.0, restarts);
            assert!(b.is_finite(), "restart {restarts} overflowed to {b}");
            assert_eq!(b, 5.0 * 2f64.powi(32), "clamped at 2^32");
        }
        // Monotone non-decreasing in the restart count.
        let mut prev = 0.0;
        for restarts in 0..64 {
            let b = requeue_backoff(1.0, restarts);
            assert!(b >= prev, "backoff shrank at restart {restarts}");
            prev = b;
        }
    }

    fn dense_spec() -> FaultSpec {
        FaultSpec {
            seed: 7,
            mtbf: 50.0,
            repair: 10.0,
            degrade_mtbf: 80.0,
            degrade_duration: 20.0,
            degrade_factor: 2.0,
            job_fail_prob: 0.2,
        }
    }

    fn first_events(plan: &mut FaultPlan, n: usize) -> Vec<FaultEvent> {
        (0..n).filter_map(|_| plan.pop()).collect()
    }

    #[test]
    fn default_spec_is_silent() {
        let spec = FaultSpec::default();
        spec.validate().unwrap();
        let mut plan = FaultPlan::new(&spec, 8);
        assert_eq!(plan.peek_time(), None);
        assert_eq!(plan.pop(), None);
        assert_eq!(plan.job_failure(3, 0), None);
    }

    #[test]
    fn same_seed_replays_byte_identically() {
        let spec = dense_spec();
        let a = first_events(&mut FaultPlan::new(&spec, 4), 64);
        let b = first_events(&mut FaultPlan::new(&spec, 4), 64);
        assert_eq!(a, b);
        let mut other = spec.clone();
        other.seed = 8;
        let c = first_events(&mut FaultPlan::new(&other, 4), 64);
        assert_ne!(a, c, "a different seed must be a different schedule");
    }

    #[test]
    fn events_are_time_ordered_and_alternate_per_node() {
        let mut plan = FaultPlan::new(&dense_spec(), 3);
        let events = first_events(&mut plan, 200);
        let mut last = 0.0f64;
        let mut down = [false; 3];
        let mut degraded = [false; 3];
        for e in &events {
            assert!(e.time >= last, "events out of order: {e:?}");
            last = e.time;
            assert!(e.time.is_finite() && e.time > 0.0);
            match e.kind {
                FaultEventKind::Crash => {
                    assert!(!down[e.node], "node {} crashed while down", e.node);
                    down[e.node] = true;
                }
                FaultEventKind::Repair => {
                    assert!(down[e.node], "node {} repaired while up", e.node);
                    down[e.node] = false;
                }
                FaultEventKind::DegradeStart => {
                    assert!(!degraded[e.node]);
                    degraded[e.node] = true;
                }
                FaultEventKind::DegradeEnd => {
                    assert!(degraded[e.node]);
                    degraded[e.node] = false;
                }
            }
        }
        assert!(
            events.iter().any(|e| e.kind == FaultEventKind::Crash),
            "a 50s-MTBF stream must crash within 200 events"
        );
    }

    #[test]
    fn node_streams_are_independent_of_cluster_size() {
        // Node 0's schedule must not change when more nodes exist.
        let spec = dense_spec();
        let solo: Vec<FaultEvent> = first_events(&mut FaultPlan::new(&spec, 1), 40);
        let wide: Vec<FaultEvent> = first_events(&mut FaultPlan::new(&spec, 4), 400)
            .into_iter()
            .filter(|e| e.node == 0)
            .take(40)
            .collect();
        assert_eq!(solo, wide);
    }

    /// The stream a scan over every head picks, by total
    /// `(time, node, stream)` order: the reference the heap must match.
    fn scan_next(plan: &FaultPlan) -> Option<usize> {
        plan.streams
            .iter()
            .enumerate()
            .filter_map(|(i, s)| s.peek().map(|e| (e.time, e.node, i)))
            .min_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)).then(a.2.cmp(&b.2)))
            .map(|(_, _, i)| i)
    }

    /// The head heap pops exactly the events a full scan would, in the
    /// same order, over seeded specs with crashes, degrade windows or
    /// both, on clusters of 1 to 64 nodes.
    #[test]
    fn head_heap_matches_reference_scan() {
        let mut rng = SplitMix64::new(0xFA_017);
        for case in 0..60u64 {
            let class = case % 3;
            let spec = FaultSpec {
                seed: rng.next_u64(),
                mtbf: if class != 1 {
                    rng.range_f64(5.0, 200.0)
                } else {
                    0.0
                },
                repair: rng.range_f64(1.0, 40.0),
                degrade_mtbf: if class != 0 {
                    rng.range_f64(5.0, 200.0)
                } else {
                    0.0
                },
                degrade_duration: rng.range_f64(1.0, 40.0),
                ..FaultSpec::default()
            };
            let nodes = 1 + rng.range_usize(0, 64);
            let mut plan = FaultPlan::new(&spec, nodes);
            for step in 0..400 {
                let want = scan_next(&plan).expect("streams are infinite");
                let e = plan.streams[want].peek().copied().expect("head exists");
                assert_eq!(
                    plan.peek_time().map(f64::to_bits),
                    Some(e.time.to_bits()),
                    "case {case} step {step}"
                );
                assert_eq!(plan.pop(), Some(e), "case {case} step {step}");
            }
        }
    }

    #[test]
    fn job_failure_is_stateless_and_roughly_calibrated() {
        let plan = FaultPlan::new(&dense_spec(), 2);
        // Pure in (job, attempt): repeated queries agree.
        for job in 0..50 {
            for attempt in 0..4 {
                assert_eq!(
                    plan.job_failure(job, attempt),
                    plan.job_failure(job, attempt)
                );
                if let Some(frac) = plan.job_failure(job, attempt) {
                    assert!((0.05..=0.95).contains(&frac), "{frac}");
                }
            }
        }
        // Empirical rate within a loose band of the configured 20%.
        let hits = (0..2000)
            .filter(|&j| plan.job_failure(j, 0).is_some())
            .count();
        assert!((250..=550).contains(&hits), "rate off: {hits}/2000");
    }

    #[test]
    fn validation_rejects_nonsense() {
        let mut s = dense_spec();
        s.degrade_factor = 0.5;
        assert!(s.validate().is_err());
        let mut s = dense_spec();
        s.job_fail_prob = 1.5;
        assert!(s.validate().is_err());
        let mut s = dense_spec();
        s.mtbf = f64::NAN;
        assert!(s.validate().is_err());
        let mut s = dense_spec();
        s.repair = 0.0;
        assert!(s.validate().is_err(), "crashes without repair never heal");

        let c = CheckpointSpec {
            interval: -1.0,
            ..CheckpointSpec::default()
        };
        assert!(c.validate().is_err());
        CheckpointSpec::default().validate().unwrap();
    }
}
