//! `campaign_dag`: one seeded FCFS campaign over a deep backlog of plain
//! jobs and workflow DAGs on 64 nodes, served again and again against an
//! oracle whose memo tables the set-up warmed; the campaign loop dominates.
//! Unit of work and request: one campaign (`run_campaign_with_oracle`).
//!
//! Every campaign passes its policy through [`PacedPolicy`], which lets
//! [`Pace`] probe host speed between scheduling rounds, so a campaign is
//! rescaled to the reference speed stretch by stretch. The traced units
//! also pass it through [`TimedPolicy`], which times `Policy::schedule`
//! from outside; re-pricing comes from the counters `CampaignOutcome`
//! already carries.

use crate::pace::{units_note, Pace, Timed};
use crate::report::{digest, median, overhead_pct, quantile, repeat, EndToEnd, Layers, Report};
use crate::Args;
use pmemflow_cluster::{
    run_campaign_with_oracle, ArrivalSpec, CampaignConfig, CampaignOutcome, ClusterError, Fcfs,
    NodeView, Oracle, Placement, Policy, QueuedJob,
};
use pmemflow_core::ExecError;
use std::collections::BTreeSet;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, MutexGuard};
use std::time::{Duration, Instant};

/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 2;
/// How strongly the campaign's and `Oracle::build`'s times follow the
/// host-speed probe (see `pace`).
const SENSITIVITY: f64 = 0.8;
/// Longest stretch of a campaign between two host-speed probes.
const PROBE_EVERY: Duration = Duration::from_millis(50);
/// Nodes and the closed-loop stream: 4,000 clients with no think time
/// keep about 3,200 jobs queued for the whole campaign.
const NODES: usize = 64;
const ARRIVALS: &str = "closed:clients=4000,think=0,n=8000,mix=all+dag";

fn config(seed: u64) -> CampaignConfig {
    CampaignConfig {
        nodes: NODES,
        arrivals: ArrivalSpec::parse(ARRIVALS).expect("the benchmark's arrival spec parses"),
        seed,
        ..CampaignConfig::default()
    }
}

/// A `Policy` decorator that times each `schedule` call and counts the
/// queue lengths it was shown.
struct TimedPolicy<'a> {
    inner: &'a dyn Policy,
    calls: AtomicU64,
    nanos: AtomicU64,
    queued: AtomicU64,
}

impl<'a> TimedPolicy<'a> {
    fn new(inner: &'a dyn Policy) -> TimedPolicy<'a> {
        TimedPolicy {
            inner,
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
            queued: AtomicU64::new(0),
        }
    }
}

impl Policy for TimedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(
        &self,
        now: f64,
        queue: &[&QueuedJob],
        nodes: &[NodeView],
        oracle: &Oracle,
    ) -> Result<Vec<Placement>, ExecError> {
        let t0 = Instant::now();
        let out = self.inner.schedule(now, queue, nodes, oracle);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        self.queued.fetch_add(queue.len() as u64, Relaxed);
        out
    }
}

/// A `Policy` decorator that gives [`Pace`] a chance to probe host speed
/// before each scheduling round. The probe runs outside the inner policy,
/// so a [`TimedPolicy`] inside never counts it.
struct PacedPolicy<'a> {
    inner: &'a dyn Policy,
    pace: &'a Mutex<Pace>,
}

impl Policy for PacedPolicy<'_> {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn schedule(
        &self,
        now: f64,
        queue: &[&QueuedJob],
        nodes: &[NodeView],
        oracle: &Oracle,
    ) -> Result<Vec<Placement>, ExecError> {
        lock(self.pace).tick();
        self.inner.schedule(now, queue, nodes, oracle)
    }
}

fn lock(pace: &Mutex<Pace>) -> MutexGuard<'_, Pace> {
    pace.lock()
        .expect("no thread panics while holding the pace")
}

/// Serve one campaign under `policy`, paced; its outcome and time.
fn campaign(
    config: &CampaignConfig,
    policy: &dyn Policy,
    oracle: &Oracle,
    pace: &Mutex<Pace>,
) -> (Result<CampaignOutcome, ClusterError>, Timed) {
    let paced = PacedPolicy {
        inner: policy,
        pace,
    };
    lock(pace).begin();
    let out = run_campaign_with_oracle(config, &paced, oracle);
    (out, lock(pace).end())
}

/// Check one campaign's outcome: every submission ended in exactly one
/// record, and the JSONL is the one the warm-up produced.
fn check(report: &mut Report, out: &CampaignOutcome, submissions: u64, want: u64) {
    let ids: BTreeSet<u64> = out.jobs.iter().map(|j| j.id).collect();
    let contiguous = ids.len() == out.jobs.len()
        && ids
            .iter()
            .next_back()
            .is_none_or(|&last| last + 1 == ids.len() as u64);
    let dags: BTreeSet<&str> = out
        .jobs
        .iter()
        .filter(|j| !j.dag.is_empty())
        .map(|j| j.dag.as_str())
        .collect();
    let plain = out.jobs.iter().filter(|j| j.dag.is_empty()).count();
    let ended = (plain + dags.len()) as u64;
    report.check(contiguous && ended == submissions, || {
        format!(
            "{} records for {ended} of {submissions} submissions (ids contiguous: {contiguous})",
            out.jobs.len()
        )
    });
    let d = digest(out.to_jsonl().as_bytes());
    report.check(d == want, || {
        format!("campaign JSONL digest {d:016x} differs from the warm-up's {want:016x}")
    });
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let config = config(args.seed);
    let policy: Box<dyn Policy> = Box::new(Fcfs);
    let submissions = config.arrivals.count();

    // Set-up: characterize the alphabet, then serve the campaign once so
    // every co-run set it prices is in the memo before timing starts.
    let pace = Mutex::new(Pace::new(PROBE_EVERY, 1, SENSITIVITY));
    // `Oracle::build` simulates on a worker thread, which may run on
    // either vCPU: its probes run on both. Its simulations are the suite's.
    let mut build_pace = Pace::new(Duration::MAX, 2, SENSITIVITY);
    let (mut setup_s, mut build_s, mut warm_s, mut sets) = (vec![], vec![], vec![], vec![]);
    let mut warmed = None;
    for _ in 0..SETUPS {
        build_pace.begin();
        let oracle = Oracle::build(&config.arrivals.alphabet(), &config.exec, 1)
            .expect("oracle characterizes the alphabet");
        let build = build_pace.end();
        let (warm, warm_time) = campaign(&config, policy.as_ref(), &oracle, &pace);
        let warm = warm.expect("warm-up campaign runs");
        setup_s.push(build.scaled + warm_time.scaled);
        build_s.push(build.scaled);
        warm_s.push(warm_time.scaled);
        sets.push(oracle.corun_cache_len() as f64);
        warmed = Some((oracle, digest(warm.to_jsonl().as_bytes())));
    }
    let (oracle, want) = warmed.expect("at least one set-up");

    let sets_before = oracle.corun_cache_len();
    let (mut plain_walls, mut traced) = (Vec::new(), Vec::new());
    repeat(args.budget, if args.trace { 2 } else { 3 }, |i| {
        let timed = TimedPolicy::new(policy.as_ref());
        let is_traced = args.trace && i % 2 == 1;
        let serving: &dyn Policy = if is_traced { &timed } else { policy.as_ref() };
        let (out, time) = campaign(&config, serving, &oracle, &pace);
        let out = match out {
            Ok(out) => out,
            Err(e) => {
                report.ops(submissions, submissions);
                report.note(format!("campaign failed: {e}"));
                return;
            }
        };
        report.ops(submissions, out.failed() as u64);
        check(&mut report, &out, submissions, want);
        if !is_traced {
            plain_walls.push(time);
            return;
        }
        // Spans inside the campaign are rescaled by the campaign's factor.
        let f = time.factor();
        let calls = timed.calls.load(Relaxed) as f64;
        let policy_s = timed.nanos.load(Relaxed) as f64 / 1e9 * f;
        let reprice_s = out.reprice_secs * f;
        let queued = timed.queued.load(Relaxed) as f64;
        let layers = Layers {
            policy_s,
            policy_calls: calls,
            policy_queue_mean: queued / calls.max(1.0),
            policy_ns_per_queued_job: policy_s * 1e9 / queued.max(1.0),
            reprice_s,
            reprice_calls: out.reprice_calls as f64,
            loop_s: time.scaled - policy_s - reprice_s,
            jobs: out.jobs.len() as f64,
            dag_stage_jobs: out.jobs.iter().filter(|j| !j.dag.is_empty()).count() as f64,
            ..Layers::default()
        };
        traced.push((time.scaled, layers));
    });
    let sets_new = oracle.corun_cache_len() - sets_before;
    report.check(sets_new == 0, || {
        format!("{sets_new} co-run sets were priced during the timed phase")
    });
    report.note(format!(
        "{submissions} submissions, {} untraced + {} traced campaigns, \
         {} co-run sets warmed, JSONL digest {want:016x}",
        plain_walls.len(),
        traced.len(),
        sets_before
    ));

    report.note(units_note("untraced", &plain_walls));
    report.note(lock(&pace).summary());
    let walls: Vec<f64> = plain_walls.iter().map(|t| t.scaled).collect();
    if args.trace {
        let traced_walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
        let overhead = overhead_pct(&walls, &traced_walls);
        // The traced campaign with the median wall time supplies the split.
        traced.sort_by(|a, b| a.0.total_cmp(&b.0));
        let layers = traced.swap_remove((traced.len() - 1) / 2).1;
        report.layers(Layers {
            oracle_build_s: median(&build_s),
            corun_warm_s: median(&warm_s),
            corun_sets: median(&sets),
            corun_sets_new: sets_new as f64,
            overhead_pct: overhead,
            ..layers
        });
    } else {
        let wall_s = median(&walls);
        report.end_to_end(EndToEnd {
            setup_s: median(&setup_s),
            wall_s,
            req_per_s: submissions as f64 / wall_s,
            latency_p50_ms: wall_s * 1e3,
            latency_p99_ms: quantile(&walls, 0.99) * 1e3,
        });
    }
    report
}
