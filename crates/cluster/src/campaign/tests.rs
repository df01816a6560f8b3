//! Campaign tests: end to end through the public entry points, and
//! interruption settling on a hand-built [`Campaign`].

use super::dag::{stage_io_seconds, StageState};
use super::node::Running;
use super::*;
use crate::arrivals::{arrival_for_draw, generate_open, Draw, TraceRow};
use crate::fault::{requeue_backoff, FaultEventKind};
use crate::policy::{all_policies, Fcfs, Placement};
use crate::stage_graph::{DagClass, DagSpec, GIB};
use pmemflow_des::rng::SplitMix64;
use pmemflow_workloads::Family;
use std::collections::{BTreeMap, BTreeSet};

/// Build the oracle with up to `jobs` parallel simulations (never
/// affecting results), then run the campaign.
fn run_campaign(
    config: &CampaignConfig,
    policy: &dyn Policy,
    jobs: usize,
) -> Result<CampaignOutcome, ClusterError> {
    validate(config)?;
    let oracle = Oracle::build(&config.arrivals.alphabet(), &config.exec, jobs)?;
    run_campaign_with_oracle(config, policy, &oracle)
}

fn micro_config(n_arrivals: u64, nodes: usize) -> CampaignConfig {
    CampaignConfig {
        nodes,
        arrivals: ArrivalSpec::parse(&format!("poisson:rate=0.005,n={n_arrivals},mix=micro-64mb"))
            .unwrap(),
        seed: 42,
        ..CampaignConfig::default()
    }
}

#[test]
fn fcfs_campaign_serves_every_arrival() {
    let cfg = micro_config(6, 2);
    let out = run_campaign(&cfg, &Fcfs, 2).unwrap();
    assert_eq!(out.jobs.len(), 6);
    assert_eq!(out.completed(), 6);
    assert_eq!(out.failed(), 0);
    for (i, j) in out.jobs.iter().enumerate() {
        assert_eq!(j.id, i as u64);
        assert!(j.start >= j.arrival - 1e-9, "job {i} started early");
        assert!(j.finish > j.start, "job {i} has no service time");
        assert!(j.node < 2);
        assert!(j.stretch() >= 0.999, "job {i} ran faster than solo");
        assert_eq!(j.restarts, 0);
        assert_eq!(j.lost_work, 0.0);
        assert_eq!(j.ckpt_overhead, 0.0, "no checkpointing configured");
    }
    assert!(out.makespan >= out.jobs.iter().map(|j| j.finish).fold(0.0, f64::max) - 1e-9);
    let util = out.utilization();
    assert_eq!(util.len(), 2);
    assert!(util.iter().all(|&u| (0.0..=1.0 + 1e-9).contains(&u)));
}

#[test]
fn zero_nodes_is_a_config_error() {
    let cfg = micro_config(3, 0);
    assert!(matches!(
        run_campaign(&cfg, &Fcfs, 1),
        Err(ClusterError::Config(_))
    ));
}

#[test]
fn oversized_workload_is_rejected_up_front() {
    let row = |ranks| TraceRow {
        time: 0.0,
        family: Family::Micro64MB,
        ranks,
    };
    let mut cfg = micro_config(3, 2);
    cfg.arrivals = ArrivalSpec::Trace(vec![row(8), row(32)]);
    match run_campaign(&cfg, &Fcfs, 1) {
        Err(ClusterError::Config(msg)) => {
            assert_eq!(msg, "micro-64MB@32 can never fit a 28-core socket")
        }
        _ => panic!("a 32-rank trace row must be a config error"),
    }
}

#[test]
fn bad_fault_spec_is_a_config_error() {
    let mut cfg = micro_config(3, 2);
    cfg.faults.job_fail_prob = 2.0;
    assert!(matches!(
        run_campaign(&cfg, &Fcfs, 1),
        Err(ClusterError::Config(_))
    ));
    let mut cfg = micro_config(3, 2);
    cfg.checkpoint.interval = -5.0;
    assert!(matches!(
        run_campaign(&cfg, &Fcfs, 1),
        Err(ClusterError::Config(_))
    ));
}

#[test]
fn closed_loop_respects_population_and_budget() {
    let cfg = CampaignConfig {
        nodes: 2,
        arrivals: ArrivalSpec::parse("closed:clients=2,think=5,n=8,mix=micro-64mb").unwrap(),
        seed: 1,
        ..CampaignConfig::default()
    };
    let out = run_campaign(&cfg, &Fcfs, 2).unwrap();
    assert_eq!(out.jobs.len(), 8);
    // At most `clients` jobs are ever in flight: sort by start, check
    // every start has fewer than 2 unfinished predecessors.
    for j in &out.jobs {
        let in_flight = out
            .jobs
            .iter()
            .filter(|o| o.id != j.id && o.start <= j.start && o.finish > j.start)
            .count();
        assert!(
            in_flight < 2,
            "job {} overlapped {} others",
            j.id,
            in_flight
        );
    }
}

#[test]
fn jsonl_is_parseable_shape() {
    let out = run_campaign(&micro_config(4, 2), &Fcfs, 2).unwrap();
    let text = out.to_jsonl();
    let lines: Vec<&str> = text.lines().collect();
    assert_eq!(lines.len(), 5); // 4 jobs + summary
    for l in &lines {
        assert!(l.starts_with('{') && l.ends_with('}'));
        assert_eq!(l.matches('{').count(), l.matches('}').count());
    }
    assert!(lines[..4].iter().all(|l| l.contains("\"kind\":\"job\"")));
    assert!(lines[..4]
        .iter()
        .all(|l| l.contains("\"outcome\":\"completed\"")));
    assert!(lines[4].contains("\"kind\":\"campaign\""));
    assert!(lines[4].contains("\"mean_bounded_slowdown\":"));
    assert!(lines[4].contains("\"total_lost_work_s\":"));
}

#[test]
fn all_policies_serve_the_same_stream() {
    let cfg = micro_config(5, 2);
    let oracle = Oracle::build(&cfg.arrivals.alphabet(), &cfg.exec, 2).unwrap();
    for policy in all_policies() {
        let out = run_campaign_with_oracle(&cfg, policy.as_ref(), &oracle).unwrap();
        assert_eq!(out.jobs.len(), 5, "{}", policy.name());
        assert_eq!(out.policy, policy.name());
    }
}

/// A fault campaign sized against the workload's own solo runtime so
/// crashes reliably hit running jobs.
fn faulty_config(solo: f64, nodes: usize) -> CampaignConfig {
    let mut cfg = micro_config(6, nodes);
    cfg.faults = FaultSpec {
        seed: 11,
        mtbf: solo,
        repair: solo / 10.0,
        ..FaultSpec::default()
    };
    cfg.checkpoint = CheckpointSpec {
        interval: solo / 5.0,
        retry_budget: 8,
        backoff_base: 1.0,
    };
    cfg
}

/// Solo runtime of the test workload, from a fault-free run.
fn micro_solo() -> f64 {
    let out = run_campaign(&micro_config(1, 1), &Fcfs, 1).unwrap();
    out.jobs[0].solo
}

#[test]
fn crashes_requeue_and_resume_from_checkpoints() {
    let solo = micro_solo();
    let cfg = faulty_config(solo, 2);
    let out = run_campaign(&cfg, &Fcfs, 2).unwrap();
    // Conservation: every submission ends in exactly one record.
    assert_eq!(out.jobs.len(), 6, "lost or duplicated jobs");
    assert_eq!(out.completed() + out.failed(), 6);
    assert!(
        out.total_restarts() > 0,
        "an MTBF equal to the solo runtime must interrupt someone"
    );
    for j in &out.jobs {
        assert!(j.lost_work >= -1e-9);
        assert!(
            j.lost_work <= cfg.checkpoint.interval * (j.restarts as f64 + 1.0) + 1e-6,
            "job {} lost {} solo-seconds with {} restarts — checkpoints not honored",
            j.id,
            j.lost_work,
            j.restarts
        );
        if j.completed {
            assert!(j.finish > j.start - 1e-9);
        } else {
            assert!(j.restarts > cfg.checkpoint.retry_budget);
        }
    }
    // Checkpoint writes cost wall time for everyone who ran.
    assert!(out.total_ckpt_overhead() > 0.0);
}

#[test]
fn fault_campaigns_are_deterministic_and_seed_sensitive() {
    let solo = micro_solo();
    let cfg = faulty_config(solo, 2);
    let a = run_campaign(&cfg, &Fcfs, 1).unwrap().to_jsonl();
    let b = run_campaign(&cfg, &Fcfs, 2).unwrap().to_jsonl();
    assert_eq!(a, b, "fault campaign differs across --jobs");
    let mut other = cfg.clone();
    other.faults.seed = 12;
    let c = run_campaign(&other, &Fcfs, 1).unwrap().to_jsonl();
    assert_ne!(a, c, "fault seed has no effect");
}

#[test]
fn checkpoint_tax_slows_completion_down() {
    let base = micro_config(2, 1);
    let fast = run_campaign(&base, &Fcfs, 1).unwrap();
    let mut taxed_cfg = base.clone();
    taxed_cfg.checkpoint.interval = fast.jobs[0].solo / 10.0;
    let taxed = run_campaign(&taxed_cfg, &Fcfs, 1).unwrap();
    assert!(
        taxed.mean_response() > fast.mean_response(),
        "checkpoint writes must cost wall time: {} vs {}",
        taxed.mean_response(),
        fast.mean_response()
    );
    assert!(taxed.jobs.iter().all(|j| j.ckpt_overhead > 0.0));
    assert!(fast.jobs.iter().all(|j| j.ckpt_overhead == 0.0));
}

#[test]
fn exhausted_retry_budget_reports_failed_not_hung() {
    let solo = micro_solo();
    let mut cfg = faulty_config(solo, 1);
    // Crash far faster than any checkpoint accumulates and allow a
    // single retry: most submissions must die, none may hang.
    cfg.faults.mtbf = solo / 5.0;
    cfg.faults.repair = solo / 50.0;
    cfg.checkpoint.interval = 0.0; // restarts from scratch
    cfg.checkpoint.retry_budget = 1;
    let out = run_campaign(&cfg, &Fcfs, 1).unwrap();
    assert_eq!(out.jobs.len(), 6, "every submission must be accounted");
    assert!(
        out.failed() > 0,
        "mtbf at a fifth of the solo time with one retry must kill someone"
    );
    for j in out.jobs.iter().filter(|j| !j.completed) {
        assert_eq!(j.restarts, 2, "budget 1 means the 2nd interrupt is fatal");
        assert!(j.lost_work > 0.0, "a scratch restart loses all progress");
    }
}

/// The oracle warm-up parallelism must never leak into results: the
/// fault-campaign JSONL is byte-identical across `--jobs 1/4/8`.
#[test]
fn fault_campaign_jsonl_is_jobs_invariant() {
    let solo = micro_solo();
    let mut cfg = faulty_config(solo, 2);
    cfg.faults.job_fail_prob = 0.3;
    let reference = run_campaign(&cfg, &Fcfs, 1).unwrap().to_jsonl();
    for jobs in [4, 8] {
        let got = run_campaign(&cfg, &Fcfs, jobs).unwrap().to_jsonl();
        assert_eq!(reference, got, "--jobs {jobs} changed the campaign JSONL");
    }
}

#[test]
fn job_level_failures_alone_trigger_restarts() {
    let mut cfg = micro_config(4, 2);
    cfg.faults = FaultSpec {
        seed: 3,
        job_fail_prob: 0.5,
        ..FaultSpec::default()
    };
    cfg.checkpoint.interval = micro_solo() / 4.0;
    let out = run_campaign(&cfg, &Fcfs, 1).unwrap();
    assert_eq!(out.jobs.len(), 4);
    assert!(
        out.total_restarts() > 0,
        "a 50% per-attempt failure rate over 4 jobs should restart someone"
    );
    assert_eq!(out.completed() + out.failed(), 4);
}

/// A mixed plain + DAG arrival stream over two nodes.
fn dag_config(n: u64, nodes: usize) -> CampaignConfig {
    CampaignConfig {
        nodes,
        arrivals: ArrivalSpec::parse(&format!("poisson:rate=0.0008,n={n},mix=micro-64mb+dag"))
            .unwrap(),
        seed: 9,
        ..CampaignConfig::default()
    }
}

/// Regenerate the arrival stream and index DAG specs by label, then
/// look up each (dag, stage) job record.
fn dag_specs_and_records(
    cfg: &CampaignConfig,
    out: &CampaignOutcome,
) -> Vec<(DagSpec, Vec<JobRecord>)> {
    let arrivals = generate_open(&cfg.arrivals, cfg.seed).unwrap();
    arrivals
        .into_iter()
        .filter_map(|a| a.dag().cloned())
        .map(|spec| {
            let recs: Vec<JobRecord> = spec
                .stages
                .iter()
                .map(|st| {
                    out.jobs
                        .iter()
                        .find(|j| j.dag == spec.name && j.stage == st.name)
                        .unwrap_or_else(|| {
                            panic!("no record for stage {} of {}", st.name, spec.name)
                        })
                        .clone()
                })
                .collect();
            (spec, recs)
        })
        .collect()
}

#[test]
fn dag_campaign_respects_topology_and_is_jobs_invariant() {
    let cfg = dag_config(8, 2);
    let out = run_campaign(&cfg, &Fcfs, 1).unwrap();
    let dags = dag_specs_and_records(&cfg, &out);
    assert!(!dags.is_empty(), "seed 9 over 8 arrivals must draw a DAG");
    let mut plain = 0;
    for j in &out.jobs {
        assert!(j.completed, "fault-free run completes everything");
        if j.dag.is_empty() {
            assert_eq!(j.staging_gib, 0.0);
            plain += 1;
        }
    }
    assert_eq!(
        out.jobs.len(),
        plain + dags.iter().map(|(d, _)| d.stages.len()).sum::<usize>()
    );
    for (spec, recs) in &dags {
        // Every edge's consumer starts at or after its producer ends.
        for e in &spec.edges {
            assert!(
                recs[e.to].start >= recs[e.from].finish - 1e-6,
                "{}: stage {} started before its input {} was staged",
                spec.name,
                spec.stages[e.to].name,
                spec.stages[e.from].name
            );
        }
        // A stage pays its staged I/O on top of the workflow solo.
        for (si, r) in recs.iter().enumerate() {
            let io = stage_io_seconds(spec, si, &cfg.exec);
            assert!(r.solo >= io - 1e-9, "stage solo must include its I/O");
            let expected = (spec.stage_in_bytes(si) + spec.stage_out_bytes(si)) as f64 / GIB;
            assert!((r.staging_gib - expected).abs() < 1e-9);
        }
    }
    // Byte-identical JSONL for any worker count.
    let reference = out.to_jsonl();
    for jobs in [4, 8] {
        let got = run_campaign(&cfg, &Fcfs, jobs).unwrap().to_jsonl();
        assert_eq!(reference, got, "--jobs {jobs} changed the campaign JSONL");
    }
}

#[test]
fn staging_reservations_never_overcommit_any_node() {
    let cfg = dag_config(10, 2);
    for policy in all_policies() {
        let out = run_campaign(&cfg, policy.as_ref(), 2).unwrap();
        let dags = dag_specs_and_records(&cfg, &out);
        // All stages of a DAG run on its home node, and the whole
        // footprint is held there from first start to last finish.
        let holds: Vec<(usize, f64, f64, f64)> = dags
            .iter()
            .map(|(spec, recs)| {
                let node = recs[0].node;
                assert!(
                    recs.iter().all(|r| r.node == node),
                    "{}: stages straddle nodes under {}",
                    spec.name,
                    policy.name()
                );
                let start = recs.iter().map(|r| r.start).fold(f64::MAX, f64::min);
                let finish = recs.iter().map(|r| r.finish).fold(0.0, f64::max);
                (node, start, finish, spec.staging_gib())
            })
            .collect();
        for &(node, start, _, _) in &holds {
            let resident: f64 = holds
                .iter()
                .filter(|&&(n, s, f, _)| n == node && s <= start && start < f)
                .map(|&(_, _, _, gib)| gib)
                .sum();
            assert!(
                resident <= out.staging_capacity + 1e-9,
                "{}: node {node} over-committed to {resident:.1} GiB",
                policy.name()
            );
        }
        for (ni, &peak) in out.peak_staging_gib.iter().enumerate() {
            assert!(
                peak <= out.staging_capacity + 1e-9,
                "{}: node {ni} peak {peak:.1} GiB over capacity",
                policy.name()
            );
        }
        if !dags.is_empty() {
            assert!(out.peak_staging_gib.iter().any(|&p| p > 0.0));
        }
    }
}

#[test]
fn dag_campaigns_conserve_submissions_under_faults() {
    let mut cfg = dag_config(8, 2);
    cfg.faults = FaultSpec {
        seed: 5,
        mtbf: 40_000.0,
        repair: 4_000.0,
        job_fail_prob: 0.2,
        ..FaultSpec::default()
    };
    cfg.checkpoint = CheckpointSpec {
        interval: 10_000.0,
        retry_budget: 2,
        backoff_base: 1.0,
    };
    let out = run_campaign(&cfg, &Fcfs, 1).unwrap();
    let arrivals = generate_open(&cfg.arrivals, cfg.seed).unwrap();
    let expected: usize = arrivals
        .iter()
        .map(|a| a.dag().map_or(1, |d| d.stages.len()))
        .sum();
    assert_eq!(out.jobs.len(), expected, "every stage ends in one record");
    assert_eq!(out.completed() + out.failed(), expected);
    // Determinism holds under faults too.
    let reference = out.to_jsonl();
    let got = run_campaign(&cfg, &Fcfs, 8).unwrap().to_jsonl();
    assert_eq!(reference, got);
}

/// With the profiling switch off (the default, and no test in this
/// binary turns it on), re-pricing reads no clock: `reprice_secs` is
/// exactly zero while the calls are still counted.
/// `tests/profiling_switch.rs` covers the switch turned on.
#[test]
fn repricing_is_untimed_while_profiling_is_off() {
    let out = run_campaign(&dag_config(8, 2), &Fcfs, 1).unwrap();
    assert!(out.reprice_calls > 0);
    assert_eq!(out.reprice_secs, 0.0);
}

/// The per-node homed index behind `NodeView::staging_holds` must give
/// the reference scan's holds, values and order, at every view
/// refresh, and drain to empty once the campaign settles. Both are
/// asserted inside the campaign loop under `debug_assertions`. This
/// campaign drives every path that homes or settles a DAG: crashes
/// requeue pinned stages, job failures exhaust the retry budget and
/// cascade, banked checkpoints revive stages, and the backfilling
/// policies home DAGs out of submission order, which inserts into the
/// middle of a node's list. The checks below prove each path ran.
#[test]
fn staging_holds_match_reference_scan_under_churn() {
    let cfg = CampaignConfig {
        nodes: 3,
        arrivals: ArrivalSpec::parse("poisson:rate=1,n=60,mix=all+dag").unwrap(),
        seed: 42,
        faults: FaultSpec {
            seed: 1234,
            mtbf: 40.0,
            repair: 10.0,
            degrade_mtbf: 60.0,
            degrade_duration: 15.0,
            job_fail_prob: 0.1,
            ..FaultSpec::default()
        },
        checkpoint: CheckpointSpec {
            interval: 3.0,
            retry_budget: 2,
            ..CheckpointSpec::default()
        },
        ..CampaignConfig::default()
    };
    let arrivals = generate_open(&cfg.arrivals, cfg.seed).unwrap();
    let expected: usize = arrivals
        .iter()
        .map(|a| a.dag().map_or(1, |d| d.stages.len()))
        .sum();
    let oracle = Oracle::build(&cfg.arrivals.alphabet(), &cfg.exec, 2).unwrap();
    let (mut restarts, mut cascaded, mut revived, mut out_of_order) = (0, 0, 0, 0);
    for policy in all_policies() {
        let out = run_campaign_with_oracle(&cfg, policy.as_ref(), &oracle).unwrap();
        assert_eq!(out.jobs.len(), expected, "{}", policy.name());
        restarts += out.total_restarts();
        let stages = out.jobs.iter().filter(|j| !j.dag.is_empty());
        // Never-started stages settled by a DAG failure.
        cascaded += stages
            .clone()
            .filter(|j| !j.completed && j.start == j.finish)
            .count();
        // A revival requeues with lost work kept and restarts reset.
        revived += stages
            .clone()
            .filter(|j| j.lost_work > 0.0 && j.restarts == 0)
            .count();
        // Per DAG (in submission order): home node, homing time (its
        // first stage start) and settle time (its last stage finish).
        let mut spans: BTreeMap<u64, (usize, f64, f64)> = BTreeMap::new();
        for j in stages {
            let id = j.dag.rsplit('#').next().unwrap().parse().unwrap();
            let span = spans.entry(id).or_insert((j.node, j.start, j.finish));
            assert_eq!(span.0, j.node, "every stage of a DAG runs at home");
            span.1 = span.1.min(j.start);
            span.2 = span.2.max(j.finish);
        }
        // A DAG homed while a later-submitted one is still held on the
        // same node lands mid-list, not at the end.
        let spans: Vec<_> = spans.into_values().collect();
        for (i, a) in spans.iter().enumerate() {
            out_of_order += spans[i + 1..]
                .iter()
                .filter(|b| b.0 == a.0 && b.1 < a.1 && a.1 < b.2)
                .count();
        }
    }
    assert!(restarts > 0, "no crash or job failure restarted a stage");
    assert!(cascaded > 0, "no DAG failure cascaded");
    assert!(revived > 0, "no banked checkpoint revived a stage");
    assert!(out_of_order > 0, "every DAG was homed in submission order");
}

/// A one-node campaign with checkpoints every 10 solo-seconds, a retry
/// budget of 2 and a 1 s backoff base, and one diamond DAG (sim ->
/// a1..ak -> ckpt -> viz, k >= 2) arriving at t = 5 over an oracle that
/// knows only the DAG's stage workloads.
fn diamond_fixture() -> (CampaignConfig, Oracle, Arrival) {
    let draw = Draw::Dag(DagClass::Diamond);
    let arrival = arrival_for_draw(draw, 0, 5.0, None, &mut SplitMix64::new(3));
    let spec = arrival.dag().expect("a DAG draw");
    let alphabet: Vec<_> = spec.stages.iter().map(|s| (s.family, s.ranks)).collect();
    let cfg = CampaignConfig {
        arrivals: ArrivalSpec::Trace(Vec::new()),
        checkpoint: CheckpointSpec {
            interval: 10.0,
            retry_budget: 2,
            backoff_base: 1.0,
        },
        ..CampaignConfig::default()
    };
    let oracle = Oracle::build(&alphabet, &cfg.exec, 1).unwrap();
    (cfg, oracle, arrival)
}

/// Admit the fixture's DAG at its arrival; only its source is queued.
fn admit(c: &mut Campaign, arrival: Arrival) {
    c.now = arrival.time;
    c.pending.push_back(arrival);
    c.admit_arrivals().unwrap();
    assert_eq!(c.queue.len(), 1);
}

/// Place queued job `id` on node 0 under the oracle's best
/// configuration, and take its attempt straight back off the node.
fn place_and_take<'a>(c: &mut Campaign<'a>, id: u64) -> Running<'a> {
    let job = &c.queue.iter().find(|q| q.job.id == id).unwrap().job;
    let config = c.oracle.best_config(job.family, job.ranks);
    let placement = Placement {
        job: id,
        node: 0,
        config,
    };
    assert!(c.place(placement).unwrap(), "job {id} fits the empty node");
    let last = c.nodes[0].running.len() - 1;
    c.take_resident(0, last)
}

/// Run the source `sim` to completion: its analytics stages are queued
/// and `ckpt` and `viz` stay held.
fn complete_source(c: &mut Campaign) {
    let r = place_and_take(c, 0);
    c.record(&r.q, 0, r.solo, true);
    c.stage_completed(0, 0, 0);
    assert_eq!(c.held, 2);
}

#[test]
fn interrupted_attempt_requeues_home_from_its_checkpoint() {
    let (cfg, oracle, arrival) = diamond_fixture();
    let arena = JobArena::new();
    let mut c = Campaign::new(&cfg, &Fcfs, &oracle, &arena);
    admit(&mut c, arrival);
    // The source is placed un-homed, carrying the whole reservation.
    let mut r = place_and_take(&mut c, 0);
    let reservation = c.dags[0].reservation;
    assert!(reservation > 0.0);
    assert_eq!((r.q.job.home, r.q.job.staging), (None, reservation));
    r.progress = 37.0;
    c.now += 50.0;
    c.settle_interrupted(r, 0);
    assert!(c.records.iter().flatten().next().is_none());
    assert_eq!(c.dags[0].stages[0].state, StageState::Ready);
    let q = c.queue.get(0).unwrap();
    assert_eq!(q.restarts, 1);
    assert_eq!(q.resume, 30.0, "resume at the checkpoint floor");
    assert_eq!(q.lost_work, 7.0);
    assert_eq!((q.job.home, q.job.staging), (Some(0), 0.0));
    assert_eq!(q.eligible, c.now + requeue_backoff(1.0, 1));
    assert_eq!(q.first_start, Some(5.0));
    // Placed again, it stays home and is not charged a second time.
    place_and_take(&mut c, 0);
    assert_eq!(c.staging.reserved[0], reservation);
}

#[test]
fn exhausted_stage_revives_from_a_banked_checkpoint() {
    let (cfg, oracle, arrival) = diamond_fixture();
    let arena = JobArena::new();
    let mut c = Campaign::new(&cfg, &Fcfs, &oracle, &arena);
    admit(&mut c, arrival);
    complete_source(&mut c);
    let mut r = place_and_take(&mut c, 1);
    r.q.restarts = cfg.checkpoint.retry_budget;
    r.q.resume = 20.0;
    r.q.lost_work = 4.0;
    r.progress = 37.0;
    c.dags[0].tokens = 1;
    c.now += 50.0;
    c.settle_interrupted(r, 0);
    assert_eq!(
        c.records.iter().flatten().count(),
        1,
        "only the source's completion is booked"
    );
    let d = &c.dags[0];
    assert_eq!(
        (d.tokens, d.failed, d.stages[1].state),
        (0, false, StageState::Ready)
    );
    let q = c.queue.iter().find(|q| q.job.id == 1).unwrap();
    assert_eq!(q.restarts, 0);
    assert_eq!(q.resume, 0.0, "a revival restarts from the staged snapshot");
    assert_eq!(q.lost_work, 11.0);
    assert_eq!(q.eligible, c.now + cfg.checkpoint.backoff_base);
    assert_eq!((q.job.home, q.job.staging), (Some(0), 0.0));
}

#[test]
fn exhausted_stage_without_revival_fails_the_dag() {
    let (cfg, oracle, arrival) = diamond_fixture();
    let arena = JobArena::new();
    let mut c = Campaign::new(&cfg, &Fcfs, &oracle, &arena);
    admit(&mut c, arrival);
    complete_source(&mut c);
    let mut r = place_and_take(&mut c, 1);
    r.q.restarts = cfg.checkpoint.retry_budget;
    r.progress = 37.0;
    c.now += 50.0;
    c.settle_interrupted(r, 0);
    // a1 failed; a2..ak were ready and ckpt, viz held: each of them is
    // settled by the cascade into exactly one failed record.
    let d = &c.dags[0];
    let stages = d.spec.stages.len() as u64;
    assert!(
        stages >= 5,
        "a diamond has at least two ready analytics stages"
    );
    assert_eq!(c.held, 0);
    assert!(c.queue.is_empty());
    assert_eq!((d.failed, d.unsettled, d.home), (true, 0, None));
    assert_eq!(c.staging.reserved[0], 0.0, "the reservation is released");
    let mut ids: Vec<u64> = c.records.iter().flatten().map(|j| j.id).collect();
    ids.sort_unstable();
    assert_eq!(ids, (0..stages).collect::<Vec<_>>());
    for j in c.records.iter().flatten().filter(|j| j.id > 0) {
        assert!(!j.completed);
        assert_eq!((j.dag.as_str(), j.finish), (d.spec.name.as_str(), c.now));
    }
    let failed = c.records.iter().flatten().find(|j| j.id == 1).unwrap();
    assert_eq!((failed.restarts, failed.lost_work), (3, 7.0));
    for j in c.records.iter().flatten().filter(|j| j.id > 1) {
        assert_eq!((j.start, j.restarts), (c.now, 0), "never started");
    }
}

/// The per-node indexes the loop keeps instead of scanning every node —
/// the event heap, the used-core counts behind the free-core index, and
/// the node views refreshed only where marked stale — are checked
/// against from-scratch scans at every instant and every policy round
/// under `debug_assertions`. This campaign spreads that churn over
/// eight nodes: crashes evacuate residents, degrade windows re-anchor
/// them, job failures and crashes requeue with backoff, exhausted
/// stages cascade through their DAGs, and every policy places. The
/// checks below prove each path ran.
#[test]
fn node_indexes_match_reference_scans_under_churn() {
    let cfg = CampaignConfig {
        nodes: 8,
        arrivals: ArrivalSpec::parse("poisson:rate=4,n=160,mix=all+dag").unwrap(),
        seed: 7,
        faults: FaultSpec {
            seed: 99,
            mtbf: 60.0,
            repair: 8.0,
            degrade_mtbf: 30.0,
            degrade_duration: 10.0,
            job_fail_prob: 0.15,
            ..FaultSpec::default()
        },
        checkpoint: CheckpointSpec {
            interval: 3.0,
            retry_budget: 1,
            backoff_base: 2.0,
        },
        ..CampaignConfig::default()
    };
    let oracle = Oracle::build(&cfg.arrivals.alphabet(), &cfg.exec, 2).unwrap();
    for policy in all_policies() {
        let out = run_campaign_with_oracle(&cfg, policy.as_ref(), &oracle).unwrap();
        let name = policy.name();
        assert!(out.total_restarts() > 0, "{name}: nothing restarted");
        assert!(out.failed() > 0, "{name}: no retry budget ran out");
        assert!(
            out.jobs
                .iter()
                .any(|j| !j.dag.is_empty() && !j.completed && j.start == j.finish),
            "{name}: no DAG failure cascaded"
        );
        // A fan-in producer that started after its sibling homed the DAG
        // waited in the queue re-pinned to the home node.
        let mut first_sim: BTreeMap<&str, f64> = BTreeMap::new();
        let mut repinned = 0;
        for j in out.jobs.iter().filter(|j| j.dag.starts_with("fanin#")) {
            if j.stage.starts_with("sim") {
                let first = first_sim.entry(&j.dag).or_insert(j.start);
                repinned += usize::from(j.start != *first);
                *first = first.min(j.start);
            }
        }
        assert!(repinned > 0, "{name}: no queued stage was re-pinned");
        assert!(
            out.jobs.iter().any(|j| j.restarts > 0 && j.completed),
            "{name}: no requeued job ran again after its backoff"
        );
        let nodes: BTreeSet<usize> = out.jobs.iter().map(|j| j.node).collect();
        assert_eq!(nodes.len(), cfg.nodes, "{name}: a node never ran a job");
        assert!(out.total_ckpt_overhead() > 0.0, "{name}: no checkpoint tax");
        // Crashes and degrade windows both fall inside the campaign.
        let mut plan = FaultPlan::new(&cfg.faults, cfg.nodes);
        let mut kinds = Vec::new();
        while let Some(e) = plan.pop().filter(|e| e.time < out.makespan) {
            kinds.push(e.kind);
        }
        for kind in [FaultEventKind::Crash, FaultEventKind::DegradeStart] {
            assert!(kinds.contains(&kind), "{name}: no {kind:?} fired");
        }
    }
}
