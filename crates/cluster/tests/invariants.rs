//! Campaign-level invariants, checked by reconstruction from job records:
//! capacity safety at every event time, FCFS ordering, and bit-identical
//! output across worker counts.

use pmemflow_cluster::{
    all_policies, run_campaign_with_oracle, ArrivalSpec, CampaignConfig, CampaignOutcome,
    CheckpointSpec, ClusterError, FaultSpec, Fcfs, Oracle, Policy,
};
use pmemflow_core::CORES_PER_SOCKET;

/// Build the oracle with up to `jobs` parallel simulations, as the CLI
/// does, then run the campaign.
fn run_campaign(
    config: &CampaignConfig,
    policy: &dyn Policy,
    jobs: usize,
) -> Result<CampaignOutcome, ClusterError> {
    let oracle = Oracle::build(&config.arrivals.alphabet(), &config.exec, jobs)?;
    run_campaign_with_oracle(config, policy, &oracle)
}

/// A bursty stream over one micro family (3 rank levels): high rate so the
/// queue actually builds and placements contend for capacity.
fn contended_config(n: u64, nodes: usize, seed: u64) -> CampaignConfig {
    CampaignConfig {
        nodes,
        arrivals: ArrivalSpec::parse(&format!("poisson:rate=2,n={n},mix=micro-64mb")).unwrap(),
        seed,
        ..CampaignConfig::default()
    }
}

#[test]
fn no_node_ever_exceeds_per_socket_capacity() {
    let cfg = contended_config(14, 2, 11);
    let cap = CORES_PER_SOCKET;
    let oracle = Oracle::build(&cfg.arrivals.alphabet(), &cfg.exec, 2).unwrap();
    for policy in all_policies() {
        let out = run_campaign_with_oracle(&cfg, policy.as_ref(), &oracle).unwrap();
        // The resident set only changes at job starts, so checking every
        // start instant covers every distinct occupancy interval.
        for probe in &out.jobs {
            for node in 0..cfg.nodes {
                let used: usize = out
                    .jobs
                    .iter()
                    .filter(|j| {
                        j.node == node && j.start <= probe.start + 1e-9 && j.finish > probe.start
                    })
                    .map(|j| j.ranks)
                    .sum();
                assert!(
                    used <= cap,
                    "{}: node {node} holds {used} > {cap} cores at t={}",
                    policy.name(),
                    probe.start
                );
            }
        }
    }
}

#[test]
fn fcfs_never_reorders_equal_priority_arrivals() {
    let out = run_campaign(&contended_config(14, 2, 5), &Fcfs, 2).unwrap();
    // Records are in submission id order == arrival order for an open
    // stream; under FCFS nobody may start before an earlier arrival.
    for pair in out.jobs.windows(2) {
        assert!(
            pair[1].start >= pair[0].start - 1e-9,
            "job {} (start {}) overtook job {} (start {})",
            pair[1].id,
            pair[1].start,
            pair[0].id,
            pair[0].start
        );
    }
}

#[test]
fn identical_seed_means_byte_identical_jsonl_across_jobs() {
    let cfg = contended_config(10, 2, 9);
    for policy in all_policies() {
        let serial = run_campaign(&cfg, policy.as_ref(), 1).unwrap();
        let parallel = run_campaign(&cfg, policy.as_ref(), 4).unwrap();
        assert_eq!(
            serial.to_jsonl(),
            parallel.to_jsonl(),
            "{} output depends on worker count",
            policy.name()
        );
    }
    // And a different seed really is a different campaign.
    let mut other = contended_config(10, 2, 9);
    other.seed = 10;
    let a = run_campaign(&cfg, &Fcfs, 2).unwrap();
    let b = run_campaign(&other, &Fcfs, 2).unwrap();
    assert_ne!(a.to_jsonl(), b.to_jsonl());
}

/// A dense failure trace over the contended stream: crashes and transient
/// degradation both well inside the campaign's lifetime, with
/// checkpointing on so restarts resume mid-flight.
fn faulty_config(n: u64, nodes: usize, seed: u64) -> CampaignConfig {
    let mut cfg = contended_config(n, nodes, seed);
    cfg.faults = FaultSpec {
        seed: 1234,
        mtbf: 400.0,
        repair: 40.0,
        degrade_mtbf: 300.0,
        degrade_duration: 60.0,
        degrade_factor: 2.0,
        job_fail_prob: 0.1,
    };
    cfg.checkpoint = CheckpointSpec {
        interval: 30.0,
        retry_budget: 5,
        backoff_base: 2.0,
    };
    cfg
}

#[test]
fn same_fault_seed_is_byte_identical_jsonl_across_jobs_counts() {
    let cfg = faulty_config(10, 2, 9);
    for policy in all_policies() {
        let reference = run_campaign(&cfg, policy.as_ref(), 1).unwrap().to_jsonl();
        for jobs in [4, 8] {
            let other = run_campaign(&cfg, policy.as_ref(), jobs)
                .unwrap()
                .to_jsonl();
            assert_eq!(
                reference,
                other,
                "{} fault campaign differs between --jobs 1 and --jobs {jobs}",
                policy.name()
            );
        }
    }
    // A different fault seed against the same arrivals is a different
    // campaign — the trace is live, not ignored.
    let mut other = faulty_config(10, 2, 9);
    other.faults.seed = 4321;
    assert_ne!(
        run_campaign(&cfg, &Fcfs, 2).unwrap().to_jsonl(),
        run_campaign(&other, &Fcfs, 2).unwrap().to_jsonl(),
    );
}

#[test]
fn every_submission_is_accounted_under_faults() {
    let cfg = faulty_config(12, 2, 7);
    for policy in all_policies() {
        let out = run_campaign(&cfg, policy.as_ref(), 2).unwrap();
        assert_eq!(
            out.jobs.len(),
            12,
            "{}: submissions lost or duplicated under faults",
            policy.name()
        );
        assert_eq!(out.completed() + out.failed(), 12, "{}", policy.name());
        for j in &out.jobs {
            if !j.completed {
                assert!(
                    j.restarts > cfg.checkpoint.retry_budget,
                    "{}: job {} reported failed inside its retry budget",
                    policy.name(),
                    j.id
                );
            }
        }
    }
}
