//! The process-wide profiling switch times campaign re-pricing and
//! changes no output byte. The switch is global, so this file is its own
//! test binary with one test: no parallel test can flip it mid-campaign.

use pmemflow_cluster::{
    policy_by_name, run_campaign_with_oracle, ArrivalSpec, CampaignConfig, CheckpointSpec,
    FaultSpec, Oracle,
};
use pmemflow_core::profiling;

/// A faulty mixed stream of workflows and DAGs, the shape of the
/// `cluster_dag_faults` golden at a third of its length.
fn faulty_dag_config() -> CampaignConfig {
    CampaignConfig {
        nodes: 2,
        arrivals: ArrivalSpec::parse("poisson:rate=1,n=10,mix=all+dag").unwrap(),
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
            retry_budget: 4,
            ..CheckpointSpec::default()
        },
        ..CampaignConfig::default()
    }
}

#[test]
fn profiling_times_repricing_and_moves_no_output_byte() {
    let cfg = faulty_dag_config();
    let oracle = Oracle::build(&cfg.arrivals.alphabet(), &cfg.exec, 2).unwrap();
    for name in ["fcfs", "easy", "interference"] {
        let policy = policy_by_name(name).unwrap();
        assert!(!profiling::enabled(), "off by default");
        let off = run_campaign_with_oracle(&cfg, policy.as_ref(), &oracle).unwrap();
        profiling::set_enabled(true);
        let on = run_campaign_with_oracle(&cfg, policy.as_ref(), &oracle).unwrap();
        profiling::set_enabled(false);
        assert!(off.reprice_calls > 0, "{name}: the campaign reprices");
        assert_eq!(off.reprice_secs, 0.0, "{name}: off, nothing is timed");
        assert!(on.reprice_secs > 0.0, "{name}: on, re-pricing is timed");
        assert_eq!(on.reprice_calls, off.reprice_calls, "{name}");
        assert!(
            off.failed() > 0 && off.jobs.iter().any(|j| j.restarts > 0),
            "{name}: faults must fire"
        );
        assert!(
            off.jobs.iter().any(|j| !j.dag.is_empty()),
            "{name}: DAGs run"
        );
        assert_eq!(on.to_jsonl(), off.to_jsonl(), "{name}: same bytes");
    }
}
