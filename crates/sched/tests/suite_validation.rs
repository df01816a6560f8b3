//! Validation of the schedulers against the full 18-workload suite.

use pmemflow_core::{sweep, ExecutionParams, SchedConfig};
use pmemflow_sched::scorecard::scorecard;
use pmemflow_sched::{characterize, decide, recommend, RuleThresholds};
use pmemflow_workloads::paper_suite;

/// The rule-based engine must agree with the model-driven oracle on a
/// solid majority of the suite, and must never pick a configuration that
/// costs real performance.
#[test]
fn rules_track_the_oracle() {
    scorecard().check(&["rules_track_oracle", "rules_cost"]);
}

/// The model-driven decision is exactly the sweep argmin, and its reported
/// misconfiguration loss matches the sweep.
#[test]
fn oracle_is_consistent_with_sweeps() {
    let params = ExecutionParams::default();
    for entry in paper_suite().into_iter().take(6) {
        let d = decide(&entry.spec, &params).unwrap();
        let sw = sweep(&entry.spec, &params).unwrap();
        assert_eq!(d.config, sw.best().config);
        assert!((d.misconfiguration_loss_percent - sw.worst_case_loss_percent()).abs() < 1e-9);
    }
}

/// Table II's row classifier covers the paper's own workloads: the
/// measured profiles land in a row for a majority of the suite
/// (qualitative level boundaries make a perfect score unrealistic).
#[test]
fn table2_lookup_covers_most_of_the_suite() {
    scorecard().check(&["lookup_coverage"]);
}

/// The characterization is stable: characterizing twice gives identical
/// profiles (determinism end to end).
#[test]
fn characterization_is_deterministic() {
    let params = ExecutionParams::default();
    let spec = paper_suite()[7].spec.clone();
    let a = characterize(&spec, &params).unwrap();
    let b = characterize(&spec, &params).unwrap();
    assert_eq!(a.sim_io_index.to_bits(), b.sim_io_index.to_bits());
    assert_eq!(
        a.sim_device_concurrency.to_bits(),
        b.sim_device_concurrency.to_bits()
    );
}

/// Rule decisions depend only on the profile, so equal profiles give equal
/// decisions with identical reasons.
#[test]
fn rule_decisions_are_pure() {
    let params = ExecutionParams::default();
    let spec = paper_suite()[0].spec.clone();
    let profile = characterize(&spec, &params).unwrap();
    let t = RuleThresholds::default();
    let a = recommend(&profile, &t);
    let b = recommend(&profile, &t);
    assert_eq!(a, b);
}

/// Every configuration the recommenders can emit is a valid Table I
/// configuration.
#[test]
fn recommenders_emit_valid_configs() {
    let params = ExecutionParams::default();
    for entry in paper_suite() {
        let profile = characterize(&entry.spec, &params).unwrap();
        let rule = recommend(&profile, &RuleThresholds::default());
        assert!(SchedConfig::ALL.contains(&rule.config));
    }
}
