//! Calibration lock-in: the model must reproduce the paper's per-workload
//! optimal configuration (Table II + §VI) for a large majority of the
//! 18-workload suite, and every miss must be a near-tie, not a blowout.
//! The bounds live in the scorecard's rows (`pmemflow::sched::scorecard`),
//! which EXPERIMENTS.md prints in full.

use pmemflow::sched::scorecard::scorecard;

#[test]
fn table2_winners_are_reproduced() {
    scorecard().check(&["table2_winners", "table2_misses"]);
}

/// The per-row spot checks the paper quotes explicitly.
#[test]
fn quoted_margins_hold_in_direction() {
    scorecard().check(&[
        "micro64_locr_over_locw",
        "micro2kb_parallel",
        "miniamr_readonly_locw",
    ]);
}
