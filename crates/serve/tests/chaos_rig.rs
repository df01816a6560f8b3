//! Network-chaos end-to-end: the torture rig, the daemon behind the
//! seeded chaos proxy.
//!
//! The rig's contract is twofold: every invariant holds under the fault
//! campaign (exact answers, no leaked connection, clean drain,
//! conservation), and the fault trace is *byte-identical* across
//! repeated runs of the same seed and across io-thread counts — chaos
//! you can bisect.

use pmemflow_serve::{run_rig, RigConfig};

fn rig_config(seed: u64) -> RigConfig {
    RigConfig {
        seed,
        clients: 8,
        requests_per_client: 12,
        io_threads: 1,
    }
}

#[test]
fn torture_rig_holds_every_invariant_and_replays_byte_identically() {
    for seed in 1..=8u64 {
        let cfg = rig_config(seed);
        let first = run_rig(&cfg);
        assert!(
            first.violations.is_empty(),
            "seed {seed}: {:#?}\ntrace:\n{}",
            first.violations,
            first.trace
        );
        // The campaign actually bit: fragmentation plus at least one
        // early termination across the fleet (seed-checked so a silent
        // no-op plan cannot pass).
        assert!(
            first.faults_short > 0,
            "seed {seed} applied no fragmentation"
        );
        assert!(
            first.conns_half_closed + first.conns_reset > 0,
            "seed {seed} terminated no connections"
        );
        assert!(first.responses_ok > 0);
        let second = run_rig(&cfg);
        assert!(
            second.violations.is_empty(),
            "seed {seed} rerun: {:#?}",
            second.violations
        );
        assert_eq!(
            first.trace, second.trace,
            "seed {seed}: fault trace must be byte-identical across runs"
        );
    }
}

#[test]
fn torture_rig_survives_two_io_threads() {
    // Same invariants under the EPOLLEXCLUSIVE accept path; the
    // identity preamble keeps the trace independent of which io thread
    // wins each accept.
    let one = run_rig(&rig_config(3));
    let cfg = RigConfig {
        io_threads: 2,
        ..rig_config(3)
    };
    let a = run_rig(&cfg);
    assert!(
        a.violations.is_empty(),
        "{:#?}\ntrace:\n{}",
        a.violations,
        a.trace
    );
    let b = run_rig(&cfg);
    assert_eq!(a.trace, b.trace, "io-thread races leaked into the trace");
    assert_eq!(a.trace, one.trace, "the trace depends on --io-threads");
}
