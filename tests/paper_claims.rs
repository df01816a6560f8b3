//! The paper's quantitative claims that the model must reproduce. Each
//! test asserts rows of the scorecard (`pmemflow::sched::scorecard`),
//! which works every claim out once; EXPERIMENTS.md carries the same
//! table, and the last test keeps its generated blocks byte-identical to
//! the scorecard's rendering.

use pmemflow::sched::scorecard::scorecard;

/// §II-B: device-level headline numbers.
#[test]
fn device_headlines_match_section_2b() {
    scorecard().check(&[
        "read_peak",
        "write_peak",
        "read_peak_threads",
        "write_peak_threads",
        "write_drop",
        "read_drop",
        "write_latency",
        "read_latency",
        "remote_random_write",
        "remote_random_write_at_3",
    ]);
}

/// §I / Fig. 1: swapping the analytics kernel while keeping the
/// configuration tuned for the other kernel costs tens of percent.
#[test]
fn fig1_motivation_changing_analytics_kernel_costs_performance() {
    scorecard().check(&["fig1_cross_cost"]);
}

/// §VII / §X: misconfiguration costs tens of percent, up to ~70%.
#[test]
fn misconfiguration_cost_is_large() {
    scorecard().check(&["worst_case_loss"]);
}

/// §VI-A: the 64 MB microbenchmark at high concurrency prefers S-LocW by a
/// large margin (paper: up to 2.5× better than other scenarios).
#[test]
fn micro64_high_concurrency_prefers_serial_local_write_strongly() {
    scorecard().check(&["micro64_winner", "micro64_margin"]);
}

/// §VI-A: remote writes dominate the runtime of bandwidth-bound serial
/// runs — the writer phase under S-LocR must far exceed S-LocW's.
#[test]
fn remote_writes_dominate_bandwidth_bound_runs() {
    scorecard().check(&["remote_write_phase"]);
}

/// §VIII: high software overhead (2 KB objects) lowers effective PMEM
/// contention — the device experiences far fewer effective concurrent
/// operations than there are ranks.
#[test]
fn software_overhead_lowers_effective_device_concurrency() {
    scorecard().check(&["small_object_concurrency"]);
}

/// §VII: no single configuration is optimal across the suite.
#[test]
fn no_single_optimal_configuration() {
    scorecard().check(&["distinct_winners"]);
}

/// The body of EXPERIMENTS.md's `<!-- AUTOGEN:name -->` block.
fn autogen_block<'a>(doc: &'a str, name: &str) -> &'a str {
    let open = format!("<!-- AUTOGEN:{name} -->\n");
    let close = format!("<!-- /AUTOGEN:{name} -->");
    let start = doc.find(&open).expect("block opens") + open.len();
    let end = start + doc[start..].find(&close).expect("block closes");
    &doc[start..end]
}

/// EXPERIMENTS.md's claims and per-panel blocks are the scorecard's
/// rendering, byte for byte; on a mismatch the message is the block to
/// paste.
#[test]
fn experiments_md_matches_the_scorecard() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/EXPERIMENTS.md"))
        .expect("EXPERIMENTS.md is committed");
    let card = scorecard();
    for (name, want) in [
        ("claims", card.claims_markdown()),
        ("panels", card.panels_markdown()),
    ] {
        assert!(
            autogen_block(&doc, name) == want,
            "EXPERIMENTS.md's AUTOGEN:{name} block is stale; replace its body with:\n{want}"
        );
    }
}
