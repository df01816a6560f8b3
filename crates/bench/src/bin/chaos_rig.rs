//! CI driver for the `pmemflow_serve` network-torture rig.
//!
//! Runs the rig (daemon behind the seeded `ChaosProxy`, scripted client
//! fleet, invariant checkers — see `pmemflow_serve::rig`) over a sweep
//! of seeds. Each seed runs **twice**: the second run's fault trace
//! must be byte-identical to the first — chaos you can bisect. A third
//! axis of determinism comes from CI running the whole binary twice and
//! diffing `--trace-out` files across processes.
//!
//! Exit is nonzero if any seed violates an invariant or diverges.
//!
//! ```text
//! chaos_rig [--seeds N] [--clients C] [--requests R] [--io-threads T]
//!           [--trace-out PATH] [--out PATH]
//! ```

use pmemflow_bench::BenchArgs;
use pmemflow_iostack::fnv1a;
use pmemflow_serve::{run_rig, RigConfig, RigReport};
use std::fmt::Write as _;

fn report_json(r: &RigReport, trace_hash: u64) -> String {
    format!(
        "{{\"seed\":{},\"responses_ok\":{},\"responses_shed\":{},\
         \"conns_clean\":{},\"conns_half_closed\":{},\"conns_reset\":{},\
         \"faults_short\":{},\"faults_stall\":{},\"abandoned\":{},\
         \"violations\":{},\"trace_fnv1a\":\"{trace_hash:016x}\"}}",
        r.seed,
        r.responses_ok,
        r.responses_shed,
        r.conns_clean,
        r.conns_half_closed,
        r.conns_reset,
        r.faults_short,
        r.faults_stall,
        r.abandoned,
        r.violations.len()
    )
}

fn main() {
    let args = BenchArgs::from_env();
    let seeds: u64 = args.parse_or("--seeds", 8);
    let clients: u64 = args.parse_or("--clients", 8);
    let requests: u32 = args.parse_or("--requests", 12);
    let io_threads: usize = args.parse_or("--io-threads", 1);
    let trace_out = args.value("--trace-out");
    let out = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_chaos_rig.json".to_string());
    args.reject_unread();

    println!(
        "chaos_rig: {seeds} seed(s) x2 runs, {clients} clients x {requests} requests, \
         {io_threads} io thread(s)"
    );

    let mut failures = 0usize;
    let mut traces = String::new();
    let mut per_seed = Vec::new();
    for seed in 1..=seeds {
        let cfg = RigConfig {
            seed,
            clients,
            requests_per_client: requests,
            io_threads,
        };
        let first = run_rig(&cfg);
        let second = run_rig(&cfg);
        let mut bad = false;
        for (label, r) in [("run1", &first), ("run2", &second)] {
            if !r.violations.is_empty() {
                bad = true;
                for v in &r.violations {
                    eprintln!("seed {seed} {label}: VIOLATION: {v}");
                }
            }
        }
        if first.trace != second.trace {
            bad = true;
            eprintln!("seed {seed}: trace DIVERGED between identical runs");
        }
        let hash = fnv1a(first.trace.as_bytes());
        println!(
            "{}  trace={:016x}{}",
            first.summary(),
            hash,
            if bad { "  FAILED" } else { "" }
        );
        let _ = writeln!(traces, "=== seed {seed} ===");
        traces.push_str(&first.trace);
        per_seed.push(report_json(&first, hash));
        if bad {
            failures += 1;
        }
    }

    if let Some(path) = trace_out {
        std::fs::write(&path, &traces).expect("write trace file");
        println!("wrote {path}");
    }
    let json = format!(
        "{{\"bench\":\"chaos_rig\",\"seeds\":{seeds},\"clients\":{clients},\
         \"requests_per_client\":{requests},\"io_threads\":{io_threads},\
         \"failures\":{failures},\"per_seed\":[{}]}}\n",
        per_seed.join(",")
    );
    std::fs::write(&out, &json).expect("write bench JSON");
    println!("wrote {out}");

    if failures > 0 {
        eprintln!("chaos_rig: {failures}/{seeds} seed(s) failed");
        std::process::exit(1);
    }
    println!("chaos_rig: all {seeds} seed(s) held every invariant, traces byte-identical");
}
