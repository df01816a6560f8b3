//! # pmemflow-bench — benchmark and figure-regeneration harness
//!
//! One binary per paper table/figure (see `src/bin/`), plus dependency-free
//! microbenchmarks of the substrates (see `benches/` and [`harness`]). This
//! library holds the shared harness: sweeping the 18-workload suite and
//! rendering one figure's panels.

#![warn(missing_docs)]

pub mod harness;

use pmemflow_core::report::panel_table;
use pmemflow_core::{full_matrix, run_matrix, ExecutionParams};
use pmemflow_sched::scorecard::{panels, Panel};
use pmemflow_workloads::Family;

/// The value following `key` in a bench binary's `--key value`
/// arguments, if `key` is present.
pub fn flag_value(args: &[String], key: &str) -> Option<String> {
    args.iter()
        .position(|a| a == key)
        .and_then(|i| args.get(i + 1).cloned())
}

/// `key`'s value parsed as `T`, or `default` when `key` is absent.
///
/// # Panics
///
/// When the value does not parse; the message names the flag.
pub fn parse_or<T: std::str::FromStr>(args: &[String], key: &str, default: T) -> T {
    flag_value(args, key)
        .map(|v| {
            v.parse()
                .unwrap_or_else(|_| panic!("{key} expects a number, got {v:?}"))
        })
        .unwrap_or(default)
}

/// The worker count for suite fan-out: one per available core.
fn default_jobs() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Run the 18-workload suite under `params` on its I/O stack, fanning
/// the 72 runs over one worker thread per core. Results are independent
/// deterministic simulations, so the output is identical for any worker
/// count.
pub fn run_suite(params: &ExecutionParams) -> Vec<Panel> {
    let requests = full_matrix()
        .into_iter()
        .filter(|r| r.stack == params.stack)
        .collect();
    panels(&run_matrix(requests, params, default_jobs()))
}

/// Regenerate one figure (a workload family across the three concurrency
/// levels): one panel per rank count, runtimes under all four
/// configurations with serial runs split into writer/reader phases —
/// the layout of the paper's Figs. 4–9.
pub fn figure_for_family(family: Family, params: &ExecutionParams) -> String {
    let mut out = format!("{}: {}\n", family.figure(), family.name());
    for p in run_suite(params)
        .iter()
        .filter(|p| p.entry.family == family)
    {
        let entry = &p.entry;
        let data_gib = entry.spec.total_bytes_written() as f64 / (1u64 << 30) as f64;
        out.push_str(&format!(
            "\n({}) Threads: {}, Data size: {:.0}GiB — paper winner: {}\n",
            entry.panel, entry.ranks, data_gib, entry.paper_winner
        ));
        out.push_str(&panel_table(p.completed()));
    }
    out
}
