//! # pmemflow-bench — benchmark and figure-regeneration harness
//!
//! One binary per paper table/figure (see `src/bin/`), plus dependency-free
//! microbenchmarks of the substrates (see `benches/` and [`harness`]). This
//! library holds the shared harness: sweeping the 18-workload suite and
//! formatting results next to the paper's claims.

#![warn(missing_docs)]

pub mod harness;

use pmemflow_core::report::panel_table;
use pmemflow_core::{run_matrix, ConfigSweep, ExecutionParams, RunRequest, SchedConfig};
use pmemflow_workloads::{paper_suite, Family, SuiteEntry};

/// A suite entry together with its measured sweep.
pub struct SuiteResult {
    /// The workload and the paper's finding.
    pub entry: SuiteEntry,
    /// Measured results under all four configurations.
    pub sweep: ConfigSweep,
}

impl SuiteResult {
    /// The configuration the model found fastest.
    pub fn model_winner(&self) -> SchedConfig {
        self.sweep.best().config
    }

    /// The configuration the paper found fastest.
    pub fn paper_winner(&self) -> SchedConfig {
        SchedConfig::parse(self.entry.paper_winner).expect("suite labels are valid")
    }

    /// Whether the model reproduces the paper's winner.
    pub fn matches_paper(&self) -> bool {
        self.model_winner() == self.paper_winner()
    }
}

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

/// Run the full 18-workload suite under `params`, fanning the 72 runs
/// over one worker thread per core. Results are independent
/// deterministic simulations, so the output is identical for any
/// worker count.
pub fn run_suite(params: &ExecutionParams) -> Vec<SuiteResult> {
    let entries = paper_suite();
    let mut requests = Vec::with_capacity(entries.len() * SchedConfig::ALL.len());
    for entry in &entries {
        for config in SchedConfig::ALL {
            requests.push(RunRequest {
                workflow: entry.family.name().to_string(),
                ranks: entry.ranks,
                stack: params.stack,
                config,
                spec: entry.spec.clone(),
            });
        }
    }
    let outcomes = run_matrix(requests, params, default_jobs());
    entries
        .into_iter()
        .zip(outcomes.chunks(SchedConfig::ALL.len()))
        .map(|(entry, chunk)| {
            let runs = chunk
                .iter()
                .map(|o| o.result.clone().expect("suite workloads execute"))
                .collect();
            let sweep = ConfigSweep {
                workflow: entry.spec.name.clone(),
                runs,
            };
            SuiteResult { entry, sweep }
        })
        .collect()
}

/// Format a one-line-per-workload comparison against Table II.
pub fn suite_table(results: &[SuiteResult]) -> String {
    let mut out = String::new();
    out.push_str(
        "panel     workload                 ranks  S-LocW    S-LocR    P-LocW    P-LocR    model    paper    ok\n",
    );
    for r in results {
        let t = |c: SchedConfig| r.sweep.run(c).total;
        out.push_str(&format!(
            "{:<9} {:<24} {:>5}  {:>8.2}  {:>8.2}  {:>8.2}  {:>8.2}  {:<7}  {:<7}  {}\n",
            r.entry.panel,
            r.entry.family.name(),
            r.entry.ranks,
            t(SchedConfig::S_LOC_W),
            t(SchedConfig::S_LOC_R),
            t(SchedConfig::P_LOC_W),
            t(SchedConfig::P_LOC_R),
            r.model_winner().label(),
            r.entry.paper_winner,
            if r.matches_paper() { "yes" } else { "NO" },
        ));
    }
    let agree = results.iter().filter(|r| r.matches_paper()).count();
    out.push_str(&format!(
        "\nagreement with Table II: {agree}/{} workloads\n",
        results.len()
    ));
    out
}

/// Regenerate one figure (a workload family across the three concurrency
/// levels): one panel per rank count, runtimes under all four
/// configurations with serial runs split into writer/reader phases —
/// the layout of the paper's Figs. 4–9.
pub fn figure_for_family(family: Family, params: &ExecutionParams) -> String {
    let entries: Vec<SuiteEntry> = paper_suite()
        .into_iter()
        .filter(|e| e.family == family)
        .collect();
    let requests: Vec<RunRequest> = entries
        .iter()
        .flat_map(|entry| {
            SchedConfig::ALL.map(|config| RunRequest {
                workflow: entry.family.name().to_string(),
                ranks: entry.ranks,
                stack: params.stack,
                config,
                spec: entry.spec.clone(),
            })
        })
        .collect();
    let outcomes = run_matrix(requests, params, default_jobs());
    let mut out = String::new();
    out.push_str(&format!("{}: {}\n", family.figure(), family.name()));
    for (entry, chunk) in entries.iter().zip(outcomes.chunks(SchedConfig::ALL.len())) {
        let sweep = ConfigSweep {
            workflow: entry.spec.name.clone(),
            runs: chunk
                .iter()
                .map(|o| o.result.clone().expect("suite workload executes"))
                .collect(),
        };
        let data_gib = entry.spec.total_bytes_written() as f64 / (1u64 << 30) as f64;
        out.push_str(&format!(
            "\n({}) Threads: {}, Data size: {:.0}GiB — paper winner: {}\n",
            entry.panel, entry.ranks, data_gib, entry.paper_winner
        ));
        out.push_str(&panel_table(&sweep));
    }
    out
}
