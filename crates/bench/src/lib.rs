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
use std::cell::RefCell;

/// A bench binary's command line: `--key value` options, bare
/// `--switch`es and positionals. Like the `pmemflow` CLI, a binary
/// reads what it takes and then calls [`BenchArgs::reject_unread`], so
/// an argument nothing read (a typo such as `--smok`, or an option of
/// another binary) is an error instead of a silent default run.
pub struct BenchArgs {
    args: Vec<String>,
    /// Which of `args` some lookup consumed.
    read: RefCell<Vec<bool>>,
}

/// Print `msg` as an error and exit with status 2.
fn fail(msg: &str) -> ! {
    eprintln!("error: {msg}");
    std::process::exit(2)
}

impl BenchArgs {
    /// The process's arguments, without the program name.
    pub fn from_env() -> BenchArgs {
        BenchArgs::new(std::env::args().skip(1).collect())
    }

    /// Wrap an argument list (without the program name).
    pub fn new(args: Vec<String>) -> BenchArgs {
        let read = RefCell::new(vec![false; args.len()]);
        BenchArgs { args, read }
    }

    /// Whether the bare switch `key` (e.g. `--smoke`) is present.
    pub fn switch(&self, key: &str) -> bool {
        let mut read = self.read.borrow_mut();
        let mut found = false;
        for (i, a) in self.args.iter().enumerate() {
            if a == key {
                read[i] = true;
                found = true;
            }
        }
        found
    }

    /// The value following `key`, if `key` is present; the last one
    /// wins when it is given twice. Exits when `key` has no value.
    pub fn value(&self, key: &str) -> Option<String> {
        let mut read = self.read.borrow_mut();
        let mut value = None;
        for (i, a) in self.args.iter().enumerate() {
            if a == key {
                let Some(v) = self.args.get(i + 1) else {
                    fail(&format!("{key} needs a value"))
                };
                read[i] = true;
                read[i + 1] = true;
                value = Some(v.clone());
            }
        }
        value
    }

    /// `key`'s value parsed as `T`, or `default` when `key` is absent.
    /// Exits, naming the flag, when the value does not parse.
    pub fn parse_or<T: std::str::FromStr>(&self, key: &str, default: T) -> T {
        match self.value(key) {
            None => default,
            Some(v) => v
                .parse()
                .unwrap_or_else(|_| fail(&format!("{key} expects a number, got {v:?}"))),
        }
    }

    /// The first argument that is neither a `--flag` nor a value some
    /// lookup has consumed, parsed as `T`; `default` when there is none.
    /// Read options before the positional. Exits when it does not parse.
    pub fn positional_or<T: std::str::FromStr>(&self, default: T) -> T {
        let mut read = self.read.borrow_mut();
        let Some(i) = (0..self.args.len()).find(|&i| !read[i] && !self.args[i].starts_with("--"))
        else {
            return default;
        };
        read[i] = true;
        let v = &self.args[i];
        v.parse()
            .unwrap_or_else(|_| fail(&format!("expected a number, got {v:?}")))
    }

    /// The first argument no lookup has read, if any.
    pub fn unread(&self) -> Option<&str> {
        let read = self.read.borrow();
        (0..self.args.len())
            .find(|&i| !read[i])
            .map(|i| self.args[i].as_str())
    }

    /// Exit with an error naming the first argument nothing read. Call
    /// it once every option has been read, before doing any work.
    pub fn reject_unread(&self) {
        if let Some(arg) = self.unread() {
            fail(&format!("unknown argument {arg:?}"));
        }
    }
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

#[cfg(test)]
mod tests {
    use super::BenchArgs;

    fn args(list: &[&str]) -> BenchArgs {
        BenchArgs::new(list.iter().map(|s| s.to_string()).collect())
    }

    #[test]
    fn reads_switches_values_and_positionals() {
        let a = args(&["--smoke", "--requests", "64", "--requests", "128", "7"]);
        assert!(a.switch("--smoke"));
        assert!(!a.switch("--verbose"));
        assert_eq!(a.parse_or("--requests", 0usize), 128, "last one wins");
        assert_eq!(a.parse_or("--seed", 42u64), 42);
        assert_eq!(a.positional_or(0u32), 7);
        assert_eq!(a.unread(), None);
    }

    #[test]
    fn unread_arguments_are_named() {
        let a = args(&["--smok", "--out", "x.json"]);
        assert_eq!(a.value("--out").as_deref(), Some("x.json"));
        assert!(!a.switch("--smoke"));
        assert_eq!(a.unread(), Some("--smok"));
        // An option value is not a positional, and an unread value of an
        // unknown option still counts as unread.
        let a = args(&["--iters", "5"]);
        assert_eq!(a.positional_or(300usize), 5);
        assert_eq!(a.unread(), Some("--iters"));
    }
}
