//! pmemflow's benchmark: three workloads through the public APIs of
//! `pmemflow-core`, `pmemflow-cluster` and `pmemflow-serve`, measured end
//! to end (untraced) or per layer (traced), with every output checked.
//!
//! ```text
//! perfbench --workload suite|campaign_dag|serve
//!           --seed N --seconds S --trace 0|1
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct":…,"attempted":…,"failed":…,"metrics":{name:{"value":…,"unit":…}}}`.
//! A human-readable table (sample counts, digests, failed checks) goes to
//! standard error. See `README.md` next to this crate for what each
//! workload and metric means.

mod campaign;
mod pace;
mod report;
mod serve;
mod suite;

use std::time::Duration;

const USAGE: &str = "usage: perfbench --workload suite|campaign_dag|serve \
                     --seed N --seconds S --trace 0|1";

/// Validated command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Input seed: the same seed always generates the same inputs.
    pub seed: u64,
    /// Length of the timed phase.
    pub budget: Duration,
    /// Traced run: per-layer metrics instead of end-to-end ones.
    pub trace: bool,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s = value.parse::<f64>().map_err(|_| bad("a number"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        budget: Duration::from_secs_f64(seconds.unwrap_or(10.0)),
        trace: trace.unwrap_or(false),
    })
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let report = match args.workload.as_str() {
        "suite" => suite::run(&args),
        "campaign_dag" => campaign::run(&args),
        "serve" => serve::run(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?}\n{USAGE}");
            std::process::exit(2);
        }
    };
    report.print(&args);
}
