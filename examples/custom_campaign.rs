//! Bring-your-own workflow: import a workflow table, characterize, plan,
//! and schedule each entry.
//!
//! ```sh
//! cargo run --release --example custom_campaign
//! ```
//!
//! Demonstrates the full downstream-user path: describe workflows in the
//! plain-text table format (e.g. generated from job scripts or traces),
//! then let the library pick concurrency and configuration per workflow.

use pmemflow::sched::{plan, recommend};
use pmemflow::workloads::parse_workflows;
use pmemflow::{characterize, sweep, ExecutionParams};

const CAMPAIGN: &str = "\
# name, ranks, iterations, writer_compute_s, reader_compute_s, objects, object_bytes
cfd-vis,        16, 10, 0.9,  0.05, 32,     8388608   # large slices, light viz
particle-feed,   8, 10, 0.05, 0.4,  120000, 4096      # small records, ML featurizer
checkpoint-scan, 24, 10, 0.0,  0.0,  8,      134217728 # pure streaming copy
";

fn main() {
    let params = ExecutionParams::default();
    let specs = parse_workflows(CAMPAIGN).expect("table parses");

    println!(
        "{:<16} {:>5}  {:<8} {:<8}  {:>9}  {:>12}",
        "workflow", "ranks", "rules", "oracle", "runtime_s", "plan(24s)"
    );
    for spec in &specs {
        let profile = characterize(spec, &params).expect("characterizes");
        let rule = recommend(&profile);
        let sw = sweep(spec, &params).expect("sweeps");
        let oracle = sw.best();
        let p = plan(spec, &[8, 16, 24], 24.0, &params).expect("plans");
        let chosen = p
            .chosen
            .map(|pt| format!("{}r/{}", pt.ranks, pt.config.label()))
            .unwrap_or_else(|| "infeasible".into());
        println!(
            "{:<16} {:>5}  {:<8} {:<8}  {:>9.1}  {:>12}",
            spec.name,
            spec.ranks,
            rule.config.label(),
            oracle.config.label(),
            oracle.total,
            chosen,
        );
    }

    println!(
        "\nEach workflow got an individual decision from its measured profile —\n\
         the paper's point: classes, not defaults, drive PMEM scheduling."
    );
}
