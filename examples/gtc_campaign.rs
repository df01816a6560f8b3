//! A GTC fusion-simulation campaign: pick the scheduling configuration
//! for an in situ analytics pipeline across concurrency levels.
//!
//! ```sh
//! cargo run --release --example gtc_campaign
//! ```
//!
//! Walks the scenario from the paper's §VI: the GTC particle-in-cell code
//! streams 229 MB checkpoint arrays to a coupled analytics kernel. As the
//! rank count grows from 8 to 24 the optimal configuration shifts from
//! parallel/local-read (overlap wins, bandwidth is plentiful) to
//! serial/local-write (the workflow becomes write-bandwidth-bound) — and
//! the scheduler must follow.

use pmemflow::sched::{characterize, classify, recommend};
use pmemflow::workloads::{gtc_matmul, gtc_readonly, kernels};
use pmemflow::{sweep, ExecutionParams};

fn main() {
    let params = ExecutionParams::default();

    // The real PIC kernel behind the proxy: one step, for flavour.
    let mut particles: Vec<kernels::Particle> = (0..10_000)
        .map(|i| kernels::Particle {
            x: (i as f64 * 0.618_033_988) % 1.0,
            v: 0.0,
            w: 1.0,
        })
        .collect();
    let mut grid = vec![0.0; 256];
    let charge = kernels::pic_step(&mut particles, &mut grid, 0.01);
    println!("GTC proxy kernel: one PIC step over 10k particles, total charge {charge:.0}\n");

    println!("workflow              ranks  rule-based  model-driven  predicted_s  loss_if_worst");
    for ranks in [8usize, 16, 24] {
        for spec in [gtc_readonly(ranks), gtc_matmul(ranks)] {
            let profile = characterize(&spec, &params).expect("characterization runs");
            let rule = recommend(&profile);
            let sw = sweep(&spec, &params).expect("model sweep runs");
            let oracle = sw.best();
            println!(
                "{:<21} {:>5}  {:<10}  {:<12}  {:>10.1}  {:>11.0}%",
                spec.name,
                ranks,
                rule.config.label(),
                oracle.config.label(),
                oracle.total,
                sw.worst_case_loss_percent(),
            );
            if let Some(row) = classify(&profile) {
                println!(
                    "        └─ Table II row {} ({}) — paper: {}",
                    row.row,
                    row.config.label(),
                    row.illustrated_by
                );
            }
        }
    }

    println!(
        "\nThe crossover: overlap (parallel) pays while the simulation's\n\
         compute phase hides analytics I/O, but once 24 writers saturate\n\
         the write path, serializing and keeping writes local wins (§VI-A)."
    );
}
