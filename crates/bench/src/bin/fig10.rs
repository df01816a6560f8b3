//! Regenerate the paper's Fig. 10: workflow runtimes normalized to the
//! best configuration, for the four application workflow families —
//! demonstrating that no single configuration is optimal and quantifying
//! the cost of misconfiguration (up to ~70%, §VII).

use pmemflow_bench::run_suite;
use pmemflow_core::{ExecutionParams, SchedConfig};
use pmemflow_workloads::Family;

fn main() {
    let params = ExecutionParams::default();
    let results = run_suite(&params);
    let panels = [
        ("10a", Family::GtcReadOnly),
        ("10b", Family::GtcMatMul),
        ("10c", Family::MiniAmrReadOnly),
        ("10d", Family::MiniAmrMatMul),
    ];
    let mut worst_loss: f64 = 0.0;
    for (panel, family) in panels {
        println!(
            "(Fig. {panel}) {} — normalized runtime (1.00 = best)",
            family.name()
        );
        println!(
            "  {:<6} {:>8} {:>8} {:>8} {:>8}",
            "ranks", "S-LocW", "S-LocR", "P-LocW", "P-LocR"
        );
        for r in results.iter().filter(|r| r.entry.family == family) {
            let sweep = r.completed();
            let n = |c: SchedConfig| sweep.normalized(c);
            println!(
                "  {:<6} {:>8.2} {:>8.2} {:>8.2} {:>8.2}   best={} paper={}",
                r.entry.ranks,
                n(SchedConfig::S_LOC_W),
                n(SchedConfig::S_LOC_R),
                n(SchedConfig::P_LOC_W),
                n(SchedConfig::P_LOC_R),
                sweep.best().config.label(),
                r.entry.paper_winner,
            );
            worst_loss = worst_loss.max(sweep.worst_case_loss_percent());
        }
        println!();
    }
    println!(
        "worst-case misconfiguration loss across the app suite: {worst_loss:.0}% \
         (paper §VII/§X: up to ~70%)."
    );
}
