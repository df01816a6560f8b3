//! What-if: the paper's study on second-generation Optane.
//!
//! Reruns the 18-workload suite on the gen-2 extrapolated profile
//! (`DeviceProfile::optane_gen2`: +32 % bandwidth everywhere, same
//! latencies) and reports which Table II winners change. Because the
//! gen-2 uplift scales read, write and remote paths together, the
//! asymmetries that drive the paper's recommendations persist — the main
//! movement is workloads near a saturation boundary getting un-saturated.

use pmemflow_bench::run_suite;
use pmemflow_core::ExecutionParams;
use pmemflow_pmem::DeviceProfile;

fn main() {
    let gen1 = run_suite(&ExecutionParams::default());
    let gen2 = run_suite(&ExecutionParams::default().with_profile(DeviceProfile::optane_gen2()));
    println!(
        "{:<22} {:>5}  {:>8} {:>8}  {:>9} {:>9}",
        "workload", "ranks", "gen1", "gen2", "t1(s)", "t2(s)"
    );
    let mut changed = 0;
    for (a, b) in gen1.iter().zip(gen2.iter()) {
        let (sa, sb) = (a.completed(), b.completed());
        let differs = sa.best().config != sb.best().config;
        if differs {
            changed += 1;
        }
        println!(
            "{:<22} {:>5}  {:>8} {:>8}  {:>9.1} {:>9.1} {}",
            a.entry.family.name(),
            a.entry.ranks,
            sa.best().config.label(),
            sb.best().config.label(),
            sa.best().total,
            sb.best().total,
            if differs { "<-- flips" } else { "" },
        );
    }
    println!(
        "\n{changed}/18 winners change on gen-2; the placement and mode\n\
         asymmetries scale together, so the recommendation structure holds."
    );
}
