//! Regenerate the paper's Table II: configuration recommendations.
//!
//! Prints the ten recommendation rows, then validates three recommenders
//! against the paper's winner for each of the 18 suite workloads:
//! the model-driven oracle (simulate all four configurations), the
//! rule-based engine (§VIII distilled), and the Table II row lookup.

use pmemflow_sched::scorecard::scorecard;
use pmemflow_sched::table2;

fn main() {
    println!("TABLE II: Configuration recommendations for Workflows\n");
    println!(
        "{:>3}  {:<11} {:<9} {:<11} {:<9} {:<7} {:<7}  Illustrated by",
        "#", "SimCompute", "SimWrite", "AnaCompute", "AnaRead", "ObjSize", "Config"
    );
    for row in table2() {
        let levels = |ls: &[pmemflow_sched::Level]| {
            ls.iter().map(|l| l.label()).collect::<Vec<_>>().join("/")
        };
        println!(
            "{:>3}  {:<11} {:<9} {:<11} {:<9} {:<7} {:<7}  {}",
            row.row,
            levels(row.sim_compute),
            levels(row.sim_write),
            levels(row.analytics_compute),
            levels(row.analytics_read),
            match row.object_size {
                pmemflow_workloads::SizeClass::Small => "small",
                pmemflow_workloads::SizeClass::Large => "large",
            },
            row.config.label(),
            row.illustrated_by,
        );
    }

    println!("\nValidation against the 18-workload suite:\n");
    print!("{}", scorecard().validation_table());
}
