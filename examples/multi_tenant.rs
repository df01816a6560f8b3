//! Multi-tenant node sharing: what happens when two coupled workflows
//! land on the same PMEM.
//!
//! ```sh
//! cargo run --release --example multi_tenant
//! ```
//!
//! The paper motivates its study with the multi-tenancy of in situ
//! platforms (§II-A). This example co-schedules pairs of workflows on the
//! modeled node and quantifies the interference each tenant suffers —
//! showing that a bandwidth-bound tenant is a far worse neighbour than a
//! compute-bound one, which is exactly what a cluster-level scheduler
//! needs to anticipate.

use pmemflow::core::{execute_coscheduled, Tenant};
use pmemflow::workloads::{gtc_matmul, micro_64mb, miniamr_readonly};
use pmemflow::{ExecutionParams, SchedConfig};

fn main() {
    let params = ExecutionParams::default();
    let pairs: Vec<(&str, Vec<Tenant>)> = vec![
        (
            "bandwidth-bound + bandwidth-bound",
            vec![
                Tenant {
                    spec: micro_64mb(8),
                    config: SchedConfig::S_LOC_W,
                },
                Tenant {
                    spec: micro_64mb(8),
                    config: SchedConfig::S_LOC_W,
                },
            ],
        ),
        (
            "bandwidth-bound + compute-bound",
            vec![
                Tenant {
                    spec: micro_64mb(8),
                    config: SchedConfig::S_LOC_W,
                },
                Tenant {
                    spec: gtc_matmul(8),
                    config: SchedConfig::P_LOC_R,
                },
            ],
        ),
        (
            "compute-bound + small-object streaming",
            vec![
                Tenant {
                    spec: gtc_matmul(8),
                    config: SchedConfig::P_LOC_R,
                },
                Tenant {
                    spec: miniamr_readonly(8),
                    config: SchedConfig::P_LOC_R,
                },
            ],
        ),
    ];

    for (label, tenants) in pairs {
        let out = execute_coscheduled(&tenants, &params, None).expect("fits the node");
        println!("== {label} ==");
        for b in &out.breakdown {
            println!(
                "  {:<22} {:>7.1}s coscheduled  ({:.2}x vs solo)",
                b.workflow, b.end, b.slowdown
            );
        }
        println!("  makespan {:.1}s\n", out.makespan);
    }

    println!(
        "Bandwidth-bound tenants multiply each other's runtimes; a\n\
         compute-bound neighbour costs almost nothing. Cluster schedulers\n\
         for PMEM nodes should mix workload classes, not stack the same one."
    );
}
