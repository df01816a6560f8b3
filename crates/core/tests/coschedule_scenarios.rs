//! Scenario tests for multi-tenant co-scheduling.

use pmemflow_core::{execute_coscheduled, ExecutionParams, SchedConfig, Tenant};
use pmemflow_workloads::{
    gtc_matmul, micro_2kb, micro_64mb, miniamr_readonly, ComponentSpec, IoPattern, WorkflowSpec,
};

fn params() -> ExecutionParams {
    ExecutionParams::default()
}

/// A tenant that is almost pure compute: long kernel phases, one small
/// object per iteration.
fn compute_bound_tenant() -> Tenant {
    let io = IoPattern {
        objects_per_snapshot: 1,
        object_bytes: 64 * 1024,
    };
    Tenant {
        spec: WorkflowSpec {
            name: "compute-bound".into(),
            writer: ComponentSpec {
                name: "sim".into(),
                compute_per_iteration: 1.0,
                io,
            },
            reader: ComponentSpec {
                name: "ana".into(),
                compute_per_iteration: 1.0,
                io,
            },
            ranks: 8,
            iterations: 10,
        },
        config: SchedConfig::P_LOC_R,
    }
}

#[test]
fn compute_bound_neighbour_is_cheap() {
    // A bandwidth-bound tenant next to an (almost) pure-compute tenant
    // suffers far less than next to another bandwidth-bound tenant.
    let bw = Tenant {
        spec: micro_64mb(8),
        config: SchedConfig::S_LOC_W,
    };
    let with_compute =
        execute_coscheduled(&[bw.clone(), compute_bound_tenant()], &params(), None).unwrap();
    let with_bw = execute_coscheduled(&[bw.clone(), bw], &params(), None).unwrap();
    let (near_compute, near_bw) = (
        with_compute.breakdown[0].slowdown,
        with_bw.breakdown[0].slowdown,
    );
    assert!(near_compute < near_bw, "{near_compute} vs {near_bw}");
    // And the compute tenant itself barely notices the bandwidth hog.
    let compute = with_compute.breakdown[1].slowdown;
    assert!(compute < 1.2, "compute tenant slowed {compute}x");
}

#[test]
fn three_tenants_fit_and_finish() {
    let tenants = vec![
        Tenant {
            spec: micro_2kb(8),
            config: SchedConfig::P_LOC_R,
        },
        Tenant {
            spec: miniamr_readonly(8),
            config: SchedConfig::P_LOC_R,
        },
        Tenant {
            spec: gtc_matmul(8),
            config: SchedConfig::P_LOC_R,
        },
    ];
    let out = execute_coscheduled(&tenants, &params(), None).unwrap();
    assert_eq!(out.tenants.len(), 3);
    assert!(out.makespan >= out.tenants.iter().map(|m| m.total).fold(0.0, f64::max) - 1e-9);
    for (m, t) in out.tenants.iter().zip(&tenants) {
        // Per-tenant byte accounting still holds under co-scheduling.
        let expect = t.spec.total_bytes_written() as f64;
        assert!((m.writer.bytes - expect).abs() / expect < 1e-6);
    }
}

#[test]
fn coscheduling_is_deterministic() {
    let tenants = vec![
        Tenant {
            spec: micro_2kb(8),
            config: SchedConfig::P_LOC_R,
        },
        Tenant {
            spec: micro_64mb(8),
            config: SchedConfig::S_LOC_W,
        },
    ];
    let a = execute_coscheduled(&tenants, &params(), None).unwrap();
    let b = execute_coscheduled(&tenants, &params(), None).unwrap();
    assert_eq!(a.makespan.to_bits(), b.makespan.to_bits());
    for (x, y) in a.tenants.iter().zip(b.tenants.iter()) {
        assert_eq!(x.total.to_bits(), y.total.to_bits());
    }
}

#[test]
fn mixed_placements_share_the_node() {
    // One tenant prioritizes its writer's socket, the other its reader's:
    // both sockets end up hosting ranks of both tenants — the capacity
    // check must account for that.
    let tenants = vec![
        Tenant {
            spec: micro_64mb(14),
            config: SchedConfig::S_LOC_W,
        },
        Tenant {
            spec: micro_2kb(14),
            config: SchedConfig::S_LOC_R,
        },
    ];
    // 14 + 14 = 28 per socket: exactly fits the paper testbed.
    let out = execute_coscheduled(&tenants, &params(), None).unwrap();
    assert_eq!(out.tenants.len(), 2);
    // One more rank anywhere must overflow.
    let too_many = vec![
        Tenant {
            spec: micro_64mb(15),
            config: SchedConfig::S_LOC_W,
        },
        Tenant {
            spec: micro_2kb(14),
            config: SchedConfig::S_LOC_R,
        },
    ];
    assert!(matches!(
        execute_coscheduled(&too_many, &params(), None),
        Err(pmemflow_core::ExecError::Capacity { requested: 29 })
    ));
}
