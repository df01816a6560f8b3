//! Co-scheduling multiple workflows on one node.
//!
//! The paper studies one workflow per node but motivates the problem with
//! multi-tenancy (§II-A): *in situ* deployments share server resources. A
//! scheduler placing several coupled workflows must anticipate the PMEM
//! interference between them — this module executes any number of
//! workflows concurrently against the shared device model and quantifies
//! exactly that.
//!
//! Core-capacity accounting is enforced: every workflow pins its writers
//! on one socket and its readers on the other, so each socket holds every
//! tenant's ranks, and that sum must fit one socket.

use crate::config::SchedConfig;
use crate::executor::{check_fit, ExecError, ExecutionParams};
use crate::metrics::RunMetrics;
use pmemflow_workloads::WorkflowSpec;

/// One tenant: a workflow and the configuration it runs under.
#[derive(Debug, Clone)]
pub struct Tenant {
    /// The workflow.
    pub spec: WorkflowSpec,
    /// Its scheduling configuration.
    pub config: SchedConfig,
}

/// Per-tenant attribution of a co-scheduled execution: who ran what,
/// when it finished, and how much the shared device slowed it down.
#[derive(Debug, Clone)]
pub struct TenantBreakdown {
    /// Index of the tenant in the input slice.
    pub index: usize,
    /// Workflow name.
    pub workflow: String,
    /// The configuration the tenant ran under.
    pub config: SchedConfig,
    /// Instant the tenant was admitted (all tenants of one co-scheduled
    /// execution start together at t = 0).
    pub start: f64,
    /// Instant the tenant's last rank finished.
    pub end: f64,
    /// The tenant's runtime running alone on the node, seconds.
    pub solo_total: f64,
    /// `(end - start) / solo_total` — the price of sharing the device
    /// (≥ ~1).
    pub slowdown: f64,
}

/// Result of a co-scheduled execution.
#[derive(Debug, Clone)]
pub struct CoScheduleOutcome {
    /// Per-tenant metrics, in input order (totals measured from t = 0 to
    /// that tenant's completion).
    pub tenants: Vec<RunMetrics>,
    /// Time until every tenant finished.
    pub makespan: f64,
    /// Per-tenant attribution, including each tenant's slowdown versus
    /// running alone (same order as `tenants`).
    pub breakdown: Vec<TenantBreakdown>,
}

/// Execute all `tenants` concurrently on one node, sharing the PMEM
/// device. Returns per-tenant metrics plus each tenant's slowdown versus
/// its solo runtime.
///
/// Callers that already know each tenant's solo runtime (e.g. a cluster
/// scheduler holding a per-workload sweep cache) pass them as `baselines`
/// (input order) and skip the per-tenant solo simulations this function
/// otherwise runs.
pub fn execute_coscheduled(
    tenants: &[Tenant],
    params: &ExecutionParams,
    baselines: Option<&[f64]>,
) -> Result<CoScheduleOutcome, ExecError> {
    if tenants.is_empty() {
        return Err(ExecError::Spec("no tenants".into()));
    }
    if let Some(b) = baselines {
        if b.len() != tenants.len() {
            return Err(ExecError::Spec(format!(
                "{} baselines for {} tenants",
                b.len(),
                tenants.len()
            )));
        }
    }
    for t in tenants {
        t.spec.validate().map_err(ExecError::Spec)?;
    }
    check_fit(tenants.iter().map(|t| t.spec.ranks).sum())?;

    // Solo baselines for the slowdowns (simulated unless the
    // caller already has them).
    let solo = match baselines {
        Some(b) => b.to_vec(),
        None => {
            let mut solo = Vec::with_capacity(tenants.len());
            for t in tenants {
                solo.push(crate::executor::execute(&t.spec, t.config, params)?.total);
            }
            solo
        }
    };

    let workflows: Vec<_> = tenants.iter().map(|t| (&t.spec, t.config)).collect();
    let metrics = crate::executor::execute_many(&workflows, params)?;
    let makespan = metrics.iter().map(|m| m.total).fold(0.0f64, f64::max);
    let breakdown = tenants
        .iter()
        .enumerate()
        .map(|(index, t)| TenantBreakdown {
            index,
            workflow: t.spec.name.clone(),
            config: t.config,
            start: 0.0,
            end: metrics[index].total,
            solo_total: solo[index],
            slowdown: metrics[index].total / solo[index],
        })
        .collect();
    Ok(CoScheduleOutcome {
        tenants: metrics,
        makespan,
        breakdown,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemflow_workloads::{micro_2kb, micro_64mb};

    fn params() -> ExecutionParams {
        ExecutionParams::default()
    }

    #[test]
    fn two_tenants_interfere_but_progress() {
        let tenants = vec![
            Tenant {
                spec: micro_64mb(8),
                config: SchedConfig::S_LOC_W,
            },
            Tenant {
                spec: micro_2kb(8),
                config: SchedConfig::P_LOC_R,
            },
        ];
        let out = execute_coscheduled(&tenants, &params(), None).unwrap();
        assert_eq!(out.tenants.len(), 2);
        // Interference: each at least as slow as solo, but co-scheduling
        // must beat running them back to back.
        for b in &out.breakdown {
            assert!(b.slowdown >= 0.99, "slowdown {}", b.slowdown);
        }
        let serial_stack: f64 = out.breakdown.iter().map(|b| b.solo_total).sum();
        assert!(
            out.makespan < serial_stack,
            "co-scheduling ({}) must beat serial stacking ({serial_stack})",
            out.makespan
        );
    }

    #[test]
    fn bandwidth_bound_tenants_slow_each_other() {
        let tenants = vec![
            Tenant {
                spec: micro_64mb(8),
                config: SchedConfig::S_LOC_W,
            },
            Tenant {
                spec: micro_64mb(8),
                config: SchedConfig::S_LOC_W,
            },
        ];
        let out = execute_coscheduled(&tenants, &params(), None).unwrap();
        // Two identical bandwidth-bound tenants: strong interference.
        for b in &out.breakdown {
            assert!(
                b.slowdown > 1.3,
                "expected >30% slowdown, got {}",
                b.slowdown
            );
        }
    }

    #[test]
    fn capacity_enforced() {
        let tenants = vec![
            Tenant {
                spec: micro_64mb(16),
                config: SchedConfig::S_LOC_W,
            },
            Tenant {
                spec: micro_64mb(16),
                config: SchedConfig::S_LOC_W,
            },
        ];
        // 32 ranks per socket on a 28-core socket: must be rejected.
        assert!(matches!(
            execute_coscheduled(&tenants, &params(), None),
            Err(ExecError::Capacity { requested: 32 })
        ));
    }

    #[test]
    fn empty_tenant_list_rejected() {
        assert!(matches!(
            execute_coscheduled(&[], &params(), None),
            Err(ExecError::Spec(_))
        ));
    }

    #[test]
    fn breakdown_attributes_each_tenant() {
        let tenants = vec![
            Tenant {
                spec: micro_64mb(8),
                config: SchedConfig::S_LOC_W,
            },
            Tenant {
                spec: micro_2kb(8),
                config: SchedConfig::P_LOC_R,
            },
        ];
        let out = execute_coscheduled(&tenants, &params(), None).unwrap();
        assert_eq!(out.breakdown.len(), 2);
        for (i, b) in out.breakdown.iter().enumerate() {
            assert_eq!(b.index, i);
            assert_eq!(b.workflow, tenants[i].spec.name);
            assert_eq!(b.config, tenants[i].config);
            assert_eq!(b.start, 0.0);
            assert!((b.end - out.tenants[i].total).abs() < 1e-12);
            assert!((b.end / b.solo_total - b.slowdown).abs() < 1e-9);
        }
    }

    #[test]
    fn provided_baselines_skip_solo_runs_and_scale_slowdowns() {
        let tenants = vec![Tenant {
            spec: micro_2kb(8),
            config: SchedConfig::P_LOC_R,
        }];
        let solo = crate::executor::execute(&tenants[0].spec, tenants[0].config, &params())
            .unwrap()
            .total;
        let from_sim = execute_coscheduled(&tenants, &params(), None).unwrap();
        let from_cache = execute_coscheduled(&tenants, &params(), Some(&[solo])).unwrap();
        assert_eq!(
            from_sim.breakdown[0].slowdown.to_bits(),
            from_cache.breakdown[0].slowdown.to_bits()
        );
        // A wrong-length baseline slice is a spec error.
        assert!(matches!(
            execute_coscheduled(&tenants, &params(), Some(&[solo, solo])),
            Err(ExecError::Spec(_))
        ));
    }

    #[test]
    fn single_tenant_matches_solo_execution() {
        let t = Tenant {
            spec: micro_2kb(8),
            config: SchedConfig::P_LOC_R,
        };
        let solo = crate::executor::execute(&t.spec, t.config, &params()).unwrap();
        let out = execute_coscheduled(std::slice::from_ref(&t), &params(), None).unwrap();
        assert!((out.tenants[0].total - solo.total).abs() < 1e-9);
        assert!((out.breakdown[0].slowdown - 1.0).abs() < 1e-9);
    }
}
