//! The rule-based scheduler: §VIII's recommendations as a decision
//! procedure.
//!
//! The paper distills its observations into three rules (§VIII):
//!
//! 1. **Maximize effective bandwidth by limiting concurrent device
//!    accesses** — workflows whose components drive high *effective*
//!    concurrency at the device should run serially; low-concurrency
//!    workflows benefit from parallel execution.
//! 2. **Placement follows the bottleneck** — bandwidth-constrained
//!    workflows prioritize writes (local-write/remote-read) because remote
//!    writes degrade far more than remote reads; unconstrained workflows
//!    prioritize reads (remote-write/local-read) because reads wait for
//!    the media while writes complete at the controller.
//! 3. **Interleaved compute hides contention and remote latency** — a
//!    compute-heavy analytics kernel tolerates remote reads, letting the
//!    placement favor an I/O-heavy simulation even when bandwidth is not
//!    saturated (Table II row 8).
//!
//! The decision keys on *measured* quantities from
//! [`crate::characterize()`], not rank counts: the paper is explicit that
//! "the actual level of concurrency experienced by PMEM is a complex
//! function of the number of MPI ranks, software overhead … and
//! interleaving compute" (§VIII).

use crate::profile::{Level, WorkflowProfile};
use pmemflow_core::{ExecMode, Placement, SchedConfig};

/// Combined effective device concurrency above which components must not
/// overlap (serial execution). §VIII: "low concurrency" ≈ 8 cores per
/// component, serial above that. The bandwidth-constraint cut (~70% of
/// device write capacity) is [`WorkflowProfile::is_bandwidth_constrained`].
const SERIAL_CONCURRENCY: f64 = 11.0;

/// Why the rule engine chose what it chose (for reports and debugging).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Decision {
    /// The chosen configuration.
    pub config: SchedConfig,
    /// Which §VIII rules fired, in order.
    pub reasons: Vec<&'static str>,
}

/// Apply the §VIII rules to a characterized workflow.
pub fn recommend(profile: &WorkflowProfile) -> Decision {
    let mut reasons = Vec::new();

    // Rule 1: serial vs parallel by combined effective device concurrency,
    // with §VIII's carve-out: a pure-I/O, bandwidth-constrained workflow
    // gains nothing from overlap ("the 64MB workflow at 8 MPI ranks …
    // there are no compute phases. Hence it is executed in S-LocW").
    let combined = profile.combined_device_concurrency();
    let pure_io = profile.sim_compute == Level::Nil && profile.analytics_compute == Level::Nil;
    // §VIII rule 3: interleaved compute on the analytics side reduces the
    // effective contention of overlapping I/O, keeping parallel execution
    // viable at moderate concurrency where a read-only kernel would chase
    // the writer's I/O windows.
    let hiding = profile.analytics_compute >= Level::Low;
    let mode = if combined > SERIAL_CONCURRENCY && !(hiding && combined <= SERIAL_CONCURRENCY * 1.5)
    {
        reasons.push(
            "high effective device concurrency: serialize components to limit \
             contention (§VIII rule 1)",
        );
        ExecMode::Serial
    } else if pure_io && profile.is_bandwidth_constrained() {
        reasons.push(
            "pure-I/O bandwidth-constrained workflow: overlap has nothing to \
             hide, serialize to keep full bandwidth per phase (§VIII rule 1 \
             carve-out)",
        );
        ExecMode::Serial
    } else {
        reasons.push(
            "low effective device concurrency: overlap components in parallel \
             (§VIII rule 1)",
        );
        ExecMode::Parallel
    };

    // Rules 2 & 3: placement.
    let placement = if profile.is_bandwidth_constrained() {
        reasons.push(
            "write bandwidth constrained: prioritize writes with local-write/\
             remote-read placement (§VIII rule 2)",
        );
        Placement::LocW
    } else if profile.analytics_compute >= Level::Medium
        && profile.sim_write >= Level::High
        && profile.analytics_read <= Level::Low
    {
        reasons.push(
            "compute-heavy analytics hides remote read latency while the \
             I/O-heavy simulation benefits from local writes (§VIII rule 3, \
             Table II row 8)",
        );
        Placement::LocW
    } else {
        reasons.push(
            "bandwidth not constrained: prioritize read latency with \
             remote-write/local-read placement (§VIII rule 2)",
        );
        Placement::LocR
    };

    Decision {
        config: SchedConfig { mode, placement },
        reasons,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::Level;
    use pmemflow_workloads::{ConcurrencyClass, SizeClass};

    fn base_profile() -> WorkflowProfile {
        WorkflowProfile {
            name: "t".into(),
            sim_compute: Level::Nil,
            sim_write: Level::High,
            analytics_compute: Level::Nil,
            analytics_read: Level::High,
            object_size: SizeClass::Large,
            concurrency: ConcurrencyClass::High,
            sim_io_index: 1.0,
            analytics_io_index: 1.0,
            sim_device_concurrency: 20.0,
            analytics_device_concurrency: 20.0,
            write_saturation: 0.95,
        }
    }

    #[test]
    fn saturated_high_concurrency_gets_s_locw() {
        let d = recommend(&base_profile());
        assert_eq!(d.config, SchedConfig::S_LOC_W);
        assert_eq!(d.reasons.len(), 2);
    }

    #[test]
    fn unsaturated_high_concurrency_gets_s_locr() {
        let mut p = base_profile();
        p.write_saturation = 0.3;
        p.sim_device_concurrency = 10.0;
        p.analytics_device_concurrency = 8.0;
        let d = recommend(&p);
        assert_eq!(d.config, SchedConfig::S_LOC_R);
    }

    #[test]
    fn unsaturated_low_concurrency_gets_p_locr() {
        let mut p = base_profile();
        p.write_saturation = 0.3;
        p.sim_device_concurrency = 4.0;
        p.analytics_device_concurrency = 3.0;
        let d = recommend(&p);
        assert_eq!(d.config, SchedConfig::P_LOC_R);
    }

    #[test]
    fn compute_heavy_analytics_flips_to_locw() {
        // Table II row 8: miniAMR+MatrixMult at low concurrency.
        let mut p = base_profile();
        p.write_saturation = 0.5;
        p.sim_device_concurrency = 5.0;
        p.analytics_device_concurrency = 2.0;
        p.analytics_compute = Level::High;
        p.analytics_read = Level::Low;
        p.sim_write = Level::High;
        let d = recommend(&p);
        assert_eq!(d.config, SchedConfig::P_LOC_W);
        assert!(d.reasons.iter().any(|r| r.contains("rule 3")));
    }

    #[test]
    fn reasons_cite_rules() {
        let d = recommend(&base_profile());
        for r in &d.reasons {
            assert!(r.contains("§VIII"));
        }
    }
}
