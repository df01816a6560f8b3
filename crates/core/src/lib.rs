//! # pmemflow-core — in situ workflow execution over shared PMEM
//!
//! The study harness of the reproduction: the paper's scheduler
//! configuration space (Table I), an executor that deploys a coupled
//! simulation+analytics workflow onto the modeled dual-socket node and
//! runs it through the fluid discrete-event engine, and the measurement
//! types behind every figure.
//!
//! ```
//! use pmemflow_core::{execute, sweep, ExecutionParams, SchedConfig};
//! use pmemflow_workloads::micro_64mb;
//!
//! let params = ExecutionParams::default();
//! let sweep = sweep(&micro_64mb(8), &params).unwrap();
//! println!(
//!     "best config for micro-64MB@8: {} ({:.1}s)",
//!     sweep.best().config,
//!     sweep.best().total
//! );
//! ```

#![warn(missing_docs)]

mod config;
mod coschedule;
mod executor;
mod metrics;
pub mod report;
mod runner;
pub mod sync;

pub use config::{ExecMode, Placement, SchedConfig};
pub use coschedule::{execute_coscheduled, CoScheduleOutcome, Tenant, TenantBreakdown};
pub use executor::{
    check_fit, execute, execute_component_standalone, sweep, ExecError, ExecutionParams,
    StandaloneReport, CORES_PER_SOCKET,
};
pub use metrics::{ComponentMetrics, ConfigSweep, RunMetrics};
pub use runner::{full_matrix, map_ordered, run_matrix, RunOutcome, RunRequest};
