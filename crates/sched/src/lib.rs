//! # pmemflow-sched — PMEM-aware workflow scheduling
//!
//! The paper ends with recommendations "that have to be considered by
//! future workflow schedulers" (§X); this crate *is* that scheduler, three
//! ways:
//!
//! * [`recommend`] — the rule-based engine: §VIII's three rules as a
//!   decision procedure over a measured [`WorkflowProfile`]
//!   (from [`characterize()`]), with [`table2()`]/[`classify`] providing the
//!   paper's Table II verbatim as a lookup alternative.
//! * [`sweep`](pmemflow_core::sweep) +
//!   [`ConfigSweep::best`](pmemflow_core::ConfigSweep::best), straight
//!   from `pmemflow-core` — the model-driven scheduler: simulate all four
//!   Table I configurations with the calibrated device model and take the
//!   argmin;
//!   [`worst_case_loss_percent`](pmemflow_core::ConfigSweep::worst_case_loss_percent)
//!   is the price of scheduling blindly. [`plan`] and [`sweep_axis`]
//!   build on it.
//! * [`explore_then_commit`] — the adaptive scheduler: probe each
//!   configuration online for a few iterations, then commit; needs no
//!   model at all and has bounded regret on the paper's iterative
//!   workflows.

#![warn(missing_docs)]

mod adaptive;
mod characterize;
mod crossover;
mod planner;
mod profile;
mod rules;
pub mod scorecard;
mod table2;

pub use adaptive::{explore_then_commit, AdaptiveOutcome};
pub use characterize::characterize;
pub use crossover::{sweep_axis, Axis, Crossover, SweepPoint, SweepResult};
pub use planner::{plan, Plan, PlanPoint};
pub use profile::{Level, WorkflowProfile};
pub use rules::{recommend, Decision};
pub use table2::{classify, table2, Table2Row};
