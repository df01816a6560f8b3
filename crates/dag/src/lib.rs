//! # pmemflow-dag — workflow DAGs with PMEM staging footprints
//!
//! The paper's scheduling unit is one simulation writer coupled to one
//! analytics reader. The related work goes further: SIM-SITU
//! (arXiv:2112.15067) simulates full multi-stage in-situ workflow DAGs,
//! and Kopański (arXiv:2111.10200) co-allocates burst-buffer
//! reservations alongside compute. This crate generalizes the workload
//! model to that shape:
//!
//! * [`DagSpec`] — a stage graph. Nodes ([`StageSpec`]) are
//!   writer/reader/analytics/checkpoint stages, each an instance of one
//!   of the six paper workload families at a paper rank level; edges
//!   ([`DagEdge`]) carry data volumes that are staged through PMEM
//!   between stages, priced through the iostack snapshot path
//!   ([`stage_io_seconds`]).
//! * [`DagSpec::validate`] rejects cycles (Kahn's algorithm) and
//!   malformed edges before a graph reaches a campaign.
//! * A seeded generator ([`generate`]) over four DAG classes
//!   ([`DagClass`]: pipeline, fan-out, fan-in, diamond) that multiplies
//!   the 18-workload suite into hundreds of scenarios.
//!
//! The cluster side (`pmemflow-cluster`) lowers each ready stage onto
//! the existing co-schedule/pricing machinery and treats the DAG's
//! staging footprint (the sum of edge volumes) as a second schedulable
//! resource co-reserved with compute.

#![warn(missing_docs)]

mod generate;
mod graph;
mod schedule;

pub use generate::{generate, DagClass};
pub use graph::{DagEdge, DagError, DagSpec, StageKind, StageSpec, GIB};
pub use schedule::stage_io_seconds;
