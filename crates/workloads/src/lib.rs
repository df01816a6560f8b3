//! # pmemflow-workloads — the paper's workflow suite
//!
//! Specifications ([`WorkflowSpec`]) and builders for the six workload
//! families of §IV-B — 64 MB and 2 KB microbenchmarks, GTC and miniAMR
//! simulation proxies, read-only and matrix-multiplication analytics — at
//! the three concurrency levels (8/16/24 ranks), together with the paper's
//! per-workload optimal configuration ([`paper_suite`], Table II).
//!
//! The [`kernels`] module contains runnable implementations of the compute
//! kernels the proxies stand for (7-point stencil, particle-in-cell step,
//! dense matmul), used by the examples and the kernel benches, and for
//! calibrating virtual compute durations on real hardware.

#![warn(missing_docs)]

mod apps;
mod import;
pub mod kernels;
mod spec;
mod suite;

pub use apps::{
    gtc_matmul, gtc_readonly, micro_2kb, micro_64mb, miniamr_matmul, miniamr_readonly,
    paper_rank_levels,
};
pub use import::{parse_workflows, ParseError};
pub use spec::{ComponentSpec, ConcurrencyClass, IoPattern, SizeClass, WorkflowSpec};
pub use suite::{
    canonical_workload_name, paper_suite, Family, SuiteEntry, WORKLOAD_ALIASES, WORKLOAD_CHOICES,
};
