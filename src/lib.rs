//! # pmemflow — scheduling HPC workflows with (simulated) Intel Optane PMEM
//!
//! A full reproduction of *Scheduling HPC Workflows with Intel Optane
//! Persistent Memory* (Venkatesh, Mason, Fernando, Eisenhauer, Gavrilovska
//! — IPDPS 2021), built as a workspace of substrates:
//!
//! | crate | what it provides |
//! |-------|------------------|
//! | [`des`] | deterministic fluid discrete-event engine |
//! | [`pmem`] | Optane gen-1 device model + byte-accurate region with crash semantics |
//! | [`iostack`] | functional NOVA-like fs and NVStream-like object store |
//! | [`workloads`] | the paper's 18-workload suite + real proxy kernels |
//! | [`core`] | Table I configurations, dual-socket deployment, workflow executor, metrics |
//! | [`sched`] | rule-based and adaptive PMEM-aware schedulers; the model-driven pick is [`sweep`] + [`ConfigSweep::best`](core::ConfigSweep::best) |
//! | [`fault`] | deterministic seeded fault plans: crashes, degradation, job failures |
//! | [`dag`] | workflow stage graphs with PMEM staging footprints + seeded generator |
//! | [`cluster`] | online multi-node campaign scheduling over arrival streams |
//! | [`serve`] | concurrent model-serving HTTP daemon with result cache + backpressure |
//!
//! This facade re-exports each crate under a short name and the most
//! common types at the top level.
//!
//! ## Quickstart
//!
//! ```
//! use pmemflow::{sweep, ExecutionParams};
//! use pmemflow::workloads::micro_64mb;
//!
//! // Run the paper's 64 MB microbenchmark at 24 ranks under all four
//! // scheduler configurations (Table I) on the modeled testbed.
//! let result = sweep(&micro_64mb(24), &ExecutionParams::default()).unwrap();
//! println!("winner: {} in {:.1} virtual seconds", result.best().config, result.best().total);
//! // The paper's Fig. 4c finding: serial, local-write/remote-read wins.
//! assert_eq!(result.best().config.label(), "S-LocW");
//! ```

#![warn(missing_docs)]

pub mod cli;

pub use pmemflow_cluster as cluster;
pub use pmemflow_core as core;
pub use pmemflow_dag as dag;
pub use pmemflow_des as des;
pub use pmemflow_fault as fault;
pub use pmemflow_iostack as iostack;
pub use pmemflow_pmem as pmem;
pub use pmemflow_sched as sched;
pub use pmemflow_serve as serve;
pub use pmemflow_workloads as workloads;

pub use pmemflow_core::{
    execute, full_matrix, map_ordered, run_matrix, sweep, ExecutionParams, RunOutcome, RunRequest,
    SchedConfig,
};
pub use pmemflow_sched::{characterize, explore_then_commit};
pub use pmemflow_workloads::paper_suite;
