//! # pmemflow-cluster — online multi-node campaign scheduling
//!
//! The paper schedules one workflow onto one dual-socket PMEM node. This
//! crate asks the operational question a facility faces next: given a
//! *stream* of such workflows arriving at a *cluster* of those nodes,
//! which queue policy serves them best when co-located tenants contend
//! for the shared PMEM devices?
//!
//! Three layers:
//!
//! * [`ArrivalSpec`] — deterministic workflow arrival streams (Poisson,
//!   closed-loop, trace-file) over the paper's 18-workload suite, plus
//!   DAG-shaped submissions (`mix=dag`): whole generated stage graphs
//!   of a [`DagClass`] that the campaign expands into dependency-gated
//!   stage jobs.
//! * [`Oracle`] — the shared prediction oracle: per-workload
//!   configuration sweeps and the one co-run memo through the real
//!   device model. It interns each tenant identity to a dense id and
//!   memoizes co-runs on rank-sorted id multisets; the campaign prices
//!   resident ids directly, and the key-based entry points
//!   ([`Oracle::corun_slowdowns`], [`Oracle::corun_breakdown`]) intern
//!   and take the same path.
//! * [`Policy`] + [`run_campaign_with_oracle`] — four pluggable queue
//!   policies (FCFS, EASY backfill, Table II rules, interference-aware
//!   best fit) driven by an event loop that re-prices node interference
//!   on every resident-set change and emits per-job queueing metrics as
//!   deterministic JSONL.
//!
//! PMEM staging capacity is a second schedulable resource: a DAG's
//! staging footprint (the sum of its edge volumes, GiB) is co-reserved
//! with compute on the DAG's home node for its lifetime, every policy
//! respects the reservation (EASY backfill holds dual-resource shadow
//! reservations; the interference-aware policy prices staging pressure),
//! and per-node peaks are reported in the campaign JSONL.
//!
//! Campaigns can also run under a seeded fault plan ([`FaultSpec`],
//! [`CheckpointSpec`]): node crashes and transient PMEM degradation
//! interrupt residents, jobs checkpoint into local PMEM (charged through
//! the I/O-stack cost model) and restart from their last image with
//! retry budgets and exponential backoff — all byte-reproducible.
//!
//! ```no_run
//! use pmemflow_cluster::{
//!     run_campaign_with_oracle, ArrivalSpec, CampaignConfig, CheckpointSpec, FaultSpec, Fcfs,
//!     Oracle,
//! };
//!
//! let config = CampaignConfig {
//!     nodes: 4,
//!     arrivals: ArrivalSpec::parse("poisson:rate=0.01,n=200,mix=gtc+miniamr").unwrap(),
//!     seed: 42,
//!     faults: FaultSpec { seed: 7, mtbf: 5000.0, repair: 120.0, ..FaultSpec::default() },
//!     checkpoint: CheckpointSpec { interval: 60.0, ..CheckpointSpec::default() },
//!     ..CampaignConfig::default()
//! };
//! let oracle = Oracle::build(&config.arrivals.alphabet(), &config.exec, 4).unwrap();
//! let outcome = run_campaign_with_oracle(&config, &Fcfs, &oracle).unwrap();
//! println!("{}", outcome.to_jsonl());
//! ```

#![warn(missing_docs)]

mod arrivals;
mod campaign;
mod fault;
mod policy;
mod predict;
mod stage_graph;

pub use arrivals::{ArrivalSpec, TraceRow};
pub use campaign::{run_campaign_with_oracle, CampaignConfig, CampaignOutcome, ClusterError};
pub use fault::{CheckpointSpec, FaultSpec};
pub use policy::{
    all_policies, policy_by_name, Fcfs, NodeView, Placement, Policy, QueuedJob, POLICY_CHOICES,
};
pub use predict::{Oracle, TenantKey};
pub use stage_graph::DagClass;
