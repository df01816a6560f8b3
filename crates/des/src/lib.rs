//! # pmemflow-des — deterministic fluid discrete-event engine
//!
//! The simulation substrate for the `pmemflow` reproduction of *Scheduling
//! HPC Workflows with Intel Optane Persistent Memory* (IPDPS 2021).
//!
//! The engine combines two classical techniques:
//!
//! * **Discrete events** for compute phases and synchronization (version
//!   channels between workflow writers and readers), and
//! * **Fluid-flow modeling** for I/O: a rank's whole I/O phase is a *flow*
//!   with a byte total; a pluggable [`RateAllocator`] (the Optane device
//!   model lives in `pmemflow-pmem`) assigns every concurrent flow a rate,
//!   re-evaluated exactly at the instants the flow set changes. Between
//!   changes rates are constant, so the integration is exact. Flows with
//!   equal attributes form a [`FlowClass`]; each resource keeps its live
//!   flows counted by class, and the allocator sees one [`ClassView`] per
//!   class, never the flows themselves.
//!
//! This keeps event counts bounded by the number of *phases*, not the number
//! of object operations — essential when a single 2 KB-object workload from
//! the paper performs half a million operations per rank per iteration.
//!
//! Everything is deterministic: same inputs, bit-identical output.
//!
//! A process is a script: the list of [`Action`]s a rank performs in
//! order — compute, move bytes, publish or wait for a version — handed to
//! [`Simulation::spawn`]. It finishes when its script runs out.
//!
//! ```
//! use pmemflow_des::{
//!     Action, FairShareAllocator, Direction, FlowAttrs, Locality, SimDuration, Simulation,
//! };
//!
//! let mut sim = Simulation::new();
//! let dev = sim.add_resource(Box::new(FairShareAllocator::new(2e9)));
//! sim.spawn(
//!     "rank0",
//!     vec![
//!         Action::Compute(SimDuration(1.0)),
//!         Action::Io {
//!             resource: dev,
//!             bytes: 4e9,
//!             attrs: FlowAttrs {
//!                 direction: Direction::Write,
//!                 locality: Locality::Local,
//!                 access_bytes: 64 << 20,
//!                 sw_time_per_byte: 0.0,
//!                 peak_device_rate: 2.3e9,
//!             },
//!         },
//!     ],
//! );
//! let report = sim.run().unwrap();
//! assert!(report.end_time.seconds() > 1.0);
//! ```

#![warn(missing_docs)]

mod engine;
mod flow;
mod json;
mod process;
pub mod rng;
mod stats;
mod time;
mod trace;

pub use engine::{SimError, Simulation};
pub use flow::{
    water_fill, ClassView, Direction, FairShareAllocator, FlowAttrs, FlowClass, Locality,
    RateAllocator, UncontendedAllocator,
};
pub use json::{json_escape, json_f64, write_json_escaped, write_json_f64};
pub use process::{Action, ChannelId, ProcessId, ResourceId};
pub use stats::{ProcessReport, ResourceReport, SimReport};
pub use time::{SimDuration, SimTime};
pub use trace::{ProcessTimeline, Span, SpanKind, Timeline};
