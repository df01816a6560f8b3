//! Processes: the actors of the simulation.
//!
//! A process models one execution context — in this system, one MPI rank of
//! a workflow component. A process is a script: the list of [`Action`]s
//! handed to [`crate::Simulation::spawn`]. The engine performs them in
//! order, starting the next one when the previous completes, and the
//! process finishes when its script runs out. Rank scripts (compute → I/O →
//! publish → repeat) are fully known before a run starts, so no process
//! needs to decide anything at run time.

use crate::flow::FlowAttrs;
use crate::time::SimDuration;

/// Identifier of a process within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ProcessId(pub usize);

/// Identifier of a fluid resource (e.g. one PMEM device) within a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ResourceId(pub usize);

/// Identifier of a version channel used for writer/reader synchronization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChannelId(pub usize);

/// One step of a process's script.
#[derive(Debug, Clone)]
pub enum Action {
    /// Spend `0` seconds of pure CPU time (a compute phase). The engine
    /// assumes ranks are pinned 1:1 to cores, so compute never contends.
    Compute(SimDuration),
    /// Move bytes through a fluid resource. Completes when all bytes have
    /// been transferred at the allocator-assigned (time-varying) rate.
    Io {
        /// Which resource carries the flow.
        resource: ResourceId,
        /// Total bytes to move (object payloads of one I/O phase or batch).
        bytes: f64,
        /// Flow attributes used by the rate allocator.
        attrs: FlowAttrs,
    },
    /// Park until `version` (or later) has been published on `channel`.
    /// Completes immediately if it already has been.
    WaitVersion {
        /// Channel to watch.
        channel: ChannelId,
        /// Minimum version to wait for.
        version: u64,
    },
    /// Publish `version` on `channel`, waking any processes waiting for it
    /// or an earlier version. Instantaneous.
    Publish {
        /// Channel to publish on.
        channel: ChannelId,
        /// Version number being made visible.
        version: u64,
    },
    /// Record a named instant in the process's timeline (e.g. "io-start").
    /// Instantaneous; used to split end-to-end time into phases.
    Mark(&'static str),
}
