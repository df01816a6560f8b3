//! # pmemflow-pmem — the Intel Optane DC PMEM model
//!
//! This crate is the substitute for the hardware the paper ran on (see
//! `DESIGN.md` §2): a performance model of first-generation Optane DC
//! Persistent Memory in AppDirect interleaved mode, plus a byte-accurate
//! [`PmemRegion`] with flush/fence persistence semantics and crash
//! injection for the functional I/O stacks.
//!
//! Layers:
//!
//! * [`Curve`] / [`DeviceProfile`] — every empirical constant of the model,
//!   sourced from the paper (§II-B) and the measurement studies it cites.
//! * [`OptaneAllocator`] — the fluid rate allocator plugged into
//!   `pmemflow-des`, turning concurrent flow sets into per-flow bandwidth
//!   under contention, locality, granularity and mixing effects.
//! * [`PmemRegion`] — real bytes with durability tracking.
//! * [`bandwidth_table`] / [`headline_ratios`] / [`device_report`] —
//!   §II-B characterization tables regenerated from the model.

#![warn(missing_docs)]

mod allocator;
mod curves;
mod devicebench;
mod profile;
mod region;

pub use allocator::OptaneAllocator;
pub use curves::Curve;
pub use devicebench::{
    bandwidth_table, device_report, headline_ratios, BandwidthRow, HeadlineRatios,
};
pub use profile::{DeviceProfile, GB};
pub use region::{PmemRegion, StoreMode};
