//! # pmemflow-iostack — the two PMEM I/O stacks of the paper
//!
//! The paper evaluates every workflow on two transports (§V) because the
//! software cost of the stack changes which scheduling configuration wins:
//!
//! * [`NovaFs`] — a user-level functional reimplementation of the NOVA
//!   log-structured PMEM filesystem (per-inode logs, separate data area,
//!   lightweight journaling, checksummed recovery), with the kernel-path
//!   costs captured in [`StackCostModel`].
//! * [`NvStore`] — an NVStream-like userspace versioned object store
//!   (append-only log, non-temporal payload stores, two-step tail commit).
//!
//! Both stacks store **real bytes** in a [`pmemflow_pmem::PmemRegion`] and survive
//! injected crashes ([`CrashPoint`]) with their consistency invariants
//! intact — the durability contract the paper's workflows assume of their
//! streaming channel. The [`StackCostModel`]s feed the fluid performance
//! model in `pmemflow-core`.

#![warn(missing_docs)]

mod codec;
mod cost;
mod hash;
mod nova;
mod nvstream;
mod store;

pub use cost::{StackCostModel, StackKind};
pub use hash::fnv1a;
pub use nova::NovaFs;
pub use nvstream::NvStore;
pub use store::{CrashPoint, ObjectStore, StoreError};
