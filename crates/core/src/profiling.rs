//! The process-wide self-profiling switch.
//!
//! Wall-clock timers inside hot loops can cost as much as the work they
//! time (a pair of clock reads takes about 100 ns on a 2-vCPU VM, as
//! long as a warm campaign re-pricing), so every such timer in the
//! workspace sits behind this one switch, off by default. A timed
//! subsystem reads the switch once when it starts (a campaign, not each
//! re-pricing inside it) and times nothing when it is off. Timing never
//! changes output bytes, so the switch selects only whether the timing
//! diagnostics read real values or zero.
//!
//! The switch is a relaxed atomic: it orders nothing, and a subsystem
//! that started before a flip keeps the value it read.

use std::sync::atomic::{AtomicBool, Ordering};

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Turn self-profiling on or off for everything that starts afterwards.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether self-profiling is on.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}
