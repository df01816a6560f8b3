//! Workflow characterization: the feature vector scheduling decides on.
//!
//! Table II describes workloads by qualitative levels of simulation
//! compute/write intensity, analytics compute/read intensity, object size
//! and concurrency. [`WorkflowProfile`] is that row, plus the quantitative
//! measurements it was derived from (I/O indexes as defined in §IV-C, and
//! the *effective device concurrency* §VIII identifies as the real control
//! variable).

use pmemflow_workloads::{ConcurrencyClass, SizeClass};

/// Qualitative intensity level, as used by Table II.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Absent (e.g. a read-only kernel's compute phase).
    Nil,
    /// Low.
    Low,
    /// Medium.
    Medium,
    /// High.
    High,
}

impl Level {
    /// Classify an I/O index (0..1): the fraction of a component's
    /// iteration spent in I/O when run standalone with local PMEM.
    pub(crate) fn from_io_index(idx: f64) -> Level {
        if idx >= 0.6 {
            Level::High
        } else if idx >= 0.3 {
            Level::Medium
        } else if idx > 0.02 {
            Level::Low
        } else {
            Level::Nil
        }
    }

    /// Classify a compute share (1 − I/O index).
    pub(crate) fn from_compute_share(share: f64) -> Level {
        if share >= 0.6 {
            Level::High
        } else if share >= 0.3 {
            Level::Medium
        } else if share > 0.02 {
            Level::Low
        } else {
            Level::Nil
        }
    }

    /// Display label matching the paper's tables.
    pub fn label(self) -> &'static str {
        match self {
            Level::Nil => "nil",
            Level::Low => "low",
            Level::Medium => "medium",
            Level::High => "high",
        }
    }
}

/// The characterization of one workflow, in Table II terms plus the
/// measurements behind them.
#[derive(Debug, Clone)]
pub struct WorkflowProfile {
    /// Workflow name.
    pub name: String,
    /// Simulation compute intensity.
    pub sim_compute: Level,
    /// Simulation write intensity (its I/O index).
    pub sim_write: Level,
    /// Analytics compute intensity.
    pub analytics_compute: Level,
    /// Analytics read intensity (its I/O index).
    pub analytics_read: Level,
    /// Object granularity class.
    pub object_size: SizeClass,
    /// Rank-count class.
    pub concurrency: ConcurrencyClass,

    /// Measured writer I/O index (standalone, serial, local PMEM; §IV-C).
    pub sim_io_index: f64,
    /// Measured reader I/O index.
    pub analytics_io_index: f64,
    /// Mean effective device concurrency of the writer's I/O phases.
    pub sim_device_concurrency: f64,
    /// Mean effective device concurrency of the reader's I/O phases.
    pub analytics_device_concurrency: f64,
    /// Fraction of the local write capacity the writer saturates
    /// standalone (≥ ~0.7 means the workflow is bandwidth-constrained).
    pub write_saturation: f64,
}

impl WorkflowProfile {
    /// Whether the workflow constrains PMEM write bandwidth — the paper's
    /// placement criterion (§VIII: "Workflows which constrain the
    /// bandwidth should prioritize writes over reads").
    pub fn is_bandwidth_constrained(&self) -> bool {
        self.write_saturation >= 0.72
    }

    /// Combined effective device concurrency if both components ran their
    /// I/O at once — the §VIII control variable for serial vs parallel.
    pub fn combined_device_concurrency(&self) -> f64 {
        self.sim_device_concurrency + self.analytics_device_concurrency
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_from_io_index() {
        assert_eq!(Level::from_io_index(0.95), Level::High);
        assert_eq!(Level::from_io_index(0.45), Level::Medium);
        assert_eq!(Level::from_io_index(0.1), Level::Low);
        assert_eq!(Level::from_io_index(0.0), Level::Nil);
    }

    #[test]
    fn levels_are_ordered() {
        assert!(Level::Nil < Level::Low);
        assert!(Level::Low < Level::Medium);
        assert!(Level::Medium < Level::High);
    }

    #[test]
    fn compute_share_is_complement() {
        assert_eq!(Level::from_compute_share(0.9), Level::High);
        assert_eq!(Level::from_compute_share(0.01), Level::Nil);
    }
}
