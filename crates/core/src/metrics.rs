//! End-to-end measurements of one workflow execution.
//!
//! Mirrors the paper's methodology (§V "Measurements"): end-to-end runtime
//! for every run; for serial runs, the split into writer and reader phases
//! (the split bar graphs of Figs. 4–9) to attribute placement effects.

use crate::config::SchedConfig;
use pmemflow_des::ResourceReport;

/// Per-component aggregates (means over ranks).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ComponentMetrics {
    /// Mean seconds a rank spent in kernel compute.
    pub compute_time: f64,
    /// Mean seconds a rank spent with an I/O flow in flight.
    pub io_time: f64,
    /// Mean seconds a rank spent waiting on versions.
    pub wait_time: f64,
    /// Total times the component's ranks parked on a version channel.
    pub channel_waits: u64,
    /// Instant the slowest rank of the component finished.
    pub finish_time: f64,
    /// Total bytes the component moved.
    pub bytes: f64,
}

impl ComponentMetrics {
    /// I/O index as defined in §IV-C: I/O time over iteration (busy) time.
    /// Meaningful when measured standalone, serially, with local PMEM.
    pub fn io_index(&self) -> f64 {
        let busy = self.compute_time + self.io_time;
        if busy <= 0.0 {
            0.0
        } else {
            self.io_time / busy
        }
    }
}

/// Complete measurements of one workflow execution under one configuration.
#[derive(Debug, Clone)]
pub struct RunMetrics {
    /// The configuration that produced this run.
    pub config: SchedConfig,
    /// End-to-end runtime, seconds (both components finished).
    pub total: f64,
    /// Writer-side aggregates.
    pub writer: ComponentMetrics,
    /// Reader-side aggregates.
    pub reader: ComponentMetrics,
    /// Device traffic/occupancy report.
    pub device: ResourceReport,
    /// Events processed by the engine (diagnostics).
    pub events: u64,
    /// Largest event-heap depth the engine observed (diagnostics).
    pub max_heap_depth: usize,
    /// Per-rank span timelines when requested
    /// ([`crate::ExecutionParams::record_timeline`]).
    pub timeline: Option<pmemflow_des::Timeline>,
}

impl RunMetrics {
    /// For serially executed workflows the paper splits the bar into the
    /// writer phase and the reader phase; the writer phase ends when the
    /// last writer finishes.
    pub fn serial_split(&self) -> (f64, f64) {
        let w = self.writer.finish_time;
        (w, (self.total - w).max(0.0))
    }

    /// Effective end-to-end throughput: bytes written + read over runtime.
    pub fn throughput(&self) -> f64 {
        if self.total <= 0.0 {
            0.0
        } else {
            (self.writer.bytes + self.reader.bytes) / self.total
        }
    }
}

/// Results of a workflow across all four configurations.
#[derive(Debug, Clone)]
pub struct ConfigSweep {
    /// Workflow name.
    pub workflow: String,
    /// One entry per configuration, in [`SchedConfig::ALL`] order.
    pub runs: Vec<RunMetrics>,
}

impl ConfigSweep {
    /// The best (minimum-runtime) configuration.
    pub fn best(&self) -> &RunMetrics {
        self.runs
            .iter()
            .min_by(|a, b| a.total.total_cmp(&b.total))
            .expect("sweep has runs")
    }

    /// The worst configuration.
    pub fn worst(&self) -> &RunMetrics {
        self.runs
            .iter()
            .max_by(|a, b| a.total.total_cmp(&b.total))
            .expect("sweep has runs")
    }

    /// Runtime of `config` normalized to the best configuration (≥ 1.0);
    /// the metric of the paper's Fig. 10.
    pub fn normalized(&self, config: SchedConfig) -> f64 {
        let best = self.best().total;
        let run = self
            .runs
            .iter()
            .find(|r| r.config == config)
            .expect("config present in sweep");
        run.total / best
    }

    /// Percent slowdown of the worst configuration vs the best,
    /// worst/best − 1. The paper's "up to 69–70 %" reads as
    /// (worst − best)/worst instead (the scorecard's `spread` row).
    pub fn worst_case_loss_percent(&self) -> f64 {
        (self.worst().total / self.best().total - 1.0) * 100.0
    }

    /// The run for a specific configuration.
    pub fn run(&self, config: SchedConfig) -> &RunMetrics {
        self.runs
            .iter()
            .find(|r| r.config == config)
            .expect("config present in sweep")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn metrics(config: SchedConfig, total: f64, writer_finish: f64) -> RunMetrics {
        RunMetrics {
            config,
            total,
            writer: ComponentMetrics {
                finish_time: writer_finish,
                bytes: 10.0,
                ..Default::default()
            },
            reader: ComponentMetrics {
                finish_time: total,
                bytes: 10.0,
                ..Default::default()
            },
            device: ResourceReport::default(),
            events: 0,
            max_heap_depth: 0,
            timeline: None,
        }
    }

    fn sweep() -> ConfigSweep {
        ConfigSweep {
            workflow: "t".into(),
            runs: vec![
                metrics(SchedConfig::S_LOC_W, 10.0, 6.0),
                metrics(SchedConfig::S_LOC_R, 12.0, 8.0),
                metrics(SchedConfig::P_LOC_W, 17.0, 15.0),
                metrics(SchedConfig::P_LOC_R, 11.0, 9.0),
            ],
        }
    }

    #[test]
    fn best_and_worst() {
        let s = sweep();
        assert_eq!(s.best().config, SchedConfig::S_LOC_W);
        assert_eq!(s.worst().config, SchedConfig::P_LOC_W);
        assert!((s.worst_case_loss_percent() - 70.0).abs() < 1e-9);
    }

    #[test]
    fn normalization() {
        let s = sweep();
        assert!((s.normalized(SchedConfig::S_LOC_W) - 1.0).abs() < 1e-12);
        assert!((s.normalized(SchedConfig::S_LOC_R) - 1.2).abs() < 1e-12);
    }

    #[test]
    fn serial_split_sums_to_total() {
        let m = metrics(SchedConfig::S_LOC_W, 10.0, 6.0);
        let (w, r) = m.serial_split();
        assert_eq!(w, 6.0);
        assert_eq!(r, 4.0);
    }

    #[test]
    fn io_index_bounds() {
        let mut c = ComponentMetrics::default();
        assert_eq!(c.io_index(), 0.0);
        c.io_time = 3.0;
        c.compute_time = 1.0;
        assert!((c.io_index() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn throughput() {
        let m = metrics(SchedConfig::S_LOC_W, 10.0, 6.0);
        assert!((m.throughput() - 2.0).abs() < 1e-12);
    }
}
