//! Per-process and per-resource accounting collected during a run.

use crate::flow::{Direction, FlowAttrs, Locality};
use crate::time::{SimDuration, SimTime};
use std::collections::BTreeMap;

/// Everything measured about one process over a run.
#[derive(Debug, Clone, Default)]
pub struct ProcessReport {
    /// Name the process was spawned with.
    pub name: String,
    /// Total virtual time spent in `Compute` actions.
    pub compute_time: SimDuration,
    /// Total virtual time spent with an active I/O flow (submission to
    /// completion, software overhead included).
    pub io_time: SimDuration,
    /// Total bytes moved by this process's flows.
    pub io_bytes: f64,
    /// Total virtual time spent parked on `WaitVersion`.
    pub wait_time: SimDuration,
    /// Number of times the process actually parked on a version channel
    /// (waits satisfied instantly are not counted).
    pub channel_waits: u64,
    /// Instant the process returned `Done`, if it did.
    pub finished_at: Option<SimTime>,
    /// Named instants recorded via `Action::Mark`, in order.
    pub marks: Vec<(SimTime, &'static str)>,
}

impl ProcessReport {
    /// The first mark with the given label, if any.
    pub fn mark(&self, label: &str) -> Option<SimTime> {
        self.marks
            .iter()
            .find(|(_, l)| *l == label)
            .map(|(t, _)| *t)
    }
}

/// Traffic and occupancy accounting for one fluid resource.
#[derive(Debug, Clone, Default)]
pub struct ResourceReport {
    /// Allocator name.
    pub name: String,
    /// Bytes moved, keyed by flow class.
    pub bytes_by_class: BTreeMap<(&'static str, &'static str), f64>,
    /// Virtual time during which at least one flow was active.
    pub busy_time: SimDuration,
    /// Time-integral of the number of active flows (divide by the run length
    /// for average concurrency).
    pub concurrency_integral: f64,
    /// Largest number of simultaneously active flows observed.
    pub peak_concurrency: usize,
    /// Number of flow completions.
    pub flows_completed: u64,
}

impl ResourceReport {
    pub(crate) fn record_interval(&mut self, dt: SimDuration, n_active: usize) {
        if n_active > 0 {
            self.busy_time += dt;
            self.concurrency_integral += dt.seconds() * n_active as f64;
        }
    }

    /// Total bytes moved through the resource.
    pub fn total_bytes(&self) -> f64 {
        self.bytes_by_class.values().sum()
    }

    /// Average concurrency while busy (0 if never busy).
    pub fn mean_busy_concurrency(&self) -> f64 {
        if self.busy_time.is_zero() {
            0.0
        } else {
            self.concurrency_integral / self.busy_time.seconds()
        }
    }

    /// Effective throughput while busy, bytes/second.
    pub fn busy_throughput(&self) -> f64 {
        if self.busy_time.is_zero() {
            0.0
        } else {
            self.total_bytes() / self.busy_time.seconds()
        }
    }
}

/// Bytes moved per (direction, locality) class, as `(touched, sum)`.
///
/// The engine adds to these on every settle instead of updating
/// [`ResourceReport::bytes_by_class`] directly. Each class sees the same
/// additions in the same order, and only touched classes are folded into
/// the map, so the report is bit-identical to per-record map updates.
#[derive(Debug, Default)]
pub(crate) struct ClassBytes([(bool, f64); 4]);

impl ClassBytes {
    const CLASSES: [(Direction, Locality); 4] = [
        (Direction::Read, Locality::Local),
        (Direction::Read, Locality::Remote),
        (Direction::Write, Locality::Local),
        (Direction::Write, Locality::Remote),
    ];

    pub(crate) fn add(&mut self, attrs: &FlowAttrs, bytes: f64) {
        let (touched, sum) = &mut self.0[attrs.direction as usize * 2 + attrs.locality as usize];
        *touched = true;
        *sum += bytes;
    }

    pub(crate) fn fold_into(&self, map: &mut BTreeMap<(&'static str, &'static str), f64>) {
        for (&(dir, loc), &(touched, sum)) in Self::CLASSES.iter().zip(&self.0) {
            if touched {
                map.insert((dir.label(), loc.label()), sum);
            }
        }
    }
}

/// Complete result of a simulation run.
#[derive(Debug, Clone, Default)]
pub struct SimReport {
    /// Instant the last process finished (or the clock when the run stopped).
    pub end_time: SimTime,
    /// One report per spawned process, in spawn order.
    pub processes: Vec<ProcessReport>,
    /// One report per resource, in registration order.
    pub resources: Vec<ResourceReport>,
    /// Number of events processed (diagnostics; deterministic).
    pub events_processed: u64,
    /// Largest event-heap depth observed (diagnostics; deterministic).
    pub max_heap_depth: usize,
    /// Per-process span timelines, if requested via
    /// [`crate::Simulation::with_timeline`].
    pub timeline: Option<crate::trace::Timeline>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_report_accumulates() {
        let mut r = ResourceReport::default();
        r.record_interval(SimDuration(2.0), 3);
        r.record_interval(SimDuration(1.0), 0);
        let mut bytes = ClassBytes::default();
        let attrs = FlowAttrs {
            direction: Direction::Read,
            locality: Locality::Local,
            access_bytes: 4096,
            sw_time_per_byte: 0.0,
            peak_device_rate: 1e9,
        };
        bytes.add(&attrs, 10.0);
        bytes.add(&attrs, 5.0);
        bytes.fold_into(&mut r.bytes_by_class);
        assert_eq!(r.bytes_by_class.len(), 1, "untouched classes stay out");
        assert_eq!(r.busy_time.seconds(), 2.0);
        assert!((r.mean_busy_concurrency() - 3.0).abs() < 1e-12);
        assert_eq!(r.total_bytes(), 15.0);
        assert!((r.busy_throughput() - 7.5).abs() < 1e-12);
    }

    #[test]
    fn class_bytes_keep_classes_apart() {
        let mut bytes = ClassBytes::default();
        for (i, &(direction, locality)) in ClassBytes::CLASSES.iter().enumerate() {
            let attrs = FlowAttrs {
                direction,
                locality,
                access_bytes: 4096,
                sw_time_per_byte: 0.0,
                peak_device_rate: 1e9,
            };
            bytes.add(&attrs, i as f64 + 1.0);
        }
        let mut map = BTreeMap::new();
        bytes.fold_into(&mut map);
        for (i, &(dir, loc)) in ClassBytes::CLASSES.iter().enumerate() {
            assert_eq!(map[&(dir.label(), loc.label())], i as f64 + 1.0);
        }
    }

    #[test]
    fn process_report_mark_lookup() {
        let p = ProcessReport {
            marks: vec![
                (SimTime(1.0), "io-start"),
                (SimTime(2.0), "io-start"),
                (SimTime(3.0), "done"),
            ],
            ..Default::default()
        };
        assert_eq!(p.mark("io-start"), Some(SimTime(1.0)));
        assert_eq!(p.mark("missing"), None);
    }
}
