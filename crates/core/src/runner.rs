//! Deterministic parallel suite runner with structured observability.
//!
//! The paper's evaluation is a 144-run matrix — 18 suite workloads × the
//! four Table I configurations × the two I/O stacks. Each run is an
//! independent simulation, so the matrix fans out over a bounded pool of
//! OS threads; results are collected **in submission order**, which makes
//! the output bit-identical to a sequential run for any thread count (the
//! simulations themselves are deterministic, and nothing about scheduling
//! order can leak into a run's result).
//!
//! Per-run failures are surfaced as values ([`RunOutcome::result`]), never
//! as panics of the whole matrix: a worker that panics poisons only its
//! own run. Every outcome serializes to one line of JSON ([JSON Lines])
//! without any serialization dependency.
//!
//! [JSON Lines]: https://jsonlines.org

use crate::config::SchedConfig;
use crate::executor::{execute, ExecutionParams};
use crate::metrics::RunMetrics;
use crate::sync::lock_recover;
use pmemflow_des::{json_escape, json_f64};
use pmemflow_iostack::StackKind;
use pmemflow_workloads::{paper_suite, WorkflowSpec};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// One cell of the run matrix: a workflow under one configuration on one
/// I/O stack.
#[derive(Debug, Clone)]
pub struct RunRequest {
    /// Workflow display name (used in records and trace file names).
    pub workflow: String,
    /// Ranks per component.
    pub ranks: usize,
    /// The I/O stack carrying the channel.
    pub stack: StackKind,
    /// The Table I configuration.
    pub config: SchedConfig,
    /// The workflow to execute.
    pub spec: WorkflowSpec,
}

/// The result of one matrix cell: the request identity, the simulation's
/// metrics (or the failure, as a value), and the host wall-clock time the
/// run took.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Workflow display name.
    pub workflow: String,
    /// Ranks per component.
    pub ranks: usize,
    /// The I/O stack used.
    pub stack: StackKind,
    /// The configuration used.
    pub config: SchedConfig,
    /// The run's metrics, or the error / panic message.
    pub result: Result<RunMetrics, String>,
    /// Host wall-clock seconds the run took (not deterministic; excluded
    /// from reproducibility comparisons).
    pub wall_secs: f64,
}

/// Map `f` over `items` with at most `jobs` worker threads, returning the
/// results **in input order**. A panic in `f` becomes an `Err` carrying the
/// panic message for that item only. `jobs` is clamped to at least 1.
///
/// Workers claim items from a shared counter, so the assignment of items
/// to threads is racy — but each result lands in its item's slot, so the
/// returned vector is identical for any `jobs`.
pub fn map_ordered<T, R, F>(items: Vec<T>, jobs: usize, f: F) -> Vec<Result<R, String>>
where
    T: Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    let jobs = jobs.max(1).min(items.len().max(1));
    let n = items.len();
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<Result<R, String>>>> = (0..n).map(|_| Mutex::new(None)).collect();
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                if i >= n {
                    break;
                }
                let out = catch_unwind(AssertUnwindSafe(|| f(&items[i]))).map_err(|p| {
                    p.downcast_ref::<&str>()
                        .map(|s| s.to_string())
                        .or_else(|| p.downcast_ref::<String>().cloned())
                        .unwrap_or_else(|| "worker panicked".to_string())
                });
                *lock_recover(&slots[i]) = Some(out);
            });
        }
    });
    slots
        .into_iter()
        .map(|s| s.into_inner().unwrap().expect("every slot filled"))
        .collect()
}

/// Execute every request with at most `jobs` concurrent simulations.
/// `params.stack` is overridden per request; everything else (profile,
/// node, timeline recording, ...) applies to all runs. Outcomes come back
/// in submission order and are bit-identical for any `jobs ≥ 1`.
pub fn run_matrix(
    requests: Vec<RunRequest>,
    params: &ExecutionParams,
    jobs: usize,
) -> Vec<RunOutcome> {
    let results = map_ordered(requests, jobs, |req| {
        let started = std::time::Instant::now();
        let p = params.clone().with_stack(req.stack);
        let result = execute(&req.spec, req.config, &p).map_err(|e| e.to_string());
        (req.clone(), result, started.elapsed().as_secs_f64())
    });
    results
        .into_iter()
        .map(|r| match r {
            Ok((req, result, wall_secs)) => RunOutcome {
                workflow: req.workflow,
                ranks: req.ranks,
                stack: req.stack,
                config: req.config,
                result,
                wall_secs,
            },
            // The executor never panics in normal operation; if it does,
            // the request identity is lost with the worker, so report a
            // placeholder record rather than dropping the row.
            Err(msg) => RunOutcome {
                workflow: "<panicked>".into(),
                ranks: 0,
                stack: StackKind::NvStream,
                config: SchedConfig::ALL[0],
                result: Err(msg),
                wall_secs: 0.0,
            },
        })
        .collect()
}

/// Build the paper's full evaluation matrix: 18 suite workloads × 4
/// Table I configurations × 2 I/O stacks = 144 requests, in a fixed
/// deterministic order (stack-major, then suite order, then
/// [`SchedConfig::ALL`] order).
pub fn full_matrix() -> Vec<RunRequest> {
    let mut requests = Vec::with_capacity(144);
    for stack in [StackKind::NvStream, StackKind::Nova] {
        for entry in paper_suite() {
            for config in SchedConfig::ALL {
                requests.push(RunRequest {
                    workflow: entry.family.name().to_string(),
                    ranks: entry.ranks,
                    stack,
                    config,
                    spec: entry.spec.clone(),
                });
            }
        }
    }
    requests
}

impl RunOutcome {
    /// Serialize as one JSON Lines record (no trailing newline).
    ///
    /// Successful runs carry `"ok":true` plus the full set of metrics;
    /// failed runs carry `"ok":false` and an `"error"` string. All fields
    /// except `wall_secs` are deterministic.
    pub fn to_jsonl(&self) -> String {
        let mut out = String::with_capacity(512);
        out.push('{');
        out.push_str(&format!(
            "\"workflow\":\"{}\",\"ranks\":{},\"stack\":\"{}\",\"config\":\"{}\"",
            json_escape(&self.workflow),
            self.ranks,
            self.stack.name(),
            self.config.label(),
        ));
        match &self.result {
            Ok(m) => {
                let (serial_w, serial_r) = m.serial_split();
                out.push_str(&format!(
                    ",\"ok\":true,\"total_s\":{},\"serial_split\":{{\"writer_s\":{},\"reader_s\":{}}}",
                    json_f64(m.total),
                    json_f64(serial_w),
                    json_f64(serial_r),
                ));
                for (label, c) in [("writer", &m.writer), ("reader", &m.reader)] {
                    out.push_str(&format!(
                        ",\"{}\":{{\"compute_s\":{},\"io_s\":{},\"wait_s\":{},\"channel_waits\":{},\"bytes\":{},\"finish_s\":{}}}",
                        label,
                        json_f64(c.compute_time),
                        json_f64(c.io_time),
                        json_f64(c.wait_time),
                        c.channel_waits,
                        json_f64(c.bytes),
                        json_f64(c.finish_time),
                    ));
                }
                out.push_str(&format!(
                    ",\"device\":{{\"peak_concurrency\":{},\"mean_busy_concurrency\":{},\"total_bytes\":{}}}",
                    m.device.peak_concurrency,
                    json_f64(m.device.mean_busy_concurrency()),
                    json_f64(m.device.total_bytes()),
                ));
                out.push_str(&format!(
                    ",\"events\":{},\"max_heap_depth\":{}",
                    m.events, m.max_heap_depth
                ));
            }
            Err(e) => {
                out.push_str(&format!(",\"ok\":false,\"error\":\"{}\"", json_escape(e)));
            }
        }
        out.push_str(&format!(",\"wall_secs\":{}", json_f64(self.wall_secs)));
        out.push('}');
        out
    }

    /// The record with the (non-deterministic) wall-clock field zeroed —
    /// what reproducibility comparisons should diff.
    pub fn deterministic_jsonl(&self) -> String {
        let mut copy = self.clone();
        copy.wall_secs = 0.0;
        copy.to_jsonl()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemflow_workloads::{micro_2kb, micro_64mb};

    fn small_requests() -> Vec<RunRequest> {
        let mut reqs = Vec::new();
        for (name, spec) in [("micro-2KB", micro_2kb(4)), ("micro-64MB", micro_64mb(4))] {
            for config in SchedConfig::ALL {
                reqs.push(RunRequest {
                    workflow: name.to_string(),
                    ranks: 4,
                    stack: StackKind::NvStream,
                    config,
                    spec: spec.clone(),
                });
            }
        }
        reqs
    }

    #[test]
    fn map_ordered_preserves_input_order() {
        for jobs in [1usize, 2, 7, 64] {
            let out = map_ordered((0..25).collect(), jobs, |&i: &i32| i * 2);
            let want: Vec<_> = (0..25).map(|i| Ok(i * 2)).collect();
            assert_eq!(out, want, "jobs={jobs}");
        }
    }

    #[test]
    fn map_ordered_surfaces_panics_as_values() {
        let out = map_ordered(vec![1, 2, 3], 2, |&i: &i32| {
            if i == 2 {
                panic!("boom on {i}");
            }
            i
        });
        assert_eq!(out[0], Ok(1));
        assert_eq!(out[2], Ok(3));
        let err = out[1].as_ref().unwrap_err();
        assert!(err.contains("boom on 2"), "got {err:?}");
    }

    #[test]
    fn map_ordered_handles_empty_and_zero_jobs() {
        let out: Vec<Result<i32, String>> = map_ordered(Vec::new(), 0, |&i: &i32| i);
        assert!(out.is_empty());
        let out = map_ordered(vec![7], 0, |&i: &i32| i + 1);
        assert_eq!(out, vec![Ok(8)]);
    }

    #[test]
    fn parallel_matrix_is_bit_identical_to_sequential() {
        let params = ExecutionParams::default();
        let seq = run_matrix(small_requests(), &params, 1);
        let par = run_matrix(small_requests(), &params, 4);
        assert_eq!(seq.len(), par.len());
        for (a, b) in seq.iter().zip(par.iter()) {
            assert_eq!(a.deterministic_jsonl(), b.deterministic_jsonl());
            let (ma, mb) = (a.result.as_ref().unwrap(), b.result.as_ref().unwrap());
            assert_eq!(ma.total.to_bits(), mb.total.to_bits());
            assert_eq!(ma.events, mb.events);
        }
    }

    #[test]
    fn full_matrix_is_the_papers_144_runs() {
        let m = full_matrix();
        assert_eq!(m.len(), 144);
        // 72 per stack, every workload appears under all four configs.
        let nv = m.iter().filter(|r| r.stack == StackKind::NvStream).count();
        assert_eq!(nv, 72);
        for config in SchedConfig::ALL {
            assert_eq!(m.iter().filter(|r| r.config == config).count(), 36);
        }
    }

    #[test]
    fn jsonl_records_are_wellformed() {
        let params = ExecutionParams::default();
        let outcomes = run_matrix(small_requests()[..2].to_vec(), &params, 2);
        for o in outcomes {
            let line = o.to_jsonl();
            assert!(line.starts_with('{') && line.ends_with('}'));
            assert!(!line.contains('\n'));
            assert_eq!(line.matches('{').count(), line.matches('}').count());
            for key in [
                "\"workflow\":",
                "\"ranks\":",
                "\"stack\":",
                "\"config\":",
                "\"ok\":true",
                "\"total_s\":",
                "\"serial_split\":",
                "\"writer\":",
                "\"reader\":",
                "\"channel_waits\":",
                "\"device\":",
                "\"peak_concurrency\":",
                "\"events\":",
                "\"max_heap_depth\":",
                "\"wall_secs\":",
            ] {
                assert!(line.contains(key), "missing {key} in {line}");
            }
        }
    }

    #[test]
    fn failures_become_error_records() {
        let reqs = vec![RunRequest {
            workflow: "too-big".into(),
            ranks: 99,
            stack: StackKind::NvStream,
            config: SchedConfig::ALL[0],
            spec: micro_64mb(99), // cannot pin 99 ranks on a 28-core socket
        }];
        let out = run_matrix(reqs, &ExecutionParams::default(), 2);
        assert_eq!(out.len(), 1);
        let line = out[0].to_jsonl();
        assert!(out[0].result.is_err());
        assert!(
            line.contains("\"ok\":false") && line.contains("\"error\":"),
            "{line}"
        );
    }

    #[test]
    fn json_escape_handles_specials() {
        assert_eq!(json_escape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(json_escape("\u{1}"), "\\u0001");
        assert_eq!(json_f64(f64::NAN), "null");
        assert_eq!(json_f64(1.5), "1.5");
    }
}
