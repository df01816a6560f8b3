//! `suite`: the paper's 144-run matrix (`full_matrix()`), each cell run
//! with `execute` as `run_matrix` runs it, one after another. Unit of work:
//! one matrix. Request: one matrix cell (a `RunRequest`), timed and
//! rescaled to the reference speed on its own, so the traced and untraced
//! units run the same code and the per-layer split comes from counters the
//! program exposes.
//!
//! The cells run on the calling thread rather than through `run_matrix`,
//! whose worker thread may sit on another vCPU than the host-speed probes.

use crate::pace::{units_note, Pace, Timed};
use crate::report::{
    digest, median, overhead_pct, quantile, repeat, walls_note, EndToEnd, Layers, Report, Rng,
};
use crate::Args;
use pmemflow_core::{execute, full_matrix, ExecutionParams, RunOutcome, RunRequest};
use pmemflow_workloads::paper_suite;
use std::time::{Duration, Instant};

/// How strongly a cell's time follows the host-speed probe (see `pace`).
const SENSITIVITY: f64 = 0.8;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 200;
/// Table II winners the model reproduces (of 18).
const TABLE2_AGREEMENT: usize = 15;

/// The matrix in a seeded submission order, and each position's index in
/// the canonical (`full_matrix`) order. Results are order-independent, so
/// the seed changes the schedule, never the answers.
fn setup(seed: u64) -> (Vec<RunRequest>, Vec<usize>) {
    let matrix = full_matrix();
    let order = Rng::new(seed).permutation(matrix.len());
    let requests = order.iter().map(|&i| matrix[i].clone()).collect();
    (requests, order)
}

/// Run one cell on this thread, as `run_matrix` does on a worker. Its
/// `wall_secs` is the cell's time at the reference speed.
fn run_cell(req: &RunRequest, params: &ExecutionParams, pace: &mut Pace) -> (RunOutcome, Timed) {
    pace.begin();
    let p = params.clone().with_stack(req.stack);
    let result = execute(&req.spec, req.config, &p).map_err(|e| e.to_string());
    let time = pace.end();
    let outcome = RunOutcome {
        workflow: req.workflow.clone(),
        ranks: req.ranks,
        stack: req.stack,
        config: req.config,
        result,
        wall_secs: time.scaled,
    };
    (outcome, time)
}

/// Per-layer counters of one matrix, from its outcomes.
fn layers_of(outcomes: &[RunOutcome]) -> Layers {
    let mut l = Layers::default();
    for o in outcomes {
        l.core_execute_s += o.wall_secs;
        l.core_execute_calls += 1.0;
        let name = o.workflow.to_ascii_lowercase();
        if name.starts_with("micro") {
            l.core_execute_s_micro += o.wall_secs;
        } else if name.starts_with("gtc") {
            l.core_execute_s_gtc += o.wall_secs;
        } else if name.starts_with("miniamr") {
            l.core_execute_s_miniamr += o.wall_secs;
        }
        if let Ok(m) = &o.result {
            l.des_events += m.events as f64;
            l.des_max_queue_depth = l.des_max_queue_depth.max(m.max_heap_depth as f64);
            l.pmem_flows_completed += m.device.flows_completed as f64;
            l.pmem_peak_concurrency = l
                .pmem_peak_concurrency
                .max(m.device.peak_concurrency as f64);
        }
    }
    l.des_us_per_event = l.core_execute_s / l.des_events.max(1.0) * 1e6;
    l
}

/// Model winners that match the paper's Table II (the NVStream half of
/// the canonical matrix, four configurations per suite entry).
fn table2_agreement(outcomes: &[RunOutcome]) -> usize {
    paper_suite()
        .iter()
        .zip(outcomes.chunks(4))
        .filter(|(entry, chunk)| {
            chunk
                .iter()
                .filter_map(|o| o.result.as_ref().ok().map(|m| (o.config, m.total)))
                .min_by(|a, b| a.1.total_cmp(&b.1))
                .is_some_and(|(config, _)| config.label() == entry.paper_winner)
        })
        .count()
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    // Set-ups are too short to probe one by one: the probes around all of
    // them rescale each.
    let mut pace = Pace::new(Duration::MAX, 1, SENSITIVITY);
    let mut setup_s = Vec::new();
    let (mut requests, mut order) = (Vec::new(), Vec::new());
    pace.begin();
    for _ in 0..SETUPS {
        let t0 = Instant::now();
        (requests, order) = setup(args.seed);
        setup_s.push(t0.elapsed().as_secs_f64());
    }
    let setup_factor = pace.end().factor();

    let params = ExecutionParams::default();
    let mut reference: Option<u64> = None;
    let (mut plain_walls, mut traced) = (Vec::new(), Vec::new());
    let mut latencies_ms = Vec::new();
    let mut cells = Vec::new();
    repeat(args.budget, if args.trace { 2 } else { 1 }, |i| {
        let outcomes: Vec<RunOutcome> = requests
            .iter()
            .map(|req| {
                let (outcome, time) = run_cell(req, &params, &mut pace);
                cells.push(time);
                outcome
            })
            .collect();
        let wall: f64 = outcomes.iter().map(|o| o.wall_secs).sum();

        let mut canonical: Vec<Option<RunOutcome>> = vec![None; outcomes.len()];
        for (&at, o) in order.iter().zip(outcomes) {
            canonical[at] = Some(o);
        }
        let canonical: Vec<RunOutcome> = canonical.into_iter().flatten().collect();
        let failed = canonical.iter().filter(|o| o.result.is_err()).count();
        report.ops(canonical.len() as u64, failed as u64);
        report.check(canonical.len() == 144, || {
            format!("matrix returned {} of 144 runs", canonical.len())
        });
        let agree = table2_agreement(&canonical);
        report.check(agree == TABLE2_AGREEMENT, || {
            format!("Table II agreement {agree}/18, expected {TABLE2_AGREEMENT}/18")
        });
        let text: String = canonical
            .iter()
            .map(|o| o.deterministic_jsonl() + "\n")
            .collect();
        let d = digest(text.as_bytes());
        let want = *reference.get_or_insert(d);
        report.check(d == want, || {
            format!("JSONL digest {d:016x} differs from first matrix {want:016x}")
        });

        if args.trace && i % 2 == 1 {
            traced.push((wall, layers_of(&canonical)));
        } else {
            plain_walls.push(wall);
            latencies_ms.extend(canonical.iter().map(|o| o.wall_secs * 1e3));
        }
    });
    report.note(format!(
        "{} untraced + {} traced matrices, {} request latencies, JSONL digest {:016x}",
        plain_walls.len(),
        traced.len(),
        latencies_ms.len(),
        reference.unwrap_or(0)
    ));

    report.note(walls_note("untraced", &plain_walls));
    report.note(units_note("cells", &cells));
    report.note(pace.summary());
    if args.trace {
        let traced_walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
        let overhead = overhead_pct(&plain_walls, &traced_walls);
        // The traced matrix with the median wall time supplies the split.
        traced.sort_by(|a, b| a.0.total_cmp(&b.0));
        let mut layers = traced.swap_remove((traced.len() - 1) / 2).1;
        layers.overhead_pct = overhead;
        report.layers(layers);
    } else {
        let wall_s = median(&plain_walls);
        report.end_to_end(EndToEnd {
            setup_s: median(&setup_s) * setup_factor,
            wall_s,
            req_per_s: 144.0 / wall_s,
            latency_p50_ms: quantile(&latencies_ms, 0.5),
            latency_p99_ms: quantile(&latencies_ms, 0.99),
        });
    }
    report
}
