//! Statistics, correctness bookkeeping and the output format shared by
//! every workload.

use crate::Args;
use std::time::{Duration, Instant};

/// End-to-end figures of one untraced run. Each workload defines its unit
/// of work (a 144-run matrix, a campaign, a batch of HTTP requests) and its
/// request (a matrix run, a campaign, an HTTP request); see `README.md`.
/// Times are seconds at the reference speed (see `pace`).
pub struct EndToEnd {
    /// Median seconds of one set-up.
    pub setup_s: f64,
    /// Median seconds of one unit of timed work.
    pub wall_s: f64,
    /// Requests completed per second of timed work.
    pub req_per_s: f64,
    /// Median request latency, milliseconds.
    pub latency_p50_ms: f64,
    /// 99th-percentile request latency, milliseconds.
    pub latency_p99_ms: f64,
}

/// Per-layer figures of one traced run, per unit of work. A layer the
/// workload bypasses keeps its zero: that is the measured value.
#[derive(Default)]
pub struct Layers {
    pub core_execute_s: f64,
    pub core_execute_calls: f64,
    pub core_execute_s_micro: f64,
    pub core_execute_s_gtc: f64,
    pub core_execute_s_miniamr: f64,
    pub des_events: f64,
    pub des_us_per_event: f64,
    pub des_max_queue_depth: f64,
    pub pmem_flows_completed: f64,
    pub pmem_peak_concurrency: f64,
    pub oracle_build_s: f64,
    pub corun_warm_s: f64,
    pub corun_sets: f64,
    pub policy_s: f64,
    pub policy_calls: f64,
    pub policy_queue_mean: f64,
    pub policy_ns_per_queued_job: f64,
    pub reprice_s: f64,
    pub reprice_calls: f64,
    pub loop_s: f64,
    pub jobs: f64,
    pub dag_stage_jobs: f64,
    pub corun_sets_new: f64,
    pub hit_ratio: f64,
    pub misses: f64,
    pub evictions: f64,
    pub backend_s: f64,
    pub backend_calls: f64,
    pub backend_us_per_call: f64,
    pub server_latency_p50_ms: f64,
    pub epoll_wakeups_per_req: f64,
    pub dispatch_batch_mean: f64,
    /// Traced over untraced median unit time, minus one, percent.
    pub overhead_pct: f64,
}

impl Layers {
    fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        vec![
            ("core.execute_s", self.core_execute_s, "s"),
            ("core.execute_calls", self.core_execute_calls, "count"),
            ("core.execute_s.micro", self.core_execute_s_micro, "s"),
            ("core.execute_s.gtc", self.core_execute_s_gtc, "s"),
            ("core.execute_s.miniamr", self.core_execute_s_miniamr, "s"),
            ("des.events", self.des_events, "count"),
            ("des.us_per_event", self.des_us_per_event, "us"),
            ("des.max_queue_depth", self.des_max_queue_depth, "count"),
            ("pmem.flows_completed", self.pmem_flows_completed, "count"),
            ("pmem.peak_concurrency", self.pmem_peak_concurrency, "count"),
            ("cluster.oracle_build_s", self.oracle_build_s, "s"),
            ("cluster.corun_warm_s", self.corun_warm_s, "s"),
            ("cluster.corun_sets", self.corun_sets, "count"),
            ("cluster.policy_s", self.policy_s, "s"),
            ("cluster.policy_calls", self.policy_calls, "count"),
            ("cluster.policy_queue_mean", self.policy_queue_mean, "count"),
            (
                "cluster.policy_ns_per_queued_job",
                self.policy_ns_per_queued_job,
                "ns",
            ),
            ("cluster.reprice_s", self.reprice_s, "s"),
            ("cluster.reprice_calls", self.reprice_calls, "count"),
            ("cluster.loop_s", self.loop_s, "s"),
            ("cluster.jobs", self.jobs, "count"),
            ("dag.stage_jobs", self.dag_stage_jobs, "count"),
            ("cluster.corun_sets_new", self.corun_sets_new, "count"),
            ("serve.hit_ratio", self.hit_ratio, "ratio"),
            ("serve.misses", self.misses, "count"),
            ("serve.evictions", self.evictions, "count"),
            ("serve.backend_s", self.backend_s, "s"),
            ("serve.backend_calls", self.backend_calls, "count"),
            ("serve.backend_us_per_call", self.backend_us_per_call, "us"),
            (
                "serve.server_latency_p50_ms",
                self.server_latency_p50_ms,
                "ms",
            ),
            (
                "net.epoll_wakeups_per_req",
                self.epoll_wakeups_per_req,
                "ratio",
            ),
            ("net.dispatch_batch_mean", self.dispatch_batch_mean, "count"),
            ("trace.overhead_pct", self.overhead_pct, "%"),
        ]
    }
}

/// What one run measured and whether its outputs were right.
#[derive(Default)]
pub struct Report {
    attempted: u64,
    failed: u64,
    metrics: Vec<(&'static str, f64, &'static str)>,
    notes: Vec<String>,
}

impl Report {
    /// Count `attempted` operations of the program, `failed` of which failed.
    pub fn ops(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Count one output check; a failed one is a failed operation.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.notes.push(format!("CHECK FAILED: {}", what()));
        }
    }

    /// A line of context for the human-readable table.
    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    pub fn end_to_end(&mut self, e: EndToEnd) {
        self.metrics = vec![
            ("setup_s", e.setup_s, "s"),
            ("wall_s", e.wall_s, "s"),
            ("req_per_s", e.req_per_s, "1/s"),
            ("latency_p50_ms", e.latency_p50_ms, "ms"),
            ("latency_p99_ms", e.latency_p99_ms, "ms"),
            ("peak_rss_mb", peak_rss_mb(), "MB"),
        ];
    }

    pub fn layers(&mut self, l: Layers) {
        self.metrics = l.metrics();
    }

    /// Human-readable table on stderr, then the JSON result as the last
    /// line of stdout.
    pub fn print(mut self, args: &Args) {
        for (name, value, _) in &self.metrics {
            if !value.is_finite() {
                self.failed += 1;
                self.notes
                    .push(format!("CHECK FAILED: {name} is not finite"));
            }
        }
        eprintln!(
            "perfbench {} seed={} seconds={} trace={}",
            args.workload,
            args.seed,
            args.budget.as_secs_f64(),
            u8::from(args.trace)
        );
        for note in &self.notes {
            eprintln!("  {note}");
        }
        eprintln!(
            "  error_ratio {} ({} failed of {} attempted)",
            self.failed as f64 / self.attempted.max(1) as f64,
            self.failed,
            self.attempted
        );
        let mut json = String::new();
        for (name, value, unit) in &self.metrics {
            eprintln!("  {name:<34} {value:>16.6} {unit}");
            let value = if value.is_finite() { *value } else { 0.0 };
            if !json.is_empty() {
                json.push(',');
            }
            json.push_str(&format!(
                "\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
            ));
        }
        println!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{json}}}}}",
            self.failed == 0,
            self.attempted.max(1),
            self.failed
        );
    }
}

/// Call `unit(i)` for i = 0, 1, … at least `min` times, stopping where the
/// timed phase lands closest to `budget`: before a unit that would end
/// more than half a unit past it. Traced runs alternate: even units
/// untraced, odd traced.
pub fn repeat(budget: Duration, min: usize, mut unit: impl FnMut(usize)) {
    let start = Instant::now();
    let mut i = 0u32;
    loop {
        let elapsed = start.elapsed();
        let per_unit = elapsed / i.max(1);
        if i as usize >= min && elapsed + per_unit / 2 >= budget {
            return;
        }
        unit(i as usize);
        i += 1;
    }
}

/// Median of `values`: the mean of the middle two for an even count (0
/// for none).
pub fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    match sorted.len() {
        0 => 0.0,
        n if n % 2 == 1 => sorted[n / 2],
        n => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Times of a run, for the human-readable table.
pub fn walls_note(label: &str, walls: &[f64]) -> String {
    let shown: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    format!("{label} (s): {}", shown.join(" "))
}

/// Nearest-rank quantile of `values` (0 for none).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// Tracing overhead: median traced unit time over median untraced, minus
/// one, in percent.
pub fn overhead_pct(untraced: &[f64], traced: &[f64]) -> f64 {
    (median(traced) / median(untraced) - 1.0) * 100.0
}

/// Peak resident set of this process, MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// SplitMix64: the benchmark's own input generator, so inputs depend on
/// the seed alone and not on any generator inside the program.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform in [0, n).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_f64() * n as f64) as usize
    }

    /// A seeded permutation of 0..n (Fisher–Yates).
    pub fn permutation(&mut self, n: usize) -> Vec<usize> {
        let mut p: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            p.swap(i, self.below(i + 1));
        }
        p
    }
}

/// FNV-1a, 64-bit: the digest the output-stability checks compare.
pub fn digest(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}
