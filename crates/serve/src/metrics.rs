//! Lock-free serving metrics with a Prometheus-style text exposition.
//!
//! Everything is a relaxed atomic — scrapes are cheap and never block the
//! request path; the exposition is a point-in-time approximation, which
//! is all a scraper ever gets anyway. Latencies go into a fixed
//! log-spaced histogram (powers of two in microseconds) from which
//! p50/p95/p99 are estimated by linear interpolation within the bucket.

use std::sync::atomic::{AtomicU64, Ordering::Relaxed};

/// The endpoints the daemon tracks individually.
const ENDPOINTS: [&str; 7] = [
    "/v1/sweep",
    "/v1/recommend",
    "/v1/predict",
    "/v1/coschedule",
    "/healthz",
    "/metrics",
    "other",
];

/// Histogram bucket upper bounds in microseconds: 1µs · 4^i, 16 buckets
/// spanning 1µs to ~4.3ks, plus an implicit +Inf.
const BUCKETS: usize = 16;

fn bucket_upper_us(i: usize) -> u64 {
    1u64 << (2 * i)
}

/// A fixed-bucket latency histogram.
#[derive(Default)]
pub struct Histogram {
    counts: [AtomicU64; BUCKETS],
    overflow: AtomicU64,
    sum_us: AtomicU64,
    total: AtomicU64,
}

impl Histogram {
    /// Record one observation.
    pub fn observe_us(&self, us: u64) {
        let idx = BUCKETS; // sentinel: overflow
        let mut slot = idx;
        for i in 0..BUCKETS {
            if us <= bucket_upper_us(i) {
                slot = i;
                break;
            }
        }
        if slot == BUCKETS {
            self.overflow.fetch_add(1, Relaxed);
        } else {
            self.counts[slot].fetch_add(1, Relaxed);
        }
        self.sum_us.fetch_add(us, Relaxed);
        self.total.fetch_add(1, Relaxed);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.total.load(Relaxed)
    }

    /// Sum of observations, seconds.
    fn sum_seconds(&self) -> f64 {
        self.sum_us.load(Relaxed) as f64 / 1e6
    }

    /// Estimate quantile `q` in the histogram's native integer units
    /// (whatever `observe_us` was fed — event counts for the dispatch
    /// batch histogram). Same interpolation and edge behavior as
    /// [`Histogram::quantile_seconds`].
    fn quantile_units(&self, q: f64) -> f64 {
        self.quantile_seconds(q) * 1e6
    }

    /// Sum of observations in native integer units.
    pub fn sum_units(&self) -> u64 {
        self.sum_us.load(Relaxed)
    }

    /// Estimate quantile `q` (0..1) in seconds by linear interpolation
    /// within the containing bucket. Defensive at every edge: `q` is
    /// clamped to [0, 1] (NaN counts as 1.0), an empty histogram reports
    /// 0.0, and any rank landing in the overflow bucket — including
    /// `q = 1.0` with overflow mass — reports the last finite bucket
    /// bound, a concrete pessimum, never `inf` or NaN.
    pub fn quantile_seconds(&self, q: f64) -> f64 {
        let total = self.total.load(Relaxed);
        if total == 0 {
            return 0.0;
        }
        // NaN would poison the rank arithmetic; treat it as worst-case.
        let q = if q.is_nan() { 1.0 } else { q.clamp(0.0, 1.0) };
        // Nearest-rank target in [1, total]; the min() guards the f64
        // round-trip at huge totals, where ceil() can land above total.
        let target = ((q * total as f64).ceil().max(1.0) as u64).min(total);
        let mut seen = 0u64;
        for i in 0..BUCKETS {
            let c = self.counts[i].load(Relaxed);
            // Only a bucket that holds observations can contain the
            // target rank: an empty bucket must never report its bound.
            if c > 0 && seen + c >= target {
                let lower = if i == 0 { 0 } else { bucket_upper_us(i - 1) };
                let upper = bucket_upper_us(i);
                let frac = (target - seen) as f64 / c as f64;
                return (lower as f64 + frac * (upper - lower) as f64) / 1e6;
            }
            seen += c;
        }
        // The rank lives in the overflow bucket (or a racing scrape saw
        // `total` ahead of the bucket counts): the last finite bound.
        bucket_upper_us(BUCKETS - 1) as f64 / 1e6
    }
}

/// All counters the daemon exposes.
#[derive(Default)]
pub struct Metrics {
    /// Requests received, per endpoint (ENDPOINTS order).
    pub requests: [AtomicU64; ENDPOINTS.len()],
    /// Responses sent, by status class bucket (see `status_bucket`).
    pub responses: [AtomicU64; STATUS_BUCKETS.len()],
    /// Model requests answered from the result cache on the io thread.
    pub cache_hits: AtomicU64,
    /// Model requests that missed the cache and were answered (and
    /// cached): by a worker, or on the io thread (`inline_misses`).
    pub cache_misses: AtomicU64,
    /// Of `cache_misses`, those the io thread answered itself because
    /// the backend held the answer without simulating; the rest are
    /// worker computations.
    pub inline_misses: AtomicU64,
    /// Model requests answered by an identical request's computation:
    /// parked on their io thread behind one a worker was computing, or
    /// queued and finding the answer cached by the time a worker took
    /// them. Every answered model request counts once in exactly one of
    /// `cache_hits`, `coalesced` and `cache_misses`.
    pub coalesced: AtomicU64,
    /// Cache evictions.
    pub evictions: AtomicU64,
    /// Requests shed with 429 because the queue was full.
    pub shed: AtomicU64,
    /// Requests that missed their deadline (504).
    pub deadline_missed: AtomicU64,
    /// Worker panics caught while computing (each one answered 500).
    pub panics: AtomicU64,
    /// Current depth of the admission queue.
    pub queue_depth: AtomicU64,
    /// Model requests currently parked on their io thread behind an
    /// identical query a worker is computing (they hold no queue slot).
    pub parked: AtomicU64,
    /// Connections currently open across all io threads.
    pub connections_active: AtomicU64,
    /// Connections accepted since boot.
    pub accepted_total: AtomicU64,
    /// Connections closed, any cause (EOF, error, reap, drain).
    pub closed_total: AtomicU64,
    /// Connections reaped by their read deadline (408).
    pub reaped_total: AtomicU64,
    /// Accept attempts refused by fd exhaustion (`EMFILE`/`ENFILE`);
    /// each one pauses the acceptor for a backoff.
    pub fd_exhausted_total: AtomicU64,
    /// Reactor poll returns (deadlines, idle polls, waker rings, and I/O
    /// alike).
    pub epoll_wakeups_total: AtomicU64,
    /// Readiness events dispatched per reactor wakeup (batch size in
    /// events, not seconds).
    pub dispatch_batch: Histogram,
    /// End-to-end request latency (parse to response write).
    pub latency: Histogram,
}

/// The status codes tracked individually.
const STATUS_BUCKETS: [u16; 14] = [
    200, 400, 404, 405, 408, 413, 422, 429, 431, 500, 501, 503, 504, 505,
];

/// Index into [`Metrics::responses`] for a status code.
fn status_bucket(status: u16) -> usize {
    STATUS_BUCKETS
        .iter()
        .position(|&s| s == status)
        .unwrap_or(STATUS_BUCKETS.len() - 1)
}

impl Metrics {
    /// Index into [`Metrics::requests`] for a request path.
    fn endpoint_index(path: &str) -> usize {
        ENDPOINTS
            .iter()
            .position(|&e| e == path)
            .unwrap_or(ENDPOINTS.len() - 1)
    }

    /// Count one received request.
    pub fn on_request(&self, path: &str) {
        self.requests[Self::endpoint_index(path)].fetch_add(1, Relaxed);
    }

    /// Count one response by status.
    pub fn on_response(&self, status: u16) {
        self.responses[status_bucket(status)].fetch_add(1, Relaxed);
    }

    /// The connection-conservation invariant: every accepted connection
    /// is either still active or has been closed exactly once —
    /// `accepted_total == closed_total + connections_active`. Exact only
    /// at quiescence (no accept/close mid-flight); the e2e tests check it
    /// after drain, where an imbalance means a double-close. It cannot
    /// see a leaked connection: the drain closes every idle connection,
    /// leaked ones included, so the tests check for leaks *before*
    /// shutdown instead (`connections_active` reaching 0 once the client
    /// has finished).
    pub fn connection_conservation(&self) -> Result<(), String> {
        let accepted = self.accepted_total.load(Relaxed);
        let closed = self.closed_total.load(Relaxed);
        let active = self.connections_active.load(Relaxed);
        if accepted == closed.wrapping_add(active) {
            Ok(())
        } else {
            Err(format!(
                "connection conservation violated: accepted_total={accepted} != \
                 closed_total={closed} + connections_active={active}"
            ))
        }
    }

    /// Render the Prometheus-style text exposition.
    pub fn exposition(&self) -> String {
        let mut out = String::with_capacity(2048);
        out.push_str("# TYPE pmemflow_serve_requests_total counter\n");
        for (i, name) in ENDPOINTS.iter().enumerate() {
            out.push_str(&format!(
                "pmemflow_serve_requests_total{{endpoint=\"{name}\"}} {}\n",
                self.requests[i].load(Relaxed)
            ));
        }
        out.push_str("# TYPE pmemflow_serve_responses_total counter\n");
        for (i, status) in STATUS_BUCKETS.iter().enumerate() {
            out.push_str(&format!(
                "pmemflow_serve_responses_total{{status=\"{status}\"}} {}\n",
                self.responses[i].load(Relaxed)
            ));
        }
        for (name, v) in [
            ("cache_hits_total", &self.cache_hits),
            ("cache_misses_total", &self.cache_misses),
            ("cache_misses_inline_total", &self.inline_misses),
            ("coalesced_total", &self.coalesced),
            ("cache_evictions_total", &self.evictions),
            ("shed_total", &self.shed),
            ("deadline_missed_total", &self.deadline_missed),
            ("panics_total", &self.panics),
            ("connections_accepted_total", &self.accepted_total),
            ("connections_closed_total", &self.closed_total),
            ("connections_reaped_total", &self.reaped_total),
            ("fd_exhausted_total", &self.fd_exhausted_total),
            ("epoll_wakeups_total", &self.epoll_wakeups_total),
        ] {
            out.push_str(&format!(
                "# TYPE pmemflow_serve_{name} counter\npmemflow_serve_{name} {}\n",
                v.load(Relaxed)
            ));
        }
        out.push_str(&format!(
            "# TYPE pmemflow_serve_queue_depth gauge\npmemflow_serve_queue_depth {}\n",
            self.queue_depth.load(Relaxed)
        ));
        out.push_str(&format!(
            "# TYPE pmemflow_serve_parked gauge\npmemflow_serve_parked {}\n",
            self.parked.load(Relaxed)
        ));
        out.push_str(&format!(
            "# TYPE pmemflow_serve_connections_active gauge\npmemflow_serve_connections_active {}\n",
            self.connections_active.load(Relaxed)
        ));
        out.push_str("# TYPE pmemflow_serve_dispatch_batch summary\n");
        for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
            out.push_str(&format!(
                "pmemflow_serve_dispatch_batch{{quantile=\"{label}\"}} {:.1}\n",
                self.dispatch_batch.quantile_units(q)
            ));
        }
        out.push_str(&format!(
            "pmemflow_serve_dispatch_batch_sum {}\n",
            self.dispatch_batch.sum_units()
        ));
        out.push_str(&format!(
            "pmemflow_serve_dispatch_batch_count {}\n",
            self.dispatch_batch.count()
        ));
        out.push_str("# TYPE pmemflow_serve_request_latency_seconds summary\n");
        for (label, q) in [("0.5", 0.5), ("0.95", 0.95), ("0.99", 0.99)] {
            out.push_str(&format!(
                "pmemflow_serve_request_latency_seconds{{quantile=\"{label}\"}} {:.6}\n",
                self.latency.quantile_seconds(q)
            ));
        }
        out.push_str(&format!(
            "pmemflow_serve_request_latency_seconds_sum {:.6}\n",
            self.latency.sum_seconds()
        ));
        out.push_str(&format!(
            "pmemflow_serve_request_latency_seconds_count {}\n",
            self.latency.count()
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn histogram_quantiles_bracket_observations() {
        let h = Histogram::default();
        assert_eq!(h.quantile_seconds(0.5), 0.0);
        for us in [10u64, 20, 30, 40, 1000, 1000, 1000, 1000, 1000, 100_000] {
            h.observe_us(us);
        }
        assert_eq!(h.count(), 10);
        let p50 = h.quantile_seconds(0.5);
        // Half the mass is at 1000µs, inside the (256, 1024] bucket.
        assert!(p50 > 200e-6 && p50 <= 1024e-6, "p50 {p50}");
        let p99 = h.quantile_seconds(0.99);
        assert!(p99 > 1024e-6, "p99 {p99}");
        assert!(p99 >= p50);
        assert!(
            (h.sum_seconds() - 0.1051).abs() < 1e-9,
            "{}",
            h.sum_seconds()
        );
    }

    #[test]
    fn histogram_overflow_is_counted() {
        let h = Histogram::default();
        h.observe_us(u64::MAX / 2);
        assert_eq!(h.count(), 1);
        assert!(h.quantile_seconds(0.5) > 1000.0);
    }

    /// Every quantile of an empty histogram is exactly 0.0 — including
    /// the edges and a NaN `q`.
    #[test]
    fn empty_histogram_reports_zero_everywhere() {
        let h = Histogram::default();
        for q in [0.0, 0.5, 1.0, -3.0, 7.0, f64::NAN] {
            assert_eq!(h.quantile_seconds(q), 0.0);
        }
    }

    /// A single finite sample answers every quantile with its own bucket
    /// bound — finite, and identical from q=0 to q=1.
    #[test]
    fn single_sample_histogram_is_finite_at_every_quantile() {
        let h = Histogram::default();
        h.observe_us(100); // bucket (64, 256]
        for q in [0.0, 1e-12, 0.5, 0.999, 1.0, f64::NAN] {
            let v = h.quantile_seconds(q);
            assert!(v.is_finite(), "q {q} gave {v}");
            assert_eq!(v, 256e-6, "q {q}");
        }
    }

    /// Mass in the overflow bucket must interpolate to the last finite
    /// bucket bound, never +inf or NaN — even at q = 1.0, and even when
    /// the overflow bucket holds *all* the mass.
    #[test]
    fn overflow_mass_never_yields_inf_or_nan() {
        let last_finite = (1u64 << 30) as f64 / 1e6; // bucket_upper_us(15)
        let all_over = Histogram::default();
        for _ in 0..5 {
            all_over.observe_us(u64::MAX / 4);
        }
        for q in [0.0, 0.5, 1.0, f64::NAN] {
            let v = all_over.quantile_seconds(q);
            assert!(v.is_finite() && !v.is_nan(), "q {q} gave {v}");
            assert_eq!(v, last_finite, "q {q}");
        }
        // Mixed: finite mass below, one overflow on top. q = 1.0 lands
        // on the overflow observation and still answers finitely.
        let mixed = Histogram::default();
        mixed.observe_us(10);
        mixed.observe_us(1000);
        mixed.observe_us(u64::MAX / 4);
        let p100 = mixed.quantile_seconds(1.0);
        assert!(p100.is_finite(), "p100 {p100}");
        assert_eq!(p100, last_finite);
        // Lower quantiles stay inside the finite buckets.
        assert!(mixed.quantile_seconds(0.34) <= 1024e-6);
    }

    #[test]
    fn exposition_lists_every_series() {
        let m = Metrics::default();
        m.on_request("/v1/sweep");
        m.on_request("/nope");
        m.on_response(200);
        m.on_response(429);
        m.cache_hits.fetch_add(3, Relaxed);
        m.latency.observe_us(500);
        let text = m.exposition();
        for needle in [
            "pmemflow_serve_requests_total{endpoint=\"/v1/sweep\"} 1",
            "pmemflow_serve_requests_total{endpoint=\"other\"} 1",
            "pmemflow_serve_responses_total{status=\"200\"} 1",
            "pmemflow_serve_responses_total{status=\"429\"} 1",
            "pmemflow_serve_cache_hits_total 3",
            "pmemflow_serve_cache_misses_total 0",
            "pmemflow_serve_cache_misses_inline_total 0",
            "pmemflow_serve_shed_total 0",
            "pmemflow_serve_panics_total 0",
            "pmemflow_serve_queue_depth 0",
            "pmemflow_serve_parked 0",
            "pmemflow_serve_connections_active 0",
            "pmemflow_serve_connections_accepted_total 0",
            "pmemflow_serve_connections_closed_total 0",
            "pmemflow_serve_connections_reaped_total 0",
            "pmemflow_serve_fd_exhausted_total 0",
            "pmemflow_serve_epoll_wakeups_total 0",
            "pmemflow_serve_dispatch_batch{quantile=\"0.95\"}",
            "pmemflow_serve_dispatch_batch_count 0",
            "pmemflow_serve_request_latency_seconds{quantile=\"0.5\"}",
            "pmemflow_serve_request_latency_seconds{quantile=\"0.99\"}",
            "pmemflow_serve_request_latency_seconds_count 1",
        ] {
            assert!(text.contains(needle), "missing {needle}\n{text}");
        }
    }

    #[test]
    fn status_buckets_cover_the_daemons_codes() {
        assert_eq!(status_bucket(200), 0);
        assert_ne!(status_bucket(504), status_bucket(200));
        assert_ne!(status_bucket(408), STATUS_BUCKETS.len() - 1);
        // Unknown codes fold into the last bucket instead of panicking.
        assert_eq!(status_bucket(418), STATUS_BUCKETS.len() - 1);
    }
}
