//! Load generator for the `pmemflow_serve` daemon.
//!
//! Boots an in-process server, then drives a **seeded, Zipf-skewed**
//! query stream at it over real loopback TCP — the access pattern of a
//! cluster scheduler that keeps asking about the same popular workloads.
//! The client fleet is built on the same `pmemflow_net` epoll reactor
//! the daemon uses, so one loadgen thread multiplexes **1000+
//! keep-alive connections** without a thread per client.
//!
//! Passes over the *identical* request sequence:
//!
//! * **cold** — empty cache: the first request for each distinct query
//!   misses — a worker simulates it, or the io thread answers it when the
//!   oracle already holds the answer (a workload a different query
//!   characterized) — and every later one is a cache hit (or, if it
//!   queued behind an identical request, `coalesced`);
//! * **warm sweep** — the same sequence replayed closed-loop at each
//!   connection count (default 4 / 128 / 1000): everything hits the
//!   result cache at microsecond latencies, and the sweep shows how
//!   throughput and tail latency scale with concurrency;
//! * **open-loop** — Poisson arrivals at a target rate, latency
//!   measured from the *scheduled* arrival (queue wait included), the
//!   honest way to see tail latency under load.
//!
//! Cross-checks that every response body is **byte-identical** between
//! cold and warm and across `--workers 1` vs `--workers N`, and that
//! the daemon drains cleanly (zero abandoned connections) after the
//! full fleet disconnects — the CI `serve-smoke` gate. Two checks on the
//! daemon's own counters print a `WARNING:` line when violated: the cold
//! pass's workers compute at most `distinct × workers` answers (misses
//! the io thread answered are not worker computations), and no warm pass
//! misses or coalesces anything (every warm request is a cache hit on
//! the io thread). The warm/cold throughput ratio is printed, not gated.
//!
//! Always writes `BENCH_serve_loadgen.json` (schema-stable, one object)
//! so successive runs seed a perf trajectory. `--smoke` shrinks the
//! sweep to one 512-connection pass for CI.
//!
//! ```text
//! serve_loadgen [--smoke] [--requests N] [--conns C]
//!               [--workers W] [--io-threads T] [--open-rate RPS]
//!               [--seed S] [--out PATH]
//! ```

use pmemflow_bench::BenchArgs;
use pmemflow_des::rng::SplitMix64;
use pmemflow_net::{drain_read, Event, Interest, Reactor, Token, WriteBuf};
use pmemflow_serve::{split_responses, Server, ServerConfig};
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::time::{Duration, Instant};

/// One query of the universe: an endpoint plus a JSON body.
#[derive(Clone)]
struct LoadQuery {
    path: &'static str,
    body: String,
}

/// The query universe the Zipf stream draws from: every family at two
/// rank counts across three endpoints, plus co-schedule pairs. Popular
/// entries (low index) dominate under Zipf — exactly the redundancy the
/// result cache is built to exploit.
fn universe() -> Vec<LoadQuery> {
    let families = [
        "micro-2kb",
        "micro-64mb",
        "gtc-readonly",
        "gtc-matmult",
        "miniamr-readonly",
        "miniamr-matmult",
    ];
    let mut queries = Vec::new();
    for ranks in [8usize, 16] {
        for family in families {
            for path in ["/v1/predict", "/v1/sweep", "/v1/recommend"] {
                queries.push(LoadQuery {
                    path,
                    body: format!("{{\"workload\":\"{family}\",\"ranks\":{ranks}}}"),
                });
            }
        }
    }
    for (a, b) in [
        ("micro-2kb", "micro-64mb"),
        ("gtc-readonly", "miniamr-matmult"),
    ] {
        queries.push(LoadQuery {
            path: "/v1/coschedule",
            body: format!(
                "{{\"tenants\":[{{\"workload\":\"{a}\",\"ranks\":8,\"config\":\"S-LocW\"}},\
                 {{\"workload\":\"{b}\",\"ranks\":8,\"config\":\"P-LocR\"}}]}}"
            ),
        });
    }
    queries
}

/// Zipf(s) sampler over `n` items by inverse-CDF binary search.
struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut acc = 0.0;
        for i in 0..n {
            acc += 1.0 / ((i + 1) as f64).powf(s);
            cdf.push(acc);
        }
        let total = acc;
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    fn sample(&self, rng: &mut SplitMix64) -> usize {
        let u = rng.next_f64();
        self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1)
    }
}

/// Pre-rendered request bytes, one per universe entry (the hot loop
/// must not pay `format!` per send).
fn render_requests(queries: &[LoadQuery]) -> Vec<Vec<u8>> {
    queries
        .iter()
        .map(|q| {
            format!(
                "POST {} HTTP/1.1\r\nHost: l\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{}",
                q.path,
                q.body.len(),
                q.body
            )
            .into_bytes()
        })
        .collect()
}

/// How a pass schedules its requests.
enum Arrivals {
    /// Each connection fires its next request the moment the previous
    /// response lands: throughput is concurrency-limited.
    ClosedLoop,
    /// Poisson arrivals at `rate` req/s, assigned to whichever
    /// connection is free (FIFO queue when none is). Latency runs from
    /// the *scheduled* arrival instant, so queueing delay counts.
    OpenLoop { rate: f64 },
}

/// One nonblocking keep-alive client connection.
struct CConn {
    stream: TcpStream,
    wb: WriteBuf,
    rbuf: Vec<u8>,
    /// `(sequence position, latency clock start)` of the in-flight
    /// request, if any.
    inflight: Option<(usize, Instant)>,
}

struct PassStats {
    elapsed: Duration,
    latencies_us: Vec<u64>,
    bodies: Vec<String>, // per sequence position
}

/// Drive `sequence` (indices into `requests`) at the daemon with
/// `conns` multiplexed connections on one reactor thread.
fn run_pass(
    addr: SocketAddr,
    requests: &[Vec<u8>],
    sequence: &[usize],
    conns: usize,
    arrivals: Arrivals,
    seed: u64,
) -> PassStats {
    let conns = conns.max(1).min(sequence.len().max(1));
    let mut reactor = Reactor::new().expect("client reactor");
    let mut fleet: Vec<CConn> = (0..conns)
        .map(|i| {
            let stream =
                TcpStream::connect(addr).unwrap_or_else(|e| panic!("client conn {i} connect: {e}"));
            stream.set_nodelay(true).expect("nodelay");
            stream.set_nonblocking(true).expect("nonblocking");
            reactor
                .register(
                    std::os::fd::AsRawFd::as_raw_fd(&stream),
                    Token(i as u64),
                    Interest::edge_read_write(),
                )
                .expect("register client conn");
            CConn {
                stream,
                wb: WriteBuf::new(),
                rbuf: Vec::new(),
                inflight: None,
            }
        })
        .collect();

    // Open-loop schedule: exponential inter-arrival gaps, as offsets
    // from pass start. Closed-loop gets an empty schedule.
    let mut rng = SplitMix64::new(seed ^ 0xA11C);
    let offsets: Vec<Duration> = match arrivals {
        Arrivals::ClosedLoop => Vec::new(),
        Arrivals::OpenLoop { rate } => {
            let mut t = 0.0f64;
            sequence
                .iter()
                .map(|_| {
                    t += -(1.0 - rng.next_f64()).ln() / rate;
                    Duration::from_secs_f64(t)
                })
                .collect()
        }
    };
    let open_loop = !offsets.is_empty();

    let total = sequence.len();
    let mut next_pos = 0usize; // next sequence position to dispatch
    let mut completed = 0usize;
    let mut idle: Vec<usize> = Vec::new(); // open-loop: conns awaiting work
    let mut latencies = Vec::with_capacity(total);
    let mut bodies: Vec<String> = vec![String::new(); total];
    let mut events: Vec<Event> = Vec::new();
    let started = Instant::now();
    let mut last_progress = started;

    // Sends the request at `pos` on connection `c`. `t0` is the latency
    // clock start (scheduled arrival for open loop, now for closed).
    let send = |fleet: &mut Vec<CConn>, c: usize, pos: usize, t0: Instant, seq: &[usize]| {
        let conn = &mut fleet[c];
        conn.inflight = Some((pos, t0));
        conn.wb.push(&requests[seq[pos]]);
        let _ = conn.wb.flush(&mut conn.stream); // rest goes out on EPOLLOUT
    };

    // Kick off: closed loop primes every connection; open loop waits
    // for the schedule.
    if open_loop {
        idle.extend(0..conns);
    } else {
        for c in 0..conns {
            if next_pos >= total {
                break;
            }
            send(&mut fleet, c, next_pos, Instant::now(), sequence);
            next_pos += 1;
        }
    }

    while completed < total {
        // Open loop: dispatch every arrival whose time has come to a
        // free connection (in FIFO order — late arrivals queue).
        if open_loop {
            let now = started.elapsed();
            while next_pos < total && offsets[next_pos] <= now {
                let Some(c) = idle.pop() else { break };
                send(
                    &mut fleet,
                    c,
                    next_pos,
                    started + offsets[next_pos],
                    sequence,
                );
                next_pos += 1;
            }
        }
        let timeout = if open_loop && next_pos < total && !idle.is_empty() {
            offsets[next_pos]
                .saturating_sub(started.elapsed())
                .max(Duration::from_micros(100))
        } else {
            Duration::from_millis(100)
        };
        reactor
            .poll(&mut events, Some(timeout))
            .expect("client poll");
        let polled = std::mem::take(&mut events);
        for ev in &polled {
            let c = ev.token.0 as usize;
            if ev.writable && !fleet[c].wb.is_empty() {
                let conn = &mut fleet[c];
                conn.wb.flush(&mut conn.stream).expect("client write");
            }
            if !(ev.readable || ev.closed) {
                continue;
            }
            // Edge-triggered: drain everything the kernel has.
            const READ_LIMIT: usize = 256 * 1024;
            loop {
                let conn = &mut fleet[c];
                let outcome =
                    drain_read(&mut conn.stream, &mut conn.rbuf, READ_LIMIT).expect("client read");
                // A completed response hands the connection its next job.
                let (responses, leftover) =
                    split_responses(&conn.rbuf).expect("well-framed response stream");
                let consumed = conn.rbuf.len() - leftover;
                conn.rbuf.drain(..consumed);
                for response in responses {
                    let (pos, t0) = fleet[c].inflight.take().expect("response without request");
                    assert_eq!(
                        response.status,
                        200,
                        "request #{pos}: {}",
                        String::from_utf8_lossy(&response.body)
                    );
                    latencies.push(t0.elapsed().as_micros() as u64);
                    bodies[pos] = String::from_utf8(response.body).expect("utf8 body");
                    completed += 1;
                    last_progress = Instant::now();
                    if open_loop {
                        idle.push(c);
                    } else if next_pos < total {
                        send(&mut fleet, c, next_pos, Instant::now(), sequence);
                        next_pos += 1;
                    }
                }
                assert!(
                    !outcome.eof,
                    "daemon closed connection {c} mid-pass (keep-alive broken)"
                );
                if outcome.bytes < READ_LIMIT {
                    break; // WouldBlock reached: the edge is re-armed
                }
            }
        }
        events = polled;
        assert!(
            last_progress.elapsed() < Duration::from_secs(60),
            "pass hung: {completed}/{total} after {:?}",
            started.elapsed()
        );
    }
    PassStats {
        elapsed: started.elapsed(),
        latencies_us: latencies,
        bodies,
    }
}

fn quantile(sorted_us: &[u64], q: f64) -> f64 {
    if sorted_us.is_empty() {
        return 0.0;
    }
    let idx = ((q * sorted_us.len() as f64).ceil() as usize).clamp(1, sorted_us.len()) - 1;
    sorted_us[idx] as f64 / 1e3
}

/// Per-pass summary: the numbers that go to stdout and the BENCH json.
struct Summary {
    connections: usize,
    requests: usize,
    elapsed_s: f64,
    req_per_s: f64,
    p50_ms: f64,
    p95_ms: f64,
    p99_ms: f64,
}

fn summarize(connections: usize, stats: &PassStats) -> Summary {
    let mut sorted = stats.latencies_us.clone();
    sorted.sort_unstable();
    Summary {
        connections,
        requests: stats.bodies.len(),
        elapsed_s: stats.elapsed.as_secs_f64(),
        req_per_s: stats.bodies.len() as f64 / stats.elapsed.as_secs_f64(),
        p50_ms: quantile(&sorted, 0.50),
        p95_ms: quantile(&sorted, 0.95),
        p99_ms: quantile(&sorted, 0.99),
    }
}

fn report(label: &str, s: &Summary) {
    println!(
        "{label:<10} {:>5} conns  {:>6} req in {:>7.3}s = {:>9.1} req/s   \
         p50 {:>8.3}ms  p95 {:>8.3}ms  p99 {:>8.3}ms",
        s.connections, s.requests, s.elapsed_s, s.req_per_s, s.p50_ms, s.p95_ms, s.p99_ms,
    );
}

fn summary_json(s: &Summary) -> String {
    format!(
        "{{\"connections\":{},\"requests\":{},\"elapsed_s\":{:.4},\"req_per_s\":{:.1},\
         \"p50_ms\":{:.4},\"p95_ms\":{:.4},\"p99_ms\":{:.4}}}",
        s.connections, s.requests, s.elapsed_s, s.req_per_s, s.p50_ms, s.p95_ms, s.p99_ms
    )
}

fn main() {
    let args = BenchArgs::from_env();
    let smoke = args.switch("--smoke");
    let requests: usize = args.parse_or("--requests", if smoke { 2048 } else { 4000 });
    let workers: usize = args.parse_or("--workers", 2);
    let io_threads: usize = args.parse_or("--io-threads", 1);
    let seed: u64 = args.parse_or("--seed", 42);
    let open_rate: f64 = args.parse_or("--open-rate", 2000.0);
    let out = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_serve_loadgen.json".to_string());
    // The warm closed-loop sweep: CI smoke gates on one 512-connection
    // pass; the full run walks 4 / 128 / 1000.
    let sweep: Vec<usize> = match args.parse_or("--conns", 0) {
        0 if smoke => vec![512],
        0 => vec![4, 128, 1000],
        c => vec![c],
    };
    args.reject_unread();

    let queries = universe();
    let rendered = render_requests(&queries);
    let zipf = Zipf::new(queries.len(), 1.1);
    let mut rng = SplitMix64::new(seed);
    let sequence: Vec<usize> = (0..requests).map(|_| zipf.sample(&mut rng)).collect();
    let distinct: std::collections::BTreeSet<usize> = sequence.iter().copied().collect();

    println!(
        "serve_loadgen: {requests} requests over {} distinct queries (universe {}), \
         Zipf s=1.1 seed {seed}, warm sweep {sweep:?} conns, {workers} worker(s), \
         {io_threads} io thread(s)\n",
        distinct.len(),
        queries.len()
    );

    let server = Server::start(ServerConfig {
        workers,
        io_threads,
        ..ServerConfig::default()
    })
    .expect("server boots");
    let addr = server.addr();

    let cold = run_pass(addr, &rendered, &sequence, 4, Arrivals::ClosedLoop, seed);
    let cold_sum = summarize(4, &cold);
    report("cold", &cold_sum);
    let m = server.metrics();
    let computed = || (m.cache_misses.load(Relaxed), m.coalesced.load(Relaxed));
    let after_cold = computed();
    let mut warnings = Vec::new();
    // Two workers that miss the same key at once both compute it, so a
    // distinct query costs at most one computation per worker.
    let worker_computed = after_cold.0.saturating_sub(m.inline_misses.load(Relaxed));
    if worker_computed > (distinct.len() * workers.max(1)) as u64 {
        warnings.push(format!(
            "cold pass's workers computed {worker_computed} answers for {} distinct queries \
             on {} worker(s)",
            distinct.len(),
            workers.max(1)
        ));
    }
    // A warm request must be answered on the io thread, never a worker.
    let mut check_warm = |pass: &str| {
        let now = computed();
        if now != after_cold {
            warnings.push(format!(
                "{pass} pass reached a worker: (misses, coalesced) {after_cold:?} -> {now:?}"
            ));
        }
    };

    let mut warm_sums = Vec::new();
    let mut warm_best: Option<PassStats> = None;
    for &conns in &sweep {
        let warm = run_pass(
            addr,
            &rendered,
            &sequence,
            conns,
            Arrivals::ClosedLoop,
            seed,
        );
        for (pos, (c, w)) in cold.bodies.iter().zip(&warm.bodies).enumerate() {
            assert_eq!(c, w, "response #{pos} changed between cold and warm");
        }
        let s = summarize(conns, &warm);
        report("warm", &s);
        check_warm("warm");
        warm_sums.push(s);
        warm_best = Some(warm);
    }
    let warm = warm_best.expect("at least one warm pass");

    // Open loop at a fixed arrival rate: tail latency with queueing
    // delay counted, the way a latency SLO would see it.
    let open_conns = sweep.iter().copied().max().unwrap_or(256).min(256);
    let open = run_pass(
        addr,
        &rendered,
        &sequence,
        open_conns,
        Arrivals::OpenLoop { rate: open_rate },
        seed,
    );
    let open_sum = summarize(open_conns, &open);
    report("open-loop", &open_sum);
    check_warm("open-loop");
    println!("            (target {open_rate:.0} req/s Poisson)");

    let hits = m.cache_hits.load(Relaxed);
    let misses = m.cache_misses.load(Relaxed);
    let inline_misses = m.inline_misses.load(Relaxed);
    let coalesced = m.coalesced.load(Relaxed);
    let hit_rate = hits as f64 / (hits + coalesced + misses).max(1) as f64;
    println!(
        "\ncache: {hits} hits, {misses} misses ({inline_misses} answered on the io thread), \
         {coalesced} coalesced — {:.1}% hit rate",
        hit_rate * 100.0
    );
    let warm_peak = warm_sums.iter().map(|s| s.req_per_s).fold(0.0f64, f64::max);
    println!(
        "warm/cold speedup: {:.1}x (peak warm {:.0} req/s)",
        warm_peak / cold_sum.req_per_s,
        warm_peak
    );
    server.shutdown();
    let abandoned = server.join();
    assert_eq!(abandoned, 0, "connections abandoned at drain");
    println!(
        "drain: clean ({} conns at peak, 0 abandoned)",
        sweep.iter().max().unwrap()
    );

    // Byte-identity across worker counts: a single-worker server must
    // produce exactly the bytes the multi-worker server did.
    let reference = Server::start(ServerConfig {
        workers: 1,
        ..ServerConfig::default()
    })
    .expect("reference server boots");
    let distinct_seq: Vec<usize> = distinct.into_iter().collect();
    let single = run_pass(
        reference.addr(),
        &rendered,
        &distinct_seq,
        1,
        Arrivals::ClosedLoop,
        seed,
    );
    for (i, &qi) in distinct_seq.iter().enumerate() {
        let multi = &warm.bodies[sequence.iter().position(|&s| s == qi).expect("seen")];
        assert_eq!(
            &single.bodies[i], multi,
            "query {qi} differs between --workers 1 and --workers {workers}"
        );
    }
    println!(
        "byte-identity: {} distinct responses identical across --workers 1 and --workers {workers}",
        distinct_seq.len()
    );
    reference.shutdown();
    reference.join();

    let json = format!(
        "{{\"bench\":\"serve_loadgen\",\"smoke\":{smoke},\"seed\":{seed},\
         \"requests\":{requests},\"workers\":{workers},\"io_threads\":{io_threads},\
         \"universe\":{},\"distinct\":{},\
         \"cold\":{},\"warm\":[{}],\"open_loop\":{{\"rate_target_per_s\":{open_rate:.0},{}}},\
         \"cache\":{{\"hits\":{hits},\"misses\":{misses},\"coalesced\":{coalesced},\
         \"hit_rate\":{hit_rate:.4}}},\"byte_identity\":true,\"clean_drain\":true}}\n",
        queries.len(),
        distinct_seq.len(),
        summary_json(&cold_sum),
        warm_sums
            .iter()
            .map(summary_json)
            .collect::<Vec<_>>()
            .join(","),
        // Reuse the summary fields inside the open_loop object.
        summary_json(&open_sum)
            .trim_start_matches('{')
            .trim_end_matches('}'),
    );
    std::fs::write(&out, &json).expect("write bench JSON");
    println!("wrote {out}");

    for w in &warnings {
        println!("WARNING: {w}");
    }
}
