//! `serve`: an in-process daemon (1 io thread, 1 worker, a result cache
//! smaller than the query universe) driven closed-loop by 2 keep-alive
//! clients multiplexed on one client thread. The load is a seeded Zipf(1.1)
//! stream over every endpoint and both I/O stacks. Unit of work: a batch of
//! [`BATCH`] requests. Request: one HTTP request, timed at the client.
//! The client thread probes host speed between batches, and each batch's
//! times are rescaled to the reference speed by the probes around it.
//!
//! Traced runs boot a second daemon whose backend is a [`TimedBackend`]
//! around the same (already warm) model backend, and alternate batches
//! between the two; the cache, network and latency counters come from
//! `Server::metrics()`.

use crate::pace::{units_note, Pace, Timed};
use crate::report::{median, overhead_pct, quantile, EndToEnd, Layers, Report, Rng};
use crate::Args;
use pmemflow_net::{drain_read, Event, Interest, Reactor, Token, WriteBuf};
use pmemflow_serve::{Answer, Backend, Metrics, ModelBackend, Query, Server, ServerConfig};
use std::net::{SocketAddr, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Requests per unit of work: about 50 ms of it, so the probes around a
/// batch see the speed it ran at.
const BATCH: usize = 2_048;
/// Threads that probe host speed at once: the client, io and worker
/// threads spread over both vCPUs.
const PROBE_THREADS: usize = 2;
/// How strongly a batch's time follows the host-speed probe (see `pace`).
const SENSITIVITY: f64 = 0.6;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 2;
/// Keep-alive client connections.
const CONNS: usize = 2;
/// Result-cache entries: fewer than the universe holds, so the stream
/// mixes inline hits with worker misses that evict.
const CACHE_ENTRIES: usize = 64;
/// Zipf exponent of query popularity.
const ZIPF_S: f64 = 1.1;
/// A request with no progress for this long fails the run.
const STALL: Duration = Duration::from_secs(30);

const FAMILIES: [&str; 6] = [
    "micro-2kb",
    "micro-64mb",
    "gtc-readonly",
    "gtc-matmult",
    "miniamr-readonly",
    "miniamr-matmult",
];
const CONFIGS: [&str; 4] = ["S-LocW", "S-LocR", "P-LocW", "P-LocR"];

/// Every query the stream draws from, as rendered HTTP requests: per
/// stack, each family at 8 and 16 ranks on sweep, recommend and predict
/// (best and each Table I configuration), plus two-tenant co-schedules of
/// every family pair.
fn universe() -> Vec<Vec<u8>> {
    let mut out = Vec::new();
    let mut push = |path: &str, body: String| {
        out.push(
            format!(
                "POST {path} HTTP/1.1\r\nHost: bench\r\nContent-Type: application/json\r\n\
                 Content-Length: {}\r\n\r\n{body}",
                body.len()
            )
            .into_bytes(),
        )
    };
    for stack in ["nvstream", "nova"] {
        for family in FAMILIES {
            for ranks in [8, 16] {
                let q =
                    format!("\"workload\":\"{family}\",\"ranks\":{ranks},\"stack\":\"{stack}\"");
                push("/v1/sweep", format!("{{{q}}}"));
                push("/v1/recommend", format!("{{{q}}}"));
                push("/v1/predict", format!("{{{q}}}"));
                for config in CONFIGS {
                    push("/v1/predict", format!("{{{q},\"config\":\"{config}\"}}"));
                }
            }
        }
        for (i, a) in FAMILIES.iter().enumerate() {
            for b in &FAMILIES[i..] {
                let pairs: &[(&str, &str)] = if a == b {
                    &[
                        ("S-LocW", "S-LocW"),
                        ("S-LocW", "P-LocR"),
                        ("P-LocR", "P-LocR"),
                    ]
                } else {
                    &[
                        ("S-LocW", "S-LocW"),
                        ("S-LocW", "P-LocR"),
                        ("P-LocR", "S-LocW"),
                        ("P-LocR", "P-LocR"),
                    ]
                };
                for (ca, cb) in pairs {
                    push(
                        "/v1/coschedule",
                        format!(
                            "{{\"stack\":\"{stack}\",\"tenants\":[\
                             {{\"workload\":\"{a}\",\"ranks\":8,\"config\":\"{ca}\"}},\
                             {{\"workload\":\"{b}\",\"ranks\":8,\"config\":\"{cb}\"}}]}}"
                        ),
                    );
                }
            }
        }
    }
    out
}

/// Zipf draw over the universe. Which queries are popular is fixed, so
/// every seed offers the same mix; the seed drives the draws.
struct Stream {
    rng: Rng,
    cdf: Vec<f64>,
    by_rank: Vec<usize>,
}

/// Seed of the fixed popularity order.
const POPULARITY_SEED: u64 = 11;

impl Stream {
    fn new(seed: u64, n: usize) -> Stream {
        let by_rank = Rng::new(POPULARITY_SEED).permutation(n);
        let rng = Rng::new(seed);
        let weights: Vec<f64> = (1..=n).map(|r| (r as f64).powf(-ZIPF_S)).collect();
        let total: f64 = weights.iter().sum();
        let mut acc = 0.0;
        let cdf = weights
            .iter()
            .map(|w| {
                acc += w / total;
                acc
            })
            .collect();
        Stream { rng, cdf, by_rank }
    }

    fn next(&mut self) -> usize {
        let u = self.rng.next_f64();
        let rank = self.cdf.partition_point(|&c| c < u).min(self.cdf.len() - 1);
        self.by_rank[rank]
    }
}

/// A `Backend` decorator that times each `answer` call.
struct TimedBackend {
    inner: Arc<dyn Backend>,
    calls: AtomicU64,
    nanos: AtomicU64,
}

impl Backend for TimedBackend {
    fn answer(&self, query: &Query) -> Answer {
        let t0 = Instant::now();
        let answer = self.inner.answer(query);
        self.nanos
            .fetch_add(t0.elapsed().as_nanos() as u64, Relaxed);
        self.calls.fetch_add(1, Relaxed);
        answer
    }
}

/// Parse one complete response off the front of `buf`:
/// `(status, body range, bytes consumed)`, or `None` while incomplete.
/// The daemon always frames with `Content-Length`.
fn parse_response(buf: &[u8]) -> Option<(u16, std::ops::Range<usize>, usize)> {
    let head_end = buf.windows(4).position(|w| w == b"\r\n\r\n")? + 4;
    let head = std::str::from_utf8(&buf[..head_end]).ok()?;
    let mut lines = head.split("\r\n");
    let status = lines.next()?.split(' ').nth(1)?.parse().ok()?;
    let len: usize = lines
        .find_map(|l| {
            let (k, v) = l.split_once(':')?;
            k.eq_ignore_ascii_case("content-length")
                .then(|| v.trim().parse().ok())?
        })
        .unwrap_or(0);
    (buf.len() >= head_end + len).then_some((status, head_end..head_end + len, head_end + len))
}

struct Conn {
    stream: TcpStream,
    wb: WriteBuf,
    rbuf: Vec<u8>,
    /// The query in flight and when it was sent.
    inflight: Option<(usize, Instant)>,
}

/// Closed-loop keep-alive clients on one thread and one epoll reactor.
struct Client {
    reactor: Reactor,
    conns: Vec<Conn>,
    events: Vec<Event>,
}

impl Client {
    fn connect(addr: SocketAddr) -> std::io::Result<Client> {
        let reactor = Reactor::new()?;
        let mut conns = Vec::new();
        for i in 0..CONNS {
            let stream = TcpStream::connect(addr)?;
            stream.set_nodelay(true)?;
            stream.set_nonblocking(true)?;
            reactor.register(
                stream.as_raw_fd(),
                Token(i as u64),
                Interest::edge_read_write(),
            )?;
            conns.push(Conn {
                stream,
                wb: WriteBuf::new(),
                rbuf: Vec::new(),
                inflight: None,
            });
        }
        Ok(Client {
            reactor,
            conns,
            events: Vec::new(),
        })
    }

    /// Send `n` requests, each connection sending its next as soon as its
    /// previous response lands; `done(query, status, body, latency)` sees
    /// every response.
    fn drive(
        &mut self,
        n: usize,
        requests: &[Vec<u8>],
        mut next: impl FnMut() -> usize,
        mut done: impl FnMut(usize, u16, &[u8], Duration),
    ) -> std::io::Result<()> {
        let send = |conn: &mut Conn, q: usize| -> std::io::Result<()> {
            conn.inflight = Some((q, Instant::now()));
            conn.wb.push(&requests[q]);
            conn.wb.flush(&mut conn.stream).map(drop)
        };
        let (mut sent, mut completed) = (0, 0);
        for conn in &mut self.conns {
            if sent < n {
                send(conn, next())?;
                sent += 1;
            }
        }
        let mut progress = Instant::now();
        while completed < n {
            self.reactor
                .poll(&mut self.events, Some(Duration::from_millis(100)))?;
            for ev in &self.events {
                let conn = &mut self.conns[ev.token.0 as usize];
                if ev.writable && !conn.wb.is_empty() {
                    conn.wb.flush(&mut conn.stream)?;
                }
                if !(ev.readable || ev.closed) {
                    continue;
                }
                let outcome = drain_read(&mut conn.stream, &mut conn.rbuf, usize::MAX)?;
                while let Some((status, body, used)) = parse_response(&conn.rbuf) {
                    let (q, t0) = conn.inflight.take().ok_or_else(|| {
                        std::io::Error::other("response without a request in flight")
                    })?;
                    done(q, status, &conn.rbuf[body], t0.elapsed());
                    conn.rbuf.drain(..used);
                    completed += 1;
                    progress = Instant::now();
                    if sent < n {
                        send(conn, next())?;
                        sent += 1;
                    }
                }
                if outcome.eof {
                    return Err(std::io::Error::other(
                        "daemon closed a keep-alive connection",
                    ));
                }
            }
            if progress.elapsed() > STALL {
                return Err(std::io::Error::other(format!("stalled at {completed}/{n}")));
            }
        }
        Ok(())
    }
}

/// Counter snapshot of one daemon.
struct Counters {
    requests: u64,
    hits: u64,
    misses: u64,
    coalesced: u64,
    evictions: u64,
    wakeups: u64,
    dispatch_sum: u64,
    dispatch_count: u64,
    backend_calls: u64,
    backend_nanos: u64,
}

impl Counters {
    fn read(m: &Metrics, timed: Option<&TimedBackend>) -> Counters {
        Counters {
            requests: m.requests.iter().map(|r| r.load(Relaxed)).sum(),
            hits: m.cache_hits.load(Relaxed),
            misses: m.cache_misses.load(Relaxed),
            coalesced: m.coalesced.load(Relaxed),
            evictions: m.evictions.load(Relaxed),
            wakeups: m.epoll_wakeups_total.load(Relaxed),
            dispatch_sum: m.dispatch_batch.sum_units(),
            dispatch_count: m.dispatch_batch.count(),
            backend_calls: timed.map_or(0, |t| t.calls.load(Relaxed)),
            backend_nanos: timed.map_or(0, |t| t.nanos.load(Relaxed)),
        }
    }

    /// Per-layer figures of the batch between `self` and `after`, its
    /// times rescaled by `factor`.
    fn layers(&self, after: &Counters, factor: f64) -> Layers {
        let d = |f: fn(&Counters) -> u64| (f(after) - f(self)) as f64;
        let lookups = d(|c| c.hits) + d(|c| c.misses) + d(|c| c.coalesced);
        let calls = d(|c| c.backend_calls);
        let backend_s = d(|c| c.backend_nanos) / 1e9 * factor;
        Layers {
            hit_ratio: d(|c| c.hits) / lookups.max(1.0),
            misses: d(|c| c.misses),
            evictions: d(|c| c.evictions),
            backend_s,
            backend_calls: calls,
            backend_us_per_call: backend_s * 1e6 / calls.max(1.0),
            epoll_wakeups_per_req: d(|c| c.wakeups) / d(|c| c.requests).max(1.0),
            dispatch_batch_mean: d(|c| c.dispatch_sum) / d(|c| c.dispatch_count).max(1.0),
            ..Layers::default()
        }
    }
}

/// One booted daemon, its clients, and the timed backend behind it when
/// traced.
struct Daemon {
    server: Server,
    client: Client,
    timed: Option<Arc<TimedBackend>>,
}

fn boot(backend: Arc<dyn Backend>, timed: Option<Arc<TimedBackend>>) -> Daemon {
    let config = ServerConfig {
        io_threads: 1,
        workers: 1,
        cache_capacity: CACHE_ENTRIES,
        ..ServerConfig::default()
    };
    let server = Server::start_with_backend(config, backend).expect("daemon boots");
    let client = Client::connect(server.addr()).expect("clients connect");
    Daemon {
        server,
        client,
        timed,
    }
}

/// Ask every query once, in universe order, and return the bodies.
fn warm(report: &mut Report, daemon: &mut Daemon, requests: &[Vec<u8>]) -> Vec<Vec<u8>> {
    let mut bodies = vec![Vec::new(); requests.len()];
    let mut order = 0..requests.len();
    let result = daemon.client.drive(
        requests.len(),
        requests,
        || order.next().expect("one query per warm-up request"),
        |q, status, body, _| {
            report.check(status == 200, || {
                format!("warm-up query {q} answered {status}")
            });
            bodies[q] = body.to_vec();
        },
    );
    report.check(result.is_ok(), || {
        format!("warm-up pass failed: {result:?}")
    });
    bodies
}

fn shut_down(report: &mut Report, daemon: Daemon) {
    let Daemon { server, client, .. } = daemon;
    drop(client);
    server.shutdown();
    let abandoned = server.join();
    report.check(abandoned == 0, || {
        format!("drain abandoned {abandoned} connections")
    });
}

pub fn run(args: &Args) -> Report {
    let mut report = Report::default();
    let requests = universe();

    // Set-up: boot the daemon on a fresh model backend and ask every query
    // once, which characterizes every workload and prices every co-run
    // set. The last set-up's daemon serves the timed phase.
    let mut pace = Pace::new(Duration::MAX, PROBE_THREADS, SENSITIVITY);
    let mut setup_s = Vec::new();
    let mut ready = None;
    for _ in 0..SETUPS {
        pace.begin();
        let backend: Arc<dyn Backend> = Arc::new(ModelBackend::new());
        let mut daemon = boot(backend.clone(), None);
        let bodies = warm(&mut report, &mut daemon, &requests);
        setup_s.push(pace.end().scaled);
        if let Some((old, _, _)) = ready.replace((daemon, backend, bodies)) {
            shut_down(&mut report, old);
        }
    }
    let (plain, backend, reference) = ready.expect("at least one set-up");
    let mut daemons = vec![plain];
    if args.trace {
        let timed = Arc::new(TimedBackend {
            inner: backend,
            calls: AtomicU64::new(0),
            nanos: AtomicU64::new(0),
        });
        let mut daemon = boot(timed.clone(), Some(timed));
        let bodies = warm(&mut report, &mut daemon, &requests);
        report.check(bodies == reference, || {
            "the traced daemon answered differently from the untraced one".into()
        });
        daemons.push(daemon);
    }

    let mut stream = Stream::new(args.seed, requests.len());
    // Each untraced batch's time and its rescaled p50 and p99 latencies.
    let mut batches: Vec<(Timed, f64, f64)> = Vec::new();
    let mut traced: Vec<(f64, Layers)> = Vec::new();
    let start = Instant::now();
    let mut i = 0usize;
    let servers = daemons.len();
    while i < 2 || start.elapsed() < args.budget {
        let daemon = &mut daemons[i % servers];
        let timed = daemon.timed.clone();
        let before = Counters::read(daemon.server.metrics(), timed.as_deref());
        let mut batch_latencies = Vec::with_capacity(BATCH);
        let mut failed = 0u64;
        pace.begin();
        let result = daemon.client.drive(
            BATCH,
            &requests,
            || stream.next(),
            |q, status, body, latency| {
                batch_latencies.push(latency.as_secs_f64() * 1e6);
                if status != 200 || body != reference[q] {
                    failed += 1;
                }
            },
        );
        let time = pace.end();
        let after = Counters::read(daemon.server.metrics(), timed.as_deref());
        report.ops(
            BATCH as u64,
            failed + (BATCH - batch_latencies.len()) as u64,
        );
        if let Err(e) = result {
            report.note(format!("batch {i} failed: {e}"));
            break;
        }
        if timed.is_some() {
            traced.push((time.scaled, before.layers(&after, time.factor())));
        } else {
            let at = |q| quantile(&batch_latencies, q) * time.factor();
            batches.push((time, at(0.5), at(0.99)));
        }
        i += 1;
    }
    let units: Vec<Timed> = batches.iter().map(|b| b.0).collect();
    report.note(format!(
        "{} queries, {} untraced + {} traced batches of {BATCH}, {} untraced latency samples",
        requests.len(),
        batches.len(),
        traced.len(),
        batches.len() * BATCH
    ));

    let server_p50_ms = daemons.last().map_or(0.0, |d| {
        d.server.metrics().latency.quantile_seconds(0.5) * 1e3
    });
    for daemon in daemons {
        shut_down(&mut report, daemon);
    }

    report.note(units_note("untraced", &units));
    report.note(pace.summary());
    let walls: Vec<f64> = units.iter().map(|t| t.scaled).collect();
    if args.trace {
        let traced_walls: Vec<f64> = traced.iter().map(|(w, _)| *w).collect();
        let overhead = overhead_pct(&walls, &traced_walls);
        // The traced batch with the median wall time supplies the split.
        traced.sort_by(|a, b| a.0.total_cmp(&b.0));
        let layers = traced.swap_remove((traced.len() - 1) / 2).1;
        report.layers(Layers {
            server_latency_p50_ms: server_p50_ms,
            overhead_pct: overhead,
            ..layers
        });
    } else {
        let wall_s = median(&walls);
        report.end_to_end(EndToEnd {
            setup_s: median(&setup_s),
            wall_s,
            req_per_s: BATCH as f64 / wall_s,
            latency_p50_ms: median(&batches.iter().map(|b| b.1).collect::<Vec<_>>()) / 1e3,
            latency_p99_ms: median(&batches.iter().map(|b| b.2).collect::<Vec<_>>()) / 1e3,
        });
    }
    report
}
