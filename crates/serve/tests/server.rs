//! End-to-end tests of the daemon over real loopback TCP.

use pmemflow_serve::{split_responses, Answer, Backend, Query, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// A parsed response: status, headers (lowercased names), body.
struct Response {
    status: u16,
    headers: Vec<(String, String)>,
    body: String,
}

impl Response {
    fn header(&self, name: &str) -> Option<&str> {
        let name = name.to_ascii_lowercase();
        self.headers
            .iter()
            .find(|(k, _)| *k == name)
            .map(|(_, v)| v.as_str())
    }
}

fn read_response(reader: &mut BufReader<TcpStream>) -> Response {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line
        .split(' ')
        .nth(1)
        .expect("status line")
        .parse()
        .unwrap();
    let mut headers = Vec::new();
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        let (k, v) = line.split_once(':').unwrap();
        headers.push((k.to_ascii_lowercase(), v.trim().to_string()));
    }
    let len: usize = headers
        .iter()
        .find(|(k, _)| k == "content-length")
        .map(|(_, v)| v.parse().unwrap())
        .unwrap_or(0);
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).unwrap();
    Response {
        status,
        headers,
        body: String::from_utf8(body).unwrap(),
    }
}

fn raw_request(method: &str, path: &str, body: &str) -> String {
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

/// Read until `n` whole responses have arrived (or the daemon closes);
/// returns the raw bytes.
fn read_responses(s: &mut TcpStream, n: usize) -> Vec<u8> {
    let mut got = Vec::new();
    let mut buf = [0u8; 4096];
    while split_responses(&got).map_or(0, |(r, _)| r.len()) < n {
        match s.read(&mut buf) {
            Ok(0) => break,
            Ok(k) => got.extend_from_slice(&buf[..k]),
            Err(e) => panic!("read failed after {} bytes: {e}", got.len()),
        }
    }
    got
}

fn predict(ranks: usize) -> String {
    let body = format!(r#"{{"workload":"micro-2kb","ranks":{ranks}}}"#);
    raw_request("POST", "/v1/predict", &body)
}

/// One request on a fresh connection.
fn call(addr: SocketAddr, method: &str, path: &str, body: &str) -> Response {
    let mut stream = TcpStream::connect(addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .unwrap();
    stream
        .write_all(raw_request(method, path, body).as_bytes())
        .unwrap();
    read_response(&mut BufReader::new(stream))
}

/// A keep-alive connection that carries one request after another.
struct Conn {
    stream: TcpStream,
    reader: BufReader<TcpStream>,
}

impl Conn {
    fn open(addr: SocketAddr) -> Conn {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .unwrap();
        let reader = BufReader::new(stream.try_clone().unwrap());
        Conn { stream, reader }
    }

    fn call(&mut self, method: &str, path: &str, body: &str) -> Response {
        let request = raw_request(method, path, body);
        self.stream.write_all(request.as_bytes()).unwrap();
        read_response(&mut self.reader)
    }
}

fn small_config() -> ServerConfig {
    ServerConfig {
        workers: 2,
        cache_capacity: 32,
        ..ServerConfig::default()
    }
}

#[test]
fn serves_every_endpoint_and_shuts_down_cleanly() {
    let server = Server::start(small_config()).unwrap();
    let addr = server.addr();

    let health = call(addr, "GET", "/healthz", "");
    assert_eq!(health.status, 200);
    assert_eq!(health.body, "ok\n");

    let sweep = call(
        addr,
        "POST",
        "/v1/sweep",
        r#"{"workload":"micro-2kb","ranks":8}"#,
    );
    assert_eq!(sweep.status, 200, "{}", sweep.body);
    assert!(sweep.body.contains("\"runs\":["));
    assert_eq!(sweep.header("x-pmemflow-cache"), Some("miss"));

    let rec = call(
        addr,
        "POST",
        "/v1/recommend",
        r#"{"workload":"micro-2kb","ranks":8}"#,
    );
    assert_eq!(rec.status, 200, "{}", rec.body);
    assert!(rec.body.contains("\"rule_based\""));
    assert!(rec.body.contains("\"model_driven\""));

    let pred = call(
        addr,
        "POST",
        "/v1/predict",
        r#"{"workload":"micro-2kb","ranks":8,"config":"S-LocW"}"#,
    );
    assert_eq!(pred.status, 200, "{}", pred.body);
    assert!(pred.body.contains("\"predicted_runtime_s\":"));

    let co = call(
        addr,
        "POST",
        "/v1/coschedule",
        r#"{"tenants":[{"workload":"micro-2kb","ranks":8,"config":"S-LocW"},
                       {"workload":"micro-2kb","ranks":8,"config":"P-LocR"}]}"#,
    );
    assert_eq!(co.status, 200, "{}", co.body);
    assert!(co.body.contains("\"makespan_s\":"));

    // Error mapping.
    assert_eq!(call(addr, "POST", "/v1/sweep", "{not json").status, 400);
    assert_eq!(
        call(addr, "POST", "/v1/sweep", r#"{"workload":"hpl","ranks":8}"#).status,
        400
    );
    assert_eq!(call(addr, "GET", "/v1/sweep", "").status, 405);
    assert_eq!(call(addr, "POST", "/healthz", "").status, 405);
    assert_eq!(call(addr, "GET", "/nope", "").status, 404);

    // Metrics reflect the traffic above.
    let metrics = call(addr, "GET", "/metrics", "");
    assert_eq!(metrics.status, 200);
    assert!(metrics
        .body
        .contains("pmemflow_serve_requests_total{endpoint=\"/v1/sweep\"} 4"));
    assert!(metrics.body.contains("pmemflow_serve_cache_misses_total 4"));
    assert!(metrics
        .body
        .contains("pmemflow_serve_request_latency_seconds{quantile=\"0.99\"}"));

    // No op-log replication families are exposed any more.
    assert!(
        !metrics.body.contains("pmemflow_serve_nr_"),
        "stale replication metrics:\n{}",
        metrics.body
    );

    // A query the node cannot hold is the model's to reject, with 422.
    let over = call(
        addr,
        "POST",
        "/v1/predict",
        r#"{"workload":"micro-2kb","ranks":29}"#,
    );
    assert_eq!(over.status, 422);
    assert_eq!(
        over.body,
        r#"{"error":"invalid workflow: characterizing micro-2KB@29: pinning failed: a socket has 28 cores, 29 requested"}"#
    );

    // Graceful drain: in-band shutdown, then the port must refuse work.
    let daemon_metrics = server.metrics().clone();
    let bye = call(addr, "POST", "/admin/shutdown", "");
    assert_eq!(bye.status, 200);
    assert_eq!(server.join(), 0, "connections leaked past the drain");
    daemon_metrics.connection_conservation().unwrap();
}

/// Regression for the deep-pipeline stall: a burst far past
/// `MAX_PIPELINE` of *inline* answers used to park the connection
/// forever — decode stopped at the backpressure limit with complete
/// requests still buffered, and since the socket bytes were already
/// consumed, no readiness edge would ever resume it. The pump must
/// flush-and-retry instead of parking.
#[test]
fn deep_pipeline_of_inline_answers() {
    let server = Server::start(ServerConfig {
        io_threads: 1,
        workers: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut s = TcpStream::connect(server.addr()).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
    const N: usize = 40;
    let mut burst = Vec::new();
    for _ in 0..N {
        burst.extend_from_slice(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n");
    }
    s.write_all(&burst).unwrap();
    let got = read_responses(&mut s, N);
    let (responses, leftover) = split_responses(&got).expect("well-framed response stream");
    assert_eq!(responses.len(), N, "expected all pipelined responses");
    assert_eq!(leftover, 0, "no interleaved bytes after the last response");
    assert!(responses
        .iter()
        .all(|r| r.status == 200 && r.body == b"ok\n"));
    drop(s);
    let metrics = server.metrics().clone();
    server.shutdown();
    assert_eq!(server.join(), 0);
    metrics.connection_conservation().unwrap();
}

#[test]
fn cached_response_is_byte_identical_to_cold() {
    let server = Server::start(small_config()).unwrap();
    let addr = server.addr();
    let body = r#"{"workload":"micro-2kb","ranks":8}"#;
    let cold = call(addr, "POST", "/v1/predict", body);
    let warm = call(addr, "POST", "/v1/predict", body);
    assert_eq!(cold.status, 200);
    assert_eq!(cold.header("x-pmemflow-cache"), Some("miss"));
    assert_eq!(warm.header("x-pmemflow-cache"), Some("hit"));
    assert_eq!(cold.body, warm.body, "cache must not change the bytes");
    // A different spelling of the same question shares the cache line.
    let folded = call(
        addr,
        "POST",
        "/v1/predict",
        r#"{"workload":"MICRO-2KB","ranks":8,"stack":"NVStream"}"#,
    );
    assert_eq!(folded.header("x-pmemflow-cache"), Some("hit"));
    assert_eq!(folded.body, cold.body);
    assert_eq!(server.cache_len(), 1);
    server.shutdown();
    server.join();
}

#[test]
fn keep_alive_carries_multiple_requests() {
    let server = Server::start(small_config()).unwrap();
    let mut conn = Conn::open(server.addr());
    for _ in 0..3 {
        let r = conn.call("GET", "/healthz", "");
        assert_eq!(r.status, 200);
        assert_eq!(r.header("connection"), Some("keep-alive"));
    }
    drop(conn);
    server.shutdown();
    server.join();
}

/// A backend that takes `delay` per answer and counts its calls — for
/// probing queueing, shedding and deadlines without paying for
/// simulations.
struct SlowBackend {
    delay: Duration,
    calls: AtomicUsize,
}

fn slow(ms: u64) -> Arc<SlowBackend> {
    Arc::new(SlowBackend {
        delay: Duration::from_millis(ms),
        calls: AtomicUsize::new(0),
    })
}

impl Backend for SlowBackend {
    fn answer(&self, query: &Query) -> Answer {
        self.calls.fetch_add(1, Relaxed);
        std::thread::sleep(self.delay);
        Answer {
            status: 200,
            body: format!("{{\"key\":\"{}\"}}", query.canonical_key()),
        }
    }
}

/// Poll `done` until it holds, failing the test after ten seconds.
fn wait_for(what: &str, done: impl Fn() -> bool) {
    let deadline = Instant::now() + Duration::from_secs(10);
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(2));
    }
}

#[test]
fn overload_sheds_with_429_and_retry_after() {
    let backend = slow(1200);
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            queue_capacity: 1,
            deadline: Duration::from_secs(30),
            ..ServerConfig::default()
        },
        backend.clone(),
    )
    .unwrap();
    let addr = server.addr();

    // Distinct keys so nothing is answered from the cache: r1 occupies
    // the worker, r2 fills the queue, r3 must be shed.
    let fire = |ranks: usize| {
        let mut s = TcpStream::connect(addr).unwrap();
        let body = format!("{{\"workload\":\"micro-2kb\",\"ranks\":{ranks}}}");
        s.write_all(raw_request("POST", "/v1/predict", &body).as_bytes())
            .unwrap();
        s
    };
    let _r1 = fire(1);
    wait_for("the worker to take r1", || backend.calls.load(Relaxed) == 1);
    let _r2 = fire(2);
    let daemon_metrics = server.metrics();
    wait_for("r2 to queue", || {
        daemon_metrics.queue_depth.load(Relaxed) == 1
    });
    let shed = call(
        addr,
        "POST",
        "/v1/predict",
        r#"{"workload":"micro-2kb","ranks":3}"#,
    );
    assert_eq!(shed.status, 429);
    assert_eq!(shed.header("retry-after"), Some("1"));
    assert!(shed.body.contains("queue full"));

    let metrics = call(addr, "GET", "/metrics", "");
    assert!(metrics.body.contains("pmemflow_serve_shed_total 1"));
    server.shutdown();
    server.join();
}

#[test]
fn deadline_miss_answers_504() {
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            deadline: Duration::from_millis(100),
            ..ServerConfig::default()
        },
        slow(800),
    )
    .unwrap();
    let addr = server.addr();
    let r = call(
        addr,
        "POST",
        "/v1/predict",
        r#"{"workload":"micro-2kb","ranks":8}"#,
    );
    assert_eq!(r.status, 504);
    assert!(r.body.contains("deadline"));
    let metrics = call(addr, "GET", "/metrics", "");
    assert!(metrics
        .body
        .contains("pmemflow_serve_deadline_missed_total 1"));
    server.shutdown();
    server.join();
}

/// An answered request leaves no deadline behind, so an idle io thread
/// sleeps in its long poll instead of waking on a short cadence until a
/// 30 s request deadline would have passed.
#[test]
fn idle_io_thread_sleeps_once_its_last_request_is_answered() {
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            ..ServerConfig::default()
        },
        slow(0),
    )
    .unwrap();
    let r = call(
        server.addr(),
        "POST",
        "/v1/predict",
        r#"{"workload":"micro-2kb","ranks":8}"#,
    );
    assert_eq!(r.status, 200, "{}", r.body);
    assert_eq!(
        r.header("x-pmemflow-cache"),
        Some("miss"),
        "worker-answered"
    );
    std::thread::sleep(Duration::from_millis(100));
    let wakeups = || server.metrics().epoll_wakeups_total.load(Relaxed);
    let before = wakeups();
    std::thread::sleep(Duration::from_secs(1));
    let idle = wakeups() - before;
    assert!(idle <= 8, "{idle} io-thread wakeups in one idle second");
    server.shutdown();
    server.join();
}

/// Panics exactly once — on the first `/v1/predict` for `ranks == 13`.
/// Every other call answers instantly.
struct PanicOnceBackend {
    tripped: AtomicBool,
}

impl Backend for PanicOnceBackend {
    fn answer(&self, query: &Query) -> Answer {
        if matches!(query, Query::Predict { ranks: 13, .. }) && !self.tripped.swap(true, Relaxed) {
            panic!("injected worker fault");
        }
        Answer {
            status: 200,
            body: format!("{{\"key\":\"{}\"}}", query.canonical_key()),
        }
    }
}

#[test]
fn worker_panic_answers_500_and_the_retry_recomputes() {
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            ..small_config()
        },
        Arc::new(PanicOnceBackend {
            tripped: AtomicBool::new(false),
        }),
    )
    .unwrap();
    let addr = server.addr();
    let body = r#"{"workload":"micro-2kb","ranks":13}"#;

    // The panicking request gets a definite 500, not a hang until the
    // 504 deadline, and its keep-alive connection stays open.
    let mut conn = Conn::open(addr);
    let failed = conn.call("POST", "/v1/predict", body);
    assert_eq!(failed.status, 500, "{}", failed.body);
    assert_eq!(failed.header("connection"), Some("keep-alive"));

    // The one worker is still serving, and nothing was cached from the
    // failed computation: the retry, on the same connection, is computed
    // afresh.
    let ok = conn.call("POST", "/v1/predict", body);
    assert_eq!(ok.status, 200, "{}", ok.body);
    assert_eq!(ok.header("x-pmemflow-cache"), Some("miss"));
    drop(conn);

    let metrics = call(addr, "GET", "/metrics", "");
    assert!(metrics.body.contains("pmemflow_serve_panics_total 1"));
    assert!(metrics.body.contains("pmemflow_serve_cache_misses_total 1"));
    assert!(metrics
        .body
        .contains("pmemflow_serve_responses_total{status=\"500\"} 1"));
    let daemon_metrics = server.metrics().clone();
    server.shutdown();
    assert_eq!(server.join(), 0, "connections leaked after a panic");
    daemon_metrics.connection_conservation().unwrap();
}

#[test]
fn identical_request_parks_behind_the_first_and_shares_its_answer() {
    let backend = slow(500);
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            ..small_config()
        },
        backend.clone(),
    )
    .unwrap();
    let addr = server.addr();
    let body = r#"{"workload":"micro-2kb","ranks":8}"#;
    let send = || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        s.write_all(raw_request("POST", "/v1/predict", body).as_bytes())
            .unwrap();
        s
    };
    // The first request occupies the only worker; the second misses the
    // cache on the io thread and parks behind it, holding no queue slot.
    let first = send();
    wait_for("the worker to take the first", || {
        backend.calls.load(Relaxed) == 1
    });
    let second = send();
    let daemon_metrics = server.metrics();
    wait_for("the second to park", || {
        daemon_metrics.parked.load(Relaxed) == 1
    });
    assert_eq!(daemon_metrics.queue_depth.load(Relaxed), 0);
    let first = read_response(&mut BufReader::new(first));
    let second = read_response(&mut BufReader::new(second));
    assert_eq!((first.status, second.status), (200, 200));
    assert_eq!(first.header("x-pmemflow-cache"), Some("miss"));
    assert_eq!(second.header("x-pmemflow-cache"), Some("coalesced"));
    assert_eq!(first.body, second.body);
    assert_eq!(
        backend.calls.load(Relaxed),
        1,
        "the queued duplicate recomputed"
    );
    let metrics = call(addr, "GET", "/metrics", "");
    for needle in [
        "pmemflow_serve_cache_misses_total 1",
        "pmemflow_serve_coalesced_total 1",
        "pmemflow_serve_cache_hits_total 0",
    ] {
        assert!(metrics.body.contains(needle), "missing {needle}");
    }
    server.shutdown();
    server.join();
}

#[test]
fn evictions_are_counted_and_the_cache_stays_at_capacity() {
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            cache_capacity: 2,
            ..ServerConfig::default()
        },
        slow(0),
    )
    .unwrap();
    let addr = server.addr();
    for ranks in 1..=4 {
        let body = format!(r#"{{"workload":"micro-2kb","ranks":{ranks}}}"#);
        let r = call(addr, "POST", "/v1/predict", &body);
        assert_eq!(r.header("x-pmemflow-cache"), Some("miss"));
    }
    assert_eq!(server.cache_len(), 2);
    let metrics = call(addr, "GET", "/metrics", "");
    assert!(metrics
        .body
        .contains("pmemflow_serve_cache_evictions_total 2"));
    server.shutdown();
    server.join();
}

#[test]
fn slowloris_is_reaped_with_408_without_occupying_a_worker() {
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            read_deadline: Duration::from_millis(700),
            ..ServerConfig::default()
        },
        slow(10),
    )
    .unwrap();
    let addr = server.addr();

    // The slowloris client: opens a request and then trickles header
    // bytes forever, never finishing.
    let mut victim = TcpStream::connect(addr).unwrap();
    victim
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    victim.write_all(b"POST /v1/predict HT").unwrap();
    let writer = {
        let mut stream = victim.try_clone().unwrap();
        std::thread::spawn(move || {
            // Fast enough to dodge any per-read socket timeout; the
            // absolute deadline must reap it anyway.
            for _ in 0..200 {
                std::thread::sleep(Duration::from_millis(50));
                if stream.write_all(b"x").is_err() {
                    return; // server closed the connection: reaped
                }
            }
        })
    };

    // Meanwhile the single worker is not occupied by the slow client:
    // a well-behaved request completes normally.
    std::thread::sleep(Duration::from_millis(100));
    let ok = call(
        addr,
        "POST",
        "/v1/predict",
        r#"{"workload":"micro-2kb","ranks":8}"#,
    );
    assert_eq!(ok.status, 200, "{}", ok.body);

    // The slowloris connection itself gets a definite 408 and is closed.
    let r = read_response(&mut BufReader::new(victim));
    assert_eq!(r.status, 408, "{}", r.body);
    assert_eq!(r.header("connection"), Some("close"));
    writer.join().unwrap();

    let metrics = call(addr, "GET", "/metrics", "");
    assert!(metrics
        .body
        .contains("pmemflow_serve_responses_total{status=\"408\"} 1"));
    let daemon_metrics = server.metrics().clone();
    server.shutdown();
    assert_eq!(server.join(), 0, "slowloris connection leaked");
    daemon_metrics.connection_conservation().unwrap();
}

#[test]
fn reset_mid_request_head_closes_the_connection_before_shutdown() {
    // The read deadline is far beyond the wait below, so only the read
    // error itself can close the connection in time.
    let server = Server::start_with_backend(
        ServerConfig {
            read_deadline: Duration::from_secs(60),
            ..small_config()
        },
        slow(0),
    )
    .unwrap();
    let metrics = server.metrics().clone();

    // One write: a whole request, then half of the next one's head. The
    // answer to the first proves the daemon has read both and is parked
    // on the socket, mid-head, with nothing to write.
    let mut client = TcpStream::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    client
        .write_all(
            b"GET /healthz HTTP/1.1\r\nHost: t\r\n\r\nPOST /v1/predict HTTP/1.1\r\nContent-Len",
        )
        .unwrap();
    let mut byte = [0u8; 1];
    assert_eq!(
        client.peek(&mut byte).unwrap(),
        1,
        "the first request is answered"
    );
    // Closing with that answer unread makes the kernel send an RST, not
    // a FIN, so the daemon's next read fails with ECONNRESET.
    drop(client);

    // No drain yet: the drain closes idle connections itself and would
    // hide a leak.
    let settle = Instant::now() + Duration::from_secs(10);
    while metrics.connections_active.load(Relaxed) > 0 && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(5));
    }
    assert_eq!(metrics.accepted_total.load(Relaxed), 1);
    assert_eq!(
        metrics.connections_active.load(Relaxed),
        0,
        "the read error left its connection open"
    );
    server.shutdown();
    assert_eq!(server.join(), 0);
    metrics.connection_conservation().unwrap();
}

#[test]
fn half_close_gets_every_owed_answer() {
    // Worker-path answers, so all three are still owed when the FIN
    // arrives: the daemon must write them before it closes.
    let server = Server::start_with_backend(small_config(), slow(100)).unwrap();
    let metrics = server.metrics().clone();
    let mut client = TcpStream::connect(server.addr()).unwrap();
    client
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut wire: String = (1..=3).map(predict).collect();
    wire.push_str("POST /v1/predict HTTP/1.1\r\nContent-Len");
    client.write_all(wire.as_bytes()).unwrap();
    client.shutdown(Shutdown::Write).unwrap();
    let mut got = Vec::new();
    client.read_to_end(&mut got).unwrap();

    let (responses, leftover) = split_responses(&got).expect("well-framed response stream");
    assert_eq!(responses.len(), 3, "one answer per whole request");
    assert_eq!(leftover, 0);
    for (ranks, r) in (1..=3).zip(&responses) {
        assert_eq!(r.status, 200);
        let body = String::from_utf8_lossy(&r.body);
        assert!(body.contains(&format!("@{ranks}|")), "out of order: {body}");
    }
    // Before the drain, which would close a leaked connection itself.
    wait_for("the half-closed connection to close", || {
        metrics.connections_active.load(Relaxed) == 0
    });
    server.shutdown();
    assert_eq!(server.join(), 0);
    metrics.connection_conservation().unwrap();
}

#[test]
fn request_split_across_reads_is_answered() {
    let server = Server::start_with_backend(small_config(), slow(0)).unwrap();
    let wire: String = [8, 9].into_iter().map(predict).collect();
    let open = || {
        let s = TcpStream::connect(server.addr()).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        s.set_nodelay(true).unwrap();
        s
    };
    let mut whole = open();
    whole.write_all(wire.as_bytes()).unwrap();
    let reference = read_responses(&mut whole, 2);

    // Small pieces with gaps between them: each lands in its own read.
    let mut split = open();
    for piece in wire.as_bytes().chunks(17) {
        split.write_all(piece).unwrap();
        std::thread::sleep(Duration::from_millis(3));
    }
    let got = read_responses(&mut split, 2);

    let (expected, _) = split_responses(&reference).unwrap();
    assert_eq!(expected.len(), 2);
    let (responses, leftover) = split_responses(&got).expect("well-framed response stream");
    assert_eq!(responses.len(), 2, "both pipelined requests answered");
    assert_eq!(leftover, 0);
    for (r, e) in responses.iter().zip(&expected) {
        assert_eq!(r.status, 200);
        assert_eq!(r.body, e.body, "a split request changed its answer");
    }
    drop((whole, split));
    server.shutdown();
    assert_eq!(server.join(), 0);
}

#[test]
fn content_length_smuggling_is_rejected_on_the_wire() {
    let server = Server::start_with_backend(small_config(), slow(0)).unwrap();
    let addr = server.addr();
    for raw in [
        // Two frame lengths, even agreeing ones.
        "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: 4\r\nContent-Length: 4\r\n\r\nbody",
        // Signed length parses as usize but is not the RFC grammar.
        "POST /v1/predict HTTP/1.1\r\nHost: t\r\nContent-Length: +4\r\n\r\nbody",
    ] {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        stream.write_all(raw.as_bytes()).unwrap();
        let r = read_response(&mut BufReader::new(stream));
        assert_eq!(r.status, 400, "{raw:?}: {}", r.body);
        assert_eq!(r.header("connection"), Some("close"));
    }
    server.shutdown();
    server.join();
}

#[test]
fn responses_are_byte_identical_across_worker_counts() {
    let queries: [(&str, &str); 4] = [
        ("/v1/sweep", r#"{"workload":"micro-2kb","ranks":8}"#),
        ("/v1/recommend", r#"{"workload":"micro-2kb","ranks":8}"#),
        (
            "/v1/predict",
            r#"{"workload":"micro-2kb","ranks":8,"stack":"nova"}"#,
        ),
        (
            "/v1/coschedule",
            r#"{"tenants":[{"workload":"micro-2kb","ranks":8,"config":"S-LocW"},
                           {"workload":"micro-2kb","ranks":8,"config":"P-LocR"}]}"#,
        ),
    ];
    let answers = |workers: usize| -> Vec<String> {
        let server = Server::start(ServerConfig {
            workers,
            ..small_config()
        })
        .unwrap();
        let out = queries
            .iter()
            .map(|(path, body)| {
                let r = call(server.addr(), "POST", path, body);
                assert_eq!(r.status, 200, "{path}: {}", r.body);
                r.body
            })
            .collect();
        server.shutdown();
        server.join();
        out
    };
    // Workers race to populate the shared oracle and result cache, so
    // the sweep also proves that race never leaks into response bytes.
    let reference = answers(1);
    for workers in [4, 8] {
        assert_eq!(
            reference,
            answers(workers),
            "worker count {workers} changed the bytes"
        );
    }
}

#[test]
fn two_io_threads_accept_and_answer_identically() {
    // >1 io threads switches the listener to a level-triggered
    // EPOLLEXCLUSIVE registration — a mode nothing else exercises. The
    // kernel rejects EPOLLEXCLUSIVE combined with EPOLLRDHUP, and a
    // swallowed register error leaves the daemon accepting into the
    // backlog but never answering, so drive the whole surface here.
    let answers = |io_threads: usize| -> Vec<String> {
        let server = Server::start(ServerConfig {
            io_threads,
            ..small_config()
        })
        .unwrap();
        let addr = server.addr();
        assert_eq!(call(addr, "GET", "/healthz", "").status, 200);
        let out: Vec<String> = (8..12)
            .map(|ranks| {
                let body = format!(r#"{{"workload":"micro-2kb","ranks":{ranks}}}"#);
                let r = call(addr, "POST", "/v1/predict", &body);
                assert_eq!(r.status, 200, "{}", r.body);
                // Warm repeat: served inline by whichever io thread won
                // the exclusive accept, still byte-identical.
                let warm = call(addr, "POST", "/v1/predict", &body);
                assert_eq!(warm.header("x-pmemflow-cache"), Some("hit"));
                assert_eq!(warm.body, r.body);
                r.body
            })
            .collect();
        server.shutdown();
        server.join();
        out
    };
    assert_eq!(answers(1), answers(2), "io thread count changed the bytes");
}

/// Answers `ranks == 8` queries ready, without a worker, and
/// `ranks == 11` or `12` ones ready once [`GatedBackend::release`]d,
/// stalling the io thread until then; every other query is a cold one
/// whose `answer` blocks until the gate opens, and the first
/// `ranks == 13` one then panics. Logs which thread made each call.
struct GatedBackend {
    open: std::sync::Mutex<bool>,
    opened: std::sync::Condvar,
    released: std::sync::Mutex<Vec<usize>>,
    release_cv: std::sync::Condvar,
    calls: std::sync::Mutex<Vec<(&'static str, String)>>,
    tripped: AtomicBool,
}

impl GatedBackend {
    fn log(&self, call: &'static str) {
        let thread = std::thread::current().name().unwrap_or("?").to_string();
        self.calls.lock().unwrap().push((call, thread));
    }

    fn calls(&self, call: &str) -> Vec<String> {
        let calls = self.calls.lock().unwrap();
        calls
            .iter()
            .filter(|c| c.0 == call)
            .map(|c| c.1.clone())
            .collect()
    }

    fn render(query: &Query) -> Answer {
        Answer {
            status: 200,
            body: format!("{{\"key\":\"{}\"}}", query.canonical_key()),
        }
    }
}

impl Backend for GatedBackend {
    fn answer(&self, query: &Query) -> Answer {
        self.log("answer");
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.opened.wait(open).unwrap();
        }
        drop(open);
        if matches!(query, Query::Predict { ranks: 13, .. }) && !self.tripped.swap(true, Relaxed) {
            panic!("injected worker fault");
        }
        Self::render(query)
    }

    fn answer_ready(&self, query: &Query) -> Option<Answer> {
        self.log("answer_ready");
        if let Query::Predict {
            ranks: ranks @ (11 | 12),
            ..
        } = query
        {
            let mut released = self.released.lock().unwrap();
            while !released.contains(ranks) {
                released = self.release_cv.wait(released).unwrap();
            }
            return Some(Self::render(query));
        }
        matches!(query, Query::Predict { ranks: 8, .. }).then(|| Self::render(query))
    }
}

#[test]
fn io_thread_answers_ready_misses_while_the_worker_simulates() {
    let backend = GatedBackend::closed();
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            ..small_config()
        },
        backend.clone(),
    )
    .unwrap();
    let addr = server.addr();
    let cold = r#"{"workload":"micro-2kb","ranks":9}"#;
    let send = || {
        let mut s = TcpStream::connect(addr).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
        s.write_all(raw_request("POST", "/v1/predict", cold).as_bytes())
            .unwrap();
        s
    };
    // The cold query blocks the only worker; its duplicate parks.
    let first = send();
    wait_for("the worker to take the cold query", || {
        backend.calls("answer").len() == 1
    });
    let second = send();
    let metrics = server.metrics().clone();
    wait_for("the duplicate to park", || {
        metrics.parked.load(Relaxed) == 1
    });

    // A ready query is answered while the worker is still blocked.
    let ready = call(
        addr,
        "POST",
        "/v1/predict",
        r#"{"workload":"micro-2kb","ranks":8}"#,
    );
    assert_eq!(ready.status, 200, "{}", ready.body);
    assert_eq!(ready.header("x-pmemflow-cache"), Some("miss"));
    let warm = call(
        addr,
        "POST",
        "/v1/predict",
        r#"{"workload":"micro-2kb","ranks":8}"#,
    );
    assert_eq!(warm.header("x-pmemflow-cache"), Some("hit"));
    assert_eq!(warm.body, ready.body);
    assert_eq!(
        backend.calls("answer").len(),
        1,
        "the worker is still blocked"
    );

    backend.open();
    let first = read_response(&mut BufReader::new(first));
    let second = read_response(&mut BufReader::new(second));
    assert_eq!((first.status, second.status), (200, 200));
    assert_eq!(first.header("x-pmemflow-cache"), Some("miss"));
    assert_eq!(second.header("x-pmemflow-cache"), Some("coalesced"));
    assert_eq!(first.body, second.body);

    // Simulations ran on the worker only; the io thread only asked.
    assert_eq!(backend.calls("answer"), ["serve-worker-0"]);
    let asked = backend.calls("answer_ready");
    assert_eq!(asked.len(), 3, "two cold misses and one ready one");
    assert!(asked.iter().all(|t| t == "serve-io-0"), "{asked:?}");
    let text = call(addr, "GET", "/metrics", "").body;
    for needle in [
        "pmemflow_serve_cache_hits_total 1",
        "pmemflow_serve_cache_misses_total 2",
        "pmemflow_serve_cache_misses_inline_total 1",
        "pmemflow_serve_coalesced_total 1",
    ] {
        assert!(text.contains(needle), "missing {needle}\n{text}");
    }
    server.shutdown();
    assert_eq!(server.join(), 0);
    metrics.connection_conservation().unwrap();
}

impl GatedBackend {
    fn closed() -> Arc<GatedBackend> {
        Arc::new(GatedBackend {
            open: std::sync::Mutex::new(false),
            opened: std::sync::Condvar::new(),
            released: std::sync::Mutex::new(Vec::new()),
            release_cv: std::sync::Condvar::new(),
            calls: std::sync::Mutex::new(Vec::new()),
            tripped: AtomicBool::new(false),
        })
    }

    /// Let the io thread stalled on a `ranks` query answer it.
    fn release(&self, ranks: usize) {
        self.released.lock().unwrap().push(ranks);
        self.release_cv.notify_all();
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.opened.notify_all();
    }
}

/// Open a connection and send one `/v1/predict` with `body` on it.
fn send_predict(addr: SocketAddr, body: &str) -> TcpStream {
    let mut s = TcpStream::connect(addr).unwrap();
    s.set_read_timeout(Some(Duration::from_secs(60))).unwrap();
    s.write_all(raw_request("POST", "/v1/predict", body).as_bytes())
        .unwrap();
    s
}

/// Whether the daemon's metrics text holds the line `needle`.
fn exposes(server: &Server, needle: &str) -> bool {
    server.metrics().exposition().lines().any(|l| l == needle)
}

/// A cold herd rides one computation: 32 connections send the same
/// uncached query into a 4-deep queue. The first miss takes a queue slot
/// and the other 31 park behind it on the io thread, so nothing is shed:
/// every answer is 200 with the same body, and the backend runs once.
#[test]
fn cold_herd_on_one_key_is_answered_by_one_computation() {
    const HERD: usize = 32;
    let backend = GatedBackend::closed();
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            queue_capacity: 4,
            ..small_config()
        },
        backend.clone(),
    )
    .unwrap();
    let cold = r#"{"workload":"micro-2kb","ranks":9}"#;
    let herd: Vec<TcpStream> = (0..HERD)
        .map(|_| send_predict(server.addr(), cold))
        .collect();
    wait_for("the io thread to dispatch the whole herd", || {
        let line = format!("pmemflow_serve_requests_total{{endpoint=\"/v1/predict\"}} {HERD}");
        exposes(&server, &line)
    });
    backend.open();
    let answers: Vec<Response> = herd
        .into_iter()
        .map(|s| read_response(&mut BufReader::new(s)))
        .collect();
    for (i, r) in answers.iter().enumerate() {
        assert_eq!(r.status, 200, "connection {i}: {}", r.body);
        assert_eq!(r.body, answers[0].body, "connection {i}");
    }
    let labels: Vec<&str> = answers
        .iter()
        .filter_map(|r| r.header("x-pmemflow-cache"))
        .collect();
    assert_eq!(labels.iter().filter(|&&l| l == "miss").count(), 1);
    assert_eq!(
        labels.iter().filter(|&&l| l == "coalesced").count(),
        HERD - 1
    );
    assert_eq!(backend.calls("answer").len(), 1, "the herd recomputed");
    for needle in [
        "pmemflow_serve_shed_total 0".to_string(),
        "pmemflow_serve_cache_misses_total 1".to_string(),
        format!("pmemflow_serve_coalesced_total {}", HERD - 1),
        "pmemflow_serve_parked 0".to_string(),
    ] {
        assert!(exposes(&server, &needle), "missing {needle}");
    }
    let metrics = server.metrics().clone();
    server.shutdown();
    assert_eq!(server.join(), 0);
    metrics.connection_conservation().unwrap();
}

/// A duplicate parked behind a job whose deadline passed in the queue
/// is not stranded: the worker hands the expired job back uncomputed,
/// and the io thread sends the duplicate, still inside its own
/// deadline, to a worker in its place.
#[test]
fn duplicate_of_an_expired_job_is_computed_in_its_place() {
    let backend = GatedBackend::closed();
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            deadline: Duration::from_millis(500),
            ..small_config()
        },
        backend.clone(),
    )
    .unwrap();
    let addr = server.addr();
    // The gated query blocks the only worker; `queued` waits behind it
    // until its deadline answers 504.
    let _blocker = send_predict(addr, r#"{"workload":"micro-2kb","ranks":9}"#);
    wait_for("the worker to take the blocker", || {
        backend.calls("answer").len() == 1
    });
    let body = r#"{"workload":"micro-2kb","ranks":10}"#;
    let queued = read_response(&mut BufReader::new(send_predict(addr, body)));
    assert_eq!(queued.status, 504, "{}", queued.body);
    // Its duplicate parks behind the expired job, which is still queued.
    let duplicate = send_predict(addr, body);
    wait_for("the duplicate to park", || {
        exposes(&server, "pmemflow_serve_parked 1")
    });
    backend.open();
    let duplicate = read_response(&mut BufReader::new(duplicate));
    assert_eq!(duplicate.status, 200, "{}", duplicate.body);
    assert_eq!(duplicate.header("x-pmemflow-cache"), Some("miss"));
    assert_eq!(
        backend.calls("answer").len(),
        2,
        "the blocker and the duplicate; the expired job was skipped"
    );
    assert!(exposes(&server, "pmemflow_serve_parked 0"));
    server.shutdown();
    assert_eq!(server.join(), 0);
}

/// A duplicate that another io thread queued, rather than parked: the
/// worker probes the cache before computing it, finds the first copy's
/// answer there and sends it back labelled `coalesced`, so the backend
/// runs once for the key. An io thread stalled in `answer_ready` accepts
/// nothing, so stalling each in turn steers the two copies onto
/// different io threads.
#[test]
fn duplicate_queued_on_another_io_thread_is_answered_from_the_cache() {
    let backend = GatedBackend::closed();
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            io_threads: 2,
            ..small_config()
        },
        backend.clone(),
    )
    .unwrap();
    let addr = server.addr();
    let metrics = server.metrics();
    let ready_calls = || backend.calls("answer_ready").len();
    // The blocker holds the only worker, so both copies stay queued.
    let blocker = send_predict(addr, r#"{"workload":"micro-2kb","ranks":9}"#);
    wait_for("the worker to take the blocker", || {
        backend.calls("answer").len() == 1
    });
    let stall = |ranks: usize, calls: usize| {
        let conn = send_predict(
            addr,
            &format!(r#"{{"workload":"micro-2kb","ranks":{ranks}}}"#),
        );
        wait_for("an io thread to stall", || ready_calls() == calls);
        conn
    };
    let body = r#"{"workload":"micro-2kb","ranks":10}"#;
    // io thread A stalls; B takes the first copy and then stalls too;
    // A, released, takes the second copy.
    let stall_a = stall(11, 2);
    let first = send_predict(addr, body);
    wait_for("the first copy to queue", || {
        metrics.queue_depth.load(Relaxed) == 1
    });
    let stall_b = stall(12, 4);
    backend.release(11);
    let second = send_predict(addr, body);
    wait_for("the second copy to queue", || {
        metrics.queue_depth.load(Relaxed) == 2
    });
    let threads = backend.calls("answer_ready");
    assert_ne!(threads[2], threads[4], "both copies on one io thread");
    backend.release(12);
    backend.open();
    let first = read_response(&mut BufReader::new(first));
    let second = read_response(&mut BufReader::new(second));
    assert_eq!((first.status, second.status), (200, 200));
    assert_eq!(first.body, second.body);
    assert_eq!(first.header("x-pmemflow-cache"), Some("miss"));
    assert_eq!(second.header("x-pmemflow-cache"), Some("coalesced"));
    assert_eq!(
        backend.calls("answer").len(),
        2,
        "the blocker and the first copy; the queued duplicate recomputed"
    );
    assert!(exposes(&server, "pmemflow_serve_coalesced_total 1"));
    for conn in [blocker, stall_a, stall_b] {
        assert_eq!(read_response(&mut BufReader::new(conn)).status, 200);
    }
    server.shutdown();
    assert_eq!(server.join(), 0);
}

/// A panic fails only the slot whose job panicked: the duplicates
/// parked behind it are routed afresh, the first takes its own attempt
/// (which succeeds, the fault being transient) and the rest park behind
/// that one.
#[test]
fn duplicates_parked_behind_a_panic_get_their_own_attempt() {
    const DUPLICATES: usize = 3;
    let backend = GatedBackend::closed();
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            ..small_config()
        },
        backend.clone(),
    )
    .unwrap();
    let addr = server.addr();
    let body = r#"{"workload":"micro-2kb","ranks":13}"#;
    let first = send_predict(addr, body);
    wait_for("the worker to take the first", || {
        backend.calls("answer").len() == 1
    });
    let duplicates: Vec<TcpStream> = (0..DUPLICATES).map(|_| send_predict(addr, body)).collect();
    wait_for("the duplicates to park", || {
        exposes(&server, &format!("pmemflow_serve_parked {DUPLICATES}"))
    });
    backend.open();
    let first = read_response(&mut BufReader::new(first));
    assert_eq!(first.status, 500, "{}", first.body);
    let answers: Vec<Response> = duplicates
        .into_iter()
        .map(|s| read_response(&mut BufReader::new(s)))
        .collect();
    let labels: Vec<&str> = answers
        .iter()
        .map(|r| r.header("x-pmemflow-cache").unwrap_or("-"))
        .collect();
    for (i, r) in answers.iter().enumerate() {
        assert_eq!(r.status, 200, "duplicate {i}: {}", r.body);
    }
    assert_eq!(labels[0], "miss", "{labels:?}");
    assert!(labels[1..].iter().all(|&l| l == "coalesced"), "{labels:?}");
    assert_eq!(backend.calls("answer").len(), 2, "the panic and one retry");
    for needle in [
        "pmemflow_serve_panics_total 1".to_string(),
        format!("pmemflow_serve_coalesced_total {}", DUPLICATES - 1),
        "pmemflow_serve_parked 0".to_string(),
    ] {
        assert!(exposes(&server, &needle), "missing {needle}");
    }
    let metrics = server.metrics().clone();
    server.shutdown();
    assert_eq!(server.join(), 0);
    metrics.connection_conservation().unwrap();
}

/// Every query is ready; `answer` is never reached.
struct ReadyBackend;

impl Backend for ReadyBackend {
    fn answer(&self, _query: &Query) -> Answer {
        unreachable!("every query is ready on the io thread")
    }

    fn answer_ready(&self, query: &Query) -> Option<Answer> {
        Some(Answer {
            status: 200,
            body: format!("{{\"key\":\"{}\"}}", query.canonical_key()),
        })
    }
}

#[test]
fn io_thread_panic_answers_500_and_the_retry_succeeds() {
    // Fault rate 0.5: the injector panics on every second answered
    // call, here the io thread's second `answer_ready`.
    let server = Server::start_with_backend(
        ServerConfig {
            workers: 1,
            fault_rate: 0.5,
            ..small_config()
        },
        Arc::new(ReadyBackend),
    )
    .unwrap();
    let addr = server.addr();
    let mut conn = Conn::open(addr);
    let mut predict = |ranks: usize| {
        let body = format!(r#"{{"workload":"micro-2kb","ranks":{ranks}}}"#);
        conn.call("POST", "/v1/predict", &body)
    };
    assert_eq!(predict(8).status, 200);
    let failed = predict(9);
    assert_eq!(failed.status, 500, "{}", failed.body);
    assert!(failed.body.contains("retry may succeed"));
    assert_eq!(failed.header("connection"), Some("keep-alive"));
    // Nothing was cached from the panic: the retry, on the same
    // connection, computes afresh, and the io thread that caught it is
    // still serving.
    let retry = predict(9);
    assert_eq!(retry.status, 200, "{}", retry.body);
    assert_eq!(retry.header("x-pmemflow-cache"), Some("miss"));
    drop(conn);

    let text = call(addr, "GET", "/metrics", "").body;
    for needle in [
        "pmemflow_serve_panics_total 1",
        "pmemflow_serve_cache_misses_total 2",
        "pmemflow_serve_cache_misses_inline_total 2",
        "pmemflow_serve_responses_total{status=\"500\"} 1",
    ] {
        assert!(text.contains(needle), "missing {needle}\n{text}");
    }
    assert_eq!(server.cache_len(), 2);
    let metrics = server.metrics().clone();
    server.shutdown();
    assert_eq!(server.join(), 0, "connections leaked after a panic");
    metrics.connection_conservation().unwrap();
}
