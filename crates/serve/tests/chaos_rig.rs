//! Network-chaos end-to-end: the torture rig (daemon behind the seeded
//! chaos proxy) and daemon-side `ChaosIo` fault injection.
//!
//! The rig's contract is twofold: every invariant holds under the fault
//! campaign (exact answers, conservation, clean drain), and the fault
//! trace is *byte-identical* across repeated runs of the same seed —
//! chaos you can bisect. CI runs the full seed sweep via the
//! `chaos_rig` bench binary; these tests keep the contract honest in
//! plain `cargo test`.

use pmemflow_net::ChaosSpec;
use pmemflow_serve::{run_rig, RigBackend, RigConfig, Server, ServerConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::sync::Arc;
use std::time::Duration;

fn rig_config(seed: u64) -> RigConfig {
    RigConfig {
        seed,
        clients: 8,
        requests_per_client: 12,
        io_threads: 1,
    }
}

#[test]
fn torture_rig_holds_every_invariant_and_replays_byte_identically() {
    for seed in [1u64, 7] {
        let cfg = rig_config(seed);
        let first = run_rig(&cfg);
        assert!(
            first.violations.is_empty(),
            "seed {seed}: {:#?}\ntrace:\n{}",
            first.violations,
            first.trace
        );
        // The campaign actually bit: fragmentation plus at least one
        // early termination across the fleet (seed-checked so a silent
        // no-op plan cannot pass).
        assert!(
            first.faults_short > 0,
            "seed {seed} applied no fragmentation"
        );
        assert!(
            first.conns_half_closed + first.conns_reset > 0,
            "seed {seed} terminated no connections"
        );
        assert!(first.responses_ok > 0);
        let second = run_rig(&cfg);
        assert!(
            second.violations.is_empty(),
            "seed {seed} rerun: {:#?}",
            second.violations
        );
        assert_eq!(
            first.trace, second.trace,
            "seed {seed}: fault trace must be byte-identical across runs"
        );
    }
}

#[test]
fn torture_rig_survives_two_io_threads() {
    // Same invariants under the EPOLLEXCLUSIVE accept path; the
    // identity preamble keeps the trace independent of which io thread
    // wins each accept.
    let cfg = RigConfig {
        io_threads: 2,
        ..rig_config(3)
    };
    let a = run_rig(&cfg);
    assert!(
        a.violations.is_empty(),
        "{:#?}\ntrace:\n{}",
        a.violations,
        a.trace
    );
    let b = run_rig(&cfg);
    assert_eq!(a.trace, b.trace, "io-thread races leaked into the trace");
}

fn request(path: &str, body: &str) -> String {
    let method = if body.is_empty() { "GET" } else { "POST" };
    format!(
        "{method} {path} HTTP/1.1\r\nHost: t\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
        body.len()
    )
}

fn read_response(reader: &mut BufReader<TcpStream>) -> (u16, String) {
    let mut status_line = String::new();
    reader.read_line(&mut status_line).unwrap();
    let status: u16 = status_line.split(' ').nth(1).unwrap().parse().unwrap();
    let mut len = 0usize;
    loop {
        let mut line = String::new();
        reader.read_line(&mut line).unwrap();
        let line = line.trim_end();
        if line.is_empty() {
            break;
        }
        if let Some(v) = line.to_ascii_lowercase().strip_prefix("content-length:") {
            len = v.trim().parse().unwrap();
        }
    }
    let mut body = vec![0u8; len];
    reader.read_exact(&mut body).unwrap();
    (status, String::from_utf8(body).unwrap())
}

#[test]
fn daemon_side_chaos_keeps_responses_exact() {
    // Syscall-level faults *inside* the daemon's transport: EINTR
    // storms and 1-byte short reads/writes on every connection. These
    // always make progress (the module docs explain why spurious
    // WouldBlock is proxy-only territory), so every request must still
    // be answered exactly.
    let mut spec = ChaosSpec::quiet(11);
    spec.window = 512;
    spec.max_faults = 10;
    spec.w_short = 1.0;
    spec.w_eintr = 1.0;
    let server = Server::start_with_chaos(
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        Arc::new(RigBackend),
        spec,
    )
    .unwrap();
    let addr = server.addr();
    let metrics = server.metrics().clone();

    for conn in 0..4u64 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let mut reader = BufReader::new(stream.try_clone().unwrap());
        for ranks in 1..=3u64 {
            let body = format!(
                "{{\"workload\":\"micro-2kb\",\"ranks\":{}}}",
                conn * 3 + ranks
            );
            stream
                .write_all(request("/v1/predict", &body).as_bytes())
                .unwrap();
            let (status, got) = read_response(&mut reader);
            assert_eq!(status, 200, "conn {conn}: {got}");
            assert!(
                got.starts_with("{\"rig\":\"predict|NVStream|micro-2KB@"),
                "conn {conn}: corrupt body {got:?}"
            );
        }
    }
    server.shutdown();
    assert_eq!(server.join(), 0, "chaos transport leaked connections");
    metrics.connection_conservation().unwrap();
}

#[test]
fn daemon_survives_planned_emfile_storms_on_accept() {
    // Half of all accepts fail with injected EMFILE; the acceptor must
    // backoff-and-resume (never spin, never die), so every client
    // parked in the backlog is eventually served.
    let mut spec = ChaosSpec::quiet(5);
    spec.p_accept_emfile = 0.5;
    let server = Server::start_with_chaos(
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
        Arc::new(RigBackend),
        spec,
    )
    .unwrap();
    let addr = server.addr();
    let metrics = server.metrics().clone();

    for i in 0..20u64 {
        let mut stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .unwrap();
        let body = format!("{{\"workload\":\"micro-2kb\",\"ranks\":{}}}", 1 + i % 8);
        stream
            .write_all(request("/v1/predict", &body).as_bytes())
            .unwrap();
        let (status, got) = read_response(&mut BufReader::new(stream));
        assert_eq!(status, 200, "request {i}: {got}");
    }
    assert!(
        metrics
            .fd_exhausted_total
            .load(std::sync::atomic::Ordering::Relaxed)
            > 0,
        "the plan should have injected at least one EMFILE in 20+ accepts"
    );
    server.shutdown();
    assert_eq!(server.join(), 0);
    metrics.connection_conservation().unwrap();
}
