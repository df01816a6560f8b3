//! Deterministic network-torture rig: the daemon behind a seeded
//! [`ChaosProxy`], a scripted client fleet, and invariant checkers.
//!
//! The rig is the workspace's one network-chaos harness (the proxy and
//! the plan live in `pmemflow_net::chaos`): it boots a real [`Server`]
//! on loopback, parks a chaos proxy in front of it, and drives one
//! blocking client per connection id through the proxy, each stream
//! opened by its identity preamble. Every moving part is a pure
//! function of `(seed, id)` — the fault schedules (from the
//! [`ChaosPlan`]), the request scripts (a SplitMix64 stream salted
//! differently), and the backend's answers ([`RigBackend`] echoes the
//! canonical key) — so each client can compute the exact bytes the
//! daemon must produce, and the whole campaign replays byte-identically
//! from the seed alone.
//!
//! Invariants checked per run (violations are collected, not panicked,
//! so CI can print them all):
//!
//! - **No interleaved response bytes**: each client's received stream
//!   splits cleanly into well-framed HTTP responses
//!   ([`crate::http::split_responses`]); trailing garbage is tolerated
//!   only on reset-terminal connections (the RST races the last
//!   response).
//! - **Exact answers in order**: response `i` answers request `i`; a
//!   `200` must carry the precomputed body, a `429` (overload shed) is
//!   legal degradation, anything else is a violation.
//! - **Fault-class survival**: a half-closed connection still gets an
//!   answer to every request completed before the FIN offset — the
//!   proxy delivers byte-exact `off` bytes, so the expected count is
//!   computable, not approximate. A reset connection gets a prefix.
//! - **No leaked connection**: once every client has finished, the
//!   daemon closes its side of every connection on its own —
//!   `connections_active` reaches 0 within 5 s, *before* shutdown. This
//!   is the connection-leak detector: the drain closes idle connections
//!   itself, so a leak (say, a read error that forgets to close) is
//!   invisible after it.
//! - **Drain terminates**: [`Server::join`] abandons nothing.
//! - **Connection conservation**: after the drain,
//!   `accepted_total == closed_total + connections_active`
//!   ([`crate::metrics::Metrics::connection_conservation`]) — nothing
//!   is closed twice.

use crate::http::split_responses;
use crate::json::Json;
use crate::model::{Answer, Backend};
use crate::query::Query;
use crate::server::{Server, ServerConfig};
use pmemflow_des::rng::SplitMix64;
use pmemflow_net::{ChaosPlan, ChaosProxy, ChaosSpec, FaultKind, ProxyConfig, Terminal};
use std::io::{Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The rig's backend: answers are a pure function of the query, so a
/// client that knows its own request can compute the daemon's exact
/// response bytes without talking to anyone.
struct RigBackend;

impl Backend for RigBackend {
    fn answer(&self, query: &Query) -> Answer {
        Answer {
            status: 200,
            body: format!("{{\"rig\":\"{}\"}}", query.canonical_key()),
        }
    }
}

/// SplitMix64 keyed by `(seed, client id)` — the same generator family
/// as the chaos plan, salted differently so request scripts and fault
/// schedules are independent draws from one master seed.
fn client_rng(seed: u64, id: u64) -> SplitMix64 {
    let mut rng =
        SplitMix64::new(seed ^ 0x5249_472d_5343_5249 ^ id.wrapping_mul(0xd134_2543_de82_ef95));
    rng.next_u64(); // warmup: decorrelate adjacent ids
    rng
}

const FAMILIES: [&str; 3] = ["micro-2kb", "micro-64mb", "gtc-readonly"];
const CONFIGS: [Option<&str>; 3] = [None, Some("S-LocW"), Some("P-LocR")];

/// One client's deterministic workload: the wire bytes it sends, the
/// `200` body each request must come back with, and each request's
/// cumulative end offset (the axis fault schedules are pinned to).
struct Script {
    bytes: Vec<u8>,
    expected: Vec<Vec<u8>>,
    bounds: Vec<u64>,
}

impl Script {
    /// Requests whose final byte sits within the first `off` bytes of
    /// the stream — exactly the ones the daemon can answer when the
    /// stream is cut (FIN or RST) at `off`.
    fn complete_within(&self, off: u64) -> usize {
        self.bounds.iter().filter(|&&b| b <= off).count()
    }

    fn push(&mut self, method: &str, path: &str, body: &str, expected: Vec<u8>) {
        let req = format!(
            "{method} {path} HTTP/1.1\r\nHost: rig\r\nContent-Type: application/json\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        self.bytes.extend_from_slice(req.as_bytes());
        self.expected.push(expected);
        self.bounds.push(self.bytes.len() as u64);
    }
}

fn build_script(seed: u64, id: u64, requests: u32) -> Script {
    let mut rng = client_rng(seed, id);
    let mut script = Script {
        bytes: Vec::new(),
        expected: Vec::new(),
        bounds: Vec::new(),
    };
    for _ in 0..requests {
        if rng.next_u64().is_multiple_of(4) {
            // Inline path: answered by the io thread itself.
            script.push("GET", "/healthz", "", b"ok\n".to_vec());
        } else {
            // Worker path: decoded, queued, answered by a worker.
            let family = FAMILIES[rng.range_usize(0, FAMILIES.len())];
            let ranks = rng.range_u64(1, 13);
            let config = CONFIGS[rng.range_usize(0, CONFIGS.len())];
            let nova = rng.next_bool();
            let mut body = format!("{{\"workload\":\"{family}\",\"ranks\":{ranks}");
            if let Some(c) = config {
                body.push_str(&format!(",\"config\":\"{c}\""));
            }
            if nova {
                body.push_str(",\"stack\":\"nova\"");
            }
            body.push('}');
            let json = Json::parse(&body).expect("rig request body is JSON");
            let query =
                Query::from_json("/v1/predict", &json).expect("rig request body is a valid query");
            let expected = RigBackend.answer(&query).body.into_bytes();
            script.push("POST", "/v1/predict", &body, expected);
        }
    }
    script
}

/// Rig knobs. Everything downstream — spec, schedules, scripts — is
/// derived from these, so two runs with equal configs are one campaign.
#[derive(Debug, Clone)]
pub struct RigConfig {
    /// Master seed of the whole campaign.
    pub seed: u64,
    /// Connections (one blocking client thread each).
    pub clients: u64,
    /// Pipelined keep-alive requests per connection.
    pub requests_per_client: u32,
    /// Daemon io threads (2 exercises the EPOLLEXCLUSIVE accept path).
    pub io_threads: usize,
}

impl Default for RigConfig {
    fn default() -> RigConfig {
        RigConfig {
            seed: 1,
            clients: 12,
            requests_per_client: 16,
            io_threads: 1,
        }
    }
}

/// What one campaign did, plus every invariant violation it detected.
#[derive(Debug)]
pub struct RigReport {
    /// The seed the campaign derived from.
    pub seed: u64,
    /// Planned schedules + applied-fault trace: the determinism
    /// artifact. Byte-identical across runs of the same config.
    pub trace: String,
    /// `200` responses whose bytes matched the precomputed answer.
    pub responses_ok: u64,
    /// `429` overload sheds (legal degradation, counted not failed).
    pub responses_shed: u64,
    /// Connections that ran to completion.
    pub conns_clean: u64,
    /// Connections FIN'd early by plan.
    pub conns_half_closed: u64,
    /// Connections hard-reset by plan.
    pub conns_reset: u64,
    /// Applied 1-byte fragmentation faults.
    pub faults_short: u64,
    /// Applied stall faults.
    pub faults_stall: u64,
    /// Connections the drain grace period gave up on (must be 0).
    pub abandoned: usize,
    /// Every invariant violation observed (empty = the rig held).
    pub violations: Vec<String>,
}

impl RigReport {
    /// Human-readable summary (CI prints this next to the trace).
    pub fn summary(&self) -> String {
        format!(
            "seed={} ok={} shed={} clean={} half_close={} reset={} \
             short={} stall={} abandoned={} violations={}",
            self.seed,
            self.responses_ok,
            self.responses_shed,
            self.conns_clean,
            self.conns_half_closed,
            self.conns_reset,
            self.faults_short,
            self.faults_stall,
            self.abandoned,
            self.violations.len()
        )
    }
}

struct ClientOutcome {
    received: Vec<u8>,
    write_err: bool,
    read_err: bool,
}

/// One blocking client: identity preamble, the whole script, a write
/// half-close, then read-to-EOF. Errors are recorded, not fatal — a
/// planned RST *should* produce them.
fn run_client(proxy: SocketAddr, id: u64, script: Vec<u8>) -> ClientOutcome {
    let mut sock = loop {
        match TcpStream::connect(proxy) {
            Ok(s) => break s,
            // The proxy's accept loop may briefly lag the fleet spawn.
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    };
    let _ = sock.set_nodelay(true);
    let _ = sock.set_read_timeout(Some(Duration::from_secs(30)));
    let _ = sock.set_write_timeout(Some(Duration::from_secs(30)));
    let mut wire = Vec::with_capacity(8 + script.len());
    wire.extend_from_slice(&id.to_le_bytes());
    wire.extend_from_slice(&script);
    let write_err = sock.write_all(&wire).is_err();
    let _ = sock.shutdown(Shutdown::Write);
    let mut received = Vec::new();
    let read_err = sock.read_to_end(&mut received).is_err();
    ClientOutcome {
        received,
        write_err,
        read_err,
    }
}

/// The terminal that actually triggers for a stream of `total` bytes
/// (an offset beyond the stream never fires).
fn effective_terminal(t: Terminal, total: u64) -> Terminal {
    match t {
        Terminal::Reset(off) | Terminal::Eof(off) if off > total => Terminal::None,
        _ => t,
    }
}

/// Run one torture campaign. See the module docs for the invariants.
pub fn run_rig(cfg: &RigConfig) -> RigReport {
    assert!(cfg.clients >= 1 && cfg.requests_per_client >= 1);
    let scripts: Vec<Script> = (0..cfg.clients)
        .map(|id| build_script(cfg.seed, id, cfg.requests_per_client))
        .collect();
    let min_len = scripts
        .iter()
        .map(|s| s.bytes.len() as u64)
        .min()
        .expect("at least one client");

    // Fragmentation, stalls and terminals, all on the request stream.
    let mut spec = ChaosSpec::quiet(cfg.seed);
    // Clamp the fault window to the shortest script so every drawn
    // offset (and terminal) lands inside every stream — schedules never
    // silently miss.
    spec.window = min_len.max(2);
    spec.max_faults = 6;
    spec.w_short = 1.0;
    spec.w_stall = 0.6;
    spec.stall_ms = (2, 25);
    spec.p_reset = 0.2;
    spec.p_half_close = 0.2;
    let plan = ChaosPlan::new(spec).expect("rig spec validates");

    let server = Server::start_with_backend(
        ServerConfig {
            io_threads: cfg.io_threads.max(1),
            workers: 2,
            cache_capacity: 64,
            queue_capacity: 256,
            deadline: Duration::from_secs(10),
            read_deadline: Duration::from_secs(10),
            ..ServerConfig::default()
        },
        Arc::new(RigBackend),
    )
    .expect("rig server boots");
    let metrics = server.metrics().clone();
    let proxy = ChaosProxy::start(ProxyConfig {
        upstream: server.addr(),
        plan: plan.clone(),
    })
    .expect("rig proxy boots");
    let paddr = proxy.addr();

    let fleet: Vec<_> = (0..cfg.clients)
        .map(|id| {
            let script = scripts[id as usize].bytes.clone();
            std::thread::Builder::new()
                .name(format!("rig-client-{id}"))
                .spawn(move || run_client(paddr, id, script))
                .expect("spawn rig client")
        })
        .collect();

    let mut report = RigReport {
        seed: cfg.seed,
        trace: String::new(),
        responses_ok: 0,
        responses_shed: 0,
        conns_clean: 0,
        conns_half_closed: 0,
        conns_reset: 0,
        faults_short: 0,
        faults_stall: 0,
        abandoned: 0,
        violations: Vec::new(),
    };

    for (id, handle) in fleet.into_iter().enumerate() {
        let id = id as u64;
        let Ok(outcome) = handle.join() else {
            report
                .violations
                .push(format!("conn {id}: client panicked"));
            continue;
        };
        validate_client(id, &scripts[id as usize], &plan, &outcome, &mut report);
    }

    // Every client is done, so the daemon owes a close to every
    // connection (FIN passthrough, planned FIN, or RST) — without help
    // from the drain, which would close a leaked idle connection itself.
    let settle = Instant::now() + Duration::from_secs(5);
    while metrics.connections_active.load(Relaxed) > 0 && Instant::now() < settle {
        std::thread::sleep(Duration::from_millis(5));
    }
    let active = metrics.connections_active.load(Relaxed);
    if active > 0 {
        report.violations.push(format!(
            "{active} connection(s) still open 5 s after every client finished"
        ));
    }
    server.shutdown();
    report.abandoned = server.join();
    if report.abandoned > 0 {
        report.violations.push(format!(
            "drain abandoned {} connection(s)",
            report.abandoned
        ));
    }
    if let Err(e) = metrics.connection_conservation() {
        report.violations.push(format!("conservation: {e}"));
    }

    // Tally what the plan actually inflicted (faults past a terminal
    // never apply — the stream is already dead).
    for id in 0..cfg.clients {
        let sched = plan.connection(id);
        let total = *scripts[id as usize].bounds.last().expect("nonempty script");
        let cut = match effective_terminal(sched.terminal, total) {
            Terminal::None => {
                report.conns_clean += 1;
                u64::MAX
            }
            Terminal::Eof(off) => {
                report.conns_half_closed += 1;
                off
            }
            Terminal::Reset(off) => {
                report.conns_reset += 1;
                off
            }
        };
        for f in sched.faults.iter().filter(|f| f.offset < cut) {
            match f.kind {
                FaultKind::Short(_) => report.faults_short += 1,
                FaultKind::Stall(_) => report.faults_stall += 1,
            }
        }
    }

    let applied = proxy.stop_and_trace();
    report.trace = format!("{}applied:\n{applied}", plan.render(cfg.clients));
    report
}

fn validate_client(
    id: u64,
    script: &Script,
    plan: &ChaosPlan,
    outcome: &ClientOutcome,
    report: &mut RigReport,
) {
    let total = *script.bounds.last().expect("nonempty script");
    let terminal = effective_terminal(plan.connection(id).terminal, total);
    let reset = matches!(terminal, Terminal::Reset(_));
    if outcome.write_err && !reset {
        report
            .violations
            .push(format!("conn {id}: write failed without a planned reset"));
    }
    if outcome.read_err && !reset {
        report
            .violations
            .push(format!("conn {id}: read failed without a planned reset"));
    }
    let (responses, leftover) = match split_responses(&outcome.received) {
        Ok(split) => split,
        Err(e) => {
            report
                .violations
                .push(format!("conn {id}: response stream corrupt: {e}"));
            return;
        }
    };
    if leftover > 0 && !reset {
        report.violations.push(format!(
            "conn {id}: {leftover} trailing byte(s) after {} response(s)",
            responses.len()
        ));
    }
    // The proxy delivers byte-exact streams, so expectations are exact:
    // a clean or half-closed connection gets an answer for *every*
    // request completed before the cut; a reset gets a prefix of them.
    match terminal {
        Terminal::None => {
            if responses.len() != script.expected.len() {
                report.violations.push(format!(
                    "conn {id}: {} response(s) to {} request(s)",
                    responses.len(),
                    script.expected.len()
                ));
            }
        }
        Terminal::Eof(off) => {
            let want = script.complete_within(off);
            if responses.len() != want {
                report.violations.push(format!(
                    "conn {id}: half-closed at {off}: {} response(s), expected {want}",
                    responses.len()
                ));
            }
        }
        Terminal::Reset(off) => {
            let cap = script.complete_within(off);
            if responses.len() > cap {
                report.violations.push(format!(
                    "conn {id}: reset at {off}: {} response(s) exceed the {cap} deliverable",
                    responses.len()
                ));
            }
        }
    }
    for (i, resp) in responses.iter().enumerate() {
        match resp.status {
            200 => {
                let want = &script.expected[i];
                if &resp.body != want {
                    report.violations.push(format!(
                        "conn {id} response {i}: body {:?} != expected {:?}",
                        String::from_utf8_lossy(&resp.body),
                        String::from_utf8_lossy(want)
                    ));
                } else {
                    report.responses_ok += 1;
                }
            }
            429 => report.responses_shed += 1,
            status => report.violations.push(format!(
                "conn {id} response {i}: unexpected status {status}"
            )),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scripts_are_pure_functions_of_seed_and_id() {
        let a = build_script(42, 3, 12);
        let b = build_script(42, 3, 12);
        assert_eq!(a.bytes, b.bytes);
        assert_eq!(a.expected, b.expected);
        let c = build_script(42, 4, 12);
        assert_ne!(a.bytes, c.bytes, "different ids draw different scripts");
    }

    #[test]
    fn complete_within_counts_whole_requests_only() {
        let mut s = Script {
            bytes: Vec::new(),
            expected: Vec::new(),
            bounds: Vec::new(),
        };
        s.push("GET", "/healthz", "", b"ok\n".to_vec());
        let first = *s.bounds.last().unwrap();
        s.push("GET", "/healthz", "", b"ok\n".to_vec());
        assert_eq!(s.complete_within(first - 1), 0);
        assert_eq!(s.complete_within(first), 1);
        assert_eq!(s.complete_within(first + 1), 1);
        assert_eq!(s.complete_within(*s.bounds.last().unwrap()), 2);
    }

    #[test]
    fn effective_terminal_ignores_offsets_beyond_the_stream() {
        assert_eq!(
            effective_terminal(Terminal::Reset(10), 5),
            Terminal::None,
            "a cut past the stream never triggers"
        );
        assert_eq!(effective_terminal(Terminal::Eof(5), 5), Terminal::Eof(5));
        assert_eq!(effective_terminal(Terminal::None, 5), Terminal::None);
    }
}
