//! Deterministic network chaos: seeded fault plans and a reactor-based
//! loopback chaos proxy.
//!
//! The discipline is the same one `pmemflow-fault` applies to nodes and
//! jobs: every fault is drawn from a [`ChaosPlan`] seeded once, each
//! connection gets an independent SplitMix64 stream derived from
//! `(seed, connection id)`, and the compiled [`ConnSchedule`] pins every
//! fault to a **byte offset** of the request stream — not to wall-clock
//! time or syscall count — so the applied fault trace is byte-identical
//! across runs of the same seed regardless of thread scheduling or
//! kernel buffering.
//!
//! [`ChaosProxy`] applies the plan: a loopback TCP proxy on a real epoll
//! reactor that fragments, stalls, half-closes, and hard-resets
//! (`SO_LINGER 0`, a kernel RST) the daemon side of every connection,
//! so the daemon under test keeps its real sockets and real epoll.
//! Syscall-level faults (`EINTR`, short counts) are unit-tested on the
//! byte plumbing itself (`buffer`'s tests); fd exhaustion is tested
//! against a real `RLIMIT_NOFILE`.

use crate::buffer::{drain_read, WriteBuf};
use crate::reactor::{Interest, Reactor, Token, Waker};
use crate::rng::Sm64;
use crate::sys;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{self, Write as _};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An independent stream for one entity, derived statelessly from
/// `(seed, salt, id)` — the `pmemflow-fault` idiom: no draw order
/// coupling between entities.
fn stream(seed: u64, salt: u64, id: u64) -> Sm64 {
    let mut s = Sm64(
        seed ^ salt.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ id.wrapping_mul(0xd134_2543_de82_ef95),
    );
    // One warm-up round so adjacent ids decorrelate immediately.
    s.next_u64();
    s
}

const SALT_CONN: u64 = 0x43_48_41_4f_53_2d_43; // "CHAOS-C"

/// Knobs of one chaos campaign. All probabilities are in `[0, 1]`;
/// weights are relative and need not sum to anything.
#[derive(Debug, Clone)]
pub struct ChaosSpec {
    /// Master seed; everything else derives from it.
    pub seed: u64,
    /// Byte horizon of the request stream over which per-connection
    /// faults scatter.
    pub window: u64,
    /// Upper bound on fault points per connection (the count itself is
    /// drawn uniformly in `[0, max_faults]`).
    pub max_faults: u32,
    /// Weight of 1-byte fragments.
    pub w_short: f64,
    /// Weight of stalls.
    pub w_stall: f64,
    /// Stall duration in milliseconds, inclusive range.
    pub stall_ms: (u64, u64),
    /// Probability a connection's request stream is hard-reset
    /// (`ECONNRESET`) at a drawn offset.
    pub p_reset: f64,
    /// Probability of a half-close (FIN / EOF) at a drawn offset.
    /// A drawn reset wins over a drawn half-close.
    pub p_half_close: f64,
}

impl ChaosSpec {
    /// A spec that injects nothing (pass-through wiring).
    pub fn quiet(seed: u64) -> ChaosSpec {
        ChaosSpec {
            seed,
            window: 4096,
            max_faults: 0,
            w_short: 0.0,
            w_stall: 0.0,
            stall_ms: (5, 40),
            p_reset: 0.0,
            p_half_close: 0.0,
        }
    }

    /// Reject out-of-range knobs with a human-readable reason.
    pub fn validate(&self) -> Result<(), String> {
        for (name, p) in [
            ("p_reset", self.p_reset),
            ("p_half_close", self.p_half_close),
        ] {
            if !(0.0..=1.0).contains(&p) {
                return Err(format!("{name} must be in [0, 1], got {p}"));
            }
        }
        for (name, w) in [("w_short", self.w_short), ("w_stall", self.w_stall)] {
            if !w.is_finite() || w < 0.0 {
                return Err(format!(
                    "{name} must be a finite non-negative weight, got {w}"
                ));
            }
        }
        if self.window < 2 {
            return Err(format!(
                "window must be at least 2 bytes, got {}",
                self.window
            ));
        }
        if self.stall_ms.0 > self.stall_ms.1 {
            return Err(format!("stall_ms range {:?} is empty", self.stall_ms));
        }
        Ok(())
    }
}

/// One injectable fault.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Forward only `n` bytes at this offset, as their own segment (1
    /// for the classic 1-byte fragment).
    Short(u32),
    /// Pause the stream for this many milliseconds.
    Stall(u64),
}

impl FaultKind {
    fn label(self) -> String {
        match self {
            FaultKind::Short(n) => format!("short:{n}"),
            FaultKind::Stall(ms) => format!("stall:{ms}ms"),
        }
    }
}

/// A fault pinned to a byte offset of the request stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultAt {
    /// Stream offset (bytes moved so far when the fault applies).
    pub offset: u64,
    /// What happens there.
    pub kind: FaultKind,
}

/// How (whether) the connection's request stream ends early.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Terminal {
    /// Runs to completion.
    None,
    /// Peer half-closes (FIN) once this many request bytes have moved.
    Eof(u64),
    /// Hard reset (`ECONNRESET`) once this many request bytes have moved.
    Reset(u64),
}

/// The compiled, deterministic fault schedule of one connection.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ConnSchedule {
    /// The connection id the schedule was derived from.
    pub id: u64,
    /// Faults on the request stream, sorted by offset, at most one per
    /// offset.
    pub faults: Vec<FaultAt>,
    /// Early termination of the request stream, if any.
    pub terminal: Terminal,
}

impl ConnSchedule {
    /// Render the schedule as stable, diffable text (one line per fault).
    fn render(&self, out: &mut String) {
        use std::fmt::Write as _;
        for f in &self.faults {
            let _ = writeln!(
                out,
                "conn={} off={} fault={}",
                self.id,
                f.offset,
                f.kind.label()
            );
        }
        match self.terminal {
            Terminal::None => {}
            Terminal::Eof(off) => {
                let _ = writeln!(out, "conn={} terminal=half_close off={off}", self.id);
            }
            Terminal::Reset(off) => {
                let _ = writeln!(out, "conn={} terminal=reset off={off}", self.id);
            }
        }
    }
}

/// A validated chaos campaign: compiles per-connection schedules from
/// the seed, statelessly.
#[derive(Debug, Clone)]
pub struct ChaosPlan {
    spec: ChaosSpec,
}

impl ChaosPlan {
    /// Validate and freeze a spec.
    pub fn new(spec: ChaosSpec) -> Result<ChaosPlan, String> {
        spec.validate()?;
        Ok(ChaosPlan { spec })
    }

    /// Compile the schedule of connection `id`. Pure: the same
    /// `(seed, id)` always yields the identical schedule, independent of
    /// call order or other connections.
    pub fn connection(&self, id: u64) -> ConnSchedule {
        let s = &self.spec;
        let mut rng = stream(s.seed, SALT_CONN, id);
        let total_w = s.w_short + s.w_stall;
        let n = rng.range_u64(0, u64::from(s.max_faults)) as usize;
        let mut faults = Vec::with_capacity(n);
        for _ in 0..n {
            let offset = rng.range_u64(0, s.window - 1);
            // Every point burns the same number of draws no matter
            // which kind wins, so schedules stay stable when one
            // weight is zeroed.
            let x = rng.next_f64() * total_w;
            let stall = rng.range_u64(s.stall_ms.0, s.stall_ms.1);
            if total_w <= 0.0 {
                continue;
            }
            let kind = if x < s.w_short {
                FaultKind::Short(1)
            } else {
                FaultKind::Stall(stall)
            };
            faults.push(FaultAt { offset, kind });
        }
        faults.sort_by_key(|f| f.offset);
        faults.dedup_by_key(|f| f.offset);
        let t = rng.next_f64();
        let t_off = rng.range_u64(1, s.window);
        let terminal = if t < s.p_reset {
            Terminal::Reset(t_off)
        } else if t < s.p_reset + s.p_half_close {
            Terminal::Eof(t_off)
        } else {
            Terminal::None
        };
        ConnSchedule {
            id,
            faults,
            terminal,
        }
    }

    /// Render the compiled plan for connections `0..conns` as stable
    /// text — the "planned" half of the byte-identical trace contract.
    pub fn render(&self, conns: u64) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let _ = writeln!(
            out,
            "plan seed={} window={}",
            self.spec.seed, self.spec.window
        );
        for id in 0..conns {
            self.connection(id).render(&mut out);
        }
        out
    }
}

/// Configuration of a [`ChaosProxy`].
pub struct ProxyConfig {
    /// Where the real daemon listens.
    pub upstream: SocketAddr,
    /// The campaign to apply. Each client prefixes its stream with an
    /// 8-byte little-endian connection id (the identity preamble), which
    /// the proxy strips — the daemon never sees it — and uses to select
    /// the schedule, so per-connection traces are independent of
    /// accept-order races.
    pub plan: ChaosPlan,
}

/// How long the stream is held after a fragment, so the fragment rides
/// its own segment.
const FRAGMENT_GAP: Duration = Duration::from_millis(1);
/// Longest poll sleep with no stall ending sooner.
const IDLE_POLL: Duration = Duration::from_millis(50);
/// Per-pump byte budget, mirroring the daemon's own fairness clamp.
const PUMP: usize = 64 * 1024;
/// Listener token (one below [`Token::WAKER`]).
const LISTENER: Token = Token(u64::MAX - 1);
/// Set on tokens of upstream-side fds; session ids count up from 0 and
/// never reach bit 63 in a proxy's lifetime.
const UPSTREAM_BIT: u64 = 1 << 63;

struct Session {
    client: TcpStream,
    upstream: TcpStream,
    /// `None` until the identity preamble resolves.
    sched: Option<ConnSchedule>,
    idbuf: Vec<u8>,
    /// Client bytes not yet forwarded upstream.
    inbuf: Vec<u8>,
    /// Request bytes forwarded so far — the offset axis of the schedule.
    forwarded: u64,
    next_fault: usize,
    /// When the current stall (or fragment gap) ends; its entry is in
    /// `Proxy::stalls`.
    stalled_until: Option<Instant>,
    client_eof: bool,
    /// Upstream write side shut (planned half-close or passthrough FIN).
    fin_sent: bool,
    /// Response bytes waiting for the client socket.
    backbuf: WriteBuf,
    upstream_eof: bool,
}

/// An in-process loopback TCP proxy that tortures the *request*
/// direction of every connection per plan — fragments (1-byte writes
/// separated by a short gap so they land as distinct segments), stalls,
/// half-closes (FIN upstream at an exact request offset), and hard
/// resets (`SO_LINGER 0` + close: the kernel emits a real RST, so the
/// daemon observes a genuine `ECONNRESET`). Responses flow back
/// untouched: response byte offsets depend on cache-state headers and
/// would break the byte-identical trace contract.
///
/// Runs its own [`Reactor`] on a dedicated thread. [`ChaosProxy::stop_and_trace`]
/// shuts it down and returns the applied-fault trace, sorted by
/// connection id (stable, diffable — the determinism artifact).
pub struct ChaosProxy {
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    waker: Waker,
    handle: Option<std::thread::JoinHandle<String>>,
}

impl ChaosProxy {
    /// Bind a loopback listener and start the proxy thread.
    pub fn start(cfg: ProxyConfig) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let reactor = Reactor::new()?;
        let waker = reactor.waker();
        reactor.register(listener.as_raw_fd(), LISTENER, Interest::edge_read())?;
        let stop = Arc::new(AtomicBool::new(false));
        let stop2 = stop.clone();
        let handle = std::thread::Builder::new()
            .name("chaos-proxy".into())
            .spawn(move || {
                Proxy {
                    reactor,
                    listener,
                    cfg,
                    sessions: BTreeMap::new(),
                    next_id: 0,
                    stalls: BTreeSet::new(),
                    trace: Vec::new(),
                }
                .run(stop2)
            })
            .map_err(|e| io::Error::other(format!("spawn chaos-proxy: {e}")))?;
        Ok(ChaosProxy {
            addr,
            stop,
            waker,
            handle: Some(handle),
        })
    }

    /// The proxy's listen address (point clients here).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Stop the proxy and return the applied-fault trace.
    pub fn stop_and_trace(mut self) -> String {
        self.stop.store(true, Relaxed);
        self.waker.wake();
        match self.handle.take() {
            Some(h) => h.join().unwrap_or_default(),
            None => String::new(),
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            self.stop.store(true, Relaxed);
            self.waker.wake();
            let _ = h.join();
        }
    }
}

struct Proxy {
    reactor: Reactor,
    listener: TcpListener,
    cfg: ProxyConfig,
    /// Live sessions by id, which is also the epoll token (with
    /// [`UPSTREAM_BIT`] on the upstream fd). Ids are never reused, so a
    /// stale token misses.
    sessions: BTreeMap<u64, Session>,
    next_id: u64,
    /// Pending `(end, session id)` stalls; a session's entry leaves when
    /// the stall ends or the session is torn down.
    stalls: BTreeSet<(Instant, u64)>,
    /// `(connection id, applied fault)` in application order.
    trace: Vec<(u64, String)>,
}

impl Proxy {
    fn run(mut self, stop: Arc<AtomicBool>) -> String {
        let mut events = Vec::new();
        while !stop.load(Relaxed) {
            let timeout = self.stalls.first().map_or(IDLE_POLL, |&(end, _)| {
                end.saturating_duration_since(Instant::now()).min(IDLE_POLL)
            });
            if self.reactor.poll(&mut events, Some(timeout)).is_err() {
                break;
            }
            for &ev in &events {
                if ev.token == LISTENER {
                    self.accept_ready();
                } else {
                    let raw = ev.token.0;
                    let key = raw & !UPSTREAM_BIT;
                    if !self.sessions.contains_key(&key) {
                        continue;
                    }
                    if raw & UPSTREAM_BIT != 0 {
                        if ev.readable || ev.closed {
                            self.read_upstream(key);
                        }
                        if ev.writable && self.sessions.contains_key(&key) {
                            self.forward(key);
                        }
                    } else {
                        if ev.readable || ev.closed {
                            self.read_client(key);
                        }
                        if ev.writable && self.sessions.contains_key(&key) {
                            self.flush_client(key);
                        }
                    }
                }
            }
            let now = Instant::now();
            while let Some(&(end, key)) = self.stalls.first() {
                if end > now {
                    break;
                }
                self.stalls.pop_first();
                if let Some(s) = self.sessions.get_mut(&key) {
                    s.stalled_until = None;
                    self.forward(key);
                }
            }
        }
        self.render_trace()
    }

    fn accept_ready(&mut self) {
        loop {
            match self.listener.accept() {
                Ok((client, _)) => {
                    if client.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = client.set_nodelay(true);
                    let upstream = match TcpStream::connect(self.cfg.upstream) {
                        Ok(u) => u,
                        Err(_) => continue,
                    };
                    if upstream.set_nonblocking(true).is_err() {
                        continue;
                    }
                    let _ = upstream.set_nodelay(true);
                    let key = self.next_id;
                    self.next_id += 1;
                    let s = Session {
                        client,
                        upstream,
                        sched: None,
                        idbuf: Vec::new(),
                        inbuf: Vec::new(),
                        forwarded: 0,
                        next_fault: 0,
                        stalled_until: None,
                        client_eof: false,
                        fin_sent: false,
                        backbuf: WriteBuf::new(),
                        upstream_eof: false,
                    };
                    let ct = Token(key);
                    let ut = Token(key | UPSTREAM_BIT);
                    let ok = self
                        .reactor
                        .register(s.client.as_raw_fd(), ct, Interest::edge_read_write())
                        .is_ok()
                        && self
                            .reactor
                            .register(s.upstream.as_raw_fd(), ut, Interest::edge_read_write())
                            .is_ok();
                    if !ok {
                        continue;
                    }
                    self.sessions.insert(key, s);
                    // Bytes may have raced ahead of the registration.
                    self.read_client(key);
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => break,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => break,
            }
        }
    }

    fn read_client(&mut self, key: u64) {
        loop {
            let Some(s) = self.sessions.get_mut(&key) else {
                return;
            };
            match drain_read(&mut s.client, &mut s.inbuf, PUMP) {
                Ok(out) => {
                    if out.eof {
                        s.client_eof = true;
                    }
                    if s.sched.is_none() {
                        let need = 8usize.saturating_sub(s.idbuf.len());
                        let take = need.min(s.inbuf.len());
                        let moved: Vec<u8> = s.inbuf.drain(..take).collect();
                        s.idbuf.extend_from_slice(&moved);
                        if s.idbuf.len() == 8 {
                            let mut b = [0u8; 8];
                            b.copy_from_slice(&s.idbuf);
                            s.sched = Some(self.cfg.plan.connection(u64::from_le_bytes(b)));
                        }
                    }
                    if out.eof || out.bytes < PUMP {
                        break;
                    }
                }
                Err(_) => {
                    // Client died mid-request: propagate abortively.
                    self.teardown(key, true);
                    return;
                }
            }
        }
        self.forward(key);
    }

    /// Push request bytes upstream, applying schedule faults at their
    /// exact forwarded-byte offsets.
    fn forward(&mut self, key: u64) {
        loop {
            let Some(s) = self.sessions.get_mut(&key) else {
                return;
            };
            if s.stalled_until.is_some() {
                return;
            }
            let Some(sched) = s.sched.as_ref() else {
                return;
            };
            let id = sched.id;
            let terminal = sched.terminal;
            let fault = sched.faults.get(s.next_fault).copied();
            match terminal {
                Terminal::Reset(off) if s.forwarded >= off => {
                    self.trace.push((id, format!("off={off} terminal=reset")));
                    self.teardown(key, true);
                    return;
                }
                Terminal::Eof(off) if s.forwarded >= off && !s.fin_sent => {
                    s.fin_sent = true;
                    let _ = s.upstream.shutdown(Shutdown::Write);
                    self.trace
                        .push((id, format!("off={off} terminal=half_close")));
                    continue;
                }
                _ => {}
            }
            if s.fin_sent {
                // Bytes past the half-close fall on the floor.
                s.inbuf.clear();
                return;
            }
            if s.inbuf.is_empty() {
                if s.client_eof {
                    // Passthrough FIN (not a fault; no trace line).
                    s.fin_sent = true;
                    let _ = s.upstream.shutdown(Shutdown::Write);
                }
                return;
            }
            let mut cap = s.inbuf.len();
            let mut frag = false;
            // Clamp to the terminal boundary so a terminal'd connection
            // delivers *byte-exact* `off` bytes upstream — never more —
            // regardless of how much had piled into `inbuf` when the
            // write happened. (The guards above ensure forwarded < off
            // whenever we reach the write path with a terminal pending.)
            match terminal {
                Terminal::Reset(off) | Terminal::Eof(off) => {
                    cap = cap.min((off - s.forwarded) as usize);
                }
                Terminal::None => {}
            }
            if let Some(f) = fault {
                if s.forwarded >= f.offset {
                    s.next_fault += 1;
                    match f.kind {
                        FaultKind::Short(n) => {
                            cap = cap.min((n as usize).max(1));
                            frag = true;
                            self.trace
                                .push((id, format!("off={} fault={}", f.offset, f.kind.label())));
                        }
                        FaultKind::Stall(ms) => {
                            self.trace
                                .push((id, format!("off={} fault={}", f.offset, f.kind.label())));
                            let end = Instant::now() + Duration::from_millis(ms);
                            s.stalled_until = Some(end);
                            self.stalls.insert((end, key));
                            return;
                        }
                    }
                } else {
                    cap = cap.min((f.offset - s.forwarded) as usize);
                }
            }
            match s.upstream.write(&s.inbuf[..cap]) {
                Ok(n) => {
                    s.forwarded += n as u64;
                    s.inbuf.drain(..n);
                    if frag {
                        // nodelay flushes the fragment now; the gap keeps
                        // the next write out of its segment.
                        let end = Instant::now() + FRAGMENT_GAP;
                        s.stalled_until = Some(end);
                        self.stalls.insert((end, key));
                        return;
                    }
                    if n < cap {
                        return; // kernel buffer full: wait for writable
                    }
                }
                Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
                Err(e) if e.kind() == io::ErrorKind::Interrupted => continue,
                Err(_) => {
                    self.teardown(key, true);
                    return;
                }
            }
        }
    }

    fn read_upstream(&mut self, key: u64) {
        let mut tmp = Vec::new();
        loop {
            let Some(s) = self.sessions.get_mut(&key) else {
                return;
            };
            tmp.clear();
            match drain_read(&mut s.upstream, &mut tmp, PUMP) {
                Ok(out) => {
                    s.backbuf.push(&tmp);
                    if out.eof {
                        s.upstream_eof = true;
                        break;
                    }
                    if out.bytes < PUMP {
                        break;
                    }
                }
                Err(_) => {
                    self.teardown(key, true);
                    return;
                }
            }
        }
        self.flush_client(key);
    }

    fn flush_client(&mut self, key: u64) {
        let Some(s) = self.sessions.get_mut(&key) else {
            return;
        };
        match s.backbuf.flush(&mut s.client) {
            Ok(true) => {
                if s.upstream_eof {
                    // Daemon finished; hand the client a clean FIN.
                    self.teardown(key, false);
                }
            }
            Ok(false) => {} // writable edge will resume us
            Err(_) => self.teardown(key, true),
        }
    }

    fn teardown(&mut self, key: u64, reset: bool) {
        if let Some(s) = self.sessions.remove(&key) {
            if let Some(end) = s.stalled_until {
                self.stalls.remove(&(end, key));
            }
            if reset {
                let _ = sys::set_linger_zero(s.client.as_raw_fd());
                let _ = sys::set_linger_zero(s.upstream.as_raw_fd());
            }
            // Dropping the streams closes the fds, which deregisters
            // them from the epoll set implicitly.
        }
    }

    fn render_trace(mut self) -> String {
        use std::fmt::Write as _;
        // Stable by id: within one connection, lines keep application
        // order, which the offset axis makes deterministic.
        self.trace.sort_by_key(|(id, _)| *id);
        let mut out = String::new();
        for (id, text) in self.trace {
            let _ = writeln!(out, "conn={id} {text}");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Read;

    fn busy_spec(seed: u64) -> ChaosSpec {
        ChaosSpec {
            max_faults: 6,
            w_short: 1.0,
            w_stall: 1.0,
            p_reset: 0.25,
            p_half_close: 0.25,
            ..ChaosSpec::quiet(seed)
        }
    }

    #[test]
    fn plans_are_pure_functions_of_seed_and_id() {
        let a = ChaosPlan::new(busy_spec(42)).unwrap();
        let b = ChaosPlan::new(busy_spec(42)).unwrap();
        for id in 0..64 {
            assert_eq!(a.connection(id), b.connection(id));
        }
        assert_eq!(a.render(32), b.render(32));
        // A different seed must actually change the campaign.
        let c = ChaosPlan::new(busy_spec(43)).unwrap();
        assert_ne!(a.render(32), c.render(32));
    }

    #[test]
    fn schedules_differ_across_connections() {
        let plan = ChaosPlan::new(busy_spec(7)).unwrap();
        let distinct = (0..32)
            .map(|id| format!("{:?}", plan.connection(id)))
            .collect::<std::collections::HashSet<_>>();
        assert!(distinct.len() > 16, "per-connection streams decorrelate");
    }

    #[test]
    fn spec_validation_rejects_nonsense() {
        let mut s = ChaosSpec::quiet(1);
        s.p_reset = 1.5;
        assert!(s.validate().is_err());
        let mut s = ChaosSpec::quiet(1);
        s.w_short = -1.0;
        assert!(s.validate().is_err());
        let mut s = ChaosSpec::quiet(1);
        s.window = 1;
        assert!(s.validate().is_err());
        let mut s = ChaosSpec::quiet(1);
        s.stall_ms = (9, 3);
        assert!(s.validate().is_err());
    }

    fn echo_upstream() -> (SocketAddr, std::thread::JoinHandle<()>) {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let handle = std::thread::spawn(move || {
            if let Ok((mut conn, _)) = listener.accept() {
                let mut buf = [0u8; 4096];
                loop {
                    match conn.read(&mut buf) {
                        Ok(0) | Err(_) => break,
                        Ok(n) => {
                            if conn.write_all(&buf[..n]).is_err() {
                                break;
                            }
                        }
                    }
                }
            }
        });
        (addr, handle)
    }

    #[test]
    fn proxy_passes_bytes_through_under_a_quiet_plan() {
        let (upstream, server) = echo_upstream();
        let proxy = ChaosProxy::start(ProxyConfig {
            upstream,
            plan: ChaosPlan::new(ChaosSpec::quiet(1)).unwrap(),
        })
        .unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.write_all(&0u64.to_le_bytes()).unwrap(); // identity preamble
        client.write_all(b"hello through the storm").unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        client.read_to_end(&mut back).unwrap();
        assert_eq!(back, b"hello through the storm");
        drop(client);
        server.join().unwrap();
        assert_eq!(proxy.stop_and_trace(), "", "quiet plan applies nothing");
    }

    #[test]
    fn proxy_fragments_but_preserves_bytes() {
        let (upstream, server) = echo_upstream();
        let mut spec = ChaosSpec::quiet(11);
        spec.max_faults = 8;
        spec.w_short = 1.0;
        spec.window = 64;
        let plan = ChaosPlan::new(spec).unwrap();
        let expect_faults = !plan.connection(3).faults.is_empty();
        let proxy = ChaosProxy::start(ProxyConfig { upstream, plan }).unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        client.write_all(&3u64.to_le_bytes()).unwrap(); // identity preamble
        let payload: Vec<u8> = (0..64u8).collect();
        client.write_all(&payload).unwrap();
        client.shutdown(Shutdown::Write).unwrap();
        let mut back = Vec::new();
        client.read_to_end(&mut back).unwrap();
        assert_eq!(back, payload, "fragmentation must not corrupt bytes");
        drop(client);
        server.join().unwrap();
        let trace = proxy.stop_and_trace();
        if expect_faults {
            assert!(
                trace.lines().all(|l| l.starts_with("conn=3 ")),
                "trace lines carry the preamble identity: {trace:?}"
            );
            assert!(!trace.is_empty());
        }
    }

    #[test]
    fn proxy_reset_terminal_kills_the_connection_with_a_real_rst() {
        let (upstream, server) = echo_upstream();
        let mut spec = ChaosSpec::quiet(5);
        spec.p_reset = 1.0;
        spec.window = 16; // reset offset lands in [1, 16]
        let proxy = ChaosProxy::start(ProxyConfig {
            upstream,
            plan: ChaosPlan::new(spec).unwrap(),
        })
        .unwrap();
        let mut client = TcpStream::connect(proxy.addr()).unwrap();
        client
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        // More than 16 bytes so the terminal offset is reached; the
        // write itself may or may not error depending on timing.
        let _ = client.write_all(&0u64.to_le_bytes());
        let _ = client.write_all(&[7u8; 64]);
        let mut back = Vec::new();
        let death = match client.read_to_end(&mut back) {
            Err(_) => true,           // RST surfaced as ECONNRESET
            Ok(_) => back.len() < 64, // or the stream just ended short
        };
        assert!(death, "connection must die before the payload echoes");
        let trace = proxy.stop_and_trace();
        assert!(
            trace.contains("terminal=reset"),
            "trace records the reset: {trace:?}"
        );
        drop(server); // echo thread may still be blocked in read; detach
    }

    #[test]
    fn proxy_trace_is_byte_identical_across_runs() {
        let run = || {
            let (upstream, server) = echo_upstream();
            let mut spec = ChaosSpec::quiet(77);
            spec.max_faults = 6;
            spec.w_short = 1.0;
            spec.w_stall = 1.0;
            spec.stall_ms = (1, 10);
            spec.window = 48;
            let proxy = ChaosProxy::start(ProxyConfig {
                upstream,
                plan: ChaosPlan::new(spec).unwrap(),
            })
            .unwrap();
            let mut client = TcpStream::connect(proxy.addr()).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            client.write_all(&9u64.to_le_bytes()).unwrap();
            let payload: Vec<u8> = (0..48u8).collect();
            client.write_all(&payload).unwrap();
            client.shutdown(Shutdown::Write).unwrap();
            let mut back = Vec::new();
            client.read_to_end(&mut back).unwrap();
            assert_eq!(back, payload);
            drop(client);
            server.join().unwrap();
            proxy.stop_and_trace()
        };
        let a = run();
        let b = run();
        assert_eq!(a, b, "same seed, same bytes: traces must match");
        assert!(!a.is_empty(), "the chosen seed actually injects faults");
    }
}
