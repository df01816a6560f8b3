//! The serving daemon: epoll reactor io threads feeding a bounded
//! admission queue and a worker pool, both in front of one LRU.
//!
//! ```text
//!             ┌────────────────────── io thread (×N) ──────────────────────┐
//!  clients ──>│ accept → conns map → RequestDecoder → LRU hit? ───hit─────>│──> response
//!             │    │         │             │ miss                          │
//!             │    │         │      backend.answer_ready? ───ready────────>│──> response
//!             │    │         │             │ needs a simulation            │
//!             │    │         │             │ key in flight? park behind it │
//!             │ deadlines (408/504)        └──try_send──> bounded queue ───┼──> worker pool
//!             │    ▲                                          │ full?      │  LRU hit? or
//!             │    └── completions mailbox + eventfd waker <──┼── 429 ─────│<─ backend.answer
//!             └────────────────────────────────────────────────────────────┘
//! ```
//!
//! One or two io threads multiplex every connection through an epoll
//! [`Reactor`] (edge-triggered, [`pmemflow_net`]): nonblocking accept,
//! incremental HTTP decode, per-connection pipelining with strict
//! in-order write-back, and one ordered deadline map that owns all
//! wall-clock policy — slowloris read deadlines (`408`) and request
//! deadlines (`504`); an entry leaves the map when its cause ends, and
//! the poll sleeps until the earliest one. io threads never
//! simulate and workers never touch a socket: a decoded query is
//! answered inline from the result cache (the warm fast path) or, on a
//! miss, from [`Backend::answer_ready`] when the backend holds the
//! answer without simulating (a warm oracle; the answer is cached and
//! counted as a miss and in `inline_misses`, and a panic answers `500`
//! as on a worker). Only a query that needs a simulation is enqueued
//! as a [`Job`], and only once per key and io thread: a duplicate that
//! misses while a worker computes its key parks on the io thread behind
//! it, holding a waiting slot and its own deadline but no queue slot,
//! and the completion answers it too (`coalesced`). The worker probes
//! the cache once more — an identical request queued from another io
//! thread may have answered it meanwhile (`coalesced`) — and otherwise
//! runs the backend under `catch_unwind`: an answer is cached (`miss`),
//! a panic answers `500` and caches nothing. A job whose deadline passed
//! in the queue is handed back uncomputed. When nothing was computed —
//! a panic or an expiry — the parked duplicates are routed afresh, so
//! each gets an attempt of its own. In every case the worker posts the
//! outcome to the owning io thread's mailbox and rings its eventfd
//! waker, then takes the next job. Overload is shed at the queue with
//! `429` and a `Retry-After`, so the daemon degrades by refusing work
//! it could not finish in time rather than by collapsing.
//!
//! Shutdown (`POST /admin/shutdown`, [`Server::shutdown`], or dropping
//! the handle) is graceful: acceptors deregister, idle connections close
//! immediately, busy ones finish writing what they owe, and a grace
//! period bounds the wait; [`Server::join`] returns the number of
//! connections the grace period had to abandon (0 on a clean drain).

use crate::cache::Lru;
use crate::http::{render_response, Decoded, Request, RequestDecoder};
use crate::json::Json;
use crate::metrics::Metrics;
use crate::model::{Answer, Backend, ModelBackend};
use crate::query::Query;
use pmemflow_core::sync::lock_recover;
use pmemflow_des::json_escape;
use pmemflow_net::{
    drain_read, is_fd_exhaustion, AcceptBackoff, Interest, Reactor, Token, Waker, WriteBuf,
};
use std::collections::{BTreeMap, BTreeSet, VecDeque};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::os::fd::AsRawFd;
use std::sync::atomic::{AtomicBool, Ordering::Relaxed};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tunables of one daemon instance.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// TCP port on 127.0.0.1 (0 = ephemeral, see [`Server::addr`]).
    pub port: u16,
    /// Reactor io threads multiplexing connections (≥ 1; 1–2 is plenty —
    /// they only parse and shuffle bytes).
    pub io_threads: usize,
    /// Worker threads resolving queries (≥ 1).
    pub workers: usize,
    /// Result-cache capacity, entries (≥ 1).
    pub cache_capacity: usize,
    /// Admission-queue depth; a full queue sheds with 429.
    pub queue_capacity: usize,
    /// Per-request deadline; exceeding it answers 504.
    pub deadline: Duration,
    /// Wall-clock budget for *reading* one request, armed at its first
    /// byte: a client that starts a request but trickles it (slowloris)
    /// is reaped with 408 once this elapses. Idle
    /// keep-alive connections are not charged.
    pub read_deadline: Duration,
}

impl Default for ServerConfig {
    fn default() -> Self {
        ServerConfig {
            port: 0,
            io_threads: 1,
            workers: 2,
            cache_capacity: 256,
            queue_capacity: 64,
            deadline: Duration::from_secs(30),
            read_deadline: Duration::from_secs(5),
        }
    }
}

/// Reactor token for the listener (connection ids count up from 0 and
/// never get this far).
const LISTENER: Token = Token(u64::MAX - 1);
/// Longest poll sleep with no deadline due sooner; wakers (completions,
/// shutdown) interrupt it.
const IDLE_POLL: Duration = Duration::from_millis(250);
/// The deadline-map slot of a connection's read deadline; request
/// deadlines use their pipeline sequence number, which counts up from 0.
const READ_SLOT: u64 = u64::MAX;
/// Decoded-but-unanswered requests allowed per connection before the io
/// thread stops reading it (HTTP pipelining backpressure; the kernel
/// socket buffer then backpressures the client).
const MAX_PIPELINE: usize = 32;
/// Most bytes one connection may read per pump, so a firehose client
/// cannot starve the rest of the dispatch batch.
const READ_CHUNK: usize = 64 * 1024;
/// How long a drain waits for busy connections before abandoning them.
const DRAIN_GRACE: Duration = Duration::from_secs(1);

fn error_body(msg: &str) -> Vec<u8> {
    format!("{{\"error\":\"{}\"}}", json_escape(msg)).into_bytes()
}

/// The `500` message of a request whose backend call panicked.
const PANIC_MESSAGE: &str = "model computation failed; retry may succeed";

/// One unit of queued work: a decoded query plus the io thread, the
/// connection and the pipeline slot its answer goes back to.
struct Job {
    key: String,
    query: Query,
    mailbox: Arc<Mailbox>,
    conn: u64,
    seq: u64,
    expires: Instant,
}

/// A worker's outcome on its way back to an io thread, for the slot
/// that queued the job and every duplicate parked behind it under `key`.
struct Completion {
    key: String,
    conn: u64,
    seq: u64,
    outcome: Outcome,
}

/// What a worker made of one job.
enum Outcome {
    /// The answer and its `x-pmemflow-cache` label (response *bodies* do
    /// not depend on the label).
    Answered(Arc<Answer>, &'static str),
    /// The backend panicked; the query comes back for the duplicates
    /// parked behind it, which get their own attempt.
    Panicked(Query),
    /// The job's deadline had passed when a worker took it, so nothing
    /// was computed; the query comes back for the duplicates parked
    /// behind it, whose own deadlines may still be ahead.
    Expired(Query),
}

/// Per-io-thread completion mailbox. Workers push and ring the waker;
/// the io thread drains it at the top of every poll loop.
struct Mailbox {
    completions: Mutex<Vec<Completion>>,
    waker: Waker,
}

impl Mailbox {
    /// Deliver `c` and wake the io thread. Safe long after the
    /// connection (or the whole io thread) is gone.
    fn post(&self, c: Completion) {
        lock_recover(&self.completions).push(c);
        self.waker.wake();
    }
}

/// State shared by the io threads, the workers and the [`Server`] handle.
struct Shared {
    metrics: Arc<Metrics>,
    /// The result cache every model query resolves through.
    cache: Mutex<Lru<Arc<Answer>>>,
    shutdown: AtomicBool,
    deadline: Duration,
    read_deadline: Duration,
    /// Every io thread's waker, so shutdown can interrupt all polls.
    wakers: Vec<Waker>,
}

impl Shared {
    /// The cached answer for `key`, refreshing its recency.
    fn cached(&self, key: &str) -> Option<Arc<Answer>> {
        lock_recover(&self.cache).get(key)
    }

    /// Cache a freshly computed answer for `key`, counting the miss and
    /// any eviction it causes.
    fn store(&self, key: &str, answer: Answer) -> Arc<Answer> {
        let answer = Arc::new(answer);
        if lock_recover(&self.cache)
            .insert(key, answer.clone())
            .is_some()
        {
            self.metrics.evictions.fetch_add(1, Relaxed);
        }
        self.metrics.cache_misses.fetch_add(1, Relaxed);
        answer
    }

    fn begin_shutdown(&self) {
        if !self.shutdown.swap(true, Relaxed) {
            for w in &self.wakers {
                w.wake();
            }
        }
    }
}

/// One response slot in a connection's pipeline. Slots answer strictly
/// in request order regardless of completion order.
enum SlotState {
    /// Rendered bytes, ready to write once everything ahead has gone out.
    Ready(Vec<u8>),
    /// Waiting on a worker completion or its 504 deadline at `expires`,
    /// whichever comes first (the loser finds the slot already `Ready`).
    Waiting {
        started: Instant,
        expires: Instant,
        close: bool,
    },
}

/// Per-connection state machine.
struct Conn {
    stream: TcpStream,
    /// Unparsed request bytes (always starts at a request boundary).
    buf: Vec<u8>,
    decoder: RequestDecoder,
    /// In-order response slots: front is the next to go on the wire.
    pipeline: VecDeque<(u64, SlotState)>,
    next_seq: u64,
    wb: WriteBuf,
    /// Stop reading; close once the pipeline and write buffer drain.
    close_after: bool,
    /// Peer sent EOF (or RDHUP): no more requests will arrive.
    read_eof: bool,
    /// When the request being read is reaped with 408; `None` between
    /// requests.
    read_deadline: Option<Instant>,
}

impl Conn {
    fn new(stream: TcpStream) -> Conn {
        Conn {
            stream,
            buf: Vec::new(),
            decoder: RequestDecoder::new(),
            pipeline: VecDeque::new(),
            next_seq: 0,
            wb: WriteBuf::new(),
            close_after: false,
            read_eof: false,
            read_deadline: None,
        }
    }

    fn idle(&self) -> bool {
        self.pipeline.is_empty() && self.wb.is_empty()
    }

    fn push_ready(&mut self, bytes: Vec<u8>) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.pipeline.push_back((seq, SlotState::Ready(bytes)));
    }
}

/// A running daemon. Dropping the handle initiates shutdown; call
/// [`Server::join`] to drain first.
pub struct Server {
    addr: SocketAddr,
    shared: Arc<Shared>,
    io: Vec<JoinHandle<usize>>,
    workers: Vec<JoinHandle<()>>,
}

impl Server {
    /// Boot with the real model backend.
    pub fn start(config: ServerConfig) -> std::io::Result<Server> {
        Server::start_with_backend(config, Arc::new(ModelBackend::new()))
    }

    /// Boot with an arbitrary backend (tests inject stubs here).
    pub fn start_with_backend(
        config: ServerConfig,
        backend: Arc<dyn Backend>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(("127.0.0.1", config.port))?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;
        let (queue, jobs) = sync_channel::<Job>(config.queue_capacity.max(1));
        let jobs = Arc::new(Mutex::new(jobs));

        // Build every reactor before spawning anything so Shared can hold
        // all the wakers (shutdown must be able to interrupt every poll).
        let io_threads = config.io_threads.max(1);
        let reactors = (0..io_threads)
            .map(|_| Reactor::new())
            .collect::<std::io::Result<Vec<_>>>()?;
        let shared = Arc::new(Shared {
            metrics: Arc::new(Metrics::default()),
            cache: Mutex::new(Lru::new(config.cache_capacity)),
            shutdown: AtomicBool::new(false),
            deadline: config.deadline,
            read_deadline: config.read_deadline,
            wakers: reactors.iter().map(|r| r.waker()).collect(),
        });

        let workers = (0..config.workers.max(1))
            .map(|i| {
                let (jobs, shared, backend) = (jobs.clone(), shared.clone(), backend.clone());
                std::thread::Builder::new()
                    .name(format!("serve-worker-{i}"))
                    .spawn(move || worker_loop(&jobs, &shared, &*backend))
            })
            .collect::<std::io::Result<Vec<_>>>()?;

        let exclusive = io_threads > 1;
        let io = reactors
            .into_iter()
            .enumerate()
            .map(|(i, reactor)| {
                let listener = listener.try_clone()?;
                let (shared, queue, backend) = (shared.clone(), queue.clone(), backend.clone());
                std::thread::Builder::new()
                    .name(format!("serve-io-{i}"))
                    .spawn(move || io_loop(reactor, listener, shared, backend, queue, exclusive))
            })
            .collect::<std::io::Result<Vec<_>>>()?;
        // The io threads own the only queue senders now; when they exit,
        // the workers see a disconnect and drain out.
        drop(queue);

        Ok(Server {
            addr,
            shared,
            io,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Serving metrics (shared with the daemon threads).
    pub fn metrics(&self) -> &Arc<Metrics> {
        &self.shared.metrics
    }

    /// Entries currently in the result cache.
    pub fn cache_len(&self) -> usize {
        lock_recover(&self.shared.cache).len()
    }

    /// Initiate shutdown: stop accepting, let in-flight requests finish.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
    }

    /// Block until the daemon has shut down and drained. Does *not*
    /// initiate the shutdown itself — that comes from [`Server::shutdown`]
    /// or an in-band `POST /admin/shutdown` — so a daemon `main` can park
    /// here indefinitely. Returns the number of connections abandoned by
    /// the drain grace period (0 on a clean drain).
    pub fn join(mut self) -> usize {
        let abandoned = self.io.drain(..).map(|h| h.join().unwrap_or(0)).sum();
        // io threads dropped their queue senders on exit; workers finish
        // whatever they already dequeued and see the disconnect.
        for w in self.workers.drain(..) {
            let _ = w.join();
        }
        abandoned
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn worker_loop(jobs: &Mutex<Receiver<Job>>, shared: &Shared, backend: &dyn Backend) {
    let metrics = &shared.metrics;
    loop {
        // Standard Mutex<Receiver> pool: the lock holder blocks in recv,
        // the rest block on the lock; each job wakes exactly one worker.
        let Ok(job) = lock_recover(jobs).recv() else {
            return; // every sender gone: drained, shut down
        };
        metrics.queue_depth.fetch_sub(1, Relaxed);
        let outcome = if Instant::now() > job.expires {
            // The 504 timer has already answered this slot; don't burn a
            // simulation on a reply nobody may be waiting for.
            Outcome::Expired(job.query)
        } else if let Some(answer) = shared.cached(&job.key) {
            // An identical request queued ahead of this one (on another
            // io thread) may have been computed while this one waited.
            metrics.coalesced.fetch_add(1, Relaxed);
            Outcome::Answered(answer, "coalesced")
        } else {
            // AssertUnwindSafe: on panic the result is discarded and no
            // lock of ours is held across the call, so nothing the
            // daemon owns can be observed torn.
            match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                backend.answer(&job.query)
            })) {
                Ok(answer) => Outcome::Answered(shared.store(&job.key, answer), "miss"),
                Err(_) => {
                    metrics.panics.fetch_add(1, Relaxed);
                    Outcome::Panicked(job.query)
                }
            }
        };
        job.mailbox.post(Completion {
            key: job.key,
            conn: job.conn,
            seq: job.seq,
            outcome,
        });
    }
}

/// Everything one io thread owns, bundled so the helper methods below
/// can borrow disjoint parts without fighting the borrow checker across
/// a dozen function arguments.
struct IoThread {
    reactor: Reactor,
    listener: TcpListener,
    shared: Arc<Shared>,
    /// Asked only for answers that need no simulation.
    backend: Arc<dyn Backend>,
    queue: SyncSender<Job>,
    mailbox: Arc<Mailbox>,
    /// Live connections by id, which is also the epoll token. Ids are
    /// never reused, so a stale token or a late completion misses.
    conns: BTreeMap<u64, Conn>,
    next_id: u64,
    /// Pending `(when, connection id, slot)` deadlines: a request's
    /// pipeline sequence number (504) or [`READ_SLOT`] (408). An entry
    /// leaves when its cause ends, so every entry is live.
    deadlines: BTreeSet<(Instant, u64, u64)>,
    /// Queries a worker is computing for this io thread, by canonical
    /// key, with the `(connection id, slot)` of each duplicate parked
    /// behind one. Only the first miss of a key takes a queue slot; its
    /// completion answers the duplicates too.
    pending: BTreeMap<String, Vec<(u64, u64)>>,
    /// When the fd-exhaustion backoff ends and accepting resumes.
    resume_accept: Option<Instant>,
    backoff: AcceptBackoff,
    accepting: bool,
    listener_interest: Interest,
}

fn io_loop(
    reactor: Reactor,
    listener: TcpListener,
    shared: Arc<Shared>,
    backend: Arc<dyn Backend>,
    queue: SyncSender<Job>,
    exclusive: bool,
) -> usize {
    let mailbox = Arc::new(Mailbox {
        completions: Mutex::new(Vec::new()),
        waker: reactor.waker(),
    });
    // Level-triggered listener: un-accepted connections re-fire the next
    // poll. EPOLLEXCLUSIVE suppresses the thundering herd when several io
    // threads share the socket.
    let listener_interest = Interest {
        readable: true,
        writable: false,
        edge: false,
        exclusive,
    };
    // A daemon whose io thread cannot watch its listener is deaf but
    // looks alive — fail loudly instead of serving nothing.
    reactor
        .register(listener.as_raw_fd(), LISTENER, listener_interest)
        .expect("register listener with epoll");
    let mut io = IoThread {
        reactor,
        listener,
        shared,
        backend,
        queue,
        mailbox,
        conns: BTreeMap::new(),
        next_id: 0,
        deadlines: BTreeSet::new(),
        pending: BTreeMap::new(),
        resume_accept: None,
        backoff: AcceptBackoff::default(),
        accepting: true,
        listener_interest,
    };

    let mut events = Vec::new();
    let mut draining = false;
    let mut drain_deadline = Instant::now();
    loop {
        // Sleep until the earliest deadline, at most IDLE_POLL. Wakers
        // (completions, shutdown) interrupt either way.
        let due = [
            io.deadlines.first().map(|&(at, _, _)| at),
            io.resume_accept,
            draining.then_some(drain_deadline),
        ];
        let timeout = due.into_iter().flatten().min().map_or(IDLE_POLL, |at| {
            at.saturating_duration_since(Instant::now()).min(IDLE_POLL)
        });
        let _ = io.reactor.poll(&mut events, Some(timeout));
        io.shared.metrics.epoll_wakeups_total.fetch_add(1, Relaxed);
        io.shared
            .metrics
            .dispatch_batch
            .observe_us(events.len() as u64);

        // 1. Worker completions (and resume reads their slots blocked).
        let batch = std::mem::take(&mut *lock_recover(&io.mailbox.completions));
        for c in batch {
            io.complete(c);
        }

        // 2. Readiness events.
        for &ev in &events {
            if ev.token == LISTENER {
                io.accept_ready();
            } else {
                let key = ev.token.0;
                if !io.conns.contains_key(&key) {
                    continue; // stale token: connection already gone
                }
                // On hangup (`closed`), pump anyway: RDHUP can arrive
                // with final request bytes still buffered in the kernel;
                // the read path discovers the EOF (or error) itself.
                // Writable edges also pump, not just flush: a connection
                // parked on write backpressure may hold undecoded
                // requests that only the pump can revive once the socket
                // drains (the flush alone would strand them).
                if ev.readable || ev.writable || ev.closed {
                    io.pump(key);
                }
            }
        }

        // 3. Deadlines that have fallen due, earliest first.
        let now = Instant::now();
        while let Some(&(at, key, slot)) = io.deadlines.first() {
            if at > now {
                break;
            }
            io.deadlines.pop_first();
            io.fire(key, slot);
        }
        if io.resume_accept.is_some_and(|at| at <= now) {
            io.resume_accept = None;
            io.resume_accepting();
        }

        // 4. Shutdown / drain.
        if io.shared.shutdown.load(Relaxed) && !draining {
            draining = true;
            drain_deadline = Instant::now() + DRAIN_GRACE;
            if io.accepting {
                let _ = io.reactor.deregister(io.listener.as_raw_fd());
                io.accepting = false;
            }
            let keys: Vec<u64> = io.conns.keys().copied().collect();
            for key in keys {
                let conn = io.conns.get_mut(&key).expect("live key");
                if conn.idle() {
                    io.close(key);
                } else {
                    conn.close_after = true;
                }
            }
        }
        if draining {
            if io.conns.is_empty() {
                return 0;
            }
            if Instant::now() >= drain_deadline {
                let abandoned = std::mem::take(&mut io.conns);
                for _ in abandoned.values() {
                    io.shared.metrics.closed_total.fetch_add(1, Relaxed);
                    io.shared.metrics.connections_active.fetch_sub(1, Relaxed);
                }
                return abandoned.len();
            }
        }
    }
}

impl IoThread {
    /// Accept until the listener would block. On fd exhaustion, pause
    /// accepting for a backoff instead of spinning on an error
    /// that retrying cannot fix.
    fn accept_ready(&mut self) {
        if !self.accepting {
            return;
        }
        loop {
            match self.listener.accept() {
                Ok((stream, _)) => {
                    if stream.set_nonblocking(true).is_err() {
                        continue; // a blocking socket would stall the io thread
                    }
                    let _ = stream.set_nodelay(true);
                    self.backoff.reset();
                    self.shared.metrics.accepted_total.fetch_add(1, Relaxed);
                    self.shared.metrics.connections_active.fetch_add(1, Relaxed);
                    let fd = stream.as_raw_fd();
                    let key = self.next_id;
                    self.next_id += 1;
                    self.conns.insert(key, Conn::new(stream));
                    // Edge-triggered both ways, registered once: readable
                    // edges drive the pump, writable edges resume a
                    // flush that hit WouldBlock.
                    if self
                        .reactor
                        .register(fd, Token(key), Interest::edge_read_write())
                        .is_err()
                    {
                        self.close(key);
                        continue;
                    }
                    // The socket may already hold a full request.
                    self.pump(key);
                }
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
                Err(e) if is_fd_exhaustion(&e) => {
                    self.shared.metrics.fd_exhausted_total.fetch_add(1, Relaxed);
                    let pause = self.backoff.strike();
                    let _ = self.reactor.deregister(self.listener.as_raw_fd());
                    self.accepting = false;
                    self.resume_accept = Some(Instant::now() + pause);
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => continue,
                // ECONNABORTED and friends: that connection is gone, the
                // listener is fine.
                Err(_) => continue,
            }
        }
    }

    /// Drive one connection: decode what is buffered, read more, repeat
    /// until WouldBlock / EOF / backpressure, then flush.
    fn pump(&mut self, key: u64) {
        loop {
            self.decode(key);
            let Some(conn) = self.conns.get_mut(&key) else {
                return;
            };
            if conn.close_after {
                break;
            }
            if conn.pipeline.len() >= MAX_PIPELINE {
                // Backpressure reached with bytes possibly still buffered
                // (a deep pipeline of inline answers never generates
                // another readable edge). Flush to open head slots, and
                // only park if the pipeline is genuinely stuck — waiting
                // on workers or a clogged socket, both of which re-enter
                // the pump via completions or writable edges.
                self.flush(key);
                let Some(conn) = self.conns.get_mut(&key) else {
                    return;
                };
                if conn.pipeline.len() >= MAX_PIPELINE {
                    return;
                }
                continue;
            }
            if conn.read_eof {
                break;
            }
            match drain_read(&mut conn.stream, &mut conn.buf, READ_CHUNK) {
                Ok(out) => {
                    if out.eof {
                        conn.read_eof = true;
                    }
                    if out.bytes == 0 {
                        break; // nothing new: decoded everything already
                    }
                    if out.eof || out.bytes < READ_CHUNK {
                        // Hit EOF or WouldBlock: decode the tail, stop.
                        self.decode(key);
                        break;
                    }
                    // Read a full chunk without blocking: there may be
                    // more; loop (the decode at the top consumes it).
                }
                Err(_) => {
                    self.close(key);
                    return;
                }
            }
        }
        self.flush(key);
    }

    /// Decode as many complete pipelined requests as the buffer holds,
    /// dispatching each; stop at partial input, backpressure, or a
    /// framing error (which answers and poisons the connection).
    fn decode(&mut self, key: u64) {
        loop {
            let request = {
                let Some(conn) = self.conns.get_mut(&key) else {
                    return;
                };
                if conn.close_after || conn.pipeline.len() >= MAX_PIPELINE {
                    return;
                }
                match conn.decoder.decode(&conn.buf) {
                    Ok(Decoded::Complete { request, consumed }) => {
                        conn.buf.drain(..consumed);
                        // Completing a request ends its read deadline;
                        // whatever is next in the buffer gets a fresh
                        // budget.
                        if let Some(at) = conn.read_deadline.take() {
                            self.deadlines.remove(&(at, key, READ_SLOT));
                        }
                        request
                    }
                    Ok(Decoded::Partial) => {
                        if conn.decoder.mid_request() && conn.read_deadline.is_none() {
                            let at = Instant::now() + self.shared.read_deadline;
                            conn.read_deadline = Some(at);
                            self.deadlines.insert((at, key, READ_SLOT));
                        }
                        return;
                    }
                    Err(bad) => {
                        // Framing is lost: answer and close. Anything
                        // still buffered is unparseable garbage.
                        self.shared.metrics.on_response(bad.status);
                        let bytes = render_response(
                            bad.status,
                            "application/json",
                            &[],
                            &error_body(bad.reason),
                            true,
                        );
                        conn.push_ready(bytes);
                        conn.close_after = true;
                        conn.buf.clear();
                        return;
                    }
                }
            };
            self.dispatch(key, request);
        }
    }

    /// Route one parsed request: answer inline (admin endpoints, cache
    /// hits, answers the backend holds, errors) or enqueue a job slot
    /// for the worker pool.
    fn dispatch(&mut self, key: u64, request: Request) {
        let shared = self.shared.clone();
        shared.metrics.on_request(&request.path);
        let close = request.wants_close() || shared.shutdown.load(Relaxed);
        let started = Instant::now();
        let answer_now = |io: &mut IoThread,
                          status: u16,
                          content_type: &str,
                          extra: &[(&str, String)],
                          body: &[u8]| {
            shared.metrics.on_response(status);
            shared
                .metrics
                .latency
                .observe_us(started.elapsed().as_micros() as u64);
            let bytes = render_response(status, content_type, extra, body, close);
            if let Some(conn) = io.conns.get_mut(&key) {
                conn.push_ready(bytes);
                if close {
                    conn.close_after = true;
                }
            }
        };
        match (request.method.as_str(), request.path.as_str()) {
            ("GET", "/healthz") => answer_now(self, 200, "text/plain", &[], b"ok\n"),
            ("GET", "/metrics") => {
                let text = shared.metrics.exposition();
                answer_now(self, 200, "text/plain; version=0.0.4", &[], text.as_bytes());
            }
            ("POST", "/admin/shutdown") => {
                answer_now(self, 200, "application/json", &[], b"{\"draining\":true}");
                if let Some(conn) = self.conns.get_mut(&key) {
                    conn.close_after = true;
                }
                shared.begin_shutdown();
            }
            (
                "POST",
                endpoint @ ("/v1/sweep" | "/v1/recommend" | "/v1/predict" | "/v1/coschedule"),
            ) => {
                let query = match std::str::from_utf8(&request.body)
                    .map_err(|_| "body is not UTF-8".to_string())
                    .and_then(|body| Json::parse(body).map_err(|e| format!("malformed JSON: {e}")))
                    .and_then(|parsed| Query::from_json(endpoint, &parsed).map_err(|e| e.0))
                {
                    Ok(q) => q,
                    Err(reason) => {
                        return answer_now(self, 400, "application/json", &[], &error_body(&reason))
                    }
                };
                let qkey = query.canonical_key();
                // Warm fast path: a cached answer never touches the
                // queue or a worker — the io thread answers directly. So
                // does a miss the backend answers without simulating (the
                // oracle already holds it): only simulations are worth a
                // worker round trip. Same `catch_unwind` and accounting
                // as the worker's path.
                let inline = match shared.cached(&qkey) {
                    Some(answer) => {
                        shared.metrics.cache_hits.fetch_add(1, Relaxed);
                        Some((answer, "hit"))
                    }
                    None => match std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        self.backend.answer_ready(&query)
                    })) {
                        Ok(Some(answer)) => {
                            shared.metrics.inline_misses.fetch_add(1, Relaxed);
                            Some((shared.store(&qkey, answer), "miss"))
                        }
                        Ok(None) => None,
                        Err(_) => {
                            shared.metrics.panics.fetch_add(1, Relaxed);
                            let body = error_body(PANIC_MESSAGE);
                            return answer_now(self, 500, "application/json", &[], &body);
                        }
                    },
                };
                if let Some((answer, label)) = inline {
                    let extra = [("x-pmemflow-cache", label.to_string())];
                    return answer_now(
                        self,
                        answer.status,
                        "application/json",
                        &extra,
                        answer.body.as_bytes(),
                    );
                }
                // Park a waiting slot with its 504 deadline, then send the
                // query to a worker or behind an identical one in flight.
                let expires = started + shared.deadline;
                let Some(conn) = self.conns.get_mut(&key) else {
                    return;
                };
                let seq = conn.next_seq;
                conn.next_seq += 1;
                conn.pipeline.push_back((
                    seq,
                    SlotState::Waiting {
                        started,
                        expires,
                        close,
                    },
                ));
                if close {
                    conn.close_after = true;
                }
                self.deadlines.insert((expires, key, seq));
                self.route(qkey, query, key, seq, expires);
            }
            (_, "/healthz" | "/metrics") => answer_now(
                self,
                405,
                "application/json",
                &[("Allow", "GET".to_string())],
                &error_body("method not allowed"),
            ),
            (
                _,
                "/v1/sweep" | "/v1/recommend" | "/v1/predict" | "/v1/coschedule"
                | "/admin/shutdown",
            ) => answer_now(
                self,
                405,
                "application/json",
                &[("Allow", "POST".to_string())],
                &error_body("method not allowed"),
            ),
            _ => answer_now(
                self,
                404,
                "application/json",
                &[],
                &error_body("no such endpoint"),
            ),
        }
    }

    /// Send the miss waiting in slot `(conn, seq)` to a worker, or park
    /// it behind an identical query a worker already has. A full queue
    /// sheds it with 429; a draining daemon answers 503.
    fn route(&mut self, qkey: String, query: Query, conn: u64, seq: u64, expires: Instant) {
        if let Some(parked) = self.pending.get_mut(&qkey) {
            parked.push((conn, seq));
            self.shared.metrics.parked.fetch_add(1, Relaxed);
            return;
        }
        let job = Job {
            key: qkey.clone(),
            query,
            mailbox: self.mailbox.clone(),
            conn,
            seq,
            expires,
        };
        match self.queue.try_send(job) {
            Ok(()) => {
                self.shared.metrics.queue_depth.fetch_add(1, Relaxed);
                self.pending.insert(qkey, Vec::new());
            }
            Err(TrySendError::Full(_)) => {
                self.shared.metrics.shed.fetch_add(1, Relaxed);
                let retry = [("Retry-After", "1".to_string())];
                let body = error_body("admission queue full; retry");
                self.answer_slot(conn, seq, 429, &retry, &body, false);
            }
            Err(TrySendError::Disconnected(_)) => {
                let body = error_body("server is draining");
                self.answer_slot(conn, seq, 503, &[], &body, true);
            }
        }
    }

    /// Land a worker's outcome in the slot that queued the job and in
    /// every duplicate parked behind it (labelled and counted
    /// `coalesced`), pumping each connection that took an answer. When
    /// nothing was computed — the backend panicked, or the job expired
    /// in the queue — the duplicates are routed afresh, in arrival
    /// order: the first still waiting takes a queue slot, the rest park
    /// behind it.
    fn complete(&mut self, c: Completion) {
        let parked = self.pending.remove(&c.key).unwrap_or_default();
        self.shared
            .metrics
            .parked
            .fetch_sub(parked.len() as u64, Relaxed);
        let (answer, label) = match c.outcome {
            Outcome::Answered(answer, label) => (answer, label),
            Outcome::Panicked(query) => {
                // The backend panicked on this query: a definite 500,
                // not a hang until the 504 deadline.
                let body = error_body(PANIC_MESSAGE);
                if self.answer_slot(c.conn, c.seq, 500, &[], &body, false) {
                    self.pump(c.conn);
                }
                self.reroute(&c.key, &query, parked);
                return;
            }
            Outcome::Expired(query) => {
                self.reroute(&c.key, &query, parked);
                return;
            }
        };
        let duplicates = parked.into_iter().map(|(conn, seq)| (conn, seq, true));
        for (conn, seq, duplicate) in std::iter::once((c.conn, c.seq, false)).chain(duplicates) {
            let label = if duplicate { "coalesced" } else { label };
            let extra = [("x-pmemflow-cache", label.to_string())];
            let body = answer.body.as_bytes();
            if self.answer_slot(conn, seq, answer.status, &extra, body, false) {
                if duplicate {
                    self.shared.metrics.coalesced.fetch_add(1, Relaxed);
                }
                self.pump(conn);
            }
        }
    }

    /// Route each parked duplicate of `key` that still waits again.
    fn reroute(&mut self, key: &str, query: &Query, parked: Vec<(u64, u64)>) {
        for (conn, seq) in parked {
            if let Some(expires) = self.waiting(conn, seq) {
                self.route(key.to_string(), query.clone(), conn, seq, expires);
                self.pump(conn);
            }
        }
    }

    /// The 504 deadline of slot `(conn, seq)` while it still waits.
    fn waiting(&self, conn: u64, seq: u64) -> Option<Instant> {
        let c = self.conns.get(&conn)?;
        match c.pipeline.iter().find(|(s, _)| *s == seq)? {
            (_, SlotState::Waiting { expires, .. }) => Some(*expires),
            _ => None,
        }
    }

    /// Answer the waiting slot `(conn, seq)` and drop its deadline;
    /// `force_close` closes the connection after it whatever the request
    /// asked. `false` when nothing waits there any more: the connection
    /// closed, or the slot's 504 deadline answered first.
    fn answer_slot(
        &mut self,
        conn: u64,
        seq: u64,
        status: u16,
        extra: &[(&str, String)],
        body: &[u8],
        force_close: bool,
    ) -> bool {
        let Some(c) = self.conns.get_mut(&conn) else {
            return false;
        };
        let Some((_, slot)) = c.pipeline.iter_mut().find(|(s, _)| *s == seq) else {
            return false;
        };
        let SlotState::Waiting {
            started,
            expires,
            close,
        } = *slot
        else {
            return false;
        };
        self.deadlines.remove(&(expires, conn, seq));
        self.shared.metrics.on_response(status);
        self.shared
            .metrics
            .latency
            .observe_us(started.elapsed().as_micros() as u64);
        let close = close || force_close;
        *slot = SlotState::Ready(render_response(
            status,
            "application/json",
            extra,
            body,
            close,
        ));
        c.close_after |= close;
        true
    }

    /// Handle a deadline that fell due (and has left the map): a read
    /// deadline reaps its connection with 408, a request deadline answers
    /// its slot 504.
    fn fire(&mut self, key: u64, slot: u64) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        if slot == READ_SLOT {
            // Still mid-request past the budget: reap it.
            conn.read_deadline = None;
            self.shared.metrics.reaped_total.fetch_add(1, Relaxed);
            self.shared.metrics.on_response(408);
            let bytes = render_response(
                408,
                "application/json",
                &[],
                &error_body("request read deadline exceeded"),
                true,
            );
            conn.push_ready(bytes);
            conn.close_after = true;
        } else if self.answer_slot(key, slot, 504, &[], &error_body("deadline exceeded"), false) {
            self.shared.metrics.deadline_missed.fetch_add(1, Relaxed);
        } else {
            return;
        }
        self.flush(key);
    }

    /// The fd-exhaustion backoff elapsed: re-arm the acceptor.
    fn resume_accepting(&mut self) {
        if !self.accepting && !self.shared.shutdown.load(Relaxed) {
            self.accepting = true;
            self.reactor
                .register(self.listener.as_raw_fd(), LISTENER, self.listener_interest)
                .expect("re-register listener with epoll");
            self.accept_ready();
        }
    }

    /// Move completed response slots onto the wire, in order, and close
    /// the connection if it is finished.
    fn flush(&mut self, key: u64) {
        let Some(conn) = self.conns.get_mut(&key) else {
            return;
        };
        while let Some((_, SlotState::Ready(_))) = conn.pipeline.front() {
            let Some((_, SlotState::Ready(bytes))) = conn.pipeline.pop_front() else {
                unreachable!("front checked Ready");
            };
            conn.wb.push(&bytes);
        }
        if conn.wb.flush(&mut conn.stream).is_err() {
            self.close(key);
            return;
        }
        let conn = self.conns.get(&key).expect("still live");
        if conn.idle() && (conn.close_after || conn.read_eof) {
            self.close(key);
        }
    }

    /// Drop a connection and its deadlines (the fd closes with the
    /// stream, which deregisters it from epoll implicitly).
    fn close(&mut self, key: u64) {
        let Some(conn) = self.conns.remove(&key) else {
            return;
        };
        if let Some(at) = conn.read_deadline {
            self.deadlines.remove(&(at, key, READ_SLOT));
        }
        for (seq, slot) in &conn.pipeline {
            if let SlotState::Waiting { expires, .. } = *slot {
                self.deadlines.remove(&(expires, key, *seq));
            }
        }
        self.shared.metrics.closed_total.fetch_add(1, Relaxed);
        self.shared.metrics.connections_active.fetch_sub(1, Relaxed);
    }
}
