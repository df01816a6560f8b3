//! `pmemflow_net` — a std-only epoll readiness reactor.
//!
//! The serving daemon (`pmemflow_serve`) needs to multiplex thousands
//! of keep-alive connections from one or two I/O threads; the workspace
//! builds with **zero external crates**, so this crate brings its own
//! floor: a raw syscall shim (`sys`: `epoll`/`eventfd`/`setsockopt` by
//! number through the C library's `syscall(2)` entry point), a readiness
//! [`Reactor`] (edge- or level-triggered interest, cross-thread
//! [`Waker`]), and the byte plumbing nonblocking sockets need
//! ([`drain_read`], the partial-write [`WriteBuf`], the jittered
//! fd-exhaustion [`AcceptBackoff`]). Connection state and deadlines are
//! left to the caller: the daemon and the chaos proxy each keep theirs in
//! std ordered maps, with a never-reused id as the epoll [`Token`] and
//! the earliest deadline as the poll timeout.
//!
//! Nothing in here knows about HTTP or the model — the crate is the
//! event loop floor; protocol state machines live with their protocol.
//!
//! The floor is also torturable: [`ChaosPlan`] compiles a seed into
//! per-connection byte-offset fault schedules (the `pmemflow-fault`
//! discipline applied to sockets), and [`ChaosProxy`], a reactor-based
//! loopback proxy, applies them from outside the process under test:
//! it fragments, stalls, half-closes, and RSTs real TCP connections,
//! byte-identically per seed.
//!
//! ```text
//!    Waker (eventfd) ──┐
//!                      ▼
//!   fds ──register──> epoll ──poll──> [Event{token, readable, ...}]
//!                      ▲
//!   caller's earliest deadline ── poll timeout
//! ```

mod buffer;
mod chaos;
mod reactor;
mod rng;
mod sys;

pub use buffer::{drain_read, is_fd_exhaustion, AcceptBackoff, ReadOutcome, WriteBuf};
pub use chaos::{ChaosPlan, ChaosProxy, ChaosSpec, ConnSchedule, FaultKind, ProxyConfig, Terminal};
pub use reactor::{Event, Interest, Reactor, Token, Waker};
