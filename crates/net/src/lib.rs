//! `pmemflow_net` — a std-only epoll readiness reactor.
//!
//! The serving daemon (`pmemflow_serve`) needs to multiplex thousands
//! of keep-alive connections from one or two I/O threads; the workspace
//! builds with **zero external crates**, so this crate brings its own
//! floor: a raw syscall shim (`sys`: `epoll`/`eventfd` by
//! number through the C library's `syscall(2)` entry point), a readiness
//! [`Reactor`] (edge- or level-triggered interest, cross-thread
//! [`Waker`]), and the byte plumbing nonblocking sockets need
//! ([`drain_read`], the partial-write [`WriteBuf`], the
//! fd-exhaustion [`AcceptBackoff`]). Connection state and deadlines are
//! left to the caller: the daemon keeps them in std ordered maps, with
//! a never-reused id as the epoll [`Token`] and the earliest deadline
//! as the poll timeout.
//!
//! Nothing in here knows about HTTP or the model — the crate is the
//! event loop floor; protocol state machines live with their protocol.
//!
//! ```text
//!    Waker (eventfd) ──┐
//!                      ▼
//!   fds ──register──> epoll ──poll──> [Event{token, readable, ...}]
//!                      ▲
//!   caller's earliest deadline ── poll timeout
//! ```

mod buffer;
mod reactor;
mod sys;

pub use buffer::{drain_read, is_fd_exhaustion, AcceptBackoff, ReadOutcome, WriteBuf};
pub use reactor::{Event, Interest, Reactor, Token, Waker};
