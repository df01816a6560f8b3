//! `pmemflow_serve` — a model-serving daemon for the PMEM workflow model.
//!
//! The workspace's simulations answer scheduling questions (which Table I
//! configuration, what runtime, what co-residency price) in milliseconds;
//! this crate turns that into a long-running service a cluster scheduler
//! can query over HTTP. Everything is hand-rolled on `std` — no external
//! dependencies anywhere in the workspace.
//!
//! # Endpoints
//!
//! | Endpoint             | Body                                             | Answer |
//! |----------------------|--------------------------------------------------|--------|
//! | `POST /v1/sweep`     | `{workload, ranks, stack?}`                      | all four Table I runs + best/worst |
//! | `POST /v1/recommend` | `{workload, ranks, stack?}`                      | rule-based + Table II + model-driven picks |
//! | `POST /v1/predict`   | `{workload, ranks, stack?, config?}`             | predicted solo runtime |
//! | `POST /v1/coschedule`| `{tenants: [{workload, ranks, config}], stack?}` | per-tenant co-run pricing |
//! | `GET /healthz`       | —                                                | liveness |
//! | `GET /metrics`       | —                                                | Prometheus-style text exposition |
//! | `POST /admin/shutdown` | —                                              | graceful drain |
//!
//! # Architecture
//!
//! Connections are multiplexed by an epoll readiness reactor
//! ([`pmemflow_net`]): one or two io threads (`--io-threads`) own every
//! socket, parse requests incrementally (the HTTP decoder is
//! chunking-invariant — kernel read boundaries cannot change what
//! parses), and never block. Slow clients therefore cost a connection
//! entry and a deadline entry, not a thread, so one core multiplexes
//! 10k+ connections. Every model query resolves through one
//! lock-guarded, deterministically-evicting LRU (`cache`) keyed by the
//! query's canonical form (`query`): the io thread answers inline a hit
//! and a miss that [`Backend::answer_ready`] answers without simulating
//! (the warm oracle holds it). Only a miss that must simulate
//! flows through a bounded admission queue to a fixed worker pool
//! (`server`). The worker probes the cache once more (an identical
//! request queued ahead of it may have filled it), and otherwise
//! computes the answer and caches it. Workers hand answers
//! back to the owning io thread through a completion mailbox + eventfd
//! wakeup; responses are written back in strict arrival order per
//! connection (pipelining-safe, byte-identical for any worker count).
//! Overload is shed at the queue with `429 + Retry-After`; per-request
//! deadlines answer `504`; shutdown drains gracefully. The answers
//! themselves come from the same [`pmemflow_cluster::Oracle`] the
//! campaign scheduler uses (`model`), so the daemon and the batch path
//! predict bit-identical numbers. Misses of one key on one io thread
//! park behind a single worker job, whose answer serves them all; a
//! copy queued from another io thread is answered by the worker's
//! cache probe once the first lands, and if two workers do race on a
//! key, the oracle's own first-wins memo keeps their bytes identical.
//!
//! # Fault tolerance
//!
//! A panicking computation is isolated, not fatal: the worker (or the
//! io thread, for a ready answer) catches it, answers that request
//! `500`, caches nothing, counts it in `panics_total` on `/metrics`,
//! and serves on. Mutexes that
//! a panic may have poisoned recover through
//! [`pmemflow_core::sync::lock_recover`]. On the transport side, a
//! per-request read deadline (armed at the first byte, so idle
//! keep-alive costs nothing) reaps slowloris clients with `408`; fd
//! exhaustion (`EMFILE`/`ENFILE`) pauses the acceptor with
//! exponential backoff instead of spinning or crashing
//! (`fd_exhausted_total` counts the strikes). The network side is tested
//! end to end over real loopback sockets (`tests/server.rs`): requests
//! split across reads, half-closes with answers still owed, resets
//! mid-request, slowloris clients.

mod cache;
mod http;
mod json;
mod metrics;
mod model;
mod query;
mod server;

pub use http::split_responses;
pub use metrics::Metrics;
pub use model::{Answer, Backend, ModelBackend};
pub use query::Query;
pub use server::{Server, ServerConfig};
