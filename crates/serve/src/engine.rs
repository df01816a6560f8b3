//! The caching / single-flight execution engine.
//!
//! Every request resolves through [`Engine::execute`], which consults the
//! sharded LRU first and otherwise elects exactly one **leader** per
//! canonical key to run the computation. Requests that arrive for a key
//! while its leader is still simulating are **coalesced**: their reply
//! channel is parked on the in-flight entry and the worker thread moves
//! on to the next job — no worker ever blocks waiting for another
//! worker's simulation. When the leader finishes it inserts the result
//! into the cache and fulfills every parked waiter.
//!
//! Every probe — the io threads' warm fast path and both miss-side
//! re-checks — is [`ShardedLru::get`], so a hit refreshes the key's
//! recency and a hot key survives eviction pressure from cold ones.
//!
//! The classic single-flight race (a follower misses the cache, then
//! finds no in-flight entry because the leader just finished) is closed
//! by ordering: the leader **inserts into its cache shard before**
//! removing the in-flight entry, so a follower that misses the in-flight
//! map re-probes and is guaranteed to find the value there.
//!
//! ## Panic isolation
//!
//! A panicking computation must not take the daemon down with it, and —
//! just as important — must not leave coalesced followers parked forever
//! on a flight that will never land. `execute` runs `compute` under
//! [`std::panic::catch_unwind`]; on panic it removes the in-flight entry,
//! delivers [`ComputeFailed`] to the leader's waiter *and every parked
//! follower*, caches nothing, and then resumes the unwind so the caller
//! (the worker supervisor) can count the panic and respawn.

use crate::cache::ShardedLru;
use crate::metrics::Metrics;
use pmemflow_core::sync::lock_recover;
use std::collections::HashMap;
use std::sync::atomic::Ordering::Relaxed;
use std::sync::{Arc, Mutex};

/// Where a reply came from (reported via the `x-pmemflow-cache` header;
/// response *bodies* are source-independent).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Source {
    /// Cache miss: this request's leader ran the computation.
    Computed,
    /// Served from the result cache.
    CacheHit,
    /// Coalesced onto another request's in-flight computation.
    Coalesced,
}

impl Source {
    /// Header value.
    pub fn label(self) -> &'static str {
        match self {
            Source::Computed => "miss",
            Source::CacheHit => "hit",
            Source::Coalesced => "coalesced",
        }
    }
}

/// The in-flight leader for this key panicked instead of producing a
/// value. Nothing was cached; retrying the request elects a new leader.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct ComputeFailed;

/// A parked reply callback: invoked exactly once with the outcome and its
/// source when the flight lands — `Ok(value)` on success,
/// `Err(ComputeFailed)` if the leader panicked. Callers that route the
/// outcome somewhere that may be gone (deadline expired, client hung up)
/// make the callback tolerate that — the engine never checks.
///
/// A callback rather than a channel so the delivery target is the
/// caller's business: the reactor's io threads enqueue a completion and
/// ring an eventfd waker; tests wrap an `mpsc` sender.
pub type Waiter<V> = Box<dyn FnOnce(Result<V, ComputeFailed>, Source) + Send>;

/// Cache + single-flight front over an arbitrary computation.
pub(crate) struct Engine<V: Clone + Send + Sync + 'static> {
    cache: ShardedLru<V>,
    inflight: Mutex<HashMap<String, Vec<Waiter<V>>>>,
    metrics: Arc<Metrics>,
}

impl<V: Clone + Send + Sync + 'static> Engine<V> {
    /// An engine with a result cache of `capacity` entries over `shards`
    /// shards, reporting into `metrics`.
    pub fn new(capacity: usize, shards: usize, metrics: Arc<Metrics>) -> Engine<V> {
        Engine {
            cache: ShardedLru::new(capacity, shards),
            inflight: Mutex::new(HashMap::new()),
            metrics,
        }
    }

    /// Resolve `key`, replying through `waiter` exactly once — either
    /// inline (cache hit, or this call computed as leader) or later, when
    /// the in-flight leader this call coalesced onto completes or
    /// panics. The caller's receive side decides how long it is willing
    /// to wait.
    ///
    /// `compute` runs at most once per key across all concurrent callers;
    /// it must be deterministic in `key` for the cache to be sound. If it
    /// panics, every waiter (leader and followers) receives
    /// [`ComputeFailed`] and the panic is propagated to this call's
    /// caller via [`std::panic::resume_unwind`].
    pub fn execute<F: FnOnce() -> V>(&self, key: &str, waiter: Waiter<V>, compute: F) {
        if let Some(v) = self.cache.get(key) {
            self.metrics.cache_hits.fetch_add(1, Relaxed);
            waiter(Ok(v), Source::CacheHit);
            return;
        }
        {
            let mut inflight = lock_recover(&self.inflight);
            if let Some(waiters) = inflight.get_mut(key) {
                self.metrics.coalesced.fetch_add(1, Relaxed);
                waiters.push(waiter);
                return;
            }
            // The leader may have finished between our probe and this
            // lock: its cache insert happens-before the in-flight entry's
            // removal, so a second probe is conclusive.
            if let Some(v) = self.cache.get(key) {
                self.metrics.cache_hits.fetch_add(1, Relaxed);
                waiter(Ok(v), Source::CacheHit);
                return;
            }
            inflight.insert(key.to_string(), Vec::new());
        }
        // This call is the leader. Compute without holding any lock.
        // AssertUnwindSafe: on panic the result is discarded, nothing is
        // cached, and the engine's own mutexes are not held across
        // `compute` — no engine state can be observed torn.
        self.metrics.cache_misses.fetch_add(1, Relaxed);
        match std::panic::catch_unwind(std::panic::AssertUnwindSafe(compute)) {
            Ok(value) => {
                // Insert strictly before the in-flight entry below is
                // removed: that is what makes the follower's second
                // probe conclusive.
                if self.cache.insert(key, value.clone()).is_some() {
                    self.metrics.evictions.fetch_add(1, Relaxed);
                }
                let waiters = lock_recover(&self.inflight).remove(key).unwrap_or_default();
                waiter(Ok(value.clone()), Source::Computed);
                for w in waiters {
                    w(Ok(value.clone()), Source::Coalesced);
                }
            }
            Err(payload) => {
                // Land the flight with an error so no follower hangs,
                // then let the panic continue into the supervisor.
                self.metrics.panics.fetch_add(1, Relaxed);
                let waiters = lock_recover(&self.inflight).remove(key).unwrap_or_default();
                waiter(Err(ComputeFailed), Source::Computed);
                for w in waiters {
                    w(Err(ComputeFailed), Source::Coalesced);
                }
                std::panic::resume_unwind(payload);
            }
        }
    }

    /// The warm fast path: answer from the cache without electing a
    /// leader, queueing, or parking anything. The reactor's io threads
    /// call this before paying for a worker round-trip; a miss here is
    /// not counted (only a leading `execute` records a miss, so the
    /// hit/miss ledger still sums to one entry per computation).
    pub fn try_cached(&self, key: &str) -> Option<V> {
        let v = self.cache.get(key)?;
        self.metrics.cache_hits.fetch_add(1, Relaxed);
        Some(v)
    }

    /// Entries currently cached.
    pub fn cache_len(&self) -> usize {
        self.cache.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use std::sync::mpsc::{channel, Receiver};
    use std::time::Duration;

    fn metrics() -> Arc<Metrics> {
        Arc::new(Metrics::default())
    }

    /// A channel-backed waiter, as the pre-reactor daemon used.
    #[allow(clippy::type_complexity)]
    fn waiter<V: Send + 'static>() -> (Waiter<V>, Receiver<(Result<V, ComputeFailed>, Source)>) {
        let (tx, rx) = channel();
        (
            Box::new(move |result, source| {
                let _ = tx.send((result, source));
            }),
            rx,
        )
    }

    #[test]
    fn hit_after_compute_and_identical_bytes() {
        let m = metrics();
        let e: Engine<String> = Engine::new(8, 1, m.clone());
        let (tx, rx) = waiter();
        e.execute("k", tx, || "body".to_string());
        let (cold, src) = rx.recv().unwrap();
        assert_eq!(src, Source::Computed);
        let (tx, rx) = waiter();
        e.execute("k", tx, || unreachable!("cached key must not recompute"));
        let (warm, src) = rx.recv().unwrap();
        assert_eq!(src, Source::CacheHit);
        assert_eq!(cold, warm, "cached response must be byte-identical");
        assert_eq!(m.cache_hits.load(Relaxed), 1);
        assert_eq!(m.cache_misses.load(Relaxed), 1);
    }

    #[test]
    fn single_flight_runs_compute_once_for_concurrent_same_key() {
        // N threads race on one key; the computation stalls until every
        // thread has had a chance to enter execute(). Exactly one compute
        // may run, and every thread must still get the value.
        const N: usize = 4;
        let m = metrics();
        let e: Arc<Engine<String>> = Arc::new(Engine::new(8, 1, m.clone()));
        let computes = Arc::new(AtomicUsize::new(0));
        let entered = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..N)
            .map(|_| {
                let (e, computes, entered) = (e.clone(), computes.clone(), entered.clone());
                std::thread::spawn(move || {
                    let (tx, rx) = waiter();
                    entered.fetch_add(1, Relaxed);
                    e.execute("shared", tx, || {
                        // Hold the flight open until all threads arrived
                        // (they either coalesce or, post-completion,
                        // hit the cache — never recompute).
                        let deadline = std::time::Instant::now() + Duration::from_secs(5);
                        while entered.load(Relaxed) < N && std::time::Instant::now() < deadline {
                            std::thread::yield_now();
                        }
                        computes.fetch_add(1, Relaxed);
                        "value".to_string()
                    });
                    rx.recv_timeout(Duration::from_secs(10)).unwrap()
                })
            })
            .collect();
        for h in handles {
            let (v, _) = h.join().unwrap();
            assert_eq!(v.unwrap(), "value");
        }
        assert_eq!(computes.load(Relaxed), 1, "same key simulated twice");
        assert_eq!(m.cache_misses.load(Relaxed), 1);
        assert_eq!(
            m.cache_hits.load(Relaxed) + m.coalesced.load(Relaxed),
            (N - 1) as u64
        );
    }

    #[test]
    fn distinct_keys_do_not_coalesce() {
        let m = metrics();
        let e: Engine<u32> = Engine::new(8, 2, m.clone());
        for (i, key) in ["a", "b", "c"].iter().enumerate() {
            let (tx, rx) = waiter();
            e.execute(key, tx, || i as u32);
            assert_eq!(rx.recv().unwrap().0.unwrap(), i as u32);
        }
        assert_eq!(m.cache_misses.load(Relaxed), 3);
        assert_eq!(m.coalesced.load(Relaxed), 0);
        assert_eq!(e.cache_len(), 3);
    }

    #[test]
    fn evictions_are_counted() {
        let m = metrics();
        let e: Engine<u32> = Engine::new(2, 1, m.clone());
        for (i, key) in ["a", "b", "c", "d"].iter().enumerate() {
            let (tx, _rx) = waiter();
            e.execute(key, tx, || i as u32);
        }
        assert_eq!(m.evictions.load(Relaxed), 2);
        assert_eq!(e.cache_len(), 2);
    }

    #[test]
    fn abandoned_waiters_do_not_poison_the_flight() {
        let e: Engine<u32> = Engine::new(8, 1, metrics());
        let (tx, rx) = waiter();
        drop(rx); // client gave up before the result arrived
        e.execute("k", tx, || 7);
        let (tx, rx) = waiter();
        e.execute("k", tx, || unreachable!());
        assert_eq!(rx.recv().unwrap(), (Ok(7), Source::CacheHit));
    }

    #[test]
    fn hot_key_survives_eviction_pressure() {
        // Capacity 2, one shard: every cold insert evicts the least
        // recently used entry. Probing `hot` between cold inserts keeps
        // it most recent, so the cold keys are what get evicted.
        let m = metrics();
        let e: Engine<u32> = Engine::new(2, 1, m.clone());
        let computes = AtomicUsize::new(0);
        let (tx, _rx) = waiter();
        e.execute("hot", tx, || {
            computes.fetch_add(1, Relaxed);
            0
        });
        for i in 1..=8 {
            assert_eq!(e.try_cached("hot"), Some(0), "hot evicted before cold {i}");
            let (tx, _rx) = waiter();
            e.execute(&format!("cold-{i}"), tx, || i);
        }
        let (tx, rx) = waiter();
        e.execute("hot", tx, || {
            computes.fetch_add(1, Relaxed);
            0
        });
        assert_eq!(rx.recv().unwrap(), (Ok(0), Source::CacheHit));
        assert_eq!(computes.load(Relaxed), 1, "hot must never recompute");
        assert_eq!(m.evictions.load(Relaxed), 7);
    }

    #[test]
    fn panicking_leader_fails_all_waiters_and_caches_nothing() {
        let m = metrics();
        let e: Arc<Engine<u32>> = Arc::new(Engine::new(8, 1, m.clone()));
        let entered = Arc::new(AtomicUsize::new(0));
        // Leader thread: panics mid-compute after the follower coalesced.
        let (leader_tx, leader_rx) = waiter();
        let leader = {
            let (e, entered) = (e.clone(), entered.clone());
            std::thread::spawn(move || {
                e.execute("doomed", leader_tx, || {
                    entered.store(1, Relaxed);
                    let deadline = std::time::Instant::now() + Duration::from_secs(5);
                    while entered.load(Relaxed) < 2 && std::time::Instant::now() < deadline {
                        std::thread::yield_now();
                    }
                    panic!("injected fault");
                });
            })
        };
        while entered.load(Relaxed) < 1 {
            std::thread::yield_now();
        }
        let (follower_tx, follower_rx) = waiter();
        e.execute("doomed", follower_tx, || unreachable!("must coalesce"));
        entered.store(2, Relaxed);
        // The panic propagates out of execute() into the leader thread...
        assert!(leader.join().is_err(), "panic must resume past execute()");
        // ...but both waiters got a definite error instead of hanging.
        let (lv, lsrc) = leader_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((lv, lsrc), (Err(ComputeFailed), Source::Computed));
        let (fv, fsrc) = follower_rx.recv_timeout(Duration::from_secs(5)).unwrap();
        assert_eq!((fv, fsrc), (Err(ComputeFailed), Source::Coalesced));
        assert_eq!(m.panics.load(Relaxed), 1);
        assert_eq!(e.cache_len(), 0, "failed computes must not be cached");
        // The key is fully released: a retry elects a fresh leader.
        let (tx, rx) = waiter();
        e.execute("doomed", tx, || 9);
        assert_eq!(rx.recv().unwrap(), (Ok(9), Source::Computed));
    }
}
