//! Sharded LRU result cache.
//!
//! Keys are canonical query strings ([`crate::query::Query::canonical_key`]);
//! values are shared, immutable rendered responses. The key is hashed
//! with FNV-1a — a fixed, seed-free hash, so the key→shard assignment is
//! identical across processes and runs — and each shard is an
//! independently locked LRU with **deterministic eviction order**: a
//! shard at capacity evicts exactly its least-recently-*used* entry,
//! where both inserts and hits count as uses.
//!
//! The LRU itself is an intrusive doubly-linked list threaded through a
//! slab, so hit, insert and evict are all O(1) plus the `HashMap` lookup.

use pmemflow_core::sync::lock_recover;
use pmemflow_iostack::fnv1a;
use std::collections::HashMap;
use std::sync::Mutex;

const NIL: usize = usize::MAX;

struct Entry<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

/// One LRU shard: slab + index + recency list (head = most recent).
struct Shard<V> {
    capacity: usize,
    map: HashMap<String, usize>,
    slab: Vec<Entry<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<V: Clone> Shard<V> {
    fn new(capacity: usize) -> Self {
        Shard {
            capacity,
            map: HashMap::new(),
            slab: Vec::new(),
            free: Vec::new(),
            head: NIL,
            tail: NIL,
        }
    }

    fn unlink(&mut self, i: usize) {
        let (prev, next) = (self.slab[i].prev, self.slab[i].next);
        if prev != NIL {
            self.slab[prev].next = next;
        } else {
            self.head = next;
        }
        if next != NIL {
            self.slab[next].prev = prev;
        } else {
            self.tail = prev;
        }
    }

    fn push_front(&mut self, i: usize) {
        self.slab[i].prev = NIL;
        self.slab[i].next = self.head;
        if self.head != NIL {
            self.slab[self.head].prev = i;
        }
        self.head = i;
        if self.tail == NIL {
            self.tail = i;
        }
    }

    fn get(&mut self, key: &str) -> Option<V> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.slab[i].value.clone())
    }

    /// Insert (or refresh) `key`; evict the LRU entry if over capacity.
    /// Returns the evicted key, if any.
    fn insert(&mut self, key: &str, value: V) -> Option<String> {
        if let Some(&i) = self.map.get(key) {
            self.slab[i].value = value;
            self.unlink(i);
            self.push_front(i);
            return None;
        }
        let entry = Entry {
            key: key.to_string(),
            value,
            prev: NIL,
            next: NIL,
        };
        let i = match self.free.pop() {
            Some(i) => {
                self.slab[i] = entry;
                i
            }
            None => {
                self.slab.push(entry);
                self.slab.len() - 1
            }
        };
        self.map.insert(key.to_string(), i);
        self.push_front(i);
        if self.map.len() > self.capacity {
            let victim = self.tail;
            debug_assert!(victim != NIL && victim != i);
            self.unlink(victim);
            let evicted = std::mem::take(&mut self.slab[victim].key);
            self.map.remove(&evicted);
            self.free.push(victim);
            return Some(evicted);
        }
        None
    }

    /// Keys from most- to least-recently used (test view).
    #[cfg(test)]
    fn recency_order(&self) -> Vec<String> {
        let mut keys = Vec::with_capacity(self.map.len());
        let mut i = self.head;
        while i != NIL {
            keys.push(self.slab[i].key.clone());
            i = self.slab[i].next;
        }
        keys
    }
}

/// A sharded LRU with a global capacity split evenly across shards.
pub struct ShardedLru<V> {
    shards: Vec<Mutex<Shard<V>>>,
}

impl<V: Clone> ShardedLru<V> {
    /// `capacity` total entries (clamped to ≥ 1) spread over `shards`
    /// independently locked shards (clamped to 1..=capacity). The first
    /// `capacity % shards` shards hold one entry more than the rest.
    pub fn new(capacity: usize, shards: usize) -> ShardedLru<V> {
        let capacity = capacity.max(1);
        let shards = shards.clamp(1, capacity);
        ShardedLru {
            shards: (0..shards)
                .map(|i| {
                    let extra = usize::from(i < capacity % shards);
                    Mutex::new(Shard::new(capacity / shards + extra))
                })
                .collect(),
        }
    }

    fn shard(&self, key: &str) -> &Mutex<Shard<V>> {
        &self.shards[(fnv1a(key.as_bytes()) % self.shards.len() as u64) as usize]
    }

    /// Look `key` up, refreshing its recency on hit.
    pub fn get(&self, key: &str) -> Option<V> {
        lock_recover(self.shard(key)).get(key)
    }

    /// Insert `key`, possibly evicting its shard's LRU entry (returned).
    pub fn insert(&self, key: &str, value: V) -> Option<String> {
        lock_recover(self.shard(key)).insert(key, value)
    }

    /// Entries currently cached, across all shards.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| lock_recover(s).map.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_refresh() {
        let c: ShardedLru<u32> = ShardedLru::new(8, 1);
        assert_eq!(c.get("a"), None);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.insert("a", 2), None); // refresh, not duplicate
        assert_eq!(c.get("a"), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_order_is_deterministic_lru() {
        // Single shard, capacity 3: use-order fully determines eviction.
        let c: ShardedLru<u32> = ShardedLru::new(3, 1);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        assert_eq!(c.get("a"), Some(1)); // a is now most recent; b is LRU
        assert_eq!(c.insert("d", 4), Some("b".to_string()));
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some(1));
        // Recency now (front to back): a, d, c -> inserting e evicts c.
        assert_eq!(c.insert("e", 5), Some("c".to_string()));
        assert_eq!(
            lock_recover(&c.shards[0]).recency_order(),
            vec!["e", "a", "d"]
        );
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn eviction_sequence_replays_identically() {
        // The same operation sequence must produce the same eviction
        // sequence on every run (no randomized hashing anywhere).
        let run = || {
            let c: ShardedLru<usize> = ShardedLru::new(16, 4);
            let mut evictions = Vec::new();
            for i in 0..200 {
                let key = format!("key-{}", i % 37);
                if i % 3 == 0 {
                    c.get(&key);
                }
                if let Some(victim) = c.insert(&key, i) {
                    evictions.push(victim);
                }
            }
            evictions
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert!(!a.is_empty(), "sequence should overflow the cache");
    }

    #[test]
    fn shards_and_capacity_are_clamped() {
        let c: ShardedLru<u8> = ShardedLru::new(2, 64);
        assert!(c.shards.len() <= 2, "more shards than capacity");
        let c: ShardedLru<u8> = ShardedLru::new(0, 0);
        assert_eq!(c.shards.len(), 1);
        c.insert("x", 1);
        assert_eq!(c.get("x"), Some(1)); // capacity clamped to 1
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn capacity_splits_across_shards() {
        let c: ShardedLru<usize> = ShardedLru::new(64, 8);
        for i in 0..64 {
            c.insert(&format!("k{i}"), i);
        }
        // Uneven hashing may evict in hot shards, but the cache can never
        // exceed its global capacity.
        assert!(c.len() <= 64);
        assert!(c.len() >= 32, "suspiciously many evictions: {}", c.len());
    }

    #[test]
    fn uneven_capacity_never_exceeds_the_global_capacity() {
        // 10 entries over 8 shards: two shards of 2, six of 1.
        let c: ShardedLru<usize> = ShardedLru::new(10, 8);
        let split: Vec<usize> = c.shards.iter().map(|s| lock_recover(s).capacity).collect();
        assert_eq!(split, vec![2, 2, 1, 1, 1, 1, 1, 1]);
        for i in 0..500 {
            c.insert(&format!("k{i}"), i);
        }
        assert!(c.len() <= 10, "holds {} entries", c.len());
    }
}
