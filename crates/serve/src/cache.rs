//! LRU result cache.
//!
//! Keys are canonical query strings ([`crate::query::Query::canonical_key`]);
//! values are shared, immutable rendered responses. Eviction order is
//! **deterministic**: a cache at capacity evicts exactly its
//! least-recently-*used* entry, where both inserts and hits count as uses.
//!
//! The LRU is an intrusive doubly-linked list threaded through a slab, so
//! hit, insert and evict are all O(1) plus the `HashMap` lookup. The
//! daemon guards its one instance with one `Mutex` (`server`).

use std::collections::HashMap;

const NIL: usize = usize::MAX;

struct Entry<V> {
    key: String,
    value: V,
    prev: usize,
    next: usize,
}

/// Slab + index + recency list (head = most recent).
pub(crate) struct Lru<V> {
    capacity: usize,
    map: HashMap<String, usize>,
    slab: Vec<Entry<V>>,
    free: Vec<usize>,
    head: usize,
    tail: usize,
}

impl<V: Clone> Lru<V> {
    /// An empty cache of `capacity` entries (clamped to ≥ 1).
    pub fn new(capacity: usize) -> Self {
        Lru {
            capacity: capacity.max(1),
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

    /// Look `key` up, refreshing its recency on hit.
    pub fn get(&mut self, key: &str) -> Option<V> {
        let &i = self.map.get(key)?;
        self.unlink(i);
        self.push_front(i);
        Some(self.slab[i].value.clone())
    }

    /// Insert (or refresh) `key`; evict the LRU entry if over capacity.
    /// Returns the evicted key, if any.
    pub fn insert(&mut self, key: &str, value: V) -> Option<String> {
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

    /// Entries currently cached.
    pub fn len(&self) -> usize {
        self.map.len()
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn hit_miss_and_refresh() {
        let mut c: Lru<u32> = Lru::new(8);
        assert_eq!(c.get("a"), None);
        assert_eq!(c.insert("a", 1), None);
        assert_eq!(c.get("a"), Some(1));
        assert_eq!(c.insert("a", 2), None); // refresh, not duplicate
        assert_eq!(c.get("a"), Some(2));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn eviction_order_is_deterministic_lru() {
        // Capacity 3: use-order fully determines eviction.
        let mut c: Lru<u32> = Lru::new(3);
        c.insert("a", 1);
        c.insert("b", 2);
        c.insert("c", 3);
        assert_eq!(c.get("a"), Some(1)); // a is now most recent; b is LRU
        assert_eq!(c.insert("d", 4), Some("b".to_string()));
        assert_eq!(c.get("b"), None);
        assert_eq!(c.get("a"), Some(1));
        // Recency now (front to back): a, d, c -> inserting e evicts c.
        assert_eq!(c.insert("e", 5), Some("c".to_string()));
        assert_eq!(c.recency_order(), vec!["e", "a", "d"]);
        assert_eq!(c.len(), 3);
    }

    #[test]
    fn eviction_sequence_replays_identically() {
        // The same operation sequence must produce the same eviction
        // sequence on every run (no randomized hashing anywhere).
        let run = || {
            let mut c: Lru<usize> = Lru::new(16);
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
    fn capacity_is_clamped_to_one() {
        let mut c: Lru<u8> = Lru::new(0);
        c.insert("x", 1);
        assert_eq!(c.get("x"), Some(1));
        assert_eq!(c.insert("y", 2), Some("x".to_string()));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn hot_key_survives_eviction_pressure() {
        // Capacity 2: every cold insert evicts the least recently used
        // entry. Probing `hot` between cold inserts keeps it most recent,
        // so the cold keys are what get evicted: one eviction per cold
        // insert after the first, and never `hot`.
        let mut c: Lru<u32> = Lru::new(2);
        c.insert("hot", 0);
        let mut evicted = Vec::new();
        for i in 1..=8 {
            assert_eq!(c.get("hot"), Some(0), "hot evicted before cold {i}");
            evicted.extend(c.insert(&format!("cold-{i}"), i));
        }
        assert_eq!(c.get("hot"), Some(0));
        let expected: Vec<String> = (1..=7).map(|i| format!("cold-{i}")).collect();
        assert_eq!(evicted, expected);
        assert_eq!(c.len(), 2);
    }
}
