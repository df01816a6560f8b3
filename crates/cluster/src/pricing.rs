//! Campaign-local incremental co-residency pricing.
//!
//! The campaign loop re-prices a node only when its resident multiset
//! changes, but the inherited path paid heavily for every one of those
//! calls: it rebuilt a `Vec<TenantKey>` (one `String` clone per resident),
//! took the shared [`Oracle`]'s mutex, and compared whole key vectors
//! inside a `BTreeMap` — per admission, completion, and crash. At
//! thousand-node scale that bookkeeping dwarfs the (memoized) device
//! simulations themselves. `BENCH_cluster_scale.json` caught the fallout:
//! at re-price fraction 0.1 the "incremental" path ran at 0.91× of a
//! full re-price, because even its cache *hits* paid a string-comparison
//! sort, a fresh canonical `Vec<u32>` allocation, and a vector hash per
//! call.
//!
//! [`PriceCache`] is the per-stream hot path in front of the oracle. It
//! interns each tenant identity to a dense `u32` local to the stream,
//! takes the identity's solo baseline from [`Oracle::solo_runtime`], and
//! mirrors every priced multiset into an unsynchronized local map, so a
//! repeat membership (by far the common case under churn) costs one
//! stable sort of *integer ranks* (`id → canonical ordinal`, no string
//! compares), a slice-borrow hash lookup against `Arc<[u32]>` keys, and
//! zero allocation and zero locking. The oracle stays the one shared
//! memo of multiset → slowdowns: a local miss asks it, and concurrent
//! streams (`--jobs N`) share every set another stream already priced.
//!
//! **Bit-identity contract.** On a miss the cache calls
//! [`Oracle::corun_slowdowns`] with the keys already in canonical order,
//! so the oracle's own canonicalization is the identity permutation and
//! the slowdowns come back exactly as a node-order call to the oracle
//! would have produced them (the co-simulation itself is memoized per
//! multiset via `execute_coscheduled` with baselines). The rank sort is
//! stable and ranks order exactly as `TenantKey`s do, so the permutation
//! — and the un-permute back to node order — matches the inherited
//! string sort case for case, including duplicate identities. Under
//! `cfg(test)` the campaign's `Repricer` checks every reprice against
//! [`Oracle::corun_slowdowns`] on the same residents, bit for bit, so
//! every campaign test exercises this contract.

use crate::predict::{Oracle, TenantKey};
use pmemflow_core::{ExecError, SchedConfig};
use std::collections::HashMap;
use std::sync::Arc;

/// Per-stream interning and memoization front for the oracle.
#[derive(Default)]
pub(crate) struct PriceCache {
    /// Identity → stream-local id.
    ids: HashMap<TenantKey, u32>,
    /// `keys[id]` is the identity of tenant `id`.
    keys: Vec<TenantKey>,
    /// `solos[id]` is the solo baseline of tenant `id`.
    solos: Vec<f64>,
    /// Ids sorted by key (re-sorted on intern, which is rare: once per
    /// distinct identity per stream).
    by_key: Vec<u32>,
    /// Id → canonical rank among interned ids. Ranks order exactly as
    /// `TenantKey`s do, so sorting by rank equals sorting by key — in
    /// integer compares.
    rank: Vec<u32>,
    /// Canonically sorted id multiset → per-tenant slowdowns in the
    /// same canonical order.
    sets: HashMap<Arc<[u32]>, Arc<[f64]>>,
    /// Scratch permutation (node position order), reused across calls.
    order: Vec<u32>,
    /// Scratch canonical id buffer, reused across calls.
    canonical: Vec<u32>,
}

impl PriceCache {
    /// Intern a tenant identity, fetching its solo baseline from the
    /// oracle on first sight. Returns the stream-local dense id.
    pub(crate) fn intern(
        &mut self,
        oracle: &Oracle,
        workflow: &str,
        ranks: usize,
        config: SchedConfig,
    ) -> u32 {
        let key = TenantKey::new(workflow, ranks, config);
        if let Some(&id) = self.ids.get(&key) {
            return id;
        }
        let id = self.keys.len() as u32;
        let keys = &self.keys;
        let at = self.by_key.partition_point(|&i| keys[i as usize] < key);
        self.by_key.insert(at, id);
        self.solos
            .push(oracle.solo_runtime(workflow, ranks, config));
        self.ids.insert(key.clone(), id);
        self.keys.push(key);
        self.rank.push(0);
        for (rank, &i) in self.by_key.iter().enumerate() {
            self.rank[i as usize] = rank as u32;
        }
        id
    }

    /// The cached solo baseline of an interned tenant.
    pub(crate) fn solo(&self, id: u32) -> f64 {
        self.solos[id as usize]
    }

    /// Price the resident multiset `ids` (node order), writing each
    /// tenant's slowdown into `out` at its node position. Values are
    /// bitwise-identical to `oracle.corun_slowdowns` over the same
    /// residents in the same order (see module docs).
    pub(crate) fn price(
        &mut self,
        oracle: &Oracle,
        ids: &[u32],
        out: &mut Vec<f64>,
    ) -> Result<(), ExecError> {
        out.clear();
        if ids.len() <= 1 {
            out.resize(ids.len(), 1.0);
            return Ok(());
        }
        // Canonical order by integer rank: stable, and rank order equals
        // `TenantKey` order, so this is the same permutation the oracle's
        // internal canonicalization would produce.
        self.order.clear();
        self.order.extend(0..ids.len() as u32);
        let rank = &self.rank;
        self.order.sort_by_key(|&i| rank[ids[i as usize] as usize]);
        self.canonical.clear();
        self.canonical
            .extend(self.order.iter().map(|&i| ids[i as usize]));
        let slowdowns = match self.sets.get(self.canonical.as_slice()) {
            Some(s) => s.clone(),
            None => {
                // Keys go to the oracle already canonically sorted, so
                // its internal permutation is the identity and the values
                // come back in canonical order.
                let keys: Vec<TenantKey> = self
                    .canonical
                    .iter()
                    .map(|&id| self.keys[id as usize].clone())
                    .collect();
                let s: Arc<[f64]> = oracle.corun_slowdowns(&keys)?.into();
                self.sets
                    .insert(self.canonical.as_slice().into(), s.clone());
                s
            }
        };
        out.resize(ids.len(), 0.0);
        for (canon_pos, &node_pos) in self.order.iter().enumerate() {
            out[node_pos as usize] = slowdowns[canon_pos];
        }
        Ok(())
    }

    /// Distinct multisets priced through this cache (diagnostics).
    #[cfg(test)]
    pub(crate) fn sets_priced(&self) -> usize {
        self.sets.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemflow_core::ExecutionParams;
    use pmemflow_des::rng::SplitMix64;
    use pmemflow_workloads::Family;

    fn tiny_alphabet() -> Vec<(String, usize, pmemflow_workloads::WorkflowSpec)> {
        [(Family::Micro64MB, 8usize), (Family::Micro2KB, 8usize)]
            .into_iter()
            .map(|(f, r)| (f.name().to_string(), r, f.build(r)))
            .collect()
    }

    fn tiny_oracle() -> Oracle {
        Oracle::build(&tiny_alphabet(), &ExecutionParams::default(), 2).unwrap()
    }

    #[test]
    fn interning_is_stable_and_solo_matches_oracle() {
        let oracle = tiny_oracle();
        let mut cache = PriceCache::default();
        let a = cache.intern(&oracle, "micro-64MB", 8, SchedConfig::S_LOC_W);
        let b = cache.intern(&oracle, "micro-2KB", 8, SchedConfig::P_LOC_R);
        assert_ne!(a, b);
        assert_eq!(
            cache.intern(&oracle, "micro-64MB", 8, SchedConfig::S_LOC_W),
            a
        );
        assert_eq!(
            cache.solo(a).to_bits(),
            oracle
                .solo_runtime("micro-64MB", 8, SchedConfig::S_LOC_W)
                .to_bits()
        );
    }

    #[test]
    fn streams_interning_in_different_orders_price_identically() {
        // Ids are stream-local, so two streams that meet the same
        // identities in opposite orders number them differently; the
        // prices and the oracle's one memo entry are shared all the same.
        let oracle = tiny_oracle();
        let mut one = PriceCache::default();
        let mut two = PriceCache::default();
        let a1 = one.intern(&oracle, "micro-64MB", 8, SchedConfig::S_LOC_W);
        let b1 = one.intern(&oracle, "micro-2KB", 8, SchedConfig::P_LOC_R);
        let b2 = two.intern(&oracle, "micro-2KB", 8, SchedConfig::P_LOC_R);
        let a2 = two.intern(&oracle, "micro-64MB", 8, SchedConfig::S_LOC_W);
        assert_eq!((a1, b1), (b2, a2), "ids follow each stream's first sight");
        assert_eq!(one.solo(a1).to_bits(), two.solo(a2).to_bits());
        let (mut out1, mut out2) = (Vec::new(), Vec::new());
        one.price(&oracle, &[a1, b1], &mut out1).unwrap();
        two.price(&oracle, &[a2, b2], &mut out2).unwrap();
        assert_eq!(
            out1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            out2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(oracle.corun_cache_len(), 1, "one multiset, one simulation");
    }

    #[test]
    fn priced_sets_match_the_oracle_bitwise_in_node_order() {
        let oracle = tiny_oracle();
        let mut cache = PriceCache::default();
        let a = cache.intern(&oracle, "micro-64MB", 8, SchedConfig::S_LOC_W);
        let b = cache.intern(&oracle, "micro-2KB", 8, SchedConfig::P_LOC_R);
        let ka = TenantKey::new("micro-64MB", 8, SchedConfig::S_LOC_W);
        let kb = TenantKey::new("micro-2KB", 8, SchedConfig::P_LOC_R);
        let mut out = Vec::new();
        // Both node orders of the same multiset: one simulation, values
        // bitwise equal to the oracle's answer for that exact order.
        for (ids, keys) in [
            (vec![a, b], vec![ka.clone(), kb.clone()]),
            (vec![b, a], vec![kb.clone(), ka.clone()]),
        ] {
            cache.price(&oracle, &ids, &mut out).unwrap();
            let want = oracle.corun_slowdowns(&keys).unwrap();
            assert_eq!(out.len(), want.len());
            for (got, want) in out.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
        assert_eq!(cache.sets_priced(), 1, "one multiset, one cache entry");
    }

    #[test]
    fn singletons_and_empty_sets_never_simulate() {
        let oracle = tiny_oracle();
        let mut cache = PriceCache::default();
        let a = cache.intern(&oracle, "micro-64MB", 8, SchedConfig::S_LOC_W);
        let mut out = vec![7.0];
        cache.price(&oracle, &[], &mut out).unwrap();
        assert!(out.is_empty());
        cache.price(&oracle, &[a], &mut out).unwrap();
        assert_eq!(out, vec![1.0]);
        assert_eq!(cache.sets_priced(), 0);
    }

    /// Randomized admission/completion churn: every priced membership
    /// must match a fresh reprice through the oracle, bit for bit.
    #[test]
    fn randomized_churn_matches_oracle() {
        let oracle = tiny_oracle();
        let mut cache = PriceCache::default();
        let idents = [
            ("micro-64MB", SchedConfig::S_LOC_W),
            ("micro-64MB", SchedConfig::P_LOC_R),
            ("micro-2KB", SchedConfig::S_LOC_W),
            ("micro-2KB", SchedConfig::P_LOC_W),
        ];
        let mut rng = SplitMix64::new(0xB00C_0001);
        let mut node: Vec<(u32, TenantKey)> = Vec::new();
        let mut out = Vec::new();
        for _ in 0..200 {
            // Admit, complete, or crash (drain) — then reprice.
            match rng.range_u64(0, 3) {
                0 if node.len() < 3 => {
                    let (wf, cfg) = idents[rng.range_usize(0, idents.len())];
                    let id = cache.intern(&oracle, wf, 8, cfg);
                    node.push((id, TenantKey::new(wf, 8, cfg)));
                }
                1 if !node.is_empty() => {
                    let at = rng.range_usize(0, node.len());
                    node.remove(at);
                }
                2 => node.clear(),
                _ => {}
            }
            let ids: Vec<u32> = node.iter().map(|(id, _)| *id).collect();
            let keys: Vec<TenantKey> = node.iter().map(|(_, k)| k.clone()).collect();
            cache.price(&oracle, &ids, &mut out).unwrap();
            let want = oracle.corun_slowdowns(&keys).unwrap();
            assert_eq!(out.len(), want.len());
            for (got, want) in out.iter().zip(&want) {
                assert_eq!(got.to_bits(), want.to_bits());
            }
        }
    }
}
