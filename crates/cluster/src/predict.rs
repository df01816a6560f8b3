//! Prediction services the queue policies and the serving daemon share.
//!
//! Every workload is one of the paper's [`Family`]s at some rank count,
//! and the oracle keys its tables by that `(family, ranks)` pair; a
//! tenant adds its Table I configuration ([`TenantKey`]). Two caches,
//! both deterministic:
//!
//! * **Solo sweeps** — for every workload the oracle knows, all four
//!   Table I configurations are simulated (in parallel over
//!   [`pmemflow_core::map_ordered`] when prebuilt with [`Oracle::build`],
//!   or on demand via [`Oracle::ensure`]) together with the Table II
//!   characterization and the configuration it recommends. Callers read
//!   the model-driven best configuration, per-config runtime predictions
//!   (the EASY-backfill reservation estimate), the Table II pick, and
//!   the [`WorkflowProfile`] behind it.
//! * **Co-run pricing** — the predicted per-tenant outcome of every
//!   candidate resident set, from
//!   [`execute_coscheduled`] over the real device model. The oracle
//!   interns each [`TenantKey`] once to a dense id with its solo baseline
//!   and its rank in key order, and memoizes co-runs on the rank-sorted
//!   id multiset, so each distinct co-residency is simulated exactly once
//!   per oracle. The campaign prices resident ids directly;
//!   [`Oracle::corun_slowdowns`] and [`Oracle::corun_breakdown`] intern
//!   their keys and take the same path.
//!
//! The oracle is the **single prediction path** of the workspace: the
//! campaign event loop prebuilds it over the arrival stream's alphabet,
//! and `pmemflow_serve` populates it lazily as queries arrive. Both see
//! bit-identical predictions for the same inputs.
//!
//! # Concurrency
//!
//! Both caches and the tenant table live in one `Mutex`. It is held only
//! to intern, look up or insert, never across a simulation: a miss
//! looks up, simulates unlocked, then inserts first-wins. Every value is
//! a pure function of its key, so two threads that race on one miss
//! simulate the same bytes and whichever inserts first is what everyone
//! reads. Tenant ids follow first sight and so may differ between runs;
//! only rank order, which is key order, reaches a simulation.

use pmemflow_core::sync::lock_recover;
use pmemflow_core::{
    check_fit, execute_coscheduled, map_ordered, sweep, ConfigSweep, ExecError, ExecutionParams,
    SchedConfig, Tenant, TenantBreakdown,
};
use pmemflow_sched::{characterize, classify, recommend, WorkflowProfile};
use pmemflow_workloads::{Family, WorkflowSpec};
use std::cmp::Ordering;
use std::collections::{BTreeMap, HashMap};
use std::sync::{Arc, Mutex};

/// Identity of a tenant for pricing purposes: everything the device
/// model sees of it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TenantKey {
    /// Workload family.
    pub family: Family,
    /// Ranks per component.
    pub ranks: usize,
    /// Table I configuration.
    pub config: SchedConfig,
}

impl TenantKey {
    /// Build a key.
    pub fn new(family: Family, ranks: usize, config: SchedConfig) -> TenantKey {
        TenantKey {
            family,
            ranks,
            config,
        }
    }
}

impl Ord for TenantKey {
    /// The canonical tenant order, `(workflow name, ranks, config
    /// label)`: it orders the tenants of every co-run simulation, and so
    /// their bytes, and the tenants of a serve co-schedule answer.
    /// [`Family`]'s declaration order is not name order.
    fn cmp(&self, other: &Self) -> Ordering {
        (self.family.name(), self.ranks, self.config.label()).cmp(&(
            other.family.name(),
            other.ranks,
            other.config.label(),
        ))
    }
}

impl PartialOrd for TenantKey {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

/// One workload's full characterization.
struct AlphabetEntry {
    spec: WorkflowSpec,
    sweep: ConfigSweep,
    profile: WorkflowProfile,
    /// The Table II recommendation: the matching table row's
    /// configuration when one exists, otherwise the rule engine's pick.
    table2: SchedConfig,
}

/// A tenant identity interned by one [`Oracle`]: a dense index into its
/// tenant table. Ids follow first sight, which races under parallel
/// callers, so an id orders nothing and is never printed; only ranks
/// (key order) reach a simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) struct TenantId(u32);

/// One interned tenant identity.
struct Interned {
    key: TenantKey,
    /// Solo baseline under the key's configuration.
    solo: f64,
    /// Position of the tenant's key among all interned keys in
    /// `TenantKey` order, so sorting ids by rank sorts them by key in
    /// integer compares.
    rank: u32,
}

/// One characterized workload and the tenant ids interned for it, by
/// [`SchedConfig::ALL`] position.
struct Characterized {
    entry: Arc<AlphabetEntry>,
    ids: [Option<TenantId>; 4],
}

/// The characterized alphabet: indexed by `family as usize`, then keyed
/// by ranks.
type Alphabet = [BTreeMap<usize, Characterized>; Family::all().len()];

/// `config`'s position in [`SchedConfig::ALL`].
fn config_slot(config: SchedConfig) -> usize {
    SchedConfig::ALL
        .iter()
        .position(|&c| c == config)
        .expect("ALL lists every configuration")
}

/// The oracle's tables and the scratch its co-run lookups reuse.
#[derive(Default)]
struct OracleMaps {
    entries: Alphabet,
    /// Indexed by [`TenantId`].
    tenants: Vec<Interned>,
    /// The co-run memo: rank-sorted id multiset → per-tenant breakdowns
    /// in the same order.
    corun: HashMap<Arc<[TenantId]>, Arc<[TenantBreakdown]>>,
    /// Input positions in canonical (rank) order.
    order: Vec<usize>,
    /// The input ids in canonical order.
    canonical: Vec<TenantId>,
}

impl OracleMaps {
    /// The id of `key`, interned on first sight with its solo baseline;
    /// every interned tenant whose key sorts after it moves up one rank.
    /// A hit is one array index and one map lookup, and builds nothing.
    fn intern(&mut self, key: TenantKey) -> TenantId {
        let slot = config_slot(key.config);
        let known = self.characterized(key.family, key.ranks);
        if let Some(id) = known.ids[slot] {
            return id;
        }
        let solo = known.entry.sweep.run(key.config).total;
        let rank = self.tenants.iter().filter(|t| t.key < key).count() as u32;
        for t in &mut self.tenants {
            if t.rank >= rank {
                t.rank += 1;
            }
        }
        let id = TenantId(self.tenants.len() as u32);
        self.tenants.push(Interned { key, solo, rank });
        self.entries[key.family as usize]
            .get_mut(&key.ranks)
            .expect("characterized above")
            .ids[slot] = Some(id);
        id
    }

    /// The id `key` was interned under, if it was.
    fn interned(&self, key: &TenantKey) -> Option<TenantId> {
        self.lookup(key.family, key.ranks)?.ids[config_slot(key.config)]
    }

    fn characterized(&self, family: Family, ranks: usize) -> &Characterized {
        self.lookup(family, ranks)
            .unwrap_or_else(|| panic!("{}@{ranks} not in the campaign alphabet", family.name()))
    }

    fn entry(&self, family: Family, ranks: usize) -> &Arc<AlphabetEntry> {
        &self.characterized(family, ranks).entry
    }

    fn lookup(&self, family: Family, ranks: usize) -> Option<&Characterized> {
        self.entries[family as usize].get(&ranks)
    }

    /// Record `family@ranks`'s characterization, unless it is recorded
    /// already: the first insert wins.
    fn insert(&mut self, family: Family, ranks: usize, entry: AlphabetEntry) {
        self.entries[family as usize]
            .entry(ranks)
            .or_insert_with(|| Characterized {
                entry: Arc::new(entry),
                ids: [None; 4],
            });
    }

    /// Fill `order` and `canonical` for `ids`. The sort is stable and
    /// ranks order as keys do, so this is the permutation a stable sort
    /// of the tenants' keys gives, duplicates included.
    fn canonicalize(&mut self, ids: &[TenantId]) {
        let tenants = &self.tenants;
        self.order.clear();
        self.order.extend(0..ids.len());
        self.order.sort_by_key(|&i| tenants[ids[i].0 as usize].rank);
        self.canonical.clear();
        self.canonical.extend(self.order.iter().map(|&i| ids[i]));
    }
}

/// The shared prediction oracle (see module docs).
pub struct Oracle {
    maps: Mutex<OracleMaps>,
    exec: ExecutionParams,
}

impl Oracle {
    /// An empty oracle that populates on demand through [`Oracle::ensure`].
    pub fn new(exec: &ExecutionParams) -> Oracle {
        Oracle {
            maps: Mutex::new(OracleMaps::default()),
            exec: exec.clone(),
        }
    }

    /// Characterize every `(family, ranks)` workload of `alphabet` with up
    /// to `jobs` parallel simulations. Results are independent of `jobs`.
    pub fn build(
        alphabet: &[(Family, usize)],
        exec: &ExecutionParams,
        jobs: usize,
    ) -> Result<Oracle, ExecError> {
        let results = map_ordered(alphabet.to_vec(), jobs, |&(family, ranks)| {
            characterize_one(family, ranks, exec)
        });
        let mut maps = OracleMaps::default();
        for (&(family, ranks), result) in alphabet.iter().zip(results) {
            let entry = result.map_err(|panic| {
                ExecError::Spec(format!("characterization panicked: {panic}"))
            })??;
            maps.insert(family, ranks, entry);
        }
        Ok(Oracle {
            maps: Mutex::new(maps),
            exec: exec.clone(),
        })
    }

    /// Make sure `family@ranks` is characterized, building its workflow
    /// and simulating the four configurations and the Table II profile on
    /// first sight. Subsequent calls are O(lookup). Concurrent first
    /// sights may both simulate; results are deterministic so either
    /// insert wins harmlessly.
    pub fn ensure(&self, family: Family, ranks: usize) -> Result<(), ExecError> {
        if self.contains(family, ranks) {
            return Ok(());
        }
        let entry = characterize_one(family, ranks, &self.exec)?;
        lock_recover(&self.maps).insert(family, ranks, entry);
        Ok(())
    }

    /// Whether `family@ranks` has been characterized already.
    pub fn contains(&self, family: Family, ranks: usize) -> bool {
        lock_recover(&self.maps).lookup(family, ranks).is_some()
    }

    fn entry(&self, family: Family, ranks: usize) -> Arc<AlphabetEntry> {
        Arc::clone(lock_recover(&self.maps).entry(family, ranks))
    }

    /// The model-driven best configuration for a workload (argmin over the
    /// four simulated configurations).
    pub fn best_config(&self, family: Family, ranks: usize) -> SchedConfig {
        self.entry(family, ranks).sweep.best().config
    }

    /// Predicted solo runtime under a specific configuration.
    pub fn solo_runtime(&self, family: Family, ranks: usize, config: SchedConfig) -> f64 {
        self.entry(family, ranks).sweep.run(config).total
    }

    /// Predicted solo runtime under the best configuration: what
    /// [`Oracle::solo_runtime`] answers for [`Oracle::best_config`], read
    /// in one lookup.
    pub fn best_solo_runtime(&self, family: Family, ranks: usize) -> f64 {
        self.entry(family, ranks).sweep.best().total
    }

    /// The full four-configuration sweep of a workload.
    pub fn config_sweep(&self, family: Family, ranks: usize) -> ConfigSweep {
        self.entry(family, ranks).sweep.clone()
    }

    /// The Table II characterization of a workload.
    pub fn profile(&self, family: Family, ranks: usize) -> WorkflowProfile {
        self.entry(family, ranks).profile.clone()
    }

    /// The Table II recommendation: the matching table row's configuration
    /// when one exists, otherwise the rule engine's pick.
    pub(crate) fn table2_config(&self, family: Family, ranks: usize) -> SchedConfig {
        self.entry(family, ranks).table2
    }

    /// Intern a tenant identity, returning its id and its solo baseline.
    /// The workload must be characterized already.
    pub(crate) fn intern(&self, key: TenantKey) -> (TenantId, f64) {
        let mut maps = lock_recover(&self.maps);
        let id = maps.intern(key);
        (id, maps.tenants[id.0 as usize].solo)
    }

    fn intern_all(&self, set: &[TenantKey]) -> Vec<TenantId> {
        let mut maps = lock_recover(&self.maps);
        set.iter().map(|&key| maps.intern(key)).collect()
    }

    /// Predicted per-tenant slowdowns of co-running the interned tenants
    /// `ids` on one node, written to `out` in input order. A singleton
    /// never interferes with itself (1.0, no simulation); larger sets are
    /// priced through the co-run memo. A repeat multiset takes one lock
    /// and allocates nothing.
    pub(crate) fn slowdowns(&self, ids: &[TenantId], out: &mut Vec<f64>) -> Result<(), ExecError> {
        out.clear();
        if ids.len() <= 1 {
            out.resize(ids.len(), 1.0);
            return Ok(());
        }
        out.resize(ids.len(), 0.0);
        self.corun(ids, |pos, b| out[pos] = b.slowdown)
    }

    /// Look the multiset `ids` up in the co-run memo, simulating it on a
    /// miss, and hand each tenant's breakdown to `each` with its input
    /// position. A miss gathers the tenants under the lock, co-simulates
    /// the rank-sorted set with its solo baselines unlocked, inserts
    /// first-wins, and then reads the entry back as a hit: a racing
    /// thread that simulated the same multiset produced the same bytes.
    fn corun(
        &self,
        ids: &[TenantId],
        mut each: impl FnMut(usize, &TenantBreakdown),
    ) -> Result<(), ExecError> {
        loop {
            let mut guard = lock_recover(&self.maps);
            let maps = &mut *guard;
            maps.canonicalize(ids);
            if let Some(breakdowns) = maps.corun.get(maps.canonical.as_slice()) {
                for (b, &pos) in breakdowns.iter().zip(&maps.order) {
                    each(pos, b);
                }
                return Ok(());
            }
            let set: Arc<[TenantId]> = maps.canonical.as_slice().into();
            let (tenants, baselines): (Vec<Tenant>, Vec<f64>) = set
                .iter()
                .map(|id| {
                    let t = &maps.tenants[id.0 as usize];
                    let tenant = Tenant {
                        spec: maps.entry(t.key.family, t.key.ranks).spec.clone(),
                        config: t.key.config,
                    };
                    (tenant, t.solo)
                })
                .unzip();
            drop(guard);
            let out = execute_coscheduled(&tenants, &self.exec, Some(&baselines))?;
            lock_recover(&self.maps)
                .corun
                .entry(set)
                .or_insert_with(|| out.breakdown.into());
        }
    }

    /// Predicted per-tenant slowdowns of co-running `set` on one node, in
    /// input order: [`Oracle::corun_breakdown`]'s slowdowns, except that a
    /// singleton never interferes with itself (1.0, no simulation).
    pub fn corun_slowdowns(&self, set: &[TenantKey]) -> Result<Vec<f64>, ExecError> {
        if set.len() <= 1 {
            return Ok(vec![1.0; set.len()]);
        }
        let mut out = Vec::new();
        self.slowdowns(&self.intern_all(set), &mut out)?;
        Ok(out)
    }

    /// Full per-tenant attribution of co-running `set` on one node, in
    /// input order (each breakdown's `index` is rewritten to the input
    /// position): the co-simulation of the full set against the shared
    /// device model, memoized on the multiset of keys.
    pub fn corun_breakdown(&self, set: &[TenantKey]) -> Result<Vec<TenantBreakdown>, ExecError> {
        if set.is_empty() {
            return Ok(Vec::new());
        }
        let mut result = Vec::with_capacity(set.len());
        self.corun(&self.intern_all(set), |index, b| {
            result.push(TenantBreakdown { index, ..b.clone() })
        })?;
        result.sort_by_key(|b| b.index);
        Ok(result)
    }

    /// Whether [`Oracle::corun_breakdown`] of `set` would answer without
    /// simulating: every tenant's workload is characterized, and either
    /// the multiset is in the co-run memo or its summed ranks fail
    /// [`check_fit`] (an error no simulation precedes). Read-only: it
    /// characterizes, interns and memoizes nothing. The oracle never
    /// evicts, so once true it stays true.
    pub fn corun_ready(&self, set: &[TenantKey]) -> bool {
        let maps = lock_recover(&self.maps);
        if set.iter().any(|k| maps.lookup(k.family, k.ranks).is_none()) {
            return false;
        }
        if check_fit(set.iter().map(|k| k.ranks).sum()).is_err() {
            return true;
        }
        // A tenant never interned has never been priced.
        let Some(mut ids) = set
            .iter()
            .map(|k| maps.interned(k))
            .collect::<Option<Vec<_>>>()
        else {
            return false;
        };
        ids.sort_by_key(|id| maps.tenants[id.0 as usize].rank);
        maps.corun.contains_key(ids.as_slice())
    }

    /// Number of distinct co-residency sets priced so far (diagnostics).
    pub fn corun_cache_len(&self) -> usize {
        lock_recover(&self.maps).corun.len()
    }

    /// The execution parameters every prediction runs under.
    pub fn exec(&self) -> &ExecutionParams {
        &self.exec
    }
}

/// One workload's full characterization: its built workflow, the
/// four-configuration sweep, the Table II profile and its pick.
fn characterize_one(
    family: Family,
    ranks: usize,
    exec: &ExecutionParams,
) -> Result<AlphabetEntry, ExecError> {
    let context =
        |e: ExecError| ExecError::Spec(format!("characterizing {}@{ranks}: {e}", family.name()));
    let spec = family.build(ranks);
    let sweep = sweep(&spec, exec).map_err(context)?;
    let profile = characterize(&spec, exec).map_err(context)?;
    let table2 = match classify(&profile) {
        Some(row) => row.config,
        None => recommend(&profile).config,
    };
    Ok(AlphabetEntry {
        spec,
        sweep,
        profile,
        table2,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemflow_des::rng::SplitMix64;
    use std::sync::Barrier;

    fn tiny_alphabet() -> Vec<(Family, usize)> {
        vec![(Family::Micro64MB, 8), (Family::Micro2KB, 8)]
    }

    const A: TenantKey = TenantKey {
        family: Family::Micro64MB,
        ranks: 8,
        config: SchedConfig::S_LOC_W,
    };
    const B: TenantKey = TenantKey {
        family: Family::Micro2KB,
        ranks: 8,
        config: SchedConfig::P_LOC_R,
    };

    #[test]
    fn oracle_predictions_are_job_count_invariant() {
        let exec = ExecutionParams::default();
        let a = Oracle::build(&tiny_alphabet(), &exec, 1).unwrap();
        let b = Oracle::build(&tiny_alphabet(), &exec, 4).unwrap();
        for (family, ranks) in tiny_alphabet() {
            assert_eq!(a.best_config(family, ranks), b.best_config(family, ranks));
            for c in SchedConfig::ALL {
                assert_eq!(
                    a.solo_runtime(family, ranks, c).to_bits(),
                    b.solo_runtime(family, ranks, c).to_bits()
                );
            }
        }
    }

    #[test]
    fn on_demand_oracle_matches_prebuilt() {
        // `serve` populates lazily; the campaign prebuilds. Same numbers.
        let exec = ExecutionParams::default();
        let prebuilt = Oracle::build(&tiny_alphabet(), &exec, 2).unwrap();
        let lazy = Oracle::new(&exec);
        let characterized = || {
            lock_recover(&lazy.maps)
                .entries
                .iter()
                .map(BTreeMap::len)
                .sum::<usize>()
        };
        assert_eq!(characterized(), 0);
        for (family, ranks) in tiny_alphabet() {
            assert!(!lazy.contains(family, ranks));
            lazy.ensure(family, ranks).unwrap();
            lazy.ensure(family, ranks).unwrap(); // idempotent
            assert!(lazy.contains(family, ranks));
            assert_eq!(
                lazy.best_config(family, ranks),
                prebuilt.best_config(family, ranks)
            );
            for c in SchedConfig::ALL {
                assert_eq!(
                    lazy.solo_runtime(family, ranks, c).to_bits(),
                    prebuilt.solo_runtime(family, ranks, c).to_bits()
                );
            }
            assert_eq!(
                lazy.table2_config(family, ranks),
                prebuilt.table2_config(family, ranks)
            );
            // The stored Table II pick is the profile's row, or the rule
            // engine's pick where no row matches.
            let profile = lazy.profile(family, ranks);
            let row = classify(&profile).map(|r| r.config);
            assert_eq!(
                lazy.table2_config(family, ranks),
                row.unwrap_or_else(|| recommend(&profile).config)
            );
        }
        assert_eq!(characterized(), 2);
    }

    /// The canonical tenant order is `(name, ranks, label)` over every
    /// family, rank level and configuration, which is not the families'
    /// declaration order: a derived `Ord` fails here.
    #[test]
    fn tenant_keys_sort_by_name_ranks_and_label() {
        let mut keys: Vec<TenantKey> = Family::all()
            .into_iter()
            .flat_map(|family| {
                [8, 16, 24].into_iter().flat_map(move |ranks| {
                    SchedConfig::ALL
                        .into_iter()
                        .map(move |config| TenantKey::new(family, ranks, config))
                })
            })
            .collect();
        assert_eq!(keys.len(), 6 * 3 * 4);
        let tuple = |k: &TenantKey| (k.family.name(), k.ranks, k.config.label());
        let mut tuples: Vec<_> = keys.iter().map(tuple).collect();
        keys.sort();
        tuples.sort();
        assert_eq!(keys.iter().map(tuple).collect::<Vec<_>>(), tuples);
        let mut families: Vec<Family> = keys.iter().map(|k| k.family).collect();
        families.dedup();
        assert_eq!(
            families,
            [
                Family::GtcMatMul,
                Family::GtcReadOnly,
                Family::Micro2KB,
                Family::Micro64MB,
                Family::MiniAmrMatMul,
                Family::MiniAmrReadOnly,
            ]
        );
        assert_ne!(families, Family::all());
    }

    #[test]
    fn corun_pricing_is_order_insensitive_and_cached() {
        let exec = ExecutionParams::default();
        let oracle = Oracle::build(&tiny_alphabet(), &exec, 2).unwrap();
        let ab = oracle.corun_slowdowns(&[A, B]).unwrap();
        let ba = oracle.corun_slowdowns(&[B, A]).unwrap();
        assert_eq!(ab[0].to_bits(), ba[1].to_bits());
        assert_eq!(ab[1].to_bits(), ba[0].to_bits());
        assert_eq!(oracle.corun_cache_len(), 1, "one multiset, one sim");
        for s in ab {
            assert!(s >= 0.99, "slowdown {s}");
        }
    }

    #[test]
    fn corun_breakdown_reports_input_positions() {
        let exec = ExecutionParams::default();
        let oracle = Oracle::build(&tiny_alphabet(), &exec, 2).unwrap();
        let ab = oracle.corun_breakdown(&[A, B]).unwrap();
        let ba = oracle.corun_breakdown(&[B, A]).unwrap();
        assert_eq!(ab.len(), 2);
        for (i, bd) in ab.iter().enumerate() {
            assert_eq!(bd.index, i);
        }
        assert_eq!(ab[0].workflow, ba[1].workflow);
        assert_eq!(ab[0].end.to_bits(), ba[1].end.to_bits());
        assert_eq!(
            ab[0].slowdown.to_bits(),
            oracle.corun_slowdowns(&[A, B]).unwrap()[0].to_bits()
        );
        assert_eq!(oracle.corun_cache_len(), 1, "breakdowns share the cache");
    }

    #[test]
    fn singletons_never_interfere() {
        let exec = ExecutionParams::default();
        let oracle = Oracle::build(&tiny_alphabet(), &exec, 2).unwrap();
        assert_eq!(oracle.corun_slowdowns(&[A]).unwrap(), vec![1.0]);
        let (id, _) = oracle.intern(A);
        let mut out = vec![7.0];
        oracle.slowdowns(&[], &mut out).unwrap();
        assert!(out.is_empty());
        oracle.slowdowns(&[id], &mut out).unwrap();
        assert_eq!(out, vec![1.0]);
        assert_eq!(oracle.corun_cache_len(), 0);
    }

    #[test]
    fn corun_ready_is_true_exactly_when_no_simulation_is_left() {
        let exec = ExecutionParams::default();
        let oracle = Oracle::build(&tiny_alphabet(), &exec, 2).unwrap();
        let unknown = TenantKey { ranks: 16, ..B };
        let ready = |set: &[TenantKey]| oracle.corun_ready(set);
        let price = |set: &[TenantKey]| oracle.corun_breakdown(set).unwrap();
        let interned = || lock_recover(&oracle.maps).tenants.len();
        for set in [[A].as_slice(), &[A, B], &[B, B], &[A, unknown]] {
            assert!(!ready(set), "{set:?}");
        }
        // Four 8-rank tenants overflow a 28-core socket: the answer is a
        // capacity error no simulation precedes, interned or not.
        assert!(ready(&[A, A, B, B]));
        assert!(!ready(&[A, A, unknown, B]));
        assert_eq!((interned(), oracle.corun_cache_len()), (0, 0));

        price(&[B, A]);
        assert!(ready(&[A, B]), "order is canonical");
        assert!(!ready(&[A]), "singletons are priced too");
        assert!(!ready(&[B, B]));
        price(&[A]);
        assert!(ready(&[A]));
        assert_eq!(oracle.corun_cache_len(), 2);
    }

    /// The reference for the co-run memo: a fresh, unmemoized co-run of
    /// `node`'s tenants sorted by key, with their solo baselines, read
    /// back in node order.
    fn fresh_slowdowns(oracle: &Oracle, node: &[TenantKey]) -> Vec<f64> {
        if node.len() <= 1 {
            return vec![1.0; node.len()];
        }
        let mut order: Vec<usize> = (0..node.len()).collect();
        order.sort_by(|&a, &b| node[a].cmp(&node[b]));
        let tenants: Vec<Tenant> = order
            .iter()
            .map(|&i| Tenant {
                spec: node[i].family.build(node[i].ranks),
                config: node[i].config,
            })
            .collect();
        let baselines: Vec<f64> = order
            .iter()
            .map(|&i| oracle.solo_runtime(node[i].family, node[i].ranks, node[i].config))
            .collect();
        let out = execute_coscheduled(&tenants, oracle.exec(), Some(&baselines)).unwrap();
        let mut slowdowns = vec![0.0; node.len()];
        for (b, &pos) in out.breakdown.iter().zip(&order) {
            slowdowns[pos] = b.slowdown;
        }
        slowdowns
    }

    /// Seeded admission/completion/crash churn on one node: every memo
    /// answer, in node order, is bitwise a fresh co-run of the residents.
    #[test]
    fn memo_answers_match_fresh_coruns_under_churn() {
        let oracle = Oracle::build(&tiny_alphabet(), &ExecutionParams::default(), 2).unwrap();
        let idents = [
            (Family::Micro64MB, SchedConfig::S_LOC_W),
            (Family::Micro64MB, SchedConfig::P_LOC_R),
            (Family::Micro2KB, SchedConfig::S_LOC_W),
            (Family::Micro2KB, SchedConfig::P_LOC_W),
        ];
        let mut rng = SplitMix64::new(0xB00C_0001);
        let mut node: Vec<(TenantId, TenantKey)> = Vec::new();
        let mut out = Vec::new();
        let mut multisets = std::collections::BTreeSet::new();
        for _ in 0..200 {
            match rng.range_u64(0, 3) {
                0 if node.len() < 3 => {
                    let (family, config) = idents[rng.range_usize(0, idents.len())];
                    let key = TenantKey::new(family, 8, config);
                    let (id, solo) = oracle.intern(key);
                    assert_eq!(
                        solo.to_bits(),
                        oracle.solo_runtime(family, 8, config).to_bits()
                    );
                    node.push((id, key));
                }
                1 if !node.is_empty() => {
                    node.remove(rng.range_usize(0, node.len()));
                }
                2 => node.clear(),
                _ => {}
            }
            let ids: Vec<TenantId> = node.iter().map(|(id, _)| *id).collect();
            let keys: Vec<TenantKey> = node.iter().map(|(_, k)| *k).collect();
            oracle.slowdowns(&ids, &mut out).unwrap();
            let bits = |v: &[f64]| v.iter().map(|s| s.to_bits()).collect::<Vec<_>>();
            assert_eq!(
                bits(&out),
                bits(&fresh_slowdowns(&oracle, &keys)),
                "{keys:?}"
            );
            if keys.len() > 1 {
                let mut sorted = keys;
                sorted.sort();
                multisets.insert(sorted);
            }
            assert_eq!(
                oracle.corun_cache_len(),
                multisets.len(),
                "one entry per multiset"
            );
        }
        assert!(multisets.len() > 1, "the churn priced too few sets");
    }

    /// Ids follow each oracle's first sight, so two oracles that meet the
    /// same identities in opposite orders number them differently; the
    /// prices are the same all the same.
    #[test]
    fn oracles_interning_in_opposite_orders_price_identically() {
        let exec = ExecutionParams::default();
        let one = Oracle::build(&tiny_alphabet(), &exec, 2).unwrap();
        let two = Oracle::build(&tiny_alphabet(), &exec, 2).unwrap();
        let (a1, _) = one.intern(A);
        let (b1, _) = one.intern(B);
        let (b2, _) = two.intern(B);
        let (a2, _) = two.intern(A);
        assert_eq!((a1, b1), (b2, a2), "ids follow each oracle's first sight");
        assert_eq!(one.intern(A).0, a1);
        let (mut out1, mut out2) = (Vec::new(), Vec::new());
        one.slowdowns(&[a1, b1], &mut out1).unwrap();
        two.slowdowns(&[a2, b2], &mut out2).unwrap();
        assert_eq!(
            out1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            out2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
        assert_eq!(one.corun_cache_len(), 1, "one multiset, one simulation");
        assert_eq!(two.corun_cache_len(), 1, "one multiset, one simulation");
    }

    /// Threads racing to price overlapping co-residencies through one
    /// oracle get, bit for bit, what a fresh oracle answers sequentially.
    #[test]
    fn concurrent_pricing_matches_a_sequential_oracle() {
        let exec = ExecutionParams::default();
        let sequential = Oracle::build(&tiny_alphabet(), &exec, 1).unwrap();
        let shared = Arc::new(Oracle::build(&tiny_alphabet(), &exec, 2).unwrap());
        let keys = [
            TenantKey::new(Family::Micro64MB, 8, SchedConfig::S_LOC_W),
            TenantKey::new(Family::Micro64MB, 8, SchedConfig::P_LOC_R),
            TenantKey::new(Family::Micro2KB, 8, SchedConfig::S_LOC_W),
            TenantKey::new(Family::Micro2KB, 8, SchedConfig::P_LOC_W),
        ];
        let threads = 4;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let shared = Arc::clone(&shared);
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(0x0A0B_0C0D ^ t as u64);
                    let mut sets = Vec::new();
                    barrier.wait();
                    for _ in 0..25 {
                        let n = rng.range_usize(2, 4);
                        let set: Vec<TenantKey> = (0..n)
                            .map(|_| keys[rng.range_usize(0, keys.len())])
                            .collect();
                        let priced = shared.corun_slowdowns(&set).unwrap();
                        sets.push((set, priced));
                    }
                    sets
                })
            })
            .collect();
        for handle in handles {
            for (set, priced) in handle.join().unwrap() {
                let want = sequential.corun_slowdowns(&set).unwrap();
                assert_eq!(priced.len(), want.len());
                for (got, want) in priced.iter().zip(&want) {
                    assert_eq!(got.to_bits(), want.to_bits());
                }
            }
        }
        assert_eq!(shared.corun_cache_len(), sequential.corun_cache_len());
    }
}
