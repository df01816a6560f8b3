//! Prediction services the queue policies and the serving daemon share.
//!
//! Two caches, both deterministic:
//!
//! * **Solo sweeps** — for every workload the oracle knows, all four
//!   Table I configurations are simulated (in parallel over
//!   [`pmemflow_core::map_ordered`] when prebuilt with [`Oracle::build`],
//!   or on demand via [`Oracle::ensure`]) together with the Table II
//!   characterization. Callers read the model-driven best configuration,
//!   per-config runtime predictions (the EASY-backfill reservation
//!   estimate), and the [`WorkflowProfile`] the Table II policy
//!   classifies.
//! * **Co-run pricing** — the predicted per-tenant outcome of every
//!   candidate resident set, from
//!   [`execute_coscheduled`] over the real device model.
//!   Keyed by the multiset of `(workflow, ranks, config)`, so each
//!   distinct co-residency is simulated exactly once per oracle.
//!
//! The oracle is the **single prediction path** of the workspace: the
//! campaign event loop prebuilds it over the arrival stream's alphabet,
//! and `pmemflow_serve` populates it lazily as queries arrive. Both see
//! bit-identical predictions for the same inputs.
//!
//! # Concurrency
//!
//! Both caches live in one `Mutex`. It is held only to look up or to
//! insert, never across a simulation: a miss looks up, simulates
//! unlocked, then inserts first-wins. Every value is a pure function of
//! its key, so two threads that race on one miss simulate the same
//! bytes and whichever inserts first is what everyone reads.

use pmemflow_core::sync::lock_recover;
use pmemflow_core::{
    execute_coscheduled, map_ordered, sweep, ConfigSweep, ExecError, ExecutionParams, SchedConfig,
    Tenant, TenantBreakdown,
};
use pmemflow_sched::{characterize, classify, recommend, RuleThresholds, WorkflowProfile};
use pmemflow_workloads::WorkflowSpec;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Identity of a tenant for pricing purposes: everything that affects the
/// device model sees of it.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct TenantKey {
    /// Workflow display name.
    pub workflow: String,
    /// Ranks per component.
    pub ranks: usize,
    /// Configuration label (Table I).
    pub config: &'static str,
}

impl TenantKey {
    /// Build a key.
    pub fn new(workflow: &str, ranks: usize, config: SchedConfig) -> TenantKey {
        TenantKey {
            workflow: workflow.to_string(),
            ranks,
            config: config.label(),
        }
    }
}

struct AlphabetEntry {
    spec: WorkflowSpec,
    sweep: ConfigSweep,
    profile: WorkflowProfile,
}

/// Both memo tables of the oracle.
#[derive(Default)]
struct OracleMaps {
    entries: BTreeMap<(String, usize), Arc<AlphabetEntry>>,
    corun: BTreeMap<Arc<[TenantKey]>, Arc<Vec<TenantBreakdown>>>,
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

    /// Characterize every workload of `alphabet` with up to `jobs`
    /// parallel simulations. Results are independent of `jobs`.
    pub fn build(
        alphabet: &[(String, usize, WorkflowSpec)],
        exec: &ExecutionParams,
        jobs: usize,
    ) -> Result<Oracle, ExecError> {
        let items: Vec<(String, usize, WorkflowSpec)> = alphabet.to_vec();
        let results = map_ordered(items, jobs, |(_, _, spec)| characterize_one(spec, exec));
        let mut entries = BTreeMap::new();
        for ((name, ranks, spec), result) in alphabet.iter().cloned().zip(results) {
            let (sweep, profile) = result
                .map_err(|panic| ExecError::Spec(format!("characterization panicked: {panic}")))?
                .map_err(|e| ExecError::Spec(format!("characterizing {name}@{ranks}: {e}")))?;
            entries.entry((name, ranks)).or_insert_with(|| {
                Arc::new(AlphabetEntry {
                    spec,
                    sweep,
                    profile,
                })
            });
        }
        Ok(Oracle {
            maps: Mutex::new(OracleMaps {
                entries,
                corun: BTreeMap::new(),
            }),
            exec: exec.clone(),
        })
    }

    /// Make sure `workflow@ranks` is characterized, simulating the four
    /// configurations and the Table II profile on first sight. Subsequent
    /// calls are O(lookup). Concurrent first sights may both simulate;
    /// results are deterministic so either insert wins harmlessly.
    pub fn ensure(
        &self,
        workflow: &str,
        ranks: usize,
        spec: &WorkflowSpec,
    ) -> Result<(), ExecError> {
        if self.contains(workflow, ranks) {
            return Ok(());
        }
        let (sweep, profile) = characterize_one(spec, &self.exec)
            .map_err(|e| ExecError::Spec(format!("characterizing {workflow}@{ranks}: {e}")))?;
        lock_recover(&self.maps)
            .entries
            .entry((workflow.to_string(), ranks))
            .or_insert_with(|| {
                Arc::new(AlphabetEntry {
                    spec: spec.clone(),
                    sweep,
                    profile,
                })
            });
        Ok(())
    }

    /// Whether `workflow@ranks` has been characterized already.
    pub fn contains(&self, workflow: &str, ranks: usize) -> bool {
        let key = (workflow.to_string(), ranks);
        lock_recover(&self.maps).entries.contains_key(&key)
    }

    fn entry(&self, workflow: &str, ranks: usize) -> Arc<AlphabetEntry> {
        let key = (workflow.to_string(), ranks);
        lock_recover(&self.maps)
            .entries
            .get(&key)
            .cloned()
            .unwrap_or_else(|| panic!("{workflow}@{ranks} not in the campaign alphabet"))
    }

    /// The model-driven best configuration for a workload (argmin over the
    /// four simulated configurations).
    pub fn best_config(&self, workflow: &str, ranks: usize) -> SchedConfig {
        self.entry(workflow, ranks).sweep.best().config
    }

    /// Predicted solo runtime under a specific configuration.
    pub fn solo_runtime(&self, workflow: &str, ranks: usize, config: SchedConfig) -> f64 {
        self.entry(workflow, ranks).sweep.run(config).total
    }

    /// The full four-configuration sweep of a workload.
    pub fn config_sweep(&self, workflow: &str, ranks: usize) -> ConfigSweep {
        self.entry(workflow, ranks).sweep.clone()
    }

    /// The Table II characterization of a workload.
    pub fn profile(&self, workflow: &str, ranks: usize) -> WorkflowProfile {
        self.entry(workflow, ranks).profile.clone()
    }

    /// The Table II recommendation: the matching table row's configuration
    /// when one exists, otherwise the rule engine's pick.
    pub(crate) fn table2_config(&self, workflow: &str, ranks: usize) -> SchedConfig {
        let profile = self.profile(workflow, ranks);
        match classify(&profile) {
            Some(row) => row.config,
            None => recommend(&profile, &RuleThresholds::default()).config,
        }
    }

    /// The built workflow for a stream entry.
    pub fn spec(&self, workflow: &str, ranks: usize) -> WorkflowSpec {
        self.entry(workflow, ranks).spec.clone()
    }

    /// Predicted per-tenant slowdowns of co-running `set` on one node, in
    /// input order. A singleton never interferes with itself (1.0, no
    /// simulation); larger sets are priced by co-simulating the full set
    /// against the shared device model, memoized on the multiset of keys.
    pub fn corun_slowdowns(&self, set: &[TenantKey]) -> Result<Vec<f64>, ExecError> {
        if set.len() <= 1 {
            return Ok(vec![1.0; set.len()]);
        }
        Ok(self
            .corun_breakdown(set)?
            .iter()
            .map(|b| b.slowdown)
            .collect())
    }

    /// Full per-tenant attribution of co-running `set` on one node, in
    /// input order (each breakdown's `index` is rewritten to the input
    /// position). Priced through the same memoized path as
    /// [`Oracle::corun_slowdowns`].
    pub fn corun_breakdown(&self, set: &[TenantKey]) -> Result<Vec<TenantBreakdown>, ExecError> {
        if set.is_empty() {
            return Ok(Vec::new());
        }
        // Canonical order: sort keys; remember where each input key went.
        let mut order: Vec<usize> = (0..set.len()).collect();
        order.sort_by(|&a, &b| set[a].cmp(&set[b]));
        let canonical: Vec<TenantKey> = order.iter().map(|&i| set[i].clone()).collect();

        let cached = lock_recover(&self.maps)
            .corun
            .get(canonical.as_slice())
            .cloned();
        let breakdowns = match cached {
            Some(b) => b,
            None => {
                let tenants: Vec<Tenant> = canonical
                    .iter()
                    .map(|k| Tenant {
                        spec: self.entry(&k.workflow, k.ranks).spec.clone(),
                        config: SchedConfig::parse(k.config).expect("key holds a valid label"),
                    })
                    .collect();
                let baselines: Vec<f64> = canonical
                    .iter()
                    .map(|k| {
                        self.solo_runtime(
                            &k.workflow,
                            k.ranks,
                            SchedConfig::parse(k.config).expect("key holds a valid label"),
                        )
                    })
                    .collect();
                let out = execute_coscheduled(&tenants, &self.exec, Some(&baselines))?;
                // First insert wins: a racing thread that simulated the
                // same multiset produced the same bytes.
                Arc::clone(
                    lock_recover(&self.maps)
                        .corun
                        .entry(canonical.into())
                        .or_insert_with(|| Arc::new(out.breakdown)),
                )
            }
        };
        // Un-permute back to input order, restoring input indices.
        let mut result: Vec<TenantBreakdown> = vec![breakdowns[0].clone(); set.len()];
        for (canon_pos, &input_pos) in order.iter().enumerate() {
            let mut b = breakdowns[canon_pos].clone();
            b.index = input_pos;
            result[input_pos] = b;
        }
        Ok(result)
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

/// One workload's full characterization: the four-configuration sweep plus
/// the Table II profile.
fn characterize_one(
    spec: &WorkflowSpec,
    exec: &ExecutionParams,
) -> Result<(ConfigSweep, WorkflowProfile), ExecError> {
    let sw = sweep(spec, exec)?;
    let profile = characterize(spec, exec)?;
    Ok((sw, profile))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemflow_des::rng::SplitMix64;
    use pmemflow_workloads::Family;
    use std::sync::Barrier;

    fn tiny_alphabet() -> Vec<(String, usize, WorkflowSpec)> {
        [(Family::Micro64MB, 8usize), (Family::Micro2KB, 8usize)]
            .into_iter()
            .map(|(f, r)| (f.name().to_string(), r, f.build(r)))
            .collect()
    }

    #[test]
    fn oracle_predictions_are_job_count_invariant() {
        let exec = ExecutionParams::default();
        let a = Oracle::build(&tiny_alphabet(), &exec, 1).unwrap();
        let b = Oracle::build(&tiny_alphabet(), &exec, 4).unwrap();
        for (name, ranks, _) in tiny_alphabet() {
            assert_eq!(a.best_config(&name, ranks), b.best_config(&name, ranks));
            for c in SchedConfig::ALL {
                assert_eq!(
                    a.solo_runtime(&name, ranks, c).to_bits(),
                    b.solo_runtime(&name, ranks, c).to_bits()
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
        assert_eq!(lock_recover(&lazy.maps).entries.len(), 0);
        for (name, ranks, spec) in tiny_alphabet() {
            assert!(!lazy.contains(&name, ranks));
            lazy.ensure(&name, ranks, &spec).unwrap();
            lazy.ensure(&name, ranks, &spec).unwrap(); // idempotent
            assert!(lazy.contains(&name, ranks));
            assert_eq!(
                lazy.best_config(&name, ranks),
                prebuilt.best_config(&name, ranks)
            );
            for c in SchedConfig::ALL {
                assert_eq!(
                    lazy.solo_runtime(&name, ranks, c).to_bits(),
                    prebuilt.solo_runtime(&name, ranks, c).to_bits()
                );
            }
            assert_eq!(
                lazy.table2_config(&name, ranks),
                prebuilt.table2_config(&name, ranks)
            );
        }
        assert_eq!(lock_recover(&lazy.maps).entries.len(), 2);
    }

    #[test]
    fn corun_pricing_is_order_insensitive_and_cached() {
        let exec = ExecutionParams::default();
        let oracle = Oracle::build(&tiny_alphabet(), &exec, 2).unwrap();
        let a = TenantKey::new("micro-64MB", 8, SchedConfig::S_LOC_W);
        let b = TenantKey::new("micro-2KB", 8, SchedConfig::P_LOC_R);
        let ab = oracle.corun_slowdowns(&[a.clone(), b.clone()]).unwrap();
        let ba = oracle.corun_slowdowns(&[b, a]).unwrap();
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
        let a = TenantKey::new("micro-64MB", 8, SchedConfig::S_LOC_W);
        let b = TenantKey::new("micro-2KB", 8, SchedConfig::P_LOC_R);
        let ab = oracle.corun_breakdown(&[a.clone(), b.clone()]).unwrap();
        let ba = oracle.corun_breakdown(&[b, a]).unwrap();
        assert_eq!(ab.len(), 2);
        for (i, bd) in ab.iter().enumerate() {
            assert_eq!(bd.index, i);
        }
        assert_eq!(ab[0].workflow, ba[1].workflow);
        assert_eq!(ab[0].end.to_bits(), ba[1].end.to_bits());
        assert_eq!(
            ab[0].slowdown.to_bits(),
            oracle
                .corun_slowdowns(&[
                    TenantKey::new("micro-64MB", 8, SchedConfig::S_LOC_W),
                    TenantKey::new("micro-2KB", 8, SchedConfig::P_LOC_R)
                ])
                .unwrap()[0]
                .to_bits()
        );
        assert_eq!(oracle.corun_cache_len(), 1, "breakdowns share the cache");
    }

    #[test]
    fn singletons_never_interfere() {
        let exec = ExecutionParams::default();
        let oracle = Oracle::build(&tiny_alphabet(), &exec, 2).unwrap();
        let k = TenantKey::new("micro-64MB", 8, SchedConfig::S_LOC_W);
        assert_eq!(oracle.corun_slowdowns(&[k]).unwrap(), vec![1.0]);
        assert_eq!(oracle.corun_cache_len(), 0);
    }

    /// Threads racing to price overlapping co-residencies through one
    /// oracle get, bit for bit, what a fresh oracle answers sequentially.
    #[test]
    fn concurrent_pricing_matches_a_sequential_oracle() {
        let exec = ExecutionParams::default();
        let sequential = Oracle::build(&tiny_alphabet(), &exec, 1).unwrap();
        let shared = Arc::new(Oracle::build(&tiny_alphabet(), &exec, 2).unwrap());
        let keys = [
            TenantKey::new("micro-64MB", 8, SchedConfig::S_LOC_W),
            TenantKey::new("micro-64MB", 8, SchedConfig::P_LOC_R),
            TenantKey::new("micro-2KB", 8, SchedConfig::S_LOC_W),
            TenantKey::new("micro-2KB", 8, SchedConfig::P_LOC_W),
        ];
        let threads = 4;
        let barrier = Arc::new(Barrier::new(threads));
        let handles: Vec<_> = (0..threads)
            .map(|t| {
                let shared = Arc::clone(&shared);
                let keys = keys.clone();
                let barrier = Arc::clone(&barrier);
                std::thread::spawn(move || {
                    let mut rng = SplitMix64::new(0x0A0B_0C0D ^ t as u64);
                    let mut sets = Vec::new();
                    barrier.wait();
                    for _ in 0..25 {
                        let n = rng.range_usize(2, 4);
                        let set: Vec<TenantKey> = (0..n)
                            .map(|_| keys[rng.range_usize(0, keys.len())].clone())
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
