//! Device profiles: every empirical constant of the PMEM model in one place.
//!
//! The default profile, [`DeviceProfile::optane_gen1`], encodes the
//! first-generation Intel Optane DC PMEM testbed of the paper (§II-B, §V):
//! six interleaved 512 GB DIMMs per socket behind two iMCs, AppDirect mode.
//! Sources for each constant are cited inline. A profile is plain data, so
//! experiments can perturb any constant (the ablation benches do).

use crate::curves::{log_size_interp, Curve};
use pmemflow_des::{Direction, Locality};

/// Bytes per gigabyte (decimal, as used in device datasheets).
pub const GB: f64 = 1e9;

/// The complete Optane performance model.
///
/// Bandwidth curves map *effective concurrency* (duty-cycle-weighted number
/// of ranks with in-flight operations) to aggregate device bandwidth in
/// bytes/second. Latencies are per-operation device access costs added on
/// top of the I/O stack's software cost.
#[derive(Debug, Clone)]
pub struct DeviceProfile {
    /// Human-readable profile name.
    pub name: String,
    /// Bytes of one interleave stripe: the DIMMs of a socket times the
    /// contiguous chunk mapped to each (6 × 4 KB = 24 KB on the testbed,
    /// §II-B "Access granularity"). A sub-stripe access lands on fewer
    /// DIMMs than the set, so concurrent ones collide on modules.
    pub stripe_bytes: u64,
    /// Capacity of one socket's PMEM in bytes (6 × 512 GB on the testbed).
    pub capacity_bytes: u64,

    /// Aggregate **local read** bandwidth vs concurrency. Peak 39.4 GB/s,
    /// scaling up to ~17 concurrent readers (paper §II-B; Izraelevitz et
    /// al. §4), with a mild decline beyond as the device-internal (XPBuffer)
    /// cache thrashes.
    pub local_read_bw: Curve,
    /// Aggregate **local write** bandwidth vs concurrency. Peak 13.9 GB/s
    /// at 4 concurrent writers (paper §II-B), declining with concurrency
    /// (XPBuffer contention; Yang et al. FAST'20 §3.2).
    pub local_write_bw: Curve,
    /// **Remote read penalty** vs concurrency: local read bandwidth is
    /// divided by this. The paper reports a 1.3× slowdown at 24 concurrent
    /// readers (§II-B).
    pub remote_read_penalty: Curve,
    /// Aggregate **remote write** bandwidth vs concurrency for *streaming*
    /// (non-temporal, well-formed) writes as produced by the I/O stacks.
    /// Remote writes collapse under concurrency due to UPI contention and
    /// remote iMC queue pressure; the workflow-visible effect in the paper
    /// is a ~2.5–4× write-phase slowdown at 16–24 ranks (Fig. 4).
    pub remote_write_bw: Curve,
    /// Aggregate remote write bandwidth for *random small* (≤ 4 KB)
    /// accesses — the raw-device behaviour behind the paper's "15× drop,
    /// under 1 GB/s beyond 3 concurrent remote ops" statement (§II-B,
    /// citing Peng et al.). Used by the device-bench reproduction, not by
    /// the streaming workflow model.
    pub remote_write_bw_random: Curve,

    /// Idle per-operation read latency, local (paper: 169 ns).
    pub read_latency_local: f64,
    /// Idle per-operation read latency, remote: a load must cross UPI and
    /// return data (paper §II-B discussion; +~140 ns).
    pub read_latency_remote: f64,
    /// Idle per-operation write latency, local (paper: 90 ns — the write
    /// completes once buffered in the iMC write-pending queue).
    pub write_latency_local: f64,
    /// Idle per-operation write latency, remote. Posted writes pipeline
    /// across UPI, so the penalty is far smaller than for reads; this
    /// asymmetry is why non-bandwidth-bound workflows prefer local *reads*
    /// (paper §VI-B).
    pub write_latency_remote: f64,

    /// Single-thread device bandwidth plateaus by access granularity.
    /// `(small_size, small_value, large_size, large_value)` per direction:
    /// log-interpolated in between.
    pub st_read_small: f64,
    /// Single-thread large-access read bandwidth (bytes/s).
    pub st_read_large: f64,
    /// Single-thread small-access write bandwidth (bytes/s).
    pub st_write_small: f64,
    /// Single-thread large-access write bandwidth (bytes/s).
    pub st_write_large: f64,
    /// Access size at/below which the "small" plateau applies.
    pub st_small_size: u64,
    /// Access size at/above which the "large" plateau applies.
    pub st_large_size: u64,

    /// Efficiency multiplier applied to class capacity when accesses are
    /// smaller than one interleave stripe and ≥ `small_access_threads`
    /// threads are active: non-uniform chunk distribution makes threads
    /// collide on individual DIMMs (paper §II-B "Access granularity").
    pub small_access_efficiency: f64,
    /// Concurrency at which the small-access DIMM-collision penalty starts.
    pub small_access_threads: f64,

    /// Budget for mixed read/write flow sets, as a function of total
    /// effective concurrency. 1.0 means reads and writes time-share the
    /// device exactly; Optane's measured mixed bandwidth degrades *below*
    /// proportional time-sharing as concurrency grows — reads stall behind
    /// XPBuffer evictions and write-pending-queue drains (Yang et al.
    /// FAST'20 §3.2; paper §VI-A: "remote reads hold resources that also
    /// slow writes"). At low concurrency the paths overlap almost freely
    /// (paper §VIII: "at low concurrency levels the slowdown caused due to
    /// contention is minimal").
    pub mix_budget: Curve,
    /// Additional multiplier on the mixed budget when the mix involves
    /// sub-stripe accesses: small reads interleaved with small writes force
    /// XPLine read-modify-writes and thrash the XPBuffer, degrading both
    /// directions far beyond large-access mixes (FAST'20 §3.2).
    pub small_mix_budget: Curve,

    /// Weight of local (non-remote) effective concurrency when evaluating
    /// the remote-write collapse curve: remote writes are hurt mostly by
    /// *other remote* traffic, but local activity adds iMC pressure.
    pub remote_write_local_weight: f64,
    /// Extra efficiency factor for **sub-stripe remote writes**: scattered
    /// small stores combine poorly across UPI, the regime behind the
    /// paper's "under 1 GB/s beyond 3 concurrent remote ops" (§II-B,
    /// citing Peng et al.); large streaming writes are unaffected.
    pub remote_write_small_efficiency: f64,

    /// Fixed-point iterations for the duty-cycle ↔ rate computation.
    pub duty_iterations: usize,
}

impl DeviceProfile {
    /// First-generation Optane DC PMEM, 6 × 512 GB interleaved per socket —
    /// the paper's testbed. All constants cited in field docs.
    pub fn optane_gen1() -> Self {
        DeviceProfile {
            name: "optane-gen1".to_string(),
            stripe_bytes: 6 * 4096,
            capacity_bytes: 6 * 512 * 1_000_000_000,
            // Aggregate local read: ~4.4 GB/s for one thread, near-linear
            // to the 39.4 GB/s peak at 17 threads, gentle XPBuffer-thrash
            // decline beyond (FAST'20 Fig. 4; paper §II-B).
            local_read_bw: Curve::from_points(&[
                (0.0, 0.0),
                (1.0, 4.4 * GB),
                (4.0, 15.5 * GB),
                (8.0, 26.0 * GB),
                (12.0, 33.5 * GB),
                (17.0, 39.4 * GB),
                (24.0, 37.6 * GB),
                (48.0, 33.0 * GB),
            ]),
            // Aggregate local write: peaks at 13.9 GB/s with 4 writers,
            // declines under concurrency (FAST'20 Fig. 4; paper §II-B).
            local_write_bw: Curve::from_points(&[
                (0.0, 0.0),
                (1.0, 5.6 * GB),
                (2.0, 9.6 * GB),
                (4.0, 13.9 * GB),
                (8.0, 13.1 * GB),
                (16.0, 11.9 * GB),
                (24.0, 10.5 * GB),
                (48.0, 8.6 * GB),
            ]),
            // Remote reads: 1.3× at 24 concurrent (paper §II-B); the
            // low-concurrency penalty is calibrated (bin/tune) — loads
            // crossing UPI pay it even without contention.
            remote_read_penalty: Curve::from_points(&[
                (0.0, 1.21),
                (16.0, 1.21),
                (24.0, 1.3),
                (48.0, 1.55),
            ]),
            // Remote streaming writes: peak ~5 GB/s at 3 writers, collapsing
            // with concurrency (UPI + remote iMC pressure).
            // Calibrated against the paper's Table II winners (bin/tune):
            // remote streaming writes ride UPI efficiently up to ~a dozen
            // effective writers, then collapse as iMC/UPI queues saturate.
            remote_write_bw: Curve::from_points(&[
                (0.0, 0.0),
                (1.0, 5.4 * GB),
                (3.0, 11.0 * GB),
                (8.0, 10.5 * GB),
                (12.0, 10.5 * GB),
                (16.0, 7.6 * GB),
                (24.0, 4.7 * GB),
                (48.0, 3.5 * GB),
            ]),
            // Raw random small remote writes: the 15×-drop regime —
            // under 1 GB/s beyond 3 concurrent ops (paper §II-B).
            remote_write_bw_random: Curve::from_points(&[
                (0.0, 0.0),
                (1.0, 2.8 * GB),
                (3.0, 3.0 * GB),
                (4.0, 1.05 * GB),
                (8.0, 0.99 * GB),
                (16.0, 0.95 * GB),
                (24.0, 0.93 * GB),
                (48.0, 0.90 * GB),
            ]),
            read_latency_local: 169e-9,
            read_latency_remote: 380e-9,
            write_latency_local: 90e-9,
            write_latency_remote: 115e-9,
            st_read_small: 1.4 * GB,
            st_read_large: 4.4 * GB,
            st_write_small: 1.6 * GB,
            st_write_large: 5.6 * GB,
            st_small_size: 4096,
            st_large_size: 4 << 20,
            small_access_efficiency: 0.82,
            small_access_threads: 6.0,
            mix_budget: Curve::from_points(&[(0.0, 1.0), (8.1, 1.0), (16.1, 0.43), (48.0, 0.43)]),
            small_mix_budget: Curve::from_points(&[
                (0.0, 1.0),
                (6.9, 1.0),
                (12.9, 0.85),
                (48.0, 0.55),
            ]),
            remote_write_local_weight: 0.5,
            remote_write_small_efficiency: 1.0,
            duty_iterations: 8,
        }
    }

    /// Second-generation Optane PMEM ("Barlow Pass", 200 series) as a
    /// published-spec extrapolation: Intel's product brief quotes ~32 %
    /// higher memory bandwidth at the same idle latencies. Modeled as the
    /// gen-1 curves scaled 1.32× on every bandwidth axis, identical
    /// latencies, stripe and interference structure. Lets experiments
    /// ask whether the paper's recommendations survive the generation the
    /// authors never got to test (they mostly do — the asymmetries scale
    /// together).
    pub fn optane_gen2() -> Self {
        let g1 = Self::optane_gen1();
        DeviceProfile {
            name: "optane-gen2".to_string(),
            local_read_bw: g1.local_read_bw.scaled(1.32),
            local_write_bw: g1.local_write_bw.scaled(1.32),
            remote_write_bw: g1.remote_write_bw.scaled(1.32),
            remote_write_bw_random: g1.remote_write_bw_random.scaled(1.32),
            st_read_small: g1.st_read_small * 1.32,
            st_read_large: g1.st_read_large * 1.32,
            st_write_small: g1.st_write_small * 1.32,
            st_write_large: g1.st_write_large * 1.32,
            ..g1
        }
    }

    /// A hypothetical uniform device with no locality or direction
    /// asymmetry; used as an ablation baseline to show that *all* of the
    /// paper's placement effects disappear without the Optane asymmetries.
    pub fn symmetric_ideal(bandwidth: f64) -> Self {
        let flat = Curve::from_points(&[(0.0, 0.0), (1.0, bandwidth), (48.0, bandwidth)]);
        DeviceProfile {
            name: "symmetric-ideal".to_string(),
            stripe_bytes: 6 * 4096,
            capacity_bytes: 6 * 512 * 1_000_000_000,
            local_read_bw: flat.clone(),
            local_write_bw: flat.clone(),
            remote_read_penalty: Curve::from_points(&[(0.0, 1.0)]),
            remote_write_bw: flat,
            remote_write_bw_random: Curve::from_points(&[(0.0, bandwidth)]),
            read_latency_local: 100e-9,
            read_latency_remote: 100e-9,
            write_latency_local: 100e-9,
            write_latency_remote: 100e-9,
            st_read_small: bandwidth,
            st_read_large: bandwidth,
            st_write_small: bandwidth,
            st_write_large: bandwidth,
            st_small_size: 4096,
            st_large_size: 4 << 20,
            small_access_efficiency: 1.0,
            small_access_threads: 1e9,
            mix_budget: Curve::from_points(&[(0.0, 1.0)]),
            small_mix_budget: Curve::from_points(&[(0.0, 1.0)]),
            remote_write_local_weight: 0.5,
            remote_write_small_efficiency: 1.0,
            duty_iterations: 8,
        }
    }

    /// Single-thread device bandwidth for an access of `bytes` bytes in the
    /// given direction/locality. This is the cap a lone rank can draw.
    pub fn single_thread_rate(&self, dir: Direction, loc: Locality, bytes: u64) -> f64 {
        let (small, large) = match dir {
            Direction::Read => (self.st_read_small, self.st_read_large),
            Direction::Write => (self.st_write_small, self.st_write_large),
        };
        let base = log_size_interp(bytes, self.st_small_size, small, self.st_large_size, large);
        match (dir, loc) {
            (_, Locality::Local) => base,
            (Direction::Read, Locality::Remote) => {
                // Large streaming reads pay the (mild) remote bandwidth
                // penalty; small reads are *latency-bound* — each object
                // is a dependent chain of cache-line loads, so the rate
                // scales with the inverse latency ratio (169 ns local vs
                // ~310 ns remote). Blend by size like the plateaus.
                let small_factor = self.read_latency_local / self.read_latency_remote;
                let large_factor = 1.0 / self.remote_read_penalty.eval(1.0);
                let factor = log_size_interp(
                    bytes,
                    self.st_small_size,
                    small_factor,
                    self.st_large_size,
                    large_factor,
                );
                base * factor
            }
            (Direction::Write, Locality::Remote) => {
                // A single remote writer is limited by the remote-write
                // curve's single-thread point if that is tighter. Posted
                // writes pipeline across UPI, so small writes see no
                // latency-bound collapse (paper §VI-B).
                base.min(self.remote_write_bw.eval(1.0))
            }
        }
    }

    /// Like [`DeviceProfile::single_thread_rate`], but for a reader whose
    /// kernel interleaves `hide_frac ∈ [0, 1]` of the access latency with
    /// compute (paper §VIII: "Interleaved compute hides effects of access
    /// contention and high remote latency"). With full hiding, small remote
    /// reads stop being latency-chain-bound and behave like bandwidth-
    /// penalized streaming reads.
    pub fn single_thread_rate_with_hiding(
        &self,
        dir: Direction,
        loc: Locality,
        bytes: u64,
        hide_frac: f64,
    ) -> f64 {
        let base = self.single_thread_rate(dir, loc, bytes);
        if dir != Direction::Read || loc != Locality::Remote {
            return base;
        }
        let hide = hide_frac.clamp(0.0, 1.0);
        // Fully hidden: only the streaming bandwidth penalty remains.
        let (small, large) = (self.st_read_small, self.st_read_large);
        let unchained =
            log_size_interp(bytes, self.st_small_size, small, self.st_large_size, large)
                / self.remote_read_penalty.eval(1.0);
        base + (unchained - base) * hide
    }

    /// Per-operation device access latency (seconds). Added to the I/O
    /// stack's software cost when building flow attributes.
    pub fn latency(&self, dir: Direction, loc: Locality) -> f64 {
        match (dir, loc) {
            (Direction::Read, Locality::Local) => self.read_latency_local,
            (Direction::Read, Locality::Remote) => self.read_latency_remote,
            (Direction::Write, Locality::Local) => self.write_latency_local,
            (Direction::Write, Locality::Remote) => self.write_latency_remote,
        }
    }

    /// Queue-loaded per-operation latency (seconds) at effective
    /// concurrency `n_eff`. Idle latencies (90 ns writes / 169 ns reads,
    /// §II-B) grow as load approaches each direction's saturation point —
    /// Yang et al. (FAST'20 §3.2) measure read latencies climbing past a
    /// microsecond near the bandwidth ceiling, and write latencies
    /// exploding once the write-pending queue backs up (saturation at 4
    /// writers). Modeled as idle × (1 + k·(n/n_sat)²), capped at 30× idle.
    pub fn loaded_latency(&self, dir: Direction, loc: Locality, n_eff: f64) -> f64 {
        let idle = self.latency(dir, loc);
        let (n_sat, k) = match dir {
            // Reads scale to ~17 threads; at 24 the loaded latency is
            // roughly 5-6x idle (~1 us).
            Direction::Read => (self.local_read_bw.peak_x().max(1.0), 2.4),
            // Writes saturate at 4; beyond that the WPQ queues hard.
            Direction::Write => (self.local_write_bw.peak_x().max(1.0), 1.6),
        };
        let x = (n_eff / n_sat).max(0.0);
        (idle * (1.0 + k * x * x)).min(idle * 30.0)
    }

    /// Aggregate class capacity (bytes/s) for a flow class under
    /// `n_eff_total` total effective concurrency, of which `n_eff_remote`
    /// is remote, for accesses of `access_bytes`.
    pub fn class_capacity(
        &self,
        dir: Direction,
        loc: Locality,
        access_bytes: u64,
        n_eff_total: f64,
        n_eff_remote: f64,
    ) -> f64 {
        let mut cap = match (dir, loc) {
            (Direction::Read, Locality::Local) => self.local_read_bw.eval(n_eff_total),
            (Direction::Write, Locality::Local) => self.local_write_bw.eval(n_eff_total),
            (Direction::Read, Locality::Remote) => {
                self.local_read_bw.eval(n_eff_total)
                    / self.remote_read_penalty.eval(n_eff_remote.max(1.0))
            }
            (Direction::Write, Locality::Remote) => {
                let n = n_eff_remote
                    + self.remote_write_local_weight * (n_eff_total - n_eff_remote).max(0.0);
                let mut cap = self.remote_write_bw.eval(n.max(1.0));
                if (access_bytes as f64) < self.stripe_bytes as f64 {
                    cap *= self.remote_write_small_efficiency;
                }
                cap
            }
        };
        if (access_bytes as f64) < self.stripe_bytes as f64
            && n_eff_total >= self.small_access_threads
        {
            cap *= self.small_access_efficiency;
        }
        cap.max(1.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stripe_is_24kb() {
        let p = DeviceProfile::optane_gen1();
        assert_eq!(p.stripe_bytes, 24 * 1024);
    }

    #[test]
    fn remote_reads_pay_more_extra_latency_than_writes() {
        let p = DeviceProfile::optane_gen1();
        let extra = |dir| p.latency(dir, Locality::Remote) - p.latency(dir, Locality::Local);
        assert!(extra(Direction::Read) > 3.0 * extra(Direction::Write));
    }

    #[test]
    fn single_thread_rate_grows_with_size() {
        let p = DeviceProfile::optane_gen1();
        let small = p.single_thread_rate(Direction::Write, Locality::Local, 2048);
        let large = p.single_thread_rate(Direction::Write, Locality::Local, 64 << 20);
        assert!(large > 2.0 * small);
    }

    #[test]
    fn single_thread_remote_read_slower() {
        let p = DeviceProfile::optane_gen1();
        let l = p.single_thread_rate(Direction::Read, Locality::Local, 1 << 20);
        let r = p.single_thread_rate(Direction::Read, Locality::Remote, 1 << 20);
        assert!(r < l);
    }

    #[test]
    fn class_capacity_small_access_penalty() {
        let p = DeviceProfile::optane_gen1();
        let big = p.class_capacity(Direction::Read, Locality::Local, 64 << 20, 8.0, 0.0);
        let small = p.class_capacity(Direction::Read, Locality::Local, 2048, 8.0, 0.0);
        assert!((small / big - p.small_access_efficiency).abs() < 1e-9);
        // No penalty at low concurrency.
        let small_low = p.class_capacity(Direction::Read, Locality::Local, 2048, 2.0, 0.0);
        let big_low = p.class_capacity(Direction::Read, Locality::Local, 64 << 20, 2.0, 0.0);
        assert_eq!(small_low, big_low);
    }

    #[test]
    fn remote_write_capacity_collapses_with_concurrency() {
        let p = DeviceProfile::optane_gen1();
        let at3 = p.class_capacity(Direction::Write, Locality::Remote, 64 << 20, 3.0, 3.0);
        let at24 = p.class_capacity(Direction::Write, Locality::Remote, 64 << 20, 24.0, 24.0);
        assert!(at3 / at24 > 1.8, "{at3} vs {at24}");
    }

    #[test]
    fn loaded_latency_grows_with_concurrency_and_caps() {
        let p = DeviceProfile::optane_gen1();
        let idle = p.loaded_latency(Direction::Read, Locality::Local, 0.0);
        assert_eq!(idle, 169e-9);
        let mut prev = 0.0;
        for n in [1.0, 4.0, 8.0, 17.0, 24.0] {
            let l = p.loaded_latency(Direction::Read, Locality::Local, n);
            assert!(l >= prev);
            prev = l;
        }
        // ~1 us near 24 concurrent readers (FAST'20 magnitude).
        let at24 = p.loaded_latency(Direction::Read, Locality::Local, 24.0);
        assert!(at24 > 0.5e-6 && at24 < 2e-6, "{at24}");
        // Writes explode past their much earlier saturation point but are
        // capped at 30x idle.
        let w48 = p.loaded_latency(Direction::Write, Locality::Local, 48.0);
        assert_eq!(w48, 90e-9 * 30.0);
    }

    #[test]
    fn gen2_scales_bandwidth_keeps_latency() {
        let g1 = DeviceProfile::optane_gen1();
        let g2 = DeviceProfile::optane_gen2();
        assert!((g2.local_read_bw.peak() / g1.local_read_bw.peak() - 1.32).abs() < 1e-9);
        assert!((g2.local_write_bw.peak() / g1.local_write_bw.peak() - 1.32).abs() < 1e-9);
        assert_eq!(g2.read_latency_local, g1.read_latency_local);
        assert_eq!(g2.write_latency_local, g1.write_latency_local);
        assert_eq!(g2.stripe_bytes, g1.stripe_bytes);
        // The asymmetry ratios are preserved.
        let r1 = g1.local_write_bw.peak() / g1.remote_write_bw.eval(24.0);
        let r2 = g2.local_write_bw.peak() / g2.remote_write_bw.eval(24.0);
        assert!((r1 - r2).abs() < 1e-9);
    }

    #[test]
    fn symmetric_ideal_has_no_asymmetry() {
        let p = DeviceProfile::symmetric_ideal(10.0 * GB);
        let a = p.class_capacity(Direction::Write, Locality::Remote, 2048, 24.0, 24.0);
        let b = p.class_capacity(Direction::Read, Locality::Local, 64 << 20, 24.0, 0.0);
        assert_eq!(a, b);
        assert_eq!(
            p.latency(Direction::Read, Locality::Remote),
            p.latency(Direction::Write, Locality::Local)
        );
    }
}
