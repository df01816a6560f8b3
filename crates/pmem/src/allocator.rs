//! The Optane rate allocator — the heart of the performance model.
//!
//! Given the set of flows with in-flight I/O, the allocator decides how fast
//! each one progresses. The model:
//!
//! 1. **Effective concurrency.** A flow whose operations are dominated by
//!    software cost occupies the device only for its *duty cycle*. The
//!    device sees `n_eff = Σ duty_i`, not the rank count — reproducing the
//!    paper's observation that high software overheads (small objects,
//!    filesystem paths) lower PMEM contention (§VIII).
//! 2. **Class capacities.** Each (direction × locality) class has an
//!    aggregate capacity from the profile's empirical curves, evaluated at
//!    the effective concurrency, with the small-access DIMM-collision
//!    penalty applied per §II-B.
//! 3. **Normalized water-filling.** The device is one server: a flow
//!    progressing at end-to-end rate `r` against a class capacity `C`
//!    consumes `r / C` of the device's time on average. The budget is 1.0
//!    for a homogeneous flow set; when reads and writes overlap it follows
//!    the concurrency-dependent `mix_budget` curve (below 1 at scale —
//!    Optane mixes degrade worse than time-sharing), with an extra
//!    `small_mix_budget` factor when sub-stripe accesses are involved.
//!    Max-min fairness with per-flow intrinsic-rate caps.
//! 4. **Fixed point.** Duty cycles depend on allocated rates and vice
//!    versa; a few damped iterations converge (the mapping is monotone and
//!    bounded).
//!
//! The returned rates are *end-to-end* (software time included), which is
//! what the fluid engine integrates.
//!
//! # Memo
//!
//! A run revisits the same flow sets over and over: every rank of a
//! component issues the same phase each iteration, in varying
//! interleavings. Max-min fairness does not care which rank reached the
//! device first, and neither does the allocator: the engine hands it the
//! live flows grouped by [`FlowClass`], one [`ClassView`] per class in
//! class order, and it returns class-major rates, a pure function of that
//! multiset. The memo is keyed on it, each class with its count, built in
//! one pass over the views; a hit copies the stored rates out.
//!
//! The solve runs over class-major slots. Duty sums run over the slots,
//! and classes fill in ascending normalized cap, ties in class order: to
//! the bit, the per-flow solve of the flows in class-major order.
//!
//! The memo is *exact*: the profile cannot change after construction, so a
//! hit returns the very bits a fresh computation would. It is *bounded*: it
//! holds at most [`MEMO_CAPACITY`] flow sets and starts over when full,
//! which keeps most of the hits of an unbounded memo. One allocator serves
//! one simulation, so the memo lives for one run and is never shared
//! between threads.
//!
//! A call allocates nothing but the memo entry a miss adds: the key and the
//! solve's working arrays live in reused scratch. Each round takes each
//! class's capacity and normalized cap once and sorts classes, not flows;
//! only duty cycles stay per slot.

use crate::profile::DeviceProfile;
use pmemflow_des::{ClassView, Direction, FlowAttrs, FlowClass, Locality, RateAllocator};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Most flow sets the memo holds before it is cleared.
const MEMO_CAPACITY: usize = 256;

/// A class with its number of flows in a set.
type Counted = (FlowClass, usize);

/// Multiply-rotate word hasher for the memo. Its keys are short runs of
/// words the simulator derives from its workload models, never raw outside
/// input, and the memo is bounded, so SipHash's resistance to crafted
/// collisions buys nothing; hashing is a visible share of a hit.
#[derive(Default)]
struct WordHasher(u64);

impl WordHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, bytes: &[u8]) {
        bytes.iter().for_each(|&b| self.add(b.into()));
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
}

type Words = BuildHasherDefault<WordHasher>;

/// One class of the set being solved, with everything its members share:
/// their attributes, intrinsic rate, slots `start..end` and, per round,
/// capacity and normalized cap.
#[derive(Debug, Clone, Copy)]
struct Class {
    attrs: FlowAttrs,
    intrinsic: f64,
    start: usize,
    end: usize,
    cap: f64,
    x_cap: f64,
}

/// Working arrays reused across calls.
#[derive(Debug, Clone, Default)]
struct Scratch {
    /// The memo key: each class with its flow count, in class order.
    key: Vec<Counted>,
    /// Per slot: the rate and the duty cycle.
    rates: Vec<f64>,
    duty: Vec<f64>,
    classes: Vec<Class>,
    /// Classes in ascending `x_cap` order.
    order: Vec<usize>,
    /// This round's capacity per distinct (direction, locality, access).
    class_caps: Vec<((Direction, Locality, u64), f64)>,
}

/// Rate allocator implementing the Optane contention model for one socket's
/// PMEM device.
#[derive(Debug, Clone)]
pub struct OptaneAllocator {
    profile: DeviceProfile,
    memo: HashMap<Box<[Counted]>, Box<[f64]>, Words>,
    scratch: Scratch,
}

impl OptaneAllocator {
    /// Build an allocator from a device profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Self {
            profile,
            memo: HashMap::default(),
            scratch: Scratch::default(),
        }
    }

    /// The profile in use.
    pub fn profile(&self) -> &DeviceProfile {
        &self.profile
    }

    /// Number of flow sets currently memoized. Bounded: the memo clears
    /// itself when full.
    pub fn memoized(&self) -> usize {
        self.memo.len()
    }

    /// Compute the class-major rates of `views` into `scratch.rates`:
    /// `duty_iterations` damped rounds of capacity evaluation and
    /// water-filling, starting from full duty (pessimistic: maximum
    /// contention) and relaxing.
    fn solve(&mut self, views: &[ClassView]) {
        let p = &self.profile;
        let s = &mut self.scratch;
        s.classes.clear();
        let mut n = 0;
        for &ClassView { attrs, count } in views {
            let start = n;
            n += count;
            s.classes.push(Class {
                attrs,
                intrinsic: attrs.intrinsic_rate(),
                start,
                end: n,
                cap: 0.0,
                x_cap: 0.0,
            });
        }
        s.rates.clear();
        s.rates.resize(n, 0.0);
        s.duty.clear();
        s.duty.resize(n, 1.0);

        let has = |dir| s.classes.iter().any(|c| c.attrs.direction == dir);
        let mixed = has(Direction::Read) && has(Direction::Write);
        let stripe = p.geometry.stripe_bytes();
        let any_small = s.classes.iter().any(|c| c.attrs.access_bytes < stripe);

        for _ in 0..p.duty_iterations {
            let n_eff_total: f64 = s.duty.iter().sum();
            let n_eff_remote: f64 = (s.classes.iter())
                .filter(|c| c.attrs.locality == Locality::Remote)
                .flat_map(|c| &s.duty[c.start..c.end])
                .sum();

            // Classes that differ only in software cost or peak rate share
            // a capacity: evaluate it once per (direction, locality, access).
            s.class_caps.clear();
            for c in &mut s.classes {
                let a = &c.attrs;
                let key = (a.direction, a.locality, a.access_bytes);
                c.cap = match s.class_caps.iter().find(|(k, _)| *k == key) {
                    Some(&(_, cap)) => cap,
                    None => {
                        let cap = p.class_capacity(
                            a.direction,
                            a.locality,
                            a.access_bytes,
                            n_eff_total.max(1.0),
                            n_eff_remote,
                        );
                        s.class_caps.push((key, cap));
                        cap
                    }
                };
                // Normalized water-filling on *end-to-end* rates: a flow
                // running at end-to-end rate `r` against class capacity `C`
                // consumes `r / C` of the device on average (its software
                // time is off-device), so the budget constraint is
                // Σ rᵢ/Cᵢ ≤ B with per-flow caps at the intrinsic
                // (uncontended) rate.
                c.x_cap = (c.intrinsic / c.cap).min(1.0);
            }

            let budget = if mixed {
                let b = p.mix_budget.eval(n_eff_total);
                if any_small {
                    b * p.small_mix_budget.eval(n_eff_total)
                } else {
                    b
                }
            } else {
                1.0
            };

            // The sweep of `pmemflow_des::water_fill` over the slots:
            // ascending normalized cap, ties in class order.
            s.order.clear();
            s.order.extend(0..s.classes.len());
            let x_cap = |c: usize| s.classes[c].x_cap;
            s.order
                .sort_unstable_by(|&a, &b| x_cap(a).total_cmp(&x_cap(b)).then(a.cmp(&b)));
            let mut left = budget.max(0.0);
            let mut remaining = n;
            for c in s.order.iter().map(|&c| &s.classes[c]) {
                for i in c.start..c.end {
                    let x = c.x_cap.min(left / remaining as f64).max(0.0);
                    left = (left - x).max(0.0);
                    remaining -= 1;
                    let r = (x * c.cap).min(c.intrinsic).max(1.0);
                    s.rates[i] = r;
                    // Damped duty update for stability.
                    let d = c.attrs.duty_cycle(r).clamp(0.02, 1.0);
                    s.duty[i] = 0.5 * s.duty[i] + 0.5 * d;
                }
            }
        }
    }
}

impl RateAllocator for OptaneAllocator {
    fn allocate(&mut self, classes: &[ClassView], rates: &mut [f64]) {
        let key = &mut self.scratch.key;
        key.clear();
        key.extend(classes.iter().map(|c| (FlowClass::of(&c.attrs), c.count)));
        if let Some(hit) = self.memo.get(key.as_slice()) {
            rates.copy_from_slice(hit);
            return;
        }
        self.solve(classes);
        if self.memo.len() >= MEMO_CAPACITY {
            self.memo.clear();
        }
        let s = &self.scratch;
        rates.copy_from_slice(&s.rates);
        self.memo
            .insert(s.key.as_slice().into(), s.rates.as_slice().into());
    }

    fn name(&self) -> &str {
        "optane"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::GB;

    fn profile() -> DeviceProfile {
        DeviceProfile::optane_gen1()
    }

    fn flow(dir: Direction, loc: Locality, access: u64, sw_tpb: f64) -> FlowAttrs {
        FlowAttrs {
            direction: dir,
            locality: loc,
            access_bytes: access,
            sw_time_per_byte: sw_tpb,
            peak_device_rate: profile().single_thread_rate(dir, loc, access),
        }
    }

    /// Each flow's rate, handed out as the engine does: the flows grouped
    /// into class views, the k-th flow of a class taking its k-th slot.
    fn allocate(a: &mut OptaneAllocator, flows: &[FlowAttrs]) -> Vec<f64> {
        let mut order: Vec<usize> = (0..flows.len()).collect();
        order.sort_by_key(|&i| FlowClass::of(&flows[i]));
        let mut views: Vec<ClassView> = Vec::new();
        for &i in &order {
            match views.last_mut() {
                Some(v) if FlowClass::of(&v.attrs) == FlowClass::of(&flows[i]) => v.count += 1,
                _ => views.push(ClassView {
                    attrs: flows[i],
                    count: 1,
                }),
            }
        }
        let mut solved = vec![0.0; flows.len()];
        a.allocate(&views, &mut solved);
        let mut rates = vec![0.0; flows.len()];
        for (&i, r) in order.iter().zip(solved) {
            rates[i] = r;
        }
        rates
    }

    fn total(rates: &[f64]) -> f64 {
        rates.iter().sum()
    }

    #[test]
    fn single_writer_gets_single_thread_rate() {
        let mut a = OptaneAllocator::new(profile());
        let f = flow(Direction::Write, Locality::Local, 64 << 20, 0.0);
        let rates = allocate(&mut a, std::slice::from_ref(&f));
        assert!((rates[0] - f.peak_device_rate).abs() / rates[0] < 0.01);
    }

    #[test]
    fn local_writes_saturate_near_curve() {
        let mut a = OptaneAllocator::new(profile());
        let flows: Vec<_> = (0..8)
            .map(|_| flow(Direction::Write, Locality::Local, 64 << 20, 0.0))
            .collect();
        let rates = allocate(&mut a, &flows);
        let agg = total(&rates);
        let expect = profile().local_write_bw.eval(8.0);
        assert!(
            (agg - expect).abs() / expect < 0.05,
            "agg {agg} vs {expect}"
        );
    }

    #[test]
    fn local_reads_scale_higher_than_writes() {
        let mut a = OptaneAllocator::new(profile());
        let rf: Vec<_> = (0..17)
            .map(|_| flow(Direction::Read, Locality::Local, 64 << 20, 0.0))
            .collect();
        let wf: Vec<_> = (0..17)
            .map(|_| flow(Direction::Write, Locality::Local, 64 << 20, 0.0))
            .collect();
        let r = total(&allocate(&mut a, &rf));
        let w = total(&allocate(&mut a, &wf));
        assert!(r > 2.0 * w, "reads {r} writes {w}");
        assert!(r > 35.0 * GB);
    }

    #[test]
    fn remote_writes_collapse_vs_local() {
        let mut a = OptaneAllocator::new(profile());
        let loc: Vec<_> = (0..24)
            .map(|_| flow(Direction::Write, Locality::Local, 64 << 20, 0.0))
            .collect();
        let rem: Vec<_> = (0..24)
            .map(|_| flow(Direction::Write, Locality::Remote, 64 << 20, 0.0))
            .collect();
        let l = total(&allocate(&mut a, &loc));
        let r = total(&allocate(&mut a, &rem));
        assert!(l / r > 1.5, "local {l} remote {r}");
    }

    #[test]
    fn remote_reads_mildly_penalized() {
        let mut a = OptaneAllocator::new(profile());
        let loc: Vec<_> = (0..24)
            .map(|_| flow(Direction::Read, Locality::Local, 64 << 20, 0.0))
            .collect();
        let rem: Vec<_> = (0..24)
            .map(|_| flow(Direction::Read, Locality::Remote, 64 << 20, 0.0))
            .collect();
        let l = total(&allocate(&mut a, &loc));
        let r = total(&allocate(&mut a, &rem));
        let ratio = l / r;
        assert!(ratio > 1.15 && ratio < 1.5, "ratio {ratio}");
    }

    #[test]
    fn software_overhead_lowers_effective_contention() {
        // 24 writers of small objects with heavy software cost should see a
        // *better* aggregate device share than their duty-1 equivalent,
        // because the device never sees 24 concurrent operations.
        let mut a = OptaneAllocator::new(profile());
        let heavy_sw: Vec<_> = (0..24)
            .map(|_| flow(Direction::Write, Locality::Local, 2048, 1.5e-9))
            .collect();
        let rates = allocate(&mut a, &heavy_sw);
        // Compare against a naive model that charges every rank as fully
        // concurrent (duty = 1): capacity evaluated at n = 24 and split 24
        // ways. The duty-cycle model must do better, because the device
        // never actually sees 24 concurrent operations.
        let p = profile();
        let naive_cap = p.class_capacity(Direction::Write, Locality::Local, 2048, 24.0, 0.0);
        let naive_dev = naive_cap / 24.0;
        let naive_rate = 1.0 / (heavy_sw[0].sw_time_per_byte + 1.0 / naive_dev);
        for (r, f) in rates.iter().zip(heavy_sw.iter()) {
            let intr = f.intrinsic_rate();
            assert!(*r > naive_rate, "rate {r} vs naive {naive_rate}");
            assert!(*r > 0.5 * intr, "rate {r} vs intrinsic {intr}");
        }
    }

    #[test]
    fn mixed_read_write_contends() {
        let mut a = OptaneAllocator::new(profile());
        let mut flows: Vec<_> = (0..12)
            .map(|_| flow(Direction::Write, Locality::Local, 64 << 20, 0.0))
            .collect();
        flows.extend((0..12).map(|_| flow(Direction::Read, Locality::Remote, 64 << 20, 0.0)));
        let rates = allocate(&mut a, &flows);
        let w_mixed: f64 = rates[..12].iter().sum();
        // Pure-write baseline at the same writer count.
        let pure: Vec<_> = (0..12)
            .map(|_| flow(Direction::Write, Locality::Local, 64 << 20, 0.0))
            .collect();
        let w_pure = total(&allocate(&mut a, &pure));
        assert!(
            w_mixed < w_pure,
            "mixed writes {w_mixed} should be slower than pure {w_pure}"
        );
    }

    #[test]
    fn rates_never_exceed_intrinsic() {
        let mut a = OptaneAllocator::new(profile());
        for n in [1usize, 4, 16, 48] {
            let flows: Vec<_> = (0..n)
                .map(|i| {
                    let dir = if i % 2 == 0 {
                        Direction::Read
                    } else {
                        Direction::Write
                    };
                    let loc = if i % 3 == 0 {
                        Locality::Remote
                    } else {
                        Locality::Local
                    };
                    flow(dir, loc, if i % 2 == 0 { 2048 } else { 64 << 20 }, 2e-10)
                })
                .collect();
            for (r, f) in allocate(&mut a, &flows).iter().zip(flows.iter()) {
                assert!(*r <= f.intrinsic_rate() * (1.0 + 1e-9));
                assert!(*r > 0.0);
            }
        }
    }

    #[test]
    fn deterministic_allocation() {
        let mut a = OptaneAllocator::new(profile());
        let flows: Vec<_> = (0..9)
            .map(|i| {
                flow(
                    if i % 2 == 0 {
                        Direction::Read
                    } else {
                        Direction::Write
                    },
                    if i < 4 {
                        Locality::Local
                    } else {
                        Locality::Remote
                    },
                    4096 << i,
                    1e-10 * i as f64,
                )
            })
            .collect();
        let r1 = allocate(&mut a, &flows);
        let r2 = allocate(&mut a, &flows);
        for (a, b) in r1.iter().zip(r2.iter()) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }
}
