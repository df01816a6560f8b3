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
//! component issues the same phase each iteration, so the engine asks for
//! the same allocation again and again (81% of the suite's 145,588 calls
//! are memo hits). The allocator therefore remembers its answers, keyed by
//! the exact ordered sequence of flow classes. A class is all five
//! [`FlowAttrs`] fields, with the `f64` fields compared bit for bit.
//!
//! The memo is *exact*: the rates are a pure function of that sequence and
//! of the profile, which cannot change after construction, and the
//! allocator never reads [`FlowView::remaining`]. A hit therefore returns
//! the very bits a fresh computation would. Sets that differ only in bytes
//! left share one entry; the same classes in another order do not.
//!
//! The memo is *bounded*: it holds at most [`MEMO_CAPACITY`] flow sets and
//! starts over when full. One allocator serves one simulation, so the memo
//! lives for one run and is never shared between threads. Clearing when
//! full keeps most of the hits of an unbounded memo while the largest runs
//! would otherwise accumulate thousands of sets. Keys are compact: each
//! class is interned to an index into a table that is emptied with the
//! memo, so an entry costs 12 bytes per flow (index plus rate).
//!
//! A miss does not allocate beyond the memo entry it adds: every working
//! array lives in reused scratch. It solves per class, not per flow: it
//! groups the flows by class and takes each class's intrinsic rate once
//! per call, and each round takes each class's capacity and normalized cap
//! once and sorts classes, not flows. Only duty cycles stay per flow. The
//! duty sums and water-filling's running share step through the flows in
//! the order of [`pmemflow_des::water_fill`] with its float operations, so
//! the rates match a per-flow solve to the bit.

use crate::profile::DeviceProfile;
use pmemflow_des::{Direction, FlowAttrs, FlowView, Locality, RateAllocator};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Most flow sets the memo holds before it is cleared.
const MEMO_CAPACITY: usize = 256;

/// One flow's memo identity: every [`FlowAttrs`] field, floats by bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct FlowClass {
    direction: Direction,
    locality: Locality,
    access_bytes: u64,
    sw_time_per_byte: u64,
    peak_device_rate: u64,
}

impl FlowClass {
    fn of(a: &FlowAttrs) -> Self {
        Self {
            direction: a.direction,
            locality: a.locality,
            access_bytes: a.access_bytes,
            sw_time_per_byte: a.sw_time_per_byte.to_bits(),
            peak_device_rate: a.peak_device_rate.to_bits(),
        }
    }
}

/// Multiply-rotate word hasher for the memo tables. Their keys are short
/// runs of words the simulator derives from its workload models, never raw
/// outside input, and both tables are bounded with the memo, so SipHash's
/// resistance to crafted collisions buys nothing; hashing is a visible
/// share of a hit.
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
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }

    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }

    fn write_isize(&mut self, v: isize) {
        self.add(v as u64);
    }
}

type Words = BuildHasherDefault<WordHasher>;

/// One distinct class of the set being solved, with everything its members
/// share: their attributes, intrinsic rate and, per round, capacity and
/// normalized cap.
#[derive(Debug, Clone, Copy)]
struct Class {
    id: u32,
    attrs: FlowAttrs,
    intrinsic: f64,
    cap: f64,
    x_cap: f64,
}

/// Working arrays reused across calls.
#[derive(Debug, Clone, Default)]
struct Scratch {
    key: Vec<u32>,
    /// Per flow: its index in `classes`.
    class_of: Vec<usize>,
    duty: Vec<f64>,
    classes: Vec<Class>,
    /// Flow indices grouped by class, ascending within a class: class `c`
    /// owns `members[start[c]..start[c + 1]]`.
    members: Vec<usize>,
    start: Vec<usize>,
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
    memo: HashMap<Box<[u32]>, Box<[f64]>, Words>,
    /// Memo keys name each class by its index here. Emptied with the memo.
    class_ids: HashMap<FlowClass, u32, Words>,
    scratch: Scratch,
}

impl OptaneAllocator {
    /// Build an allocator from a device profile.
    pub fn new(profile: DeviceProfile) -> Self {
        Self {
            profile,
            memo: HashMap::default(),
            class_ids: HashMap::default(),
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

    /// Build the memo key for `flows` in `scratch.key`: one class index per
    /// flow, interning classes not seen since the memo was last cleared.
    fn intern(&mut self, flows: &[FlowView]) {
        let key = &mut self.scratch.key;
        key.clear();
        // Neighbouring flows usually share a class (ranks of one
        // component), so only a change of class needs a table lookup.
        let mut last: Option<(FlowClass, u32)> = None;
        for f in flows {
            let class = FlowClass::of(&f.attrs);
            let id = match last {
                Some((c, id)) if c == class => id,
                _ => {
                    let next = self.class_ids.len() as u32;
                    *self.class_ids.entry(class).or_insert(next)
                }
            };
            last = Some((class, id));
            key.push(id);
        }
    }

    /// Compute rates from scratch: `duty_iterations` damped rounds of
    /// capacity evaluation and water-filling, starting from full duty
    /// (pessimistic: maximum contention) and relaxing.
    fn solve(&mut self, flows: &[FlowView], rates: &mut [f64]) {
        let p = &self.profile;
        let s = &mut self.scratch;
        let n = flows.len();
        s.classes.clear();
        s.class_of.clear();
        for (f, &id) in flows.iter().zip(&s.key) {
            let found = match s.class_of.last() {
                Some(&c) if s.classes[c].id == id => Some(c),
                _ => s.classes.iter().position(|c| c.id == id),
            };
            s.class_of.push(found.unwrap_or_else(|| {
                s.classes.push(Class {
                    id,
                    attrs: f.attrs,
                    intrinsic: f.attrs.intrinsic_rate(),
                    cap: 0.0,
                    x_cap: 0.0,
                });
                s.classes.len() - 1
            }));
        }
        // Counting sort by class: `start[c + 1]` is class `c`'s fill cursor.
        let k = s.classes.len();
        s.start.clear();
        s.start.resize(k + 2, 0);
        s.class_of.iter().for_each(|&c| s.start[c + 2] += 1);
        (2..k + 2).for_each(|c| s.start[c] += s.start[c - 1]);
        s.members.resize(n, 0);
        for (i, &c) in s.class_of.iter().enumerate() {
            s.members[s.start[c + 1]] = i;
            s.start[c + 1] += 1;
        }
        s.duty.clear();
        s.duty.resize(n, 1.0);

        let has = |dir| s.classes.iter().any(|c| c.attrs.direction == dir);
        let mixed = has(Direction::Read) && has(Direction::Write);
        let stripe = p.geometry.stripe_bytes();
        let any_small = s.classes.iter().any(|c| c.attrs.access_bytes < stripe);

        for _ in 0..p.duty_iterations {
            let n_eff_total: f64 = s.duty.iter().sum();
            let n_eff_remote: f64 = (s.duty.iter().zip(&s.class_of))
                .filter(|&(_, &c)| s.classes[c].attrs.locality == Locality::Remote)
                .map(|(d, _)| *d)
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

            let mut left = budget.max(0.0);
            let mut remaining = n;
            // One step of `water_fill`'s sweep, then the flow's rate.
            let mut fill = |i: usize, c: &Class| {
                let x = c.x_cap.min(left / remaining as f64).max(0.0);
                left = (left - x).max(0.0);
                remaining -= 1;
                let r = (x * c.cap).min(c.intrinsic).max(1.0);
                rates[i] = r;
                // Damped duty update for stability.
                let d = c.attrs.duty_cycle(r).clamp(0.02, 1.0);
                s.duty[i] = 0.5 * s.duty[i] + 0.5 * d;
            };
            s.order.clear();
            s.order.extend(0..k);
            let x_cap = |c: usize| s.classes[c].x_cap;
            s.order
                .sort_unstable_by(|&a, &b| x_cap(a).total_cmp(&x_cap(b)));
            for tied in s
                .order
                .chunk_by(|&a, &b| x_cap(a).to_bits() == x_cap(b).to_bits())
            {
                if let [c] = *tied {
                    for &i in &s.members[s.start[c]..s.start[c + 1]] {
                        fill(i, &s.classes[c]);
                    }
                } else {
                    // Equal caps fill in flow order, whatever their class.
                    let level = x_cap(tied[0]).to_bits();
                    for (i, &c) in s.class_of.iter().enumerate() {
                        if x_cap(c).to_bits() == level {
                            fill(i, &s.classes[c]);
                        }
                    }
                }
            }
        }
    }
}

impl RateAllocator for OptaneAllocator {
    fn allocate(&mut self, flows: &[FlowView], rates: &mut [f64]) {
        self.intern(flows);
        if let Some(hit) = self.memo.get(self.scratch.key.as_slice()) {
            rates.copy_from_slice(hit);
            return;
        }
        self.solve(flows, rates);
        if self.memo.len() >= MEMO_CAPACITY {
            self.memo.clear();
            self.class_ids.clear();
            self.intern(flows);
        }
        self.memo
            .insert(self.scratch.key.as_slice().into(), (&*rates).into());
    }

    fn name(&self) -> &str {
        "optane"
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::GB;
    use pmemflow_des::FlowAttrs;

    fn profile() -> DeviceProfile {
        DeviceProfile::optane_gen1()
    }

    fn flow(dir: Direction, loc: Locality, access: u64, sw_tpb: f64) -> FlowView {
        let p = profile();
        FlowView {
            attrs: FlowAttrs {
                direction: dir,
                locality: loc,
                access_bytes: access,
                sw_time_per_byte: sw_tpb,
                peak_device_rate: p.single_thread_rate(dir, loc, access),
            },
            remaining: 1e9,
        }
    }

    fn allocate(a: &mut OptaneAllocator, flows: &[FlowView]) -> Vec<f64> {
        let mut rates = vec![0.0; flows.len()];
        a.allocate(flows, &mut rates);
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
        assert!((rates[0] - f.attrs.peak_device_rate).abs() / rates[0] < 0.01);
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
        let naive_rate = heavy_sw[0].attrs.end_to_end_rate(naive_dev);
        for (r, f) in rates.iter().zip(heavy_sw.iter()) {
            let intr = f.attrs.intrinsic_rate();
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
                assert!(*r <= f.attrs.intrinsic_rate() * (1.0 + 1e-9));
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
