//! The allocator is exact twice over. Its per-class solve returns bit for
//! bit what a per-flow solve of the class-major expansion of its input
//! computes, and its memo returns bit for bit what a fresh allocator
//! computes, across seeded streams of flow sets large enough to overflow
//! and clear the memo several times. Run in the engine, its answer depends
//! on the multiset of flow classes, not on the order the flows arrived in.

use pmemflow_des::rng::SplitMix64;
use pmemflow_des::{
    water_fill, Action, ClassView, Direction, FlowAttrs, FlowClass, Locality, RateAllocator,
    Simulation,
};
use pmemflow_pmem::{DeviceProfile, OptaneAllocator};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

fn allocate(alloc: &mut OptaneAllocator, classes: &[ClassView]) -> Vec<f64> {
    let mut rates = vec![f64::NAN; classes.iter().map(|c| c.count).sum()];
    alloc.allocate(classes, &mut rates);
    rates
}

fn fresh(classes: &[ClassView]) -> Vec<f64> {
    allocate(
        &mut OptaneAllocator::new(DeviceProfile::optane_gen1()),
        classes,
    )
}

fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| r.to_bits()).collect()
}

/// The allocator's input for `flows`, as the engine builds it: one view
/// per class, in class order, with its number of flows.
fn views_of(flows: &[FlowAttrs]) -> Vec<ClassView> {
    let mut sorted = flows.to_vec();
    sorted.sort_by_key(FlowClass::of);
    let mut views: Vec<ClassView> = Vec::new();
    for attrs in sorted {
        match views.last_mut() {
            Some(v) if FlowClass::of(&v.attrs) == FlowClass::of(&attrs) => v.count += 1,
            _ => views.push(ClassView { attrs, count: 1 }),
        }
    }
    views
}

/// One flow per class-major slot of `views`.
fn expand(views: &[ClassView]) -> Vec<FlowAttrs> {
    (views.iter())
        .flat_map(|v| std::iter::repeat_n(v.attrs, v.count))
        .collect()
}

fn attrs(dir: Direction, loc: Locality, access: u64, sw_time_per_byte: f64) -> FlowAttrs {
    FlowAttrs {
        direction: dir,
        locality: loc,
        access_bytes: access,
        sw_time_per_byte,
        peak_device_rate: DeviceProfile::optane_gen1().single_thread_rate(dir, loc, access),
    }
}

/// Up to six flow classes drawn from the whole attribute space.
fn random_classes(rng: &mut SplitMix64) -> Vec<FlowAttrs> {
    (0..rng.range_usize(1, 7))
        .map(|_| {
            let dir = if rng.next_bool() {
                Direction::Read
            } else {
                Direction::Write
            };
            let loc = if rng.next_bool() {
                Locality::Remote
            } else {
                Locality::Local
            };
            let access = [2048u64, 4608, 1 << 20, 64 << 20][rng.range_usize(0, 4)];
            let sw = rng.range_u64(0, 3000) as f64 * 1e-9 / 1024.0;
            attrs(dir, loc, access, sw)
        })
        .collect()
}

/// Up to 48 flows, each of one of `classes`, grouped into class views.
fn random_set(rng: &mut SplitMix64, classes: &[FlowAttrs]) -> Vec<ClassView> {
    let flows: Vec<FlowAttrs> = (0..rng.range_usize(1, 49))
        .map(|_| classes[rng.range_usize(0, classes.len())])
        .collect();
    views_of(&flows)
}

#[test]
fn warm_allocator_matches_fresh_allocator_bitwise() {
    for seed in [0x3e30_0001u64, 0x3e30_0002] {
        let mut rng = SplitMix64::new(seed);
        let classes = random_classes(&mut rng);
        // A pool of distinct sets, larger than the memo, drawn from with
        // heavy repetition: recent sets hit, evicted ones miss again.
        let pool: Vec<Vec<ClassView>> = (0..400).map(|_| random_set(&mut rng, &classes)).collect();
        let expected: Vec<Vec<u64>> = pool.iter().map(|set| bits(&fresh(set))).collect();
        let mut warm = OptaneAllocator::new(DeviceProfile::optane_gen1());
        let (mut peak, mut clears) = (0, 0);
        for step in 0..3000 {
            // Half the draws come from a small hot subset.
            let i = if rng.next_bool() {
                rng.range_usize(0, 8)
            } else {
                rng.range_usize(0, pool.len())
            };
            let before = warm.memoized();
            let got = allocate(&mut warm, &pool[i]);
            assert_eq!(
                bits(&got),
                expected[i],
                "seed {seed:#x} step {step} set {i}"
            );
            if warm.memoized() < before {
                clears += 1;
            }
            peak = peak.max(warm.memoized());
        }
        assert!(clears >= 1, "the stream must overflow the memo");
        assert!(peak <= 256, "memo grew to {peak} sets");
    }
}

/// Forwards to a shared allocator and records every call: each class with
/// its slots' rate bits.
struct Recorder {
    alloc: Arc<Mutex<OptaneAllocator>>,
    calls: Arc<Mutex<Vec<Call>>>,
}

type Call = Vec<(FlowClass, Vec<u64>)>;

impl RateAllocator for Recorder {
    fn allocate(&mut self, classes: &[ClassView], rates: &mut [f64]) {
        self.alloc.lock().unwrap().allocate(classes, rates);
        let mut slots = rates.iter().map(|r| r.to_bits());
        let call = (classes.iter())
            .map(|c| {
                (
                    FlowClass::of(&c.attrs),
                    slots.by_ref().take(c.count).collect(),
                )
            })
            .collect();
        self.calls.lock().unwrap().push(call);
    }
}

/// Run `flows` on one device through `alloc`, one rank per flow, all
/// arriving at once in the given order. The k-th flow of a class moves
/// k + 1 GB. Returns every allocator call, and per class the I/O time
/// bits of its flows in arrival order.
fn run(
    alloc: &Arc<Mutex<OptaneAllocator>>,
    flows: &[FlowAttrs],
) -> (Vec<Call>, BTreeMap<FlowClass, Vec<u64>>) {
    let calls = Arc::default();
    let mut sim = Simulation::new();
    let device = sim.add_resource(Box::new(Recorder {
        alloc: Arc::clone(alloc),
        calls: Arc::clone(&calls),
    }));
    let mut members: BTreeMap<FlowClass, Vec<usize>> = BTreeMap::new();
    for (i, &attrs) in flows.iter().enumerate() {
        let of_class = members.entry(FlowClass::of(&attrs)).or_default();
        of_class.push(i);
        let io = Action::Io {
            resource: device,
            bytes: 1e9 * of_class.len() as f64,
            attrs,
        };
        sim.spawn(format!("r{i}"), vec![io]);
    }
    let report = sim.run().unwrap();
    let io_time = |i: usize| report.processes[i].io_time.seconds().to_bits();
    let per_class = (members.into_iter())
        .map(|(class, ranks)| (class, ranks.into_iter().map(io_time).collect()))
        .collect();
    let calls = std::mem::take(&mut *calls.lock().unwrap());
    (calls, per_class)
}

/// Shuffle `flows` in place (Fisher-Yates).
fn shuffle(rng: &mut SplitMix64, flows: &mut [FlowAttrs]) {
    for i in (1..flows.len()).rev() {
        flows.swap(i, rng.range_usize(0, i + 1));
    }
}

#[test]
fn interleavings_of_one_multiset_give_each_class_the_same_rates() {
    let p = DeviceProfile::optane_gen1();
    let allocator = || Arc::new(Mutex::new(OptaneAllocator::new(p.clone())));
    let mut rng = SplitMix64::new(0x3e30_0006);
    for set in 0..300 {
        let classes = sweep_classes(&mut rng, &p);
        let mut flows = sweep_set(&mut rng, &classes);
        let warm = allocator();
        let expected = run(&warm, &flows);
        let entries = warm.lock().unwrap().memoized();
        for round in 0..8 {
            shuffle(&mut rng, &mut flows);
            let at = format_args!("set {set} round {round}");
            assert_eq!(run(&allocator(), &flows), expected, "fresh, {at}");
            assert_eq!(run(&warm, &flows), expected, "warm, {at}");
        }
        let now = warm.lock().unwrap().memoized();
        assert_eq!(now, entries, "set {set}: every interleaving hits");
    }
}

/// A result never depends on the memo's clear history: the set whose miss
/// clears a full memo, and the sets after it, get what a fresh allocator
/// gives them.
#[test]
fn the_set_that_clears_the_memo_is_keyed_afresh() {
    let a = attrs(Direction::Read, Locality::Local, 64 << 20, 0.0);
    let b = attrs(Direction::Write, Locality::Remote, 2048, 5e-10);
    let set = |classes: &[FlowAttrs]| views_of(classes);
    let mut warm = OptaneAllocator::new(DeviceProfile::optane_gen1());
    let mut k = 1;
    while warm.memoized() < 256 {
        allocate(&mut warm, &set(&vec![a; k]));
        k += 1;
    }
    let ba = set(&[b, a]);
    assert_eq!(bits(&allocate(&mut warm, &ba)), bits(&fresh(&ba)));
    assert_eq!(warm.memoized(), 1, "a miss on a full memo clears it");
    allocate(&mut warm, &set(&[b]));
    allocate(&mut warm, &set(&[a]));
    let ab = set(&[a, b]);
    assert_eq!(bits(&allocate(&mut warm, &ab)), bits(&fresh(&ab)));
}

/// The allocator's contract: the per-flow solve of the class-major
/// expansion of `views`. `seen` records which cases the sweep reaches;
/// `interleaved` says whether the flows arrived with their classes
/// interleaved.
fn reference(
    p: &DeviceProfile,
    views: &[ClassView],
    interleaved: bool,
    seen: &mut Coverage,
) -> Vec<f64> {
    let flows = expand(views);
    let rates = per_flow_solve(p, &flows, seen);
    seen.set(interleaved, &class_numbers(&flows), &rates);
    rates
}

/// The per-flow solve the allocator's per-class one replaced: the same
/// damped rounds, with a capacity lookup, a cap and an intrinsic rate for
/// every flow and a full [`water_fill`] per round.
fn per_flow_solve(p: &DeviceProfile, flows: &[FlowAttrs], seen: &mut Coverage) -> Vec<f64> {
    let n = flows.len();
    let class_of = class_numbers(flows);
    let intrinsic: Vec<f64> = flows.iter().map(|f| f.intrinsic_rate()).collect();
    let mut duty = vec![1.0; n];
    let (mut caps, mut x_caps, mut x, mut rates) =
        (vec![0.0; n], vec![0.0; n], vec![0.0; n], vec![0.0; n]);
    let (mut order, mut class_caps) = (Vec::new(), Vec::new());
    let has = |dir| flows.iter().any(|f| f.direction == dir);
    let mixed = has(Direction::Read) && has(Direction::Write);
    let stripe = p.stripe_bytes;
    let any_small = flows.iter().any(|f| f.access_bytes < stripe);
    for _ in 0..p.duty_iterations {
        let n_eff_total: f64 = duty.iter().sum();
        let n_eff_remote: f64 = flows
            .iter()
            .zip(&duty)
            .filter(|(f, _)| f.locality == Locality::Remote)
            .map(|(_, d)| *d)
            .sum();
        class_caps.clear();
        for (a, cap) in flows.iter().zip(&mut caps) {
            let key = (a.direction, a.locality, a.access_bytes);
            *cap = match class_caps.iter().find(|(k, _)| *k == key) {
                Some(&(_, c)) => c,
                None => {
                    let c = p.class_capacity(
                        a.direction,
                        a.locality,
                        a.access_bytes,
                        n_eff_total.max(1.0),
                        n_eff_remote,
                    );
                    class_caps.push((key, c));
                    c
                }
            };
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
        for ((xc, &intr), &c) in x_caps.iter_mut().zip(&intrinsic).zip(&caps) {
            *xc = (intr / c).min(1.0);
        }
        seen.round(&class_of, &x_caps);
        water_fill(&x_caps, budget, &mut order, &mut x);
        for (i, f) in flows.iter().enumerate() {
            let r = (x[i] * caps[i]).min(intrinsic[i]).max(1.0);
            rates[i] = r;
            let d = f.duty_cycle(r).clamp(0.02, 1.0);
            duty[i] = 0.5 * duty[i] + 0.5 * d;
        }
    }
    rates
}

/// Number each flow's class (every attribute, floats by bits) in order of
/// first appearance.
fn class_numbers(flows: &[FlowAttrs]) -> Vec<usize> {
    let mut met = Vec::new();
    flows
        .iter()
        .map(|f| {
            let class = FlowClass::of(f);
            met.iter().position(|&c| c == class).unwrap_or_else(|| {
                met.push(class);
                met.len() - 1
            })
        })
        .collect()
}

/// How often the sweep reached the cases where a per-class solve could
/// part from a per-flow one.
#[derive(Debug, Default)]
struct Coverage {
    /// Sets whose flows arrived with classes interleaved, and where two
    /// classes tied on their normalized cap in some round: arrival order
    /// would fill them alternately, class order fills one after the other.
    tied_interleaved: usize,
    /// Sets where members of one class end with different rate bits: the
    /// water level landed inside that class.
    split_class: usize,
    /// Sets of a single class.
    single_class: usize,
    /// Whether a round of the set being solved had a tie.
    tied: bool,
}

impl Coverage {
    fn round(&mut self, class_of: &[usize], x_caps: &[f64]) {
        let mut met: Vec<(u64, usize)> = Vec::new();
        for (&c, x) in class_of.iter().zip(x_caps) {
            let level = x.to_bits();
            if !met.contains(&(level, c)) {
                self.tied |= met.iter().any(|&(l, _)| l == level);
                met.push((level, c));
            }
        }
    }

    fn set(&mut self, interleaved: bool, class_of: &[usize], rates: &[f64]) {
        self.tied_interleaved += (std::mem::take(&mut self.tied) && interleaved) as usize;
        let mut first = vec![None; class_of.len()];
        let mut split = false;
        for (&c, r) in class_of.iter().zip(rates) {
            split |= *first[c].get_or_insert(r.to_bits()) != r.to_bits();
        }
        self.split_class += split as usize;
        self.single_class += class_of.iter().all(|&c| c == 0) as usize;
    }
}

/// Up to six classes. Peak rates far above a single thread's make the
/// intrinsic rate exceed capacity, so several classes tie at a normalized
/// cap of 1; repeated (direction, locality, access) triples share a
/// capacity.
fn sweep_classes(rng: &mut SplitMix64, p: &DeviceProfile) -> Vec<FlowAttrs> {
    let triples = rng.range_usize(1, 4);
    let triple: Vec<(Direction, Locality, u64)> = (0..triples)
        .map(|_| {
            let dir = if rng.next_bool() {
                Direction::Read
            } else {
                Direction::Write
            };
            let loc = if rng.next_bool() {
                Locality::Remote
            } else {
                Locality::Local
            };
            (
                dir,
                loc,
                [2048u64, 4608, 1 << 20, 64 << 20][rng.range_usize(0, 4)],
            )
        })
        .collect();
    (0..rng.range_usize(1, 7))
        .map(|_| {
            let (dir, loc, access) = triple[rng.range_usize(0, triples)];
            let sw = if rng.next_bool() {
                0.0
            } else {
                rng.range_u64(1, 3000) as f64 * 1e-9 / 1024.0
            };
            let boost = [1.0, 1.0, 8.0, 1e3][rng.range_usize(0, 4)];
            FlowAttrs {
                direction: dir,
                locality: loc,
                access_bytes: access,
                sw_time_per_byte: sw,
                peak_device_rate: p.single_thread_rate(dir, loc, access) * boost,
            }
        })
        .collect()
}

/// Up to 64 flows of `classes` in arrival order, in runs of one class or
/// interleaved.
fn sweep_set(rng: &mut SplitMix64, classes: &[FlowAttrs]) -> Vec<FlowAttrs> {
    let mut c = 0;
    (0..rng.range_usize(1, 65))
        .map(|_| {
            if rng.next_bool() {
                c = rng.range_usize(0, classes.len());
            }
            classes[c]
        })
        .collect()
}

/// Whether a class comes back after another in `class_of`.
fn interleaves(class_of: &[usize]) -> bool {
    let mut left = vec![false; class_of.len()];
    let mut interleaved = false;
    for pair in class_of.windows(2) {
        if pair[0] != pair[1] {
            left[pair[0]] = true;
            interleaved |= left[pair[1]];
        }
    }
    interleaved
}

/// `sets` seeded sets, each grouped into class views as the engine groups
/// them and solved by the reference, a fresh allocator and one warm
/// allocator, which is also asked again for the set before.
fn sweep(seed: u64, sets: usize) -> Coverage {
    let p = DeviceProfile::optane_gen1();
    let mut rng = SplitMix64::new(seed);
    let mut seen = Coverage::default();
    let mut warm = OptaneAllocator::new(p.clone());
    let mut previous: Option<(Vec<ClassView>, Vec<u64>)> = None;
    for set in 0..sets {
        let classes = sweep_classes(&mut rng, &p);
        let flows = sweep_set(&mut rng, &classes);
        let views = views_of(&flows);
        let interleaved = interleaves(&class_numbers(&flows));
        let expected = bits(&reference(&p, &views, interleaved, &mut seen));
        let at = format_args!("seed {seed:#x} set {set}");
        assert_eq!(bits(&fresh(&views)), expected, "fresh, {at}");
        assert_eq!(bits(&allocate(&mut warm, &views)), expected, "warm, {at}");
        if let Some((views, expected)) = previous.take() {
            assert_eq!(bits(&allocate(&mut warm, &views)), expected, "again, {at}");
        }
        previous = Some((views, expected));
    }
    seen
}

#[test]
fn per_class_solve_matches_per_flow_reference_bitwise() {
    // Two halves on two threads keep a debug build within a few seconds.
    let halves: Vec<Coverage> = std::thread::scope(|scope| {
        let workers: Vec<_> = [0x3e30_0004u64, 0x3e30_0005]
            .map(|seed| scope.spawn(move || sweep(seed, 10_000)))
            .into();
        workers.into_iter().map(|w| w.join().unwrap()).collect()
    });
    let total = |field: fn(&Coverage) -> usize| halves.iter().map(field).sum::<usize>();
    assert!(total(|c| c.tied_interleaved) >= 1000, "{halves:?}");
    assert!(total(|c| c.split_class) >= 1000, "{halves:?}");
    assert!(total(|c| c.single_class) >= 1000, "{halves:?}");
}
