//! Benchmarks of the Optane rate allocator — the innermost loop of the
//! fluid engine (called once per simulated instant at which a resource's
//! flow set changed).
//!
//! Every case hands the allocator a flow set the way the engine does: the
//! flows grouped into one view per class, in class order. `warm` repeats
//! one flow set, so every call after the first is a memo hit. `cold`
//! cycles through more distinct sets than the memo holds, so every call is
//! a miss and runs the full damped fixed point. The numbered `cold` cases
//! have about one class per flow; `cold/2classes/20` has the suite's shape,
//! 20 flows of two classes, and `cold/2tied/20` has two classes whose
//! normalized caps tie. `warm/permuted/20` cycles through as many
//! interleavings of the suite-shaped set: each groups into the same class
//! views, so every call after the first is a hit.

use pmemflow_bench::harness::bench;
use pmemflow_des::rng::SplitMix64;
use pmemflow_des::{ClassView, Direction, FlowAttrs, FlowClass, Locality, RateAllocator};
use pmemflow_pmem::{DeviceProfile, OptaneAllocator};
use std::collections::HashSet;
use std::hint::black_box;

/// Distinct flow sets the cold and permuted cases cycle through: more than
/// the memo holds, so each set has been evicted before it comes round
/// again.
const COLD_SETS: usize = 300;

/// `flows` grouped into class views, in class order, as the engine hands
/// them to an allocator.
fn views(flows: &[FlowAttrs]) -> Vec<ClassView> {
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

/// `n` flows; `variant` perturbs the first flow's software cost so each
/// variant is a distinct memo key.
fn flows(n: usize, variant: usize) -> Vec<FlowAttrs> {
    let p = DeviceProfile::optane_gen1();
    (0..n)
        .map(|i| {
            let dir = if i % 2 == 0 {
                Direction::Write
            } else {
                Direction::Read
            };
            let loc = if i % 3 == 0 {
                Locality::Remote
            } else {
                Locality::Local
            };
            let access = if i % 2 == 0 { 2048 } else { 64 << 20 };
            let jitter = if i == 0 { variant as f64 * 1e-15 } else { 0.0 };
            FlowAttrs {
                direction: dir,
                locality: loc,
                access_bytes: access,
                sw_time_per_byte: 1e-10 * (i % 5) as f64 + jitter,
                peak_device_rate: p.single_thread_rate(dir, loc, access),
            }
        })
        .collect()
}

/// 20 flows of two classes: ten small local writes with software cost,
/// then ten large local reads. `tied` instead alternates two classes whose
/// intrinsic rate exceeds their capacity, so both are capped at the full
/// device. `variant` shifts one class's software cost for a distinct key.
fn two_classes(tied: bool, variant: usize) -> Vec<FlowAttrs> {
    let p = DeviceProfile::optane_gen1();
    let jitter = variant as f64 * 1e-15;
    let class = |dir, access, sw: f64, boost: f64| FlowAttrs {
        direction: dir,
        locality: Locality::Local,
        access_bytes: access,
        sw_time_per_byte: sw,
        peak_device_rate: p.single_thread_rate(dir, Locality::Local, access) * boost,
    };
    let (a, b) = if tied {
        (
            class(Direction::Write, 64 << 20, jitter, 1e3),
            class(Direction::Read, 64 << 20, 0.0, 1e3),
        )
    } else {
        (
            class(Direction::Write, 2048, 4e-10 + jitter, 1.0),
            class(Direction::Read, 64 << 20, 0.0, 1.0),
        )
    };
    (0..20)
        .map(|i| {
            if (tied && i % 2 == 0) || (!tied && i < 10) {
                a
            } else {
                b
            }
        })
        .collect()
}

/// `COLD_SETS` distinct orders of the suite-shaped set `two_classes(false,
/// 0)`: one multiset of classes, so one list of class views.
fn interleavings() -> Vec<Vec<ClassView>> {
    let base = two_classes(false, 0);
    let mut rng = SplitMix64::new(20);
    let (mut seen, mut sets) = (HashSet::new(), Vec::new());
    while sets.len() < COLD_SETS {
        let mut set = base.clone();
        for i in (1..set.len()).rev() {
            set.swap(i, rng.range_usize(0, i + 1));
        }
        let writes: Vec<bool> = (set.iter())
            .map(|f| f.direction == Direction::Write)
            .collect();
        if seen.insert(writes) {
            sets.push(views(&set));
        }
    }
    sets
}

/// Call one allocator on `sets` in turn.
fn cycle(name: &str, sets: &[Vec<ClassView>]) {
    let mut alloc = OptaneAllocator::new(DeviceProfile::optane_gen1());
    let mut rates = vec![0.0; sets[0].iter().map(|c| c.count).sum()];
    let mut next = 0;
    bench(name, || {
        alloc.allocate(black_box(&sets[next]), &mut rates);
        black_box(&rates);
        next = (next + 1) % sets.len();
    });
}

fn main() {
    for n in [1usize, 8, 16, 48] {
        let mut rates = vec![0.0; n];

        let mut alloc = OptaneAllocator::new(DeviceProfile::optane_gen1());
        let set = views(&flows(n, 0));
        bench(&format!("allocate/warm/{n}"), || {
            alloc.allocate(black_box(&set), &mut rates);
            black_box(&rates);
        });

        let sets: Vec<Vec<ClassView>> = (0..COLD_SETS).map(|v| views(&flows(n, v))).collect();
        cycle(&format!("allocate/cold/{n}"), &sets);
    }
    for (name, tied) in [
        ("allocate/cold/2classes/20", false),
        ("allocate/cold/2tied/20", true),
    ] {
        let sets: Vec<Vec<ClassView>> = (0..COLD_SETS)
            .map(|v| views(&two_classes(tied, v)))
            .collect();
        cycle(name, &sets);
    }

    cycle("allocate/warm/permuted/20", &interleavings());

    let caps: Vec<f64> = (0..48).map(|i| 1.0 + (i % 7) as f64).collect();
    let (mut order, mut out) = (Vec::new(), vec![0.0; caps.len()]);
    bench("water_fill/48", || {
        pmemflow_des::water_fill(black_box(&caps), 20.0, &mut order, &mut out);
        black_box(&out);
    });
}
