//! The allocator's memo is exact: a warm allocator, whose answers mostly
//! come from the memo, returns bit for bit what a fresh allocator computes,
//! across seeded streams of flow sets large enough to overflow and clear
//! the memo several times.

use pmemflow_des::rng::SplitMix64;
use pmemflow_des::{Direction, FlowAttrs, FlowView, Locality, RateAllocator};
use pmemflow_pmem::{DeviceProfile, OptaneAllocator};

fn allocate(alloc: &mut OptaneAllocator, flows: &[FlowView]) -> Vec<f64> {
    let mut rates = vec![f64::NAN; flows.len()];
    alloc.allocate(flows, &mut rates);
    rates
}

fn fresh(flows: &[FlowView]) -> Vec<f64> {
    allocate(
        &mut OptaneAllocator::new(DeviceProfile::optane_gen1()),
        flows,
    )
}

fn bits(rates: &[f64]) -> Vec<u64> {
    rates.iter().map(|r| r.to_bits()).collect()
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

/// Up to 48 flows, each of one of `classes`, with arbitrary bytes left.
fn random_set(rng: &mut SplitMix64, classes: &[FlowAttrs]) -> Vec<FlowView> {
    (0..rng.range_usize(1, 49))
        .map(|_| FlowView {
            attrs: classes[rng.range_usize(0, classes.len())],
            remaining: rng.range_f64(1.0, 1e10),
        })
        .collect()
}

#[test]
fn warm_allocator_matches_fresh_allocator_bitwise() {
    for seed in [0x3e30_0001u64, 0x3e30_0002] {
        let mut rng = SplitMix64::new(seed);
        let classes = random_classes(&mut rng);
        // A pool of distinct sets, larger than the memo, drawn from with
        // heavy repetition: recent sets hit, evicted ones miss again.
        let pool: Vec<Vec<FlowView>> = (0..400).map(|_| random_set(&mut rng, &classes)).collect();
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

#[test]
fn a_permutation_is_a_different_entry() {
    let read = attrs(Direction::Read, Locality::Local, 64 << 20, 0.0);
    let write = attrs(Direction::Write, Locality::Remote, 2048, 5e-10);
    let view = |attrs| FlowView {
        attrs,
        remaining: 1e9,
    };
    let ab = [view(read), view(read), view(write)];
    let ba = [view(write), view(read), view(read)];
    let mut warm = OptaneAllocator::new(DeviceProfile::optane_gen1());
    let rates_ab = allocate(&mut warm, &ab);
    let rates_ba = allocate(&mut warm, &ba);
    assert_eq!(warm.memoized(), 2, "each order is its own entry");
    assert_ne!(bits(&rates_ab), bits(&rates_ba));
    assert_eq!(bits(&rates_ba), bits(&fresh(&ba)));
}

#[test]
fn bytes_left_do_not_split_entries() {
    let mut rng = SplitMix64::new(0x3e30_0003);
    let classes = random_classes(&mut rng);
    let set = random_set(&mut rng, &classes);
    let mut drained = set.clone();
    for f in &mut drained {
        f.remaining *= 1e-6;
    }
    let mut warm = OptaneAllocator::new(DeviceProfile::optane_gen1());
    let first = allocate(&mut warm, &set);
    let second = allocate(&mut warm, &drained);
    assert_eq!(warm.memoized(), 1, "the drained set hits the same entry");
    assert_eq!(bits(&first), bits(&second));
}

/// The set whose miss clears a full memo must be keyed against the fresh
/// class table, or a later set that interns in another order would hit its
/// rates.
#[test]
fn the_set_that_clears_the_memo_is_keyed_afresh() {
    let a = attrs(Direction::Read, Locality::Local, 64 << 20, 0.0);
    let b = attrs(Direction::Write, Locality::Remote, 2048, 5e-10);
    let set = |classes: &[FlowAttrs]| -> Vec<FlowView> {
        classes
            .iter()
            .map(|&attrs| FlowView {
                attrs,
                remaining: 1e9,
            })
            .collect()
    };
    let mut warm = OptaneAllocator::new(DeviceProfile::optane_gen1());
    let mut k = 1;
    while warm.memoized() < 256 {
        allocate(&mut warm, &set(&vec![a; k]));
        k += 1;
    }
    allocate(&mut warm, &set(&[b, a]));
    assert_eq!(warm.memoized(), 1, "a miss on a full memo clears it");
    allocate(&mut warm, &set(&[b]));
    allocate(&mut warm, &set(&[a]));
    let ab = set(&[a, b]);
    assert_eq!(bits(&allocate(&mut warm, &ab)), bits(&fresh(&ab)));
}
