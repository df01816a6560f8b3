//! Randomized-but-deterministic tests of the fluid engine and the Optane
//! allocator: conservation, monotonicity, and bounds that must hold for
//! every workload shape. Each test sweeps a seeded sample of the input
//! space (fixed seed, so failures are exactly reproducible).

use pmemflow::des::rng::SplitMix64;
use pmemflow::des::{
    Action, ClassView, Direction, FairShareAllocator, FlowAttrs, Locality, RateAllocator,
    SimDuration, Simulation,
};
use pmemflow::pmem::{DeviceProfile, OptaneAllocator};

fn attrs(dir: Direction, loc: Locality, access: u64, sw_tpb: f64) -> FlowAttrs {
    let p = DeviceProfile::optane_gen1();
    FlowAttrs {
        direction: dir,
        locality: loc,
        access_bytes: access,
        sw_time_per_byte: sw_tpb,
        peak_device_rate: p.single_thread_rate(dir, loc, access),
    }
}

/// Bytes in == bytes out: the resource report accounts exactly the bytes
/// submitted, for arbitrary flow populations.
#[test]
fn engine_conserves_bytes() {
    let mut rng = SplitMix64::new(0xde5_0001);
    for _case in 0..64 {
        let n_flows = rng.range_usize(1, 12);
        let kb = rng.range_u64(1, 4096);
        let compute_ms = rng.range_u64(0, 50);
        let mut sim = Simulation::new();
        let r = sim.add_resource(Box::new(OptaneAllocator::new(DeviceProfile::optane_gen1())));
        let bytes = (kb * 1024) as f64;
        for i in 0..n_flows {
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
            sim.spawn(
                format!("p{i}"),
                vec![
                    Action::Compute(SimDuration::from_secs(compute_ms as f64 * 1e-3 * i as f64)),
                    Action::Io {
                        resource: r,
                        bytes,
                        attrs: attrs(dir, loc, 4096, 1e-10),
                    },
                ],
            );
        }
        let rep = sim.run().unwrap();
        let total = rep.resources[0].total_bytes();
        let expect = bytes * n_flows as f64;
        assert!(
            (total - expect).abs() / expect < 1e-6,
            "accounted {total} vs submitted {expect}"
        );
        // Per-process accounting too.
        for p in &rep.processes {
            assert!((p.io_bytes - bytes).abs() / bytes < 1e-6);
        }
    }
}

/// More capacity never slows anything down (fair-share model).
#[test]
fn more_capacity_is_never_slower() {
    let mut rng = SplitMix64::new(0xde5_0002);
    for _case in 0..64 {
        let n_flows = rng.range_usize(1, 10);
        let mb = rng.range_u64(1, 64);
        let cap_gb = rng.range_u64(1, 10);
        let run = |capacity: f64| {
            let mut sim = Simulation::new();
            let r = sim.add_resource(Box::new(FairShareAllocator::new(capacity)));
            for i in 0..n_flows {
                sim.spawn(
                    format!("p{i}"),
                    vec![Action::Io {
                        resource: r,
                        bytes: (mb * 1024 * 1024) as f64,
                        attrs: attrs(Direction::Write, Locality::Local, 1 << 20, 0.0),
                    }],
                );
            }
            sim.run().unwrap().end_time.seconds()
        };
        let slow = run(cap_gb as f64 * 1e9);
        let fast = run(cap_gb as f64 * 2e9);
        assert!(fast <= slow * (1.0 + 1e-9), "fast {fast} > slow {slow}");
    }
}

/// The Optane allocator's rates are always positive, never exceed the
/// intrinsic rate, and the aggregate never exceeds the best class peak.
#[test]
fn allocator_rates_are_bounded() {
    let mut rng = SplitMix64::new(0xde5_0003);
    let mut cases = 0;
    while cases < 64 {
        let n_w = rng.range_usize(0, 24);
        let n_r = rng.range_usize(0, 24);
        if n_w + n_r == 0 {
            continue;
        }
        cases += 1;
        let small = rng.next_bool();
        let sw_ns_per_kb = rng.range_u64(0, 4000);
        let access = if small { 2048 } else { 64 << 20 };
        let sw_tpb = sw_ns_per_kb as f64 * 1e-9 / 1024.0;
        // Classes in `FlowClass` order: reads before writes.
        let classes: Vec<ClassView> = [
            (attrs(Direction::Read, Locality::Local, access, sw_tpb), n_r),
            (
                attrs(Direction::Write, Locality::Remote, access, sw_tpb),
                n_w,
            ),
        ]
        .into_iter()
        .filter(|&(_, count)| count > 0)
        .map(|(attrs, count)| ClassView { attrs, count })
        .collect();
        let mut alloc = OptaneAllocator::new(DeviceProfile::optane_gen1());
        let mut rates = vec![0.0; n_w + n_r];
        alloc.allocate(&classes, &mut rates);
        let slots = (classes.iter()).flat_map(|c| std::iter::repeat_n(c.attrs, c.count));
        assert_eq!(slots.clone().count(), rates.len());
        let mut agg = 0.0;
        for (rate, attrs) in rates.iter().zip(slots) {
            assert!(*rate > 0.0);
            assert!(*rate <= attrs.intrinsic_rate() * (1.0 + 1e-9));
            agg += rate;
        }
        // Aggregate cannot beat the local read peak (the fastest class).
        assert!(agg <= 39.4e9 * 1.01, "aggregate {agg}");
    }
}

/// Engine determinism for arbitrary populations: two identical runs give
/// bit-identical end times.
#[test]
fn engine_is_deterministic() {
    let mut rng = SplitMix64::new(0xde5_0004);
    for _case in 0..64 {
        let n_flows = rng.range_usize(1, 8);
        let kb = rng.range_u64(1, 2048);
        let build = || {
            let mut sim = Simulation::new();
            let r = sim.add_resource(Box::new(OptaneAllocator::new(DeviceProfile::optane_gen1())));
            for i in 0..n_flows {
                sim.spawn(
                    format!("p{i}"),
                    vec![Action::Io {
                        resource: r,
                        bytes: (kb * 1024) as f64 * (i + 1) as f64,
                        attrs: attrs(Direction::Write, Locality::Local, 4096, 1e-10),
                    }],
                );
            }
            sim.run().unwrap().end_time.seconds()
        };
        assert_eq!(build().to_bits(), build().to_bits());
    }
}
