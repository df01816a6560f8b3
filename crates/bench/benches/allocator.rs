//! Benchmarks of the Optane rate allocator — the innermost loop of the
//! fluid engine (called on every flow arrival/departure).
//!
//! `warm` repeats one flow set, so every call after the first is a memo
//! hit. `cold` cycles through more distinct sets than the memo holds, so
//! every call is a miss and runs the full damped fixed point.

use pmemflow_bench::harness::bench;
use pmemflow_des::{Direction, FlowAttrs, FlowView, Locality, RateAllocator};
use pmemflow_pmem::{DeviceProfile, OptaneAllocator};
use std::hint::black_box;

/// Distinct flow sets the cold case cycles through: more than the memo
/// holds, so each set has been evicted before it comes round again.
const COLD_SETS: usize = 300;

/// `n` flows; `variant` perturbs the first flow's software cost so each
/// variant is a distinct memo key.
fn flows(n: usize, variant: usize) -> Vec<FlowView> {
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
            FlowView {
                attrs: FlowAttrs {
                    direction: dir,
                    locality: loc,
                    access_bytes: access,
                    sw_time_per_byte: 1e-10 * (i % 5) as f64 + jitter,
                    peak_device_rate: p.single_thread_rate(dir, loc, access),
                },
                remaining: 1e9,
            }
        })
        .collect()
}

fn main() {
    for n in [1usize, 8, 16, 48] {
        let mut rates = vec![0.0; n];

        let mut alloc = OptaneAllocator::new(DeviceProfile::optane_gen1());
        let fs = flows(n, 0);
        bench(&format!("allocate/warm/{n}"), || {
            alloc.allocate(black_box(&fs), &mut rates);
            black_box(&rates);
        });

        let mut alloc = OptaneAllocator::new(DeviceProfile::optane_gen1());
        let sets: Vec<Vec<FlowView>> = (0..COLD_SETS).map(|v| flows(n, v)).collect();
        let mut next = 0;
        bench(&format!("allocate/cold/{n}"), || {
            alloc.allocate(black_box(&sets[next]), &mut rates);
            black_box(&rates);
            next = (next + 1) % COLD_SETS;
        });
    }

    let caps: Vec<f64> = (0..48).map(|i| 1.0 + (i % 7) as f64).collect();
    let (mut order, mut out) = (Vec::new(), vec![0.0; caps.len()]);
    bench("water_fill/48", || {
        pmemflow_des::water_fill(black_box(&caps), 20.0, &mut order, &mut out);
        black_box(&out);
    });
}
