//! Randomized-but-deterministic tests of the device-model primitives
//! (seeded generator, reproducible failures).

use pmemflow_des::rng::SplitMix64;
use pmemflow_pmem::{Curve, DeviceProfile, PmemRegion, StoreMode};
use std::collections::BTreeMap;

/// Curve evaluation stays within the convex hull of the calibration points
/// and clamps at the boundaries.
#[test]
fn curve_eval_is_bounded() {
    let mut rng = SplitMix64::new(0xc0_0001);
    for _case in 0..256 {
        let n = rng.range_usize(2, 10);
        let mut points: BTreeMap<u32, f64> = BTreeMap::new();
        while points.len() < n {
            points.insert(rng.range_u64(0, 1000) as u32, rng.range_f64(0.0, 100.0));
        }
        let x = rng.range_f64(-10.0, 2000.0);
        let pts: Vec<(f64, f64)> = points.into_iter().map(|(x, y)| (x as f64, y)).collect();
        let lo = pts.iter().map(|p| p.1).fold(f64::INFINITY, f64::min);
        let hi = pts.iter().map(|p| p.1).fold(f64::NEG_INFINITY, f64::max);
        let c = Curve::new(pts);
        let y = c.eval(x);
        assert!(y >= lo - 1e-9 && y <= hi + 1e-9);
    }
}

/// Region: read-your-writes for arbitrary offsets/sizes/modes, and
/// persisted data survives a crash.
#[test]
fn region_read_your_writes_and_durability() {
    let mut rng = SplitMix64::new(0xc0_0003);
    let mut cases = 0;
    while cases < 256 {
        let offset = rng.range_u64(0, 60_000);
        let len = rng.range_usize(1, 2000);
        let data = rng.bytes(len);
        let cached = rng.next_bool();
        let mut r = PmemRegion::new(1 << 16);
        if offset as usize + data.len() > r.len() {
            continue;
        }
        cases += 1;
        let mode = if cached {
            StoreMode::Cached
        } else {
            StoreMode::NonTemporal
        };
        r.write(offset, &data, mode);
        let mut out = vec![0u8; data.len()];
        r.read(offset, &mut out);
        assert_eq!(&out, &data);
        // Persist and crash: still there.
        r.persist(offset, data.len() as u64);
        r.crash();
        let mut out2 = vec![0u8; data.len()];
        r.read(offset, &mut out2);
        assert_eq!(&out2, &data);
    }
}

/// Region: unpersisted data never survives a crash (reads return the
/// pre-write contents).
#[test]
fn region_unpersisted_is_lost() {
    let mut rng = SplitMix64::new(0xc0_0004);
    let mut cases = 0;
    while cases < 256 {
        let offset = rng.range_u64(0, 60_000);
        let len = rng.range_usize(1, 2000);
        let mut data = rng.bytes(len);
        for b in &mut data {
            *b = (*b % 255) + 1; // 1..=255, never 0
        }
        let cached = rng.next_bool();
        let mut r = PmemRegion::new(1 << 16);
        if offset as usize + data.len() > r.len() {
            continue;
        }
        cases += 1;
        let mode = if cached {
            StoreMode::Cached
        } else {
            StoreMode::NonTemporal
        };
        r.write(offset, &data, mode);
        r.crash();
        let mut out = vec![0xEEu8; data.len()];
        r.read(offset, &mut out);
        assert!(
            out.iter().all(|&b| b == 0),
            "unpersisted bytes visible after crash"
        );
    }
}

/// single_thread_rate is monotone in access size for every class.
#[test]
fn single_thread_rate_monotone_in_size() {
    use pmemflow_des::{Direction, Locality};
    let mut rng = SplitMix64::new(0xc0_0006);
    for _case in 0..256 {
        let n = rng.range_usize(2, 8);
        let mut sorted: Vec<u32> = (0..n).map(|_| rng.range_u64(6, 26) as u32).collect();
        sorted.sort_unstable();
        let p = DeviceProfile::optane_gen1();
        for dir in [Direction::Read, Direction::Write] {
            for loc in [Locality::Local, Locality::Remote] {
                let mut prev = 0.0;
                for pow in &sorted {
                    let rate = p.single_thread_rate(dir, loc, 1u64 << pow);
                    assert!(rate >= prev - 1e-6, "{dir:?} {loc:?} at 2^{pow}");
                    prev = rate;
                }
            }
        }
    }
}
