//! Randomized-but-deterministic tests of the I/O stacks against a
//! reference model.
//!
//! Both stores must behave like an in-memory map from (stream, version) to
//! payload, under arbitrary operation sequences, and must preserve every
//! committed version across crash/recover cycles regardless of where the
//! in-flight operation was cut. Operation sequences come from a seeded
//! generator, so every failure is exactly reproducible.

use pmemflow::des::rng::SplitMix64;
use pmemflow::iostack::{CrashPoint, NovaFs, NvStore, ObjectStore, StoreError};
use pmemflow::pmem::PmemRegion;
use std::collections::BTreeMap;

fn region(len: usize) -> PmemRegion {
    PmemRegion::new(len)
}

#[derive(Debug, Clone)]
enum Op {
    Put { stream: u8, data: Vec<u8> },
    Get { stream: u8, version: u64 },
    CrashRecover,
}

fn random_ops(rng: &mut SplitMix64) -> Vec<Op> {
    let n = rng.range_usize(1, 40);
    (0..n)
        .map(|_| match rng.range_u64(0, 3) {
            0 => {
                let len = rng.range_usize(1, 600);
                Op::Put {
                    stream: rng.range_u64(0, 4) as u8,
                    data: rng.bytes(len),
                }
            }
            1 => Op::Get {
                stream: rng.range_u64(0, 4) as u8,
                version: rng.range_u64(0, 8),
            },
            _ => Op::CrashRecover,
        })
        .collect()
}

/// Drive a store and the reference model through the same ops; every
/// observable must match.
fn check_against_reference<S, R>(ops: Vec<Op>, mut store: S, recover: R)
where
    S: ObjectStore,
    R: Fn(S) -> S,
{
    let mut reference: BTreeMap<(String, u64), Vec<u8>> = BTreeMap::new();
    let mut next_version: BTreeMap<String, u64> = BTreeMap::new();
    let mut current = Some(store);
    for op in ops {
        let s = current.as_mut().unwrap();
        match op {
            Op::Put { stream, data } => {
                let name = format!("s{stream}");
                let v = next_version.entry(name.clone()).or_insert(1);
                match s.put(&name, *v, &data) {
                    Ok(()) => {
                        reference.insert((name, *v), data);
                        *v += 1;
                    }
                    Err(StoreError::OutOfSpace) => { /* acceptable, state unchanged */ }
                    Err(e) => panic!("unexpected put error: {e}"),
                }
            }
            Op::Get { stream, version } => {
                let name = format!("s{stream}");
                let got = s.get(&name, version);
                match reference.get(&(name.clone(), version)) {
                    Some(want) => assert_eq!(got.as_deref().ok(), Some(want.as_slice())),
                    None => assert!(got.is_err(), "phantom version {name}:{version}"),
                }
            }
            Op::CrashRecover => {
                store = current.take().unwrap();
                store = recover(store);
                current = Some(store);
            }
        }
    }
    // Final audit: every committed version is readable and correct.
    let s = current.as_mut().unwrap();
    for ((name, v), want) in &reference {
        assert_eq!(&s.get(name, *v).unwrap(), want);
    }
}

#[test]
fn nvstream_matches_reference_model() {
    let mut rng = SplitMix64::new(0x105_0001);
    for _case in 0..48 {
        let ops = random_ops(&mut rng);
        let store = NvStore::format(region(1 << 20)).unwrap();
        check_against_reference(ops, store, |s: NvStore| {
            let mut r = s.into_region();
            r.crash();
            NvStore::recover(r).expect("recovery must succeed")
        });
    }
}

#[test]
fn nova_matches_reference_model() {
    let mut rng = SplitMix64::new(0x105_0002);
    for _case in 0..48 {
        let ops = random_ops(&mut rng);
        let store = NovaFs::format(region(1 << 20), 8, 64 * 1024).unwrap();
        check_against_reference(ops, store, |s: NovaFs| {
            let mut r = s.into_region();
            r.crash();
            NovaFs::recover(r).expect("recovery must succeed")
        });
    }
}

/// Crashing at any protocol point never corrupts the committed prefix and
/// never exposes the in-flight version.
#[test]
fn nvstream_crash_points_preserve_prefix() {
    let mut rng = SplitMix64::new(0x105_0003);
    for _case in 0..48 {
        let committed = rng.range_u64(1, 6);
        let len = rng.range_usize(1, 2000);
        let data = rng.bytes(len);
        let crash = [
            CrashPoint::AfterDataWrite,
            CrashPoint::AfterDataPersist,
            CrashPoint::AfterLogRecord,
        ][rng.range_usize(0, 3)];
        let mut s = NvStore::format(region(1 << 20)).unwrap();
        for v in 1..=committed {
            s.put("s", v, &data).unwrap();
        }
        s.put_with_crash("s", committed + 1, &data, crash).unwrap();
        let mut r = s.into_region();
        r.crash();
        let mut s2 = NvStore::recover(r).expect("consistent after crash");
        assert_eq!(s2.versions("s"), (1..=committed).collect::<Vec<_>>());
        for v in 1..=committed {
            assert_eq!(s2.get("s", v).unwrap(), data.clone());
        }
    }
}

#[test]
fn nova_crash_points_preserve_prefix() {
    let mut rng = SplitMix64::new(0x105_0004);
    for _case in 0..48 {
        let committed = rng.range_u64(1, 6);
        let len = rng.range_usize(1, 2000);
        let data = rng.bytes(len);
        let crash = [
            CrashPoint::AfterDataWrite,
            CrashPoint::AfterDataPersist,
            CrashPoint::AfterLogRecord,
        ][rng.range_usize(0, 3)];
        let mut s = NovaFs::format(region(1 << 20), 8, 64 * 1024).unwrap();
        for v in 1..=committed {
            s.put("s", v, &data).unwrap();
        }
        s.put_with_crash("s", committed + 1, &data, crash).unwrap();
        let mut r = s.into_region();
        r.crash();
        let mut s2 = NovaFs::recover(r).expect("consistent after crash");
        assert_eq!(s2.versions("s"), (1..=committed).collect::<Vec<_>>());
        for v in 1..=committed {
            assert_eq!(s2.get("s", v).unwrap(), data.clone());
        }
    }
}
