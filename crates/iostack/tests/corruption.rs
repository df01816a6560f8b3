//! Corruption-detection tests: recovery and reads must *detect* damaged
//! persistent state, never silently return wrong data.

use pmemflow_iostack::{NovaFs, NvStore, ObjectStore, StoreError};
use pmemflow_pmem::{PmemRegion, StoreMode};

fn region(len: usize) -> PmemRegion {
    PmemRegion::new(len)
}

/// Flip one byte somewhere in the region (simulating media corruption) and
/// persist the damage.
fn corrupt_byte(r: &mut PmemRegion, offset: u64) {
    let mut b = [0u8; 1];
    r.read(offset, &mut b);
    b[0] ^= 0xFF;
    r.write(offset, &b, StoreMode::NonTemporal);
    r.fence();
}

/// A payload that no header, index or padding byte imitates.
fn pattern(len: usize) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8).collect()
}

/// Where `payload`'s first byte is stored in the region.
fn payload_offset(r: &mut PmemRegion, payload: &[u8]) -> u64 {
    let mut image = vec![0u8; r.len()];
    r.read(0, &mut image);
    let at = image.windows(payload.len()).position(|w| w == payload);
    at.expect("payload stored contiguously") as u64
}

fn assert_payload_mismatch<T>(result: Result<T, StoreError>) {
    match result {
        Err(StoreError::Corrupt(msg)) => {
            assert!(msg.contains("payload checksum mismatch"), "{msg}")
        }
        other => panic!("payload corruption not reported: {:?}", other.err()),
    }
}

#[test]
fn nvstream_detects_corrupted_payload_on_recovery() {
    let mut s = NvStore::format(region(1 << 20)).unwrap();
    s.put("stream", 1, &vec![0x11u8; 10_000]).unwrap();
    let mut r = s.into_region();
    // Damage a byte in the middle of the payload area.
    corrupt_byte(&mut r, 4096);
    r.crash();
    match NvStore::recover(r) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("checksum") || msg.contains("magic")),
        other => panic!("corruption not detected: {:?}", other.err()),
    }
}

#[test]
fn nvstream_detects_bad_header_magic() {
    let mut s = NvStore::format(region(1 << 20)).unwrap();
    s.put("stream", 1, b"x").unwrap();
    let mut r = s.into_region();
    corrupt_byte(&mut r, 0); // header magic
    match NvStore::recover(r) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("magic")),
        other => panic!("bad magic not detected: {:?}", other.err()),
    }
}

#[test]
fn nvstream_get_detects_corrupted_payload() {
    let payload = pattern(10_000);
    let mut s = NvStore::format(region(1 << 20)).unwrap();
    s.put("stream", 1, &payload).unwrap();
    let off = payload_offset(s.region_mut(), &payload);
    corrupt_byte(s.region_mut(), off + 5_000);
    assert_payload_mismatch(s.get("stream", 1));
}

#[test]
fn nova_get_detects_corrupted_payload() {
    let payload = pattern(20_000);
    let mut s = NovaFs::format(region(1 << 20), 8, 64 * 1024).unwrap();
    s.put("stream", 1, &payload).unwrap();
    let off = payload_offset(s.region_mut(), &payload);
    corrupt_byte(s.region_mut(), off + 10_000);
    assert_payload_mismatch(s.get("stream", 1));
}

#[test]
fn nova_detects_corrupted_payload_on_recovery() {
    let payload = pattern(20_000);
    let mut s = NovaFs::format(region(1 << 20), 8, 64 * 1024).unwrap();
    s.put("stream", 1, &payload).unwrap();
    let mut r = s.into_region();
    let off = payload_offset(&mut r, &payload);
    corrupt_byte(&mut r, off + 10_000);
    r.crash();
    assert_payload_mismatch(NovaFs::recover(r));
}

#[test]
fn nova_detects_bad_superblock() {
    let mut s = NovaFs::format(region(1 << 20), 8, 64 * 1024).unwrap();
    s.put("stream", 1, b"x").unwrap();
    let mut r = s.into_region();
    corrupt_byte(&mut r, 3);
    match NovaFs::recover(r) {
        Err(StoreError::Corrupt(msg)) => assert!(msg.contains("superblock")),
        other => panic!("bad superblock not detected: {:?}", other.err()),
    }
}

#[test]
fn stores_are_isolated_between_streams() {
    // Writing stream A must never change what stream B reads back.
    let mut s = NvStore::format(region(4 << 20)).unwrap();
    let a1 = vec![0xAAu8; 5000];
    s.put("a", 1, &a1).unwrap();
    for v in 1..=50u64 {
        s.put("b", v, &vec![v as u8; 3000]).unwrap();
    }
    assert_eq!(s.get("a", 1).unwrap(), a1);

    let mut f = NovaFs::format(region(4 << 20), 8, 256 * 1024).unwrap();
    f.put("a", 1, &a1).unwrap();
    for v in 1..=50u64 {
        f.put("b", v, &vec![v as u8; 3000]).unwrap();
    }
    assert_eq!(f.get("a", 1).unwrap(), a1);
}
