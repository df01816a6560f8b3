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
fn nova_detects_corrupted_payload_on_recovery() {
    let mut s = NovaFs::format(region(1 << 20), 8, 64 * 1024).unwrap();
    s.put("stream", 1, &vec![0x22u8; 20_000]).unwrap();
    let data_area_guess = (1 << 20) - 10_000; // payload sits near data bump start
    let mut r = s.into_region();
    // Find a byte that actually belongs to the payload: the data area
    // starts after the log area; corrupt several candidate offsets to be
    // sure we hit it.
    let _ = data_area_guess;
    for off in (70_000u64..90_000).step_by(4096) {
        corrupt_byte(&mut r, off);
    }
    r.crash();
    match NovaFs::recover(r) {
        Err(StoreError::Corrupt(_)) => {}
        Ok(mut fs) => {
            // If recovery succeeded, the read path must still detect it.
            match fs.get("stream", 1) {
                Err(StoreError::Corrupt(_)) => {}
                Ok(data) => assert_eq!(data, vec![0x22u8; 20_000], "silent corruption!"),
                Err(e) => panic!("unexpected error {e}"),
            }
        }
        Err(e) => panic!("unexpected error {e}"),
    }
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
