//! NVStream-like userspace versioned object store.
//!
//! A functional reimplementation of the NVStream design the paper uses as
//! its low-overhead transport (§V; Fernando et al. HPDC'18): a log-based
//! versioned object store living entirely in userspace. Properties
//! reproduced here:
//!
//! * **Append-only log of immutable versions** — snapshot data is never
//!   overwritten in place; readers address `(stream, version)`. A put
//!   that does not fit in the remaining log fails with
//!   [`StoreError::OutOfSpace`].
//! * **Non-temporal stores for payload** — the writer streams snapshot
//!   bytes past the CPU cache ([`StoreMode::NonTemporal`]), maximizing
//!   PMEM bandwidth and avoiding cache pollution, since simulations never
//!   read their own output back.
//! * **Two-step commit** — payload and entry header become durable with
//!   one fence, then the 8-byte tail advances (atomic on x86). A crash
//!   between the two leaves the entry invisible but the store consistent.
//!
//! The on-PMEM layout:
//!
//! ```text
//! [ header 64 B | log ................................................ ]
//! entry = [ 40 B header | stream name | payload ] padded to 64 B
//! ```
//!
//! Positions are offsets into the log; the physical offset is
//! `HEADER_BYTES + position`.

use crate::codec::{align_up, get_u32, get_u64, put_u32, put_u64};
use crate::cost::StackKind;
use crate::hash::fnv1a_multi;
use crate::store::{CrashPoint, ObjectStore, StoreError};
use pmemflow_pmem::{PmemRegion, StoreMode};
use std::collections::BTreeMap;

const HEADER_MAGIC: u64 = 0x4e56_5354_5245_414d; // "NVSTREAM"
const ENTRY_MAGIC: u64 = 0x4e56_5345_4e54_5259; // "NVSENTRY"
const HEADER_BYTES: u64 = 64;
const ENTRY_HEADER_BYTES: u64 = 40;
const MAX_NAME: usize = 4096;

const HDR_OFF_MAGIC: usize = 0;
const HDR_OFF_TAIL: usize = 8;

/// The NVStream-like store. Owns its backing region.
pub struct NvStore {
    region: PmemRegion,
    /// Log write position: the end of the last committed entry.
    tail: u64,
    /// (stream, version) → (log position of the payload, length, checksum).
    index: BTreeMap<(String, u64), (u64, u32, u64)>,
}

impl NvStore {
    fn log_len(&self) -> u64 {
        self.region.len() as u64 - HEADER_BYTES
    }

    /// Format a fresh store over `region`.
    pub fn format(mut region: PmemRegion) -> Result<NvStore, StoreError> {
        if (region.len() as u64) < HEADER_BYTES + 256 {
            return Err(StoreError::Invalid("region too small".into()));
        }
        let mut hdr = [0u8; HEADER_BYTES as usize];
        put_u64(&mut hdr, HDR_OFF_MAGIC, HEADER_MAGIC);
        put_u64(&mut hdr, HDR_OFF_TAIL, 0);
        region.write(0, &hdr, StoreMode::Cached);
        region.persist(0, HEADER_BYTES);
        Ok(NvStore {
            region,
            tail: 0,
            index: BTreeMap::new(),
        })
    }

    /// Mount an existing store, rebuilding the index by scanning the log
    /// up to the persisted tail. Crash-recovery path.
    pub fn recover(mut region: PmemRegion) -> Result<NvStore, StoreError> {
        let mut hdr = [0u8; HEADER_BYTES as usize];
        region.read(0, &mut hdr);
        if get_u64(&hdr, HDR_OFF_MAGIC) != HEADER_MAGIC {
            return Err(StoreError::Corrupt("bad NVStream header magic".into()));
        }
        let tail = get_u64(&hdr, HDR_OFF_TAIL);
        let mut store = NvStore {
            region,
            tail,
            index: BTreeMap::new(),
        };
        if tail > store.log_len() {
            return Err(StoreError::Corrupt(format!(
                "tail {tail} past the end of the log"
            )));
        }
        let mut pos = 0;
        while pos < tail {
            let mut eh = [0u8; ENTRY_HEADER_BYTES as usize];
            store.read_log(pos, &mut eh);
            if get_u64(&eh, 0) != ENTRY_MAGIC {
                return Err(StoreError::Corrupt(format!("bad entry magic at {pos}")));
            }
            let stream_len = get_u32(&eh, 8) as u64;
            let data_len = get_u32(&eh, 12) as u64;
            let version = get_u64(&eh, 16);
            let checksum = get_u64(&eh, 24);
            let name_pos = pos + ENTRY_HEADER_BYTES;
            let data_pos = name_pos + stream_len;
            let end = align_up(data_pos + data_len, 64);
            if end > tail {
                return Err(StoreError::Corrupt(format!(
                    "entry at {pos} extends past tail"
                )));
            }
            let mut name = vec![0u8; stream_len as usize];
            store.read_log(name_pos, &mut name);
            let mut data = vec![0u8; data_len as usize];
            store.read_log(data_pos, &mut data);
            if fnv1a_multi(&[&name, &data]) != checksum {
                return Err(StoreError::Corrupt(format!(
                    "checksum mismatch for entry at {pos} (torn write \
                     inside committed log)"
                )));
            }
            let name = String::from_utf8(name)
                .map_err(|_| StoreError::Corrupt(format!("non-UTF8 name at {pos}")))?;
            store
                .index
                .insert((name, version), (data_pos, data_len as u32, checksum));
            pos = end;
        }
        Ok(store)
    }

    fn read_log(&mut self, pos: u64, out: &mut [u8]) {
        self.region.read(HEADER_BYTES + pos, out);
    }

    fn write_log(&mut self, pos: u64, data: &[u8]) {
        self.region
            .write(HEADER_BYTES + pos, data, StoreMode::NonTemporal);
    }

    /// `put` with a crash injected at `crash` (testing API; see
    /// [`CrashPoint`]). With `CrashPoint::None` this is exactly
    /// [`ObjectStore::put`].
    pub fn put_with_crash(
        &mut self,
        stream: &str,
        version: u64,
        data: &[u8],
        crash: CrashPoint,
    ) -> Result<(), StoreError> {
        if stream.is_empty() || stream.len() > MAX_NAME {
            return Err(StoreError::Invalid("stream name empty or too long".into()));
        }
        if data.is_empty() {
            return Err(StoreError::Invalid("zero-length object".into()));
        }
        if let Some(latest) = self.latest(stream) {
            if version <= latest {
                return Err(StoreError::Invalid(format!(
                    "version {version} not after latest {latest}"
                )));
            }
        }
        let name = stream.as_bytes();
        let start = self.tail;
        let end = start
            + align_up(
                ENTRY_HEADER_BYTES + name.len() as u64 + data.len() as u64,
                64,
            );
        if end > self.log_len() {
            return Err(StoreError::OutOfSpace);
        }

        let checksum = fnv1a_multi(&[name, data]);
        let mut eh = [0u8; ENTRY_HEADER_BYTES as usize];
        put_u64(&mut eh, 0, ENTRY_MAGIC);
        put_u32(&mut eh, 8, name.len() as u32);
        put_u32(&mut eh, 12, data.len() as u32);
        put_u64(&mut eh, 16, version);
        put_u64(&mut eh, 24, checksum);
        // Phase 1: stream the entry (header, name, payload).
        self.write_log(start, &eh);
        self.write_log(start + ENTRY_HEADER_BYTES, name);
        let data_pos = start + ENTRY_HEADER_BYTES + name.len() as u64;
        self.write_log(data_pos, data);
        if crash == CrashPoint::AfterDataWrite {
            return Ok(()); // no fence: nothing guaranteed durable
        }
        self.region.fence();
        if crash == CrashPoint::AfterDataPersist || crash == CrashPoint::AfterLogRecord {
            return Ok(()); // entry durable but tail still points before it
        }
        // Phase 2: advance the tail (8-byte update, atomic).
        let mut b = [0u8; 8];
        put_u64(&mut b, 0, end);
        self.region
            .write(HDR_OFF_TAIL as u64, &b, StoreMode::Cached);
        self.region.persist(HDR_OFF_TAIL as u64, 8);
        self.tail = end;
        self.index.insert(
            (stream.to_string(), version),
            (data_pos, data.len() as u32, checksum),
        );
        Ok(())
    }

    fn missing(&self, stream: &str, version: u64) -> Result<Vec<u8>, StoreError> {
        if self.index.keys().any(|(s, _)| s == stream) {
            Err(StoreError::UnknownVersion {
                stream: stream.to_string(),
                version,
            })
        } else {
            Err(StoreError::UnknownStream(stream.to_string()))
        }
    }

    /// Borrow the backing region (e.g. to inject a crash in tests).
    pub fn region_mut(&mut self) -> &mut PmemRegion {
        &mut self.region
    }

    /// Consume the store, returning the region (for crash/recover cycles).
    pub fn into_region(self) -> PmemRegion {
        self.region
    }
}

impl ObjectStore for NvStore {
    fn put(&mut self, stream: &str, version: u64, data: &[u8]) -> Result<(), StoreError> {
        self.put_with_crash(stream, version, data, CrashPoint::None)
    }

    fn get(&mut self, stream: &str, version: u64) -> Result<Vec<u8>, StoreError> {
        let key = (stream.to_string(), version);
        let Some(&(pos, len, checksum)) = self.index.get(&key) else {
            return self.missing(stream, version);
        };
        let mut data = vec![0u8; len as usize];
        self.read_log(pos, &mut data);
        if fnv1a_multi(&[stream.as_bytes(), &data]) != checksum {
            return Err(StoreError::Corrupt(format!(
                "payload checksum mismatch for {stream:?} v{version}"
            )));
        }
        Ok(data)
    }

    fn streams(&self) -> Vec<String> {
        let mut names: Vec<String> = self.index.keys().map(|(s, _)| s.clone()).collect();
        names.sort();
        names.dedup();
        names
    }

    fn versions(&self, stream: &str) -> Vec<u64> {
        self.index
            .keys()
            .filter(|(s, _)| s == stream)
            .map(|(_, v)| *v)
            .collect()
    }

    fn kind(&self) -> StackKind {
        StackKind::NvStream
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(len: usize) -> PmemRegion {
        PmemRegion::new(len)
    }

    fn store() -> NvStore {
        NvStore::format(region(1 << 20)).unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let mut s = store();
        s.put("gtc/rank0", 1, b"particles-v1").unwrap();
        assert_eq!(s.get("gtc/rank0", 1).unwrap(), b"particles-v1");
    }

    #[test]
    fn multiple_versions_and_streams() {
        let mut s = store();
        for v in 1..=5u64 {
            s.put("a", v, format!("a{v}").as_bytes()).unwrap();
            s.put("b", v, format!("b{v}").as_bytes()).unwrap();
        }
        assert_eq!(s.streams(), vec!["a".to_string(), "b".to_string()]);
        assert_eq!(s.versions("a"), vec![1, 2, 3, 4, 5]);
        assert_eq!(s.latest("b"), Some(5));
        assert_eq!(s.get("b", 3).unwrap(), b"b3");
    }

    #[test]
    fn version_monotonicity_enforced() {
        let mut s = store();
        s.put("a", 2, b"x").unwrap();
        assert!(matches!(s.put("a", 2, b"y"), Err(StoreError::Invalid(_))));
        assert!(matches!(s.put("a", 1, b"y"), Err(StoreError::Invalid(_))));
        s.put("a", 3, b"z").unwrap();
    }

    #[test]
    fn unknown_lookups() {
        let mut s = store();
        s.put("a", 1, b"x").unwrap();
        assert!(matches!(
            s.get("nope", 1),
            Err(StoreError::UnknownStream(_))
        ));
        assert!(matches!(
            s.get("a", 9),
            Err(StoreError::UnknownVersion { .. })
        ));
    }

    #[test]
    fn recovery_rebuilds_index() {
        let mut s = store();
        s.put("sim", 1, &vec![7u8; 10_000]).unwrap();
        s.put("sim", 2, &vec![9u8; 5_000]).unwrap();
        let mut region = s.into_region();
        region.crash();
        let mut s2 = NvStore::recover(region).unwrap();
        assert_eq!(s2.versions("sim"), vec![1, 2]);
        assert_eq!(s2.get("sim", 2).unwrap(), vec![9u8; 5_000]);
    }

    #[test]
    fn crash_before_any_fence_loses_entry_cleanly() {
        let mut s = store();
        s.put("sim", 1, b"one").unwrap();
        s.put_with_crash("sim", 2, b"two", CrashPoint::AfterDataWrite)
            .unwrap();
        let mut region = s.into_region();
        region.crash();
        let mut s2 = NvStore::recover(region).unwrap();
        assert_eq!(s2.versions("sim"), vec![1]);
        assert_eq!(s2.get("sim", 1).unwrap(), b"one");
    }

    #[test]
    fn crash_before_tail_update_hides_entry() {
        let mut s = store();
        s.put("sim", 1, b"one").unwrap();
        s.put_with_crash("sim", 2, b"two", CrashPoint::AfterDataPersist)
            .unwrap();
        let mut region = s.into_region();
        region.crash();
        let mut s2 = NvStore::recover(region).unwrap();
        assert_eq!(s2.versions("sim"), vec![1]);
        s2.put("sim", 2, b"two-again").unwrap();
        assert_eq!(s2.get("sim", 2).unwrap(), b"two-again");
    }

    #[test]
    fn out_of_space_when_the_log_is_full() {
        let mut s = NvStore::format(region(4096 + 64)).unwrap();
        assert!(matches!(
            s.put("big", 1, &vec![0u8; 8192]),
            Err(StoreError::OutOfSpace)
        ));
        s.put("small", 1, b"ok").unwrap();
    }

    #[test]
    fn rejects_bad_arguments() {
        let mut s = store();
        assert!(matches!(s.put("", 1, b"x"), Err(StoreError::Invalid(_))));
        assert!(matches!(s.put("a", 1, b""), Err(StoreError::Invalid(_))));
    }

    #[test]
    fn payload_persists_after_put() {
        let mut s = store();
        s.put("a", 1, &vec![1u8; 4096]).unwrap();
        assert_eq!(s.region_mut().crash(), 0, "put left bytes volatile");
    }

    #[test]
    fn large_snapshot_roundtrip() {
        let mut s = NvStore::format(region(8 << 20)).unwrap();
        let payload: Vec<u8> = (0..1_000_000u32).map(|i| (i % 255) as u8).collect();
        s.put("snap", 1, &payload).unwrap();
        assert_eq!(s.get("snap", 1).unwrap(), payload);
        let mut r = s.into_region();
        r.crash();
        let mut s2 = NvStore::recover(r).unwrap();
        assert_eq!(s2.get("snap", 1).unwrap(), payload);
    }

    #[test]
    fn kind_is_nvstream() {
        assert_eq!(store().kind(), StackKind::NvStream);
    }
}
