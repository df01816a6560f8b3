//! NOVA-like log-structured PMEM filesystem (user-level reimplementation).
//!
//! A functional model of the NOVA design the paper uses as its
//! filesystem-based transport (§V; Xu & Swanson FAST'16), with the
//! mechanisms that matter for the study:
//!
//! * **Per-inode logs** — every stream (file) has its own chain of log
//!   entries, so concurrent writers never serialize on a shared log.
//! * **Data outside the log** — payloads are written to a separate data
//!   area (DAX-style non-temporal stores); log entries only carry
//!   metadata, keeping garbage collection cheap.
//! * **Lightweight journaling** — linking a new entry into an inode's log
//!   touches two locations (predecessor's `next` and the inode tail), so
//!   the update is journaled: recovery redoes a committed journal and
//!   discards an uncommitted one.
//! * **Checksummed entries and payloads** — recovery validates both and a
//!   torn write renders the version invisible, never the store corrupt.
//!
//! Layout:
//!
//! ```text
//! [ superblock 128 B | inode table | journal 64 B | log area | data area ]
//! ```
//!
//! NOVA's real implementation is a kernel filesystem; its syscall and VFS
//! costs appear in this crate's [`crate::cost::StackCostModel`], not in
//! this functional model.

use crate::codec::{align_up, get_u64, put_u64};
use crate::cost::StackKind;
use crate::hash::fnv1a;
use crate::store::{CrashPoint, ObjectStore, StoreError};
use pmemflow_pmem::{PmemRegion, StoreMode};
use std::collections::BTreeMap;

const SB_MAGIC: u64 = 0x4e4f_5641_4653_5f5f; // "NOVAFS__"
const ENTRY_MAGIC: u64 = 0x4e4f_5641_454e_5452; // "NOVAENTR"
const JOURNAL_COMMIT: u64 = 0x4e4f_5641_4a52_4e4c; // "NOVAJRNL"

const SB_BYTES: u64 = 128;
const INODE_BYTES: u64 = 64;
const JOURNAL_BYTES: u64 = 64;
const ENTRY_BYTES: u64 = 64;
const MAX_NAME: usize = 32;

// Superblock field offsets.
const SB_OFF_MAGIC: usize = 0;
const SB_OFF_MAX_INODES: usize = 8;
const SB_OFF_LOG_BUMP: usize = 16;
const SB_OFF_DATA_BUMP: usize = 24;
const SB_OFF_LOG_START: usize = 32;
const SB_OFF_DATA_START: usize = 40;

// Inode field offsets.
const INO_OFF_FLAGS: usize = 0;
const INO_OFF_HEAD: usize = 8;
const INO_OFF_TAIL: usize = 16;
const INO_OFF_NAME_LEN: usize = 24;
const INO_OFF_NAME: usize = 32;

// Log-entry field offsets. `next` (offset 40) is excluded from the entry
// checksum so linking does not require rewriting it.
const ENT_OFF_MAGIC: usize = 0;
const ENT_OFF_VERSION: usize = 8;
const ENT_OFF_DATA_OFF: usize = 16;
const ENT_OFF_DATA_LEN: usize = 24;
const ENT_OFF_DATA_SUM: usize = 32;
const ENT_OFF_NEXT: usize = 40;
const ENT_OFF_SELF_SUM: usize = 48;

// Journal field offsets.
const JRN_OFF_STATE: usize = 0;
const JRN_OFF_INODE: usize = 8;
const JRN_OFF_NEW: usize = 16;
const JRN_OFF_PREV: usize = 24;
const JRN_OFF_SUM: usize = 32;

/// The NOVA-like filesystem. Owns its backing region.
pub struct NovaFs {
    region: PmemRegion,
    max_inodes: u64,
    log_start: u64,
    data_start: u64,
    log_bump: u64,
    data_bump: u64,
    /// stream name → inode index.
    inodes: BTreeMap<String, u64>,
    /// (inode index, version) → (data offset, length, checksum).
    index: BTreeMap<(u64, u64), (u64, u64, u64)>,
}

impl NovaFs {
    fn journal_off(max_inodes: u64) -> u64 {
        SB_BYTES + max_inodes * INODE_BYTES
    }

    /// Format a filesystem over `region` with space for `max_inodes`
    /// streams and `log_capacity` bytes of log area.
    pub fn format(
        mut region: PmemRegion,
        max_inodes: u64,
        log_capacity: u64,
    ) -> Result<NovaFs, StoreError> {
        let log_start = Self::journal_off(max_inodes) + JOURNAL_BYTES;
        let data_start = align_up(log_start + log_capacity, 64);
        if data_start + 64 > region.len() as u64 {
            return Err(StoreError::Invalid("region too small for layout".into()));
        }
        // Zero the metadata area (inode table + journal).
        let zeros = vec![0u8; (log_start - SB_BYTES) as usize];
        region.write(SB_BYTES, &zeros, StoreMode::Cached);
        region.persist(SB_BYTES, zeros.len() as u64);
        let mut sb = [0u8; SB_BYTES as usize];
        put_u64(&mut sb, SB_OFF_MAGIC, SB_MAGIC);
        put_u64(&mut sb, SB_OFF_MAX_INODES, max_inodes);
        put_u64(&mut sb, SB_OFF_LOG_BUMP, log_start);
        put_u64(&mut sb, SB_OFF_DATA_BUMP, data_start);
        put_u64(&mut sb, SB_OFF_LOG_START, log_start);
        put_u64(&mut sb, SB_OFF_DATA_START, data_start);
        region.write(0, &sb, StoreMode::Cached);
        region.persist(0, SB_BYTES);
        Ok(NovaFs {
            region,
            max_inodes,
            log_start,
            data_start,
            log_bump: log_start,
            data_bump: data_start,
            inodes: BTreeMap::new(),
            index: BTreeMap::new(),
        })
    }

    /// Mount after a crash: replay the journal, then rebuild the volatile
    /// index by walking every inode's log chain, validating checksums.
    pub fn recover(mut region: PmemRegion) -> Result<NovaFs, StoreError> {
        let mut sb = [0u8; SB_BYTES as usize];
        region.read(0, &mut sb);
        if get_u64(&sb, SB_OFF_MAGIC) != SB_MAGIC {
            return Err(StoreError::Corrupt("bad NOVA superblock magic".into()));
        }
        let max_inodes = get_u64(&sb, SB_OFF_MAX_INODES);
        let mut fs = NovaFs {
            region,
            max_inodes,
            log_start: get_u64(&sb, SB_OFF_LOG_START),
            data_start: get_u64(&sb, SB_OFF_DATA_START),
            log_bump: get_u64(&sb, SB_OFF_LOG_BUMP),
            data_bump: get_u64(&sb, SB_OFF_DATA_BUMP),
            inodes: BTreeMap::new(),
            index: BTreeMap::new(),
        };
        fs.replay_journal()?;
        // Rebuild volatile maps from the inode table and log chains.
        for ino in 0..max_inodes {
            let ibuf = fs.read_inode(ino);
            if get_u64(&ibuf, INO_OFF_FLAGS) != 1 {
                continue;
            }
            let name_len = get_u64(&ibuf, INO_OFF_NAME_LEN) as usize;
            if name_len == 0 || name_len > MAX_NAME {
                return Err(StoreError::Corrupt(format!(
                    "inode {ino} has invalid name length {name_len}"
                )));
            }
            let name = String::from_utf8(ibuf[INO_OFF_NAME..INO_OFF_NAME + name_len].to_vec())
                .map_err(|_| StoreError::Corrupt(format!("inode {ino} name not UTF-8")))?;
            fs.inodes.insert(name, ino);
            let mut entry_off = get_u64(&ibuf, INO_OFF_HEAD);
            while entry_off != 0 {
                let ebuf = fs.read_entry_buf(entry_off)?;
                let version = get_u64(&ebuf, ENT_OFF_VERSION);
                let data_off = get_u64(&ebuf, ENT_OFF_DATA_OFF);
                let data_len = get_u64(&ebuf, ENT_OFF_DATA_LEN);
                let data_sum = get_u64(&ebuf, ENT_OFF_DATA_SUM);
                // Validate the payload too: a torn payload means the
                // journaled link should never have committed, so treat it
                // as corruption.
                let mut payload = vec![0u8; data_len as usize];
                fs.region.read(data_off, &mut payload);
                if fnv1a(&payload) != data_sum {
                    return Err(StoreError::Corrupt(format!(
                        "payload checksum mismatch in inode {ino} v{version}"
                    )));
                }
                fs.index
                    .insert((ino, version), (data_off, data_len, data_sum));
                entry_off = get_u64(&ebuf, ENT_OFF_NEXT);
            }
        }
        Ok(fs)
    }

    fn replay_journal(&mut self) -> Result<(), StoreError> {
        let joff = Self::journal_off(self.max_inodes);
        let mut j = [0u8; JOURNAL_BYTES as usize];
        self.region.read(joff, &mut j);
        if get_u64(&j, JRN_OFF_STATE) != JOURNAL_COMMIT {
            return Ok(()); // empty or uncommitted: discard
        }
        let sum = fnv1a(&j[JRN_OFF_INODE..JRN_OFF_SUM]);
        if sum != get_u64(&j, JRN_OFF_SUM) {
            // Torn journal record that happened to hit the commit magic:
            // treat as uncommitted.
            self.clear_journal();
            return Ok(());
        }
        let ino = get_u64(&j, JRN_OFF_INODE);
        let new_entry = get_u64(&j, JRN_OFF_NEW);
        let prev_entry = get_u64(&j, JRN_OFF_PREV);
        self.apply_link(ino, new_entry, prev_entry);
        self.clear_journal();
        Ok(())
    }

    fn clear_journal(&mut self) {
        let joff = Self::journal_off(self.max_inodes);
        let zero = [0u8; 8];
        self.region.write(joff, &zero, StoreMode::Cached);
        self.region.persist(joff, 8);
    }

    /// Link `new_entry` into inode `ino`'s chain after `prev_entry`
    /// (0 = chain was empty). Idempotent, as journal redo requires.
    fn apply_link(&mut self, ino: u64, new_entry: u64, prev_entry: u64) {
        if prev_entry == 0 {
            let off = self.inode_off(ino) + INO_OFF_HEAD as u64;
            let mut b = [0u8; 8];
            put_u64(&mut b, 0, new_entry);
            self.region.write(off, &b, StoreMode::Cached);
            self.region.flush(off, 8);
        } else {
            let off = prev_entry + ENT_OFF_NEXT as u64;
            let mut b = [0u8; 8];
            put_u64(&mut b, 0, new_entry);
            self.region.write(off, &b, StoreMode::Cached);
            self.region.flush(off, 8);
        }
        let tail_off = self.inode_off(ino) + INO_OFF_TAIL as u64;
        let mut b = [0u8; 8];
        put_u64(&mut b, 0, new_entry);
        self.region.write(tail_off, &b, StoreMode::Cached);
        self.region.flush(tail_off, 8);
        self.region.fence();
    }

    fn inode_off(&self, ino: u64) -> u64 {
        SB_BYTES + ino * INODE_BYTES
    }

    fn read_inode(&mut self, ino: u64) -> [u8; INODE_BYTES as usize] {
        let mut buf = [0u8; INODE_BYTES as usize];
        let off = self.inode_off(ino);
        self.region.read(off, &mut buf);
        buf
    }

    fn read_entry_buf(&mut self, off: u64) -> Result<[u8; ENTRY_BYTES as usize], StoreError> {
        if off < self.log_start || off + ENTRY_BYTES > self.data_start {
            return Err(StoreError::Corrupt(format!(
                "log entry offset {off} outside log area"
            )));
        }
        let mut buf = [0u8; ENTRY_BYTES as usize];
        self.region.read(off, &mut buf);
        if get_u64(&buf, ENT_OFF_MAGIC) != ENTRY_MAGIC {
            return Err(StoreError::Corrupt(format!("bad entry magic at {off}")));
        }
        if fnv1a(&buf[..ENT_OFF_NEXT]) != get_u64(&buf, ENT_OFF_SELF_SUM) {
            return Err(StoreError::Corrupt(format!(
                "entry checksum mismatch at {off}"
            )));
        }
        Ok(buf)
    }

    /// Create a stream (an inode). Idempotent: returns the existing inode
    /// if the name is already present.
    fn create(&mut self, name: &str) -> Result<u64, StoreError> {
        if name.is_empty() || name.len() > MAX_NAME {
            return Err(StoreError::Invalid(format!(
                "name must be 1..={MAX_NAME} bytes"
            )));
        }
        if let Some(&ino) = self.inodes.get(name) {
            return Ok(ino);
        }
        let used: std::collections::BTreeSet<u64> = self.inodes.values().copied().collect();
        let Some(ino) = (0..self.max_inodes).find(|i| !used.contains(i)) else {
            return Err(StoreError::OutOfSpace);
        };
        let mut ibuf = [0u8; INODE_BYTES as usize];
        put_u64(&mut ibuf, INO_OFF_FLAGS, 0); // flags last
        put_u64(&mut ibuf, INO_OFF_HEAD, 0);
        put_u64(&mut ibuf, INO_OFF_TAIL, 0);
        put_u64(&mut ibuf, INO_OFF_NAME_LEN, name.len() as u64);
        ibuf[INO_OFF_NAME..INO_OFF_NAME + name.len()].copy_from_slice(name.as_bytes());
        let off = self.inode_off(ino);
        self.region.write(off, &ibuf, StoreMode::Cached);
        self.region.persist(off, INODE_BYTES);
        // Commit point: set the used flag.
        let mut flag = [0u8; 8];
        put_u64(&mut flag, 0, 1);
        self.region.write(off, &flag, StoreMode::Cached);
        self.region.persist(off, 8);
        self.inodes.insert(name.to_string(), ino);
        Ok(ino)
    }

    fn persist_sb_bumps(&mut self) {
        let mut b = [0u8; 16];
        put_u64(&mut b, 0, self.log_bump);
        put_u64(&mut b, 8, self.data_bump);
        self.region
            .write(SB_OFF_LOG_BUMP as u64, &b, StoreMode::Cached);
        self.region.persist(SB_OFF_LOG_BUMP as u64, 16);
    }

    /// `put` with a crash injected at `crash` (testing API). With
    /// `CrashPoint::None` this is exactly [`ObjectStore::put`].
    pub fn put_with_crash(
        &mut self,
        stream: &str,
        version: u64,
        data: &[u8],
        crash: CrashPoint,
    ) -> Result<(), StoreError> {
        if data.is_empty() {
            return Err(StoreError::Invalid("zero-length object".into()));
        }
        let ino = self.create(stream)?;
        let latest = self
            .index
            .range((ino, 0)..=(ino, u64::MAX))
            .next_back()
            .map(|((_, v), _)| *v);
        if let Some(latest) = latest {
            if version <= latest {
                return Err(StoreError::Invalid(format!(
                    "version {version} not after latest {latest}"
                )));
            }
        }

        // 1. Allocate + write payload (DAX non-temporal stores).
        let data_off = self.data_bump;
        let new_data_bump = align_up(data_off + data.len() as u64, 64);
        if new_data_bump > self.region.len() as u64 {
            return Err(StoreError::OutOfSpace);
        }
        self.data_bump = new_data_bump;
        self.persist_sb_bumps();
        self.region.write(data_off, data, StoreMode::NonTemporal);
        if crash == CrashPoint::AfterDataWrite {
            return Ok(());
        }
        self.region.fence();
        if crash == CrashPoint::AfterDataPersist {
            return Ok(());
        }

        // 2. Allocate + write the log entry (not yet linked).
        let entry_off = self.log_bump;
        if entry_off + ENTRY_BYTES > self.data_start {
            return Err(StoreError::OutOfSpace);
        }
        self.log_bump += ENTRY_BYTES;
        self.persist_sb_bumps();
        let data_sum = fnv1a(data);
        let mut ebuf = [0u8; ENTRY_BYTES as usize];
        put_u64(&mut ebuf, ENT_OFF_MAGIC, ENTRY_MAGIC);
        put_u64(&mut ebuf, ENT_OFF_VERSION, version);
        put_u64(&mut ebuf, ENT_OFF_DATA_OFF, data_off);
        put_u64(&mut ebuf, ENT_OFF_DATA_LEN, data.len() as u64);
        put_u64(&mut ebuf, ENT_OFF_DATA_SUM, data_sum);
        put_u64(&mut ebuf, ENT_OFF_NEXT, 0);
        let self_sum = fnv1a(&ebuf[..ENT_OFF_NEXT]);
        put_u64(&mut ebuf, ENT_OFF_SELF_SUM, self_sum);
        self.region.write(entry_off, &ebuf, StoreMode::Cached);
        self.region.persist(entry_off, ENTRY_BYTES);
        if crash == CrashPoint::AfterLogRecord {
            return Ok(());
        }

        // 3. Journal the two-location link update, then apply it.
        let ibuf = self.read_inode(ino);
        let prev_entry = get_u64(&ibuf, INO_OFF_TAIL);
        let joff = Self::journal_off(self.max_inodes);
        let mut j = [0u8; JOURNAL_BYTES as usize];
        put_u64(&mut j, JRN_OFF_INODE, ino);
        put_u64(&mut j, JRN_OFF_NEW, entry_off);
        put_u64(&mut j, JRN_OFF_PREV, prev_entry);
        let jsum = fnv1a(&j[JRN_OFF_INODE..JRN_OFF_SUM]);
        put_u64(&mut j, JRN_OFF_SUM, jsum);
        self.region.write(joff + 8, &j[8..], StoreMode::Cached);
        self.region.persist(joff + 8, JOURNAL_BYTES - 8);
        // Commit record.
        let mut commit = [0u8; 8];
        put_u64(&mut commit, 0, JOURNAL_COMMIT);
        self.region.write(joff, &commit, StoreMode::Cached);
        self.region.persist(joff, 8);

        self.apply_link(ino, entry_off, prev_entry);
        self.clear_journal();

        self.index
            .insert((ino, version), (data_off, data.len() as u64, data_sum));
        Ok(())
    }

    /// Borrow the backing region (e.g. to inject a crash in tests).
    pub fn region_mut(&mut self) -> &mut PmemRegion {
        &mut self.region
    }

    /// Consume the filesystem, returning the region.
    pub fn into_region(self) -> PmemRegion {
        self.region
    }
}

impl ObjectStore for NovaFs {
    fn put(&mut self, stream: &str, version: u64, data: &[u8]) -> Result<(), StoreError> {
        self.put_with_crash(stream, version, data, CrashPoint::None)
    }

    fn get(&mut self, stream: &str, version: u64) -> Result<Vec<u8>, StoreError> {
        let Some(&ino) = self.inodes.get(stream) else {
            return Err(StoreError::UnknownStream(stream.to_string()));
        };
        let Some(&(off, len, sum)) = self.index.get(&(ino, version)) else {
            return Err(StoreError::UnknownVersion {
                stream: stream.to_string(),
                version,
            });
        };
        let mut data = vec![0u8; len as usize];
        self.region.read(off, &mut data);
        if fnv1a(&data) != sum {
            return Err(StoreError::Corrupt(format!(
                "payload checksum mismatch for {stream:?} v{version}"
            )));
        }
        Ok(data)
    }

    fn streams(&self) -> Vec<String> {
        self.inodes.keys().cloned().collect()
    }

    fn versions(&self, stream: &str) -> Vec<u64> {
        let Some(&ino) = self.inodes.get(stream) else {
            return Vec::new();
        };
        self.index
            .range((ino, 0)..=(ino, u64::MAX))
            .map(|((_, v), _)| *v)
            .collect()
    }

    fn kind(&self) -> StackKind {
        StackKind::Nova
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region(len: usize) -> PmemRegion {
        PmemRegion::new(len)
    }

    fn fs() -> NovaFs {
        NovaFs::format(region(1 << 20), 16, 16 * 1024).unwrap()
    }

    #[test]
    fn put_get_roundtrip() {
        let mut f = fs();
        f.put("miniamr/rank0", 1, b"block-data").unwrap();
        assert_eq!(f.get("miniamr/rank0", 1).unwrap(), b"block-data");
    }

    #[test]
    fn multiple_versions_chain() {
        let mut f = fs();
        for v in 1..=10u64 {
            f.put("s", v, format!("payload-{v}").as_bytes()).unwrap();
        }
        assert_eq!(f.versions("s"), (1..=10).collect::<Vec<_>>());
        assert_eq!(f.get("s", 7).unwrap(), b"payload-7");
    }

    #[test]
    fn multiple_streams_have_independent_logs() {
        let mut f = fs();
        for v in 1..=3u64 {
            for s in ["a", "b", "c"] {
                f.put(s, v, format!("{s}{v}").as_bytes()).unwrap();
            }
        }
        assert_eq!(f.streams(), vec!["a", "b", "c"]);
        assert_eq!(f.get("b", 2).unwrap(), b"b2");
    }

    #[test]
    fn version_monotonicity_enforced() {
        let mut f = fs();
        f.put("s", 5, b"x").unwrap();
        assert!(matches!(f.put("s", 5, b"y"), Err(StoreError::Invalid(_))));
        assert!(matches!(f.put("s", 4, b"y"), Err(StoreError::Invalid(_))));
    }

    #[test]
    fn clean_recovery_preserves_everything() {
        let mut f = fs();
        for v in 1..=5u64 {
            f.put("s", v, &vec![v as u8; 1000]).unwrap();
        }
        let mut r = f.into_region();
        r.crash();
        let mut f2 = NovaFs::recover(r).unwrap();
        assert_eq!(f2.versions("s"), vec![1, 2, 3, 4, 5]);
        assert_eq!(f2.get("s", 3).unwrap(), vec![3u8; 1000]);
    }

    #[test]
    fn crash_after_data_write_loses_version_cleanly() {
        let mut f = fs();
        f.put("s", 1, b"one").unwrap();
        f.put_with_crash("s", 2, b"two", CrashPoint::AfterDataWrite)
            .unwrap();
        let mut r = f.into_region();
        r.crash();
        let mut f2 = NovaFs::recover(r).unwrap();
        assert_eq!(f2.versions("s"), vec![1]);
        assert_eq!(f2.get("s", 1).unwrap(), b"one");
        // Still writable.
        f2.put("s", 2, b"two-retry").unwrap();
        assert_eq!(f2.get("s", 2).unwrap(), b"two-retry");
    }

    #[test]
    fn crash_after_unlinked_log_entry_is_invisible() {
        let mut f = fs();
        f.put("s", 1, b"one").unwrap();
        f.put_with_crash("s", 2, b"two", CrashPoint::AfterLogRecord)
            .unwrap();
        let mut r = f.into_region();
        r.crash();
        let mut f2 = NovaFs::recover(r).unwrap();
        // The entry exists in the log area but no inode points at it.
        assert_eq!(f2.versions("s"), vec![1]);
        f2.put("s", 2, b"two-retry").unwrap();
        assert_eq!(f2.get("s", 2).unwrap(), b"two-retry");
    }

    #[test]
    fn committed_journal_is_redone_on_recovery() {
        // Simulate a crash after the journal commit but before the link was
        // applied, by hand-writing the journal state a committed put would
        // have produced. Recovery must redo the link and expose the version.
        let mut f = fs();
        f.put("s", 1, b"one").unwrap();
        f.put("s", 2, b"two").unwrap();
        // Forge: re-commit the journal describing the already-applied link
        // of version 2 (redo must be idempotent).
        let ino = *f.inodes.get("s").unwrap();
        let ibuf_tail = {
            let ibuf = f.read_inode(ino);
            get_u64(&ibuf, INO_OFF_TAIL)
        };
        let head = {
            let ibuf = f.read_inode(ino);
            get_u64(&ibuf, INO_OFF_HEAD)
        };
        let joff = NovaFs::journal_off(f.max_inodes);
        let mut j = [0u8; JOURNAL_BYTES as usize];
        put_u64(&mut j, JRN_OFF_INODE, ino);
        put_u64(&mut j, JRN_OFF_NEW, ibuf_tail);
        put_u64(&mut j, JRN_OFF_PREV, head);
        let jsum = fnv1a(&j[JRN_OFF_INODE..JRN_OFF_SUM]);
        put_u64(&mut j, JRN_OFF_SUM, jsum);
        put_u64(&mut j, JRN_OFF_STATE, JOURNAL_COMMIT);
        f.region.write(joff, &j, StoreMode::Cached);
        f.region.persist(joff, JOURNAL_BYTES);
        let mut r = f.into_region();
        r.crash();
        let mut f2 = NovaFs::recover(r).unwrap();
        assert_eq!(f2.versions("s"), vec![1, 2]);
        assert_eq!(f2.get("s", 2).unwrap(), b"two");
    }

    #[test]
    fn inode_exhaustion() {
        let mut f = NovaFs::format(region(1 << 20), 2, 4096).unwrap();
        f.put("a", 1, b"x").unwrap();
        f.put("b", 1, b"x").unwrap();
        assert!(matches!(f.put("c", 1, b"x"), Err(StoreError::OutOfSpace)));
    }

    #[test]
    fn log_area_exhaustion() {
        // Log area fits exactly 2 entries.
        let mut f = NovaFs::format(region(1 << 20), 4, 2 * 64).unwrap();
        f.put("s", 1, b"x").unwrap();
        f.put("s", 2, b"x").unwrap();
        assert!(matches!(f.put("s", 3, b"x"), Err(StoreError::OutOfSpace)));
        // Existing data still intact.
        assert_eq!(f.get("s", 2).unwrap(), b"x");
    }

    #[test]
    fn data_area_exhaustion() {
        let mut f = NovaFs::format(region(16 * 1024), 2, 1024).unwrap();
        assert!(matches!(
            f.put("s", 1, &vec![0u8; 64 * 1024]),
            Err(StoreError::OutOfSpace)
        ));
        f.put("s", 1, &vec![0u8; 512]).unwrap();
    }

    #[test]
    fn name_length_limits() {
        let mut f = fs();
        assert!(matches!(f.create(""), Err(StoreError::Invalid(_))));
        let long = "x".repeat(MAX_NAME + 1);
        assert!(matches!(f.create(&long), Err(StoreError::Invalid(_))));
        let ok = "x".repeat(MAX_NAME);
        f.create(&ok).unwrap();
    }

    #[test]
    fn create_is_idempotent() {
        let mut f = fs();
        let a = f.create("s").unwrap();
        let b = f.create("s").unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn recovery_after_many_interleaved_streams() {
        let mut f = NovaFs::format(region(4 << 20), 8, 64 * 1024).unwrap();
        for v in 1..=20u64 {
            for s in 0..4 {
                f.put(
                    &format!("rank{s}"),
                    v,
                    &vec![(s * 37 + v as usize % 251) as u8; 777],
                )
                .unwrap();
            }
        }
        let mut r = f.into_region();
        r.crash();
        let mut f2 = NovaFs::recover(r).unwrap();
        for s in 0..4 {
            assert_eq!(f2.versions(&format!("rank{s}")).len(), 20);
            let d = f2.get(&format!("rank{s}"), 20).unwrap();
            assert_eq!(d, vec![(s * 37 + 20) as u8; 777]);
        }
    }

    #[test]
    fn kind_is_nova() {
        assert_eq!(fs().kind(), StackKind::Nova);
    }
}
