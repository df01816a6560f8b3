//! A byte-addressable persistent-memory region with crash semantics.
//!
//! `PmemRegion` backs the functional I/O stacks (`pmemflow-iostack`) with
//! *real bytes* plus a faithful model of what is and is not durable at any
//! instant:
//!
//! * **Cached stores** (`StoreMode::Cached`) land in a volatile CPU-cache
//!   overlay; they reach persistence only when explicitly flushed
//!   (`clwb`-style [`PmemRegion::flush`]). This is NOVA's path for
//!   metadata.
//! * **Non-temporal stores** (`StoreMode::NonTemporal`) bypass the cache
//!   into a write-combining buffer and become durable at the next
//!   [`PmemRegion::fence`] (`sfence`). This is NVStream's data path — it
//!   also avoids polluting the CPU cache with snapshot data that the writer
//!   never reads back (paper §V).
//!
//! [`PmemRegion::crash`] discards everything volatile, exactly like a power
//! cut; recovery tests in the I/O stacks run against the surviving media
//! image.

use std::collections::BTreeMap;

/// CPU cache-line size used by the volatile overlay.
pub(crate) const CACHE_LINE: u64 = 64;

/// How a store travels to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StoreMode {
    /// Through the CPU cache; durable only after `flush` + `fence`.
    Cached,
    /// Non-temporal (streaming); durable after the next `fence`.
    NonTemporal,
}

/// A simulated PMEM device region storing real bytes.
#[derive(Debug)]
pub struct PmemRegion {
    media: Vec<u8>,
    /// Dirty cache lines not yet flushed: line index → contents.
    overlay: BTreeMap<u64, [u8; CACHE_LINE as usize]>,
    /// Non-temporal stores awaiting a fence, in program order.
    wc_pending: Vec<(u64, Vec<u8>)>,
}

impl PmemRegion {
    /// Allocate a zeroed region of `len` bytes.
    pub fn new(len: usize) -> Self {
        Self {
            media: vec![0u8; len],
            overlay: BTreeMap::new(),
            wc_pending: Vec::new(),
        }
    }

    /// Region length in bytes.
    pub fn len(&self) -> usize {
        self.media.len()
    }

    /// True if the region has zero length.
    pub fn is_empty(&self) -> bool {
        self.media.is_empty()
    }

    fn check_range(&self, offset: u64, len: usize) {
        assert!(
            (offset as usize)
                .checked_add(len)
                .is_some_and(|end| end <= self.media.len()),
            "access [{offset}, +{len}) out of region bounds ({})",
            self.media.len()
        );
    }

    /// Store `data` at `offset` with the given mode.
    pub fn write(&mut self, offset: u64, data: &[u8], mode: StoreMode) {
        self.check_range(offset, data.len());
        match mode {
            StoreMode::Cached => {
                // Spread the bytes over cache lines in the overlay.
                let mut pos = 0usize;
                while pos < data.len() {
                    let abs = offset + pos as u64;
                    let line = abs / CACHE_LINE;
                    let line_start = line * CACHE_LINE;
                    let within = (abs - line_start) as usize;
                    let take = (CACHE_LINE as usize - within).min(data.len() - pos);
                    let entry = self.overlay.entry(line).or_insert_with(|| {
                        // Faulting a line in pulls current media contents.
                        let mut buf = [0u8; CACHE_LINE as usize];
                        let s = line_start as usize;
                        let e = (s + CACHE_LINE as usize).min(self.media.len());
                        buf[..e - s].copy_from_slice(&self.media[s..e]);
                        buf
                    });
                    entry[within..within + take].copy_from_slice(&data[pos..pos + take]);
                    pos += take;
                }
            }
            StoreMode::NonTemporal => {
                self.wc_pending.push((offset, data.to_vec()));
            }
        }
    }

    /// Load `out.len()` bytes from `offset`, observing volatile state
    /// (reads see the newest store, durable or not).
    pub fn read(&mut self, offset: u64, out: &mut [u8]) {
        self.check_range(offset, out.len());
        out.copy_from_slice(&self.media[offset as usize..offset as usize + out.len()]);
        // Newest-wins: cached overlay first, then pending NT stores in
        // program order (an NT store after a cached store to the same bytes
        // must win, and vice versa is not representable here because NT
        // stores to cached lines would be flushed by real CPUs; the stacks
        // never mix modes on the same bytes).
        let first_line = offset / CACHE_LINE;
        let last_line = (offset + out.len() as u64 - 1) / CACHE_LINE;
        for (&line, contents) in self.overlay.range(first_line..=last_line) {
            let line_start = line * CACHE_LINE;
            let from = line_start.max(offset);
            let to = (line_start + CACHE_LINE).min(offset + out.len() as u64);
            if from < to {
                let src = (from - line_start) as usize..(to - line_start) as usize;
                let dst = (from - offset) as usize..(to - offset) as usize;
                out[dst].copy_from_slice(&contents[src]);
            }
        }
        for (woff, data) in &self.wc_pending {
            let from = (*woff).max(offset);
            let to = (woff + data.len() as u64).min(offset + out.len() as u64);
            if from < to {
                let src = (from - woff) as usize..(to - woff) as usize;
                let dst = (from - offset) as usize..(to - offset) as usize;
                out[dst].copy_from_slice(&data[src]);
            }
        }
    }

    /// Flush (`clwb`) the cache lines overlapping `[offset, offset+len)` to
    /// media. Durable immediately (the ADR domain is persistent).
    pub fn flush(&mut self, offset: u64, len: u64) {
        if len == 0 {
            return;
        }
        self.check_range(offset, len as usize);
        let first_line = offset / CACHE_LINE;
        let last_line = (offset + len - 1) / CACHE_LINE;
        let lines: Vec<u64> = self
            .overlay
            .range(first_line..=last_line)
            .map(|(&l, _)| l)
            .collect();
        for line in lines {
            let contents = self.overlay.remove(&line).unwrap();
            let s = (line * CACHE_LINE) as usize;
            let e = (s + CACHE_LINE as usize).min(self.media.len());
            self.media[s..e].copy_from_slice(&contents[..e - s]);
        }
    }

    /// Fence (`sfence`): commit all pending non-temporal stores to media.
    pub fn fence(&mut self) {
        for (offset, data) in self.wc_pending.drain(..) {
            let s = offset as usize;
            self.media[s..s + data.len()].copy_from_slice(&data);
        }
    }

    /// Convenience: flush the range, then fence.
    pub fn persist(&mut self, offset: u64, len: u64) {
        self.flush(offset, len);
        self.fence();
    }

    /// Power cut: all volatile state (cache overlay, pending NT stores) is
    /// lost; only media survives. Returns the number of bytes discarded.
    pub fn crash(&mut self) -> u64 {
        let lost = self.overlay.len() as u64 * CACHE_LINE
            + self
                .wc_pending
                .iter()
                .map(|(_, d)| d.len() as u64)
                .sum::<u64>();
        self.overlay.clear();
        self.wc_pending.clear();
        lost
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn region() -> PmemRegion {
        PmemRegion::new(1 << 20)
    }

    #[test]
    fn read_your_cached_write_before_flush() {
        let mut r = region();
        r.write(100, b"hello", StoreMode::Cached);
        let mut out = [0u8; 5];
        r.read(100, &mut out);
        assert_eq!(&out, b"hello");
    }

    #[test]
    fn cached_write_lost_on_crash_without_flush() {
        let mut r = region();
        r.write(100, b"hello", StoreMode::Cached);
        r.crash();
        let mut out = [0u8; 5];
        r.read(100, &mut out);
        assert_eq!(&out, b"\0\0\0\0\0");
    }

    #[test]
    fn cached_write_survives_crash_after_flush() {
        let mut r = region();
        r.write(100, b"hello", StoreMode::Cached);
        r.flush(100, 5);
        r.crash();
        let mut out = [0u8; 5];
        r.read(100, &mut out);
        assert_eq!(&out, b"hello");
    }

    #[test]
    fn nt_write_needs_fence() {
        let mut r = region();
        r.write(0, b"abcd", StoreMode::NonTemporal);
        // Visible to reads immediately...
        let mut out = [0u8; 4];
        r.read(0, &mut out);
        assert_eq!(&out, b"abcd");
        // ...but a crash before the fence loses it.
        r.crash();
        r.read(0, &mut out);
        assert_eq!(&out, b"\0\0\0\0");
        // With a fence it persists.
        r.write(0, b"abcd", StoreMode::NonTemporal);
        r.fence();
        r.crash();
        r.read(0, &mut out);
        assert_eq!(&out, b"abcd");
    }

    #[test]
    fn partial_fence_boundary() {
        let mut r = region();
        r.write(0, b"first", StoreMode::NonTemporal);
        r.fence();
        r.write(10, b"second", StoreMode::NonTemporal);
        r.crash(); // second was never fenced
        let mut a = [0u8; 5];
        r.read(0, &mut a);
        assert_eq!(&a, b"first");
        let mut b = [0u8; 6];
        r.read(10, &mut b);
        assert_eq!(&b, b"\0\0\0\0\0\0");
    }

    #[test]
    fn write_spanning_many_cache_lines() {
        let mut r = region();
        let data: Vec<u8> = (0..1000).map(|i| (i % 251) as u8).collect();
        r.write(37, &data, StoreMode::Cached);
        let mut out = vec![0u8; 1000];
        r.read(37, &mut out);
        assert_eq!(out, data);
        r.persist(37, 1000);
        r.crash();
        let mut out2 = vec![0u8; 1000];
        r.read(37, &mut out2);
        assert_eq!(out2, data);
    }

    #[test]
    fn flush_pulls_media_for_partial_lines() {
        let mut r = region();
        // Persist a baseline, then dirty part of the same line and flush:
        // untouched bytes of the line must not be clobbered.
        r.write(0, &[7u8; 64], StoreMode::Cached);
        r.persist(0, 64);
        r.write(10, b"xy", StoreMode::Cached);
        r.persist(10, 2);
        r.crash();
        let mut out = [0u8; 64];
        r.read(0, &mut out);
        assert_eq!(out[9], 7);
        assert_eq!(&out[10..12], b"xy");
        assert_eq!(out[12], 7);
    }

    #[test]
    fn crash_reports_the_volatile_bytes_it_drops() {
        let mut r = region();
        r.write(0, &[1u8; 64], StoreMode::Cached);
        r.write(1000, &[2u8; 100], StoreMode::NonTemporal);
        assert_eq!(r.crash(), 164);
        r.write(0, &[1u8; 64], StoreMode::Cached);
        r.write(1000, &[2u8; 100], StoreMode::NonTemporal);
        r.flush(0, 64);
        r.fence();
        assert_eq!(r.crash(), 0);
    }

    #[test]
    #[should_panic(expected = "out of region bounds")]
    fn out_of_bounds_write_panics() {
        let mut r = region();
        r.write((1 << 20) - 2, b"abc", StoreMode::Cached);
    }

    #[test]
    fn overlapping_nt_stores_newest_wins() {
        let mut r = region();
        r.write(0, b"aaaa", StoreMode::NonTemporal);
        r.write(2, b"bb", StoreMode::NonTemporal);
        let mut out = [0u8; 4];
        r.read(0, &mut out);
        assert_eq!(&out, b"aabb");
        r.fence();
        r.crash();
        r.read(0, &mut out);
        assert_eq!(&out, b"aabb");
    }
}
