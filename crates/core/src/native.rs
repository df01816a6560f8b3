//! Native execution: real threads moving real bytes.
//!
//! The DES executor predicts timing; this module actually *runs* a
//! workflow: writer threads generate payloads and `put` them into a real
//! [`ObjectStore`] (NOVA-like or NVStream-like over a [`PmemRegion`]),
//! reader threads `get` and verify every version. Device behaviour is
//! imposed by a rate shaper that delays each operation according to the same
//! [`DeviceProfile`] curves the DES uses — scaled by `time_scale` so demos
//! finish quickly on commodity hardware.
//!
//! This is the executable-on-your-laptop counterpart of the paper's
//! deployments: it validates the data path (every byte read back is
//! checked) and demonstrates the scheduling configurations with real
//! concurrency, while absolute timing fidelity remains the DES's job.

use crate::config::{ExecMode, SchedConfig};
use crate::sync::lock_recover;
use pmemflow_des::{Direction, Locality};
use pmemflow_iostack::{NovaFs, NvStore, ObjectStore, StackKind};
use pmemflow_pmem::{DeviceProfile, PmemRegion};
use pmemflow_workloads::WorkflowSpec;
use std::panic::AssertUnwindSafe;
use std::sync::mpsc::{channel, Receiver, Sender};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Parameters for a native run.
#[derive(Debug, Clone)]
pub struct NativeParams {
    /// Device model used for shaping.
    pub profile: DeviceProfile,
    /// Which store implementation carries the channel.
    pub stack: StackKind,
    /// Backing region size in bytes (must hold every version of every
    /// stream).
    pub region_bytes: usize,
    /// Wall seconds per simulated second (e.g. `1e-3` runs a 100 s
    /// workflow in 100 ms of shaping delays).
    pub time_scale: f64,
}

impl Default for NativeParams {
    fn default() -> Self {
        Self {
            profile: DeviceProfile::optane_gen1(),
            stack: StackKind::NvStream,
            region_bytes: 64 << 20,
            time_scale: 1e-4,
        }
    }
}

/// Outcome of a native run.
#[derive(Debug, Clone)]
pub struct NativeReport {
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Sum of all shaping delays (the device model's time, free of thread
    /// scheduling and store-implementation overheads).
    pub shaped: Duration,
    /// Bytes written by all writers.
    pub bytes_written: u64,
    /// Bytes read (and content-verified) by all readers.
    pub bytes_verified: u64,
    /// Number of objects whose payload failed verification (always 0 for a
    /// correct store).
    pub verification_failures: u64,
}

/// Rate shaper: tracks in-flight operations per (direction, locality)
/// class and delays each operation by `bytes / fair_rate`, where the fair
/// rate comes from the device profile's class capacity at the current
/// concurrency — the same quantities the fluid model uses, applied
/// per-operation.
struct Shaper {
    profile: DeviceProfile,
    time_scale: f64,
    in_flight: Mutex<[usize; 4]>,
    shaped_total: Mutex<f64>,
}

fn class_index(dir: Direction, loc: Locality) -> usize {
    match (dir, loc) {
        (Direction::Read, Locality::Local) => 0,
        (Direction::Read, Locality::Remote) => 1,
        (Direction::Write, Locality::Local) => 2,
        (Direction::Write, Locality::Remote) => 3,
    }
}

impl Shaper {
    /// Build a shaper for `profile`, with delays scaled by `time_scale`.
    pub fn new(profile: DeviceProfile, time_scale: f64) -> Self {
        Self {
            profile,
            time_scale,
            in_flight: Mutex::new([0; 4]),
            shaped_total: Mutex::new(0.0),
        }
    }

    /// Total shaping delay handed out so far, across all threads. This is
    /// the model's view of device time, free of thread-scheduling noise.
    fn shaped_total(&self) -> Duration {
        Duration::from_secs_f64(*lock_recover(&self.shaped_total))
    }

    /// Compute the shaping delay for an operation of `bytes` bytes. The
    /// operation counts as in-flight for the duration of the returned
    /// delay, so concurrent callers see each other's pressure.
    fn delay_for(&self, dir: Direction, loc: Locality, object_bytes: u64, bytes: u64) -> Duration {
        let idx = class_index(dir, loc);
        let (n_total, n_remote, n_class) = {
            let g = lock_recover(&self.in_flight);
            let t: usize = g.iter().sum::<usize>() + 1;
            (
                t,
                g[1] + g[3] + usize::from(idx == 1 || idx == 3),
                g[idx] + 1,
            )
        };
        let cap =
            self.profile
                .class_capacity(dir, loc, object_bytes, n_total as f64, n_remote as f64);
        let single = self.profile.single_thread_rate(dir, loc, object_bytes);
        let rate = (cap / n_class.max(1) as f64).min(single).max(1.0);
        Duration::from_secs_f64(bytes as f64 / rate * self.time_scale)
    }

    /// Account an operation of `bytes` bytes: registers it as in-flight,
    /// sleeps the shaping delay, deregisters, and returns the delay.
    pub fn shape(&self, dir: Direction, loc: Locality, object_bytes: u64, bytes: u64) -> Duration {
        let idx = class_index(dir, loc);
        {
            let mut g = lock_recover(&self.in_flight);
            g[idx] += 1;
        }
        let delay = self.delay_for(dir, loc, object_bytes, bytes);
        std::thread::sleep(delay);
        {
            let mut g = lock_recover(&self.in_flight);
            g[idx] -= 1;
        }
        *lock_recover(&self.shaped_total) += delay.as_secs_f64();
        delay
    }
}

fn make_store(params: &NativeParams) -> Box<dyn ObjectStore + Send> {
    let region = PmemRegion::new(params.region_bytes);
    match params.stack {
        StackKind::Nova => Box::new(
            NovaFs::format(region, 64, 1 << 20).expect("region large enough for NOVA layout"),
        ),
        StackKind::NvStream => {
            Box::new(NvStore::format(region).expect("region large enough for NVStream"))
        }
    }
}

/// Deterministic payload for (rank, version, len): readers recompute and
/// compare, so any store corruption is caught.
pub fn payload(rank: usize, version: u64, len: usize) -> Vec<u8> {
    let mut v = Vec::with_capacity(len);
    // splitmix64-style scramble so that nearby (rank, version) pairs give
    // unrelated streams.
    let mut x = (rank as u64)
        .wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(version.wrapping_mul(0xbf58_476d_1ce4_e5b9));
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    if x == 0 {
        x = 0x9e37_79b9_7f4a_7c15;
    }
    // xorshift64, emitted a word at a time (fast enough that payload
    // generation never swamps the shaped I/O delays, even in debug builds).
    while v.len() + 8 <= len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.extend_from_slice(&x.to_le_bytes());
    }
    while v.len() < len {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        v.push((x & 0xff) as u8);
    }
    v
}

/// Run `spec` natively under `config`. Object counts and sizes should be
/// laptop-scale (use [`WorkflowSpec::with_ranks`] and small patterns);
/// the suite's 80 GB workloads belong in the DES.
///
/// Each writer rank owns its own store instance (NVStream's per-writer
/// logs; NOVA's per-inode logs), so rank pairs never serialize on a shared
/// lock — `region_bytes` is the per-rank store size.
pub fn run_native(
    spec: &WorkflowSpec,
    config: SchedConfig,
    params: &NativeParams,
) -> Result<NativeReport, String> {
    spec.validate()?;
    let stores: Vec<Arc<Mutex<Box<dyn ObjectStore + Send>>>> = (0..spec.ranks)
        .map(|_| Arc::new(Mutex::new(make_store(params))))
        .collect();
    let shaper = Arc::new(Shaper::new(params.profile.clone(), params.time_scale));
    let w_loc = config.writer_locality();
    let r_loc = config.reader_locality();

    let object_bytes = spec.writer.io.object_bytes;
    let objects = spec.writer.io.objects_per_snapshot;
    let iterations = spec.iterations;
    let bytes_written = Arc::new(Mutex::new(0u64));
    let bytes_verified = Arc::new(Mutex::new(0u64));
    let failures = Arc::new(Mutex::new(0u64));

    // Version announcements: writers -> readers (one channel per rank pair).
    let mut senders: Vec<Sender<u64>> = Vec::new();
    let mut receivers: Vec<Receiver<u64>> = Vec::new();
    for _ in 0..spec.ranks {
        let (tx, rx) = channel();
        senders.push(tx);
        receivers.push(rx);
    }

    let start = Instant::now();
    std::panic::catch_unwind(AssertUnwindSafe(|| {
        std::thread::scope(|scope| {
            // Writers.
            for (rank, tx) in senders.into_iter().enumerate() {
                let store = Arc::clone(&stores[rank]);
                let shaper = Arc::clone(&shaper);
                let bytes_written = Arc::clone(&bytes_written);
                scope.spawn(move || {
                    for v in 1..=iterations {
                        for obj in 0..objects {
                            let data =
                                payload(rank * 1000 + obj as usize, v, object_bytes as usize);
                            shaper.shape(Direction::Write, w_loc, object_bytes, object_bytes);
                            lock_recover(&store)
                                .put(&format!("w{rank}/o{obj}"), v, &data)
                                .expect("native put");
                            *lock_recover(&bytes_written) += object_bytes;
                        }
                        tx.send(v).expect("reader alive");
                    }
                });
            }
            // Readers.
            for (rank, rx) in receivers.into_iter().enumerate() {
                let store = Arc::clone(&stores[rank]);
                let shaper = Arc::clone(&shaper);
                let bytes_verified = Arc::clone(&bytes_verified);
                let failures = Arc::clone(&failures);
                let mode = config.mode;
                scope.spawn(move || {
                    let consume = |v: u64| {
                        for obj in 0..objects {
                            shaper.shape(Direction::Read, r_loc, object_bytes, object_bytes);
                            let got = lock_recover(&store)
                                .get(&format!("w{rank}/o{obj}"), v)
                                .expect("native get");
                            let want =
                                payload(rank * 1000 + obj as usize, v, object_bytes as usize);
                            if got != want {
                                *lock_recover(&failures) += 1;
                            } else {
                                *lock_recover(&bytes_verified) += object_bytes;
                            }
                        }
                    };
                    match mode {
                        ExecMode::Parallel => {
                            for v in rx.iter().take(iterations as usize) {
                                consume(v);
                            }
                        }
                        ExecMode::Serial => {
                            // Drain all announcements first (writer done), then
                            // read every version.
                            let versions: Vec<u64> = rx.iter().take(iterations as usize).collect();
                            for v in versions {
                                consume(v);
                            }
                        }
                    }
                });
            }
        });
    }))
    .map_err(|_| "a native worker panicked".to_string())?;

    let written = *lock_recover(&bytes_written);
    let verified = *lock_recover(&bytes_verified);
    let failed = *lock_recover(&failures);
    Ok(NativeReport {
        wall: start.elapsed(),
        shaped: shaper.shaped_total(),
        bytes_written: written,
        bytes_verified: verified,
        verification_failures: failed,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemflow_workloads::{ComponentSpec, IoPattern};

    fn tiny_spec(ranks: usize, mode_objects: u64) -> WorkflowSpec {
        let io = IoPattern {
            objects_per_snapshot: mode_objects,
            object_bytes: 1024,
        };
        WorkflowSpec {
            name: "native-tiny".into(),
            writer: ComponentSpec {
                name: "w".into(),
                compute_per_iteration: 0.0,
                io,
            },
            reader: ComponentSpec {
                name: "r".into(),
                compute_per_iteration: 0.0,
                io,
            },
            ranks,
            iterations: 3,
        }
    }

    fn fast_params() -> NativeParams {
        NativeParams {
            time_scale: 1e-7,
            region_bytes: 8 << 20,
            ..Default::default()
        }
    }

    #[test]
    fn native_parallel_verifies_all_bytes() {
        let spec = tiny_spec(4, 4);
        let rep = run_native(&spec, SchedConfig::P_LOC_R, &fast_params()).unwrap();
        let expect = 4 * 4 * 3 * 1024u64;
        assert_eq!(rep.bytes_written, expect);
        assert_eq!(rep.bytes_verified, expect);
        assert_eq!(rep.verification_failures, 0);
    }

    #[test]
    fn native_serial_verifies_all_bytes() {
        let spec = tiny_spec(2, 2);
        let rep = run_native(&spec, SchedConfig::S_LOC_W, &fast_params()).unwrap();
        assert_eq!(rep.verification_failures, 0);
        assert_eq!(rep.bytes_verified, 2 * 2 * 3 * 1024);
    }

    #[test]
    fn native_on_nova_store() {
        let spec = tiny_spec(2, 2);
        let params = NativeParams {
            stack: StackKind::Nova,
            ..fast_params()
        };
        let rep = run_native(&spec, SchedConfig::P_LOC_W, &params).unwrap();
        assert_eq!(rep.verification_failures, 0);
    }

    #[test]
    fn payload_is_deterministic_and_distinct() {
        assert_eq!(payload(1, 2, 128), payload(1, 2, 128));
        assert_ne!(payload(1, 2, 128), payload(1, 3, 128));
        assert_ne!(payload(1, 2, 128), payload(2, 2, 128));
    }

    #[test]
    fn shaper_remote_write_slower_than_local() {
        let s = Shaper::new(DeviceProfile::optane_gen1(), 1.0);
        let local = s.shape(Direction::Write, Locality::Local, 1 << 20, 1 << 20);
        let remote = s.shape(Direction::Write, Locality::Remote, 1 << 20, 1 << 20);
        assert!(remote > local);
    }
}
