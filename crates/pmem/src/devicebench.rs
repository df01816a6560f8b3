//! Raw-device characterization tables (paper §II-B reproduction).
//!
//! The paper grounds its scheduling arguments in a handful of raw Optane
//! behaviours. This module evaluates the model at the same operating points
//! and produces the numbers a device microbenchmark would print;
//! [`device_report`] prints them. The paper-versus-model comparison of the
//! headlines is the §II-B rows of the scorecard
//! (`pmemflow_sched::scorecard`).

use crate::profile::{DeviceProfile, GB};
use pmemflow_des::{Direction, Locality};
use std::fmt::Write as _;

/// One row of the characterization table.
#[derive(Debug, Clone, PartialEq)]
pub struct BandwidthRow {
    /// Concurrent operations.
    pub threads: f64,
    /// Aggregate local read bandwidth, bytes/s.
    pub local_read: f64,
    /// Aggregate local write bandwidth, bytes/s.
    pub local_write: f64,
    /// Aggregate remote read bandwidth, bytes/s.
    pub remote_read: f64,
    /// Aggregate remote streaming write bandwidth, bytes/s.
    pub remote_write: f64,
    /// Aggregate remote random-4K write bandwidth, bytes/s.
    pub remote_write_random: f64,
}

/// Evaluate the device model at the given concurrency levels.
pub fn bandwidth_table(profile: &DeviceProfile, thread_counts: &[f64]) -> Vec<BandwidthRow> {
    thread_counts
        .iter()
        .map(|&n| BandwidthRow {
            threads: n,
            local_read: profile.local_read_bw.eval(n),
            local_write: profile.local_write_bw.eval(n),
            remote_read: profile.local_read_bw.eval(n) / profile.remote_read_penalty.eval(n),
            remote_write: profile.remote_write_bw.eval(n),
            remote_write_random: profile.remote_write_bw_random.eval(n),
        })
        .collect()
}

/// The §II-B headline ratios computed from the model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeadlineRatios {
    /// The local write *peak* (at its best thread count, 4) over remote
    /// random-write bandwidth at 24 concurrent ops (paper: ~15×). The two
    /// sides sit at different concurrencies; the scorecard row
    /// `write_drop` also reports the drop with both at 24.
    pub write_drop_at_24: f64,
    /// Remote/local read slowdown at 24 concurrent reads (paper: ~1.3×).
    pub read_drop_at_24: f64,
    /// Idle write latency, seconds (paper: 90 ns).
    pub write_latency: f64,
    /// Idle read latency, seconds (paper: 169 ns).
    pub read_latency: f64,
}

/// Compute the headline §II-B ratios for a profile.
pub fn headline_ratios(profile: &DeviceProfile) -> HeadlineRatios {
    HeadlineRatios {
        write_drop_at_24: profile.local_write_bw.peak() / profile.remote_write_bw_random.eval(24.0),
        read_drop_at_24: profile.remote_read_penalty.eval(24.0),
        write_latency: profile.latency(Direction::Write, Locality::Local),
        read_latency: profile.latency(Direction::Read, Locality::Local),
    }
}

/// The §II-B characterization as text: bandwidth and loaded latency
/// versus concurrency, then the headline numbers.
pub fn device_report(profile: &DeviceProfile) -> String {
    let mut out = format!(
        "{} model: bandwidth vs concurrency (GB/s)\n\n\
         {:>7} {:>10} {:>11} {:>11} {:>12} {:>14}\n",
        profile.name,
        "threads",
        "local-read",
        "local-write",
        "remote-read",
        "remote-write",
        "rw-random-4K"
    );
    let threads = [1.0, 2.0, 3.0, 4.0, 8.0, 12.0, 16.0, 17.0, 24.0, 48.0];
    for row in bandwidth_table(profile, &threads) {
        let _ = writeln!(
            out,
            "{:>7.0} {:>10.1} {:>11.1} {:>11.1} {:>12.1} {:>14.2}",
            row.threads,
            row.local_read / GB,
            row.local_write / GB,
            row.remote_read / GB,
            row.remote_write / GB,
            row.remote_write_random / GB,
        );
    }
    let _ = write!(
        out,
        "\nloaded latency vs concurrency (ns):\n{:>7} {:>11} {:>11}\n",
        "threads", "read-local", "write-local"
    );
    for n in [0.0, 1.0, 4.0, 8.0, 17.0, 24.0] {
        let _ = writeln!(
            out,
            "{:>7.0} {:>11.0} {:>11.0}",
            n,
            profile.loaded_latency(Direction::Read, Locality::Local, n) * 1e9,
            profile.loaded_latency(Direction::Write, Locality::Local, n) * 1e9,
        );
    }
    let h = headline_ratios(profile);
    let _ = write!(
        out,
        "\n§II-B headline numbers:\n\
         \x20 peak local read  {:.1} GB/s at {} threads\n\
         \x20 peak local write {:.1} GB/s at {} threads\n\
         \x20 remote random-write drop at 24 ops: {:.1}x\n\
         \x20 remote read slowdown at 24 ops: {:.2}x\n\
         \x20 idle latency: write {:.0} ns / read {:.0} ns\n\
         (the paper's values and their bounds: the §II-B rows of `--bin calibrate`)\n",
        profile.local_read_bw.peak() / GB,
        profile.local_read_bw.peak_x(),
        profile.local_write_bw.peak() / GB,
        profile.local_write_bw.peak_x(),
        h.write_drop_at_24,
        h.read_drop_at_24,
        h.write_latency * 1e9,
        h.read_latency * 1e9,
    );
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table_is_monotone_in_sensible_ranges() {
        let p = DeviceProfile::optane_gen1();
        let rows = bandwidth_table(&p, &[1.0, 4.0, 8.0, 17.0]);
        for w in rows.windows(2) {
            assert!(w[1].local_read >= w[0].local_read);
        }
    }
}
