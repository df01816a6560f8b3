//! Host-speed normalisation of wall times.
//!
//! The benchmark's host (a 2-vCPU VM on a shared machine) runs each vCPU
//! at two speeds up to 2× apart and flips between them many times a
//! second to once a minute. Compute-bound code slows by nearly the full
//! factor while memory-latency-bound code barely slows, and pmemflow's
//! paths are compute-bound. Raw wall times of the same code therefore
//! spread by more than any bound a change could be held to.
//!
//! [`Pace`] runs a fixed compute kernel of the benchmark's own (no
//! pmemflow code) on the thread doing the timed work, before and after
//! every stretch of it, and rescales each stretch's wall time by how long
//! the kernel took around it: `wall × (REFERENCE_S / kernel)^sensitivity`.
//! The result is host seconds at the reference speed, the speed at which
//! one kernel pass takes [`REFERENCE_S`]. A change to pmemflow moves it as
//! it moves raw wall time; a change of host speed cancels out. Probe time
//! is never counted as work.
//!
//! `sensitivity` is how strongly a workload's time follows the kernel's:
//! the exponent that makes a workload's rescaled time independent of host
//! speed. It would be 1 for code that slows exactly as the kernel does;
//! pmemflow's paths mix in memory stalls, wake-ups and loopback I/O that
//! slow less. Each workload uses the value, in steps of 0.1, that gave the
//! steadiest run medians over five to ten seeds on a 2-vCPU VM, recomputed
//! from the units and probes each run lists on standard error.

use std::hint::black_box;
use std::time::{Duration, Instant};

/// Seconds one kernel pass takes at the reference speed: the fast state
/// of a 2-vCPU Xeon VM.
pub const REFERENCE_S: f64 = 0.000_7;
/// Iterations of the kernel's dependent arithmetic chain.
const ITERATIONS: u64 = 100_000;

/// One pass of the reference kernel: a dependent chain of floating-point
/// (logarithm, square root, division) and integer (multiply, shift, xor)
/// arithmetic on fixed inputs, touching no memory. Returns its seconds.
fn kernel() -> f64 {
    let t0 = Instant::now();
    let (mut x, mut h) = (0.0f64, 0x9ace_u64);
    for i in 0..ITERATIONS {
        let r = black_box(i as f64 * 1e-3 + 1.0);
        x += r.ln().sqrt() / (1.0 + r);
        h = (h ^ (h >> 29))
            .wrapping_mul(0xbf58_476d_1ce4_e5b9)
            .wrapping_add(i);
    }
    black_box((x, h));
    t0.elapsed().as_secs_f64()
}

/// One probe: the mean of `threads` kernel passes run at once, one on the
/// calling thread and the others on threads spawned for it, which the
/// kernel's scheduler places on the otherwise idle vCPUs.
fn probe(threads: usize) -> f64 {
    if threads <= 1 {
        return kernel();
    }
    std::thread::scope(|scope| {
        let others: Vec<_> = (1..threads).map(|_| scope.spawn(kernel)).collect();
        let own = kernel();
        let others: f64 = others
            .into_iter()
            .map(|t| t.join().expect("the kernel does not panic"))
            .sum();
        (own + others) / threads as f64
    })
}

/// Raw and rescaled seconds of one unit of timed work.
#[derive(Clone, Copy, Debug, Default)]
pub struct Timed {
    /// Host seconds, probes excluded.
    pub raw: f64,
    /// Seconds at the reference speed.
    pub scaled: f64,
    /// Kernel seconds around the unit, weighted by the stretches' lengths:
    /// the lower, the faster the host ran it.
    pub probe: f64,
}

impl Timed {
    /// Reference-speed seconds per host second of this unit, to rescale
    /// times measured inside it (per-layer spans, request latencies).
    pub fn factor(&self) -> f64 {
        if self.raw > 0.0 {
            self.scaled / self.raw
        } else {
            1.0
        }
    }
}

/// Units and the probes around them, for the human-readable table.
pub fn units_note(label: &str, units: &[Timed]) -> String {
    let shown: Vec<String> = units
        .iter()
        .map(|u| format!("{:.5}@{:.4}", u.scaled, u.probe * 1e3))
        .collect();
    format!("{label} (s@probe ms): {}", shown.join(" "))
}

/// Probes host speed on the calling thread and rescales the wall time of
/// the work done between probes. A unit of work runs between [`begin`]
/// and [`end`]; [`tick`] called from inside a long unit closes the current
/// stretch with a probe once it has run for `every`.
///
/// [`begin`]: Pace::begin
/// [`end`]: Pace::end
/// [`tick`]: Pace::tick
pub struct Pace {
    every: Duration,
    /// Threads that probe at once: one per vCPU the timed work spreads
    /// over. The probe is their mean.
    threads: usize,
    /// Exponent on the speed ratio; see the module documentation.
    sensitivity: f64,
    /// The latest probe, seconds.
    last: f64,
    /// Start of the current stretch.
    stretch: Instant,
    unit: Timed,
    probes: Vec<f64>,
}

impl Pace {
    /// Probe once, so the first stretch has a probe before it. Work done
    /// on the calling thread alone takes `threads` = 1; work spread over
    /// several threads takes one probing thread per vCPU it uses.
    pub fn new(every: Duration, threads: usize, sensitivity: f64) -> Pace {
        let last = probe(threads);
        Pace {
            every,
            threads,
            sensitivity,
            last,
            stretch: Instant::now(),
            unit: Timed::default(),
            probes: vec![last],
        }
    }

    /// Start a unit of timed work.
    pub fn begin(&mut self) {
        self.unit = Timed::default();
        self.stretch = Instant::now();
    }

    /// Inside a unit: close the current stretch with a probe if it has
    /// run for `every`.
    pub fn tick(&mut self) {
        if self.stretch.elapsed() >= self.every {
            self.close();
        }
    }

    /// End the unit begun last; its raw and rescaled seconds.
    pub fn end(&mut self) -> Timed {
        self.close();
        self.unit
    }

    fn close(&mut self) {
        let wall = self.stretch.elapsed().as_secs_f64();
        let after = probe(self.threads);
        let around = (self.last + after) / 2.0;
        let unit = &mut self.unit;
        let weight = unit.raw;
        unit.raw += wall;
        unit.scaled += wall * (REFERENCE_S / around).powf(self.sensitivity);
        unit.probe = if unit.raw > 0.0 {
            (unit.probe * weight + around * wall) / unit.raw
        } else {
            around
        };
        self.last = after;
        self.probes.push(after);
        self.stretch = Instant::now();
    }

    /// The probes taken so far, for the human-readable table.
    pub fn summary(&self) -> String {
        let mut sorted = self.probes.clone();
        sorted.sort_by(f64::total_cmp);
        let at = |q: f64| sorted[((sorted.len() - 1) as f64 * q).round() as usize] * 1e3;
        format!(
            "{} host-speed probes (ms): p10 {:.3} p50 {:.3} p90 {:.3}, reference {:.3}",
            sorted.len(),
            at(0.1),
            at(0.5),
            at(0.9),
            REFERENCE_S * 1e3
        )
    }
}
