//! Whole-engine throughput benchmark: events/sec through `Simulation`.
//!
//! A seeded population of processes spins through compute phases of
//! log-uniform length (1 µs to 10 ms, the spacing of the engine's flow
//! updates), so the pending-event set stays at population depth and the
//! measurement isolates the event loop. The run is repeated and the two
//! reports must be bit-identical (same end time, same event count).
//!
//! Always writes `BENCH_des_events.json` (schema-stable, one object) so
//! successive runs seed a perf trajectory. `--smoke` shrinks the scale
//! for CI.
//!
//! ```text
//! des_events [--smoke] [--out PATH]
//! ```

use pmemflow_des::rng::SplitMix64;
use pmemflow_des::{Action, Process, Resume, SimDuration, SimTime, Simulation};
use std::time::Instant;

/// Log-uniform delay in `[lo, hi]` seconds — the engine's event spacing
/// spans decades, so a log-uniform draw is the representative shape.
fn log_uniform(rng: &mut SplitMix64, lo: f64, hi: f64) -> f64 {
    (lo.ln() + rng.next_f64() * (hi.ln() - lo.ln())).exp()
}

/// A process that spins through `steps` compute phases of seeded
/// pseudo-random length. Each phase is one timer event; a population of
/// spinners keeps the pending-event set at population depth.
struct Spinner {
    rng: SplitMix64,
    steps: u32,
}

impl Process for Spinner {
    fn next(&mut self, _now: SimTime, _resume: Resume) -> Action {
        if self.steps == 0 {
            return Action::Done;
        }
        self.steps -= 1;
        Action::Compute(SimDuration(log_uniform(&mut self.rng, 1e-6, 1e-2)))
    }

    fn name(&self) -> String {
        "spinner".to_string()
    }
}

/// Run `procs` spinners of `steps` events each; returns (report, wall s).
fn run_engine(procs: usize, steps: u32) -> (pmemflow_des::SimReport, f64) {
    let mut sim = Simulation::new();
    for p in 0..procs {
        sim.spawn(Box::new(Spinner {
            rng: SplitMix64::new(0x5EED_0000 ^ p as u64),
            steps,
        }));
    }
    let t0 = Instant::now();
    let report = sim.run().expect("spinner population runs");
    (report, t0.elapsed().as_secs_f64())
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let smoke = args.iter().any(|a| a == "--smoke");
    let out = args
        .iter()
        .position(|a| a == "--out")
        .and_then(|i| args.get(i + 1).cloned())
        .unwrap_or_else(|| "BENCH_des_events.json".to_string());

    let (procs, steps): (usize, u32) = if smoke { (2_000, 25) } else { (20_000, 100) };

    println!("DES ENGINE THROUGHPUT\n");
    let events = procs as u64 * (steps as u64 + 1); // +1 Done
    println!("{procs} processes x {steps} timer events, ~{events} events total:");
    let (first, first_s) = run_engine(procs, steps);
    let (second, second_s) = run_engine(procs, steps);
    assert_eq!(
        first.events_processed, second.events_processed,
        "event counts must match"
    );
    assert_eq!(
        first.end_time.0.to_bits(),
        second.end_time.0.to_bits(),
        "end times must be bit-identical"
    );
    let eps = first.events_processed as f64 / first_s.min(second_s);
    println!(
        "  {eps:>12.0} events/s (best of 2), max queue depth {}",
        first.max_heap_depth
    );

    let json = format!(
        "{{\"bench\":\"des_events\",\"smoke\":{smoke},\
         \"engine\":{{\"processes\":{procs},\"events\":{},\"max_queue_depth\":{},\
         \"events_per_sec\":{eps:.0},\"deterministic\":true}}}}\n",
        first.events_processed, first.max_heap_depth,
    );
    std::fs::write(&out, &json).expect("write bench JSON");
    println!("\nwrote {out}");
}
