//! Model calibration search.
//!
//! The device model has a handful of free constants the paper does not pin
//! down numerically (mid-curve remote-write bandwidth, mixing budgets,
//! proxy-kernel compute durations, stack op costs). This binary searches
//! that space — randomized exploration followed by hill-climbing — scoring
//! each candidate by agreement with the paper's Table II winners plus the
//! closeness of near-misses, and prints the best parameter set found.
//!
//! The chosen values are then frozen into `DeviceProfile::optane_gen1`,
//! the stack cost models, and the workload constants; this tool documents
//! how they were derived and lets anyone re-derive them.

use pmemflow_bench::BenchArgs;
use pmemflow_core::{sweep, ExecutionParams};
use pmemflow_des::rng::SplitMix64;
use pmemflow_iostack::{StackCostModel, StackKind};
use pmemflow_pmem::{Curve, DeviceProfile, GB};
use pmemflow_sched::scorecard::{agreement, panel_table, Panel};
use pmemflow_workloads::{paper_suite, Family};

#[derive(Debug, Clone, Copy)]
struct Knobs {
    // Remote streaming write curve values (GB/s) at 3/8/16/24 threads.
    rw3: f64,
    rw8: f64,
    rw12: f64,
    rw16: f64,
    rw24: f64,
    /// Remote read penalty at low concurrency (paper pins 1.3 at 24).
    rr_low: f64,
    // Large-access mixed budget: 1.0 until `mix_knee`, then through
    // `mix_mid` at `mix_knee + 8`, linear to `mix_floor` at 48.
    mix_knee: f64,
    mix_mid: f64,
    mix_floor: f64,
    // Small-access extra mixing multiplier: same shape with the midpoint
    // at `smix_knee + 6`.
    smix_knee: f64,
    smix_mid: f64,
    smix_floor: f64,
    // Proxy kernel compute seconds.
    gtc_c: f64,
    gtc_mm: f64,
    amr_c: f64,
    amr_mm: f64,
    // NVStream costs.
    nvs_wop: f64,
    nvs_rop: f64,
    nvs_wb: f64,
    nvs_rb: f64,
    // Rank stagger fraction.
    stagger: f64,
}

impl Knobs {
    fn current() -> Knobs {
        Knobs {
            rw3: 11.0,
            rw8: 10.5,
            rw12: 10.5,
            rw16: 7.6,
            rw24: 4.7,
            rr_low: 1.21,
            mix_knee: 8.1,
            mix_mid: 0.43,
            mix_floor: 0.43,
            smix_knee: 6.9,
            smix_mid: 0.85,
            smix_floor: 0.55,
            gtc_c: 0.544,
            gtc_mm: 0.629,
            amr_c: 0.0127,
            amr_mm: 0.307,
            nvs_wop: 3.49e-6,
            nvs_rop: 2.53e-6,
            nvs_wb: 0.13e-9,
            nvs_rb: 0.167e-9,
            stagger: 2.46,
        }
    }

    fn random(rng: &mut SplitMix64) -> Knobs {
        Knobs {
            rw3: rng.range_f64(5.5, 11.0),
            rw8: rng.range_f64(5.0, 12.0),
            rw12: rng.range_f64(4.5, 10.5),
            rw16: rng.range_f64(3.5, 8.0),
            rw24: rng.range_f64(2.4, 5.5),
            rr_low: rng.range_f64(1.02, 1.22),
            mix_knee: rng.range_f64(8.0, 28.0),
            mix_mid: rng.range_f64(0.35, 1.0),
            mix_floor: rng.range_f64(0.2, 0.95),
            smix_knee: rng.range_f64(6.0, 24.0),
            smix_mid: rng.range_f64(0.3, 1.0),
            smix_floor: rng.range_f64(0.15, 0.85),
            gtc_c: rng.range_f64(0.4, 2.5),
            gtc_mm: rng.range_f64(0.2, 2.2),
            amr_c: rng.range_f64(0.01, 0.3),
            amr_mm: rng.range_f64(0.2, 1.5),
            nvs_wop: rng.range_f64(1.5e-6, 6.0e-6),
            nvs_rop: rng.range_f64(0.5e-6, 2.6e-6),
            nvs_wb: rng.range_f64(0.1e-9, 0.5e-9),
            nvs_rb: rng.range_f64(0.1e-9, 0.45e-9),
            stagger: rng.range_f64(0.0, 2.5),
        }
    }

    fn perturb(&self, rng: &mut SplitMix64, scale: f64) -> Knobs {
        let mut k = *self;
        let m = |rng: &mut SplitMix64, v: f64, lo: f64, hi: f64| {
            (v * (1.0 + rng.range_f64(-scale, scale))).clamp(lo, hi)
        };
        k.rw3 = m(rng, k.rw3, 5.5, 11.0);
        k.rw8 = m(rng, k.rw8, 5.0, 12.0);
        k.rw12 = m(rng, k.rw12, 4.5, 10.5);
        k.rw16 = m(rng, k.rw16, 3.5, 8.0);
        k.rw24 = m(rng, k.rw24, 2.4, 5.5);
        k.rr_low = m(rng, k.rr_low, 1.02, 1.22);
        k.mix_knee = m(rng, k.mix_knee, 8.0, 28.0);
        k.mix_mid = m(rng, k.mix_mid, 0.35, 1.0);
        k.mix_floor = m(rng, k.mix_floor, 0.2, 0.95);
        k.smix_knee = m(rng, k.smix_knee, 6.0, 24.0);
        k.smix_mid = m(rng, k.smix_mid, 0.3, 1.0);
        k.smix_floor = m(rng, k.smix_floor, 0.15, 0.85);
        k.gtc_c = m(rng, k.gtc_c, 0.4, 2.5);
        k.gtc_mm = m(rng, k.gtc_mm, 0.2, 2.2);
        k.amr_c = m(rng, k.amr_c, 0.01, 0.3);
        k.amr_mm = m(rng, k.amr_mm, 0.2, 1.5);
        k.nvs_wop = m(rng, k.nvs_wop, 1.5e-6, 6.0e-6);
        k.nvs_rop = m(rng, k.nvs_rop, 0.5e-6, 2.6e-6);
        k.nvs_wb = m(rng, k.nvs_wb, 0.1e-9, 0.5e-9);
        k.nvs_rb = m(rng, k.nvs_rb, 0.1e-9, 0.45e-9);
        k.stagger = (k.stagger + rng.range_f64(-scale, scale)).clamp(0.0, 2.5);
        k
    }

    fn params(&self) -> ExecutionParams {
        let mut profile = DeviceProfile::optane_gen1();
        profile.remote_write_bw = Curve::from_points(&[
            (0.0, 0.0),
            (1.0, (self.rw3 * 0.75).min(5.4) * GB),
            (3.0, self.rw3 * GB),
            (8.0, self.rw8 * GB),
            (12.0, self.rw12 * GB),
            (16.0, self.rw16 * GB),
            (24.0, self.rw24 * GB),
            (48.0, self.rw24 * 0.75 * GB),
        ]);
        profile.remote_read_penalty = Curve::from_points(&[
            (0.0, self.rr_low),
            (8.0, ((self.rr_low + 1.3) / 2.0 - 0.08).max(self.rr_low)),
            (16.0, 1.2f64.max(self.rr_low)),
            (24.0, 1.3),
            (48.0, 1.55),
        ]);
        profile.mix_budget = Curve::from_points(&[
            (0.0, 1.0),
            (self.mix_knee, 1.0),
            (self.mix_knee + 8.0, self.mix_mid.min(1.0)),
            (48.0, self.mix_floor.min(self.mix_mid)),
        ]);
        profile.small_mix_budget = Curve::from_points(&[
            (0.0, 1.0),
            (self.smix_knee, 1.0),
            (self.smix_knee + 6.0, self.smix_mid.min(1.0)),
            (48.0, self.smix_floor.min(self.smix_mid)),
        ]);
        let mut p = ExecutionParams::default().with_profile(profile);
        p.stagger = self.stagger;
        p.cost_override = Some(StackCostModel {
            name: "NVStream-tuned",
            write_op_cost: self.nvs_wop,
            read_op_cost: self.nvs_rop,
            write_byte_cost: self.nvs_wb,
            read_byte_cost: self.nvs_rb,
        });
        p.stack = StackKind::NvStream;
        p
    }
}

/// The suite with the candidate's proxy-kernel compute, swept under its
/// device and stack constants.
fn suite_panels(k: &Knobs) -> Vec<Panel> {
    let params = k.params();
    paper_suite()
        .into_iter()
        .map(|mut entry| {
            let spec = &mut entry.spec;
            match entry.family {
                Family::GtcReadOnly | Family::GtcMatMul => {
                    spec.writer.compute_per_iteration = k.gtc_c;
                    if entry.family == Family::GtcMatMul {
                        spec.reader.compute_per_iteration = k.gtc_mm;
                    }
                }
                Family::MiniAmrReadOnly | Family::MiniAmrMatMul => {
                    spec.writer.compute_per_iteration = k.amr_c;
                    if entry.family == Family::MiniAmrMatMul {
                        spec.reader.compute_per_iteration = k.amr_mm;
                    }
                }
                _ => {}
            }
            Panel {
                sweep: sweep(spec, &params).ok(),
                stack: params.stack,
                entry,
            }
        })
        .collect()
}

/// Score: 100 per matching winner, minus the normalized-excess of the
/// paper winner when it loses (so near-misses rank above blowouts).
fn evaluate(k: &Knobs) -> (usize, f64) {
    let mut score = 0.0;
    let panels = suite_panels(k);
    for p in &panels {
        let Some(sw) = &p.sweep else {
            return (0, f64::NEG_INFINITY);
        };
        let paper = p.paper_winner();
        if p.agrees() {
            // Reward a decisive (but capped) margin over the runner-up so
            // ties break toward the paper.
            let second = sw
                .runs
                .iter()
                .filter(|r| r.config != paper)
                .map(|r| r.total)
                .fold(f64::INFINITY, f64::min);
            let margin = (second / sw.best().total - 1.0).min(0.08);
            score += 100.0 + margin * 100.0;
        } else {
            score -= (sw.normalized(paper) - 1.0) * 50.0;
        }
    }
    (agreement(&panels), score)
}

fn main() {
    let args = BenchArgs::from_env();
    let iters: usize = args.positional_or(300);
    args.reject_unread();
    let mut rng = SplitMix64::new(0x5eed);
    let mut best = Knobs::current();
    let (mut best_agree, mut best_score) = evaluate(&best);
    println!("start: agree={best_agree}/18 score={best_score:.1}");
    let batch = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(4);
    let mut i = 0usize;
    while i < iters {
        let cands: Vec<Knobs> = (0..batch)
            .map(|j| match (i + j) % 3 {
                0 => Knobs::random(&mut rng),
                1 => best.perturb(&mut rng, 0.25),
                _ => best.perturb(&mut rng, 0.08),
            })
            .collect();
        let results: Vec<(usize, f64)> = std::thread::scope(|sc| {
            let handles: Vec<_> = cands
                .iter()
                .map(|c| sc.spawn(move || evaluate(c)))
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (cand, (agree, score)) in cands.into_iter().zip(results) {
            if score > best_score {
                best = cand;
                best_agree = agree;
                best_score = score;
                println!("iter {i}: agree={agree}/18 score={score:.1}\n  {best:?}");
            }
        }
        i += batch;
    }
    println!("\nBEST: agree={best_agree}/18 score={best_score:.1}\n{best:#?}");
    // Per-panel detail for the best candidate.
    print!("\n{}", panel_table(&suite_panels(&best)));
}
