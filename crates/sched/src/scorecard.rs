//! The paper-fidelity scorecard: every quantitative claim of the paper
//! that the reproduction checks, worked out once.
//!
//! A [`Scorecard`] is measured from three inputs: the 144-run matrix
//! ([`full_matrix`]: the 18 suite workloads × four Table I configurations
//! × both I/O stacks), the §II-B tables of
//! [`DeviceProfile::optane_gen1`], and a characterization of each suite
//! workload for the two profile-driven recommenders. Each [`Claim`] row
//! holds the paper's value, the model's, the bound and whether it holds.
//! `--bin calibrate` and `--bin table2` print it, the integration tests
//! assert its rows, and EXPERIMENTS.md's generated blocks are its
//! markdown renderings verbatim.

use crate::characterize::characterize;
use crate::rules::{recommend, RuleThresholds};
use crate::table2::classify;
use pmemflow_core::{
    full_matrix, map_ordered, run_matrix, ConfigSweep, ExecutionParams, RunOutcome, SchedConfig,
};
use pmemflow_iostack::StackKind;
use pmemflow_pmem::{bandwidth_table, headline_ratios, DeviceProfile, GB};
use pmemflow_workloads::{paper_suite, Family, SuiteEntry};
use std::fmt::Write as _;
use std::sync::OnceLock;

/// A miss (model winner ≠ paper winner) counts as a near-tie when the
/// paper's winner runs within this factor of the model's best.
pub const NEAR_TIE: f64 = 1.15;

/// The stack the paper's Table II and Figs. 4–9 were measured on.
const TABLE2_STACK: StackKind = StackKind::NvStream;

/// One suite workload's four runs on one I/O stack.
#[derive(Debug, Clone)]
pub struct Panel {
    /// The workload and the paper's finding.
    pub entry: SuiteEntry,
    /// The I/O stack the runs used.
    pub stack: StackKind,
    /// The four runs in [`SchedConfig::ALL`] order; `None` when any of
    /// them failed.
    pub sweep: Option<ConfigSweep>,
}

impl Panel {
    /// The configuration the paper found fastest.
    pub fn paper_winner(&self) -> SchedConfig {
        SchedConfig::parse(self.entry.paper_winner).expect("suite labels are valid")
    }

    /// The four runs.
    ///
    /// # Panics
    ///
    /// When any of them failed.
    pub fn completed(&self) -> &ConfigSweep {
        self.sweep.as_ref().expect("suite runs succeed")
    }

    /// The configuration the model found fastest.
    pub fn model_winner(&self) -> Option<SchedConfig> {
        self.sweep.as_ref().map(|s| s.best().config)
    }

    /// Whether the model reproduces the paper's winner.
    pub fn agrees(&self) -> bool {
        self.model_winner() == Some(self.paper_winner())
    }
}

/// Group matrix outcomes of the suite workloads (in [`paper_suite`]
/// order, four configurations each, any number of stacks) into panels.
pub fn panels(outcomes: &[RunOutcome]) -> Vec<Panel> {
    let suite = paper_suite();
    outcomes
        .chunks(SchedConfig::ALL.len())
        .zip(suite.iter().cycle())
        .map(|(chunk, entry)| Panel {
            entry: entry.clone(),
            stack: chunk[0].stack,
            sweep: chunk
                .iter()
                .map(|o| o.result.clone().ok())
                .collect::<Option<Vec<_>>>()
                .map(|runs| ConfigSweep {
                    workflow: entry.spec.name.clone(),
                    runs,
                }),
        })
        .collect()
}

fn table2_panels(panels: &[Panel]) -> impl Iterator<Item = &Panel> {
    panels.iter().filter(|p| p.stack == TABLE2_STACK)
}

/// How many Table II panels' model winners equal the paper's.
pub fn agreement(panels: &[Panel]) -> usize {
    table2_panels(panels).filter(|p| p.agrees()).count()
}

/// The per-panel comparison against the paper's winners (Table II
/// stack only), as a markdown table.
pub fn panel_table(panels: &[Panel]) -> String {
    let mut out = String::from(
        "| panel | workload | ranks | S-LocW | S-LocR | P-LocW | P-LocR | model | paper | agree |\n\
         |---|---|---|---|---|---|---|---|---|---|\n",
    );
    for p in table2_panels(panels) {
        let e = &p.entry;
        let _ = write!(out, "| {} | {} | {} |", e.panel, e.family.name(), e.ranks);
        let Some(sweep) = &p.sweep else {
            out.push_str(" — | — | — | — | — | ");
            let _ = writeln!(out, "{} | run failed |", e.paper_winner);
            continue;
        };
        for c in SchedConfig::ALL {
            let _ = write!(out, " {:.2} |", sweep.run(c).total);
        }
        let ratio = sweep.normalized(p.paper_winner());
        let verdict = if p.agrees() {
            "yes".to_string()
        } else if ratio <= NEAR_TIE {
            "near-tie".to_string()
        } else {
            format!("NO ({ratio:.2}×)")
        };
        let best = sweep.best().config.label();
        let _ = writeln!(out, " {best} | {} | {verdict} |", e.paper_winner);
    }
    out
}

/// How a claim's model value is shown.
#[derive(Debug, Clone, Copy)]
enum Unit {
    GbPerS,
    Ns,
    Times,
    Percent,
    Count,
    OutOf(usize),
}

impl Unit {
    fn scale(self) -> f64 {
        match self {
            Unit::GbPerS => GB,
            Unit::Ns => 1e-9,
            _ => 1.0,
        }
    }

    fn suffix(self) -> String {
        match self {
            Unit::GbPerS => " GB/s".into(),
            Unit::Ns => " ns".into(),
            Unit::Times => "×".into(),
            Unit::Percent => "%".into(),
            Unit::Count => String::new(),
            Unit::OutOf(n) => format!("/{n}"),
        }
    }

    fn show(self, x: f64) -> String {
        let digits = match self {
            Unit::GbPerS | Unit::Times => 2,
            _ => 0,
        };
        format!("{:.*}{}", digits, x / self.scale(), self.suffix())
    }

    /// A bound's number without the suffix: up to three decimals with
    /// trailing zeros dropped, or exponent notation below 0.001.
    fn num(self, x: f64) -> String {
        let x = x / self.scale();
        if x != 0.0 && x.abs() < 1e-3 {
            return format!("{x:e}");
        }
        let s = format!("{x:.3}");
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    }
}

/// The condition a claim's model value must meet, in the value's own
/// (unscaled) units.
#[derive(Debug, Clone, Copy)]
enum Bound {
    /// `|x − target| < tolerance`.
    Near(f64, f64),
    /// `lo < x < hi`.
    Between(f64, f64),
    /// `x < v`.
    Below(f64),
    /// `x > v`.
    Above(f64),
    /// `x ≥ v`.
    AtLeast(f64),
    /// `x ≤ v`.
    AtMost(f64),
    /// `x == v`, bit for bit.
    Exactly(f64),
}

impl Bound {
    fn holds(self, x: f64) -> bool {
        match self {
            Bound::Near(t, tol) => (x - t).abs() < tol,
            Bound::Between(lo, hi) => lo < x && x < hi,
            Bound::Below(v) => x < v,
            Bound::Above(v) => x > v,
            Bound::AtLeast(v) => x >= v,
            Bound::AtMost(v) => x <= v,
            Bound::Exactly(v) => x == v,
        }
    }

    fn show(self, u: Unit) -> String {
        let n = |x| u.num(x);
        let text = match self {
            Bound::Near(t, tol) => format!("{} ± {}", n(t), n(tol)),
            Bound::Between(lo, hi) => format!("{}–{}", n(lo), n(hi)),
            Bound::Below(v) => format!("< {}", n(v)),
            Bound::Above(v) => format!("> {}", n(v)),
            Bound::AtLeast(v) => format!("≥ {}", n(v)),
            Bound::AtMost(v) => format!("≤ {}", n(v)),
            Bound::Exactly(v) => format!("= {}", n(v)),
        };
        text + &u.suffix()
    }
}

/// One paper claim checked against the model.
#[derive(Debug, Clone, Default)]
pub struct Claim {
    /// Stable identifier the tests assert by.
    pub id: &'static str,
    /// Where the paper makes the claim.
    pub section: &'static str,
    /// What is compared.
    pub what: &'static str,
    /// The paper's value.
    pub paper: &'static str,
    /// The model's value.
    pub model: String,
    /// The bound the model's value must meet.
    pub bound: String,
    /// Whether the bound holds; `None` for a row that is reported only.
    pub holds: Option<bool>,
}

/// A measured row's model value, bound and verdict.
fn measured(value: f64, unit: Unit, bound: Bound) -> Claim {
    Claim {
        model: unit.show(value),
        bound: bound.show(unit),
        holds: Some(bound.holds(value)),
        ..Claim::default()
    }
}

/// What the two profile-driven recommenders pick for one suite workload,
/// and the measured writer concurrency behind the picks.
#[derive(Debug, Clone)]
struct Picks {
    /// The writer's effective device concurrency.
    sim_concurrency: f64,
    /// The rule engine's configuration.
    rules: SchedConfig,
    /// The matching Table II row and its configuration, if any row covers
    /// the workload.
    lookup: Option<(u8, SchedConfig)>,
}

/// Every checked paper claim plus the panels behind them.
#[derive(Debug, Clone)]
pub struct Scorecard {
    /// All 36 panels: the suite on NVStream, then on NOVA.
    pub panels: Vec<Panel>,
    /// The recommenders' picks per suite workload (Table II stack).
    picks: Vec<Picks>,
    /// The claims, in table order.
    pub claims: Vec<Claim>,
}

/// The scorecard at the default parameters, measured once per process:
/// the matrix and the characterizations run over one worker thread per
/// core (the result is identical for any count).
///
/// # Panics
///
/// When a suite run or characterization fails: every claim needs them.
pub fn scorecard() -> &'static Scorecard {
    static CARD: OnceLock<Scorecard> = OnceLock::new();
    CARD.get_or_init(|| {
        let jobs = std::thread::available_parallelism().map_or(1, |n| n.get());
        let params = ExecutionParams::default();
        let panels = panels(&run_matrix(full_matrix(), &params, jobs));
        let thresholds = RuleThresholds::default();
        let picks: Vec<Picks> = map_ordered(paper_suite(), jobs, |e| {
            let profile = characterize(&e.spec, &params).expect("suite workloads characterize");
            Picks {
                sim_concurrency: profile.sim_device_concurrency,
                rules: recommend(&profile, &thresholds).config,
                lookup: classify(&profile).map(|row| (row.row, row.config)),
            }
        })
        .into_iter()
        .collect::<Result<_, _>>()
        .expect("suite workloads characterize");
        let claims = claims(&panels, &picks);
        Scorecard {
            panels,
            picks,
            claims,
        }
    })
}

impl Scorecard {
    /// The row named `id`.
    ///
    /// # Panics
    ///
    /// When no row has that id.
    pub fn claim(&self, id: &str) -> &Claim {
        self.claims
            .iter()
            .find(|c| c.id == id)
            .unwrap_or_else(|| panic!("no scorecard row {id:?}"))
    }

    /// Assert that every named row holds.
    ///
    /// # Panics
    ///
    /// When any of them does not; the message lists each failing row.
    pub fn check(&self, ids: &[&str]) {
        let failed: Vec<String> = ids
            .iter()
            .map(|id| self.claim(id))
            .filter(|c| c.holds != Some(true))
            .map(|c| {
                format!(
                    "{} ({} {}): model {} against bound {} (paper: {})",
                    c.id, c.section, c.what, c.model, c.bound, c.paper
                )
            })
            .collect();
        assert!(failed.is_empty(), "claims fail:\n{}", failed.join("\n"));
    }

    /// The claims as a markdown table.
    pub fn claims_markdown(&self) -> String {
        let mut out = String::from(
            "| id | section | claim | paper | model | bound | holds |\n\
             |---|---|---|---|---|---|---|\n",
        );
        for c in &self.claims {
            let holds = match c.holds {
                Some(true) => "yes",
                Some(false) => "**NO**",
                None => "reported",
            };
            let _ = writeln!(
                out,
                "| `{}` | {} | {} | {} | {} | {} | {holds} |",
                c.id, c.section, c.what, c.paper, c.model, c.bound
            );
        }
        out
    }

    /// EXPERIMENTS.md's per-panel block: the winner comparison, its
    /// agreement count and the near-tie rule.
    pub fn panels_markdown(&self) -> String {
        format!(
            "{}\n**Winner agreement: {}/18.** A miss is a near-tie when the paper's\n\
             winner runs within {NEAR_TIE}× of the model's best (scorecard row\n\
             `table2_misses`); any other miss reads NO. Runtimes are virtual\n\
             seconds; regenerate with\n\
             `cargo run --release -p pmemflow-bench --bin calibrate`.\n",
            panel_table(&self.panels),
            agreement(&self.panels),
        )
    }

    /// `--bin table2`'s validation block: the three recommenders' picks
    /// per suite workload against the paper's winner, and their agreement.
    pub fn validation_table(&self) -> String {
        let mut out = format!(
            "{:<20} {:>5}  {:>6}  {:>6}  {:>6}  {:>8}  paper\n",
            "workload", "ranks", "oracle", "rules", "lookup", "row"
        );
        for (p, picks) in table2_panels(&self.panels).zip(&self.picks) {
            let label = |c: Option<SchedConfig>| c.map_or("—", |c| c.label());
            let _ = writeln!(
                out,
                "{:<20} {:>5}  {:>6}  {:>6}  {:>6}  {:>8}  {}",
                p.entry.family.name(),
                p.entry.ranks,
                label(p.model_winner()),
                label(Some(picks.rules)),
                label(picks.lookup.map(|(_, c)| c)),
                picks.lookup.map(|(n, _)| n.to_string()).unwrap_or_default(),
                p.entry.paper_winner,
            );
        }
        let _ = writeln!(
            out,
            "\nagreement with the paper: oracle {}, rules {}, Table II lookup {} \
             (of workloads the table covers).",
            self.claim("table2_winners").model,
            self.claim("rules_vs_paper").model,
            self.claim("lookup_vs_paper").model,
        );
        out
    }
}

fn claims(panels: &[Panel], picks: &[Picks]) -> Vec<Claim> {
    let profile = DeviceProfile::optane_gen1();
    let h = headline_ratios(&profile);
    let remote_random_write = bandwidth_table(&profile, &[4.0, 8.0, 16.0, 24.0])
        .iter()
        .map(|r| r.remote_write_random)
        .fold(0.0, f64::max);

    let nv: Vec<&Panel> = table2_panels(panels).collect();
    let index = |family, ranks| {
        let at = |p: &&Panel| p.entry.family == family && p.entry.ranks == ranks;
        nv.iter()
            .position(at)
            .expect("the suite has every family at 8, 16 and 24 ranks")
    };
    let at = |family, ranks| nv[index(family, ranks)].completed();
    let total = |s: &ConfigSweep, c| s.run(c).total;
    let ratio = |s: &ConfigSweep, a, b| total(s, a) / total(s, b);
    let [slw, slr, _, plr] = SchedConfig::ALL;
    let micro64 = at(Family::Micro64MB, 24);
    let runner_up = (micro64.runs.iter())
        .filter(|r| r.config != slw)
        .map(|r| r.total)
        .fold(f64::INFINITY, f64::min);
    let writer_phase = |c| micro64.run(c).serial_split().0;

    // Table II misses: the largest paper-winner ratio over the panels the
    // model gets wrong (1.0 when it gets none wrong).
    let worst_miss = (nv.iter())
        .map(|p| p.completed().normalized(p.paper_winner()))
        .fold(1.0, f64::max);
    let winners: std::collections::BTreeSet<_> = nv
        .iter()
        .map(|p| p.completed().best().config.label())
        .collect();
    let loss = [
        at(Family::Micro64MB, 24),
        at(Family::Micro2KB, 24),
        at(Family::MiniAmrReadOnly, 24),
    ]
    .map(|s| s.worst_case_loss_percent())
    .into_iter()
    .fold(0.0, f64::max);
    let (ro, mm) = (
        at(Family::MiniAmrReadOnly, 16),
        at(Family::MiniAmrMatMul, 16),
    );
    let fig1 = mm
        .normalized(ro.best().config)
        .max(ro.normalized(mm.best().config));

    // Effective device concurrency of the 2 KB objects over the 64 MB
    // ones at 24 ranks, from the characterization.
    let concurrency = |family| picks[index(family, 24)].sim_concurrency;
    let small_objects = concurrency(Family::Micro2KB) / concurrency(Family::Micro64MB);

    // The rule engine against the oracle (the model's argmin) and against
    // the paper; the Table II lookup's coverage and agreement.
    let mut rules_cost = 1.0f64;
    let (mut rules_oracle, mut rules_paper, mut covered, mut lookup_paper) = (0, 0, 0, 0);
    for (p, k) in nv.iter().zip(picks) {
        let s = p.completed();
        rules_cost = rules_cost.max(s.normalized(k.rules));
        rules_oracle += usize::from(k.rules == s.best().config);
        rules_paper += usize::from(k.rules == p.paper_winner());
        if let Some((_, c)) = k.lookup {
            covered += 1;
            lookup_paper += usize::from(c == p.paper_winner());
        }
    }

    // The best-vs-worst spread over every workload × stack cell, in both
    // readings of "runtime difference".
    let cells: Vec<(f64, f64)> = (panels.iter().map(Panel::completed))
        .map(|s| {
            let (best, worst) = (s.best().total, s.worst().total);
            (worst / best - 1.0, (worst - best) / worst)
        })
        .collect();
    let spread = |pick: fn(&(f64, f64)) -> f64| {
        let max = cells.iter().map(pick).fold(0.0, f64::max);
        let over = cells.iter().filter(|c| pick(c) > 0.70).count();
        (max * 100.0, over)
    };
    let (reduction, reduction_over) = spread(|c| c.1);
    let (growth, growth_over) = spread(|c| c.0);

    let n = nv.len();
    vec![
        Claim {
            id: "read_peak",
            section: "§II-B",
            what: "peak local read bandwidth",
            paper: "39.4 GB/s, scaling to ~17 threads",
            ..measured(
                profile.local_read_bw.peak(),
                Unit::GbPerS,
                Bound::Near(39.4 * GB, 1e6),
            )
        },
        Claim {
            id: "write_peak",
            section: "§II-B",
            what: "peak local write bandwidth",
            paper: "13.9 GB/s",
            ..measured(
                profile.local_write_bw.peak(),
                Unit::GbPerS,
                Bound::Near(13.9 * GB, 1e6),
            )
        },
        Claim {
            id: "read_peak_threads",
            section: "§II-B",
            what: "threads at the local read peak",
            paper: "~17",
            ..measured(
                profile.local_read_bw.peak_x(),
                Unit::Count,
                Bound::Exactly(17.0),
            )
        },
        Claim {
            id: "write_peak_threads",
            section: "§II-B",
            what: "threads at the local write peak",
            paper: "4",
            ..measured(
                profile.local_write_bw.peak_x(),
                Unit::Count,
                Bound::Exactly(4.0),
            )
        },
        Claim {
            id: "write_drop",
            section: "§II-B",
            what: "remote random-write drop @24 ops",
            paper: "~15×",
            ..measured(h.write_drop_at_24, Unit::Times, Bound::Between(12.0, 18.0))
        },
        Claim {
            id: "read_drop",
            section: "§II-B",
            what: "remote read slowdown @24 ops",
            paper: "1.3×",
            ..measured(h.read_drop_at_24, Unit::Times, Bound::Near(1.3, 1e-12))
        },
        Claim {
            id: "write_latency",
            section: "§II-B",
            what: "idle write latency",
            paper: "90 ns",
            ..measured(h.write_latency, Unit::Ns, Bound::Exactly(90e-9))
        },
        Claim {
            id: "read_latency",
            section: "§II-B",
            what: "idle read latency",
            paper: "169 ns",
            ..measured(h.read_latency, Unit::Ns, Bound::Exactly(169e-9))
        },
        Claim {
            id: "remote_random_write",
            section: "§II-B",
            what: "remote random writes at 4/8/16/24 ops (max)",
            paper: "< 1 GB/s beyond 3 ops",
            ..measured(remote_random_write, Unit::GbPerS, Bound::Below(1.1 * GB))
        },
        Claim {
            id: "remote_random_write_at_3",
            section: "§II-B",
            what: "remote random writes at 3 ops",
            paper: "the collapse starts beyond 3 ops",
            ..measured(
                profile.remote_write_bw_random.eval(3.0),
                Unit::GbPerS,
                Bound::Above(GB),
            )
        },
        Claim {
            id: "table2_winners",
            section: "Table II, Figs. 4–9",
            what: "model winner = paper winner",
            paper: "18/18",
            ..measured(
                agreement(panels) as f64,
                Unit::OutOf(n),
                Bound::AtLeast(15.0),
            )
        },
        Claim {
            id: "table2_misses",
            section: "Table II, Figs. 4–9",
            what: "paper winner's runtime over the model's best (worst miss)",
            paper: "1.00×",
            ..measured(worst_miss, Unit::Times, Bound::AtMost(NEAR_TIE))
        },
        Claim {
            id: "micro64_winner",
            section: "§VI-A, Fig. 4c",
            what: "micro-64MB @24: runner-up over S-LocW",
            paper: "S-LocW wins",
            ..measured(
                runner_up / total(micro64, slw),
                Unit::Times,
                Bound::Above(1.0),
            )
        },
        Claim {
            id: "micro64_margin",
            section: "§VI-A, Fig. 4c",
            what: "micro-64MB @24: worst over best",
            paper: "up to 2.5×",
            ..measured(
                micro64.worst().total / micro64.best().total,
                Unit::Times,
                Bound::Between(1.5, 5.0),
            )
        },
        Claim {
            id: "micro64_locr_over_locw",
            section: "§VI-A, Fig. 4c",
            what: "micro-64MB @24: S-LocR over S-LocW",
            paper: "S-LocW clearly faster",
            ..measured(ratio(micro64, slr, slw), Unit::Times, Bound::Above(1.2))
        },
        Claim {
            id: "remote_write_phase",
            section: "§VI-A, Fig. 4c",
            what: "micro-64MB @24: S-LocR writer phase over S-LocW's",
            paper: "remote writes dominate",
            ..measured(
                writer_phase(slr) / writer_phase(slw),
                Unit::Times,
                Bound::Above(1.5),
            )
        },
        Claim {
            id: "micro2kb_parallel",
            section: "§VI-D, Fig. 5a",
            what: "micro-2KB @8: P-LocR over S-LocR",
            paper: "P-LocR 10–14% faster",
            ..measured(
                ratio(at(Family::Micro2KB, 8), plr, slr),
                Unit::Times,
                Bound::Below(1.0),
            )
        },
        Claim {
            id: "miniamr_readonly_locw",
            section: "§VI-A, Fig. 8c",
            what: "miniAMR+ReadOnly @24: S-LocW over S-LocR",
            paper: "S-LocW 25% faster",
            ..measured(
                ratio(at(Family::MiniAmrReadOnly, 24), slw, slr),
                Unit::Times,
                Bound::Below(1.0),
            )
        },
        Claim {
            id: "fig1_cross_cost",
            section: "§I, Fig. 1",
            what: "miniAMR @16 in the other kernel's best config",
            paper: "1.4–1.6×",
            ..measured(fig1, Unit::Times, Bound::Above(1.05))
        },
        Claim {
            id: "small_object_concurrency",
            section: "§VIII",
            what: "2 KB over 64 MB effective device concurrency @24",
            paper: "far fewer effective ops",
            ..measured(small_objects, Unit::Times, Bound::Below(0.8))
        },
        Claim {
            id: "distinct_winners",
            section: "§VII",
            what: "distinct model winners across the suite",
            paper: "no single optimum",
            ..measured(winners.len() as f64, Unit::Count, Bound::AtLeast(3.0))
        },
        Claim {
            id: "worst_case_loss",
            section: "§VII, §X",
            what: "worst/best − 1 at 24 ranks (micro-64MB, micro-2KB, miniAMR+ReadOnly)",
            paper: "tens of percent",
            ..measured(loss, Unit::Percent, Bound::AtLeast(50.0))
        },
        Claim {
            id: "spread",
            section: "§X",
            what: "best-vs-worst difference over 36 workload × stack cells (max)",
            paper: "69–70%",
            model: format!(
                "{reduction:.0}% as (worst − best)/worst ({reduction_over} of {n} cells over 70%); \
                 {growth:.0}% as worst/best − 1 ({growth_over} of {n})",
                n = cells.len()
            ),
            bound: "reported".into(),
            ..Claim::default()
        },
        Claim {
            id: "rules_cost",
            section: "§VIII",
            what: "rule engine's pick over the model's best (max)",
            paper: "—",
            ..measured(rules_cost, Unit::Times, Bound::AtMost(1.25))
        },
        Claim {
            id: "rules_track_oracle",
            section: "§VIII",
            what: "rule engine agrees with the model's argmin",
            paper: "—",
            ..measured(
                rules_oracle as f64,
                Unit::OutOf(n),
                Bound::AtLeast(n as f64 / 2.0),
            )
        },
        Claim {
            id: "rules_vs_paper",
            section: "§VIII",
            what: "rule engine agrees with the paper's winner",
            paper: "18/18",
            model: format!("{rules_paper}/{n}"),
            bound: "reported".into(),
            ..Claim::default()
        },
        Claim {
            id: "lookup_coverage",
            section: "Table II",
            what: "suite workloads a Table II row covers",
            paper: "18/18",
            ..measured(covered as f64, Unit::OutOf(n), Bound::AtLeast(9.0))
        },
        Claim {
            id: "lookup_vs_paper",
            section: "Table II",
            what: "covered workloads whose row names the paper's winner",
            paper: "all",
            model: format!("{lookup_paper}/{covered}"),
            bound: "reported".into(),
            ..Claim::default()
        },
    ]
}
