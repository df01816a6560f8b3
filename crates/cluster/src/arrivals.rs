//! Deterministic workflow arrival streams.
//!
//! A campaign is driven by a stream of workflow submissions drawn from the
//! paper's 18-workload suite ([`pmemflow_workloads::paper_suite`]). Three
//! stream shapes are supported, all seeded and bit-reproducible:
//!
//! * **Poisson** (open loop) — exponential inter-arrival times at a fixed
//!   rate, workloads drawn uniformly from a family mix.
//! * **Closed loop** — a fixed population of clients; each client submits
//!   its next workflow a think time after its previous one *completes*
//!   (arrivals are generated inside the campaign loop, fed by completions).
//! * **Trace** — explicit `time workload ranks` rows from a file.
//!
//! ## Spec grammar (`--arrivals`)
//!
//! ```text
//! poisson:rate=0.02,n=200[,mix=gtc+miniamr]
//! closed:clients=8,think=30,n=200[,mix=micro]
//! trace:PATH
//! ```
//!
//! `mix` is a `+`-separated list of family keys (`micro-64mb`, `micro-2kb`,
//! `gtc-readonly`, `gtc-matmult`, `miniamr-readonly`, `miniamr-matmult`),
//! group aliases (`micro`, `gtc`, `miniamr`, `all`; default `all`), or DAG
//! tokens (`dag` for all four workflow-DAG classes, or `dag-pipeline`,
//! `dag-fanout`, `dag-fanin`, `dag-diamond` individually). Every drawn
//! plain workload is one of the suite's entries: a mix family at one of
//! the paper's three rank levels (8/16/24), chosen uniformly. A drawn DAG
//! token submits a whole generated stage graph ([`stage_graph`](crate::stage_graph)) as one
//! submission; the campaign expands it into dependency-gated stage jobs.

use crate::stage_graph::{generate as generate_dag, DagClass, DagSpec};
use pmemflow_des::rng::SplitMix64;
use pmemflow_workloads::{paper_suite, Family};

/// One workflow submission.
#[derive(Debug, Clone)]
pub(crate) struct Arrival {
    /// Submission index (0-based, unique, in submission order).
    pub id: u64,
    /// Virtual submission time, seconds.
    pub time: f64,
    /// Ranks per component; for a DAG, the summed stage ranks.
    pub ranks: usize,
    /// Owning client for closed-loop streams (`None` for open streams).
    pub client: Option<usize>,
    /// What was submitted.
    pub what: Submission,
}

/// A submission's shape.
#[derive(Debug, Clone)]
pub(crate) enum Submission {
    /// A plain coupled workflow of this family.
    Plain(Family),
    /// A stage graph, named by its DAG label (`class#id`).
    Dag(DagSpec),
}

#[cfg(test)]
impl Arrival {
    /// Workflow display name: the family's, or the DAG label.
    pub fn workflow(&self) -> &str {
        match &self.what {
            Submission::Plain(family) => family.name(),
            Submission::Dag(spec) => &spec.name,
        }
    }

    /// The stage graph of a DAG submission.
    pub fn dag(&self) -> Option<&DagSpec> {
        match &self.what {
            Submission::Plain(_) => None,
            Submission::Dag(spec) => Some(spec),
        }
    }
}

/// A parsed arrival stream specification.
#[derive(Debug, Clone)]
pub enum ArrivalSpec {
    /// Open-loop Poisson arrivals.
    Poisson {
        /// Mean arrivals per virtual second.
        rate: f64,
        /// Total submissions.
        count: u64,
        /// Families plain workloads are drawn from.
        mix: Vec<Family>,
        /// DAG classes drawn alongside the plain mix (each class one
        /// draw slot, like a (family, level) pair).
        dags: Vec<DagClass>,
    },
    /// Closed-loop arrivals: `clients` concurrent submitters, each
    /// re-submitting `think` seconds after its previous job completes.
    Closed {
        /// Client population.
        clients: usize,
        /// Think time between a completion and the next submission.
        think: f64,
        /// Total submissions across all clients.
        count: u64,
        /// Families plain workloads are drawn from.
        mix: Vec<Family>,
        /// DAG classes drawn alongside the plain mix.
        dags: Vec<DagClass>,
    },
    /// Pre-recorded arrivals (time, workload, ranks rows).
    Trace(Vec<TraceRow>),
}

/// One row of a trace file.
#[derive(Debug, Clone)]
pub struct TraceRow {
    /// Submission time, seconds.
    pub time: f64,
    /// Workload family.
    pub family: Family,
    /// Ranks per component.
    pub ranks: usize,
}

/// Resolve a family key (CLI workload names, case-insensitive) through
/// the shared alias table in `pmemflow-workloads` — the same folding the
/// suite lookup, DAG stage specs, and the serve cache key use.
fn family_by_key(key: &str) -> Option<Family> {
    Family::parse(key)
}

/// Expand one mix token (a family key, a group alias, or a DAG token)
/// into families and DAG classes.
fn mix_token(token: &str) -> Result<(Vec<Family>, Vec<DagClass>), String> {
    if let Some(f) = family_by_key(token) {
        return Ok((vec![f], vec![]));
    }
    match token.to_ascii_lowercase().as_str() {
        "all" => Ok((Family::all().to_vec(), vec![])),
        "micro" => Ok((vec![Family::Micro64MB, Family::Micro2KB], vec![])),
        "gtc" => Ok((vec![Family::GtcReadOnly, Family::GtcMatMul], vec![])),
        "miniamr" => Ok((vec![Family::MiniAmrReadOnly, Family::MiniAmrMatMul], vec![])),
        "dag" => Ok((vec![], DagClass::all().to_vec())),
        other => match other.strip_prefix("dag-").and_then(DagClass::parse) {
            Some(class) => Ok((vec![], vec![class])),
            None => Err(format!(
                "unknown mix token {other:?}; families: micro-64mb, micro-2kb, gtc-readonly, \
                 gtc-matmult, miniamr-readonly, miniamr-matmult; groups: micro, gtc, miniamr, \
                 all; dags: dag, dag-pipeline, dag-fanout, dag-fanin, dag-diamond"
            )),
        },
    }
}

/// Parse a `+`-separated mix list; deduplicates, keeps first-seen order.
fn parse_mix(s: &str) -> Result<(Vec<Family>, Vec<DagClass>), String> {
    let mut mix = Vec::new();
    let mut dags = Vec::new();
    for token in s.split('+') {
        let (fs, ds) = mix_token(token.trim())?;
        for f in fs {
            if !mix.contains(&f) {
                mix.push(f);
            }
        }
        for d in ds {
            if !dags.contains(&d) {
                dags.push(d);
            }
        }
    }
    if mix.is_empty() && dags.is_empty() {
        return Err("empty mix".into());
    }
    Ok((mix, dags))
}

fn parse_kv(pairs: &str) -> Result<Vec<(&str, &str)>, String> {
    pairs
        .split(',')
        .filter(|p| !p.trim().is_empty())
        .map(|p| {
            p.split_once('=')
                .map(|(k, v)| (k.trim(), v.trim()))
                .ok_or_else(|| format!("expected key=value, got {p:?}"))
        })
        .collect()
}

impl ArrivalSpec {
    /// Parse a spec string (see the module docs for the grammar). Trace
    /// specs read their file here, so parse errors surface at CLI time.
    pub fn parse(s: &str) -> Result<ArrivalSpec, String> {
        let (kind, rest) = s
            .split_once(':')
            .ok_or_else(|| format!("expected KIND:ARGS, got {s:?}"))?;
        match kind.trim().to_ascii_lowercase().as_str() {
            "poisson" => {
                let mut rate = None;
                let mut count = None;
                let mut mix = Family::all().to_vec();
                let mut dags = Vec::new();
                for (k, v) in parse_kv(rest)? {
                    match k {
                        "rate" => {
                            rate = Some(v.parse::<f64>().map_err(|_| format!("bad rate {v:?}"))?)
                        }
                        "n" => count = Some(v.parse::<u64>().map_err(|_| format!("bad n {v:?}"))?),
                        "mix" => (mix, dags) = parse_mix(v)?,
                        other => return Err(format!("unknown poisson key {other:?}")),
                    }
                }
                let rate = rate.ok_or("poisson needs rate=...")?;
                let count = count.ok_or("poisson needs n=...")?;
                if rate <= 0.0 || rate.is_nan() || count == 0 {
                    return Err("poisson needs rate > 0 and n > 0".into());
                }
                Ok(ArrivalSpec::Poisson {
                    rate,
                    count,
                    mix,
                    dags,
                })
            }
            "closed" => {
                let mut clients = None;
                let mut think = None;
                let mut count = None;
                let mut mix = Family::all().to_vec();
                let mut dags = Vec::new();
                for (k, v) in parse_kv(rest)? {
                    match k {
                        "clients" => {
                            clients = Some(
                                v.parse::<usize>()
                                    .map_err(|_| format!("bad clients {v:?}"))?,
                            )
                        }
                        "think" => {
                            think = Some(v.parse::<f64>().map_err(|_| format!("bad think {v:?}"))?)
                        }
                        "n" => count = Some(v.parse::<u64>().map_err(|_| format!("bad n {v:?}"))?),
                        "mix" => (mix, dags) = parse_mix(v)?,
                        other => return Err(format!("unknown closed key {other:?}")),
                    }
                }
                let clients = clients.ok_or("closed needs clients=...")?;
                let think = think.unwrap_or(0.0);
                let count = count.ok_or("closed needs n=...")?;
                if clients == 0 || count == 0 || think < 0.0 {
                    return Err("closed needs clients > 0, n > 0, think >= 0".into());
                }
                Ok(ArrivalSpec::Closed {
                    clients,
                    think,
                    count,
                    mix,
                    dags,
                })
            }
            "trace" => {
                let text = std::fs::read_to_string(rest.trim())
                    .map_err(|e| format!("cannot read trace {rest:?}: {e}"))?;
                let rows = parse_trace(&text)?;
                Ok(ArrivalSpec::Trace(rows))
            }
            other => Err(format!(
                "unknown arrival kind {other:?}; expected poisson, closed or trace"
            )),
        }
    }

    /// Total number of submissions the stream will make.
    pub fn count(&self) -> u64 {
        match self {
            ArrivalSpec::Poisson { count, .. } | ArrivalSpec::Closed { count, .. } => *count,
            ArrivalSpec::Trace(rows) => rows.len() as u64,
        }
    }

    /// The most job ids a campaign of the stream can issue: one per plain
    /// submission, and a DAG submission's stage count, at most its
    /// class's [`DagClass::max_stages`].
    pub(crate) fn max_jobs(&self) -> u64 {
        let per_submission = match self {
            ArrivalSpec::Poisson { dags, .. } | ArrivalSpec::Closed { dags, .. } => {
                dags.iter().map(|c| c.max_stages()).max().unwrap_or(1)
            }
            ArrivalSpec::Trace(_) => 1,
        };
        self.count().saturating_mul(per_submission as u64)
    }

    /// Every distinct `(family, ranks)` the stream can draw — the
    /// alphabet a campaign pre-characterizes in parallel before serving
    /// arrivals ([`crate::Oracle::build`]). Suite order, deduplicated.
    pub fn alphabet(&self) -> Vec<(Family, usize)> {
        let suite = paper_suite();
        let mut out: Vec<(Family, usize)> = Vec::new();
        let mut push = |family: Family, ranks: usize| {
            if !out.contains(&(family, ranks)) {
                out.push((family, ranks));
            }
        };
        match self {
            ArrivalSpec::Poisson { mix, dags, .. } | ArrivalSpec::Closed { mix, dags, .. } => {
                for entry in &suite {
                    // DAG stages draw from the whole suite, whatever the
                    // plain mix restricts itself to.
                    if mix.contains(&entry.family) || !dags.is_empty() {
                        push(entry.family, entry.ranks);
                    }
                }
            }
            ArrivalSpec::Trace(rows) => {
                for row in rows {
                    push(row.family, row.ranks);
                }
            }
        }
        out
    }
}

/// Parse trace text: whitespace-separated `time workload ranks` rows,
/// `#` comments and blank lines ignored.
pub(crate) fn parse_trace(text: &str) -> Result<Vec<TraceRow>, String> {
    let mut rows = Vec::new();
    let mut last_time = 0.0f64;
    for (lineno, line) in text.lines().enumerate() {
        let line = line.split('#').next().unwrap_or("").trim();
        if line.is_empty() {
            continue;
        }
        let mut parts = line.split_whitespace();
        let err = |what: &str| format!("trace line {}: {what}: {line:?}", lineno + 1);
        let time: f64 = parts
            .next()
            .ok_or_else(|| err("missing time"))?
            .parse()
            .map_err(|_| err("bad time"))?;
        let family = parts
            .next()
            .and_then(family_by_key)
            .ok_or_else(|| err("bad workload"))?;
        let ranks: usize = parts
            .next()
            .ok_or_else(|| err("missing ranks"))?
            .parse()
            .map_err(|_| err("bad ranks"))?;
        if parts.next().is_some() {
            return Err(err("trailing fields"));
        }
        if time < last_time || time.is_nan() {
            return Err(err("times must be non-decreasing"));
        }
        last_time = time;
        rows.push(TraceRow {
            time,
            family,
            ranks,
        });
    }
    if rows.is_empty() {
        return Err("trace has no arrivals".into());
    }
    Ok(rows)
}

/// One drawn submission: a plain suite entry or a whole DAG class.
pub(crate) enum Draw {
    /// A plain coupled workflow: family at a paper rank level.
    Plain(Family, usize),
    /// A generated workflow DAG of this class.
    Dag(DagClass),
}

/// Draw one submission: each (family, level) pair and each DAG class is
/// one uniform slot. With `dags` empty this consumes exactly one draw
/// over `mix.len() * 3` slots — bit-identical to the pre-DAG stream, so
/// adding DAG support changes no existing campaign's bytes.
pub(crate) fn draw_submission(mix: &[Family], dags: &[DagClass], rng: &mut SplitMix64) -> Draw {
    let levels = [8usize, 16, 24];
    let plain = mix.len() * levels.len();
    let i = rng.range_usize(0, plain + dags.len());
    if i < plain {
        Draw::Plain(mix[i / levels.len()], levels[i % levels.len()])
    } else {
        Draw::Dag(dags[i - plain])
    }
}

/// Build the [`Arrival`] for one draw at `time`, consuming generator
/// randomness for DAG draws (stage families, rank levels, shape).
pub(crate) fn arrival_for_draw(
    draw: Draw,
    id: u64,
    time: f64,
    client: Option<usize>,
    rng: &mut SplitMix64,
) -> Arrival {
    match draw {
        Draw::Plain(family, ranks) => Arrival {
            id,
            time,
            ranks,
            client,
            what: Submission::Plain(family),
        },
        Draw::Dag(class) => {
            let dag = generate_dag(class, format!("{}#{id}", class.name()), rng);
            Arrival {
                id,
                time,
                ranks: dag.stages.iter().map(|s| s.ranks).sum(),
                client,
                what: Submission::Dag(dag),
            }
        }
    }
}

/// Pre-generate the arrivals of an *open* stream (Poisson or trace).
/// Closed-loop arrivals depend on completions and are generated by the
/// campaign loop itself.
pub(crate) fn generate_open(spec: &ArrivalSpec, seed: u64) -> Option<Vec<Arrival>> {
    match spec {
        ArrivalSpec::Poisson {
            rate,
            count,
            mix,
            dags,
        } => {
            let mut rng = SplitMix64::new(seed);
            let mut time = 0.0f64;
            let mut out = Vec::with_capacity(*count as usize);
            for id in 0..*count {
                // Exponential inter-arrival: -ln(1-U)/rate, U in [0,1).
                time += -(1.0 - rng.next_f64()).ln() / rate;
                let draw = draw_submission(mix, dags, &mut rng);
                out.push(arrival_for_draw(draw, id, time, None, &mut rng));
            }
            Some(out)
        }
        ArrivalSpec::Trace(rows) => Some(
            rows.iter()
                .enumerate()
                .map(|(id, row)| Arrival {
                    id: id as u64,
                    time: row.time,
                    ranks: row.ranks,
                    client: None,
                    what: Submission::Plain(row.family),
                })
                .collect(),
        ),
        ArrivalSpec::Closed { .. } => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn poisson_spec_parses_and_generates() {
        let spec = ArrivalSpec::parse("poisson:rate=0.5,n=20,mix=gtc+miniamr").unwrap();
        let arrivals = generate_open(&spec, 7).unwrap();
        assert_eq!(arrivals.len(), 20);
        let mut last = 0.0;
        for (i, a) in arrivals.iter().enumerate() {
            assert_eq!(a.id, i as u64);
            assert!(a.time > last);
            last = a.time;
            assert!(a.workflow().starts_with("GTC") || a.workflow().starts_with("miniAMR"));
            assert!([8, 16, 24].contains(&a.ranks));
        }
        // Deterministic per seed, different across seeds.
        let again = generate_open(&spec, 7).unwrap();
        assert_eq!(arrivals.len(), again.len());
        for (a, b) in arrivals.iter().zip(again.iter()) {
            assert_eq!(a.time.to_bits(), b.time.to_bits());
            assert_eq!(a.workflow(), b.workflow());
        }
        let other = generate_open(&spec, 8).unwrap();
        assert!(arrivals
            .iter()
            .zip(other.iter())
            .any(|(a, b)| a.time != b.time || a.workflow() != b.workflow()));
    }

    #[test]
    fn poisson_rate_controls_density() {
        let fast = generate_open(&ArrivalSpec::parse("poisson:rate=1,n=100").unwrap(), 1).unwrap();
        let slow =
            generate_open(&ArrivalSpec::parse("poisson:rate=0.1,n=100").unwrap(), 1).unwrap();
        assert!(slow.last().unwrap().time > 5.0 * fast.last().unwrap().time);
    }

    #[test]
    fn closed_spec_parses() {
        match ArrivalSpec::parse("closed:clients=4,think=30,n=50,mix=micro").unwrap() {
            ArrivalSpec::Closed {
                clients,
                think,
                count,
                mix,
                dags,
            } => {
                assert_eq!((clients, count), (4, 50));
                assert_eq!(think, 30.0);
                assert_eq!(mix, vec![Family::Micro64MB, Family::Micro2KB]);
                assert!(dags.is_empty());
            }
            other => panic!("{other:?}"),
        }
    }

    /// A plain stream issues one job id per submission; a stream that
    /// draws DAGs up to its largest class's stage count.
    #[test]
    fn max_jobs_bounds_the_ids_a_stream_issues() {
        let max = |spec: &str| ArrivalSpec::parse(spec).unwrap().max_jobs();
        assert_eq!(max("closed:clients=4,think=0,n=50,mix=micro"), 50);
        assert_eq!(max("poisson:rate=1,n=10,mix=dag-pipeline"), 40);
        assert_eq!(max("closed:clients=4,think=0,n=50,mix=all+dag"), 300);
    }

    #[test]
    fn trace_parses_with_comments() {
        let rows = parse_trace(
            "# warmup\n0 micro-64mb 8\n5.5 gtc-matmult 16 # spike\n\n9 miniamr-readonly 24\n",
        )
        .unwrap();
        assert_eq!(rows.len(), 3);
        assert_eq!(rows[1].family, Family::GtcMatMul);
        assert_eq!(rows[2].ranks, 24);
    }

    #[test]
    fn bad_specs_are_rejected() {
        for bad in [
            "poisson",
            "poisson:rate=0,n=10",
            "poisson:rate=1",
            "poisson:rate=1,n=10,mix=hpl",
            "poisson:rate=1,n=10,burst=2",
            "closed:clients=0,n=10",
            "uniform:rate=1,n=10",
            "trace:/nonexistent/file",
        ] {
            assert!(ArrivalSpec::parse(bad).is_err(), "{bad} accepted");
        }
        assert!(parse_trace("3 micro-64mb 8\n1 micro-64mb 8").is_err());
        assert!(parse_trace("0 hpl 8").is_err());
        assert!(parse_trace("").is_err());
    }

    #[test]
    fn alphabet_covers_mix_at_all_levels() {
        let spec = ArrivalSpec::parse("poisson:rate=1,n=5,mix=gtc").unwrap();
        let alpha = spec.alphabet();
        assert_eq!(alpha.len(), 6); // 2 GTC families x 3 rank levels
        for &(family, ranks) in &alpha {
            assert!(family.name().starts_with("GTC"));
            let wf = family.build(ranks);
            assert_eq!(wf.ranks, ranks);
            wf.validate().unwrap();
        }
    }

    #[test]
    fn draws_cover_the_whole_alphabet() {
        let mix = vec![Family::GtcReadOnly, Family::MiniAmrMatMul];
        let mut rng = SplitMix64::new(3);
        let mut seen = std::collections::BTreeSet::new();
        for _ in 0..200 {
            match draw_submission(&mix, &[], &mut rng) {
                Draw::Plain(f, r) => {
                    assert!(mix.contains(&f));
                    seen.insert((f.name(), r));
                }
                Draw::Dag(_) => panic!("no DAG classes were offered"),
            }
        }
        assert_eq!(seen.len(), 6);
    }

    #[test]
    fn dag_mix_tokens_parse_and_draw() {
        let spec = ArrivalSpec::parse("poisson:rate=1,n=40,mix=micro+dag-fanout").unwrap();
        let ArrivalSpec::Poisson { mix, dags, .. } = &spec else {
            panic!("{spec:?}");
        };
        assert_eq!(mix, &vec![Family::Micro64MB, Family::Micro2KB]);
        assert_eq!(dags, &vec![DagClass::FanOut]);
        // `dag` alone expands to all four classes.
        let all = ArrivalSpec::parse("poisson:rate=1,n=4,mix=dag").unwrap();
        let ArrivalSpec::Poisson { mix, dags, .. } = &all else {
            panic!("{all:?}");
        };
        assert!(mix.is_empty());
        assert_eq!(dags.len(), 4);
        // A DAG-bearing stream draws both shapes and attaches specs.
        let arrivals = generate_open(&spec, 11).unwrap();
        assert!(arrivals.iter().any(|a| a.dag().is_some()));
        assert!(arrivals.iter().any(|a| a.dag().is_none()));
        for a in arrivals.iter().filter(|a| a.dag().is_some()) {
            let d = a.dag().unwrap();
            d.validate().unwrap();
            assert_eq!(a.workflow(), format!("fanout#{}", a.id));
            assert_eq!(a.ranks, d.stages.iter().map(|s| s.ranks).sum::<usize>());
        }
    }

    #[test]
    fn dag_streams_widen_the_alphabet_to_the_full_suite() {
        let spec = ArrivalSpec::parse("poisson:rate=1,n=4,mix=micro+dag").unwrap();
        // 6 families x 3 rank levels: stages can name any suite workload.
        assert_eq!(spec.alphabet().len(), 18);
    }
}
