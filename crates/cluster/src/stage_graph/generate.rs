//! Seeded DAG generator over the four canonical workflow shapes.

use super::{DagEdge, DagSpec, StageKind, StageSpec};
use pmemflow_des::rng::SplitMix64;
use pmemflow_workloads::{paper_rank_levels, Family};
use std::borrow::Cow;

/// The four generated DAG shapes — the in-situ workflow topologies the
/// related work simulates (SIM-SITU, arXiv:2112.15067).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DagClass {
    /// A linear chain: sim -> analytics (-> checkpoint) -> viz.
    Pipeline,
    /// One producer feeding several independent analytics readers.
    FanOut,
    /// Several producers merging into one analytics stage.
    FanIn,
    /// Producer -> parallel analytics -> checkpoint join -> viz sink.
    Diamond,
}

impl DagClass {
    /// All classes.
    pub fn all() -> [DagClass; 4] {
        [
            DagClass::Pipeline,
            DagClass::FanOut,
            DagClass::FanIn,
            DagClass::Diamond,
        ]
    }

    /// Display name; `dag-NAME` is the class's arrival mix token.
    pub(crate) fn name(self) -> &'static str {
        match self {
            DagClass::Pipeline => "pipeline",
            DagClass::FanOut => "fanout",
            DagClass::FanIn => "fanin",
            DagClass::Diamond => "diamond",
        }
    }

    /// The most stages a graph of this class holds.
    pub(crate) fn max_stages(self) -> usize {
        match self {
            DagClass::Pipeline => 4,
            DagClass::FanOut | DagClass::FanIn => 5,
            DagClass::Diamond => 6,
        }
    }

    /// Parse a class from its name (case-insensitive; accepts the
    /// `fan-out`/`fan-in` spellings too).
    pub(crate) fn parse(name: &str) -> Option<DagClass> {
        match name.to_ascii_lowercase().as_str() {
            "pipeline" => Some(DagClass::Pipeline),
            "fanout" | "fan-out" => Some(DagClass::FanOut),
            "fanin" | "fan-in" => Some(DagClass::FanIn),
            "diamond" => Some(DagClass::Diamond),
            _ => None,
        }
    }
}

/// The numbered stage names of the wide classes: `A[j - 1]` is `aj`,
/// `SIM[j - 1]` is `simj`, for the at most four parallel stages a class
/// draws.
const A: [&str; 4] = ["a1", "a2", "a3", "a4"];
const SIM: [&str; 4] = ["sim1", "sim2", "sim3", "sim4"];

/// The most edges a generated DAG holds: a diamond with three analytics
/// stages has seven.
const MAX_EDGES: usize = 7;

/// Draw one stage: a uniform (family, paper rank level) pair.
fn draw_stage(name: &'static str, kind: StageKind, rng: &mut SplitMix64) -> StageSpec {
    let families = Family::all();
    let levels = paper_rank_levels();
    let i = rng.range_usize(0, families.len() * levels.len());
    StageSpec {
        name: Cow::Borrowed(name),
        kind,
        family: families[i / levels.len()],
        ranks: levels[i % levels.len()],
    }
}

/// An edge carrying one cross-stage snapshot of the producer's output:
/// the producer's writer-side per-rank snapshot times its rank count —
/// the same volume the in-situ exchange moves per iteration, staged
/// through PMEM instead of consumed in place.
fn staged_edge(stages: &[StageSpec], from: usize, to: usize) -> DagEdge {
    DagEdge {
        from,
        to,
        bytes: stages[from].snapshot_bytes(),
    }
}

/// Generate one DAG of the given class. Deterministic per (class, rng
/// state): the same seeded stream always yields the same graph. `label`
/// becomes the DAG name and must be unique per submission (the campaign
/// uses `class#id`).
pub(crate) fn generate(class: DagClass, label: String, rng: &mut SplitMix64) -> DagSpec {
    let mut stages = Vec::with_capacity(class.max_stages());
    let mut edges = Vec::with_capacity(MAX_EDGES);
    match class {
        DagClass::Pipeline => {
            // sim -> a1 (-> ckpt) -> viz: 3 or 4 stages.
            let with_ckpt = rng.next_bool();
            stages.push(draw_stage("sim", StageKind::Writer, rng));
            stages.push(draw_stage("a1", StageKind::Analytics, rng));
            if with_ckpt {
                stages.push(draw_stage("ckpt", StageKind::Checkpoint, rng));
            }
            stages.push(draw_stage("viz", StageKind::Reader, rng));
            for i in 1..stages.len() {
                edges.push(staged_edge(&stages, i - 1, i));
            }
        }
        DagClass::FanOut => {
            // sim -> a1..ak, k in 2..=4.
            let k = rng.range_usize(2, 5);
            stages.push(draw_stage("sim", StageKind::Writer, rng));
            for j in 1..=k {
                stages.push(draw_stage(A[j - 1], StageKind::Analytics, rng));
                edges.push(staged_edge(&stages, 0, j));
            }
        }
        DagClass::FanIn => {
            // sim1..simk -> merge, k in 2..=4.
            let k = rng.range_usize(2, 5);
            for j in 1..=k {
                stages.push(draw_stage(SIM[j - 1], StageKind::Writer, rng));
            }
            stages.push(draw_stage("merge", StageKind::Analytics, rng));
            for j in 0..k {
                edges.push(staged_edge(&stages, j, k));
            }
        }
        DagClass::Diamond => {
            // sim -> a1..ak -> ckpt -> viz, k in 2..=3.
            let k = rng.range_usize(2, 4);
            stages.push(draw_stage("sim", StageKind::Writer, rng));
            for j in 1..=k {
                stages.push(draw_stage(A[j - 1], StageKind::Analytics, rng));
                edges.push(staged_edge(&stages, 0, j));
            }
            stages.push(draw_stage("ckpt", StageKind::Checkpoint, rng));
            let ckpt = k + 1;
            for j in 1..=k {
                edges.push(staged_edge(&stages, j, ckpt));
            }
            stages.push(draw_stage("viz", StageKind::Reader, rng));
            edges.push(staged_edge(&stages, ckpt, ckpt + 1));
        }
    }
    debug_assert!(stages.len() <= class.max_stages() && edges.len() <= MAX_EDGES);
    let spec = DagSpec {
        name: label,
        stages,
        edges,
    };
    debug_assert!(spec.validate().is_ok(), "{:?}", spec.validate());
    spec
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_and_rejects_unknown() {
        for c in DagClass::all() {
            assert_eq!(DagClass::parse(c.name()), Some(c));
            assert_eq!(DagClass::parse(&c.name().to_ascii_uppercase()), Some(c));
        }
        assert_eq!(DagClass::parse("fan-out"), Some(DagClass::FanOut));
        assert_eq!(DagClass::parse("fan-in"), Some(DagClass::FanIn));
        assert_eq!(DagClass::parse("mesh"), None);
    }

    #[test]
    fn generated_dags_validate_and_match_their_shape() {
        let mut rng = SplitMix64::new(42);
        for round in 0..50 {
            for class in DagClass::all() {
                let d = generate(class, format!("{}#{round}", class.name()), &mut rng);
                d.validate().unwrap();
                let sources = (0..d.stages.len())
                    .filter(|&i| d.predecessors(i).next().is_none())
                    .count();
                let sinks = (0..d.stages.len())
                    .filter(|&i| d.successors(i).next().is_none())
                    .count();
                match class {
                    DagClass::Pipeline => {
                        assert!(matches!(d.stages.len(), 3 | 4));
                        assert_eq!((sources, sinks), (1, 1));
                        assert_eq!(d.edges.len(), d.stages.len() - 1);
                    }
                    DagClass::FanOut => {
                        assert!(matches!(d.stages.len(), 3..=5));
                        assert_eq!(sources, 1);
                        assert_eq!(sinks, d.stages.len() - 1);
                    }
                    DagClass::FanIn => {
                        assert!(matches!(d.stages.len(), 3..=5));
                        assert_eq!(sources, d.stages.len() - 1);
                        assert_eq!(sinks, 1);
                    }
                    DagClass::Diamond => {
                        assert!(matches!(d.stages.len(), 5 | 6));
                        assert_eq!((sources, sinks), (1, 1));
                        assert_eq!(d.stages.last().unwrap().kind, StageKind::Reader);
                        assert!(d.stages.iter().any(|s| s.kind == StageKind::Checkpoint));
                    }
                }
                assert!(d.stages.len() <= class.max_stages());
                assert!(d.edges.len() <= MAX_EDGES);
                for s in &d.stages {
                    assert!(matches!(s.ranks, 8 | 16 | 24), "{}", s.ranks);
                }
                for e in &d.edges {
                    assert_eq!(e.bytes, d.stages[e.from].snapshot_bytes());
                }
            }
        }
    }

    #[test]
    fn generation_is_deterministic_per_seed() {
        let mut a = SplitMix64::new(7);
        let mut b = SplitMix64::new(7);
        for class in DagClass::all() {
            assert_eq!(
                generate(class, "x".into(), &mut a),
                generate(class, "x".into(), &mut b)
            );
        }
        let mut c = SplitMix64::new(8);
        assert_ne!(
            generate(DagClass::Diamond, "x".into(), &mut SplitMix64::new(7)),
            generate(DagClass::Diamond, "x".into(), &mut c)
        );
    }
}
