//! Stage-graph specification and validation.

use pmemflow_workloads::Family;
use std::borrow::Cow;

/// Bytes per GiB — staging volumes are reported in GiB throughout.
pub const GIB: f64 = (1u64 << 30) as f64;

/// What a stage does. Every stage still runs as a coupled
/// writer+reader workflow on its node (that is the unit the oracle
/// prices); the kind records the stage's *role* in the DAG, which the
/// campaign uses for checkpoint semantics and reporting.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StageKind {
    /// Produces data: a simulation writer (DAG sources are writers).
    Writer,
    /// Consumes data: a terminal analytics/visualization reader.
    Reader,
    /// Transforms data: an intermediate analytics stage.
    Analytics,
    /// Persists upstream state to PMEM. A completed checkpoint stage
    /// banks a restart point: if a later stage of the same DAG exhausts
    /// its retry budget, the campaign revives it from this snapshot
    /// instead of failing the whole workflow.
    Checkpoint,
}

impl StageKind {
    /// Display name (lower-case, JSONL-stable).
    pub fn name(self) -> &'static str {
        match self {
            StageKind::Writer => "writer",
            StageKind::Reader => "reader",
            StageKind::Analytics => "analytics",
            StageKind::Checkpoint => "checkpoint",
        }
    }
}

/// One stage: a paper workload family at a rank level, playing a role.
#[derive(Debug, Clone, PartialEq)]
pub struct StageSpec {
    /// Stage name, unique within the DAG (e.g. "sim", "viz", "ckpt").
    /// Generated stages borrow theirs from a static vocabulary.
    pub name: Cow<'static, str>,
    /// The stage's role in the graph.
    pub kind: StageKind,
    /// Which workload family models the stage's compute + I/O behavior.
    pub family: Family,
    /// Ranks the stage occupies while running.
    pub ranks: usize,
}

impl StageSpec {
    /// Bytes one snapshot of this stage's writer side moves across all
    /// ranks — the volume an out-edge of this stage stages through PMEM.
    pub fn snapshot_bytes(&self) -> u64 {
        self.family.writer_io().snapshot_bytes() * self.ranks as u64
    }
}

/// A directed edge: stage `from` stages `bytes` of intermediates through
/// PMEM for stage `to` to consume.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DagEdge {
    /// Producer stage index.
    pub from: usize,
    /// Consumer stage index.
    pub to: usize,
    /// Staged data volume in bytes.
    pub bytes: u64,
}

/// Validation / construction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DagError(pub String);

impl std::fmt::Display for DagError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for DagError {}

/// A complete stage graph.
#[derive(Debug, Clone, PartialEq)]
pub struct DagSpec {
    /// Workflow name (e.g. "diamond#17"), unique per submission.
    pub name: String,
    /// Stages, indexed by position.
    pub stages: Vec<StageSpec>,
    /// Staging edges between stages.
    pub edges: Vec<DagEdge>,
}

impl DagSpec {
    /// Validate the graph: at least one stage, positive rank counts,
    /// unique stage names, in-range edge endpoints carrying data, no
    /// self-loops or duplicate edges, and acyclicity (Kahn's algorithm;
    /// a cycle is reported by name).
    pub fn validate(&self) -> Result<(), DagError> {
        if self.stages.is_empty() {
            return Err(DagError(format!("DAG {:?} has no stages", self.name)));
        }
        for (i, s) in self.stages.iter().enumerate() {
            if s.ranks == 0 {
                return Err(DagError(format!(
                    "stage {:?} of DAG {:?} has zero ranks",
                    s.name, self.name
                )));
            }
            if self.stages[..i].iter().any(|o| o.name == s.name) {
                return Err(DagError(format!(
                    "duplicate stage name {:?} in DAG {:?}",
                    s.name, self.name
                )));
            }
        }
        for (i, e) in self.edges.iter().enumerate() {
            if e.from >= self.stages.len() || e.to >= self.stages.len() {
                return Err(DagError(format!(
                    "edge {} -> {} of DAG {:?} is out of range (stages: {})",
                    e.from,
                    e.to,
                    self.name,
                    self.stages.len()
                )));
            }
            if e.from == e.to {
                return Err(DagError(format!(
                    "self-loop on stage {:?} of DAG {:?}",
                    self.stages[e.from].name, self.name
                )));
            }
            if e.bytes == 0 {
                return Err(DagError(format!(
                    "edge {:?} -> {:?} of DAG {:?} stages zero bytes",
                    self.stages[e.from].name, self.stages[e.to].name, self.name
                )));
            }
            if self.edges[..i]
                .iter()
                .any(|o| o.from == e.from && o.to == e.to)
            {
                return Err(DagError(format!(
                    "duplicate edge {:?} -> {:?} in DAG {:?}",
                    self.stages[e.from].name, self.stages[e.to].name, self.name
                )));
            }
        }
        let order = self.kahn_order();
        if order.len() != self.stages.len() {
            let stuck: Vec<&str> = (0..self.stages.len())
                .filter(|i| !order.contains(i))
                .map(|i| &*self.stages[i].name)
                .collect();
            return Err(DagError(format!(
                "DAG {:?} contains a cycle through stages [{}]",
                self.name,
                stuck.join(", ")
            )));
        }
        Ok(())
    }

    fn kahn_order(&self) -> Vec<usize> {
        let n = self.stages.len();
        let mut indegree = vec![0usize; n];
        for e in &self.edges {
            if e.from < n && e.to < n && e.from != e.to {
                indegree[e.to] += 1;
            }
        }
        // Ready set kept sorted; n is tiny (generated DAGs have <= 6
        // stages), so the linear insert is the clearest correct choice.
        let mut ready: Vec<usize> = (0..n).filter(|&i| indegree[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(&i) = ready.first() {
            ready.remove(0);
            order.push(i);
            for e in &self.edges {
                if e.from == i && e.to < n && e.from != e.to {
                    indegree[e.to] -= 1;
                    if indegree[e.to] == 0 {
                        let pos = ready.partition_point(|&r| r < e.to);
                        ready.insert(pos, e.to);
                    }
                }
            }
        }
        order
    }

    /// Direct predecessors of stage `i`, in edge order.
    pub fn predecessors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges.iter().filter(move |e| e.to == i).map(|e| e.from)
    }

    /// Direct successors of stage `i`, in edge order.
    pub fn successors(&self, i: usize) -> impl Iterator<Item = usize> + '_ {
        self.edges.iter().filter(move |e| e.from == i).map(|e| e.to)
    }

    /// Bytes staged *into* stage `i` (sum over in-edges).
    pub fn stage_in_bytes(&self, i: usize) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.to == i)
            .map(|e| e.bytes)
            .sum()
    }

    /// Bytes staged *out of* stage `i` (sum over out-edges).
    pub fn stage_out_bytes(&self, i: usize) -> u64 {
        self.edges
            .iter()
            .filter(|e| e.from == i)
            .map(|e| e.bytes)
            .sum()
    }

    /// The DAG's whole staging footprint in GiB: the sum of all edge
    /// volumes. This is what the cluster co-reserves on the home node for
    /// the DAG's lifetime — a burst-buffer reservation per Kopański,
    /// sized so every intermediate the workflow can have resident at
    /// once fits.
    pub fn staging_gib(&self) -> f64 {
        self.edges.iter().map(|e| e.bytes as f64).sum::<f64>() / GIB
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stage(name: &'static str, kind: StageKind) -> StageSpec {
        StageSpec {
            name: name.into(),
            kind,
            family: Family::Micro64MB,
            ranks: 8,
        }
    }

    fn edge(from: usize, to: usize) -> DagEdge {
        DagEdge {
            from,
            to,
            bytes: 1 << 30,
        }
    }

    fn diamond() -> DagSpec {
        DagSpec {
            name: "d".into(),
            stages: vec![
                stage("sim", StageKind::Writer),
                stage("a1", StageKind::Analytics),
                stage("a2", StageKind::Analytics),
                stage("viz", StageKind::Reader),
            ],
            edges: vec![edge(0, 1), edge(0, 2), edge(1, 3), edge(2, 3)],
        }
    }

    #[test]
    fn diamond_validates_and_sums_its_edges() {
        let d = diamond();
        d.validate().unwrap();
        assert_eq!(d.predecessors(3).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(d.successors(0).collect::<Vec<_>>(), [1, 2]);
        assert_eq!(d.stage_out_bytes(0), 2 << 30);
        assert_eq!(d.stage_in_bytes(3), 2 << 30);
        assert!((d.staging_gib() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn cycles_are_rejected_with_a_clear_error() {
        let mut d = diamond();
        d.edges.push(edge(3, 0));
        let err = d.validate().unwrap_err().to_string();
        assert!(err.contains("cycle"), "{err}");
        assert!(err.contains("sim"), "{err}");
        // Two-node cycle too.
        let d2 = DagSpec {
            name: "c2".into(),
            stages: vec![stage("a", StageKind::Writer), stage("b", StageKind::Reader)],
            edges: vec![edge(0, 1), edge(1, 0)],
        };
        assert!(d2.validate().unwrap_err().to_string().contains("cycle"));
    }

    #[test]
    fn malformed_graphs_are_rejected() {
        let empty = DagSpec {
            name: "e".into(),
            stages: vec![],
            edges: vec![],
        };
        assert!(empty
            .validate()
            .unwrap_err()
            .to_string()
            .contains("no stages"));

        let mut zero_ranks = diamond();
        zero_ranks.stages[1].ranks = 0;
        assert!(zero_ranks
            .validate()
            .unwrap_err()
            .to_string()
            .contains("zero ranks"));

        let mut dup_name = diamond();
        dup_name.stages[2].name = "a1".into();
        assert!(dup_name
            .validate()
            .unwrap_err()
            .to_string()
            .contains("duplicate stage name"));

        let mut out_of_range = diamond();
        out_of_range.edges.push(edge(0, 9));
        assert!(out_of_range
            .validate()
            .unwrap_err()
            .to_string()
            .contains("out of range"));

        let mut self_loop = diamond();
        self_loop.edges.push(edge(2, 2));
        assert!(self_loop
            .validate()
            .unwrap_err()
            .to_string()
            .contains("self-loop"));

        let mut dup_edge = diamond();
        dup_edge.edges.push(edge(0, 1));
        assert!(dup_edge
            .validate()
            .unwrap_err()
            .to_string()
            .contains("duplicate edge"));

        let mut zero_bytes = diamond();
        zero_bytes.edges[0].bytes = 0;
        assert!(zero_bytes
            .validate()
            .unwrap_err()
            .to_string()
            .contains("zero bytes"));
    }

    #[test]
    fn snapshot_bytes_price_edges_from_the_writer_pattern() {
        // micro-64MB: 16 objects x 64 MB = 1 GiB per rank per snapshot.
        let s = stage("sim", StageKind::Writer);
        assert_eq!(s.snapshot_bytes(), 8 << 30);
    }
}
