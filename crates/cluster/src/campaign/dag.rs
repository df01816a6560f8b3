//! DAG submissions in flight, the per-node PMEM staging they reserve,
//! and how a campaign settles their stages.

use super::queue::{JobArena, Queued};
use super::Campaign;
use crate::policy::QueuedJob;
use crate::predict::Oracle;
use crate::stage_graph::{DagSpec, StageKind, GIB};
use pmemflow_core::ExecutionParams;
use pmemflow_des::{Direction, Locality};

/// Per-node PMEM staging occupancy — the second schedulable resource.
/// `reserved` is what placements are checked against (hard capacity);
/// `live` tracks the staged intermediates actually resident, which the
/// interference-aware policy prices as pressure; `homed` says which
/// DAGs hold the reservations, so node views read their holds from it.
pub(super) struct StagingState {
    pub(super) reserved: Vec<f64>,
    pub(super) live: Vec<f64>,
    pub(super) peak: Vec<f64>,
    /// Per node, the indices of the DAGs homed there, ascending — the
    /// order the policies see their holds in. A DAG enters when its
    /// first stage is placed and leaves when its last stage settles.
    pub(super) homed: Vec<Vec<u32>>,
}

impl StagingState {
    pub(super) fn new(nodes: usize) -> StagingState {
        StagingState {
            reserved: vec![0.0; nodes],
            live: vec![0.0; nodes],
            peak: vec![0.0; nodes],
            homed: vec![Vec::new(); nodes],
        }
    }

    /// Home DAG `di` on `node`: reserve its whole footprint `gib` and
    /// index it in submission order.
    pub(super) fn home(&mut self, node: usize, di: u32, gib: f64) {
        self.reserved[node] += gib;
        self.peak[node] = self.peak[node].max(self.reserved[node]);
        let homed = &mut self.homed[node];
        let at = homed.binary_search(&di).expect_err("DAG homed twice");
        homed.insert(at, di);
    }

    /// Release DAG `di`'s reservation and live bytes on its home `node`.
    pub(super) fn release(&mut self, node: usize, di: u32, reserved: f64, live: f64) {
        self.reserved[node] -= reserved;
        self.live[node] -= live;
        let homed = &mut self.homed[node];
        let at = homed.binary_search(&di).expect("homed DAG is indexed");
        homed.remove(at);
    }
}

/// Software seconds stage `i` spends moving its staged intermediates
/// through PMEM: writing its out-edges and reading its in-edges, priced
/// through the same iostack snapshot path (`snapshot_sw_time`) the
/// in-situ exchange and the checkpoint tax pay. Object granularity is
/// the stage's own writer pattern for writes and each producer's
/// pattern for reads — small-object stages pay the per-op software tax
/// on staging exactly as they do in-situ.
pub(super) fn stage_io_seconds(spec: &DagSpec, stage: usize, exec: &ExecutionParams) -> f64 {
    let cost = exec.cost_model();
    let mut secs = 0.0;
    let write_latency = exec.profile.latency(Direction::Write, Locality::Local);
    let read_latency = exec.profile.latency(Direction::Read, Locality::Local);
    for e in &spec.edges {
        if e.from != stage && e.to != stage {
            continue;
        }
        // Both ends move the producer's objects.
        let object_bytes = spec.stages[e.from].family.writer_io().object_bytes;
        let objects = e.bytes.div_ceil(object_bytes).max(1);
        if e.from == stage {
            secs += cost.snapshot_sw_time(Direction::Write, objects, object_bytes, write_latency);
        }
        if e.to == stage {
            secs += cost.snapshot_sw_time(Direction::Read, objects, object_bytes, read_latency);
        }
    }
    secs
}

/// Where one DAG stage is in its lifecycle.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub(super) enum StageState {
    /// Dependencies unmet: invisible to policies.
    Held,
    /// In the queue (ready or in backoff).
    Ready,
    /// Resident on the home node.
    Running,
    /// Done: completed, failed, or cascade-failed.
    Settled,
}

/// One stage of an in-flight DAG.
pub(super) struct StageRun {
    pub(super) state: StageState,
    /// Predecessors not yet completed.
    pub(super) deps_left: usize,
    /// Estimated solo runtime (oracle best-config solo plus staged-I/O
    /// seconds): the release-time estimate for EASY's dual shadow and
    /// the solo of a cascade-failed record.
    pub(super) est_solo: f64,
    /// Staged-I/O solo-seconds, added onto the oracle solo at placement.
    pub(super) extra_solo: f64,
}

/// One in-flight DAG submission's state.
pub(super) struct DagRun {
    /// The graph; its name is the DAG label ("class#id"), the JSONL
    /// `dag` field of every stage.
    pub(super) spec: DagSpec,
    pub(super) arrival: f64,
    pub(super) client: Option<usize>,
    /// Job id of stage 0; stage `i` is `first_stage_id + i`.
    pub(super) first_stage_id: u64,
    /// Per stage of `spec`, in stage order.
    pub(super) stages: Vec<StageRun>,
    /// Stages not yet settled; 0 means the DAG is finished.
    pub(super) unsettled: usize,
    /// Whole-DAG staging footprint, GiB, co-reserved on `home` from the
    /// first stage placement until the last stage settles.
    pub(super) reservation: f64,
    /// Node holding the reservation (set at first placement).
    pub(super) home: Option<usize>,
    /// GiB of intermediates currently live on the home node.
    pub(super) live_gib: f64,
    /// Banked checkpoint revivals: one per completed checkpoint stage.
    pub(super) tokens: u32,
    /// A stage exhausted its retry budget with no revival banked; held
    /// and queued stages were settled as failed, nothing new releases.
    pub(super) failed: bool,
}

impl DagRun {
    /// Expand DAG submission `spec`, arrived at `arrival` from `client`,
    /// into its stages, with job ids contiguous from `first_stage_id` in
    /// stage order: sources are ready, the rest held until their
    /// dependencies complete.
    pub(super) fn new(
        spec: DagSpec,
        arrival: f64,
        client: Option<usize>,
        first_stage_id: u64,
        oracle: &Oracle,
        exec: &ExecutionParams,
    ) -> DagRun {
        let stages = (0..spec.stages.len())
            .map(|i| {
                let st = &spec.stages[i];
                let extra_solo = stage_io_seconds(&spec, i, exec);
                let deps_left = spec.predecessors(i).count();
                StageRun {
                    state: if deps_left == 0 {
                        StageState::Ready
                    } else {
                        StageState::Held
                    },
                    deps_left,
                    est_solo: oracle.best_solo_runtime(st.family, st.ranks) + extra_solo,
                    extra_solo,
                }
            })
            .collect();
        DagRun {
            reservation: spec.staging_gib(),
            unsettled: spec.stages.len(),
            spec,
            arrival,
            client,
            first_stage_id,
            stages,
            home: None,
            live_gib: 0.0,
            tokens: 0,
            failed: false,
        }
    }

    /// Estimated solo-seconds of work left: the staging hold releases
    /// this long after any instant it is read at. It changes only when a
    /// stage settles.
    pub(super) fn remaining_solo(&self) -> f64 {
        self.stages
            .iter()
            .filter(|st| st.state != StageState::Settled)
            .map(|st| st.est_solo)
            .sum()
    }

    /// GiB of staged intermediates stage `i` touches (in + out edges).
    pub(super) fn stage_staging_gib(&self, i: usize) -> f64 {
        (self.spec.stage_in_bytes(i) + self.spec.stage_out_bytes(i)) as f64 / GIB
    }

    /// What a queued stage of this DAG reserves: the whole footprint
    /// while the DAG is un-homed, nothing once it holds its home.
    pub(super) fn entry_staging(&self) -> f64 {
        self.home.map_or(self.reservation, |_| 0.0)
    }

    /// The queue entry of released (or source) stage `si` of this DAG,
    /// index `di`. The entry keeps the DAG's arrival as its priority; an
    /// un-homed DAG's stages each carry the whole reservation (the first
    /// one placed homes the DAG and the siblings are rewritten pinned and
    /// weightless).
    pub(super) fn stage_entry<'a>(
        &self,
        di: u32,
        si: usize,
        now: f64,
        arena: &'a JobArena,
    ) -> Queued<'a> {
        let stage = &self.spec.stages[si];
        let job = arena.alloc(QueuedJob {
            id: self.first_stage_id + si as u64,
            family: stage.family,
            ranks: stage.ranks,
            arrival: self.arrival,
            staging: self.entry_staging(),
            home: self.home,
        });
        Queued::fresh(job, None, now, Some((di, si)))
    }
}

impl Campaign<'_> {
    /// Bookkeeping after stage `si` of dag `di` completes on `node`: bank a
    /// checkpoint revival, roll the node's live staged bytes (outputs
    /// appear, consumed inputs free), release ready successors into the
    /// queue at the DAG's arrival priority, and close out the DAG when this
    /// was the last stage.
    pub(super) fn stage_completed(&mut self, di: u32, si: usize, node: usize) {
        let now = self.now;
        let d = &mut self.dags[di as usize];
        d.stages[si].state = StageState::Settled;
        d.unsettled -= 1;
        if d.spec.stages[si].kind == StageKind::Checkpoint {
            d.tokens += 1;
        }
        let delta = (d.spec.stage_out_bytes(si) as f64 - d.spec.stage_in_bytes(si) as f64) / GIB;
        d.live_gib += delta;
        self.staging.live[node] += delta;
        if !d.failed {
            for succ in d.spec.successors(si) {
                let st = &mut d.stages[succ];
                if st.state != StageState::Held {
                    continue;
                }
                st.deps_left -= 1;
                if st.deps_left == 0 {
                    st.state = StageState::Ready;
                    self.held -= 1;
                    let q = d.stage_entry(di, succ, now, self.arena);
                    self.queue.enqueue(q, now);
                }
            }
        }
        self.finish_dag_if_settled(di);
    }

    /// Stage `si` of DAG `di` failed for good: fail the DAG. Held and
    /// ready siblings settle as failed records; running siblings drain
    /// normally but release nothing new.
    pub(super) fn fail_dag(&mut self, di: u32, si: usize) {
        let now = self.now;
        let d = &mut self.dags[di as usize];
        d.stages[si].state = StageState::Settled;
        d.unsettled -= 1;
        d.failed = true;
        for sj in 0..d.stages.len() {
            let d = &self.dags[di as usize];
            let q = match d.stages[sj].state {
                StageState::Held => {
                    self.held -= 1;
                    d.stage_entry(di, sj, now, self.arena)
                }
                StageState::Ready => {
                    let qi = self.queue.seek(d.arrival, d.first_stage_id + sj as u64);
                    assert!(
                        self.queue.get(qi).is_some_and(|q| q.dag == Some((di, sj))),
                        "ready stage is queued"
                    );
                    debug_assert_eq!(
                        Some(qi),
                        self.queue.iter().position(|q| q.dag == Some((di, sj)))
                    );
                    self.queue.remove(qi, now)
                }
                StageState::Running | StageState::Settled => continue,
            };
            let (home, solo) = (d.home.unwrap_or(0), d.stages[sj].est_solo);
            self.record(&q, home, solo, false);
            let d = &mut self.dags[di as usize];
            d.stages[sj].state = StageState::Settled;
            d.unsettled -= 1;
        }
        self.finish_dag_if_settled(di);
    }

    /// Release the staging reservation (and DAG `di`'s place in the homed
    /// index) and fire the owning client once the last stage settles.
    /// Idempotent: home and client are taken.
    fn finish_dag_if_settled(&mut self, di: u32) {
        let d = &mut self.dags[di as usize];
        if d.unsettled > 0 {
            return;
        }
        if let Some(h) = d.home.take() {
            self.staging.release(h, di, d.reservation, d.live_gib);
        }
        if let Some(c) = d.client.take() {
            self.finished_clients.push(c);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stage_graph::{DagEdge, StageSpec};
    use pmemflow_workloads::Family;

    fn chain() -> DagSpec {
        let stage = |name: &'static str, kind| StageSpec {
            name: name.into(),
            kind,
            family: Family::Micro64MB,
            ranks: 8,
        };
        DagSpec {
            name: "chain".into(),
            stages: vec![
                stage("sim", StageKind::Writer),
                stage("a1", StageKind::Analytics),
                stage("viz", StageKind::Reader),
            ],
            edges: vec![
                DagEdge {
                    from: 0,
                    to: 1,
                    bytes: 8 << 30,
                },
                DagEdge {
                    from: 1,
                    to: 2,
                    bytes: 8 << 30,
                },
            ],
        }
    }

    #[test]
    fn staging_io_is_positive_and_heavier_for_small_objects() {
        let exec = ExecutionParams::default();
        let d = chain();
        let mid = stage_io_seconds(&d, 1, &exec);
        assert!(mid > 0.0);
        // The middle stage both reads and writes a full edge; the sink
        // only reads one.
        assert!(mid > stage_io_seconds(&d, 2, &exec));

        // Same volume in 2 KB objects pays far more software time.
        let mut small = chain();
        for s in &mut small.stages {
            s.family = Family::Micro2KB;
        }
        assert!(stage_io_seconds(&small, 1, &exec) > 10.0 * mid);
    }
}
