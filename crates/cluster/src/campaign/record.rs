//! Per-job records and the campaign outcome, with its JSONL encoding.

use pmemflow_core::SchedConfig;
use pmemflow_des::{write_json_escaped, write_json_f64};
use pmemflow_workloads::Family;
use std::borrow::Cow;
use std::fmt::Write;

/// Runtime threshold for bounded slowdown (seconds): jobs shorter than
/// this are not allowed to dominate the metric (Feitelson's BSLD).
pub(crate) const BSLD_TAU: f64 = 10.0;

/// The fate of one served job.
#[derive(Debug, Clone)]
pub struct JobRecord {
    /// Submission id (arrival order).
    pub id: u64,
    /// Workload family; the JSONL `workflow` field is its display name.
    pub family: Family,
    /// Ranks per component.
    pub ranks: usize,
    /// Configuration it ran under (pinned across restarts).
    pub config: SchedConfig,
    /// Node it ran on last.
    pub node: usize,
    /// Submission time.
    pub arrival: f64,
    /// First admission time (restarts do not reset it).
    pub start: f64,
    /// Completion time — or, for a failed job, the time of the final
    /// interruption that exhausted its retry budget.
    pub finish: f64,
    /// Predicted solo runtime under `config` (the job's work).
    pub solo: f64,
    /// How many times the job was interrupted and re-queued.
    pub restarts: u32,
    /// Solo-seconds of progress rolled back across all interruptions.
    pub lost_work: f64,
    /// Wall-seconds spent writing checkpoint images into local PMEM.
    pub ckpt_overhead: f64,
    /// Whether the job ran to completion (`false`: retry budget exhausted).
    pub completed: bool,
    /// Owning DAG label for stage jobs (e.g. "diamond#3"); empty for
    /// plain jobs.
    pub dag: String,
    /// Stage name within the DAG (e.g. "sim", "viz"); empty for plain
    /// jobs.
    pub stage: Cow<'static, str>,
    /// GiB of staged intermediates this stage moves (in + out edges);
    /// 0 for plain jobs.
    pub staging_gib: f64,
}

impl JobRecord {
    /// Queue wait: first admission − submission.
    pub fn wait(&self) -> f64 {
        self.start - self.arrival
    }

    /// Response time: completion − submission.
    pub fn response(&self) -> f64 {
        self.finish - self.arrival
    }

    /// Stretch since first admission (interference, faults, requeue delays
    /// and checkpoint tax included): time in service over solo time.
    pub fn stretch(&self) -> f64 {
        (self.finish - self.start) / self.solo
    }

    /// Bounded slowdown: `max(response / max(solo, tau), 1)`.
    fn bounded_slowdown(&self, tau: f64) -> f64 {
        (self.response() / self.solo.max(tau)).max(1.0)
    }

    /// JSONL `outcome` field value.
    pub fn outcome(&self) -> &'static str {
        if self.completed {
            "completed"
        } else {
            "failed"
        }
    }
}

/// The result of one campaign.
#[derive(Debug, Clone)]
pub struct CampaignOutcome {
    /// Policy that served the campaign.
    pub policy: String,
    /// Stream seed.
    pub seed: u64,
    /// Node count.
    pub nodes: usize,
    /// Every served job, in submission order — completed *and* failed:
    /// each submission produces exactly one record.
    pub jobs: Vec<JobRecord>,
    /// Time the last job finished (or failed).
    pub makespan: f64,
    /// Per-node busy core-seconds (both sockets).
    pub busy_core_secs: Vec<f64>,
    /// Total cores per node (both sockets).
    pub cores_per_node: usize,
    /// Per-node PMEM staging capacity, GiB.
    pub staging_capacity: f64,
    /// Per-node peak of co-reserved staging GiB over the campaign — the
    /// high-water mark the hard capacity check enforced.
    pub peak_staging_gib: Vec<f64>,
    /// Wall seconds spent inside node re-pricing (the oracle's co-run
    /// memo over the residents' interned ids), measured only when the
    /// [`profiling`](pmemflow_core::profiling) switch was on as the
    /// campaign started, and exactly 0.0 otherwise: on a warm memo a
    /// re-pricing takes about as long as the two clock reads that time
    /// it. Timing
    /// diagnostics — NOT deterministic, excluded from the JSONL. Pricing
    /// is a small fraction of the loop, below end-to-end timer noise, so
    /// benchmarks read its cost here.
    pub reprice_secs: f64,
    /// How many node re-pricings the campaign performed (deterministic).
    pub reprice_calls: u64,
}

impl CampaignOutcome {
    /// The jobs that ran to completion (queueing aggregates cover these;
    /// failed jobs are counted separately, not averaged in).
    fn completed_jobs(&self) -> impl Iterator<Item = &JobRecord> {
        self.jobs.iter().filter(|j| j.completed)
    }

    /// How many jobs completed.
    pub fn completed(&self) -> usize {
        self.completed_jobs().count()
    }

    /// How many jobs exhausted their retry budget.
    pub fn failed(&self) -> usize {
        self.jobs.len() - self.completed()
    }

    /// Total interruptions across all jobs.
    pub fn total_restarts(&self) -> u64 {
        self.jobs.iter().map(|j| j.restarts as u64).sum()
    }

    /// Total solo-seconds rolled back across all jobs.
    pub fn total_lost_work(&self) -> f64 {
        self.jobs.iter().map(|j| j.lost_work).sum()
    }

    /// Total wall-seconds spent writing checkpoints across all jobs.
    pub fn total_ckpt_overhead(&self) -> f64 {
        self.jobs.iter().map(|j| j.ckpt_overhead).sum()
    }

    /// Mean queue wait over completed jobs, seconds.
    pub fn mean_wait(&self) -> f64 {
        mean(self.completed_jobs().map(JobRecord::wait))
    }

    /// 95th-percentile queue wait over completed jobs (nearest-rank).
    pub fn p95_wait(&self) -> f64 {
        let mut waits: Vec<f64> = self.completed_jobs().map(JobRecord::wait).collect();
        if waits.is_empty() {
            return 0.0;
        }
        waits.sort_by(f64::total_cmp);
        waits[((waits.len() as f64 * 0.95).ceil() as usize).clamp(1, waits.len()) - 1]
    }

    /// Mean response time over completed jobs, seconds.
    pub(crate) fn mean_response(&self) -> f64 {
        mean(self.completed_jobs().map(JobRecord::response))
    }

    /// Mean bounded slowdown over completed jobs (tau = `BSLD_TAU`, 10 s).
    pub fn mean_bounded_slowdown(&self) -> f64 {
        mean(self.completed_jobs().map(|j| j.bounded_slowdown(BSLD_TAU)))
    }

    /// Maximum bounded slowdown over completed jobs.
    pub fn max_bounded_slowdown(&self) -> f64 {
        self.completed_jobs()
            .map(|j| j.bounded_slowdown(BSLD_TAU))
            .fold(1.0, f64::max)
    }

    /// Per-node utilization: busy core-seconds over `cores × makespan`.
    pub fn utilization(&self) -> Vec<f64> {
        let denom = self.cores_per_node as f64 * self.makespan;
        self.busy_core_secs
            .iter()
            .map(|&b| if denom > 0.0 { b / denom } else { 0.0 })
            .collect()
    }

    /// Serialize the campaign as JSON Lines: one `"kind":"job"` record per
    /// job (submission order) and one closing `"kind":"campaign"` summary.
    /// Every field is deterministic.
    pub fn to_jsonl(&self) -> String {
        // A job line runs to about 470 bytes.
        let mut out = String::with_capacity((self.jobs.len() + 1) * 512);
        for j in &self.jobs {
            JsonLine::open(&mut out)
                .str("kind", "job")
                .str("policy", &self.policy)
                .num("seed", self.seed)
                .num("id", j.id)
                .str("workflow", j.family.name())
                .num("ranks", j.ranks)
                .str("config", j.config.label())
                .str("dag", &j.dag)
                .str("stage", &j.stage)
                .f64("staging_gib", j.staging_gib)
                .num("node", j.node)
                .f64("arrival_s", j.arrival)
                .f64("start_s", j.start)
                .f64("finish_s", j.finish)
                .f64("wait_s", j.wait())
                .f64("response_s", j.response())
                .f64("solo_s", j.solo)
                .f64("stretch", j.stretch())
                .f64("bounded_slowdown", j.bounded_slowdown(BSLD_TAU))
                .num("restarts", j.restarts)
                .f64("lost_work_s", j.lost_work)
                .f64("ckpt_overhead_s", j.ckpt_overhead)
                .str("outcome", j.outcome())
                .close();
        }
        JsonLine::open(&mut out)
            .str("kind", "campaign")
            .str("policy", &self.policy)
            .num("seed", self.seed)
            .num("nodes", self.nodes)
            .num("jobs", self.jobs.len())
            .num("completed", self.completed())
            .num("failed", self.failed())
            .f64("makespan_s", self.makespan)
            .f64("mean_wait_s", self.mean_wait())
            .f64("p95_wait_s", self.p95_wait())
            .f64("mean_response_s", self.mean_response())
            .f64("mean_bounded_slowdown", self.mean_bounded_slowdown())
            .f64("max_bounded_slowdown", self.max_bounded_slowdown())
            .num("total_restarts", self.total_restarts())
            .f64("total_lost_work_s", self.total_lost_work())
            .f64("total_ckpt_overhead_s", self.total_ckpt_overhead())
            .f64("staging_capacity_gib", self.staging_capacity)
            .f64s("peak_staging_gib", &self.peak_staging_gib)
            .f64s("utilization", &self.utilization())
            .close();
        out
    }
}

/// One JSON object being appended to a JSONL buffer, field by field:
/// `{` when opened, a comma before every field but the first, `}` and a
/// newline when closed.
struct JsonLine<'o> {
    out: &'o mut String,
    first: bool,
}

impl<'o> JsonLine<'o> {
    fn open(out: &'o mut String) -> JsonLine<'o> {
        out.push('{');
        JsonLine { out, first: true }
    }

    /// `"key":` after the separator.
    fn key(&mut self, key: &str) -> &mut String {
        if !self.first {
            self.out.push(',');
        }
        self.first = false;
        self.out.push('"');
        self.out.push_str(key);
        self.out.push_str("\":");
        self.out
    }

    fn str(&mut self, key: &str, value: &str) -> &mut Self {
        let out = self.key(key);
        out.push('"');
        write_json_escaped(out, value);
        out.push('"');
        self
    }

    fn num(&mut self, key: &str, value: impl std::fmt::Display) -> &mut Self {
        write!(self.key(key), "{value}").expect("writing to a String cannot fail");
        self
    }

    fn f64(&mut self, key: &str, value: f64) -> &mut Self {
        write_json_f64(self.key(key), value);
        self
    }

    fn f64s(&mut self, key: &str, values: &[f64]) -> &mut Self {
        let out = self.key(key);
        out.push('[');
        for (i, &v) in values.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            write_json_f64(out, v);
        }
        out.push(']');
        self
    }

    fn close(&mut self) {
        self.out.push_str("}\n");
    }
}

fn mean(it: impl Iterator<Item = f64>) -> f64 {
    let (mut sum, mut n) = (0.0, 0u64);
    for v in it {
        sum += v;
        n += 1;
    }
    if n == 0 {
        0.0
    } else {
        sum / n as f64
    }
}
