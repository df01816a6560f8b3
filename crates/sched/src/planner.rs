//! Capacity planning: choose concurrency *and* configuration together.
//!
//! The paper treats the rank count as given and picks the configuration;
//! a production scheduler usually gets the inverse problem — "this
//! campaign must finish N iterations by a deadline; how many cores do I
//! burn, and in which configuration?" Because the model is cheap, the
//! planner simply evaluates candidate rank counts under their best
//! configurations and reports the efficiency frontier.
//!
//! This also surfaces a paper finding quantitatively: beyond the device
//! saturation point, extra ranks buy little runtime for a lot of cores —
//! the marginal speedup of concurrency collapses exactly where Table II
//! flips to serial execution.

use pmemflow_core::{sweep, ExecError, ExecutionParams, SchedConfig};
use pmemflow_workloads::WorkflowSpec;

/// One point on the concurrency/performance frontier.
#[derive(Debug, Clone)]
pub struct PlanPoint {
    /// Ranks per component.
    pub ranks: usize,
    /// Best configuration at this concurrency.
    pub config: SchedConfig,
    /// Predicted end-to-end runtime, seconds.
    pub runtime: f64,
    /// Core-seconds consumed (2 × ranks × runtime: writer + reader
    /// sockets).
    pub core_seconds: f64,
    /// Parallel efficiency vs the smallest candidate
    /// (`t_min_ranks × min_ranks / (t × ranks)`, 1.0 = perfect scaling).
    pub efficiency: f64,
}

/// The planner's answer.
#[derive(Debug, Clone)]
pub struct Plan {
    /// All evaluated points, ascending rank count.
    pub frontier: Vec<PlanPoint>,
    /// The cheapest point meeting the deadline, if any.
    pub chosen: Option<PlanPoint>,
}

/// Evaluate `candidates` rank counts for `spec` and pick the
/// fewest-core-seconds point whose runtime is within `deadline_seconds`.
pub fn plan(
    spec: &WorkflowSpec,
    candidates: &[usize],
    deadline_seconds: f64,
    params: &ExecutionParams,
) -> Result<Plan, ExecError> {
    if candidates.is_empty() {
        return Err(ExecError::Spec("no candidate rank counts".into()));
    }
    let mut frontier = Vec::with_capacity(candidates.len());
    let mut sorted = candidates.to_vec();
    sorted.sort_unstable();
    sorted.dedup();
    let mut base: Option<(usize, f64)> = None;
    for &ranks in &sorted {
        let candidate = spec.with_ranks(ranks);
        let sw = sweep(&candidate, params)?;
        let best = sw.best();
        let runtime = best.total;
        if base.is_none() {
            base = Some((ranks, runtime));
        }
        let (r0, t0) = base.unwrap();
        frontier.push(PlanPoint {
            ranks,
            config: best.config,
            runtime,
            core_seconds: 2.0 * ranks as f64 * runtime,
            efficiency: (t0 * r0 as f64) / (runtime * ranks as f64),
        });
    }
    let chosen = frontier
        .iter()
        .filter(|p| p.runtime <= deadline_seconds)
        .min_by(|a, b| a.core_seconds.total_cmp(&b.core_seconds))
        .cloned();
    Ok(Plan { frontier, chosen })
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmemflow_workloads::micro_64mb;

    fn params() -> ExecutionParams {
        ExecutionParams::default()
    }

    #[test]
    fn frontier_is_sorted_and_runtime_decreases_with_ranks() {
        // Fixed per-rank work (the suite weak-scales), so runtime per rank
        // stays flat-ish; here we check the planner machinery itself.
        let p = plan(&micro_64mb(8), &[8, 16, 24], f64::INFINITY, &params()).unwrap();
        assert_eq!(p.frontier.len(), 3);
        assert!(p.frontier.windows(2).all(|w| w[0].ranks < w[1].ranks));
        assert!(p.chosen.is_some());
        // Unlimited deadline: the cheapest core-seconds point is chosen.
        let min_cs = p
            .frontier
            .iter()
            .map(|q| q.core_seconds)
            .fold(f64::INFINITY, f64::min);
        assert_eq!(p.chosen.unwrap().core_seconds, min_cs);
    }

    #[test]
    fn efficiency_collapses_past_saturation() {
        // The 64 MB workload saturates the write path: weak-scaled ranks
        // add bytes 1:1 but bandwidth stops scaling, so efficiency at 24
        // ranks is visibly below 8 ranks.
        let p = plan(&micro_64mb(8), &[8, 24], f64::INFINITY, &params()).unwrap();
        let e8 = p.frontier[0].efficiency;
        let e24 = p.frontier[1].efficiency;
        assert!((e8 - 1.0).abs() < 1e-9);
        assert!(e24 < 0.9, "efficiency at 24 ranks {e24}");
    }

    #[test]
    fn impossible_deadline_chooses_nothing() {
        let p = plan(&micro_64mb(8), &[8, 16], 1e-3, &params()).unwrap();
        assert!(p.chosen.is_none());
        assert_eq!(p.frontier.len(), 2);
    }

    #[test]
    fn duplicate_and_unsorted_candidates_handled() {
        let p = plan(&micro_64mb(8), &[16, 8, 16], f64::INFINITY, &params()).unwrap();
        assert_eq!(p.frontier.len(), 2);
        assert_eq!(p.frontier[0].ranks, 8);
    }

    #[test]
    fn empty_candidates_rejected() {
        assert!(plan(&micro_64mb(8), &[], 1.0, &params()).is_err());
    }
}
