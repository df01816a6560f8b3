//! The model backend: queries → simulations → rendered JSON answers.
//!
//! One [`pmemflow_cluster::Oracle`] per I/O stack, populated
//! lazily as queries arrive — the same prediction path the campaign
//! scheduler prebuilds, so `serve` and `cluster` answer with bit-identical
//! numbers. Responses are rendered with the workspace's canonical JSON
//! helpers ([`pmemflow_des::json_f64`]): shortest-round-trip floats, no
//! locale, no timestamps — the same query always renders the same bytes,
//! which is what makes the result cache and the replayed-loadgen
//! byte-identity checks sound.

use crate::query::Query;
use pmemflow_cluster::{Oracle, TenantKey};
use pmemflow_core::{ExecutionParams, SchedConfig};
use pmemflow_des::{json_escape, json_f64};
use pmemflow_iostack::StackKind;
use pmemflow_sched::{classify, recommend};
use pmemflow_workloads::Family;

/// A rendered answer: an HTTP status plus a JSON body.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Answer {
    /// HTTP status code (200, or 422 when the model rejects the query).
    pub status: u16,
    /// JSON body, no trailing newline.
    pub body: String,
}

impl Answer {
    fn ok(body: String) -> Answer {
        Answer { status: 200, body }
    }

    fn unprocessable(msg: &str) -> Answer {
        Answer {
            status: 422,
            body: format!("{{\"error\":\"{}\"}}", json_escape(msg)),
        }
    }
}

/// Anything that can answer a [`Query`]. The daemon runs a
/// [`ModelBackend`]; tests substitute stubs to probe queueing, shedding
/// and deadlines without paying for simulations.
pub trait Backend: Send + Sync + 'static {
    /// Answer one decoded query. Must be deterministic in the query's
    /// canonical key.
    fn answer(&self, query: &Query) -> Answer;

    /// The answer to `query` if producing it needs no simulation, else
    /// `None`. The daemon's io thread calls this on a result-cache miss
    /// and queues the query for a worker only on `None`, so it must
    /// never block. `Some` must equal what [`Backend::answer`] returns.
    fn answer_ready(&self, _query: &Query) -> Option<Answer> {
        None
    }
}

/// The real backend: two lazily populated oracles, one per stack.
pub struct ModelBackend {
    nvstream: Oracle,
    nova: Oracle,
}

impl Default for ModelBackend {
    fn default() -> Self {
        Self::new()
    }
}

impl ModelBackend {
    /// A backend with empty oracles for both stacks under the default
    /// node parameters.
    pub fn new() -> ModelBackend {
        ModelBackend {
            nvstream: Oracle::new(&ExecutionParams::default().with_stack(StackKind::NvStream)),
            nova: Oracle::new(&ExecutionParams::default().with_stack(StackKind::Nova)),
        }
    }

    /// The oracle answering for `stack`.
    pub fn oracle(&self, stack: StackKind) -> &Oracle {
        match stack {
            StackKind::NvStream => &self.nvstream,
            StackKind::Nova => &self.nova,
        }
    }

    /// Whether answering `query` would not simulate: its workloads are
    /// characterized and, for a co-schedule, its tenant multiset is
    /// priced (see [`Oracle::corun_ready`]). Read-only.
    fn ready(&self, query: &Query) -> bool {
        match query {
            Query::Sweep {
                family,
                ranks,
                stack,
            }
            | Query::Recommend {
                family,
                ranks,
                stack,
            }
            | Query::Predict {
                family,
                ranks,
                stack,
                ..
            } => self.oracle(*stack).contains(*family, *ranks),
            Query::Coschedule { tenants, stack } => self.oracle(*stack).corun_ready(tenants),
        }
    }

    fn ensure(&self, stack: StackKind, family: Family, ranks: usize) -> Result<(), String> {
        self.oracle(stack)
            .ensure(family, ranks)
            .map_err(|e| e.to_string())
    }

    fn sweep_json(&self, family: Family, ranks: usize, stack: StackKind) -> Result<String, String> {
        self.ensure(stack, family, ranks)?;
        let oracle = self.oracle(stack);
        let sweep = oracle.config_sweep(family, ranks);
        let runs: Vec<String> = sweep
            .runs
            .iter()
            .map(|r| {
                format!(
                    "{{\"config\":\"{}\",\"total_s\":{},\"writer_finish_s\":{},\"throughput_Bps\":{}}}",
                    r.config.label(),
                    json_f64(r.total),
                    json_f64(r.writer.finish_time),
                    json_f64(r.throughput()),
                )
            })
            .collect();
        Ok(format!(
            "{{\"workflow\":\"{}\",\"ranks\":{ranks},\"stack\":\"{}\",\"runs\":[{}],\
             \"best\":\"{}\",\"worst\":\"{}\",\"worst_case_loss_percent\":{}}}",
            json_escape(family.name()),
            stack.name(),
            runs.join(","),
            sweep.best().config.label(),
            sweep.worst().config.label(),
            json_f64(sweep.worst_case_loss_percent()),
        ))
    }

    fn recommend_json(
        &self,
        family: Family,
        ranks: usize,
        stack: StackKind,
    ) -> Result<String, String> {
        self.ensure(stack, family, ranks)?;
        let oracle = self.oracle(stack);
        let profile = oracle.profile(family, ranks);
        let rule = recommend(&profile);
        let reasons: Vec<String> = rule
            .reasons
            .iter()
            .map(|r| format!("\"{}\"", json_escape(r)))
            .collect();
        let table2 = match classify(&profile) {
            Some(row) => format!(
                "{{\"row\":{},\"config\":\"{}\",\"illustrated_by\":\"{}\"}}",
                row.row,
                row.config.label(),
                json_escape(row.illustrated_by),
            ),
            None => "null".to_string(),
        };
        let sweep = oracle.config_sweep(family, ranks);
        Ok(format!(
            "{{\"workflow\":\"{}\",\"ranks\":{ranks},\"stack\":\"{}\",\
             \"rule_based\":{{\"config\":\"{}\",\"reasons\":[{}]}},\
             \"table2\":{table2},\
             \"model_driven\":{{\"config\":\"{}\",\"predicted_runtime_s\":{},\
             \"misconfiguration_loss_percent\":{}}}}}",
            json_escape(family.name()),
            stack.name(),
            rule.config.label(),
            reasons.join(","),
            sweep.best().config.label(),
            json_f64(sweep.best().total),
            json_f64(sweep.worst_case_loss_percent()),
        ))
    }

    fn predict_json(
        &self,
        family: Family,
        ranks: usize,
        stack: StackKind,
        config: Option<SchedConfig>,
    ) -> Result<String, String> {
        self.ensure(stack, family, ranks)?;
        let oracle = self.oracle(stack);
        let config = config.unwrap_or_else(|| oracle.best_config(family, ranks));
        let runtime = oracle.solo_runtime(family, ranks, config);
        Ok(format!(
            "{{\"workflow\":\"{}\",\"ranks\":{ranks},\"stack\":\"{}\",\"config\":\"{}\",\
             \"predicted_runtime_s\":{}}}",
            json_escape(family.name()),
            stack.name(),
            config.label(),
            json_f64(runtime),
        ))
    }

    fn coschedule_json(&self, tenants: &[TenantKey], stack: StackKind) -> Result<String, String> {
        // Tenants are priced and rendered in canonical (sorted) order so
        // the body matches the canonical cache key regardless of the
        // order the request listed them in.
        let mut sorted = tenants.to_vec();
        sorted.sort();
        for t in &sorted {
            self.ensure(stack, t.family, t.ranks)?;
        }
        let breakdown = self
            .oracle(stack)
            .corun_breakdown(&sorted)
            .map_err(|e| e.to_string())?;
        let makespan = breakdown.iter().map(|b| b.end).fold(0.0f64, f64::max);
        let rows: Vec<String> = sorted
            .iter()
            .zip(&breakdown)
            .map(|(t, b)| {
                format!(
                    "{{\"workflow\":\"{}\",\"ranks\":{},\"config\":\"{}\",\"start_s\":{},\
                     \"end_s\":{},\"solo_s\":{},\"slowdown\":{}}}",
                    json_escape(&b.workflow),
                    t.ranks,
                    b.config.label(),
                    json_f64(b.start),
                    json_f64(b.end),
                    json_f64(b.solo_total),
                    json_f64(b.slowdown),
                )
            })
            .collect();
        Ok(format!(
            "{{\"stack\":\"{}\",\"makespan_s\":{},\"tenants\":[{}]}}",
            stack.name(),
            json_f64(makespan),
            rows.join(","),
        ))
    }
}

impl Backend for ModelBackend {
    fn answer(&self, query: &Query) -> Answer {
        let rendered = match query {
            Query::Sweep {
                family,
                ranks,
                stack,
            } => self.sweep_json(*family, *ranks, *stack),
            Query::Recommend {
                family,
                ranks,
                stack,
            } => self.recommend_json(*family, *ranks, *stack),
            Query::Predict {
                family,
                ranks,
                stack,
                config,
            } => self.predict_json(*family, *ranks, *stack, *config),
            Query::Coschedule { tenants, stack } => self.coschedule_json(tenants, *stack),
        };
        match rendered {
            Ok(body) => Answer::ok(body),
            Err(msg) => Answer::unprocessable(&msg),
        }
    }

    /// The one renderer, behind the read-only readiness check; the
    /// oracle never evicts, so a query found ready answers unsimulated.
    fn answer_ready(&self, query: &Query) -> Option<Answer> {
        self.ready(query).then(|| self.answer(query))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn q(endpoint: &str, body: &str) -> Query {
        Query::from_json(endpoint, &Json::parse(body).unwrap()).unwrap()
    }

    /// Every kind of query the daemon serves: each endpoint on both
    /// stacks, single- and duplicate-tenant co-schedules, and a set too
    /// large for one socket (422).
    fn every_kind_of_query() -> Vec<Query> {
        let mut out = Vec::new();
        for stack in ["nvstream", "nova"] {
            let solo = format!(r#""workload":"micro-2kb","ranks":8,"stack":"{stack}""#);
            out.push(q("/v1/sweep", &format!("{{{solo}}}")));
            out.push(q("/v1/recommend", &format!("{{{solo}}}")));
            out.push(q("/v1/predict", &format!("{{{solo}}}")));
            out.push(q(
                "/v1/predict",
                &format!(r#"{{{solo},"config":"P-LocR"}}"#),
            ));
            let tenant = |config: &str| {
                format!(r#"{{"workload":"micro-2kb","ranks":8,"config":"{config}"}}"#)
            };
            for tenants in [
                vec![tenant("S-LocW")],
                vec![tenant("S-LocW"), tenant("S-LocW")],
                vec![tenant("P-LocR"), tenant("S-LocW")],
                vec![tenant("S-LocW"); 4],
            ] {
                out.push(q(
                    "/v1/coschedule",
                    &format!(r#"{{"stack":"{stack}","tenants":[{}]}}"#, tenants.join(",")),
                ));
            }
        }
        out
    }

    #[test]
    fn ready_answers_need_no_simulation_and_match_answer() {
        let backend = ModelBackend::new();
        let queries = every_kind_of_query();
        for query in &queries {
            assert_eq!(backend.answer_ready(query), None, "{query:?}");
        }
        for stack in [StackKind::NvStream, StackKind::Nova] {
            let oracle = backend.oracle(stack);
            assert!(
                !oracle.contains(Family::Micro2KB, 8),
                "the predicate simulated"
            );
            assert_eq!(oracle.corun_cache_len(), 0, "the predicate priced a set");
        }
        let mut statuses = Vec::new();
        for query in &queries {
            let answer = backend.answer(query);
            assert_eq!(
                backend.answer_ready(query).as_ref(),
                Some(&answer),
                "{query:?}"
            );
            statuses.push(answer.status);
        }
        assert_eq!(statuses.iter().filter(|&&s| s == 422).count(), 2);
        assert!(statuses.iter().all(|&s| s == 200 || s == 422));
        for stack in [StackKind::NvStream, StackKind::Nova] {
            assert_eq!(backend.oracle(stack).corun_cache_len(), 3);
        }
    }

    #[test]
    fn sweep_answer_is_valid_json_with_four_runs() {
        let backend = ModelBackend::new();
        let a = backend.answer(&q("/v1/sweep", r#"{"workload":"micro-64mb","ranks":8}"#));
        assert_eq!(a.status, 200);
        let parsed = Json::parse(&a.body).unwrap();
        assert_eq!(
            parsed.get("workflow").and_then(Json::as_str),
            Some("micro-64MB")
        );
        assert_eq!(parsed.get("runs").and_then(Json::as_arr).unwrap().len(), 4);
        let best = parsed.get("best").and_then(Json::as_str).unwrap();
        assert!(["S-LocW", "S-LocR", "P-LocW", "P-LocR"].contains(&best));
    }

    #[test]
    fn predict_defaults_to_best_config() {
        let backend = ModelBackend::new();
        let open = backend.answer(&q("/v1/predict", r#"{"workload":"micro-64mb","ranks":8}"#));
        assert_eq!(open.status, 200);
        let parsed = Json::parse(&open.body).unwrap();
        let best = parsed
            .get("config")
            .and_then(Json::as_str)
            .unwrap()
            .to_string();
        let pinned = backend.answer(&q(
            "/v1/predict",
            &format!(r#"{{"workload":"micro-64mb","ranks":8,"config":"{best}"}}"#),
        ));
        assert_eq!(open.body, pinned.body, "explicit best == implicit best");
    }

    #[test]
    fn answers_are_deterministic_and_stack_sensitive() {
        let backend = ModelBackend::new();
        let query = q("/v1/recommend", r#"{"workload":"micro-2kb","ranks":8}"#);
        assert_eq!(backend.answer(&query), backend.answer(&query));
        let nova = backend.answer(&q(
            "/v1/recommend",
            r#"{"workload":"micro-2kb","ranks":8,"stack":"nova"}"#,
        ));
        assert_ne!(backend.answer(&query).body, nova.body);
        assert!(Json::parse(&nova.body).is_ok());
    }

    #[test]
    fn coschedule_renders_canonical_order() {
        let backend = ModelBackend::new();
        let ab = backend.answer(&q(
            "/v1/coschedule",
            r#"{"tenants":[{"workload":"micro-64mb","ranks":8,"config":"S-LocW"},
                          {"workload":"micro-2kb","ranks":8,"config":"P-LocR"}]}"#,
        ));
        let ba = backend.answer(&q(
            "/v1/coschedule",
            r#"{"tenants":[{"workload":"micro-2kb","ranks":8,"config":"P-LocR"},
                          {"workload":"micro-64mb","ranks":8,"config":"S-LocW"}]}"#,
        ));
        assert_eq!(ab.status, 200);
        assert_eq!(ab.body, ba.body, "tenant order must not change the bytes");
        let parsed = Json::parse(&ab.body).unwrap();
        let tenants = parsed.get("tenants").and_then(Json::as_arr).unwrap();
        assert_eq!(tenants.len(), 2);
        assert!(parsed.get("makespan_s").and_then(Json::as_f64).unwrap() > 0.0);
        for t in tenants {
            assert!(t.get("slowdown").and_then(Json::as_f64).unwrap() >= 0.99);
        }
    }
}
