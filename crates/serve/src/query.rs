//! Typed queries, request-body decoding, and canonical cache keys.
//!
//! Every serving endpoint decodes its JSON body into a [`Query`], and
//! every query renders a **canonical key**: the workload name is folded
//! to its display spelling through the shared alias table
//! (`pmemflow_workloads::canonical_workload_name`, so `gtc-matmul` and
//! `GTC+MatrixMult` share a cache line), the stack to its display name,
//! and a co-schedule's tenants, each a [`TenantKey`], are sorted in
//! `TenantKey` order — the canonical order the cluster oracle prices
//! co-residencies in. Identical questions therefore hit identical cache
//! entries no matter how they were spelled or ordered.

use crate::json::Json;
use pmemflow_cluster::TenantKey;
use pmemflow_core::SchedConfig;
use pmemflow_iostack::StackKind;
use pmemflow_workloads::{Family, WORKLOAD_CHOICES};

/// Upper bound on `ranks` accepted at the API boundary (the model itself
/// rejects anything the node cannot pin, with a 422).
const MAX_RANKS: usize = 1024;
/// Upper bound on tenants in one co-schedule query.
const MAX_TENANTS: usize = 16;

/// A decoded, validated query.
#[derive(Debug, Clone, PartialEq)]
pub enum Query {
    /// `POST /v1/sweep` — all four Table I configurations.
    Sweep {
        /// Workload family.
        family: Family,
        /// Ranks per component.
        ranks: usize,
        /// I/O stack.
        stack: StackKind,
    },
    /// `POST /v1/recommend` — rule-based + Table II + model-driven.
    Recommend {
        /// Workload family.
        family: Family,
        /// Ranks per component.
        ranks: usize,
        /// I/O stack.
        stack: StackKind,
    },
    /// `POST /v1/predict` — predicted runtime under one configuration
    /// (or the model-driven best when `config` is omitted).
    Predict {
        /// Workload family.
        family: Family,
        /// Ranks per component.
        ranks: usize,
        /// I/O stack.
        stack: StackKind,
        /// Specific configuration; `None` = the model-driven best.
        config: Option<SchedConfig>,
    },
    /// `POST /v1/coschedule` — co-run pricing of a tenant multiset.
    Coschedule {
        /// The tenants sharing one node.
        tenants: Vec<TenantKey>,
        /// I/O stack.
        stack: StackKind,
    },
}

/// A request-body decoding failure → HTTP 400 with this message.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BadRequest(pub String);

impl std::fmt::Display for BadRequest {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.0)
    }
}

impl std::error::Error for BadRequest {}

fn bad(msg: impl Into<String>) -> BadRequest {
    BadRequest(msg.into())
}

fn field_family(body: &Json) -> Result<Family, BadRequest> {
    let name = body
        .get("workload")
        .and_then(Json::as_str)
        .ok_or_else(|| bad("field \"workload\" (string) is required"))?;
    Family::parse(name).ok_or_else(|| {
        bad(format!(
            "unknown workload {name:?}; choices: {WORKLOAD_CHOICES}"
        ))
    })
}

fn field_ranks(body: &Json) -> Result<usize, BadRequest> {
    let ranks = match body.get("ranks") {
        None => return Err(bad("field \"ranks\" (integer) is required")),
        Some(v) => v
            .as_usize()
            .ok_or_else(|| bad("field \"ranks\" must be a non-negative integer"))?,
    };
    if ranks == 0 || ranks > MAX_RANKS {
        return Err(bad(format!("\"ranks\" must be in 1..={MAX_RANKS}")));
    }
    Ok(ranks)
}

fn field_stack(body: &Json) -> Result<StackKind, BadRequest> {
    match body.get("stack") {
        None => Ok(StackKind::NvStream),
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| bad("field \"stack\" must be a string"))?;
            StackKind::parse(name)
                .ok_or_else(|| bad(format!("unknown stack {name:?}; choices: nvstream, nova")))
        }
    }
}

fn field_config(body: &Json, key: &str) -> Result<Option<SchedConfig>, BadRequest> {
    match body.get(key) {
        None | Some(Json::Null) => Ok(None),
        Some(v) => {
            let name = v
                .as_str()
                .ok_or_else(|| bad(format!("field {key:?} must be a string")))?;
            if name.eq_ignore_ascii_case("best") {
                return Ok(None);
            }
            SchedConfig::parse(name).map(Some).ok_or_else(|| {
                bad(format!(
                    "unknown config {name:?}; choices: S-LocW, S-LocR, P-LocW, P-LocR, best"
                ))
            })
        }
    }
}

impl Query {
    /// Decode the body of `POST <endpoint>` into a query.
    pub fn from_json(endpoint: &str, body: &Json) -> Result<Query, BadRequest> {
        if !matches!(body, Json::Obj(_)) {
            return Err(bad("request body must be a JSON object"));
        }
        match endpoint {
            "/v1/sweep" => Ok(Query::Sweep {
                family: field_family(body)?,
                ranks: field_ranks(body)?,
                stack: field_stack(body)?,
            }),
            "/v1/recommend" => Ok(Query::Recommend {
                family: field_family(body)?,
                ranks: field_ranks(body)?,
                stack: field_stack(body)?,
            }),
            "/v1/predict" => Ok(Query::Predict {
                family: field_family(body)?,
                ranks: field_ranks(body)?,
                stack: field_stack(body)?,
                config: field_config(body, "config")?,
            }),
            "/v1/coschedule" => {
                let stack = field_stack(body)?;
                let items = body
                    .get("tenants")
                    .and_then(Json::as_arr)
                    .ok_or_else(|| bad("field \"tenants\" (array) is required"))?;
                if items.is_empty() || items.len() > MAX_TENANTS {
                    return Err(bad(format!(
                        "\"tenants\" must hold 1..={MAX_TENANTS} entries"
                    )));
                }
                let mut tenants = Vec::with_capacity(items.len());
                for t in items {
                    let config = field_config(t, "config")?.ok_or_else(|| {
                        bad("each tenant needs an explicit \"config\" (Table I label)")
                    })?;
                    tenants.push(TenantKey::new(field_family(t)?, field_ranks(t)?, config));
                }
                Ok(Query::Coschedule { tenants, stack })
            }
            other => Err(bad(format!("no such endpoint {other:?}"))),
        }
    }

    /// The canonical cache key (see module docs). Two
    /// queries have equal keys iff the model would answer them with the
    /// same bytes.
    pub fn canonical_key(&self) -> String {
        match self {
            Query::Sweep {
                family,
                ranks,
                stack,
            } => format!("sweep|{}|{}@{ranks}", stack.name(), family.name()),
            Query::Recommend {
                family,
                ranks,
                stack,
            } => format!("recommend|{}|{}@{ranks}", stack.name(), family.name()),
            Query::Predict {
                family,
                ranks,
                stack,
                config,
            } => format!(
                "predict|{}|{}@{ranks}|{}",
                stack.name(),
                family.name(),
                config.map_or("best", |c| c.label())
            ),
            Query::Coschedule { tenants, stack } => {
                let mut sorted = tenants.clone();
                sorted.sort();
                let parts: Vec<String> = sorted
                    .iter()
                    .map(|t| format!("{}@{}/{}", t.family.name(), t.ranks, t.config.label()))
                    .collect();
                format!("cosched|{}|{}", stack.name(), parts.join(","))
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obj(s: &str) -> Json {
        Json::parse(s).unwrap()
    }

    #[test]
    fn decodes_each_endpoint() {
        let q =
            Query::from_json("/v1/sweep", &obj(r#"{"workload":"micro-64mb","ranks":8}"#)).unwrap();
        assert_eq!(
            q,
            Query::Sweep {
                family: Family::Micro64MB,
                ranks: 8,
                stack: StackKind::NvStream
            }
        );
        let q = Query::from_json(
            "/v1/predict",
            &obj(r#"{"workload":"gtc-readonly","ranks":16,"stack":"nova","config":"S-LocW"}"#),
        )
        .unwrap();
        assert!(matches!(
            q,
            Query::Predict {
                stack: StackKind::Nova,
                config: Some(SchedConfig::S_LOC_W),
                ..
            }
        ));
        let q = Query::from_json(
            "/v1/coschedule",
            &obj(
                r#"{"tenants":[{"workload":"micro-64mb","ranks":8,"config":"S-LocW"},
                              {"workload":"micro-2kb","ranks":8,"config":"P-LocR"}]}"#,
            ),
        )
        .unwrap();
        assert!(matches!(&q, Query::Coschedule { tenants, .. } if tenants.len() == 2));
    }

    #[test]
    fn rejects_bad_fields_with_messages() {
        for (endpoint, body, needle) in [
            ("/v1/sweep", "{}", "\"workload\""),
            (
                "/v1/sweep",
                r#"{"workload":"hpl","ranks":8}"#,
                "unknown workload",
            ),
            ("/v1/sweep", r#"{"workload":"micro-2kb"}"#, "\"ranks\""),
            ("/v1/sweep", r#"{"workload":"micro-2kb","ranks":0}"#, "1..="),
            (
                "/v1/sweep",
                r#"{"workload":"micro-2kb","ranks":8.5}"#,
                "integer",
            ),
            (
                "/v1/sweep",
                r#"{"workload":"micro-2kb","ranks":8,"stack":"ext4"}"#,
                "unknown stack",
            ),
            (
                "/v1/predict",
                r#"{"workload":"micro-2kb","ranks":8,"config":"X-LocW"}"#,
                "unknown config",
            ),
            ("/v1/coschedule", r#"{"tenants":[]}"#, "1..="),
            (
                "/v1/coschedule",
                r#"{"tenants":[{"workload":"micro-2kb","ranks":8}]}"#,
                "explicit \"config\"",
            ),
            ("/v1/sweep", "[]", "JSON object"),
            ("/v2/nope", "{}", "no such endpoint"),
        ] {
            let e = Query::from_json(endpoint, &obj(body)).unwrap_err();
            assert!(
                e.0.contains(needle),
                "{endpoint} {body}: {:?} missing {needle:?}",
                e.0
            );
        }
    }

    #[test]
    fn canonical_keys_agree_with_the_shared_alias_table() {
        // Every spelling in the workloads alias table keys the cache the
        // same way `canonical_workload_name` folds it — the serve cache
        // path and the suite lookup can never drift apart.
        use pmemflow_workloads::{canonical_workload_name, WORKLOAD_ALIASES};
        for &(alias, _) in WORKLOAD_ALIASES {
            let body = format!("{{\"workload\":{alias:?},\"ranks\":8}}");
            let q = Query::from_json("/v1/sweep", &obj(&body)).unwrap();
            let canonical = canonical_workload_name(alias).unwrap();
            assert_eq!(
                q.canonical_key(),
                format!("sweep|NVStream|{canonical}@8"),
                "{alias}"
            );
        }
    }

    #[test]
    fn canonical_keys_fold_spellings() {
        let a = Query::from_json(
            "/v1/sweep",
            &obj(r#"{"workload":"gtc-matmul","ranks":8,"stack":"NVSTREAM"}"#),
        )
        .unwrap();
        let b = Query::from_json(
            "/v1/sweep",
            &obj(r#"{"workload":"GTC+MatrixMult","ranks":8}"#),
        )
        .unwrap();
        assert_eq!(a.canonical_key(), b.canonical_key());
        assert_eq!(a.canonical_key(), "sweep|NVStream|GTC+MatrixMult@8");
    }

    #[test]
    fn canonical_keys_sort_coschedule_tenants() {
        let ab = Query::from_json(
            "/v1/coschedule",
            &obj(
                r#"{"tenants":[{"workload":"micro-64mb","ranks":8,"config":"S-LocW"},
                              {"workload":"micro-2kb","ranks":8,"config":"P-LocR"}]}"#,
            ),
        )
        .unwrap();
        let ba = Query::from_json(
            "/v1/coschedule",
            &obj(
                r#"{"tenants":[{"workload":"micro-2kb","ranks":8,"config":"P-LocR"},
                              {"workload":"micro-64mb","ranks":8,"config":"S-LocW"}]}"#,
            ),
        )
        .unwrap();
        assert_eq!(ab.canonical_key(), ba.canonical_key());
    }

    #[test]
    fn canonical_keys_distinguish_what_matters() {
        let mk = |body: &str| {
            Query::from_json("/v1/predict", &obj(body))
                .unwrap()
                .canonical_key()
        };
        let base = mk(r#"{"workload":"micro-2kb","ranks":8}"#);
        assert_ne!(base, mk(r#"{"workload":"micro-2kb","ranks":16}"#));
        assert_ne!(
            base,
            mk(r#"{"workload":"micro-2kb","ranks":8,"stack":"nova"}"#)
        );
        assert_ne!(
            base,
            mk(r#"{"workload":"micro-2kb","ranks":8,"config":"S-LocW"}"#)
        );
        assert_eq!(
            base,
            mk(r#"{"workload":"micro-2kb","ranks":8,"config":"best"}"#)
        );
    }
}
