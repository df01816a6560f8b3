//! The determinism contract in tier-1: the golden command lines, run
//! through the `pmemflow` binary at `--jobs 1`, `4` and `8`, must
//! reproduce `tests/golden/` byte for byte. Any byte difference fails.
//! The failure report classifies what moved, line by line: each moved
//! key, its kind (key set, string, bool, `EXACT` counter or float), the
//! largest relative float drift, and whether the drift meets the rule
//! under which a golden may be regenerated (no key set, string, bool or
//! `EXACT` change; floats within 1e-10 relative).

use std::path::{Path, PathBuf};
use std::process::Command;

/// The fault flags of the `cluster_dag_faults` golden.
const FAULTS: &[&str] = &[
    "--fault-seed",
    "1234",
    "--mtbf",
    "40",
    "--repair",
    "10",
    "--degrade-mtbf",
    "60",
    "--degrade-duration",
    "15",
    "--job-fail-prob",
    "0.1",
    "--checkpoint-interval",
    "3",
    "--retry-budget",
    "4",
];

/// Run `args` plus `--jobs J --out F` for J in 1, 4 and 8, and compare
/// each output (after `strip`) with `tests/golden/<golden>`.
fn check(golden: &str, args: &[&str], strip: fn(&str) -> String) {
    let want_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let want = std::fs::read_to_string(&want_path).expect("golden file is committed");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for jobs in ["1", "4", "8"] {
        let out = dir.join(format!("{golden}.jobs{jobs}"));
        let status = Command::new(env!("CARGO_BIN_EXE_pmemflow"))
            .args(args)
            .args(["--jobs", jobs, "--out"])
            .arg(&out)
            .output()
            .expect("binary runs");
        assert!(
            status.status.success(),
            "{golden} at --jobs {jobs}: {}",
            String::from_utf8_lossy(&status.stderr)
        );
        let got = strip(&std::fs::read_to_string(&out).expect("output written"));
        if let Some(report) = drift_report(&want, &got) {
            panic!("{golden} at --jobs {jobs} differs from the golden:\n{report}");
        }
    }
}

fn unchanged(s: &str) -> String {
    s.to_owned()
}

/// CI's `sed 's/"wall_secs":[^}]*//'`: drop each line's first
/// `"wall_secs"` value, the only wall-clock field `suite` writes.
fn strip_wall_secs(s: &str) -> String {
    s.lines()
        .map(|line| match line.find("\"wall_secs\":") {
            Some(at) => {
                let end = line[at..].find('}').map_or(line.len(), |e| at + e);
                format!("{}{}\n", &line[..at], &line[end..])
            }
            None => format!("{line}\n"),
        })
        .collect()
}

/// The regeneration rule: a golden may be regenerated for output drift
/// alone only when no key set, string, bool or exact counter moved and
/// every other number moved by at most this much, relative to the larger
/// magnitude.
const REGEN_REL: f64 = 1e-10;

/// Counters and identities: any change here is a changed decision.
const EXACT: &[&str] = &[
    "bytes",
    "channel_waits",
    "completed",
    "events",
    "failed",
    "id",
    "jobs",
    "max_heap_depth",
    "node",
    "nodes",
    "peak_concurrency",
    "ranks",
    "restarts",
    "seed",
    "staging_capacity_gib",
    "total_restarts",
];

/// A parsed JSON value. Objects keep their key order; numbers keep
/// their text for the report.
#[derive(Debug, Clone, PartialEq)]
enum Json {
    Null,
    Bool(bool),
    Num(f64, String),
    Str(String),
    Arr(Vec<Json>),
    Obj(Vec<(String, Json)>),
}

impl Json {
    fn text(&self) -> String {
        match self {
            Json::Null => "null".into(),
            Json::Bool(b) => b.to_string(),
            Json::Num(_, t) => t.clone(),
            Json::Str(s) => format!("{s:?}"),
            Json::Arr(v) => format!(
                "[{}]",
                v.iter().map(Json::text).collect::<Vec<_>>().join(",")
            ),
            Json::Obj(kv) => format!("{{{}}}", keys(kv).join(",")),
        }
    }
}

fn keys(kv: &[(String, Json)]) -> Vec<String> {
    kv.iter().map(|(k, _)| format!("{k:?}")).collect()
}

/// Parse one JSONL line. A `,` before a closing `}` is accepted: `suite`
/// lines stripped of `wall_secs` end in `,}`.
fn parse_line(line: &str) -> Result<Json, String> {
    let mut p = Parser {
        s: line.as_bytes(),
        at: 0,
    };
    let v = p.value()?;
    p.ws();
    if p.at != p.s.len() {
        return Err(format!("trailing bytes at {}", p.at));
    }
    Ok(v)
}

struct Parser<'a> {
    s: &'a [u8],
    at: usize,
}

impl Parser<'_> {
    fn ws(&mut self) {
        while self.s.get(self.at).is_some_and(u8::is_ascii_whitespace) {
            self.at += 1;
        }
    }

    fn eat(&mut self, b: u8) -> bool {
        self.ws();
        let hit = self.s.get(self.at) == Some(&b);
        self.at += usize::from(hit);
        hit
    }

    fn value(&mut self) -> Result<Json, String> {
        self.ws();
        let rest = &self.s[self.at..];
        for (word, v) in [
            ("null", Json::Null),
            ("true", Json::Bool(true)),
            ("false", Json::Bool(false)),
        ] {
            if rest.starts_with(word.as_bytes()) {
                self.at += word.len();
                return Ok(v);
            }
        }
        match rest.first() {
            Some(b'"') => self.string().map(Json::Str),
            Some(b'[') => {
                self.at += 1;
                let mut items = Vec::new();
                if !self.eat(b']') {
                    loop {
                        items.push(self.value()?);
                        if self.eat(b']') {
                            break;
                        }
                        if !self.eat(b',') {
                            return Err(format!("expected , or ] at {}", self.at));
                        }
                    }
                }
                Ok(Json::Arr(items))
            }
            Some(b'{') => {
                self.at += 1;
                let mut kv = Vec::new();
                while !self.eat(b'}') {
                    self.ws();
                    let k = self.string()?;
                    if !self.eat(b':') {
                        return Err(format!("expected : at {}", self.at));
                    }
                    kv.push((k, self.value()?));
                    if !self.eat(b',') && self.s.get(self.at) != Some(&b'}') {
                        return Err(format!("expected , or }} at {}", self.at));
                    }
                }
                Ok(Json::Obj(kv))
            }
            _ => {
                let len = rest
                    .iter()
                    .position(|b| !matches!(b, b'0'..=b'9' | b'-' | b'+' | b'.' | b'e' | b'E'))
                    .unwrap_or(rest.len());
                let text = std::str::from_utf8(&rest[..len]).expect("ASCII digits");
                let n = text
                    .parse()
                    .map_err(|_| format!("bad value at {}", self.at))?;
                self.at += len;
                Ok(Json::Num(n, text.to_string()))
            }
        }
    }

    /// A string literal; escapes are kept verbatim (both sides of a
    /// comparison are written by the same escaper).
    fn string(&mut self) -> Result<String, String> {
        let start = self.at + 1;
        let mut i = start;
        while let Some(&b) = self.s.get(i) {
            match b {
                b'\\' => i += 2,
                b'"' => {
                    self.at = i + 1;
                    return Ok(String::from_utf8_lossy(&self.s[start..i]).into_owned());
                }
                _ => i += 1,
            }
        }
        Err(format!("unterminated string at {start}"))
    }
}

/// What kind of field moved; only `Float` drift can be within the
/// regeneration rule.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Kind {
    KeySet,
    Str,
    Bool,
    Exact,
    Float(f64),
}

impl std::fmt::Display for Kind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Kind::KeySet => write!(f, "key set"),
            Kind::Str => write!(f, "string"),
            Kind::Bool => write!(f, "bool"),
            Kind::Exact => write!(f, "EXACT counter"),
            Kind::Float(rel) => write!(f, "float, rel {rel:.2e}"),
        }
    }
}

/// One moved field: its key path, golden and run values, and kind.
#[derive(Debug)]
struct Moved {
    path: String,
    want: String,
    got: String,
    kind: Kind,
}

/// Every field that differs between two parsed lines, in key order.
/// `field` is the innermost object key, which decides `EXACT`.
fn diff(want: &Json, got: &Json, path: &str, field: &str, out: &mut Vec<Moved>) {
    let mut push = |kind| {
        out.push(Moved {
            path: path.to_string(),
            want: want.text(),
            got: got.text(),
            kind,
        })
    };
    match (want, got) {
        (Json::Obj(w), Json::Obj(g)) if keys(w) != keys(g) => push(Kind::KeySet),
        (Json::Obj(w), Json::Obj(g)) => {
            for ((k, a), (_, b)) in w.iter().zip(g) {
                let sub = if path.is_empty() {
                    k.clone()
                } else {
                    format!("{path}.{k}")
                };
                diff(a, b, &sub, k, out);
            }
        }
        (Json::Arr(w), Json::Arr(g)) if w.len() != g.len() => push(Kind::KeySet),
        (Json::Arr(w), Json::Arr(g)) => {
            for (i, (a, b)) in w.iter().zip(g).enumerate() {
                diff(a, b, &format!("{path}[{i}]"), field, out);
            }
        }
        (Json::Num(a, _), Json::Num(b, _)) if a == b => {}
        (Json::Num(..), Json::Num(..)) if EXACT.contains(&field) => push(Kind::Exact),
        (Json::Num(a, _), Json::Num(b, _)) => {
            push(Kind::Float((a - b).abs() / a.abs().max(b.abs())))
        }
        (Json::Bool(a), Json::Bool(b)) if a != b => push(Kind::Bool),
        _ if want != got => push(Kind::Str),
        _ => {}
    }
}

/// Classify a line pair; a line that does not parse is a string change.
fn classify(want: &str, got: &str) -> Vec<Moved> {
    let mut out = Vec::new();
    match (parse_line(want), parse_line(got)) {
        (Ok(w), Ok(g)) => diff(&w, &g, "", "", &mut out),
        _ => out.push(Moved {
            path: "(line)".into(),
            want: want.into(),
            got: got.into(),
            kind: Kind::Str,
        }),
    }
    out
}

/// `None` when `want == got`; otherwise a report of every differing line
/// (the first few in full) with each moved key and its kind, the largest
/// relative float drift, and whether the drift meets the regeneration
/// rule.
fn drift_report(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let mut report = Vec::new();
    let mut within = w.len() == g.len();
    if !within {
        report.push(format!(
            "the golden has {} lines, the run {}",
            w.len(),
            g.len()
        ));
    }
    let (mut changed, mut max_rel) = (0, 0.0f64);
    for (n, (wl, gl)) in w.iter().zip(&g).enumerate() {
        if wl == gl {
            continue;
        }
        changed += 1;
        let moved = classify(wl, gl);
        for m in &moved {
            match m.kind {
                Kind::Float(rel) => {
                    max_rel = max_rel.max(rel);
                    within &= rel <= REGEN_REL;
                }
                _ => within = false,
            }
        }
        if changed <= 5 {
            let fields: Vec<String> = moved
                .iter()
                .map(|m| {
                    format!(
                        "key {}: golden {} vs run {} ({})",
                        m.path, m.want, m.got, m.kind
                    )
                })
                .collect();
            let fields = if fields.is_empty() {
                "number formatting only".to_string()
            } else {
                fields.join("; ")
            };
            report.push(format!("line {}, {fields}", n + 1));
        }
    }
    if changed == 0 && w.len() == g.len() {
        return Some("the files differ only in line endings".into());
    }
    let verdict = if within {
        format!("within the {REGEN_REL:e} regeneration rule")
    } else {
        format!(
            "NOT within the {REGEN_REL:e} regeneration rule (a key set, string, bool \
             or EXACT counter moved, a float moved by more, or lines were added or lost)"
        )
    };
    report.push(format!(
        "{changed} of {} lines differ, max relative float drift {max_rel:.2e}: {verdict}",
        w.len()
    ));
    Some(report.join("\n"))
}

#[test]
fn suite_matches_golden() {
    check("suite.stripped.jsonl", &["suite"], strip_wall_secs);
}

#[test]
fn cluster_matches_golden() {
    let args = [
        "cluster",
        "--nodes",
        "2",
        "--policy",
        "all",
        "--arrivals",
        "poisson:rate=0.5,n=20,mix=gtc+miniamr",
        "--seed",
        "42",
    ];
    check("cluster.jsonl", &args, unchanged);
}

#[test]
fn multi_node_cluster_matches_golden() {
    let args = [
        "cluster",
        "--nodes",
        "16",
        "--policy",
        "all",
        "--arrivals",
        "closed:clients=64,think=2,n=240,mix=all+dag",
        "--seed",
        "42",
    ];
    check("cluster_nodes.jsonl", &args, unchanged);
}

#[test]
fn dag_matches_golden() {
    let args = [
        "cluster",
        "--nodes",
        "2",
        "--policy",
        "all",
        "--arrivals",
        "poisson:rate=0.0015,n=8,mix=dag",
        "--staging",
        "256",
        "--seed",
        "42",
    ];
    check("dag.jsonl", &args, unchanged);
}

#[test]
fn dag_faults_match_golden() {
    let mut args = vec![
        "cluster",
        "--nodes",
        "2",
        "--policy",
        "all",
        "--arrivals",
        "poisson:rate=1,n=30,mix=all+dag",
        "--seed",
        "42",
    ];
    args.extend(FAULTS);
    check("cluster_dag_faults.jsonl", &args, unchanged);
}

/// The `serve.jsonl` golden's queries, as `(endpoint, request body)`:
/// every model endpoint on both stacks, `predict` with and without a
/// configuration, co-schedule sets listed out of canonical (name) order
/// and with duplicates, one set too large for a socket (422) and one
/// unknown workload (400).
fn serve_golden_queries() -> Vec<(&'static str, String)> {
    let tenant = |workload: &str, config: &str| {
        format!(r#"{{"workload":"{workload}","ranks":8,"config":"{config}"}}"#)
    };
    let mut out = Vec::new();
    for stack in ["nvstream", "nova"] {
        let solo =
            |workload: &str| format!(r#""workload":"{workload}","ranks":8,"stack":"{stack}""#);
        out.push(("/v1/sweep", format!("{{{}}}", solo("micro-2kb"))));
        out.push(("/v1/recommend", format!("{{{}}}", solo("gtc-matmul"))));
        out.push(("/v1/predict", format!("{{{}}}", solo("micro-64mb"))));
        out.push((
            "/v1/predict",
            format!(r#"{{{},"config":"P-LocR"}}"#, solo("micro-64mb")),
        ));
        for tenants in [
            vec![
                tenant("micro-2kb", "S-LocW"),
                tenant("gtc-matmul", "P-LocR"),
                tenant("micro-2kb", "S-LocW"),
            ],
            vec![
                tenant("micro-64mb", "P-LocW"),
                tenant("gtc-readonly", "S-LocR"),
                tenant("gtc-matmul", "S-LocW"),
            ],
            vec![tenant("gtc-readonly", "S-LocR"); 4],
        ] {
            out.push((
                "/v1/coschedule",
                format!(r#"{{"stack":"{stack}","tenants":[{}]}}"#, tenants.join(",")),
            ));
        }
    }
    out.push(("/v1/sweep", r#"{"workload":"hpl","ranks":8}"#.to_string()));
    out
}

/// Every query of [`serve_golden_queries`], answered by an in-process
/// daemon over its real model backend, one request at a time on one
/// keep-alive connection, must reproduce `tests/golden/serve.jsonl`: one
/// line per query with its endpoint, request, status and answer body.
#[test]
fn serve_answers_match_golden() {
    use pmemflow::serve::{split_responses, Server, ServerConfig};
    use std::io::{Read, Write};
    use std::time::Duration;

    let server = Server::start(ServerConfig {
        workers: 1,
        deadline: Duration::from_secs(600),
        ..ServerConfig::default()
    })
    .expect("daemon boots");
    let mut conn = std::net::TcpStream::connect(server.addr()).expect("connects");
    let mut got = String::new();
    for (endpoint, body) in serve_golden_queries() {
        let request = format!(
            "POST {endpoint} HTTP/1.1\r\nHost: golden\r\nContent-Length: {}\r\n\r\n{body}",
            body.len()
        );
        conn.write_all(request.as_bytes()).expect("request written");
        let mut bytes = Vec::new();
        let mut buf = [0u8; 4096];
        let response = loop {
            if let Some(r) = split_responses(&bytes).expect("framed").0.pop() {
                break r;
            }
            let n = conn.read(&mut buf).expect("response read");
            assert!(n > 0, "daemon closed the connection on {endpoint} {body}");
            bytes.extend_from_slice(&buf[..n]);
        };
        let answer = String::from_utf8(response.body).expect("UTF-8 body");
        got.push_str(&format!(
            "{{\"endpoint\":\"{endpoint}\",\"request\":{body},\"status\":{},\"answer\":{answer}}}\n",
            response.status
        ));
    }
    server.shutdown();
    server.join();
    let want = std::fs::read_to_string(
        Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/golden/serve.jsonl"),
    )
    .expect("golden file is committed");
    if let Some(report) = drift_report(&want, &got) {
        panic!("serve answers differ from the golden:\n{report}");
    }
}

#[test]
fn a_moved_field_is_named() {
    let want = "{\"a\":1,\"b\":[1,2],\"c\":\"x\"}\n{\"a\":2}\n";
    let got = "{\"a\":1,\"b\":[1,2],\"c\":\"y\"}\n{\"a\":2}\n";
    let report = drift_report(want, got).expect("a difference");
    assert!(
        report.starts_with("line 1, key c: golden \"x\" vs run \"y\" (string)"),
        "{report}"
    );
    assert!(report.contains("NOT within"), "{report}");
    assert_eq!(drift_report(want, want), None);
    let short = drift_report(want, "{\"a\":1,\"b\":[1,2],\"c\":\"x\"}\n").unwrap();
    assert!(
        short.contains("the golden has 2 lines, the run 1"),
        "{short}"
    );
    assert_eq!(
        strip_wall_secs("{\"x\":1,\"wall_secs\":0.5}\n"),
        "{\"x\":1,}\n"
    );
}

#[test]
fn one_ulp_float_change_is_float_drift_within_the_rule() {
    let x = 6.388198523879915f64;
    let next = f64::from_bits(x.to_bits() + 1);
    let want = format!("{{\"ok\":true,\"io_s\":{x},\"events\":184}}\n");
    let got = format!("{{\"ok\":true,\"io_s\":{next},\"events\":184}}\n");
    let moved = classify(want.trim(), got.trim());
    assert_eq!(moved.len(), 1, "{moved:?}");
    assert_eq!(moved[0].path, "io_s");
    let Kind::Float(rel) = moved[0].kind else {
        panic!("{moved:?}");
    };
    assert_eq!(rel, (next - x) / next);
    assert!(rel > 0.0 && rel < 2.0 * f64::EPSILON);
    let report = drift_report(&want, &got).unwrap();
    assert!(report.contains("(float, rel "), "{report}");
    assert!(
        report.contains(": within the 1e-10 regeneration rule"),
        "{report}"
    );
}

#[test]
fn counter_and_id_changes_are_exact() {
    let moved = classify(
        "{\"id\":3,\"writer\":{\"channel_waits\":8},\"events\":184}",
        "{\"id\":4,\"writer\":{\"channel_waits\":9},\"events\":185}",
    );
    let kinds: Vec<(&str, Kind)> = moved.iter().map(|m| (m.path.as_str(), m.kind)).collect();
    assert_eq!(
        kinds,
        [
            ("id", Kind::Exact),
            ("writer.channel_waits", Kind::Exact),
            ("events", Kind::Exact)
        ]
    );
    let report = drift_report("{\"events\":184}\n", "{\"events\":185}\n").unwrap();
    assert!(report.contains("(EXACT counter)"), "{report}");
    assert!(report.contains("NOT within"), "{report}");
}

#[test]
fn renamed_or_reordered_keys_are_a_key_set_change() {
    let renamed = classify("{\"a\":1,\"b\":2}", "{\"a\":1,\"c\":2}");
    assert_eq!(renamed.len(), 1);
    assert_eq!(renamed[0].kind, Kind::KeySet);
    assert_eq!(renamed[0].want, "{\"a\",\"b\"}");
    let reordered = classify("{\"x\":{\"a\":1,\"b\":2}}", "{\"x\":{\"b\":2,\"a\":1}}");
    assert_eq!(reordered.len(), 1);
    assert_eq!(
        (reordered[0].path.as_str(), reordered[0].kind),
        ("x", Kind::KeySet)
    );
    let longer = classify("{\"peak\":[1,2]}", "{\"peak\":[1,2,3]}");
    assert_eq!(longer[0].kind, Kind::KeySet);
}

#[test]
fn suite_line_stripped_of_wall_secs_parses() {
    let line = "{\"workflow\":\"micro-64MB\",\"ok\":true,\"serial_split\":{\"writer_s\":6.3,\
                \"reader_s\":5.4},\"events\":184,\"max_heap_depth\":16,\"wall_secs\":0.01}";
    let stripped = strip_wall_secs(line);
    assert!(stripped.trim_end().ends_with(",}"), "{stripped}");
    let Json::Obj(kv) = parse_line(stripped.trim()).expect("a stripped suite line parses") else {
        panic!("not an object");
    };
    let keys: Vec<&str> = kv.iter().map(|(k, _)| k.as_str()).collect();
    assert_eq!(
        keys,
        ["workflow", "ok", "serial_split", "events", "max_heap_depth"]
    );
    assert_eq!(kv[1].1, Json::Bool(true));
    // And every committed golden line parses.
    for golden in [
        "suite.stripped.jsonl",
        "cluster.jsonl",
        "cluster_nodes.jsonl",
        "dag.jsonl",
        "cluster_dag_faults.jsonl",
        "serve.jsonl",
    ] {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("tests/golden")
            .join(golden);
        for (n, line) in std::fs::read_to_string(path).unwrap().lines().enumerate() {
            if let Err(e) = parse_line(line) {
                panic!("{golden} line {}: {e}", n + 1);
            }
        }
    }
}
