//! The determinism contract in tier-1: CI's golden command lines, run
//! through the `pmemflow` binary at `--jobs 1` and `--jobs 2`, must
//! reproduce `tests/golden/` byte for byte. A mismatch names the first
//! differing line and the first top-level key that moved on it.

use std::path::{Path, PathBuf};
use std::process::Command;

/// The chaos-smoke fault flags of CI's `cluster_dag_faults` golden.
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

/// Run `args` plus `--jobs J --out F` for J in 1 and 2, and compare each
/// output (after `strip`) with `tests/golden/<golden>`.
fn check(golden: &str, args: &[&str], strip: fn(&str) -> String) {
    let want_path = Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests/golden")
        .join(golden);
    let want = std::fs::read_to_string(&want_path).expect("golden file is committed");
    let dir = PathBuf::from(env!("CARGO_TARGET_TMPDIR")).join("golden");
    std::fs::create_dir_all(&dir).expect("scratch dir");
    for jobs in ["1", "2"] {
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
        if let Some(report) = first_difference(&want, &got) {
            panic!("{golden} at --jobs {jobs} differs from the golden: {report}");
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

/// The top-level `"key":value` fields of a flat JSON object line, split
/// on commas outside strings, arrays and nested objects.
fn fields(line: &str) -> Vec<&str> {
    let body = line.trim().trim_start_matches('{').trim_end_matches('}');
    let (mut out, mut depth, mut in_str, mut start) = (Vec::new(), 0i32, false, 0);
    let bytes = body.as_bytes();
    for (i, &b) in bytes.iter().enumerate() {
        match b {
            b'"' if i == 0 || bytes[i - 1] != b'\\' => in_str = !in_str,
            b'{' | b'[' if !in_str => depth += 1,
            b'}' | b']' if !in_str => depth -= 1,
            b',' if !in_str && depth == 0 => {
                out.push(&body[start..i]);
                start = i + 1;
            }
            _ => {}
        }
    }
    out.push(&body[start..]);
    out
}

/// `None` when `want == got`; otherwise the first differing line (1-based)
/// and the first field on it that differs, old and new.
fn first_difference(want: &str, got: &str) -> Option<String> {
    if want == got {
        return None;
    }
    let (w, g): (Vec<&str>, Vec<&str>) = (want.lines().collect(), got.lines().collect());
    let Some(n) = (0..w.len().max(g.len())).find(|&i| w.get(i) != g.get(i)) else {
        return Some("the files differ only in line endings".into());
    };
    let (Some(wl), Some(gl)) = (w.get(n), g.get(n)) else {
        return Some(format!(
            "line {}: the golden has {} lines, the run {}",
            n + 1,
            w.len(),
            g.len()
        ));
    };
    let (wf, gf) = (fields(wl), fields(gl));
    let moved = (0..wf.len().max(gf.len())).find(|&i| wf.get(i) != gf.get(i));
    let show = |f: Option<&&str>| f.map_or("(absent)".to_string(), |s| s.to_string());
    Some(match moved {
        Some(i) => {
            let key = wf.get(i).or(gf.get(i)).and_then(|f| f.split(':').next());
            format!(
                "line {}, key {}: golden {} vs run {}",
                n + 1,
                key.unwrap_or("?"),
                show(wf.get(i)),
                show(gf.get(i))
            )
        }
        None => format!("line {}: {wl} vs {gl}", n + 1),
    })
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
        "dag", "--graph", "all", "--policy", "all", "--nodes", "2", "--n", "8", "--seed", "42",
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

#[test]
fn a_moved_field_is_named() {
    let want = "{\"a\":1,\"b\":[1,2],\"c\":\"x\"}\n{\"a\":2}\n";
    let got = "{\"a\":1,\"b\":[1,2],\"c\":\"y\"}\n{\"a\":2}\n";
    let report = first_difference(want, got).expect("a difference");
    assert!(report.starts_with("line 1, key \"c\""), "{report}");
    assert_eq!(first_difference(want, want), None);
    let short = first_difference(want, "{\"a\":1,\"b\":[1,2],\"c\":\"x\"}\n").unwrap();
    assert!(short.contains("line 2"), "{short}");
    assert_eq!(
        strip_wall_secs("{\"x\":1,\"wall_secs\":0.5}\n"),
        "{\"x\":1,}\n"
    );
}
