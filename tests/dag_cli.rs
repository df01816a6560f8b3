//! End-to-end tests of DAG campaigns, `pmemflow cluster` with a `dag`
//! mix: DAG token and staging hardening, staging capacity enforcement,
//! the stage record schema, and JSONL determinism.

use std::process::Command;

fn run(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_pmemflow"))
        .args(args)
        .output()
        .expect("binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

/// A small single-class campaign used by several tests; four fan-out
/// submissions keep the oracle warm-up the dominant cost.
const QUICK: &[&str] = &[
    "cluster",
    "--arrivals",
    "poisson:rate=0.0015,n=4,mix=dag-fanout",
    "--policy",
    "fcfs",
    "--nodes",
    "2",
    "--seed",
    "42",
];

#[test]
fn rejects_unknown_graph_class() {
    let (ok, _, stderr) = run(&["cluster", "--arrivals", "poisson:rate=1,n=4,mix=dag-mesh"]);
    assert!(!ok);
    assert!(
        stderr.contains("--arrivals")
            && stderr.contains("unknown mix token")
            && stderr.contains("dag-mesh")
            && stderr.contains("dag-pipeline"),
        "{stderr}"
    );
}

#[test]
fn arrival_errors_print_the_parser_message_verbatim() {
    let (ok, _, stderr) = run(&["cluster", "--arrivals", "poisson:rate=1,n=4,mix=dag-mesh"]);
    assert!(!ok);
    assert!(
        stderr.contains(
            "--arrivals poisson:rate=1,n=4,mix=dag-mesh: unknown mix token \"dag-mesh\"; families:"
        ) && !stderr.contains('\\'),
        "{stderr}"
    );
}

#[test]
fn rejects_bad_staging_capacity() {
    for bad in ["0", "-16", "inf", "NaN"] {
        let (ok, _, stderr) = run(&["cluster", "--staging", bad]);
        assert!(!ok, "--staging {bad} accepted");
        assert!(
            stderr.contains("--staging") && stderr.contains("GiB"),
            "{stderr}"
        );
    }
}

#[test]
fn undersized_staging_capacity_is_a_hard_error() {
    // A fan-out DAG's footprint is tens of GiB; 1 GiB can never hold it,
    // and the campaign must refuse rather than deadlock.
    let mut args = QUICK.to_vec();
    args.extend(["--staging", "1"]);
    let (ok, _, stderr) = run(&args);
    assert!(!ok);
    assert!(
        stderr.contains("staging") && stderr.contains("needs") && stderr.contains("GiB"),
        "{stderr}"
    );
}

#[test]
fn dag_jsonl_is_deterministic_and_jobs_invariant() {
    let dir = std::env::temp_dir().join(format!("pmemflow-dag-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("tmp dir");
    let mut outputs = Vec::new();
    for jobs in ["1", "4", "8"] {
        let path = dir.join(format!("dag-{jobs}.jsonl"));
        let mut args = QUICK.to_vec();
        args.extend(["--staging", "256", "--jobs", jobs, "--out"]);
        args.push(path.to_str().expect("utf-8 path"));
        let (ok, stdout, stderr) = run(&args);
        assert!(ok, "{stderr}");
        assert!(stdout.contains("fcfs"), "{stdout}");
        outputs.push(std::fs::read_to_string(&path).expect("output written"));
    }
    assert_eq!(outputs[0], outputs[1], "--jobs 4 changed the JSONL");
    assert_eq!(outputs[0], outputs[2], "--jobs 8 changed the JSONL");
    // Stage records carry the DAG schema fields.
    let first = outputs[0].lines().next().expect("at least one record");
    for field in ["\"dag\":\"fanout#", "\"stage\":\"", "\"staging_gib\":"] {
        assert!(first.contains(field), "{first}");
    }
    let last = outputs[0].lines().last().expect("campaign line");
    assert!(last.contains("\"staging_capacity_gib\":256"), "{last}");
    assert!(last.contains("\"peak_staging_gib\":["), "{last}");
    std::fs::remove_dir_all(&dir).ok();
}
