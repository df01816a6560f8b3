//! End-to-end tests of the `pmemflow cluster` subcommand: argument
//! hardening, trace streams, and campaign JSONL determinism.

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

/// A small contended campaign spec used by several tests.
const STREAM: &str = "poisson:rate=1,n=10,mix=micro-64mb";

#[test]
fn rejects_zero_nodes() {
    // Errors out before any simulation starts, so this stays fast.
    let (ok, _, stderr) = run(&["cluster", "--nodes", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("--nodes") && stderr.contains("positive node count"),
        "{stderr}"
    );
}

#[test]
fn rejects_zero_jobs() {
    let (ok, _, stderr) = run(&["cluster", "--jobs", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("--jobs") && stderr.contains("positive"),
        "{stderr}"
    );
}

#[test]
fn rejects_unknown_policy() {
    let (ok, _, stderr) = run(&["cluster", "--policy", "sjf"]);
    assert!(!ok);
    assert!(
        stderr.contains("unknown policy") && stderr.contains("fcfs"),
        "{stderr}"
    );
}

#[test]
fn rejects_options_it_does_not_read() {
    // The retired pricing switch and a misspelt flag both fail up front,
    // naming the option, instead of running a campaign that ignores them.
    for (flag, value) in [("--full-reprice", "true"), ("--nodse", "2")] {
        let (ok, _, stderr) = run(&["cluster", flag, value]);
        assert!(!ok, "{flag} accepted");
        assert!(
            stderr.contains(flag) && stderr.contains("pmemflow cluster"),
            "{stderr}"
        );
    }
}

#[test]
fn rejects_malformed_arrivals() {
    for bad in [
        "uniform:rate=1,n=5",
        "poisson:rate=0,n=5",
        "poisson:rate=1,n=0,mix=dag",
        "poisson:rate=1",
    ] {
        let (ok, _, stderr) = run(&["cluster", "--arrivals", bad]);
        assert!(!ok, "{bad} accepted");
        assert!(stderr.contains("--arrivals"), "{stderr}");
    }
}

#[test]
fn duplicate_seed_flag_last_wins() {
    let dir = std::env::temp_dir().join(format!("pmemflow-seed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let once = dir.join("once.jsonl");
    let twice = dir.join("twice.jsonl");
    let (ok, _, stderr) = run(&[
        "cluster",
        "--nodes",
        "2",
        "--arrivals",
        STREAM,
        "--seed",
        "3",
        "--out",
        once.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    // Same command with a decoy --seed first: the later flag must win,
    // reproducing the campaign above byte for byte.
    let (ok, _, stderr) = run(&[
        "cluster",
        "--nodes",
        "2",
        "--arrivals",
        STREAM,
        "--seed",
        "9999",
        "--seed",
        "3",
        "--out",
        twice.to_str().unwrap(),
    ]);
    assert!(ok, "{stderr}");
    let a = std::fs::read_to_string(&once).unwrap();
    let b = std::fs::read_to_string(&twice).unwrap();
    assert!(a.contains("\"seed\":3") && !a.contains("\"seed\":9999"));
    assert_eq!(a, b);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn campaign_jsonl_is_identical_across_jobs_counts() {
    let dir = std::env::temp_dir().join(format!("pmemflow-det-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut outputs = Vec::new();
    for jobs in ["1", "4"] {
        let path = dir.join(format!("j{jobs}.jsonl"));
        let (ok, stdout, stderr) = run(&[
            "cluster",
            "--nodes",
            "2",
            "--policy",
            "all",
            "--arrivals",
            STREAM,
            "--seed",
            "42",
            "--jobs",
            jobs,
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(ok, "{stdout}{stderr}");
        assert!(stdout.contains("interference"), "{stdout}");
        outputs.push(std::fs::read_to_string(&path).unwrap());
    }
    assert_eq!(outputs[0], outputs[1], "JSONL depends on --jobs");
    // 4 policies x (10 jobs + 1 summary) lines.
    assert_eq!(outputs[0].lines().count(), 44);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_campaign_jsonl_is_identical_across_jobs_counts() {
    let dir = std::env::temp_dir().join(format!("pmemflow-fault-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let fault_flags = [
        "--fault-seed",
        "77",
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
    let mut outputs = Vec::new();
    for jobs in ["1", "4"] {
        let path = dir.join(format!("f{jobs}.jsonl"));
        let mut args = vec![
            "cluster",
            "--nodes",
            "2",
            "--policy",
            "all",
            "--arrivals",
            STREAM,
            "--seed",
            "42",
            "--jobs",
            jobs,
            "--out",
        ];
        args.push(path.to_str().unwrap());
        args.extend_from_slice(&fault_flags);
        let (ok, stdout, stderr) = run(&args);
        assert!(ok, "{stdout}{stderr}");
        // The console table reports fault accounting columns.
        assert!(
            stdout.contains("restarts") && stdout.contains("lost_s"),
            "{stdout}"
        );
        outputs.push(std::fs::read_to_string(&path).unwrap());
    }
    assert_eq!(
        outputs[0], outputs[1],
        "fault campaign JSONL depends on --jobs"
    );
    // Every line is a job record with an outcome (completed or failed,
    // never lost) or a campaign summary, and some job completed.
    let text = &outputs[0];
    for line in text.lines() {
        assert!(
            line.contains("\"outcome\":") || line.contains("\"kind\":\"campaign\""),
            "neither a job record nor a campaign summary: {line}"
        );
    }
    assert!(text.contains("\"outcome\":\"completed\""), "{text}");
    assert!(text.contains("\"restarts\":"), "{text}");
    assert!(text.contains("\"lost_work_s\":"), "{text}");
    assert!(text.contains("\"ckpt_overhead_s\":"), "{text}");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn fault_seed_changes_the_campaign() {
    let dir = std::env::temp_dir().join(format!("pmemflow-fseed-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let mut outputs = Vec::new();
    for fault_seed in ["7", "8"] {
        let path = dir.join(format!("s{fault_seed}.jsonl"));
        let (ok, stdout, stderr) = run(&[
            "cluster",
            "--nodes",
            "2",
            "--arrivals",
            STREAM,
            "--seed",
            "42",
            "--fault-seed",
            fault_seed,
            "--mtbf",
            "30",
            "--repair",
            "10",
            "--out",
            path.to_str().unwrap(),
        ]);
        assert!(ok, "{stdout}{stderr}");
        outputs.push(std::fs::read_to_string(&path).unwrap());
    }
    assert_ne!(
        outputs[0], outputs[1],
        "different --fault-seed must change the failure trace"
    );
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn trace_stream_runs_the_listed_jobs() {
    let dir = std::env::temp_dir().join(format!("pmemflow-trace-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let trace = dir.join("arrivals.trace");
    std::fs::write(
        &trace,
        "# three bursts\n0 micro-64mb 8\n0 micro-64mb 8\n5 micro-64mb 16\n",
    )
    .unwrap();
    let out = dir.join("trace.jsonl");
    let (ok, stdout, stderr) = run(&[
        "cluster",
        "--nodes",
        "2",
        "--arrivals",
        &format!("trace:{}", trace.display()),
        "--out",
        out.to_str().unwrap(),
    ]);
    assert!(ok, "{stdout}{stderr}");
    let text = std::fs::read_to_string(&out).unwrap();
    assert_eq!(text.lines().count(), 4); // 3 jobs + summary
    assert!(text.contains("\"ranks\":16"));
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn cluster_help_is_listed() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert!(stdout.contains("cluster"));
    assert!(stdout.contains("--policy"));
    assert!(stdout.contains("interference"));
}
