//! End-to-end tests of the `pmemflow` command-line binary.

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

#[test]
fn help_lists_commands() {
    let (ok, stdout, _) = run(&["help"]);
    assert!(ok);
    assert_eq!(
        help_commands(&stdout),
        [
            "sweep",
            "characterize",
            "recommend",
            "plan",
            "gantt",
            "suite",
            "cluster",
            "serve",
            "devicebench",
            "help",
        ]
    );
    assert!(stdout.contains("/v1/sweep"), "help missing serve endpoints");
}

/// The command names of `help`'s COMMANDS section: the lines indented
/// by exactly two spaces.
fn help_commands(help: &str) -> Vec<&str> {
    let section = help
        .split_once("COMMANDS:\n")
        .and_then(|(_, rest)| rest.split_once("\n\n"))
        .expect("help has a COMMANDS section")
        .0;
    section
        .lines()
        .filter(|l| l.starts_with("  ") && !l[2..].starts_with(' '))
        .map(|l| l.split_whitespace().next().expect("command name"))
        .collect()
}

#[test]
fn every_listed_command_is_dispatched() {
    // A listed command that dispatch does not know fails as an unknown
    // command; one that it knows reads its options and refuses `--zzz`
    // before doing any work. Commands with a required option get it, so
    // the refusal is the bogus option's.
    let (ok, help, _) = run(&["help"]);
    assert!(ok);
    for cmd in help_commands(&help) {
        let mut args = vec![cmd];
        if ["sweep", "characterize", "recommend", "plan", "gantt"].contains(&cmd) {
            args.extend(["--workload", "micro-64mb"]);
        }
        args.extend(["--zzz", "1"]);
        let (ok, _, stderr) = run(&args);
        assert!(!ok, "`pmemflow {cmd} --zzz 1` succeeded");
        assert!(
            stderr.contains(&format!("`pmemflow {cmd}` takes no option --zzz")),
            "{cmd}: {stderr}"
        );
    }
    // A retired command is gone from dispatch as well as from help.
    let (ok, _, stderr) = run(&["dag", "--nodes", "2"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command \"dag\""), "{stderr}");
}

#[test]
fn sweep_prints_four_configs() {
    let (ok, stdout, _) = run(&["sweep", "--workload", "micro-64mb", "--ranks", "8"]);
    assert!(ok, "{stdout}");
    for c in ["S-LocW", "S-LocR", "P-LocW", "P-LocR"] {
        assert!(stdout.contains(c));
    }
    assert!(stdout.contains("best"));
}

#[test]
fn recommend_cites_rules_and_oracle() {
    let (ok, stdout, _) = run(&["recommend", "--workload", "gtc-readonly", "--ranks", "16"]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("rule-based:"));
    assert!(stdout.contains("model-driven:"));
    assert!(stdout.contains("§VIII"));
}

#[test]
fn characterize_reports_profile() {
    let (ok, stdout, _) = run(&[
        "characterize",
        "--workload",
        "miniamr-readonly",
        "--ranks",
        "8",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("I/O index"));
    assert!(stdout.contains("write saturation"));
}

#[test]
fn plan_reports_frontier() {
    let (ok, stdout, _) = run(&[
        "plan",
        "--workload",
        "micro-2kb",
        "--deadline",
        "100",
        "--candidates",
        "8,16",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("core_seconds"));
    assert!(stdout.contains("chosen:"));
}

#[test]
fn devicebench_prints_headlines() {
    let (ok, stdout, _) = run(&["devicebench"]);
    assert!(ok);
    assert!(stdout.contains("90"));
    assert!(stdout.contains("169"));
}

#[test]
fn gantt_renders() {
    let (ok, stdout, _) = run(&[
        "gantt",
        "--workload",
        "micro-64mb",
        "--ranks",
        "4",
        "--config",
        "S-LocW",
    ]);
    assert!(ok, "{stdout}");
    assert!(stdout.contains("legend"));
}

#[test]
fn suite_rejects_zero_jobs() {
    // Errors out before any simulation starts, so this stays fast.
    let (ok, _, stderr) = run(&["suite", "--jobs", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("--jobs") && stderr.contains("positive"),
        "{stderr}"
    );
}

#[test]
fn serve_rejects_bad_tuning() {
    // Every rejection happens before the daemon binds, so these stay fast.
    let (ok, _, stderr) = run(&["serve", "--workers", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("--workers") && stderr.contains("positive"),
        "{stderr}"
    );
    let (ok, _, stderr) = run(&["serve", "--cache-capacity", "0"]);
    assert!(!ok);
    assert!(
        stderr.contains("--cache-capacity") && stderr.contains("positive"),
        "{stderr}"
    );
    let (ok, _, stderr) = run(&["serve", "--queue-capacity", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--queue-capacity"), "{stderr}");
    let (ok, _, stderr) = run(&["serve", "--deadline-ms", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--deadline-ms"), "{stderr}");
    // Out-of-range and non-numeric ports fail u16 parsing -> BadValue.
    for bad_port in ["65536", "-1", "http"] {
        let (ok, _, stderr) = run(&["serve", "--port", bad_port]);
        assert!(!ok, "port {bad_port} accepted");
        assert!(
            stderr.contains("--port") && stderr.contains("expected a TCP port"),
            "{stderr}"
        );
    }
}

#[test]
fn serve_duplicate_flags_last_wins() {
    // The second --workers value (0) must win and be rejected; the CLI's
    // last-wins contract holds for serve exactly as for the other commands.
    let (ok, _, stderr) = run(&["serve", "--workers", "4", "--workers", "0"]);
    assert!(!ok);
    assert!(stderr.contains("--workers"), "{stderr}");
    // And the reverse order is accepted (rejection would happen before
    // binding; acceptance means it got past validation, so use a bad port
    // to stop startup immediately after).
    let (ok, _, stderr) = run(&[
        "serve",
        "--workers",
        "0",
        "--workers",
        "4",
        "--port",
        "http",
    ]);
    assert!(!ok);
    assert!(
        stderr.contains("--port") && !stderr.contains("--workers"),
        "{stderr}"
    );
}

#[test]
fn errors_are_friendly() {
    let (ok, _, stderr) = run(&["sweep", "--workload", "hpl"]);
    assert!(!ok);
    assert!(stderr.contains("unknown workload"));
    let (ok, _, stderr) = run(&["frobnicate"]);
    assert!(!ok);
    assert!(stderr.contains("unknown command"));
    let (ok, _, stderr) = run(&["sweep"]);
    assert!(!ok);
    assert!(stderr.contains("--workload is required"));
}
