//! Workflow-DAG campaign benchmark: a seeded stream of generated stage
//! graphs (all four classes: pipeline, fan-out, fan-in, diamond) over a
//! cluster whose PMEM staging capacity is a second schedulable
//! resource, run under every queue policy.
//!
//! Reports per-policy wall time, stage throughput, mean bounded
//! slowdown, and peak staging residency, and re-runs the FCFS campaign
//! to assert the JSONL is byte-identical — the determinism contract
//! `tests/golden.rs` also checks end-to-end through the CLI, at
//! `--jobs` 1, 4 and 8.
//!
//! Always writes `BENCH_dag_scale.json` (schema-stable, one object) so
//! successive runs seed a perf trajectory. `--smoke` shrinks the
//! campaign for CI.
//!
//! ```text
//! dag_scale [--smoke] [--nodes N] [--submissions N] [--rate R]
//!           [--staging GIB] [--jobs N] [--out PATH]
//! ```

use pmemflow_bench::BenchArgs;
use pmemflow_cluster::{
    all_policies, run_campaign_with_oracle, ArrivalSpec, CampaignConfig, DagClass, Oracle,
};
use pmemflow_core::ExecutionParams;
use std::time::Instant;

fn main() {
    let args = BenchArgs::from_env();
    let smoke = args.switch("--smoke");
    let (def_nodes, def_subs, def_rate) = if smoke {
        (2usize, 8u64, 0.002f64)
    } else {
        (8, 200, 0.01)
    };
    let nodes = args.parse_or("--nodes", def_nodes);
    let submissions = args.parse_or("--submissions", def_subs);
    let rate = args.parse_or("--rate", def_rate);
    let staging = args.parse_or("--staging", 256.0f64);
    let jobs = args.parse_or(
        "--jobs",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let out = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_dag_scale.json".to_string());
    args.reject_unread();

    let config = CampaignConfig {
        nodes,
        arrivals: ArrivalSpec::Poisson {
            rate,
            count: submissions,
            mix: vec![],
            dags: DagClass::all().to_vec(),
        },
        seed: 42,
        exec: ExecutionParams::default(),
        staging_gib: staging,
        ..CampaignConfig::default()
    };

    println!(
        "DAG SCALE — {nodes} nodes, {submissions} DAG submissions (4 classes), \
         {rate} arrivals/s, {staging} GiB staging per node\n"
    );
    // Stage specs draw from the full 18-workload suite, so the oracle
    // characterizes every (family, rank level) pair once up front.
    let t0 = Instant::now();
    let oracle =
        Oracle::build(&config.arrivals.alphabet(), &config.exec, jobs).expect("oracle warm-up");
    let oracle_secs = t0.elapsed().as_secs_f64();
    println!("oracle warm-up: {oracle_secs:.1}s");

    let mut rows = Vec::new();
    let mut fcfs_jsonl = String::new();
    for policy in all_policies() {
        let t0 = Instant::now();
        let o = run_campaign_with_oracle(&config, policy.as_ref(), &oracle).expect("campaign runs");
        let wall = t0.elapsed().as_secs_f64();
        let peak = o.peak_staging_gib.iter().copied().fold(0.0, f64::max);
        println!(
            "{:<12} {:>8.2}s wall  ({:>7.0} stages/s, makespan {:>8.0}s, \
             mean bsld {:>6.2}, peak staging {:>6.1} GiB, {} failed)",
            o.policy,
            wall,
            o.jobs.len() as f64 / wall,
            o.makespan,
            o.mean_bounded_slowdown(),
            peak,
            o.failed(),
        );
        if o.policy == "fcfs" {
            fcfs_jsonl = o.to_jsonl();
        }
        rows.push(format!(
            "{{\"policy\":\"{}\",\"wall_secs\":{wall:.3},\"stages\":{},\
             \"stages_per_sec\":{:.1},\"makespan_s\":{:.1},\"mean_bsld\":{:.3},\
             \"peak_staging_gib\":{peak:.2},\"failed\":{}}}",
            o.policy,
            o.jobs.len(),
            o.jobs.len() as f64 / wall,
            o.makespan,
            o.mean_bounded_slowdown(),
            o.failed(),
        ));
    }

    // Determinism: the identical config must reproduce FCFS byte for byte.
    let again = run_campaign_with_oracle(&config, all_policies()[0].as_ref(), &oracle)
        .expect("campaign reruns")
        .to_jsonl();
    let identical = again == fcfs_jsonl;
    assert!(identical, "FCFS rerun changed the campaign JSONL");
    println!("\nfcfs rerun: byte-identical JSONL");

    let json = format!(
        "{{\"bench\":\"dag_scale\",\"smoke\":{smoke},\"nodes\":{nodes},\
         \"submissions\":{submissions},\"rate\":{rate},\"staging_gib\":{staging},\
         \"oracle_warmup_secs\":{oracle_secs:.3},\"jsonl_identical\":{identical},\
         \"policies\":[{}]}}\n",
        rows.join(",")
    );
    std::fs::write(&out, &json).expect("write bench JSON");
    println!("wrote {out}");
}
