//! Campaign-scheduler scale benchmark: one big FCFS campaign — 1k+ nodes,
//! 100k+ submissions — through the scheduler loop.
//!
//! The arrival stream is a seeded trace at `overload x` the cluster's
//! ideal core-throughput, so the queue builds a real backlog and then
//! drains — the regime where queue snapshots and re-pricing dominate.
//! Everything is deterministic. Besides end-to-end wall time, the bench
//! reports how many node re-pricings the campaign made and the wall time
//! spent inside them (`CampaignOutcome::reprice_secs`): pricing is a
//! small fraction of the loop, below end-to-end timer noise. The bench
//! turns the [`profiling`] switch on, so the campaign's wall time
//! includes the re-pricing timer's clock reads.
//!
//! Always writes `BENCH_cluster_scale.json` (schema-stable, one object)
//! so successive runs seed a perf trajectory. `--smoke` shrinks the
//! campaign for CI.
//!
//! ```text
//! cluster_scale [--smoke] [--nodes N] [--submissions N] [--overload F]
//!               [--jobs N] [--out PATH]
//! ```

use pmemflow_bench::BenchArgs;
use pmemflow_cluster::{
    run_campaign_with_oracle, ArrivalSpec, CampaignConfig, Fcfs, Oracle, TenantKey, TraceRow,
};
use pmemflow_core::{profiling, ExecutionParams, CORES_PER_SOCKET};
use pmemflow_des::rng::SplitMix64;
use pmemflow_workloads::Family;
use std::time::Instant;

/// Families in the stream.
const MIX: [Family; 2] = [Family::Micro64MB, Family::Micro2KB];
/// The paper's rank levels.
const LEVELS: [usize; 3] = [8, 16, 24];

fn main() {
    let args = BenchArgs::from_env();
    let smoke = args.switch("--smoke");
    let (def_nodes, def_subs) = if smoke {
        (64usize, 2_000u64)
    } else {
        (1_024, 100_000)
    };
    let nodes = args.parse_or("--nodes", def_nodes);
    let submissions = args.parse_or("--submissions", def_subs);
    let overload = args.parse_or("--overload", 1.3f64);
    let jobs = args.parse_or(
        "--jobs",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    let out = args
        .value("--out")
        .unwrap_or_else(|| "BENCH_cluster_scale.json".to_string());
    args.reject_unread();

    let exec = ExecutionParams::default();
    let cores = CORES_PER_SOCKET;

    // Characterize the stream's alphabet once, outside the timed loop.
    let alphabet: Vec<(Family, usize)> = MIX.iter().flat_map(|&f| LEVELS.map(|r| (f, r))).collect();
    let t0 = Instant::now();
    let oracle = Oracle::build(&alphabet, &exec, jobs).expect("oracle warm-up");
    let oracle_secs = t0.elapsed().as_secs_f64();

    // Offered load: `overload x` the cluster's ideal core-throughput
    // (mean core-seconds per job over the uniform draw), so the backlog
    // grows through the stream and drains after it — the regime where
    // snapshot and re-pricing costs dominate the loop.
    let mean_core_secs: f64 = alphabet
        .iter()
        .map(|&(family, ranks)| ranks as f64 * oracle.best_solo_runtime(family, ranks))
        .sum::<f64>()
        / alphabet.len() as f64;
    let rate = overload * (nodes * cores) as f64 / mean_core_secs;

    let mut rng = SplitMix64::new(0xC1A5_CA1E);
    let rows: Vec<TraceRow> = (0..submissions)
        .map(|i| TraceRow {
            time: i as f64 / rate,
            family: MIX[rng.range_usize(0, MIX.len())],
            ranks: LEVELS[rng.range_usize(0, LEVELS.len())],
        })
        .collect();

    println!(
        "CAMPAIGN SCALE — {nodes} nodes x {cores} cores, {submissions} submissions, \
         fcfs, {overload}x offered load ({rate:.0} jobs/s)\n"
    );
    println!(
        "oracle warm-up: {oracle_secs:.1}s ({} workloads)",
        alphabet.len()
    );

    // Warm-up: pre-simulate every co-residency multiset a node can
    // physically hold (rank sums within one socket), so the timed run
    // below measures scheduler-loop cost, not first-touch workload
    // simulations.
    fn warm_sets(
        oracle: &Oracle,
        keys: &[TenantKey],
        set: &mut Vec<TenantKey>,
        used: usize,
        start: usize,
        cap: usize,
    ) {
        if set.len() > 1 {
            oracle.corun_slowdowns(set).expect("warm-up co-run");
        }
        for (i, &key) in keys.iter().enumerate().skip(start) {
            if used + key.ranks > cap {
                continue;
            }
            set.push(key);
            warm_sets(oracle, keys, set, used + key.ranks, i, cap);
            set.pop();
        }
    }
    let keys: Vec<TenantKey> = alphabet
        .iter()
        .map(|&(f, r)| TenantKey::new(f, r, oracle.best_config(f, r)))
        .collect();
    let t0 = Instant::now();
    warm_sets(&oracle, &keys, &mut Vec::new(), 0, 0, cores);
    println!("co-run warm-up: {:.1}s", t0.elapsed().as_secs_f64());

    let config = CampaignConfig {
        nodes,
        arrivals: ArrivalSpec::Trace(rows),
        seed: 42,
        exec,
        ..CampaignConfig::default()
    };
    profiling::set_enabled(true);
    let t0 = Instant::now();
    let outcome = run_campaign_with_oracle(&config, &Fcfs, &oracle).expect("campaign runs");
    let wall = t0.elapsed().as_secs_f64();
    let util = outcome.utilization();
    let util_mean = 100.0 * util.iter().sum::<f64>() / util.len().max(1) as f64;
    let (reprice_calls, reprice_secs) = (outcome.reprice_calls, outcome.reprice_secs);
    println!(
        "campaign: {wall:>8.2}s wall  ({:>8.0} jobs/s, makespan {:.0}s, util {util_mean:.0}%)",
        submissions as f64 / wall,
        outcome.makespan,
    );
    println!(
        "pricing:  {:>8.1}ms over {reprice_calls} node reprices",
        reprice_secs * 1e3
    );

    let json = format!(
        "{{\"bench\":\"cluster_scale\",\"smoke\":{smoke},\"nodes\":{nodes},\
         \"cores_per_socket\":{cores},\"submissions\":{submissions},\
         \"overload\":{overload},\"rate_jobs_per_sec\":{rate:.2},\
         \"oracle_warmup_secs\":{oracle_secs:.3},\"wall_secs\":{wall:.3},\
         \"jobs_per_sec\":{:.1},\"makespan_s\":{:.1},\"mean_wait_s\":{:.1},\
         \"util_mean_pct\":{util_mean:.1},\"reprice_calls\":{reprice_calls},\
         \"reprice_secs\":{reprice_secs:.6}}}\n",
        submissions as f64 / wall,
        outcome.makespan,
        outcome.mean_wait(),
    );
    std::fs::write(&out, &json).expect("write bench JSON");
    println!("\nwrote {out}");
}
