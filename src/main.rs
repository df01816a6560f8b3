//! `pmemflow` — command-line front end for the reproduction.
//!
//! ```text
//! pmemflow sweep        --workload gtc-readonly --ranks 16 [--stack nova]
//! pmemflow characterize --workload miniamr-matmult --ranks 8
//! pmemflow recommend    --workload micro-2kb --ranks 24
//! pmemflow plan         --workload gtc-matmult --deadline 30 --candidates 8,16,24
//! pmemflow gantt        --workload micro-64mb --ranks 8 --config P-LocW [--chrome out.json]
//! pmemflow suite        [--jobs N] [--out runs.jsonl] [--trace-dir DIR]
//! pmemflow cluster      --nodes 4 --policy interference --arrivals poisson:rate=0.01,n=200 \
//!                       --seed 42 [--staging GIB] [--jobs N] [--out campaign.jsonl]
//! pmemflow dag          --graph fanout --policy all --nodes 2 --n 8 --staging 256 \
//!                       --seed 42 [--jobs N] [--out dag.jsonl]
//! pmemflow serve        --port 7777 --workers 4 --cache-capacity 256
//! pmemflow devicebench
//! pmemflow help
//! ```

use pmemflow::cli::{
    config_by_name, parse_rank_list, stack_by_name, workload_by_name, Args, CliError,
    WORKLOAD_CHOICES,
};
use pmemflow::cluster::{
    all_policies, policy_by_name, run_campaign_with_oracle, ArrivalSpec, CampaignConfig,
    CheckpointSpec, DagClass, FaultSpec, Oracle, Policy, DAG_CLASS_CHOICES, POLICY_CHOICES,
};
use pmemflow::core::report::panel_table;
use pmemflow::pmem::{device_report, DeviceProfile};
use pmemflow::sched::{characterize, classify, plan, recommend, scorecard, RuleThresholds};
use pmemflow::serve::{Server, ServerConfig};
use pmemflow::{
    decide, execute, full_matrix, map_ordered, paper_suite, run_matrix, sweep, ExecutionParams,
    SchedConfig,
};
use std::process::ExitCode;

const HELP: &str = "\
pmemflow — PMEM-aware in situ workflow scheduling (IPDPS 2021 reproduction)

USAGE: pmemflow <command> [--option value]...

COMMANDS:
  sweep         run a workload under all four Table I configurations
                  --workload NAME   (required; see below)
                  --ranks N         (default 8)
                  --stack nvstream|nova
  characterize  measure a workload's scheduling profile (I/O indexes, ...)
                  --workload NAME --ranks N
  recommend     rule-based + model-driven + Table II recommendations
                  --workload NAME --ranks N
  plan          choose rank count + config for a deadline
                  --workload NAME --deadline SECONDS --candidates 8,16,24
  gantt         render rank timelines for one configuration
                  --workload NAME --ranks N --config S-LocW [--chrome FILE]
  suite         run the full 144-run matrix (18 workloads x 4 configs x
                2 I/O stacks) vs the paper's Table II
                  --jobs N          parallel simulations (default: cores)
                  --out FILE        one JSON record per run (JSON Lines)
                  --trace-dir DIR   Chrome trace-event JSON per run
  cluster       serve a workflow arrival stream over N modeled nodes
                  --nodes N         cluster size (default 4)
                  --policy P        fcfs | easy | table2 | interference | all
                                    (default fcfs; `all` compares every policy)
                  --arrivals SPEC   poisson:rate=R,n=N[,mix=...]
                                    closed:clients=C,think=T,n=N[,mix=...]
                                    trace:FILE  (default poisson:rate=0.01,n=24,mix=micro)
                  --seed S          arrival-stream seed (default 42)
                  --staging GIB     per-node PMEM staging capacity (default 1536)
                  --jobs N          parallel prediction sims (default: cores)
                  --out FILE        per-job + campaign records (JSON Lines)
                fault injection + checkpoint/restart (see EXPERIMENTS.md):
                  --mtbf S            mean time between node crashes (0 = off)
                  --repair S          mean crash repair time (default 30)
                  --degrade-mtbf S    mean time between PMEM slowdowns (0 = off)
                  --degrade-duration S  mean slowdown length (default 60)
                  --degrade-factor F  bandwidth-degradation slowdown (default 2)
                  --job-fail-prob P   per-attempt job failure probability
                  --fault-seed S      fault-plan seed (default: --seed)
                  --checkpoint-interval S  progress between PMEM checkpoints
                                           (0 = restart from scratch)
                  --retry-budget N    restarts before a job is failed (default 3)
                  --backoff-base S    requeue backoff, doubled per restart
  dag           schedule generated workflow DAGs with PMEM staging as a
                second co-reserved resource (see EXPERIMENTS.md)
                  --graph G         pipeline | fanout | fanin | diamond | all
                                    (default all; one generated class per draw)
                  --policy P        fcfs | easy | table2 | interference | all
                                    (default all)
                  --nodes N         cluster size (default 2)
                  --n N             DAG submissions (default 8)
                  --rate R          arrivals per second (default 0.0015)
                  --staging GIB     per-node PMEM staging capacity (default 256)
                  --seed S          stream + generator seed (default 42)
                  --jobs N          parallel prediction sims (default: cores)
                  --out FILE        per-stage + campaign records (JSON Lines)
                  plus the cluster fault/checkpoint flags above
  serve         run the model-serving HTTP daemon (see EXPERIMENTS.md)
                  --port P            TCP port on 127.0.0.1 (default 7777; 0 = ephemeral)
                  --workers N         worker threads (default: cores)
                  --io-threads N      epoll reactor threads (default 1)
                  --cache-capacity C  result-cache entries (default 256)
                  --queue-capacity Q  admission queue depth (default 64)
                  --deadline-ms MS    per-request deadline (default 30000)
                  --read-deadline-ms MS  per-request read budget; slow clients
                                         get 408 (default 5000)
                  --fault-rate R      chaos hook: fraction of computations
                                      that panic, in [0,1) (default 0)
                  endpoints: POST /v1/sweep /v1/recommend /v1/predict
                  /v1/coschedule; GET /healthz /metrics; POST /admin/shutdown
  devicebench   print the modeled §II-B device characterization
  help          this text

WORKLOADS: micro-64mb, micro-2kb, gtc-readonly, gtc-matmult,
           miniamr-readonly, miniamr-matmult";

fn run() -> Result<(), Box<dyn std::error::Error>> {
    let args = Args::parse(std::env::args().skip(1))?;
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    // Each subcommand reads only the options it takes, then calls
    // `reject_unread` before doing any work.
    let stack_params = || -> Result<ExecutionParams, CliError> {
        Ok(ExecutionParams::default().with_stack(stack_by_name(args.get("stack"))?))
    };
    let need_workload = || -> Result<_, Box<dyn std::error::Error>> {
        let ranks: usize = args.get_parse("ranks", 8, "a rank count")?;
        let name = args
            .get("workload")
            .ok_or_else(|| format!("--workload is required; choices: {WORKLOAD_CHOICES}"))?;
        Ok(workload_by_name(name, ranks)?)
    };

    match args.command.as_str() {
        "sweep" => {
            let params = stack_params()?;
            let spec = need_workload()?;
            args.reject_unread()?;
            let result = sweep(&spec, &params)?;
            print!("{}", panel_table(&result));
            println!(
                "misconfiguration cost: up to {:.0}%",
                result.worst_case_loss_percent()
            );
        }
        "characterize" => {
            let params = stack_params()?;
            let spec = need_workload()?;
            args.reject_unread()?;
            let p = characterize(&spec, &params)?;
            println!("workflow: {}", p.name);
            println!(
                "  sim      compute={:<7} write={:<7} I/O index {:.2}",
                p.sim_compute.label(),
                p.sim_write.label(),
                p.sim_io_index
            );
            println!(
                "  analytics compute={:<7} read={:<8} I/O index {:.2}",
                p.analytics_compute.label(),
                p.analytics_read.label(),
                p.analytics_io_index
            );
            println!(
                "  effective device concurrency: sim {:.1} + analytics {:.1} = {:.1}",
                p.sim_device_concurrency,
                p.analytics_device_concurrency,
                p.combined_device_concurrency()
            );
            println!(
                "  write saturation: {:.2} ({}constrained)",
                p.write_saturation,
                if p.is_bandwidth_constrained() {
                    ""
                } else {
                    "not "
                }
            );
        }
        "recommend" => {
            let params = stack_params()?;
            let spec = need_workload()?;
            args.reject_unread()?;
            let profile = characterize(&spec, &params)?;
            let rule = recommend(&profile, &RuleThresholds::default());
            println!("rule-based: {}", rule.config);
            for r in &rule.reasons {
                println!("  - {r}");
            }
            if let Some(row) = classify(&profile) {
                println!(
                    "Table II row {}: {} ({})",
                    row.row, row.config, row.illustrated_by
                );
            } else {
                println!("Table II: no row covers this workload class");
            }
            let oracle = decide(&spec, &params)?;
            println!(
                "model-driven: {} ({:.1}s predicted; worst config costs +{:.0}%)",
                oracle.config, oracle.predicted_runtime, oracle.misconfiguration_loss_percent
            );
        }
        "plan" => {
            let params = stack_params()?;
            let spec = need_workload()?;
            let deadline: f64 = args.get_parse("deadline", f64::INFINITY, "seconds")?;
            let candidates = match args.get("candidates") {
                Some(c) => parse_rank_list(c)?,
                None => vec![8, 16, 24],
            };
            args.reject_unread()?;
            let p = plan(&spec, &candidates, deadline, &params)?;
            println!("ranks  config   runtime_s  core_seconds  efficiency");
            for pt in &p.frontier {
                println!(
                    "{:>5}  {:<7}  {:>9.1}  {:>12.0}  {:>9.2}",
                    pt.ranks,
                    pt.config.label(),
                    pt.runtime,
                    pt.core_seconds,
                    pt.efficiency
                );
            }
            match p.chosen {
                Some(pt) => println!(
                    "\nchosen: {} ranks under {} ({:.1}s ≤ deadline)",
                    pt.ranks, pt.config, pt.runtime
                ),
                None => println!("\nno candidate meets the deadline"),
            }
        }
        "gantt" => {
            let mut params = stack_params()?;
            let spec = need_workload()?;
            let config = config_by_name(args.get("config"))?.unwrap_or(SchedConfig::P_LOC_R);
            let chrome = args.get("chrome");
            args.reject_unread()?;
            params.record_timeline = true;
            let m = execute(&spec, config, &params)?;
            let tl = m.timeline.as_ref().expect("timeline recorded");
            println!("{} under {} — {:.1}s total", spec.name, config, m.total);
            print!("{}", tl.ascii_gantt(100));
            println!(
                "device saw ≥2 concurrent I/O flows {:.0}% of the run",
                tl.io_overlap_fraction(2) * 100.0
            );
            if let Some(path) = chrome {
                std::fs::write(path, tl.chrome_trace_json())?;
                println!("chrome trace written to {path}");
            }
        }
        "suite" => {
            let jobs: usize = args.get_positive("jobs", cores, "a positive worker count")?;
            let (out, trace_dir) = (args.get("out"), args.get("trace-dir"));
            args.reject_unread()?;
            // Each matrix run sets its own I/O stack, so `suite` takes no
            // `--stack`.
            let params = ExecutionParams {
                record_timeline: trace_dir.is_some(),
                ..ExecutionParams::default()
            };
            let outcomes = run_matrix(full_matrix(), &params, jobs);

            if let Some(path) = out {
                let mut buf = String::with_capacity(outcomes.len() * 512);
                for o in &outcomes {
                    buf.push_str(&o.to_jsonl());
                    buf.push('\n');
                }
                std::fs::write(path, buf)?;
                println!("{} JSONL records written to {path}\n", outcomes.len());
            }
            if let Some(dir) = trace_dir {
                std::fs::create_dir_all(dir)?;
                let mut written = 0;
                for o in &outcomes {
                    if let Some(tl) = o.result.as_ref().ok().and_then(|m| m.timeline.as_ref()) {
                        let file = format!(
                            "{dir}/{}-{}r-{}-{}.json",
                            trace_file_stem(&o.workflow),
                            o.ranks,
                            o.stack.name(),
                            o.config.label()
                        );
                        std::fs::write(&file, tl.chrome_trace_json())?;
                        written += 1;
                    }
                }
                println!("{written} Chrome traces written to {dir}\n");
            }

            let panels = scorecard::panels(&outcomes);
            print!("{}", scorecard::panel_table(&panels));
            println!(
                "\nagreement with the paper's Table II: {}/{}",
                scorecard::agreement(&panels),
                paper_suite().len()
            );
            let failures = outcomes.iter().filter(|o| o.result.is_err()).count();
            let wall: f64 = outcomes.iter().map(|o| o.wall_secs).sum();
            println!(
                "{} runs ({failures} failed) over {jobs} worker(s); {wall:.2}s total simulation wall time",
                outcomes.len()
            );
        }
        "cluster" => {
            let nodes: usize = args.get_positive("nodes", 4, "a positive node count")?;
            let jobs: usize = args.get_positive("jobs", cores, "a positive worker count")?;
            let seed: u64 = args.get_parse("seed", 42, "an unsigned seed")?;
            let spec = args
                .get("arrivals")
                .unwrap_or("poisson:rate=0.01,n=24,mix=micro");
            let arrivals = ArrivalSpec::parse(spec).map_err(|e| CliError::BadValue {
                option: "arrivals".into(),
                value: format!("{spec}: {e}"),
                expected: "poisson:rate=R,n=N | closed:clients=C,think=T,n=N | trace:FILE",
            })?;
            let policies = policy_list(&args, "fcfs")?;
            let (faults, checkpoint) = fault_flags(&args, seed)?;
            let config = CampaignConfig {
                nodes,
                arrivals,
                seed,
                exec: stack_params()?,
                staging_gib: staging_flag(&args, 1536.0)?,
                faults,
                checkpoint,
            };
            let out = args.get("out");
            args.reject_unread()?;
            run_policies(&config, policies, jobs, out)?;
        }
        "dag" => {
            let nodes: usize = args.get_positive("nodes", 2, "a positive node count")?;
            let jobs: usize = args.get_positive("jobs", cores, "a positive worker count")?;
            let graph = args.get("graph").unwrap_or("all");
            let dags: Vec<DagClass> = if graph.eq_ignore_ascii_case("all") {
                DagClass::all().to_vec()
            } else {
                vec![DagClass::parse(graph).ok_or(CliError::UnknownName {
                    kind: "graph class",
                    value: graph.into(),
                    choices: DAG_CLASS_CHOICES,
                })?]
            };
            let count: u64 = args.get_positive("n", 8, "a positive submission count")?;
            let rate: f64 = args.get_parse("rate", 0.0015, "arrivals per second (> 0)")?;
            if !rate.is_finite() || rate <= 0.0 {
                return Err(CliError::BadValue {
                    option: "rate".into(),
                    value: rate.to_string(),
                    expected: "arrivals per second (> 0)",
                }
                .into());
            }
            let seed: u64 = args.get_parse("seed", 42, "an unsigned seed")?;
            let policies = policy_list(&args, "all")?;
            let (faults, checkpoint) = fault_flags(&args, seed)?;
            let config = CampaignConfig {
                nodes,
                arrivals: ArrivalSpec::Poisson {
                    rate,
                    count,
                    mix: vec![],
                    dags,
                },
                seed,
                exec: stack_params()?,
                staging_gib: staging_flag(&args, 256.0)?,
                faults,
                checkpoint,
            };
            let out = args.get("out");
            args.reject_unread()?;
            run_policies(&config, policies, jobs, out)?;
        }
        "serve" => {
            let port: u16 = args.get_parse("port", 7777, "a TCP port (0..=65535)")?;
            let workers: usize = args.get_positive("workers", cores, "a positive worker count")?;
            let io_threads: usize =
                args.get_positive("io-threads", 1, "a positive io thread count")?;
            let cache_capacity: usize =
                args.get_positive("cache-capacity", 256, "a positive entry count")?;
            let queue_capacity: usize =
                args.get_positive("queue-capacity", 64, "a positive queue depth")?;
            let deadline_ms: u64 =
                args.get_positive("deadline-ms", 30_000, "a positive millisecond count")?;
            let read_deadline_ms: u64 =
                args.get_positive("read-deadline-ms", 5_000, "a positive millisecond count")?;
            let fault_rate: f64 = args.get_parse("fault-rate", 0.0, "a fraction in [0,1)")?;
            if !fault_rate.is_finite() || !(0.0..1.0).contains(&fault_rate) {
                return Err(CliError::BadValue {
                    option: "fault-rate".into(),
                    value: fault_rate.to_string(),
                    expected: "a fraction in [0,1)",
                }
                .into());
            }
            args.reject_unread()?;
            let server = Server::start(ServerConfig {
                port,
                workers,
                io_threads,
                cache_capacity,
                queue_capacity,
                deadline: std::time::Duration::from_millis(deadline_ms),
                read_deadline: std::time::Duration::from_millis(read_deadline_ms),
                fault_rate,
                ..ServerConfig::default()
            })?;
            println!("listening on http://{}", server.addr());
            if fault_rate > 0.0 {
                println!(
                    "CHAOS: injecting panics into ~{:.0}% of computations",
                    fault_rate * 100.0
                );
            }
            println!("{io_threads} io thread(s), {workers} worker(s), cache {cache_capacity}, queue {queue_capacity}; POST /admin/shutdown to drain");
            server.join();
        }
        "devicebench" => {
            args.reject_unread()?;
            print!("{}", device_report(&DeviceProfile::optane_gen1()));
        }
        "help" | "--help" | "-h" => {
            args.reject_unread()?;
            println!("{HELP}");
        }
        other => {
            return Err(format!("unknown command {other:?}; try `pmemflow help`").into());
        }
    }
    Ok(())
}

/// Resolve `--policy` (default `default`): one named policy, or all four.
fn policy_list(
    args: &Args,
    default: &str,
) -> Result<Vec<Box<dyn Policy>>, Box<dyn std::error::Error>> {
    let name = args.get("policy").unwrap_or(default);
    if name.eq_ignore_ascii_case("all") {
        Ok(all_policies())
    } else {
        Ok(vec![policy_by_name(name).ok_or(CliError::UnknownName {
            kind: "policy",
            value: name.into(),
            choices: POLICY_CHOICES,
        })?])
    }
}

/// Parse `--staging` (GiB of per-node PMEM staging capacity); zero,
/// negative, and non-finite values are rejected up front.
fn staging_flag(args: &Args, default: f64) -> Result<f64, Box<dyn std::error::Error>> {
    let staging: f64 = args.get_parse("staging", default, "staging capacity in GiB (> 0)")?;
    if !staging.is_finite() || staging <= 0.0 {
        return Err(CliError::BadValue {
            option: "staging".into(),
            value: staging.to_string(),
            expected: "staging capacity in GiB (> 0)",
        }
        .into());
    }
    Ok(staging)
}

/// Parse the shared fault-injection + checkpoint/restart flags.
fn fault_flags(
    args: &Args,
    seed: u64,
) -> Result<(FaultSpec, CheckpointSpec), Box<dyn std::error::Error>> {
    let fault_seed: u64 = args.get_parse("fault-seed", seed, "an unsigned seed")?;
    Ok((
        FaultSpec {
            seed: fault_seed,
            mtbf: args.get_parse("mtbf", 0.0, "seconds (0 disables crashes)")?,
            repair: args.get_parse("repair", 30.0, "seconds")?,
            degrade_mtbf: args.get_parse(
                "degrade-mtbf",
                0.0,
                "seconds (0 disables degradation)",
            )?,
            degrade_duration: args.get_parse("degrade-duration", 60.0, "seconds")?,
            degrade_factor: args.get_parse("degrade-factor", 2.0, "a slowdown factor >= 1")?,
            job_fail_prob: args.get_parse("job-fail-prob", 0.0, "a probability in [0,1)")?,
        },
        CheckpointSpec {
            interval: args.get_parse(
                "checkpoint-interval",
                0.0,
                "seconds of progress (0 disables checkpoints)",
            )?,
            retry_budget: args.get_parse("retry-budget", 3, "a restart count")?,
            backoff_base: args.get_parse("backoff-base", 5.0, "seconds")?,
            ..CheckpointSpec::default()
        },
    ))
}

/// Run one campaign per policy (fanned out over `jobs` workers via
/// `map_ordered`, so output order — and every byte — is identical for
/// any `--jobs`), print the comparison table, and optionally write the
/// concatenated JSONL.
fn run_policies(
    config: &CampaignConfig,
    policies: Vec<Box<dyn Policy>>,
    jobs: usize,
    out: Option<&str>,
) -> Result<(), Box<dyn std::error::Error>> {
    let oracle = Oracle::build(&config.arrivals.alphabet(), &config.exec, jobs)?;
    let outcomes = map_ordered(policies, jobs, |policy| {
        run_campaign_with_oracle(config, policy.as_ref(), &oracle)
    });

    let mut jsonl = String::new();
    println!(
        "policy        jobs  failed  restarts  lost_s  makespan_s  mean_wait_s  \
         p95_wait_s  mean_bsld  max_bsld  util  peak_stage_gib"
    );
    for outcome in outcomes {
        let o = outcome.map_err(|panic| format!("campaign panicked: {panic}"))??;
        let util = o.utilization();
        let mean_util = util.iter().sum::<f64>() / util.len().max(1) as f64;
        let peak = o.peak_staging_gib.iter().copied().fold(0.0, f64::max);
        println!(
            "{:<12} {:>5}  {:>6}  {:>8}  {:>6.0}  {:>10.1}  {:>11.1}  {:>10.1}  \
             {:>9.2}  {:>8.2}  {:>4.0}%  {:>14.1}",
            o.policy,
            o.jobs.len(),
            o.failed(),
            o.total_restarts(),
            o.total_lost_work(),
            o.makespan,
            o.mean_wait(),
            o.p95_wait(),
            o.mean_bounded_slowdown(),
            o.max_bounded_slowdown(),
            mean_util * 100.0,
            peak
        );
        jsonl.push_str(&o.to_jsonl());
    }
    if let Some(path) = out {
        std::fs::write(path, &jsonl)?;
        println!("campaign records written to {path}");
    }
    Ok(())
}

/// Make a workflow name safe as a file-name stem (suite names contain '+').
fn trace_file_stem(name: &str) -> String {
    name.chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' {
                c
            } else {
                '-'
            }
        })
        .collect()
}

fn main() -> ExitCode {
    match run() {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}
