//! Campaign policies under a dense, seeded failure trace.
//!
//! Replays the same mixed GTC/miniAMR arrival stream over a 4-node
//! cluster whose nodes crash and recover on a seeded alternating-renewal
//! process, degrade transiently (a neighbour hammering the shared PMEM
//! DIMMs), and whose jobs carry an independent per-attempt failure
//! probability — then compares every queue policy twice: **without**
//! checkpointing (a crash loses the whole attempt) and **with** periodic
//! PMEM checkpoints priced through the iostack cost model (a crash loses
//! only the progress since the last snapshot, but every interval pays the
//! snapshot write tax).
//!
//! The headline is the paper's durability argument made quantitative:
//! checkpointing to the PMEM tier trades a small, bounded overhead for a
//! large cut in lost work, and interference-aware placement keeps its
//! bounded-slowdown lead even while nodes are flapping.
//!
//! Everything is seeded (fault plan, arrivals, job-failure draws), so the
//! table regenerates byte-identically.
//!
//! ```text
//! cluster_faults [--jobs N]
//! ```

use pmemflow_bench::BenchArgs;
use pmemflow_cluster::{
    all_policies, run_campaign_with_oracle, ArrivalSpec, CampaignConfig, CampaignOutcome,
    CheckpointSpec, FaultSpec, Oracle,
};
use pmemflow_core::{map_ordered, ExecutionParams};

/// A dense failure trace: mean node up-time shorter than the campaign,
/// frequent transient degradation, and a visible per-attempt job-failure
/// probability. Dense enough that every policy takes real damage.
fn faults() -> FaultSpec {
    FaultSpec {
        seed: 1234,
        mtbf: 150.0,
        repair: 30.0,
        degrade_mtbf: 300.0,
        degrade_duration: 60.0,
        degrade_factor: 2.0,
        job_fail_prob: 0.05,
    }
}

fn config(checkpoint: CheckpointSpec) -> CampaignConfig {
    CampaignConfig {
        nodes: 4,
        arrivals: ArrivalSpec::parse("poisson:rate=0.5,n=200,mix=gtc+miniamr").expect("stream"),
        seed: 42,
        exec: ExecutionParams::default(),
        faults: faults(),
        checkpoint,
        ..CampaignConfig::default()
    }
}

fn print_table(label: &str, outcomes: &[CampaignOutcome]) {
    println!("{label}");
    println!(
        "  {:<13} {:>5} {:>6} {:>8} {:>9} {:>8} {:>10} {:>9} {:>8}",
        "policy",
        "done",
        "failed",
        "restarts",
        "lost_s",
        "ckpt_s",
        "makespan_s",
        "mean_bsld",
        "max_bsld"
    );
    for o in outcomes {
        println!(
            "  {:<13} {:>5} {:>6} {:>8} {:>9.0} {:>8.0} {:>10.1} {:>9.2} {:>8.2}",
            o.policy,
            o.completed(),
            o.failed(),
            o.total_restarts(),
            o.total_lost_work(),
            o.total_ckpt_overhead(),
            o.makespan,
            o.mean_bounded_slowdown(),
            o.max_bounded_slowdown(),
        );
    }
    println!();
}

fn main() {
    let args = BenchArgs::from_env();
    let jobs = args.parse_or(
        "--jobs",
        std::thread::available_parallelism().map_or(1, |n| n.get()),
    );
    args.reject_unread();

    println!("CAMPAIGN POLICIES UNDER FAILURES — 4 nodes, 200 arrivals, fault seed 1234\n");
    println!(
        "fault plan: node MTBF 150s / repair 30s, PMEM degradation every ~300s for 60s (2x),\n\
         job-attempt failure probability 5%, retry budget 3 with exponential backoff\n"
    );

    let bare = config(CheckpointSpec {
        interval: 0.0,
        ..CheckpointSpec::default()
    });
    // Jobs in this stream run seconds, not hours, so the checkpoint
    // interval is scaled to match: snapshot every 5s of progress.
    let ckpt = config(CheckpointSpec {
        interval: 5.0,
        ..CheckpointSpec::default()
    });

    let oracle = Oracle::build(&bare.arrivals.alphabet(), &bare.exec, jobs).expect("oracle");
    let run = |cfg: &CampaignConfig| {
        map_ordered(all_policies(), jobs, |policy| {
            run_campaign_with_oracle(cfg, policy.as_ref(), &oracle)
        })
        .into_iter()
        .map(|o| o.expect("no panic").expect("campaign runs"))
        .collect::<Vec<_>>()
    };

    let bare_out = run(&bare);
    let ckpt_out = run(&ckpt);

    print_table(
        "no checkpoints — a crash loses the whole attempt",
        &bare_out,
    );
    print_table(
        "PMEM checkpoints every 5s — a crash resumes from the last snapshot",
        &ckpt_out,
    );

    // Headline 1: checkpointing cuts lost work for every policy.
    let lost = |outs: &[CampaignOutcome]| outs.iter().map(|o| o.total_lost_work()).sum::<f64>();
    let (bare_lost, ckpt_lost) = (lost(&bare_out), lost(&ckpt_out));
    let tax = ckpt_out
        .iter()
        .map(|o| o.total_ckpt_overhead())
        .sum::<f64>();
    println!(
        "headline: 5s PMEM checkpoints cut lost work {bare_lost:.0}s -> {ckpt_lost:.0}s \
         ({:+.0}%) for a {tax:.0}s snapshot tax across all policies",
        100.0 * (ckpt_lost - bare_lost) / bare_lost
    );
    assert!(
        ckpt_lost < bare_lost,
        "checkpointing must reduce lost work ({ckpt_lost:.1} vs {bare_lost:.1})"
    );

    // Headline 2: interference-aware placement still beats FCFS on
    // bounded slowdown while nodes are flapping.
    let bsld = |outs: &[CampaignOutcome], name: &str| {
        outs.iter()
            .find(|o| o.policy == name)
            .map(|o| o.mean_bounded_slowdown())
            .expect("policy present")
    };
    let (fcfs, intf) = (bsld(&ckpt_out, "fcfs"), bsld(&ckpt_out, "interference"));
    println!(
        "headline: under failures, interference-aware placement holds mean bounded slowdown \
         {fcfs:.2} -> {intf:.2} ({:+.0}% vs FCFS)",
        100.0 * (intf - fcfs) / fcfs
    );

    // Accounting invariant: every arrival either completed or exhausted
    // its retry budget — nothing vanishes.
    for o in bare_out.iter().chain(&ckpt_out) {
        assert_eq!(
            o.completed() + o.failed(),
            o.jobs.len(),
            "{}: jobs must complete or fail, never vanish",
            o.policy
        );
    }
}
