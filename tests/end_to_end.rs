//! End-to-end integration: the full pipeline from workflow specification
//! through characterization, scheduling and simulated execution.

use pmemflow::iostack::StackKind;
use pmemflow::sched::{characterize, recommend};
use pmemflow::workloads::{ComponentSpec, IoPattern, WorkflowSpec};
use pmemflow::{explore_then_commit, sweep, ExecutionParams, SchedConfig};

fn custom_workflow(
    ranks: usize,
    object_bytes: u64,
    objects: u64,
    cw: f64,
    cr: f64,
) -> WorkflowSpec {
    let io = IoPattern {
        objects_per_snapshot: objects,
        object_bytes,
    };
    WorkflowSpec {
        name: format!("custom-{object_bytes}x{objects}"),
        writer: ComponentSpec {
            name: "sim".into(),
            compute_per_iteration: cw,
            io,
        },
        reader: ComponentSpec {
            name: "ana".into(),
            compute_per_iteration: cr,
            io,
        },
        ranks,
        iterations: 6,
    }
}

#[test]
fn full_pipeline_for_a_custom_workflow() {
    let params = ExecutionParams::default();
    let spec = custom_workflow(12, 8 << 20, 16, 0.5, 0.2);

    // 1. Characterize.
    let profile = characterize(&spec, &params).unwrap();
    assert!(profile.sim_io_index > 0.0 && profile.sim_io_index <= 1.0);

    // 2. Rule-based recommendation gives a valid configuration.
    let rule = recommend(&profile);
    assert!(SchedConfig::ALL.contains(&rule.config));
    assert!(!rule.reasons.is_empty());

    // 3. Model-driven decision: the sweep's argmin.
    let sw = sweep(&spec, &params).unwrap();
    assert!(sw.runs.iter().all(|r| r.total >= sw.best().total));

    // 4. Rule-based choice is never catastrophically wrong: within the
    //    misconfiguration loss of the model sweep.
    let rule_norm = sw.normalized(rule.config);
    assert!(
        rule_norm <= sw.normalized(sw.worst().config),
        "rule-based pick can't exceed the worst config"
    );

    // 5. Adaptive scheduling converges and its accounting closes.
    let adaptive = explore_then_commit(&spec, 1, &params).unwrap();
    assert!(adaptive.regret_ratio() >= 1.0);
    assert!(adaptive.regret_ratio() < 2.5);
}

#[test]
fn both_stacks_run_the_same_workflow() {
    let spec = custom_workflow(8, 4096, 512, 0.05, 0.05);
    for stack in [StackKind::NvStream, StackKind::Nova] {
        let params = ExecutionParams::default().with_stack(stack);
        let sw = sweep(&spec, &params).unwrap();
        assert!(sw.best().total > 0.0);
        // NOVA's heavier software path must never be faster end-to-end for
        // identical small-object workloads.
        if stack == StackKind::Nova {
            let nvs = sweep(&spec, &ExecutionParams::default()).unwrap();
            assert!(sw.best().total >= nvs.best().total);
        }
    }
}

#[test]
fn facade_reexports_work_together() {
    // The doc-level promise: everything needed for the quickstart is
    // reachable from the facade crate root.
    let result = pmemflow::sweep(
        &pmemflow::workloads::micro_64mb(8),
        &pmemflow::ExecutionParams::default(),
    )
    .unwrap();
    assert_eq!(result.runs.len(), 4);
}
