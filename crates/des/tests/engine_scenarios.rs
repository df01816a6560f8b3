//! Scenario-level tests of the fluid DES: multi-resource topologies,
//! producer/consumer chains, and analytically solvable timelines.

use pmemflow_des::{
    Action, Direction, FairShareAllocator, FlowAttrs, Locality, SimDuration, Simulation,
    UncontendedAllocator,
};

fn attrs(peak: f64) -> FlowAttrs {
    FlowAttrs {
        direction: Direction::Write,
        locality: Locality::Local,
        access_bytes: 1 << 20,
        sw_time_per_byte: 0.0,
        peak_device_rate: peak,
    }
}

#[test]
fn two_independent_resources_do_not_interact() {
    // Two devices, one flow each: both finish as if alone.
    let mut sim = Simulation::new();
    let r0 = sim.add_resource(Box::new(FairShareAllocator::new(1e9)));
    let r1 = sim.add_resource(Box::new(FairShareAllocator::new(2e9)));
    sim.spawn(
        "a",
        vec![Action::Io {
            resource: r0,
            bytes: 1e9,
            attrs: attrs(10e9),
        }],
    );
    sim.spawn(
        "b",
        vec![Action::Io {
            resource: r1,
            bytes: 1e9,
            attrs: attrs(10e9),
        }],
    );
    let rep = sim.run().unwrap();
    assert!((rep.processes[0].finished_at.unwrap().seconds() - 1.0).abs() < 1e-6);
    assert!((rep.processes[1].finished_at.unwrap().seconds() - 0.5).abs() < 1e-6);
}

#[test]
fn three_stage_pipeline_throughput() {
    // producer -> relay -> consumer through two channels; each stage does
    // 1 s of compute per item. Pipeline of depth 3 over 5 items:
    // makespan = 5 + 2 (fill) = 7 s.
    let mut sim = Simulation::new();
    let c1 = sim.add_channel();
    let c2 = sim.add_channel();
    let items = 5u64;
    let mut producer = Vec::new();
    let mut relay = Vec::new();
    let mut consumer = Vec::new();
    for v in 1..=items {
        producer.push(Action::Compute(SimDuration(1.0)));
        producer.push(Action::Publish {
            channel: c1,
            version: v,
        });
        relay.push(Action::WaitVersion {
            channel: c1,
            version: v,
        });
        relay.push(Action::Compute(SimDuration(1.0)));
        relay.push(Action::Publish {
            channel: c2,
            version: v,
        });
        consumer.push(Action::WaitVersion {
            channel: c2,
            version: v,
        });
        consumer.push(Action::Compute(SimDuration(1.0)));
    }
    sim.spawn("producer", producer);
    sim.spawn("relay", relay);
    sim.spawn("consumer", consumer);
    let rep = sim.run().unwrap();
    assert!((rep.end_time.seconds() - 7.0).abs() < 1e-9);
}

#[test]
fn fluid_sharing_with_arrivals_and_departures_is_exact() {
    // Capacity 3 GB/s. F1: 6 GB from t=0. F2: 3 GB from t=1.
    // t in [0,1): F1 alone at 3 -> 3 GB done.
    // t in [1,?): both at 1.5. F2 needs 2 s (done t=3); F1 has 3 GB left,
    // 1.5 GB/s -> also t=3. Both finish exactly at 3.
    let mut sim = Simulation::new();
    let r = sim.add_resource(Box::new(FairShareAllocator::new(3e9)));
    sim.spawn(
        "f1",
        vec![Action::Io {
            resource: r,
            bytes: 6e9,
            attrs: attrs(100e9),
        }],
    );
    sim.spawn(
        "f2",
        vec![
            Action::Compute(SimDuration(1.0)),
            Action::Io {
                resource: r,
                bytes: 3e9,
                attrs: attrs(100e9),
            },
        ],
    );
    let rep = sim.run().unwrap();
    for p in &rep.processes {
        assert!(
            (p.finished_at.unwrap().seconds() - 3.0).abs() < 1e-6,
            "{} at {}",
            p.name,
            p.finished_at.unwrap()
        );
    }
    // Resource accounting: 9 GB total moved, busy the whole 3 s.
    assert!((rep.resources[0].total_bytes() - 9e9).abs() < 1.0);
    assert!((rep.resources[0].busy_time.seconds() - 3.0).abs() < 1e-6);
}

#[test]
fn per_flow_caps_limit_even_an_idle_resource() {
    let mut sim = Simulation::new();
    let r = sim.add_resource(Box::new(FairShareAllocator::new(100e9)));
    sim.spawn(
        "capped",
        vec![Action::Io {
            resource: r,
            bytes: 2e9,
            attrs: attrs(1e9),
        }],
    );
    let rep = sim.run().unwrap();
    assert!((rep.end_time.seconds() - 2.0).abs() < 1e-6);
}

#[test]
fn many_small_flows_complete_in_submission_order_groups() {
    // 50 equal flows on a shared resource: all finish simultaneously, and
    // the engine handles the mass completion in one pass.
    let mut sim = Simulation::new();
    let r = sim.add_resource(Box::new(FairShareAllocator::new(5e9)));
    for i in 0..50 {
        sim.spawn(
            format!("f{i}"),
            vec![Action::Io {
                resource: r,
                bytes: 1e8,
                attrs: attrs(100e9),
            }],
        );
    }
    let rep = sim.run().unwrap();
    let expect = 50.0 * 1e8 / 5e9;
    for p in &rep.processes {
        assert!((p.finished_at.unwrap().seconds() - expect).abs() < 1e-6);
    }
    assert_eq!(rep.resources[0].flows_completed, 50);
}

#[test]
fn mark_actions_segment_the_timeline() {
    let mut sim = Simulation::new();
    let r = sim.add_resource(Box::new(UncontendedAllocator));
    sim.spawn(
        "phased",
        vec![
            Action::Mark("start"),
            Action::Compute(SimDuration(1.0)),
            Action::Mark("io-begin"),
            Action::Io {
                resource: r,
                bytes: 1e9,
                attrs: attrs(1e9),
            },
            Action::Mark("io-end"),
        ],
    );
    let rep = sim.run().unwrap();
    let p = &rep.processes[0];
    assert_eq!(p.mark("start").unwrap().seconds(), 0.0);
    assert_eq!(p.mark("io-begin").unwrap().seconds(), 1.0);
    assert!((p.mark("io-end").unwrap().seconds() - 2.0).abs() < 1e-6);
}
