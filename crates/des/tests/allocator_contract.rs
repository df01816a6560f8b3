//! Contract tests for the `RateAllocator` abstraction: any allocator the
//! engine accepts must keep the engine's conservation and termination
//! guarantees, even adversarial ones that return pathological rates.

use pmemflow_des::{Action, ClassView, Direction, FlowAttrs, Locality, RateAllocator, Simulation};

fn attrs() -> FlowAttrs {
    FlowAttrs {
        direction: Direction::Write,
        locality: Locality::Local,
        access_bytes: 4096,
        sw_time_per_byte: 0.0,
        peak_device_rate: 1e9,
    }
}

/// Returns rates far above every flow's intrinsic rate: the engine must
/// clamp them rather than finish early.
struct OverpromisingAllocator;

impl RateAllocator for OverpromisingAllocator {
    fn allocate(&mut self, _classes: &[ClassView], rates: &mut [f64]) {
        rates.fill(1e18);
    }
}

/// Returns zero/negative rates: the engine must still make progress via
/// its minimum-rate floor instead of hanging.
struct StingyAllocator;

impl RateAllocator for StingyAllocator {
    fn allocate(&mut self, _classes: &[ClassView], rates: &mut [f64]) {
        rates.fill(0.0);
    }
}

#[test]
fn overpromised_rates_are_clamped_to_intrinsic() {
    let mut sim = Simulation::new();
    let r = sim.add_resource(Box::new(OverpromisingAllocator));
    sim.spawn(
        "w",
        vec![Action::Io {
            resource: r,
            bytes: 2e9,
            attrs: attrs(),
        }],
    );
    let rep = sim.run().unwrap();
    // 2 GB at the 1 GB/s intrinsic cap: exactly 2 s, not instantaneous.
    assert!((rep.end_time.seconds() - 2.0).abs() < 1e-6);
}

#[test]
fn zero_rates_still_terminate() {
    let mut sim = Simulation::new();
    let r = sim.add_resource(Box::new(StingyAllocator));
    sim.spawn(
        "w",
        vec![Action::Io {
            resource: r,
            bytes: 10.0, // tiny: at the 1 B/s floor this takes 10 virtual s
            attrs: attrs(),
        }],
    );
    let rep = sim.run().unwrap();
    assert!((rep.end_time.seconds() - 10.0).abs() < 1e-6);
    assert!((rep.resources[0].total_bytes() - 10.0).abs() < 1e-9);
}

/// An allocator that alternates rates across calls must not break byte
/// conservation (rates only apply forward in time).
#[derive(Default)]
struct FlipFlopAllocator {
    calls: usize,
}

impl RateAllocator for FlipFlopAllocator {
    fn allocate(&mut self, classes: &[ClassView], rates: &mut [f64]) {
        // Every call gives every slot another fraction of its intrinsic
        // rate, which exercises settle-then-reallocate paths.
        self.calls += 1;
        let slots = (classes.iter()).flat_map(|c| std::iter::repeat_n(c.attrs, c.count));
        for (i, (r, attrs)) in rates.iter_mut().zip(slots).enumerate() {
            let share = [0.9, 0.2, 0.55][(self.calls + i) % 3];
            *r = share * attrs.intrinsic_rate();
        }
    }
}

#[test]
fn time_varying_rates_conserve_bytes() {
    let mut sim = Simulation::new();
    let r = sim.add_resource(Box::<FlipFlopAllocator>::default());
    for i in 0..4 {
        sim.spawn(
            format!("w{i}"),
            vec![Action::Io {
                resource: r,
                bytes: 1e6 * (i + 1) as f64,
                attrs: attrs(),
            }],
        );
    }
    let rep = sim.run().unwrap();
    let expect: f64 = (1..=4).map(|i| 1e6 * i as f64).sum();
    assert!((rep.resources[0].total_bytes() - expect).abs() / expect < 1e-6);
    for (i, p) in rep.processes.iter().enumerate() {
        assert!((p.io_bytes - 1e6 * (i + 1) as f64).abs() < 1.0);
    }
}
