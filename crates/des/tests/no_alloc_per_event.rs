//! Once a run has warmed up, a reallocation allocates nothing, and neither
//! does anything else the engine does between two of them (DESIGN.md §4.2,
//! "No allocation per event"): events, settling, completions, the class
//! table as classes empty and come back, the class views and the scatter.

use pmemflow_des::{
    Action, ClassView, Direction, FairShareAllocator, FlowAttrs, Locality, RateAllocator,
    SimDuration, Simulation,
};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::{Arc, Mutex};

thread_local! {
    static ALLOCATIONS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting this thread's allocations and
/// reallocations. The counter is a const-initialised `Cell` with no
/// destructor, so touching it never allocates and never fails.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds exactly the contract `System` does.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` pass on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most calls a run makes; the probe's log is reserved up front.
const MAX_CALLS: usize = 4096;

/// At each call, logs the thread's allocation count so far and the number
/// of classes, then shares the device fairly.
struct Probe {
    inner: FairShareAllocator,
    log: Arc<Mutex<Vec<(usize, usize)>>>,
}

impl RateAllocator for Probe {
    fn allocate(&mut self, classes: &[ClassView], rates: &mut [f64]) {
        let allocations = ALLOCATIONS.with(Cell::get);
        self.log.lock().unwrap().push((allocations, classes.len()));
        self.inner.allocate(classes, rates);
    }
}

#[test]
fn a_warm_reallocation_allocates_nothing() {
    let class = |direction, locality| FlowAttrs {
        direction,
        locality,
        access_bytes: 1 << 20,
        sw_time_per_byte: 0.0,
        peak_device_rate: 2e9,
    };
    let classes = [
        class(Direction::Read, Locality::Local),
        class(Direction::Write, Locality::Local),
        class(Direction::Write, Locality::Remote),
    ];
    let log = Arc::new(Mutex::new(Vec::with_capacity(MAX_CALLS)));
    let mut sim = Simulation::new();
    let device = sim.add_resource(Box::new(Probe {
        inner: FairShareAllocator::new(4e9),
        log: Arc::clone(&log),
    }));
    // Six ranks cycle through the classes out of step, with uneven compute
    // and I/O, so classes keep emptying and coming back.
    for rank in 0..6 {
        let mut script = Vec::new();
        for step in 0..60 {
            let compute = 0.1 * (1 + (rank + step) % 3) as f64;
            script.push(Action::Compute(SimDuration(compute)));
            script.push(Action::Io {
                resource: device,
                bytes: 1e8 * (1 + rank % 4) as f64,
                attrs: classes[(rank / 2 + step) % 3],
            });
        }
        sim.spawn(format!("r{rank}"), script);
    }
    sim.run().unwrap();

    let log = log.lock().unwrap();
    assert!(log.len() <= MAX_CALLS, "the log outgrew its reservation");
    let warm = &log[log.len() / 2..];
    assert!(warm.len() >= 100, "{} warm calls", warm.len());
    for k in 1..=classes.len() {
        assert!(
            warm.iter().any(|&(_, n)| n == k),
            "no warm call had {k} classes"
        );
    }
    let first = warm[0].0;
    for (i, &(allocations, _)) in warm.iter().enumerate() {
        assert_eq!(allocations, first, "warm call {i} allocated");
    }
}
