//! A memo miss allocates its memo entry and nothing else (DESIGN.md §4.2,
//! "No allocation per event"). Once the memo and the class table have been
//! through one full cycle, each further miss makes exactly two allocations,
//! the entry's key and its rates; the solve's scratch makes none.

use pmemflow_des::{Direction, FlowAttrs, FlowView, Locality, RateAllocator};
use pmemflow_pmem::{DeviceProfile, OptaneAllocator};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

fn attrs(dir: Direction, loc: Locality, access: u64, sw: f64, boost: f64) -> FlowAttrs {
    FlowAttrs {
        direction: dir,
        locality: loc,
        access_bytes: access,
        sw_time_per_byte: sw,
        peak_device_rate: DeviceProfile::optane_gen1().single_thread_rate(dir, loc, access) * boost,
    }
}

#[test]
fn a_warm_miss_allocates_only_its_memo_entry() {
    // A suite-like run of one class, then two classes that tie at a
    // normalized cap of 1 and interleave.
    let classes = [
        attrs(Direction::Write, Locality::Local, 2048, 4e-10, 1.0),
        attrs(Direction::Read, Locality::Remote, 64 << 20, 0.0, 1e3),
        attrs(Direction::Read, Locality::Local, 64 << 20, 0.0, 1e3),
    ];
    // 64 flows; each `s` below 600 gives a distinct class sequence.
    let set = |s: usize| -> Vec<FlowView> {
        let (run, tail) = (1 + s % 30, 1 + s / 30);
        (0..64)
            .map(|f| FlowView {
                attrs: classes[if f < run { 0 } else { 1 + (f / tail) % 2 }],
                remaining: 1e9,
            })
            .collect()
    };
    let sets: Vec<Vec<FlowView>> = (0..600).map(set).collect();
    let mut alloc = OptaneAllocator::new(DeviceProfile::optane_gen1());
    let mut rates = vec![0.0; 64];
    // One full cycle: fill the memo, then the miss that clears it.
    for flows in &sets[..257] {
        alloc.allocate(flows, &mut rates);
    }
    assert_eq!(alloc.memoized(), 1, "the warm-up must clear the memo once");
    let mut per_miss = Vec::new();
    for flows in &sets[257..] {
        let before = ALLOCATIONS.with(Cell::get);
        alloc.allocate(flows, &mut rates);
        per_miss.push(ALLOCATIONS.with(Cell::get) - before);
    }
    assert!(
        alloc.memoized() < 343,
        "the measured misses clear the memo too"
    );
    assert!(per_miss.iter().all(|&n| n == 2), "{per_miss:?}");
}
