//! A memo miss allocates its memo entry and nothing else, and a hit
//! allocates nothing (DESIGN.md §4.2, "No allocation per event"). Once the
//! memo has been through one full cycle, each further miss makes exactly
//! two allocations, the entry's key and its rates; the key and the solve's
//! scratch make none, and neither does a hit.

use pmemflow_des::{ClassView, Direction, FlowAttrs, FlowClass, Locality, RateAllocator};
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

/// 64 flows of three classes, in class order: a suite-like run of small
/// writes, and two classes that tie at a normalized cap of 1. Each `s`
/// below 600 gives a distinct multiset.
fn set(s: usize) -> Vec<ClassView> {
    let (run, second) = (1 + s % 30, 1 + s / 30);
    let mut views = [
        (
            attrs(Direction::Write, Locality::Local, 2048, 4e-10, 1.0),
            run,
        ),
        (
            attrs(Direction::Read, Locality::Remote, 64 << 20, 0.0, 1e3),
            second,
        ),
        (
            attrs(Direction::Read, Locality::Local, 64 << 20, 0.0, 1e3),
            64 - run - second,
        ),
    ]
    .map(|(attrs, count)| ClassView { attrs, count });
    views.sort_by_key(|v| FlowClass::of(&v.attrs));
    views.into()
}

fn allocations(alloc: &mut OptaneAllocator, classes: &[ClassView], rates: &mut [f64]) -> usize {
    let before = ALLOCATIONS.with(Cell::get);
    alloc.allocate(classes, rates);
    ALLOCATIONS.with(Cell::get) - before
}

/// An allocator whose memo has been through one full cycle: filled, then
/// cleared by the next miss.
fn cycled(sets: &[Vec<ClassView>], rates: &mut [f64]) -> OptaneAllocator {
    let mut alloc = OptaneAllocator::new(DeviceProfile::optane_gen1());
    for classes in &sets[..257] {
        alloc.allocate(classes, rates);
    }
    assert_eq!(alloc.memoized(), 1, "the warm-up must clear the memo once");
    alloc
}

#[test]
fn a_warm_miss_allocates_only_its_memo_entry() {
    let sets: Vec<Vec<ClassView>> = (0..600).map(set).collect();
    let mut rates = vec![0.0; 64];
    let mut alloc = cycled(&sets, &mut rates);
    let per_miss: Vec<usize> = (sets[257..].iter())
        .map(|classes| allocations(&mut alloc, classes, &mut rates))
        .collect();
    assert!(
        alloc.memoized() < 343,
        "the measured misses clear the memo too"
    );
    assert!(per_miss.iter().all(|&n| n == 2), "{per_miss:?}");
}

#[test]
fn a_hit_allocates_nothing() {
    let sets: Vec<Vec<ClassView>> = (0..600).map(set).collect();
    let mut rates = vec![0.0; 64];
    let mut alloc = cycled(&sets, &mut rates);
    for classes in &sets[257..300] {
        alloc.allocate(classes, &mut rates);
        let entries = alloc.memoized();
        for _ in 0..3 {
            assert_eq!(allocations(&mut alloc, classes, &mut rates), 0);
        }
        assert_eq!(alloc.memoized(), entries, "every call hits");
    }
}
