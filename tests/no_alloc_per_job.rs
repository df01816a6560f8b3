//! A campaign allocates for the DAGs it draws and the stage records it
//! books, and little else: on the 64-node, 4,000-client FCFS campaign of
//! the perfbench `campaign_dag` workload, served against a warm oracle,
//! the whole campaign makes at most two heap allocations per job record.
//! (Building a `WorkflowSpec` per DAG edge to read one object size, a
//! `TenantKey` `String` per placement and fresh `Vec`s per instant cost
//! about 13; copying each record's workflow name, growing the record
//! table and naming generated stages with `format!` about 3.5.)

use pmemflow::cluster::{run_campaign_with_oracle, ArrivalSpec, CampaignConfig, Fcfs, Oracle};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

thread_local! {
    static ALLOCS: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the allocations and reallocations
/// this thread asks for. The counter is a const-initialised `Cell` with
/// no destructor, so touching it never allocates and never fails.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds exactly the contract `System` does.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: the caller's guarantees for `layout` pass on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.with(|n| n.set(n.get() + 1));
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations per job record the gate allows.
const MAX_PER_JOB: f64 = 2.0;

#[test]
fn a_campaign_allocates_at_most_twice_per_job() {
    let config = CampaignConfig {
        nodes: 64,
        arrivals: ArrivalSpec::parse("closed:clients=4000,think=0,n=8000,mix=all+dag").unwrap(),
        seed: 1,
        ..CampaignConfig::default()
    };
    let oracle = Oracle::build(&config.arrivals.alphabet(), &config.exec, 2).unwrap();
    // The first campaign fills the oracle's co-run memo and tenant table.
    let warm = run_campaign_with_oracle(&config, &Fcfs, &oracle).unwrap();

    let before = ALLOCS.with(Cell::get);
    let outcome = run_campaign_with_oracle(&config, &Fcfs, &oracle).unwrap();
    let allocs = ALLOCS.with(Cell::get) - before;

    assert_eq!(outcome.jobs.len(), warm.jobs.len(), "the campaigns differ");
    assert!(outcome.jobs.len() > 8_000, "DAG stages add job records");
    let per_job = allocs as f64 / outcome.jobs.len() as f64;
    assert!(
        per_job <= MAX_PER_JOB,
        "{allocs} allocations for {} job records: {per_job:.2} per job",
        outcome.jobs.len()
    );
}
