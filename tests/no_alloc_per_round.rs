//! A campaign's policy round costs what it places, not the length of the
//! queue: on an FCFS campaign whose backlog stays above 3,000 jobs, the
//! bytes allocated from one policy round to the next stay far below one
//! pointer per queued job. (Handing the policy a freshly collected
//! `Vec<&QueuedJob>` costs eight bytes per queued job every round.)

use pmemflow::cluster::{
    run_campaign_with_oracle, ArrivalSpec, CampaignConfig, Fcfs, NodeView, Oracle, Placement,
    Policy, QueuedJob,
};
use pmemflow::core::ExecError;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::sync::Mutex;

thread_local! {
    static BYTES: Cell<usize> = const { Cell::new(0) };
}

/// The system allocator, counting the bytes this thread asks for
/// (allocations and the new size of reallocations). The counter is a
/// const-initialised `Cell` with no destructor, so touching it never
/// allocates and never fails.
struct Counting;

// SAFETY: every method forwards its arguments unchanged to `System`, so
// `Counting` upholds exactly the contract `System` does.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + layout.size()));
        // SAFETY: the caller's guarantees for `layout` pass on unchanged.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator, with
        // `layout`, as the caller guarantees.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        BYTES.with(|n| n.set(n.get() + new_size));
        // SAFETY: as for `dealloc`; `new_size` is the caller's, unchanged.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Most rounds the campaign runs; the probe's log is reserved up front.
const MAX_ROUNDS: usize = 16_384;

/// FCFS, logging at each round the thread's byte count so far and the
/// number of queued jobs it was shown.
struct Probe {
    log: Mutex<Vec<(usize, usize)>>,
}

impl Policy for Probe {
    fn name(&self) -> &'static str {
        "fcfs"
    }

    fn schedule(
        &self,
        now: f64,
        queue: &[&QueuedJob],
        nodes: &[NodeView],
        oracle: &Oracle,
    ) -> Result<Vec<Placement>, ExecError> {
        let bytes = BYTES.with(Cell::get);
        self.log.lock().unwrap().push((bytes, queue.len()));
        Fcfs.schedule(now, queue, nodes, oracle)
    }
}

#[test]
fn a_policy_round_allocates_nothing_per_queued_job() {
    // 3,200 clients with no think time on two nodes keep about 3,200
    // jobs queued until the budget runs out.
    let config = CampaignConfig {
        nodes: 2,
        arrivals: ArrivalSpec::parse("closed:clients=3200,think=0,n=4000,mix=all+dag").unwrap(),
        seed: 1,
        ..CampaignConfig::default()
    };
    let oracle = Oracle::build(&config.arrivals.alphabet(), &config.exec, 2).unwrap();
    let probe = Probe {
        log: Mutex::new(Vec::with_capacity(MAX_ROUNDS)),
    };
    run_campaign_with_oracle(&config, &probe, &oracle).unwrap();

    let log = probe.log.into_inner().unwrap();
    assert!(log.len() <= MAX_ROUNDS, "the log outgrew its reservation");
    // Bytes from each round to the next while the backlog is deep: the
    // view handed to the round, the policy's own scratch and batch, and
    // whatever the loop did for the instants in between.
    let mut per_round: Vec<usize> = log
        .windows(2)
        .filter(|w| w[0].1 >= 3_000)
        .map(|w| w[1].0 - w[0].0)
        .collect();
    assert!(
        per_round.len() >= 200,
        "only {} rounds saw a backlog of 3,000",
        per_round.len()
    );
    per_round.sort_unstable();
    let median = per_round[per_round.len() / 2];
    // One pointer per queued job would be at least 24,000 bytes.
    assert!(
        median < 3_000,
        "a round allocated a median {median} bytes over a backlog of 3,000+"
    );
}
