//! Fluid flows and rate allocation.
//!
//! A *flow* is a stream of bytes a process moves through a shared resource
//! (in this system: an Optane PMEM device). Instead of simulating every
//! object-sized operation as a discrete event — which for the paper's 2 KB
//! workloads would mean hundreds of millions of events — the engine treats a
//! rank's whole I/O phase as a fluid with a byte total and a *rate* that is
//! recomputed whenever the set of concurrent flows changes. Between set
//! changes, rates are constant, so progress is exact, not approximate.
//!
//! Per-operation software cost (system calls, journaling, metadata updates)
//! and device access latency are folded into the flow as
//! [`FlowAttrs::sw_time_per_byte`]: the CPU seconds the issuing rank spends
//! per byte *outside* the device. The allocator uses it to derive the flow's
//! device *duty cycle* — a rank that spends most of each operation in
//! software only occupies the device for a fraction of the time, which is
//! exactly the paper's "high software stack I/O overheads lower PMEM
//! contention" effect (§VIII).

/// Direction of a flow with respect to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Direction {
    /// Load from the device into DRAM.
    Read,
    /// Store from DRAM into the device.
    Write,
}

impl Direction {
    /// Short label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            Direction::Read => "R",
            Direction::Write => "W",
        }
    }
}

/// NUMA locality of the issuing rank with respect to the device.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Locality {
    /// The rank is pinned to the socket the device is attached to.
    Local,
    /// The rank reaches the device across the inter-socket interconnect.
    Remote,
}

impl Locality {
    /// Short label used in traces and reports.
    pub fn label(self) -> &'static str {
        match self {
            Locality::Local => "loc",
            Locality::Remote => "rem",
        }
    }
}

/// Static description of a flow, consumed by the [`RateAllocator`].
///
/// These attributes are the complete set of knobs the paper identifies as
/// determining a workflow component's sensitivity to PMEM behaviour (§IV-A):
/// direction and locality of the access, the object granularity, and the
/// software overhead per operation.
#[derive(Debug, Clone, Copy)]
pub struct FlowAttrs {
    /// Read or write.
    pub direction: Direction,
    /// Local or remote relative to the device's socket.
    pub locality: Locality,
    /// Size of each application object moved by this flow, in bytes.
    /// Determines the stripe/granularity efficiency of the device.
    pub access_bytes: u64,
    /// CPU seconds spent per byte outside the device (software stack cost +
    /// per-operation access latency, amortized over the object size).
    pub sw_time_per_byte: f64,
    /// Upper bound on the *device* bandwidth a single thread can draw for
    /// this class of access, in bytes/second.
    pub peak_device_rate: f64,
}

impl FlowAttrs {
    /// The flow's *intrinsic* end-to-end rate if the device were idle:
    /// the harmonic combination of software time and device transfer time.
    /// This is the cap the allocator may never exceed.
    #[inline]
    pub fn intrinsic_rate(&self) -> f64 {
        debug_assert!(self.peak_device_rate > 0.0);
        1.0 / (self.sw_time_per_byte + 1.0 / self.peak_device_rate)
    }

    /// Fraction of wall time this flow occupies the device when progressing
    /// at end-to-end rate `rate` (bytes/s). 1.0 means the rank is always on
    /// the device; small values mean software dominates.
    #[inline]
    pub fn duty_cycle(&self, rate: f64) -> f64 {
        (1.0 - rate * self.sw_time_per_byte).clamp(0.0, 1.0)
    }
}

/// A flow's class: every [`FlowAttrs`] field, floats by bits. Flows of one
/// class are interchangeable to an allocator. The derived order, field by
/// field (reads before writes, local before remote, then access size,
/// software cost and peak rate), is the canonical class order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowClass {
    write: bool,
    remote: bool,
    access_bytes: u64,
    sw_time_per_byte: u64,
    peak_device_rate: u64,
}

impl FlowClass {
    /// The class of a flow with attributes `a`.
    #[inline]
    pub fn of(a: &FlowAttrs) -> Self {
        Self {
            write: a.direction == Direction::Write,
            remote: a.locality == Locality::Remote,
            access_bytes: a.access_bytes,
            sw_time_per_byte: a.sw_time_per_byte.to_bits(),
            peak_device_rate: a.peak_device_rate.to_bits(),
        }
    }
}

/// One class of the live flows on a resource, visible to the allocator.
///
/// `id` names the class for the allocator's whole life: two views with
/// one id always carry the same [`FlowClass`]. One class may appear under
/// several ids, which costs an allocator that keys on ids nothing but
/// cache hits. The engine numbers a resource's classes in the order they
/// first appear and never reuses a number.
#[derive(Debug, Clone, Copy)]
pub struct ClassView {
    /// The class's id, stable for the allocator's life.
    pub id: u32,
    /// Attributes every flow of the class shares.
    pub attrs: FlowAttrs,
    /// Number of live flows of the class; always positive.
    pub count: usize,
}

/// Identifier of a flow within the engine.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub(crate) struct FlowId(pub(crate) u64);

/// A rate-allocation policy for one shared resource.
///
/// Implementations receive the live flows grouped by class: one
/// [`ClassView`] per class, in ascending [`FlowClass`] order, each with a
/// positive count and an id that names that class and no other for as
/// long as the allocator lives, so an allocator may key a cache on ids
/// instead of attributes. They write an **end-to-end** rate (bytes/s, software
/// time included) per flow into `rates`, class-major: the first class's
/// `count` slots, then the next class's. The engine owns both slices,
/// `classes` is non-empty and `rates` holds Σ `count` slots. The k-th live
/// flow of a class, in submission order, runs at that class's k-th slot.
/// Rates must be strictly positive and no larger than each flow's
/// [`FlowAttrs::intrinsic_rate`]; the engine clamps violations defensively
/// but relies on allocators for model fidelity. `&mut self` lets an
/// allocator keep scratch space or a memo across calls; the engine gives
/// each resource its own allocator.
pub trait RateAllocator: Send {
    /// Compute class-major rates for the current class set into `rates`.
    fn allocate(&mut self, classes: &[ClassView], rates: &mut [f64]);

    /// A human-readable name for traces and reports.
    fn name(&self) -> &str {
        "allocator"
    }
}

/// Trivial allocator: every flow gets its intrinsic (uncontended) rate.
/// Useful for tests and as the "infinite device" baseline.
#[derive(Debug, Default, Clone)]
pub struct UncontendedAllocator;

impl RateAllocator for UncontendedAllocator {
    fn allocate(&mut self, classes: &[ClassView], rates: &mut [f64]) {
        let mut slots = rates.iter_mut();
        for c in classes {
            let r = c.attrs.intrinsic_rate();
            slots.by_ref().take(c.count).for_each(|slot| *slot = r);
        }
    }

    fn name(&self) -> &str {
        "uncontended"
    }
}

/// Equal-share allocator over a fixed aggregate capacity (bytes/s).
/// A deliberately simple processor-sharing model used in tests and as an
/// ablation baseline against the full Optane allocator.
#[derive(Debug, Clone)]
pub struct FairShareAllocator {
    /// Aggregate capacity in bytes/second.
    pub capacity: f64,
    caps: Vec<f64>,
    order: Vec<usize>,
}

impl FairShareAllocator {
    /// Create an allocator with `capacity` bytes/second total.
    pub fn new(capacity: f64) -> Self {
        assert!(capacity > 0.0, "capacity must be positive");
        Self {
            capacity,
            caps: Vec::new(),
            order: Vec::new(),
        }
    }
}

impl RateAllocator for FairShareAllocator {
    fn allocate(&mut self, classes: &[ClassView], rates: &mut [f64]) {
        // Max-min fair (water-filling) against per-flow intrinsic caps.
        self.caps.clear();
        for c in classes {
            let cap = c.attrs.intrinsic_rate();
            self.caps.extend(std::iter::repeat_n(cap, c.count));
        }
        water_fill(&self.caps, self.capacity, &mut self.order, rates);
    }

    fn name(&self) -> &str {
        "fair-share"
    }
}

/// Max-min fair allocation of `capacity` across flows with `caps`, written
/// into `rates` (same length as `caps`). `order` is caller-owned scratch.
///
/// Classic water-filling: repeatedly give every unfrozen flow an equal share;
/// flows whose cap is below the share are frozen at their cap and the slack
/// is redistributed. Flows are visited in ascending cap order, ties by
/// index. Runs in `O(n log n)` and does not allocate once `order` has grown
/// to `caps.len()`.
pub fn water_fill(caps: &[f64], capacity: f64, order: &mut Vec<usize>, rates: &mut [f64]) {
    assert_eq!(caps.len(), rates.len(), "one rate per cap");
    order.clear();
    order.extend(0..caps.len());
    order.sort_unstable_by(|&a, &b| caps[a].total_cmp(&caps[b]).then(a.cmp(&b)));
    let mut left = capacity.max(0.0);
    let mut remaining = caps.len();
    for &i in order.iter() {
        let share = left / remaining as f64;
        let r = caps[i].min(share).max(0.0);
        rates[i] = r;
        left = (left - r).max(0.0);
        remaining -= 1;
    }
}

/// Internal state of a live flow.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ActiveFlow {
    pub id: FlowId,
    pub owner: crate::process::ProcessId,
    /// Index of the flow's class in its resource's class table, which
    /// holds the flow's attributes.
    pub class: u32,
    /// The flow's slot in its resource's per-(direction, locality) byte
    /// counters.
    pub bytes_slot: u8,
    pub total: f64,
    pub remaining: f64,
    pub rate: f64,
}

// A flow stays within 48 bytes: settling and scattering walk every live
// flow of a resource at each event.
const _: () = assert!(std::mem::size_of::<ActiveFlow>() == 48);

#[cfg(test)]
mod tests {
    use super::*;

    fn attrs(sw_tpb: f64, peak: f64) -> FlowAttrs {
        FlowAttrs {
            direction: Direction::Write,
            locality: Locality::Local,
            access_bytes: 64 << 20,
            sw_time_per_byte: sw_tpb,
            peak_device_rate: peak,
        }
    }

    #[test]
    fn intrinsic_rate_is_harmonic() {
        // 1 GB/s device, software adds another 1s per GB -> 0.5 GB/s.
        let a = attrs(1e-9, 1e9);
        assert!((a.intrinsic_rate() - 0.5e9).abs() < 1.0);
    }

    #[test]
    fn duty_cycle_limits() {
        let a = attrs(0.0, 1e9);
        assert_eq!(a.duty_cycle(1e9), 1.0);
        let b = attrs(1e-9, 1e9);
        // At the intrinsic rate, half the time is software.
        let d = b.duty_cycle(b.intrinsic_rate());
        assert!((d - 0.5).abs() < 1e-9);
    }

    fn fill(caps: &[f64], capacity: f64) -> Vec<f64> {
        let mut rates = vec![f64::NAN; caps.len()];
        water_fill(caps, capacity, &mut Vec::new(), &mut rates);
        rates
    }

    #[test]
    fn water_fill_even_split() {
        for r in fill(&[10.0, 10.0, 10.0], 9.0) {
            assert!((r - 3.0).abs() < 1e-12);
        }
    }

    #[test]
    fn water_fill_respects_caps() {
        let rates = fill(&[1.0, 10.0], 8.0);
        assert!((rates[0] - 1.0).abs() < 1e-12);
        assert!((rates[1] - 7.0).abs() < 1e-12);
    }

    #[test]
    fn water_fill_caps_below_capacity() {
        assert_eq!(fill(&[1.0, 2.0], 100.0), vec![1.0, 2.0]);
    }

    #[test]
    fn water_fill_empty() {
        assert!(fill(&[], 5.0).is_empty());
    }

    #[test]
    fn water_fill_conserves_capacity() {
        let caps = [3.0, 5.0, 0.5, 9.0, 2.0];
        let rates = fill(&caps, 10.0);
        let total: f64 = rates.iter().sum();
        assert!(total <= 10.0 + 1e-9);
        // Capacity is scarce, so it should be fully used.
        assert!(total > 10.0 - 1e-9);
        for (r, c) in rates.iter().zip(caps.iter()) {
            assert!(*r <= c + 1e-12);
        }
    }

    #[test]
    fn water_fill_reuses_dirty_scratch() {
        // Leftover scratch from a larger call must not leak into a smaller one.
        let mut order = vec![7, 3, 9, 1];
        let mut rates = [0.0; 2];
        water_fill(&[4.0, 1.0], 3.0, &mut order, &mut rates);
        assert_eq!(rates, [2.0, 1.0]);
    }

    #[test]
    fn fair_share_allocator_splits() {
        let mut alloc = FairShareAllocator::new(10e9);
        let c = ClassView {
            id: 0,
            attrs: attrs(0.0, 100e9),
            count: 2,
        };
        let mut rates = [0.0; 2];
        alloc.allocate(&[c], &mut rates);
        assert!((rates[0] - 5e9).abs() < 1.0);
        assert_eq!(rates[0], rates[1]);
    }

    #[test]
    fn uncontended_allocator_gives_intrinsic() {
        let (a, b) = (attrs(1e-9, 1e9), attrs(0.0, 2e9));
        let mut rates = [0.0; 3];
        let view = |id, attrs, count| ClassView { id, attrs, count };
        UncontendedAllocator.allocate(&[view(0, a, 1), view(1, b, 2)], &mut rates);
        assert_eq!(
            rates,
            [a.intrinsic_rate(), b.intrinsic_rate(), b.intrinsic_rate()]
        );
    }
}
