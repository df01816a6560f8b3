//! Integer-tick hashed timer wheel for connection deadlines.
//!
//! The reactor's timers are coarse by design — read deadlines and
//! request deadlines in the hundreds of milliseconds — so a classic
//! hashed wheel at ~10ms ticks is exact enough and O(1) per operation:
//! an entry lands in slot `deadline % slots` and fires when
//! [`TimerWheel::advance`] sweeps past its tick. Entries are *not*
//! individually cancellable; callers carry a generation stamp in `T` and
//! ignore stale firings (the standard cheap-cancel idiom).

/// A hashed timer wheel over integer ticks.
pub struct TimerWheel<T> {
    slots: Vec<Vec<Entry<T>>>,
    /// Every entry with `deadline <= tick` has fired.
    tick: u64,
    len: usize,
}

struct Entry<T> {
    deadline: u64,
    item: T,
}

impl<T> TimerWheel<T> {
    /// A wheel of `slots` buckets (rounded up to a power of two),
    /// starting at tick 0.
    pub fn new(slots: usize) -> TimerWheel<T> {
        let slots = slots.max(2).next_power_of_two();
        TimerWheel {
            slots: (0..slots).map(|_| Vec::new()).collect(),
            tick: 0,
            len: 0,
        }
    }

    /// Pending entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether any timers are pending.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The current tick (everything at or before it has fired).
    pub fn now(&self) -> u64 {
        self.tick
    }

    /// Schedule `item` to fire when [`TimerWheel::advance`] reaches
    /// `deadline`. A deadline at or before the current tick fires on the
    /// very next advance.
    pub fn schedule(&mut self, deadline: u64, item: T) {
        let deadline = deadline.max(self.tick + 1);
        let slot = (deadline % self.slots.len() as u64) as usize;
        self.slots[slot].push(Entry { deadline, item });
        self.len += 1;
    }

    /// Advance the wheel to `now`, handing every entry with
    /// `deadline <= now` to `fire` (within one slot, insertion order).
    pub fn advance(&mut self, now: u64, mut fire: impl FnMut(T)) {
        if now <= self.tick {
            return;
        }
        let nslots = self.slots.len() as u64;
        // Visiting more ticks than there are slots would re-scan buckets;
        // one full lap touches every entry exactly once.
        let first = self.tick + 1;
        let last = if now - self.tick >= nslots {
            first + nslots - 1
        } else {
            now
        };
        for t in first..=last {
            let slot = (t % nslots) as usize;
            let bucket = &mut self.slots[slot];
            let mut i = 0;
            while i < bucket.len() {
                if bucket[i].deadline <= now {
                    // swap_remove is O(1); within-slot order across laps
                    // is not part of the contract.
                    let entry = bucket.swap_remove(i);
                    self.len -= 1;
                    fire(entry.item);
                } else {
                    i += 1;
                }
            }
        }
        self.tick = now;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fires_at_its_tick_not_before() {
        let mut wheel = TimerWheel::new(8);
        wheel.schedule(5, "a");
        wheel.schedule(3, "b");
        let mut fired = Vec::new();
        wheel.advance(2, |t| fired.push(t));
        assert!(fired.is_empty());
        wheel.advance(3, |t| fired.push(t));
        assert_eq!(fired, ["b"]);
        wheel.advance(10, |t| fired.push(t));
        assert_eq!(fired, ["b", "a"]);
        assert!(wheel.is_empty());
    }

    #[test]
    fn far_deadlines_survive_whole_laps() {
        // 8 slots: a deadline 27 lands in slot 3 and must *not* fire when
        // the wheel sweeps tick 3 or 11 or 19.
        let mut wheel = TimerWheel::new(8);
        wheel.schedule(27, "far");
        let mut fired = Vec::new();
        for now in [3, 11, 19, 26] {
            wheel.advance(now, |t| fired.push(t));
            assert!(fired.is_empty(), "fired early at tick {now}");
        }
        wheel.advance(27, |t| fired.push(t));
        assert_eq!(fired, ["far"]);
    }

    #[test]
    fn a_huge_jump_fires_everything_once() {
        let mut wheel = TimerWheel::new(8);
        for d in 1..=40u64 {
            wheel.schedule(d, d);
        }
        let mut fired = Vec::new();
        // Jump 100 ticks (many laps) in one advance.
        wheel.advance(100, |t| fired.push(t));
        fired.sort_unstable();
        assert_eq!(fired, (1..=40).collect::<Vec<_>>());
        assert!(wheel.is_empty());
        // Nothing double-fires on later advances.
        wheel.advance(200, |_| panic!("wheel must be empty"));
    }

    #[test]
    fn past_deadlines_fire_next_advance() {
        let mut wheel = TimerWheel::new(8);
        wheel.advance(10, |_: ()| {});
        wheel.schedule(4, ()); // already in the past: clamped to tick 11
        let mut fired = 0;
        wheel.advance(11, |_| fired += 1);
        assert_eq!(fired, 1);
    }

    /// Property: against a `BTreeMap` reference model, a random schedule
    /// of deadlines and random advance jumps fires exactly the right
    /// multiset of items at exactly the right ticks — nothing early,
    /// nothing lost, nothing doubled, across whole-lap jumps and clamped
    /// past-deadlines.
    #[test]
    fn wheel_matches_reference_model_under_random_schedules() {
        let mut rng = crate::rng::Sm64(0x7157_0001_u64);
        let mut next = move || rng.next_u64();
        for slots in [2usize, 8, 16] {
            let mut wheel = TimerWheel::new(slots);
            // deadline -> ids, mirroring the wheel's clamp rule.
            let mut model: std::collections::BTreeMap<u64, Vec<u64>> = Default::default();
            let mut serial = 0u64;
            for _ in 0..4_000 {
                match next() % 10 {
                    0..=5 => {
                        // Mix of near, far (multi-lap), and past deadlines.
                        let d = match next() % 3 {
                            0 => wheel.now() + 1 + next() % 4,
                            1 => wheel.now() + next() % (4 * slots as u64 + 7),
                            _ => (next() % (wheel.now() + 2)).saturating_sub(1),
                        };
                        let clamped = d.max(wheel.now() + 1);
                        wheel.schedule(d, serial);
                        model.entry(clamped).or_default().push(serial);
                        serial += 1;
                    }
                    _ => {
                        let jump = 1 + next() % (2 * slots as u64 + 3);
                        let now = wheel.now() + jump;
                        let mut fired = Vec::new();
                        wheel.advance(now, |id| fired.push(id));
                        let mut expected: Vec<u64> = Vec::new();
                        let keep = model.split_off(&(now + 1));
                        for (_, ids) in std::mem::replace(&mut model, keep) {
                            expected.extend(ids);
                        }
                        fired.sort_unstable();
                        expected.sort_unstable();
                        assert_eq!(fired, expected, "slots={slots} now={now}");
                        assert_eq!(wheel.len(), model.values().map(Vec::len).sum::<usize>());
                    }
                }
            }
        }
    }

    /// The documented cheap-cancel idiom under its two race conditions:
    /// cancel-after-fire (the timer fired, then the caller "cancelled" —
    /// the stale firing must be ignorable, and a later re-arm must not be
    /// killed by the old cancellation) and re-arm-before-fire (the old
    /// entry still in the wheel must not fire the new arm's action).
    #[test]
    fn generation_stamps_survive_cancel_after_fire_and_rearm_races() {
        #[derive(Default)]
        struct Conn {
            armed_gen: u64,
            fired: Vec<u64>,
        }
        let mut wheel: TimerWheel<(usize, u64)> = TimerWheel::new(8);
        // Arm gen 1 at tick 5; it fires; then the caller cancels (bump
        // to gen 2) *after* the firing already happened.
        let mut conn = Conn {
            armed_gen: 1,
            ..Default::default()
        };
        wheel.schedule(5, (0, conn.armed_gen));
        let mut fired = Vec::new();
        wheel.advance(5, |t| fired.push(t));
        assert_eq!(fired, [(0, 1)]);
        conn.armed_gen = 2; // the late cancel
        for (_, gen) in fired.drain(..) {
            if gen == conn.armed_gen {
                conn.fired.push(gen);
            }
        }
        assert!(conn.fired.is_empty(), "stale firing ignored after cancel");

        // Re-arm as gen 3 at tick 9 — but the "cancelled" gen-2 entry is
        // also still sitting in the wheel at tick 8 (cancel is lazy).
        wheel.schedule(8, (0, 2));
        conn.armed_gen = 3;
        wheel.schedule(9, (0, conn.armed_gen));
        wheel.advance(8, |t| fired.push(t));
        for (_, gen) in fired.drain(..) {
            if gen == conn.armed_gen {
                conn.fired.push(gen);
            }
        }
        assert!(conn.fired.is_empty(), "lazily-cancelled arm must not act");
        wheel.advance(9, |t| fired.push(t));
        for (_, gen) in fired.drain(..) {
            if gen == conn.armed_gen {
                conn.fired.push(gen);
            }
        }
        assert_eq!(conn.fired, [3], "the live arm fires exactly once");
        assert!(wheel.is_empty());

        // Rapid re-arm churn: only the newest generation ever acts, no
        // matter how many stale entries pile into one bucket.
        let mut acted = 0;
        for gen in 4..20u64 {
            conn.armed_gen = gen;
            wheel.schedule(12, (0, gen));
        }
        wheel.advance(20, |(_, gen)| {
            if gen == conn.armed_gen {
                acted += 1;
            }
        });
        assert_eq!(acted, 1, "exactly one live arm among 16 stale ones");
    }
}
