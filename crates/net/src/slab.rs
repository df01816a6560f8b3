//! A generation-stamped slab: stable integer keys for connection state.
//!
//! Tokens handed to the reactor must stay valid across arbitrary delays
//! (a worker finishes a job long after the client hung up and the fd
//! number was reused). Each slot carries a generation that bumps on
//! every removal, and a [`Key`] embeds both — a stale key simply misses.

/// A slab key: slot index plus the generation it was issued under.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Key(u64);

impl Key {
    /// Pack into / unpack from the `u64` reactor token space.
    pub fn to_u64(self) -> u64 {
        self.0
    }

    /// Rebuild a key from a reactor token.
    pub fn from_u64(raw: u64) -> Key {
        Key(raw)
    }

    fn new(index: u32, generation: u32) -> Key {
        Key((u64::from(generation) << 32) | u64::from(index))
    }

    fn index(self) -> usize {
        (self.0 & 0xffff_ffff) as usize
    }

    fn generation(self) -> u32 {
        (self.0 >> 32) as u32
    }
}

struct Slot<T> {
    generation: u32,
    value: Option<T>,
}

/// The slab itself.
pub struct Slab<T> {
    slots: Vec<Slot<T>>,
    free: Vec<u32>,
    len: usize,
}

impl<T> Default for Slab<T> {
    fn default() -> Self {
        Slab::new()
    }
}

impl<T> Slab<T> {
    /// An empty slab.
    pub fn new() -> Slab<T> {
        Slab {
            slots: Vec::new(),
            free: Vec::new(),
            len: 0,
        }
    }

    /// Live entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the slab is empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Insert, returning the key.
    pub fn insert(&mut self, value: T) -> Key {
        self.len += 1;
        if let Some(index) = self.free.pop() {
            let slot = &mut self.slots[index as usize];
            slot.value = Some(value);
            Key::new(index, slot.generation)
        } else {
            let index = self.slots.len() as u32;
            self.slots.push(Slot {
                generation: 0,
                value: Some(value),
            });
            Key::new(index, 0)
        }
    }

    /// Shared access; `None` if the key is stale or removed.
    pub fn get(&self, key: Key) -> Option<&T> {
        self.slots
            .get(key.index())
            .filter(|s| s.generation == key.generation())
            .and_then(|s| s.value.as_ref())
    }

    /// Exclusive access; `None` if the key is stale or removed.
    pub fn get_mut(&mut self, key: Key) -> Option<&mut T> {
        self.slots
            .get_mut(key.index())
            .filter(|s| s.generation == key.generation())
            .and_then(|s| s.value.as_mut())
    }

    /// Remove and return the value; `None` if stale/removed. The slot's
    /// generation bumps so outstanding keys to it go stale. A slot whose
    /// generation reaches `u32::MAX` is retired instead of freed:
    /// wrapping back to 0 would make the very first key ever issued for
    /// that index alias a future live entry.
    pub fn remove(&mut self, key: Key) -> Option<T> {
        let slot = self
            .slots
            .get_mut(key.index())
            .filter(|s| s.generation == key.generation())?;
        let value = slot.value.take()?;
        slot.generation = slot.generation.wrapping_add(1);
        if slot.generation != u32::MAX {
            self.free.push(key.index() as u32);
        }
        self.len -= 1;
        Some(value)
    }

    /// Drain every live entry (for forced shutdown).
    pub fn drain(&mut self) -> Vec<(Key, T)> {
        let mut out = Vec::with_capacity(self.len);
        for (i, slot) in self.slots.iter_mut().enumerate() {
            if let Some(value) = slot.value.take() {
                out.push((Key::new(i as u32, slot.generation), value));
                slot.generation = slot.generation.wrapping_add(1);
                // Same retirement rule as `remove`: never wrap to 0.
                if slot.generation != u32::MAX {
                    self.free.push(i as u32);
                }
            }
        }
        self.len = 0;
        out
    }

    /// Keys of every live entry (snapshot; safe to mutate during
    /// iteration of the returned list).
    pub fn keys(&self) -> Vec<Key> {
        self.slots
            .iter()
            .enumerate()
            .filter(|(_, s)| s.value.is_some())
            .map(|(i, s)| Key::new(i as u32, s.generation))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn insert_get_remove_roundtrip() {
        let mut slab = Slab::new();
        let a = slab.insert("a");
        let b = slab.insert("b");
        assert_eq!(slab.len(), 2);
        assert_eq!(slab.get(a), Some(&"a"));
        assert_eq!(slab.remove(a), Some("a"));
        assert_eq!(slab.get(a), None, "removed key must miss");
        assert_eq!(slab.remove(a), None, "double remove must miss");
        assert_eq!(slab.get(b), Some(&"b"));
    }

    #[test]
    fn reused_slot_invalidates_old_keys() {
        let mut slab = Slab::new();
        let old = slab.insert(1);
        slab.remove(old);
        let new = slab.insert(2);
        // Same slot index, different generation.
        assert_eq!(Key::from_u64(new.to_u64()).index(), old.index());
        assert_ne!(old, new);
        assert_eq!(slab.get(old), None, "stale key into a reused slot");
        assert_eq!(slab.get(new), Some(&2));
    }

    #[test]
    fn token_roundtrip_through_u64() {
        let mut slab = Slab::new();
        let k = slab.insert(7u8);
        assert_eq!(Key::from_u64(k.to_u64()), k);
    }

    #[test]
    fn drain_empties_and_invalidates() {
        let mut slab = Slab::new();
        let a = slab.insert(1);
        let _b = slab.insert(2);
        let drained = slab.drain();
        assert_eq!(drained.len(), 2);
        assert!(slab.is_empty());
        assert_eq!(slab.get(a), None);
    }

    #[test]
    fn generation_wraparound_retires_the_slot_instead_of_aliasing() {
        let mut slab = Slab::new();
        let first = slab.insert("first");
        slab.remove(first);
        // Fast-forward the slot to the edge of the generation space.
        slab.slots[0].generation = u32::MAX - 1;
        let last = slab.insert("last");
        assert_eq!(Key::from_u64(last.to_u64()).index(), 0);
        assert_eq!(slab.remove(last), Some("last"));
        // The slot is exhausted: the next insert must NOT reuse index 0,
        // because a wrapped generation would make `first` (index 0,
        // generation 0) alias it.
        let fresh = slab.insert("fresh");
        assert_ne!(
            Key::from_u64(fresh.to_u64()).index(),
            0,
            "exhausted slot was reused"
        );
        assert_eq!(slab.get(first), None, "pre-wrap key stays stale forever");
        assert_eq!(slab.get(last), None);
        assert_eq!(slab.get(fresh), Some(&"fresh"));
    }

    #[test]
    fn drain_also_retires_exhausted_slots() {
        let mut slab = Slab::new();
        let k = slab.insert(0u8);
        slab.remove(k);
        slab.slots[0].generation = u32::MAX - 1;
        let k = slab.insert(1u8);
        slab.drain();
        assert_eq!(slab.get(k), None);
        let fresh = slab.insert(2u8);
        assert_ne!(Key::from_u64(fresh.to_u64()).index(), 0);
    }

    /// Property: across a long random insert/remove/drain workload with
    /// adversarial generation fast-forwarding, a key that was ever
    /// removed (or drained) NEVER resolves again — stale keys cannot
    /// alias live entries. Model-checked against a plain map.
    #[test]
    fn stale_keys_never_alias_live_entries_under_random_churn() {
        let mut rng = crate::rng::Sm64(0x5eed_cafe_u64);
        let mut next = move || rng.next_u64();
        let mut slab: Slab<u64> = Slab::new();
        let mut live: std::collections::HashMap<u64, u64> = std::collections::HashMap::new();
        let mut dead: Vec<Key> = Vec::new();
        let mut serial = 0u64;
        for step in 0..20_000 {
            match next() % 100 {
                0..=49 => {
                    let key = slab.insert(serial);
                    live.insert(key.to_u64(), serial);
                    serial += 1;
                }
                50..=89 => {
                    if let Some(&raw) = live.keys().next() {
                        let key = Key::from_u64(raw);
                        let expect = live.remove(&raw);
                        assert_eq!(slab.remove(key), expect);
                        dead.push(key);
                    }
                }
                90..=95 => {
                    // Adversarial: push a random occupied slot near the
                    // generation cliff so wraparound is actually reached.
                    let n = slab.slots.len();
                    if n > 0 {
                        let i = (next() % n as u64) as usize;
                        if slab.slots[i].value.is_none() && !slab.free.contains(&(i as u32)) {
                            continue; // already retired: leave it
                        }
                        // Rewriting the generation invalidates existing
                        // keys for this slot in the model too. Real
                        // generations only move forward (every removal
                        // bumps), so the fast-forward must too.
                        let old_gen = slab.slots[i].generation;
                        let new_gen = u32::MAX - 1 - (next() % 2) as u32;
                        if new_gen <= old_gen {
                            continue;
                        }
                        if slab.slots[i].value.is_some() {
                            let raw = Key::new(i as u32, old_gen).to_u64();
                            if let Some(v) = live.remove(&raw) {
                                live.insert(Key::new(i as u32, new_gen).to_u64(), v);
                            }
                        }
                        slab.slots[i].generation = new_gen;
                    }
                }
                _ => {
                    for (raw, v) in &live {
                        assert_eq!(slab.get(Key::from_u64(*raw)), Some(v), "step {step}");
                    }
                    for key in &dead {
                        assert_eq!(slab.get(*key), None, "stale key aliased at step {step}");
                        assert_eq!(slab.get_mut(*key), None);
                    }
                }
            }
            assert_eq!(slab.len(), live.len(), "step {step}");
        }
        // Final sweep: every dead key stays dead.
        for key in dead {
            assert_eq!(slab.get(key), None);
        }
    }
}
