//! Dense-slot struct-of-arrays storage for monitored streams.
//!
//! A fleet-scale [`crate::ProcessSet`] answers two very different kinds
//! of questions: the *apply* path (one heartbeat → one detector update)
//! and the *scan* path (`counts`, `statuses`, `suspected` — the obs
//! gauges walk every stream). Storing 256-byte [`crate::AnyDetector`]
//! entries in a `HashMap` serves both badly: every scan chases hash
//! buckets across the heap and drags whole detectors through the cache
//! to read one comparison's worth of state.
//!
//! [`StreamSlab`] splits the state by temperature:
//!
//! * **hot** — one [`HotSlot`] (24 bytes) per stream: `trust_until`,
//!   last sequence, a generation counter and status flags. Everything a
//!   scan or an expiry check needs, in a dense parallel array a scan
//!   walks at cache-line speed.
//! * **cold** — the detector itself and the stream key, in parallel
//!   arrays touched only by the apply path (detector) or when
//!   materializing results (key).
//!
//! Keys are interned to dense `u32` slots at registration; slots are
//! recycled through a free list, and each recycle bumps the slot's
//! *generation* so stale references (e.g. timing-wheel entries queued
//! for a deregistered stream — see [`crate::wheel`]) can never alias a
//! new occupant, even one with a coincidentally equal horizon.
//!
//! The hot mirror is exact because every detector in the suite derives
//! its output via the default [`crate::FailureDetector::output_at`] —
//! `Trust` iff `t < trust_until` — so `HotSlot::output_at` is the same
//! function over mirrored state. The wheel-vs-heap differential suite in
//! `tests/shard_equivalence.rs` cross-checks this against detector-side
//! outputs on random traces.

use std::collections::HashMap;
use std::hash::Hash;
use twofd_sim::time::Nanos;

use crate::detector::FdOutput;

/// Slot flag: the slot holds a registered stream.
const OCCUPIED: u8 = 1;
/// Slot flag: at least one fresh heartbeat was processed
/// (`trust_until` is meaningful).
const HAS_DECISION: u8 = 1 << 1;
/// Slot flag: `last_seq` is meaningful.
const HAS_SEQ: u8 = 1 << 2;
/// Slot flag: the last published transition was `Trust`.
const PUBLISHED_TRUST: u8 = 1 << 3;

/// How far the generation counter is shifted inside the packed
/// `gen_flags` word (the low byte holds the status flags).
const GEN_SHIFT: u32 = 8;

/// The hot per-stream state: everything scans and expiry checks read,
/// packed into 24 bytes so a cache line holds more than two streams.
/// The generation counter and the status flags share one `u32` (flags
/// in the low byte, a 24-bit generation above them) to make room for
/// the crash-recovery incarnation without growing the slot.
#[derive(Debug, Clone, Copy)]
pub struct HotSlot {
    /// Mirror of the current decision's `trust_until` (valid iff
    /// `HAS_DECISION`).
    trust_until: Nanos,
    /// Mirror of the detector's largest seen sequence number (valid iff
    /// `HAS_SEQ`).
    last_seq: u64,
    /// Low byte: `OCCUPIED | HAS_DECISION | HAS_SEQ | PUBLISHED_TRUST`.
    /// High 24 bits: generation, bumped (wrapping) every time the slot
    /// is vacated; guards recycled slots against stale references.
    gen_flags: u32,
    /// The stream's current incarnation (boot counter). A heartbeat
    /// with a higher incarnation resets the stream — see
    /// [`crate::ProcessSet::on_heartbeat_incarnated`].
    incarnation: u32,
}

impl HotSlot {
    const VACANT: HotSlot = HotSlot {
        trust_until: Nanos::ZERO,
        last_seq: 0,
        gen_flags: 0,
        incarnation: 0,
    };

    fn flags(&self) -> u8 {
        (self.gen_flags & 0xFF) as u8
    }

    fn set_flags(&mut self, flags: u8) {
        self.gen_flags = (self.gen_flags & !0xFF) | u32::from(flags);
    }

    /// Whether the slot currently holds a stream.
    fn occupied(&self) -> bool {
        self.flags() & OCCUPIED != 0
    }

    /// The slot's current generation (24-bit, wrapping).
    pub fn gen(&self) -> u32 {
        self.gen_flags >> GEN_SHIFT
    }

    /// The stream's current incarnation (0 until a heartbeat carries a
    /// higher one).
    pub fn incarnation(&self) -> u32 {
        self.incarnation
    }

    /// Records the stream's incarnation.
    pub fn set_incarnation(&mut self, incarnation: u32) {
        self.incarnation = incarnation;
    }

    /// The stream's current trust horizon, if any fresh heartbeat was
    /// processed.
    pub fn trust_until(&self) -> Option<Nanos> {
        (self.flags() & HAS_DECISION != 0).then_some(self.trust_until)
    }

    /// Largest heartbeat sequence number seen, if any.
    pub fn last_seq(&self) -> Option<u64> {
        (self.flags() & HAS_SEQ != 0).then_some(self.last_seq)
    }

    /// The stream's output at `t` — identical to the detector suite's
    /// default [`crate::FailureDetector::output_at`], computed from hot
    /// state alone.
    pub fn output_at(&self, t: Nanos) -> FdOutput {
        if self.flags() & HAS_DECISION != 0 && t < self.trust_until {
            FdOutput::Trust
        } else {
            FdOutput::Suspect
        }
    }

    /// Whether the last published transition for this stream was `Trust`.
    pub fn published_trust(&self) -> bool {
        self.flags() & PUBLISHED_TRUST != 0
    }

    /// Records the last published transition.
    pub fn set_published(&mut self, trust: bool) {
        let flags = if trust {
            self.flags() | PUBLISHED_TRUST
        } else {
            self.flags() & !PUBLISHED_TRUST
        };
        self.set_flags(flags);
    }

    /// Mirrors a fresh decision's trust horizon.
    pub fn set_decision(&mut self, trust_until: Nanos) {
        self.trust_until = trust_until;
        self.set_flags(self.flags() | HAS_DECISION);
    }

    /// Mirrors the detector's last-seen sequence number.
    pub fn set_seq(&mut self, seq: u64) {
        self.last_seq = seq;
        self.set_flags(self.flags() | HAS_SEQ);
    }

    /// Clears the decision/sequence mirrors (and the incarnation-free
    /// published bit is left untouched) when a higher incarnation
    /// resets the stream's detector: the fresh detector has seen no
    /// heartbeat yet, so neither mirror is meaningful.
    fn reset_stream_state(&mut self) {
        self.trust_until = Nanos::ZERO;
        self.last_seq = 0;
        self.set_flags(self.flags() & !(HAS_DECISION | HAS_SEQ));
    }
}

/// Interns stream keys to dense `u32` slots and stores their state as
/// parallel hot/cold arrays. See the module docs for the layout.
pub struct StreamSlab<K, D> {
    /// Key → slot lookup (apply-path entry point).
    index: HashMap<K, u32>,
    /// Hot parallel array — the only thing scans touch.
    hot: Vec<HotSlot>,
    /// Cold: the interned key per slot (`None` when vacant).
    keys: Vec<Option<K>>,
    /// Cold: the detector per slot (`None` when vacant).
    detectors: Vec<Option<D>>,
    /// Vacated slots available for reuse.
    free: Vec<u32>,
    /// Number of occupied slots.
    live: usize,
}

impl<K, D> StreamSlab<K, D>
where
    K: Eq + Hash + Clone,
{
    /// An empty slab.
    //
    // hotpath:allow(alloc) — construction path: `new` runs once per
    // shard at startup, never per heartbeat. `Vec::new` here is the
    // deliberate empty state; growth is amortised by `register`, which
    // is control-plane, not the apply/sweep path.
    pub fn new() -> Self {
        StreamSlab {
            index: HashMap::new(),
            hot: Vec::new(),
            keys: Vec::new(),
            detectors: Vec::new(),
            free: Vec::new(),
            live: 0,
        }
    }

    /// Number of registered streams.
    pub fn len(&self) -> usize {
        self.live
    }

    /// True when no stream is registered.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// Total slots allocated (occupied + free-listed). Churn
    /// (deregister/re-register cycles) must not grow this: recycled
    /// slots are reused before new ones are minted.
    pub fn capacity(&self) -> usize {
        self.hot.len()
    }

    /// The slot a key is interned at, if registered.
    pub fn slot_of(&self, key: &K) -> Option<u32> {
        self.index.get(key).copied()
    }

    /// Interns `key`, building its detector with `build` if it is not
    /// yet registered, and returns its dense slot. Re-interning an
    /// existing key is a no-op returning the existing slot — state is
    /// preserved and no storage is duplicated.
    pub fn intern_with(&mut self, key: K, build: impl FnOnce(&K) -> D) -> u32 {
        if let Some(&slot) = self.index.get(&key) {
            return slot;
        }
        let fd = build(&key);
        let slot = match self.free.pop() {
            Some(slot) => {
                let i = slot as usize;
                // The generation was already bumped when the slot was
                // vacated.
                self.hot[i].set_flags(OCCUPIED);
                self.keys[i] = Some(key.clone());
                self.detectors[i] = Some(fd);
                slot
            }
            None => {
                // hotpath:allow(panic) — unreachable by capacity math:
                // 2^32 slots would need >170 GiB of hot+cold state per
                // shard, far past the 1M-streams-per-shard design
                // ceiling; and `register` is control-plane, not the
                // per-heartbeat apply path.
                let slot = u32::try_from(self.hot.len()).expect("more than u32::MAX streams");
                let mut h = HotSlot::VACANT;
                h.set_flags(OCCUPIED);
                self.hot.push(h);
                self.keys.push(Some(key.clone()));
                self.detectors.push(Some(fd));
                slot
            }
        };
        self.index.insert(key, slot);
        self.live += 1;
        slot
    }

    /// Vacates `key`'s slot: drops the detector, bumps the generation
    /// (so queued wheel entries can never alias the next occupant) and
    /// recycles the slot. Returns the vacated slot.
    pub fn remove(&mut self, key: &K) -> Option<u32> {
        let slot = self.index.remove(key)?;
        let i = slot as usize;
        self.keys[i] = None;
        self.detectors[i] = None;
        let h = &mut self.hot[i];
        *h = HotSlot {
            gen_flags: h.gen().wrapping_add(1) << GEN_SHIFT,
            ..HotSlot::VACANT
        };
        self.free.push(slot);
        self.live -= 1;
        Some(slot)
    }

    /// Replaces the detector of an occupied `slot` with a freshly built
    /// one and clears the slot's decision/sequence mirrors — the
    /// crash-recovery reset: a higher incarnation means the old
    /// detector's sampled history describes a dead boot. The slot, its
    /// key, its generation and its published state are all preserved
    /// (the *stream* did not churn; its process restarted).
    pub fn reset_detector(&mut self, slot: u32, build: impl FnOnce(&K) -> D) {
        let i = slot as usize;
        // hotpath:allow(panic) — invariant, not input: callers resolve
        // `slot` through the live `index` map immediately before this
        // call, so a vacant slot here means slab corruption; crashing
        // loudly beats silently resetting someone else's stream.
        let key = self.keys[i].as_ref().expect("reset on vacant slot");
        self.detectors[i] = Some(build(key));
        self.hot[i].reset_stream_state();
    }

    /// The hot state of `slot` (must be in bounds).
    pub fn hot(&self, slot: u32) -> &HotSlot {
        &self.hot[slot as usize]
    }

    /// Disjoint mutable access for the apply path: the hot mirror, the
    /// detector and the interned key of an occupied `slot`.
    pub fn apply(&mut self, slot: u32) -> (&mut HotSlot, &mut D, &K) {
        let i = slot as usize;
        // hotpath:allow(panic) — invariant, not input: the worker only
        // calls `apply` for slots it resolved via the index or whose
        // `(slot, gen)` reference passed `entry_is_current`, both of
        // which imply OCCUPIED. A vacant slot here is slab corruption;
        // fail-stop is the correct reaction (DESIGN.md §17).
        (
            &mut self.hot[i],
            self.detectors[i].as_mut().expect("apply on vacant slot"),
            self.keys[i].as_ref().expect("apply on vacant slot"),
        )
    }

    /// Whether a `(slot, gen, deadline)` reference still describes a
    /// registered stream whose *current* trust horizon is `deadline` —
    /// the timing wheel's liveness predicate.
    pub fn entry_is_live(&self, slot: u32, gen: u32, deadline: Nanos) -> bool {
        match self.hot.get(slot as usize) {
            Some(h) => h.occupied() && h.gen() == gen && h.trust_until() == Some(deadline),
            None => false,
        }
    }

    /// Publishes the expiry of a harvested wheel entry: if the entry is
    /// still live (see [`StreamSlab::entry_is_live`]) and the stream's
    /// last published transition was `Trust`, flips it to `Suspect` and
    /// returns the key to stamp the event with.
    pub fn publish_expiry(&mut self, slot: u32, gen: u32, deadline: Nanos) -> Option<&K> {
        if !self.entry_is_live(slot, gen, deadline) || !self.hot[slot as usize].published_trust() {
            return None;
        }
        self.hot[slot as usize].set_published(false);
        self.keys[slot as usize].as_ref()
    }

    /// Calls `f` for every registered stream's key and hot state.
    pub fn for_each(&self, mut f: impl FnMut(&K, &HotSlot)) {
        for (h, k) in self.hot.iter().zip(&self.keys) {
            if let Some(k) = k {
                f(k, h);
            }
        }
    }

    /// Calls `f` for every registered stream's hot state — the pure
    /// scan path: no key, no detector, just the dense hot array.
    pub fn for_each_hot(&self, mut f: impl FnMut(&HotSlot)) {
        for h in &self.hot {
            if h.occupied() {
                f(h);
            }
        }
    }
}

impl<K, D> Default for StreamSlab<K, D>
where
    K: Eq + Hash + Clone,
{
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn slab() -> StreamSlab<u64, &'static str> {
        StreamSlab::new()
    }

    #[test]
    fn hot_slot_is_compact() {
        assert!(
            std::mem::size_of::<HotSlot>() <= 24,
            "HotSlot grew past 24 bytes: {}",
            std::mem::size_of::<HotSlot>()
        );
    }

    #[test]
    fn interning_is_dense_and_idempotent() {
        let mut s = slab();
        let a = s.intern_with(100, |_| "a");
        let b = s.intern_with(200, |_| "b");
        assert_eq!((a, b), (0, 1));
        // Re-interning neither rebuilds nor reallocates.
        assert_eq!(s.intern_with(100, |_| panic!("rebuilt")), 0);
        assert_eq!(s.len(), 2);
        assert_eq!(s.capacity(), 2);
    }

    #[test]
    fn recycled_slots_bump_generation() {
        let mut s = slab();
        let a = s.intern_with(1, |_| "x");
        let g0 = s.hot(a).gen();
        assert_eq!(s.remove(&1), Some(a));
        let b = s.intern_with(2, |_| "y");
        assert_eq!(b, a, "the freed slot is reused");
        assert_eq!(s.hot(b).gen(), g0 + 1);
        assert_eq!(s.capacity(), 1, "no new slot was minted");
    }

    #[test]
    fn stale_references_are_dead_after_recycling() {
        let mut s = slab();
        let slot = s.intern_with(1, |_| "x");
        let (h, _, _) = s.apply(slot);
        h.set_decision(Nanos(500));
        let gen = s.hot(slot).gen();
        assert!(s.entry_is_live(slot, gen, Nanos(500)));
        s.remove(&1);
        s.intern_with(2, |_| "y");
        let (h, _, _) = s.apply(slot);
        h.set_decision(Nanos(500)); // coincidentally equal horizon
        assert!(
            !s.entry_is_live(slot, gen, Nanos(500)),
            "old-generation reference must not alias the new occupant"
        );
    }

    #[test]
    fn publish_expiry_fires_once_and_only_when_live() {
        let mut s = slab();
        let slot = s.intern_with(7, |_| "x");
        let gen = s.hot(slot).gen();
        let (h, _, _) = s.apply(slot);
        h.set_decision(Nanos(1000));
        h.set_published(true);
        // Superseded deadline: no publish.
        assert_eq!(s.publish_expiry(slot, gen, Nanos(900)), None);
        // Live: publishes exactly once.
        assert_eq!(s.publish_expiry(slot, gen, Nanos(1000)), Some(&7));
        assert_eq!(s.publish_expiry(slot, gen, Nanos(1000)), None);
    }

    #[test]
    fn reset_detector_clears_mirrors_but_keeps_slot_identity() {
        let mut s = slab();
        let slot = s.intern_with(9, |_| "old");
        let gen = s.hot(slot).gen();
        {
            let (h, _, _) = s.apply(slot);
            h.set_decision(Nanos(800));
            h.set_seq(42);
            h.set_published(true);
            h.set_incarnation(0);
        }
        s.reset_detector(slot, |_| "new");
        let h = *s.hot(slot);
        assert!(h.occupied());
        assert_eq!(h.gen(), gen, "reset is not churn: generation kept");
        assert_eq!(h.trust_until(), None);
        assert_eq!(h.last_seq(), None);
        assert!(
            h.published_trust(),
            "published state survives the reset so the Suspect synthesis stays exact"
        );
        let (_, fd, _) = s.apply(slot);
        assert_eq!(*fd, "new");
    }

    #[test]
    fn incarnation_and_generation_do_not_alias() {
        let mut s = slab();
        let slot = s.intern_with(1, |_| "x");
        {
            let (h, _, _) = s.apply(slot);
            h.set_incarnation(7);
        }
        let g0 = s.hot(slot).gen();
        assert_eq!(s.hot(slot).incarnation(), 7);
        s.remove(&1);
        let again = s.intern_with(1, |_| "x");
        assert_eq!(again, slot);
        assert_eq!(s.hot(slot).gen(), g0 + 1);
        assert_eq!(
            s.hot(slot).incarnation(),
            0,
            "a recycled slot starts at incarnation 0"
        );
    }

    #[test]
    fn scans_cover_exactly_the_occupied_slots() {
        let mut s = slab();
        s.intern_with(1, |_| "a");
        s.intern_with(2, |_| "b");
        s.intern_with(3, |_| "c");
        s.remove(&2);
        let mut keys = Vec::new();
        s.for_each(|k, _| keys.push(*k));
        keys.sort_unstable();
        assert_eq!(keys, vec![1, 3]);
        let mut n = 0;
        s.for_each_hot(|_| n += 1);
        assert_eq!(n, 2);
    }
}
