//! Hierarchical timing wheel for trust-horizon expiries.
//!
//! The lazy-deletion binary heap that [`crate::ProcessSet`] used to
//! schedule expiries costs `O(log n)` per fresh heartbeat and — worse at
//! fleet scale — scatters its entries across an ever-reordering array,
//! so every sweep and every `next_expiry` probe is a cache-miss chain.
//! This module replaces it with the classic hierarchical timing wheel
//! (Varghese & Lauck): `O(1)` insert, `O(1)` amortized advance, and
//! batched harvesting of everything that expired in a tick.
//!
//! ## Geometry
//!
//! Time is quantized into ticks of `2^20` ns (≈ 1.05 ms) — comparable to
//! the sharded monitor's minimum park and far below any realistic
//! heartbeat interval, so quantization never delays an expiry by more
//! than one park. Four levels of 64 slots each cover:
//!
//! | level | slot width | horizon |
//! |-------|------------|---------|
//! | 0     | 1 tick ≈ 1.05 ms   | ≈ 67 ms  |
//! | 1     | 64 ticks ≈ 67 ms   | ≈ 4.3 s  |
//! | 2     | 64² ticks ≈ 4.3 s  | ≈ 4.6 min|
//! | 3     | 64³ ticks ≈ 4.6 min| ≈ 4.9 h  |
//!
//! Deadlines beyond level 3 go to an unsorted overflow list that is
//! re-examined once per level-3 rotation. Deadlines in the current (or a
//! past) tick live in a `cur` list checked entry-by-entry, which keeps
//! the harvest *exact*: [`TimingWheel::advance`] emits precisely the
//! entries with `deadline < now`, never early, despite the coarse ticks.
//!
//! ## Staleness
//!
//! The wheel stores `(slot, gen, deadline)` triples and never removes an
//! entry when its stream is superseded or deregistered — exactly like
//! the lazy heap. The owner supplies an `is_live` predicate (in
//! [`crate::ProcessSet`]: *generation matches and `deadline` equals the
//! stream's current `trust_until`*) to [`TimingWheel::next_expiry_with`],
//! which prunes dead entries as it scans and therefore reports only live
//! horizons — the fix for the stale-horizon parking bug. A one-entry
//! cached minimum makes the common repeated probe `O(1)`.
//!
//! The wheel itself never reads a clock: all time comes in as [`Nanos`]
//! arguments, so it is deterministic under simulated and manual clocks.

use twofd_sim::time::Nanos;

/// Log2 of the tick width in nanoseconds: ticks of `2^20` ns ≈ 1.05 ms.
const TICK_SHIFT: u32 = 20;

/// Log2 of the slot count per level.
const LEVEL_BITS: u32 = 6;
/// Slots per level.
const SLOTS: usize = 1 << LEVEL_BITS;
/// Number of wheel levels (beyond them: the overflow list).
const LEVELS: usize = 4;
/// Slot-index mask within a level.
const MASK: u64 = (SLOTS as u64) - 1;

/// One scheduled expiry: a dense stream slot, the slot's generation at
/// scheduling time (guards against slot recycling), and the exact
/// nanosecond deadline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WheelEntry {
    /// Dense stream slot (see [`crate::slab::StreamSlab`]).
    pub slot: u32,
    /// Generation of the slot when the entry was scheduled.
    pub gen: u32,
    /// Exact trust horizon being scheduled.
    pub deadline: Nanos,
}

/// A four-level hierarchical timing wheel over [`WheelEntry`]s.
pub struct TimingWheel {
    /// Current tick (`now >> TICK_SHIFT` of the last `advance`).
    now_tick: u64,
    /// Flattened `LEVELS × SLOTS` buckets.
    buckets: Vec<Vec<WheelEntry>>,
    /// Per-level occupancy bitmaps (bit `i` ⇔ bucket `i` non-empty).
    occ: [u64; LEVELS],
    /// Entries whose deadline falls in the current tick (or earlier at
    /// insert time); checked entry-by-entry for exact harvesting.
    cur: Vec<WheelEntry>,
    /// Deadlines beyond the level-3 horizon.
    overflow: Vec<WheelEntry>,
    /// Cached minimum *live* entry from the last successful
    /// `next_expiry_with` scan; invalidated conservatively.
    cached_min: Option<WheelEntry>,
    /// Entries currently stored (live and dead alike).
    len: usize,
}

impl TimingWheel {
    /// An empty wheel whose clock starts at `origin`.
    //
    // hotpath:allow(alloc) — construction path: one allocation burst
    // per shard at startup (the bucket grid); the insert/expire paths
    // reuse these vectors and never allocate beyond amortised growth.
    pub fn new(origin: Nanos) -> Self {
        TimingWheel {
            now_tick: origin.0 >> TICK_SHIFT,
            buckets: (0..LEVELS * SLOTS).map(|_| Vec::new()).collect(),
            occ: [0; LEVELS],
            cur: Vec::new(),
            overflow: Vec::new(),
            cached_min: None,
            len: 0,
        }
    }

    /// Number of entries stored, including superseded (dead) ones that
    /// have not been pruned yet.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no entries are stored.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Schedules `(slot, gen, deadline)`. `O(1)`; never inspects other
    /// entries. Superseded entries for the same slot are *not* removed —
    /// they die by generation/deadline mismatch.
    pub fn insert(&mut self, slot: u32, gen: u32, deadline: Nanos) {
        let e = WheelEntry {
            slot,
            gen,
            deadline,
        };
        match self.cached_min {
            // A strictly earlier live horizon: it is the new minimum.
            Some(c) if e.deadline < c.deadline => self.cached_min = Some(e),
            // The cached stream got a new (not earlier) horizon, so the
            // cached entry is now stale: forget it.
            Some(c) if c.slot == slot && (e.deadline, e.gen) != (c.deadline, c.gen) => {
                self.cached_min = None
            }
            _ => {}
        }
        self.place(e);
        self.len += 1;
    }

    /// Tells the wheel that `slot` was deregistered, so a cached minimum
    /// pointing at it must not be trusted. Stored entries are pruned
    /// lazily as usual.
    pub fn note_removed(&mut self, slot: u32) {
        if self.cached_min.is_some_and(|c| c.slot == slot) {
            self.cached_min = None;
        }
    }

    /// Routes an entry to its bucket relative to `self.now_tick`.
    fn place(&mut self, e: WheelEntry) {
        let dt = e.deadline.0 >> TICK_SHIFT;
        if dt <= self.now_tick {
            self.cur.push(e);
            return;
        }
        let delta = dt - self.now_tick;
        let level = if delta < (1 << LEVEL_BITS) {
            0
        } else if delta < (1 << (2 * LEVEL_BITS)) {
            1
        } else if delta < (1 << (3 * LEVEL_BITS)) {
            2
        } else if delta < (1 << (4 * LEVEL_BITS)) {
            3
        } else {
            self.overflow.push(e);
            return;
        };
        let idx = ((dt >> (LEVEL_BITS * level as u32)) & MASK) as usize;
        self.buckets[level * SLOTS + idx].push(e);
        self.occ[level] |= 1 << idx;
    }

    /// Advances the wheel to `now`, appending to `due` **exactly** the
    /// stored entries with `deadline < now` (strict, matching the sweep
    /// semantics of [`crate::ProcessSet::sweep`]). Entries are emitted in
    /// harvest order, not deadline order.
    pub fn advance(&mut self, now: Nanos, due: &mut Vec<WheelEntry>) {
        let before = due.len();
        let target = now.0 >> TICK_SHIFT;
        while self.now_tick < target {
            let epoch_end = (self.now_tick & !MASK) + SLOTS as u64;
            let stop = target.min(epoch_end);
            // Level-0 buckets for ticks in (now_tick, stop) are fully
            // elapsed: every entry in them satisfies
            // `deadline < (tick+1) << TICK_SHIFT <= now`.
            let lo = (self.now_tick & MASK) + 1;
            let hi = if stop == epoch_end {
                SLOTS as u64
            } else {
                stop & MASK
            };
            let mut mask = self.occ[0] & range_mask(lo, hi);
            while mask != 0 {
                let idx = mask.trailing_zeros() as usize;
                mask &= mask - 1;
                self.occ[0] &= !(1 << idx);
                due.append(&mut self.buckets[idx]);
            }
            self.now_tick = stop;
            if stop == epoch_end {
                self.cascade();
            }
            if self.now_tick == target {
                // The target tick's own bucket holds entries that may be
                // due only partway through the tick: per-entry check.
                let idx = (self.now_tick & MASK) as usize;
                if self.occ[0] & (1 << idx) != 0 {
                    self.occ[0] &= !(1 << idx);
                    let mut b = std::mem::take(&mut self.buckets[idx]);
                    self.cur.append(&mut b);
                    self.buckets[idx] = b;
                }
            }
        }
        // Exact harvest of current-tick (and insert-time-past) entries.
        let mut i = 0;
        while i < self.cur.len() {
            if self.cur[i].deadline < now {
                due.push(self.cur.swap_remove(i));
            } else {
                i += 1;
            }
        }
        self.len -= due.len() - before;
        // Anything at or past the cached minimum may just have been
        // harvested out of the wheel.
        if self.cached_min.is_some_and(|c| c.deadline < now) {
            self.cached_min = None;
        }
    }

    /// Redistributes the higher-level buckets that expire at the epoch
    /// boundary `self.now_tick` (a multiple of 64 ticks).
    fn cascade(&mut self) {
        let t = self.now_tick;
        if t & ((1 << (4 * LEVEL_BITS)) - 1) == 0 {
            // A full level-3 rotation elapsed: overflow entries may now
            // be within the wheel horizon.
            let of = std::mem::take(&mut self.overflow);
            for e in of {
                self.place(e);
            }
        }
        if t & ((1 << (3 * LEVEL_BITS)) - 1) == 0 {
            self.cascade_level(3);
        }
        if t & ((1 << (2 * LEVEL_BITS)) - 1) == 0 {
            self.cascade_level(2);
        }
        self.cascade_level(1);
    }

    /// Drains the bucket of `level` at the current rotation position and
    /// re-places its entries (into lower levels or `cur`).
    fn cascade_level(&mut self, level: usize) {
        let idx = ((self.now_tick >> (LEVEL_BITS * level as u32)) & MASK) as usize;
        if self.occ[level] & (1 << idx) == 0 {
            return;
        }
        self.occ[level] &= !(1 << idx);
        let b = std::mem::take(&mut self.buckets[level * SLOTS + idx]);
        for e in b {
            self.place(e);
        }
    }

    /// The earliest deadline among stored entries that `is_live` accepts,
    /// pruning dead entries as it scans. Returns `None` when no live
    /// entry is scheduled.
    ///
    /// This is the stale-horizon fix: the reported horizon always belongs
    /// to a stream whose *current* trust horizon it is, so a sweeper
    /// parked on it never wakes for a dead deadline. The result is
    /// memoized; repeated probes without intervening earlier inserts or
    /// harvests are `O(1)`.
    pub fn next_expiry_with<F>(&mut self, mut is_live: F) -> Option<Nanos>
    where
        F: FnMut(&WheelEntry) -> bool,
    {
        if let Some(c) = self.cached_min {
            if is_live(&c) {
                return Some(c.deadline);
            }
            self.cached_min = None;
        }
        let mut best: Option<WheelEntry> = None;
        let mut pruned = 0;
        // Current-tick entries can precede everything in the levels.
        if let Some(m) = scan_bucket(&mut self.cur, &mut is_live, &mut pruned) {
            min_entry(&mut best, m);
        }
        for level in 0..LEVELS {
            let pos = (self.now_tick >> (LEVEL_BITS * level as u32)) & MASK;
            // Buckets in time order: the remainder of this rotation,
            // then the wrapped (next-rotation) part. Within a level the
            // first bucket holding a live entry holds the level minimum.
            for idx in (pos + 1..SLOTS as u64).chain(0..=pos) {
                if self.occ[level] & (1 << idx) == 0 {
                    continue;
                }
                let b = &mut self.buckets[level * SLOTS + idx as usize];
                let m = scan_bucket(b, &mut is_live, &mut pruned);
                if b.is_empty() {
                    self.occ[level] &= !(1 << idx);
                }
                if let Some(m) = m {
                    min_entry(&mut best, m);
                    break;
                }
            }
        }
        if let Some(m) = scan_bucket(&mut self.overflow, &mut is_live, &mut pruned) {
            min_entry(&mut best, m);
        }
        self.len -= pruned;
        self.cached_min = best;
        best.map(|e| e.deadline)
    }
}

/// Bitmask with bits `lo..hi` (exclusive) set.
fn range_mask(lo: u64, hi: u64) -> u64 {
    debug_assert!(lo <= 64 && hi <= 64);
    if lo >= hi {
        return 0;
    }
    let high = if hi == 64 { u64::MAX } else { (1 << hi) - 1 };
    high & !((1 << lo) - 1)
}

/// Removes dead entries from `v` and returns its minimum live entry.
fn scan_bucket<F>(
    v: &mut Vec<WheelEntry>,
    is_live: &mut F,
    pruned: &mut usize,
) -> Option<WheelEntry>
where
    F: FnMut(&WheelEntry) -> bool,
{
    let mut min: Option<WheelEntry> = None;
    let mut i = 0;
    while i < v.len() {
        if is_live(&v[i]) {
            min_entry(&mut min, v[i]);
            i += 1;
        } else {
            v.swap_remove(i);
            *pruned += 1;
        }
    }
    min
}

/// `*best = min(*best, e)` by deadline.
fn min_entry(best: &mut Option<WheelEntry>, e: WheelEntry) {
    if best.is_none_or(|b| e.deadline < b.deadline) {
        *best = Some(e);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const TICK: u64 = 1 << TICK_SHIFT;

    fn drain(w: &mut TimingWheel, now: Nanos) -> Vec<WheelEntry> {
        let mut due = Vec::new();
        w.advance(now, &mut due);
        due
    }

    #[test]
    fn harvest_is_strict_and_exact() {
        let mut w = TimingWheel::new(Nanos(0));
        let d = Nanos(3 * TICK + 17);
        w.insert(1, 0, d);
        // Advancing *to* the deadline publishes nothing...
        assert!(drain(&mut w, d).is_empty());
        // ...one nanosecond later it fires, exactly once.
        let due = drain(&mut w, Nanos(d.0 + 1));
        assert_eq!(
            due,
            vec![WheelEntry {
                slot: 1,
                gen: 0,
                deadline: d
            }]
        );
        assert!(drain(&mut w, Nanos(d.0 + TICK)).is_empty());
        assert!(w.is_empty());
    }

    #[test]
    fn same_tick_deadline_fires_without_tick_movement() {
        let mut w = TimingWheel::new(Nanos(5 * TICK));
        let d = Nanos(5 * TICK + 100);
        w.insert(2, 0, d);
        assert!(drain(&mut w, Nanos(5 * TICK + 100)).is_empty());
        assert_eq!(drain(&mut w, Nanos(5 * TICK + 101)).len(), 1);
    }

    #[test]
    fn past_deadline_insert_fires_on_next_advance() {
        let mut w = TimingWheel::new(Nanos(10 * TICK));
        w.insert(3, 0, Nanos(2 * TICK));
        let due = drain(&mut w, Nanos(10 * TICK + 1));
        assert_eq!(due.len(), 1);
        assert_eq!(due[0].deadline, Nanos(2 * TICK));
    }

    #[test]
    fn all_levels_and_overflow_deliver() {
        let mut w = TimingWheel::new(Nanos(0));
        // One deadline per level plus one beyond the wheel horizon.
        let deadlines = [
            Nanos(10 * TICK),              // level 0
            Nanos(200 * TICK),             // level 1
            Nanos(10_000 * TICK),          // level 2
            Nanos(500_000 * TICK),         // level 3
            Nanos(20_000_000 * TICK + 42), // overflow (> 64^4 ticks)
        ];
        for (i, d) in deadlines.iter().enumerate() {
            w.insert(i as u32, 7, *d);
        }
        assert_eq!(w.len(), 5);
        for (i, d) in deadlines.iter().enumerate() {
            let due = drain(&mut w, Nanos(d.0 + 1));
            assert_eq!(due.len(), 1, "deadline {i} must fire alone");
            assert_eq!(
                due[0],
                WheelEntry {
                    slot: i as u32,
                    gen: 7,
                    deadline: *d
                }
            );
        }
        assert!(w.is_empty());
    }

    #[test]
    fn coarse_jump_delivers_everything_in_between() {
        let mut w = TimingWheel::new(Nanos(0));
        for s in 0..1000u32 {
            w.insert(s, 0, Nanos((s as u64 + 1) * 3 * TICK + (s as u64 % 977)));
        }
        // A single one-hour jump (ManualClock style) harvests all.
        let due = drain(&mut w, Nanos::from_secs(3600));
        assert_eq!(due.len(), 1000);
        assert!(w.is_empty());
    }

    #[test]
    fn next_expiry_skips_dead_entries_and_prunes() {
        let mut w = TimingWheel::new(Nanos(0));
        w.insert(1, 0, Nanos(5 * TICK)); // dead (superseded)
        w.insert(1, 0, Nanos(9 * TICK)); // live
        w.insert(2, 0, Nanos(7 * TICK)); // dead (deregistered)
        let live = |e: &WheelEntry| e.slot == 1 && e.deadline == Nanos(9 * TICK);
        assert_eq!(w.next_expiry_with(live), Some(Nanos(9 * TICK)));
        assert_eq!(w.len(), 1, "dead entries were pruned by the scan");
        // Cached: a second probe still answers correctly.
        assert_eq!(w.next_expiry_with(live), Some(Nanos(9 * TICK)));
    }

    #[test]
    fn next_expiry_sees_cross_level_minimum() {
        let mut w = TimingWheel::new(Nanos(0));
        w.insert(1, 0, Nanos(100 * TICK)); // level 1
        w.insert(2, 0, Nanos(3 * TICK)); // level 0 — the minimum
        w.insert(3, 0, Nanos(70_000 * TICK)); // level 2
        assert_eq!(w.next_expiry_with(|_| true), Some(Nanos(3 * TICK)));
        // Harvest the minimum; the next minimum is the level-1 entry.
        let due = drain(&mut w, Nanos(4 * TICK));
        assert_eq!(due.len(), 1);
        assert_eq!(w.next_expiry_with(|_| true), Some(Nanos(100 * TICK)));
    }

    #[test]
    fn cached_min_invalidates_on_earlier_insert() {
        let mut w = TimingWheel::new(Nanos(0));
        w.insert(1, 0, Nanos(50 * TICK));
        assert_eq!(w.next_expiry_with(|_| true), Some(Nanos(50 * TICK)));
        w.insert(2, 0, Nanos(8 * TICK));
        assert_eq!(w.next_expiry_with(|_| true), Some(Nanos(8 * TICK)));
    }

    #[test]
    fn cached_min_invalidates_on_same_slot_reschedule() {
        let mut w = TimingWheel::new(Nanos(0));
        w.insert(1, 0, Nanos(10 * TICK));
        assert_eq!(w.next_expiry_with(|_| true), Some(Nanos(10 * TICK)));
        // The stream's horizon moves later; the old entry is now dead.
        w.insert(1, 0, Nanos(40 * TICK));
        let q = w.next_expiry_with(|e| e.deadline == Nanos(40 * TICK));
        assert_eq!(q, Some(Nanos(40 * TICK)));
    }

    #[test]
    fn note_removed_drops_cached_min() {
        let mut w = TimingWheel::new(Nanos(0));
        w.insert(1, 0, Nanos(10 * TICK));
        w.insert(2, 0, Nanos(20 * TICK));
        assert_eq!(w.next_expiry_with(|_| true), Some(Nanos(10 * TICK)));
        w.note_removed(1);
        assert_eq!(w.next_expiry_with(|e| e.slot != 1), Some(Nanos(20 * TICK)));
    }

    #[test]
    fn wrapped_level0_entries_fire_in_the_next_epoch() {
        // Start near an epoch boundary so a short deadline wraps.
        let start = 62 * TICK;
        let mut w = TimingWheel::new(Nanos(start));
        let d = Nanos(start + 5 * TICK); // tick 67 → level-0 index 3 (wrapped)
        w.insert(9, 0, d);
        assert_eq!(w.next_expiry_with(|_| true), Some(d));
        assert!(drain(&mut w, d).is_empty());
        assert_eq!(drain(&mut w, Nanos(d.0 + 1)).len(), 1);
    }
}
