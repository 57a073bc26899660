//! Lock-free metric primitives.
//!
//! Every primitive is a cheap `Arc` clone around one (or, for the
//! histogram, a fixed block of) `AtomicU64`; per-shard handles can be
//! cloned at construction time and updated from the hot path with a
//! single relaxed RMW — no lock, no contention between shards, and no
//! allocation after construction.
//!
//! ## The histogram layout
//!
//! [`Histogram`] uses a **fixed log-linear bucket grid** over
//! nanosecond-valued observations, the classic HDR-style compromise:
//! bucket bounds grow geometrically (so the range 1 µs … ~69 s fits in
//! ~100 buckets) but each power-of-two octave is split into
//! `2^SUB_BITS` linear sub-buckets (so relative error is bounded by
//! `2^-SUB_BITS` ≈ 25 % everywhere, not by a full octave). Bucket
//! indexing is pure bit arithmetic on the value — no search, no float
//! math — which keeps `observe` cheap enough for per-heartbeat use.

use crate::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use twofd_sim::time::Span;

/// Ordering of the `count` increment in [`Histogram::observe_ns`].
///
/// `Release`, paired with the `Acquire` load in [`Histogram::count`]:
/// the count increment is the *last* write of an observation, so a
/// reader that sees `count == k` is guaranteed to also see at least `k`
/// bucket and sum increments — snapshots read count-first are never
/// ahead of the buckets. The model-check suite
/// (`crates/check/tests/obs_model.rs`) verifies exactly this invariant.
#[cfg(not(twofd_check))]
#[inline]
fn count_add_ordering() -> Ordering {
    Ordering::Release
}

/// Under the model-check cfg, `TWOFD_CHECK_MUTATE=1` deliberately
/// weakens the count increment to `Relaxed` so CI can assert the
/// checker catches the resulting snapshot inversion (a sensitivity
/// test proving the suite has teeth). Unset, behaves like production.
#[cfg(twofd_check)]
fn count_add_ordering() -> Ordering {
    if std::env::var_os("TWOFD_CHECK_MUTATE").is_some_and(|v| v == "1") {
        // ordering: Relaxed — the deliberate mutation this knob exists
        // for; the model-check suite asserts it is caught.
        Ordering::Relaxed
    } else {
        Ordering::Release
    }
}

/// A monotonically increasing counter.
///
/// Clones share the same cell, so a handle can be resolved once (e.g.
/// per shard) and bumped from the hot path without touching the
/// registry again.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh counter at zero, not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one.
    ///
    /// `Release` so that cross-counter invariants hold for readers:
    /// when code bumps counter A before counter B (e.g. `received`
    /// before `applied`/`dropped` in the shard runtime), a reader that
    /// `get`s B first and A second can never observe B ahead of A.
    /// Free on x86-64 (every RMW is already a full barrier) and cheap
    /// on AArch64 (`ldaxr`/`stlxr`); verified by the model-check suite.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Release);
    }

    /// Adds `n`. Same ordering contract as [`Counter::inc`].
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Release);
    }

    /// Current value (`Acquire`, pairing with the `Release` adds).
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

/// A gauge: an instantaneous `f64` value (stored as bits in one
/// `AtomicU64`). Used for queue depths, live/suspect tallies and the
/// online QoS estimates.
#[derive(Clone, Debug)]
pub struct Gauge(Arc<AtomicU64>);

impl Default for Gauge {
    fn default() -> Self {
        Gauge(Arc::new(AtomicU64::new(0f64.to_bits())))
    }
}

impl Gauge {
    /// A fresh gauge at zero, not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the value.
    ///
    /// `Relaxed` is sound: a gauge is a single self-contained cell — no
    /// reader infers anything about *other* memory from its value, so
    /// there is no release/acquire pairing to maintain. Atomicity alone
    /// (no torn f64 bits) is the full contract.
    #[inline]
    pub fn set(&self, v: f64) {
        // ordering: Relaxed — single-cell gauge, no cross-variable protocol.
        self.0.store(v.to_bits(), Ordering::Relaxed);
    }

    /// Adds `delta` (CAS loop; gauges are not hot-path metrics).
    ///
    /// `Relaxed` is sound for the same single-cell reason as
    /// [`Gauge::set`]; the CAS loop itself guarantees the
    /// read-modify-write is lossless regardless of ordering.
    pub fn add(&self, delta: f64) {
        // ordering: Relaxed — single-cell gauge; the CAS loop alone makes
        // the read-modify-write lossless.
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + delta).to_bits();
            match self
                .0
                .compare_exchange_weak(cur, next, Ordering::Relaxed, Ordering::Relaxed)
            {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Current value (`Relaxed`: single-cell contract, see [`Gauge::set`]).
    pub fn get(&self) -> f64 {
        // ordering: Relaxed — single-cell gauge, see `set`.
        f64::from_bits(self.0.load(Ordering::Relaxed))
    }
}

/// Linear sub-buckets per power-of-two octave: `2^SUB_BITS`.
const SUB_BITS: u32 = 2;
/// Smallest resolved octave: values below `2^MIN_EXP` ns (≈1 µs) share
/// the underflow bucket.
const MIN_EXP: u32 = 10;
/// Largest resolved octave: values at or above `2^MAX_EXP` ns (≈68.7 s)
/// share the overflow bucket.
const MAX_EXP: u32 = 36;

const SUBS: usize = 1 << SUB_BITS;
/// Finite buckets: one underflow + the log-linear grid. The overflow
/// bucket is only materialized as the `+Inf` sample at exposition.
pub const BUCKETS: usize = 1 + (MAX_EXP - MIN_EXP) as usize * SUBS + 1;

struct HistCore {
    buckets: [AtomicU64; BUCKETS],
    /// Total of all observations, nanoseconds. Wraps after ~584 years
    /// of accumulated observed time.
    sum_ns: AtomicU64,
    count: AtomicU64,
}

/// A fixed-bucket log-linear histogram of durations.
///
/// Observations are nanoseconds internally; exposition (and
/// [`Histogram::sum_secs`]) is in seconds, the Prometheus convention.
/// `observe` is one index computation plus two relaxed atomic adds.
#[derive(Clone)]
pub struct Histogram(Arc<HistCore>);

impl Default for Histogram {
    fn default() -> Self {
        Histogram(Arc::new(HistCore {
            buckets: std::array::from_fn(|_| AtomicU64::new(0)),
            sum_ns: AtomicU64::new(0),
            count: AtomicU64::new(0),
        }))
    }
}

impl std::fmt::Debug for Histogram {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count())
            .field("sum_secs", &self.sum_secs())
            .finish()
    }
}

impl Histogram {
    /// A fresh empty histogram, not attached to any registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// The bucket index a value of `ns` nanoseconds falls into.
    ///
    /// Buckets partition `[0, ∞)` into half-open ranges
    /// `[lower, upper)`; [`Histogram::bucket_upper_bounds`] lists the
    /// `upper` bounds (seconds) in index order.
    #[inline]
    fn bucket_index(ns: u64) -> usize {
        if ns < (1 << MIN_EXP) {
            return 0;
        }
        if ns >= (1 << MAX_EXP) {
            return BUCKETS - 1;
        }
        let octave = 63 - ns.leading_zeros(); // MIN_EXP..MAX_EXP-1
        let sub = (ns >> (octave - SUB_BITS)) as usize & (SUBS - 1);
        1 + (octave - MIN_EXP) as usize * SUBS + sub
    }

    /// Upper bounds (exclusive, in seconds) of every finite bucket, in
    /// index order. The last (overflow) bucket's bound is rendered as
    /// `+Inf`.
    pub fn bucket_upper_bounds() -> Vec<f64> {
        let mut bounds = Vec::with_capacity(BUCKETS - 1);
        bounds.push((1u64 << MIN_EXP) as f64 / 1e9);
        for octave in MIN_EXP..MAX_EXP {
            for sub in 0..SUBS as u64 {
                let upper = (1u64 << octave) + (sub + 1) * (1u64 << (octave - SUB_BITS));
                bounds.push(upper as f64 / 1e9);
            }
        }
        bounds
    }

    /// Records a duration in nanoseconds.
    ///
    /// The bucket and sum adds are `Relaxed`: they carry no payload for
    /// other memory, and the *count* increment that follows is the
    /// `Release` publication point for the whole observation (see
    /// `count_add_ordering` in this module). A snapshot reading `count` first
    /// (`Acquire`) therefore sees every bucket/sum increment of the
    /// observations it counted — `sum(buckets) >= count` always holds
    /// for that read order, which `crates/check/tests/obs_model.rs`
    /// verifies exhaustively.
    #[inline]
    pub fn observe_ns(&self, ns: u64) {
        // ordering: Relaxed — published by the Release count add below.
        self.0.buckets[Self::bucket_index(ns)].fetch_add(1, Ordering::Relaxed);
        // ordering: Relaxed — published by the Release count add below.
        self.0.sum_ns.fetch_add(ns, Ordering::Relaxed);
        self.0.count.fetch_add(1, count_add_ordering());
    }

    /// Records a [`Span`].
    #[inline]
    pub fn observe_span(&self, span: Span) {
        self.observe_ns(span.0);
    }

    /// Records a duration in seconds (negative values clamp to zero).
    pub fn observe_secs(&self, secs: f64) {
        self.observe_ns((secs.max(0.0) * 1e9) as u64);
    }

    /// Number of observations.
    ///
    /// `Acquire`, pairing with the `Release` count increment: a
    /// snapshot that calls `count()` before [`Histogram::bucket_counts`]
    /// / [`Histogram::sum_secs`] sees at least that many bucket and sum
    /// increments.
    pub fn count(&self) -> u64 {
        // xtask:allow(one_sided) — the pairing Release store exists:
        // `observe_ns` increments via `fetch_add(1, count_add_ordering())`,
        // where the helper returns `Ordering::Release` (and the
        // twofd_check build can deliberately weaken it). The static
        // pass cannot attribute an ordering that flows through a
        // helper fn; the pairing itself is model-checked in
        // crates/check/tests/obs_model.rs.
        self.0.count.load(Ordering::Acquire)
    }

    /// Sum of all observations, seconds.
    ///
    /// `Relaxed` is sound: visibility of the increments is established
    /// by the `Acquire` read in [`Histogram::count`] (snapshots read
    /// count first); the sum itself publishes nothing.
    pub fn sum_secs(&self) -> f64 {
        // ordering: Relaxed — visibility comes from the count-first
        // Acquire read (doc above).
        self.0.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Per-bucket (non-cumulative) counts, in index order.
    ///
    /// `Relaxed` is sound for the same reason as [`Histogram::sum_secs`]:
    /// the count-first `Acquire` read already ordered these loads after
    /// the increments they must observe.
    pub fn bucket_counts(&self) -> Vec<u64> {
        self.0
            .buckets
            .iter()
            // ordering: Relaxed — visibility comes from the count-first
            // Acquire read (doc above).
            .map(|b| b.load(Ordering::Relaxed))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_counts() {
        let c = Counter::new();
        let c2 = c.clone();
        c.inc();
        c2.add(4);
        assert_eq!(c.get(), 5);
    }

    #[test]
    fn gauge_sets_and_adds() {
        let g = Gauge::new();
        assert_eq!(g.get(), 0.0);
        g.set(2.5);
        g.add(-1.0);
        assert!((g.get() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn histogram_totals() {
        let h = Histogram::new();
        h.observe_secs(0.001);
        h.observe_span(Span::from_millis(2));
        h.observe_ns(500); // underflow bucket
        assert_eq!(h.count(), 3);
        assert!((h.sum_secs() - 0.0030005).abs() < 1e-9);
        assert_eq!(h.bucket_counts()[0], 1);
    }

    /// Every value must land in the bucket whose half-open range
    /// contains it: `bounds[i-1] <= v < bounds[i]` (in ns). Checked over
    /// a deterministic pseudo-random sweep of the full u64 range plus
    /// all the boundary values themselves.
    #[test]
    fn bucket_indexing_matches_bounds() {
        let bounds_ns: Vec<u64> = Histogram::bucket_upper_bounds()
            .iter()
            .map(|b| (b * 1e9).round() as u64)
            .collect();
        assert_eq!(bounds_ns.len(), BUCKETS - 1);
        // Bounds are strictly increasing.
        assert!(bounds_ns.windows(2).all(|w| w[0] < w[1]));

        let check = |v: u64| {
            let i = Histogram::bucket_index(v);
            if i < bounds_ns.len() {
                assert!(v < bounds_ns[i], "v={v} bucket {i} upper {}", bounds_ns[i]);
            } else {
                assert!(v >= *bounds_ns.last().unwrap(), "v={v} in overflow");
            }
            if i > 0 && i <= bounds_ns.len() {
                assert!(
                    v >= bounds_ns[i - 1],
                    "v={v} bucket {i} lower {}",
                    bounds_ns[i - 1]
                );
            }
        };

        // Exact boundaries land in the bucket *above* (half-open ranges).
        for (i, &b) in bounds_ns.iter().enumerate() {
            assert_eq!(Histogram::bucket_index(b), i + 1, "boundary {b}");
            check(b);
            check(b - 1);
            check(b + 1);
        }
        // Deterministic pseudo-random sweep (splitmix64).
        let mut x = 0x2BFD_0B55u64 ^ 0x9E37_79B9_7F4A_7C15;
        for _ in 0..20_000 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            check(z);
            check(z % (1 << 37)); // bias into the resolved range too
        }
    }

    #[test]
    fn relative_error_is_bounded_by_sub_bucket_width() {
        let bounds = Histogram::bucket_upper_bounds();
        // Within the resolved range, bucket width / lower bound <= 2^-SUB_BITS.
        for w in bounds.windows(2) {
            let (lo, hi) = (w[0], w[1]);
            if lo >= (1u64 << MIN_EXP) as f64 / 1e9 {
                assert!(
                    (hi - lo) / lo <= 1.0 / (1 << SUB_BITS) as f64 + 1e-12,
                    "bucket [{lo}, {hi}) too wide"
                );
            }
        }
    }
}
