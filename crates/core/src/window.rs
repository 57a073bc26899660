//! Sliding sample windows.
//!
//! Every algorithm in the paper keeps a bounded window of recent
//! heartbeat observations. Two flavours are needed:
//!
//! * [`RingWindow`] — a fixed-capacity FIFO of raw samples. Pushing into
//!   a full window evicts the oldest sample and returns it, which is what
//!   lets the incremental aggregates below stay O(1) per heartbeat.
//! * [`SumWindow`] — a ring of `i64` values with a running `i128` sum:
//!   the O(1) building block of Chen's expected-arrival average (Eq. 2).
//!   It stores each value as an exact `i32` offset from a per-window
//!   base, so the 2W-FD's `n2 = 1000` window is a 4 000-byte buffer, half
//!   of an `i64` ring; a window whose values span more than 2^32 ns
//!   (≈ 4.3 s) widens to `i64` storage once.
//! * [`MomentsWindow`] — a ring of `f64` values with running first and
//!   second moments: the φ/ED detectors' inter-arrival mean/variance.
//!
//! All three are allocation-free after construction, but for the one
//! widening of a [`SumWindow`]; a 2W-FD instance processes millions of
//! heartbeats per replay and the per-heartbeat cost is what the
//! micro-benchmarks in `twofd-bench` measure. A capacity-1 window
//! allocates nothing at all: its sample lives in the window.

use std::collections::VecDeque;

/// Where a [`RingWindow`] keeps its samples. A capacity-1 window holds
/// its one sample in the window itself, so pushing into it touches no
/// heap line; larger windows own a ring buffer.
#[derive(Debug, Clone)]
enum Samples<T> {
    One(Option<T>),
    Ring(VecDeque<T>),
}

/// Fixed-capacity FIFO window over samples of type `T`.
#[derive(Debug, Clone)]
pub struct RingWindow<T> {
    samples: Samples<T>,
    capacity: usize,
}

impl<T> RingWindow<T> {
    /// Creates a window holding at most `capacity` samples.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        RingWindow {
            samples: if capacity == 1 {
                Samples::One(None)
            } else {
                Samples::Ring(VecDeque::with_capacity(capacity))
            },
            capacity,
        }
    }

    /// Appends a sample, evicting and returning the oldest one if full.
    #[inline]
    pub fn push(&mut self, value: T) -> Option<T> {
        match &mut self.samples {
            Samples::One(slot) => slot.replace(value),
            Samples::Ring(buf) => {
                let evicted = if buf.len() == self.capacity {
                    buf.pop_front()
                } else {
                    None
                };
                buf.push_back(value);
                evicted
            }
        }
    }

    /// Number of samples currently held.
    #[inline]
    pub fn len(&self) -> usize {
        match &self.samples {
            Samples::One(slot) => usize::from(slot.is_some()),
            Samples::Ring(buf) => buf.len(),
        }
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Iterates samples oldest-first.
    pub fn iter(&self) -> impl Iterator<Item = &T> {
        let (one, ring) = match &self.samples {
            Samples::One(slot) => (slot.as_ref(), None),
            Samples::Ring(buf) => (None, Some(buf.iter())),
        };
        one.into_iter().chain(ring.into_iter().flatten())
    }

    /// Drops all samples.
    pub fn clear(&mut self) {
        match &mut self.samples {
            Samples::One(slot) => *slot = None,
            Samples::Ring(buf) => buf.clear(),
        }
    }
}

/// Where a [`SumWindow`] keeps its samples.
#[derive(Debug, Clone)]
enum Store {
    /// Capacity 1 (the 2W-FD's short window at the paper's `n1 = 1`):
    /// the sample itself, no heap.
    One(Option<i64>),
    /// Every sample as `base + offset`, four bytes each.
    Narrow { base: i64, offsets: VecDeque<i32> },
    /// Every sample at full width, once no `i32` offset could hold them
    /// all. A window never narrows again.
    Wide(VecDeque<i64>),
}

impl Store {
    #[inline]
    fn len(&self) -> usize {
        match self {
            Store::One(slot) => usize::from(slot.is_some()),
            Store::Narrow { offsets, .. } => offsets.len(),
            Store::Wide(ring) => ring.len(),
        }
    }
}

/// Appends a `value` that no `i32` offset from `base` holds. Re-bases
/// the window in place when the retained samples and `value` all fit an
/// `i32` around the midpoint of their range; otherwise returns them, and
/// `value`, at full width.
#[cold]
fn push_far(
    base: &mut i64,
    offsets: &mut VecDeque<i32>,
    value: i64,
    capacity: usize,
) -> Option<VecDeque<i64>> {
    let (lo, hi) = offsets.iter().fold((value, value), |(lo, hi), &o| {
        let x = *base + i64::from(o);
        (lo.min(x), hi.max(x))
    });
    let span = i128::from(hi) - i128::from(lo);
    if span <= i128::from(u32::MAX) {
        // Offsets from lo + ⌈span/2⌉ run from −⌈span/2⌉ to ⌊span/2⌋.
        let new_base = lo + ((span + 1) / 2) as i64;
        let shift = i128::from(*base) - i128::from(new_base);
        for o in offsets.iter_mut() {
            *o = (i128::from(*o) + shift) as i32;
        }
        *base = new_base;
        offsets.push_back((i128::from(value) - i128::from(new_base)) as i32);
        return None;
    }
    // hotpath:allow(alloc) — at most once per window, when its values
    // come to span more than 2^32 ns.
    let mut wide = VecDeque::with_capacity(capacity);
    wide.extend(offsets.iter().map(|&o| *base + i64::from(o)));
    wide.push_back(value);
    Some(wide)
}

/// Ring of `i64` samples with an O(1) running sum.
///
/// The samples are stored as `i32` offsets from a per-window base, half
/// the bytes of an `i64` ring: a 2W-FD's `n2 = 1000` window owns a
/// 4 000-byte buffer. The base starts at zero. A sample too far from it
/// re-bases the window in place — one pass, when every retained sample
/// and the new one fit an `i32` around the midpoint of their range (for
/// the first sample, around itself) — or else widens the window to `i64`
/// storage for good. The sum is the exact `i128` over the true values and
/// an evicted sample is rebuilt exactly, so the storage never shows in
/// [`sum`](Self::sum) or [`mean`](Self::mean).
#[derive(Debug, Clone)]
pub struct SumWindow {
    store: Store,
    capacity: usize,
    sum: i128,
}

impl SumWindow {
    /// Creates a sum window of the given capacity.
    ///
    /// # Panics
    /// If `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "window capacity must be positive");
        SumWindow {
            store: if capacity == 1 {
                Store::One(None)
            } else {
                Store::Narrow {
                    base: 0,
                    offsets: VecDeque::with_capacity(capacity),
                }
            },
            capacity,
            sum: 0,
        }
    }

    /// Pushes a sample, evicting the oldest one if full and maintaining
    /// the running sum.
    #[inline]
    pub fn push(&mut self, value: i64) {
        let capacity = self.capacity;
        let evicted = match &mut self.store {
            Store::One(slot) => slot.replace(value),
            Store::Narrow { base, offsets } => {
                // base + offset rebuilds a value that was pushed as an i64.
                let evicted = if offsets.len() == capacity {
                    offsets.pop_front().map(|o| *base + i64::from(o))
                } else {
                    None
                };
                match value.checked_sub(*base).map(i32::try_from) {
                    Some(Ok(o)) => offsets.push_back(o),
                    _ => {
                        if let Some(wide) = push_far(base, offsets, value, capacity) {
                            self.store = Store::Wide(wide);
                        }
                    }
                }
                evicted
            }
            Store::Wide(ring) => {
                let evicted = if ring.len() == capacity {
                    ring.pop_front()
                } else {
                    None
                };
                ring.push_back(value);
                evicted
            }
        };
        if let Some(evicted) = evicted {
            self.sum -= i128::from(evicted);
        }
        self.sum += i128::from(value);
    }

    /// Sum of the retained samples.
    pub fn sum(&self) -> i128 {
        self.sum
    }

    /// Mean of the retained samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        match self.len() {
            0 => None,
            n => Some(self.sum as f64 / n as f64),
        }
    }

    /// Number of retained samples.
    #[inline]
    pub fn len(&self) -> usize {
        self.store.len()
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }
}

/// Ring of `f64` samples with O(1) running mean and variance.
///
/// Maintains shifted sums `Σ(x − c)` and `Σ(x − c)²` where `c` is the
/// first sample ever pushed. A raw `Σx²` loses mantissa catastrophically
/// when the samples are large and close together — exactly the regime of
/// nanosecond-magnitude timestamps (`x ≈ 10¹²`, spread ≈ 10¹): `x²`
/// lands near 10²⁴ where an f64's resolution is ≈ 10⁸, wiping out the
/// variance entirely. Centering on the first sample keeps the summed
/// quantities at the *spread's* magnitude instead; the mean adds `c`
/// back and the variance is shift-invariant. The property tests compare
/// against a two-pass reference at both ordinary and ns-scale
/// magnitudes to enforce this.
#[derive(Debug, Clone)]
pub struct MomentsWindow {
    ring: RingWindow<f64>,
    /// Shift applied to every retained sample: the first sample pushed.
    origin: f64,
    origin_set: bool,
    /// `Σ(x − origin)` over retained samples.
    sum: f64,
    /// `Σ(x − origin)²` over retained samples.
    sum_sq: f64,
}

impl MomentsWindow {
    /// Creates a moments window of the given capacity (must be positive).
    pub fn new(capacity: usize) -> Self {
        MomentsWindow {
            ring: RingWindow::new(capacity),
            origin: 0.0,
            origin_set: false,
            sum: 0.0,
            sum_sq: 0.0,
        }
    }

    /// Pushes a sample, maintaining the running moments.
    pub fn push(&mut self, value: f64) {
        debug_assert!(value.is_finite(), "window samples must be finite");
        if !self.origin_set {
            self.origin = value;
            self.origin_set = true;
        }
        if let Some(evicted) = self.ring.push(value) {
            let e = evicted - self.origin;
            self.sum -= e;
            self.sum_sq -= e * e;
        }
        let c = value - self.origin;
        self.sum += c;
        self.sum_sq += c * c;
    }

    /// Mean of the retained samples (`None` when empty).
    pub fn mean(&self) -> Option<f64> {
        if self.ring.is_empty() {
            None
        } else {
            Some(self.origin + self.sum / self.ring.len() as f64)
        }
    }

    /// Population variance of the retained samples (`None` when empty).
    /// Clamped at zero against floating-point cancellation.
    pub fn variance(&self) -> Option<f64> {
        let n = self.ring.len();
        if n == 0 {
            return None;
        }
        // Shift-invariant: computed entirely on the centered samples.
        let mean_c = self.sum / n as f64;
        Some((self.sum_sq / n as f64 - mean_c * mean_c).max(0.0))
    }

    /// Standard deviation of the retained samples (`None` when empty).
    pub fn std_dev(&self) -> Option<f64> {
        self.variance().map(f64::sqrt)
    }

    /// Number of retained samples.
    pub fn len(&self) -> usize {
        self.ring.len()
    }

    /// True when no samples are held.
    pub fn is_empty(&self) -> bool {
        self.ring.is_empty()
    }

    /// The configured capacity.
    pub fn capacity(&self) -> usize {
        self.ring.capacity()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ring_evicts_fifo() {
        let mut w = RingWindow::new(3);
        assert_eq!(w.push(1), None);
        assert_eq!(w.push(2), None);
        assert_eq!(w.push(3), None);
        assert_eq!(w.len(), w.capacity());
        assert_eq!(w.push(4), Some(1));
        assert_eq!(w.push(5), Some(2));
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec![3, 4, 5]);
    }

    #[test]
    fn ring_capacity_one_always_replaces() {
        let mut w = RingWindow::new(1);
        assert_eq!(w.push("a"), None);
        assert_eq!(w.push("b"), Some("a"));
        assert_eq!(w.len(), 1);
        assert_eq!(w.iter().copied().collect::<Vec<_>>(), vec!["b"]);
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn ring_rejects_zero_capacity() {
        RingWindow::<u8>::new(0);
    }

    #[test]
    fn ring_clear_empties() {
        let mut w = RingWindow::new(2);
        w.push(1);
        w.clear();
        assert!(w.is_empty());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn sum_window_tracks_sliding_sum() {
        let mut w = SumWindow::new(3);
        assert_eq!(w.mean(), None);
        w.push(10);
        w.push(20);
        w.push(30);
        assert_eq!(w.sum(), 60);
        w.push(40); // evicts 10
        assert_eq!(w.sum(), 90);
        assert_eq!(w.mean(), Some(30.0));
    }

    #[test]
    fn sum_window_handles_negatives() {
        let mut w = SumWindow::new(2);
        w.push(-5);
        w.push(3);
        assert_eq!(w.sum(), -2);
        w.push(-1); // evicts -5
        assert_eq!(w.sum(), 2);
    }

    /// The base of a narrow window, `None` once it has widened.
    fn narrow_base(w: &SumWindow) -> Option<i64> {
        match w.store {
            Store::Narrow { base, .. } => Some(base),
            _ => None,
        }
    }

    #[test]
    fn drifting_samples_rebase_in_place_and_stay_narrow() {
        // A sender whose offset drifts 1 ms per beat leaves i32 range
        // around its first sample after ≈ 2 150 beats.
        let mut w = SumWindow::new(1000);
        let mut reference = VecDeque::new();
        let mut rebased = false;
        for i in 0..10_000i64 {
            let v = 5_000_000_000 + i * 1_000_000;
            let before = narrow_base(&w);
            w.push(v);
            reference.push_back(v);
            if reference.len() > 1000 {
                reference.pop_front();
            }
            let after = narrow_base(&w);
            assert!(after.is_some(), "widened at beat {i}");
            // The first push re-bases from 0 to its own value.
            rebased |= i > 0 && after != before;
        }
        assert!(rebased, "the drift never left i32 range");
        assert_eq!(w.sum(), reference.iter().map(|&x| i128::from(x)).sum());
    }

    #[test]
    fn a_step_wider_than_u32_widens_once_and_stays_exact() {
        let mut w = SumWindow::new(4);
        w.push(1_000);
        w.push(1_000 + 5_000_000_000); // a 5 s clock step
        assert!(matches!(w.store, Store::Wide(_)));
        w.push(7);
        w.push(-9);
        w.push(11); // evicts 1 000
        assert_eq!(w.sum(), 5_000_001_000 + 7 - 9 + 11);
        assert!(matches!(w.store, Store::Wide(_)));
    }

    #[test]
    fn i64_extremes_are_held_exactly() {
        let mut w = SumWindow::new(2);
        w.push(i64::MIN);
        w.push(i64::MAX);
        assert_eq!(w.sum(), -1);
        w.push(i64::MAX); // evicts MIN
        assert_eq!(w.sum(), 2 * i128::from(i64::MAX));
        assert_eq!(w.mean(), Some(i64::MAX as f64));
    }

    #[test]
    fn moments_window_basic() {
        let mut w = MomentsWindow::new(4);
        for x in [2.0, 4.0, 4.0, 4.0] {
            w.push(x);
        }
        assert!((w.mean().unwrap() - 3.5).abs() < 1e-12);
        // Population variance of [2,4,4,4] = 0.75.
        assert!((w.variance().unwrap() - 0.75).abs() < 1e-12);
        w.push(6.0); // evicts 2 → [4,4,4,6]
        assert!((w.mean().unwrap() - 4.5).abs() < 1e-12);
        assert!((w.variance().unwrap() - 0.75).abs() < 1e-12);
    }

    #[test]
    fn moments_variance_never_negative() {
        let mut w = MomentsWindow::new(100);
        // Identical large-ish values: naive sumsq cancellation territory.
        for _ in 0..100 {
            w.push(1234.5678);
        }
        assert!(w.variance().unwrap() >= 0.0);
        assert!(w.variance().unwrap() < 1e-6);
    }

    proptest! {
        /// Whatever the storage — inline, narrow, re-based or widened —
        /// the window is a plain `VecDeque<i64>` to every reader, to the
        /// bit. Moves mix jitter, one-way drift (re-bases), steps past
        /// 2^31 ns (a re-base or a widen) and the i64 extremes.
        #[test]
        fn sum_window_matches_naive(
            start in any::<i64>(),
            moves in prop::collection::vec((0u8..8, any::<i64>()), 1..300),
            cap in 1usize..50,
        ) {
            let mut w = SumWindow::new(cap);
            let mut reference: VecDeque<i64> = VecDeque::new();
            let mut v = start;
            for (kind, r) in moves {
                v = match kind {
                    0..=3 => v.saturating_add(r % 20_000_000),
                    4 | 5 => v.saturating_add(r.rem_euclid(1 << 28)),
                    6 => {
                        let step = (1 << 31) + r.rem_euclid(1 << 40);
                        v.saturating_add(if r < 0 { -step } else { step })
                    }
                    _ => [i64::MIN, i64::MAX, r][r.rem_euclid(3) as usize],
                };
                w.push(v);
                reference.push_back(v);
                if reference.len() > cap {
                    reference.pop_front();
                }
                let sum: i128 = reference.iter().map(|&x| i128::from(x)).sum();
                let mean = sum as f64 / reference.len() as f64;
                prop_assert_eq!(w.sum(), sum);
                prop_assert_eq!(w.len(), reference.len());
                prop_assert_eq!(w.mean().map(f64::to_bits), Some(mean.to_bits()));
            }
        }

        #[test]
        fn moments_window_matches_two_pass(values in prop::collection::vec(0.0f64..10.0, 1..200), cap in 1usize..50) {
            let mut w = MomentsWindow::new(cap);
            let mut naive: Vec<f64> = Vec::new();
            for &v in &values {
                w.push(v);
                naive.push(v);
                if naive.len() > cap {
                    naive.remove(0);
                }
                let n = naive.len() as f64;
                let mean = naive.iter().sum::<f64>() / n;
                let var = naive.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n;
                prop_assert!((w.mean().unwrap() - mean).abs() < 1e-9);
                prop_assert!((w.variance().unwrap() - var).abs() < 1e-7);
            }
        }

        #[test]
        fn moments_window_survives_ns_scale_magnitudes(
            base in 1.0e12f64..2.0e15,
            jitters in prop::collection::vec(0.0f64..2.0e7, 2..200),
            cap in 1usize..50,
        ) {
            // Timestamp-like samples: enormous offset, small spread. A raw
            // Σx/Σx² implementation loses the entire variance to mantissa
            // cancellation here (x² ≈ 1e24+, f64 resolution ≈ 1e8). The
            // reference is itself computed centered — at these magnitudes
            // an uncentered two-pass reference would be the noisier side.
            let mut w = MomentsWindow::new(cap);
            let mut naive: Vec<f64> = Vec::new();
            let origin = base + jitters[0];
            for &j in &jitters {
                let v = base + j;
                w.push(v);
                naive.push(v);
                if naive.len() > cap {
                    naive.remove(0);
                }
                let n = naive.len() as f64;
                let centered: Vec<f64> = naive.iter().map(|x| x - origin).collect();
                let mean_c = centered.iter().sum::<f64>() / n;
                let mean = origin + mean_c;
                let var = centered.iter().map(|c| (c - mean_c).powi(2)).sum::<f64>() / n;
                // Sub-nanosecond mean accuracy despite the 1e12+ offset.
                prop_assert!((w.mean().unwrap() - mean).abs() < 0.5);
                // Cancellation floor scales with the centered second
                // moment (window may drift from the origin), far below
                // the jitter scale the detectors act on.
                let msq = centered.iter().map(|c| c * c).sum::<f64>() / n;
                let tol = 1e-6 * var + 1e-10 * msq + 1e-9;
                prop_assert!(
                    (w.variance().unwrap() - var).abs() < tol,
                    "var {} vs two-pass {}",
                    w.variance().unwrap(),
                    var
                );
            }
        }

        #[test]
        fn ring_window_matches_naive_fifo(values in prop::collection::vec(0u32..1000, 1..100), cap in 1usize..20) {
            let mut w = RingWindow::new(cap);
            let mut naive: Vec<u32> = Vec::new();
            for &v in &values {
                let evicted = w.push(v);
                naive.push(v);
                let expect_evicted = if naive.len() > cap { Some(naive.remove(0)) } else { None };
                prop_assert_eq!(evicted, expect_evicted);
                prop_assert_eq!(w.iter().copied().collect::<Vec<_>>(), naive.clone());
            }
        }
    }
}
