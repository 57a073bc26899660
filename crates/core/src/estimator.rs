//! Chen's expected-arrival estimator (Eq. 2 of the paper).
//!
//! Given the last `n` received heartbeats with sequence numbers `s_i` and
//! arrival times `A_i`, the expected arrival of the next heartbeat
//! (sequence `l + 1`, where `l` is the largest sequence seen) is
//!
//! ```text
//! EA_{l+1} = (1/n) Σ (A_i − Δi · s_i)  +  (l + 1) · Δi
//! ```
//!
//! i.e. each arrival is normalized back to a "sequence-zero arrival
//! offset" (which, with honest clocks, is just that message's one-way
//! delay), the offsets are averaged, and the average is projected forward
//! to the next sequence number.
//!
//! [`ChenEstimator`] maintains this in O(1) per heartbeat with a
//! [`SumWindow`] over the normalized offsets — the window *size* is the
//! whole subject of the paper's Figure 4/5 sweep, and running two of
//! these with different sizes side by side is exactly the 2W-FD. The
//! window keeps each offset in four bytes while it can, and its sum and
//! mean are exact either way.
//!
//! The arithmetic is total: an offset beyond `i64` (a `seq` near 2^64,
//! hostile or corrupt) is clamped, `l + 1` is taken in `f64`, and a
//! projection past `u64::MAX` saturates there. For every `seq < 2^53`
//! with an in-range offset the results are those of the plain formula.

use crate::window::SumWindow;
use twofd_sim::time::{Nanos, Span};

/// O(1) sliding-window implementation of Chen's Eq. 2.
#[derive(Debug, Clone)]
pub struct ChenEstimator {
    /// Normalized offsets `A_i − Δi·s_i`, in nanoseconds.
    offsets: SumWindow,
    /// Heartbeat interval Δi.
    interval: Span,
    /// Largest sequence number seen so far (`None` before any sample).
    last_seq: Option<u64>,
}

impl ChenEstimator {
    /// Creates an estimator with window capacity `n` (must be positive).
    pub fn new(window: usize, interval: Span) -> Self {
        assert!(!interval.is_zero(), "heartbeat interval must be positive");
        ChenEstimator {
            offsets: SumWindow::new(window),
            interval,
            last_seq: None,
        }
    }

    /// Records the arrival of heartbeat `seq` at `arrival`.
    ///
    /// Samples may be offered in any order; each contributes its
    /// normalized offset to the window. `last_seq` tracks the maximum.
    pub fn observe(&mut self, seq: u64, arrival: Nanos) {
        self.record(seq, arrival);
    }

    /// [`observe`](Self::observe), then returns the expected arrival of
    /// heartbeat `l + 1`, which exists once a sample does.
    #[inline]
    pub(crate) fn observe_and_project(&mut self, seq: u64, arrival: Nanos) -> Nanos {
        let l = self.record(seq, arrival);
        // The window holds at least the sample just pushed.
        let mean_offset = self.offsets.sum() as f64 / self.offsets.len() as f64;
        self.project(mean_offset, l as f64 + 1.0)
    }

    /// Pushes the sample's normalized offset and returns the new `l`.
    #[inline]
    fn record(&mut self, seq: u64, arrival: Nanos) -> u64 {
        // Normalized offset: arrival − Δi·seq. With u64 nanos this is
        // delay-sized and non-negative for honest traces, but clock skew
        // could make it negative, and a huge `seq` (a hostile or corrupt
        // heartbeat) could take it past i64. Compute in i128 and clamp.
        let offset = i128::from(arrival.0) - i128::from(self.interval.0) * i128::from(seq);
        self.offsets
            .push(offset.clamp(i128::from(i64::MIN), i128::from(i64::MAX)) as i64);
        let l = self.last_seq.map_or(seq, |l| l.max(seq));
        self.last_seq = Some(l);
        l
    }

    /// Expected arrival time of heartbeat `l + 1` (Eq. 2), or `None`
    /// before the first sample.
    pub fn expected_next_arrival(&self) -> Option<Nanos> {
        let l = self.last_seq?;
        Some(self.project(self.offsets.mean()?, l as f64 + 1.0))
    }

    /// Expected arrival of an arbitrary future sequence number.
    pub fn expected_arrival_of(&self, seq: u64) -> Option<Nanos> {
        Some(self.project(self.offsets.mean()?, seq as f64))
    }

    /// `mean_offset + seq·Δi` as an instant. `seq` is an `f64` so that
    /// `l + 1` cannot overflow at `l = u64::MAX`; it is exact below 2^53.
    #[inline]
    fn project(&self, mean_offset: f64, seq: f64) -> Nanos {
        let ea = mean_offset + seq * self.interval.0 as f64;
        // A wildly skewed clock could push the projection negative;
        // clamp to the epoch. A projection past u64::MAX saturates.
        Nanos(ea.max(0.0).round() as u64)
    }

    /// Largest sequence number observed.
    pub fn last_seq(&self) -> Option<u64> {
        self.last_seq
    }

    /// Number of samples currently in the window.
    pub fn len(&self) -> usize {
        self.offsets.len()
    }

    /// True before the first observation.
    pub fn is_empty(&self) -> bool {
        self.offsets.is_empty()
    }

    /// The configured window capacity.
    pub fn window(&self) -> usize {
        self.offsets.capacity()
    }

    /// The heartbeat interval Δi this estimator assumes.
    pub fn interval(&self) -> Span {
        self.interval
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    const DI: Span = Span(100_000_000); // 100 ms

    #[test]
    fn empty_estimator_has_no_estimate() {
        let e = ChenEstimator::new(10, DI);
        assert!(e.is_empty());
        assert_eq!(e.expected_next_arrival(), None);
        assert_eq!(e.last_seq(), None);
    }

    #[test]
    fn constant_delay_predicts_exactly() {
        let mut e = ChenEstimator::new(100, DI);
        // Heartbeat i sent at i·Δi, arrives after a constant 12 ms.
        for seq in 1..=50u64 {
            e.observe(seq, Nanos(seq * DI.0 + 12_000_000));
        }
        let ea = e.expected_next_arrival().unwrap();
        assert_eq!(ea, Nanos(51 * DI.0 + 12_000_000));
    }

    #[test]
    fn window_one_tracks_only_latest() {
        let mut e = ChenEstimator::new(1, DI);
        e.observe(1, Nanos(DI.0 + 10_000_000));
        e.observe(2, Nanos(2 * DI.0 + 50_000_000)); // delay jumps to 50 ms
        let ea = e.expected_next_arrival().unwrap();
        // Only the latest offset (50 ms) matters.
        assert_eq!(ea, Nanos(3 * DI.0 + 50_000_000));
    }

    #[test]
    fn large_window_averages() {
        let mut e = ChenEstimator::new(2, DI);
        e.observe(1, Nanos(DI.0 + 10_000_000));
        e.observe(2, Nanos(2 * DI.0 + 30_000_000));
        // Mean offset = 20 ms.
        assert_eq!(
            e.expected_next_arrival().unwrap(),
            Nanos(3 * DI.0 + 20_000_000)
        );
    }

    #[test]
    fn skipped_sequences_project_correctly() {
        let mut e = ChenEstimator::new(10, DI);
        e.observe(1, Nanos(DI.0 + 5_000_000));
        e.observe(5, Nanos(5 * DI.0 + 5_000_000)); // 2..4 lost
        assert_eq!(e.last_seq(), Some(5));
        assert_eq!(
            e.expected_next_arrival().unwrap(),
            Nanos(6 * DI.0 + 5_000_000)
        );
    }

    #[test]
    fn out_of_order_arrivals_keep_max_seq() {
        let mut e = ChenEstimator::new(10, DI);
        e.observe(3, Nanos(3 * DI.0 + 5_000_000));
        e.observe(2, Nanos(3 * DI.0 + 6_000_000)); // late straggler
        assert_eq!(e.last_seq(), Some(3));
        // Projection still targets seq 4.
        let ea = e.expected_next_arrival().unwrap();
        assert!(ea > Nanos(4 * DI.0));
    }

    #[test]
    fn expected_arrival_of_specific_seq() {
        let mut e = ChenEstimator::new(10, DI);
        e.observe(1, Nanos(DI.0 + 7_000_000));
        assert_eq!(
            e.expected_arrival_of(10).unwrap(),
            Nanos(10 * DI.0 + 7_000_000)
        );
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn rejects_zero_interval() {
        ChenEstimator::new(1, Span::ZERO);
    }

    proptest! {
        /// The O(1) implementation must agree with a direct evaluation of
        /// Eq. 2 over the retained samples.
        #[test]
        fn matches_direct_eq2(
            delays in prop::collection::vec(0u64..500_000_000, 1..100),
            window in 1usize..20,
        ) {
            let mut e = ChenEstimator::new(window, DI);
            let mut samples: Vec<(u64, u64)> = Vec::new(); // (seq, arrival)
            for (i, &d) in delays.iter().enumerate() {
                let seq = i as u64 + 1;
                let arrival = seq * DI.0 + d;
                e.observe(seq, Nanos(arrival));
                samples.push((seq, arrival));
                if samples.len() > window {
                    samples.remove(0);
                }

                // Direct Eq. 2.
                let n = samples.len() as f64;
                let l = samples.iter().map(|&(s, _)| s).max().unwrap();
                let mean_offset: f64 = samples
                    .iter()
                    .map(|&(s, a)| a as f64 - DI.0 as f64 * s as f64)
                    .sum::<f64>() / n;
                let direct = mean_offset + (l + 1) as f64 * DI.0 as f64;

                let got = e.expected_next_arrival().unwrap().0 as f64;
                prop_assert!((got - direct).abs() <= 1.0, "got {got}, direct {direct}");
            }
        }
    }
}
