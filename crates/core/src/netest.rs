//! Online estimation of network behaviour (§V-A.1 of the paper).
//!
//! A live failure-detection service cannot be handed `pL` and `V(D)` —
//! it estimates them from the heartbeat stream itself:
//!
//! * `pL` — count missing sequence numbers against the highest sequence
//!   number seen;
//! * `V(D)` — variance of `A − S` (receive time minus sender timestamp)
//!   over a sliding window. Clock skew shifts every `A − S` by the same
//!   constant, so the *variance* is unaffected — the paper's key remark.
//!
//! [`NetworkEstimator`] feeds [`crate::qos::configure`] in adaptive
//! deployments: re-run the procedure periodically with the current
//! estimates and the detector re-tunes itself to the network.

use crate::qos::NetworkBehavior;
use crate::window::MomentsWindow;
use twofd_sim::time::Nanos;

/// Sliding estimator of `(pL, V(D))` from observed heartbeats.
#[derive(Debug, Clone)]
pub struct NetworkEstimator {
    delays: MomentsWindow,
    highest_seq: u64,
    received: u64,
}

impl NetworkEstimator {
    /// Creates an estimator keeping `window` delay samples.
    pub fn new(window: usize) -> Self {
        NetworkEstimator {
            delays: MomentsWindow::new(window),
            highest_seq: 0,
            received: 0,
        }
    }

    /// Records the delivery of heartbeat `seq`, timestamped `send` by the
    /// sender's clock and received at `arrival` on the local clock.
    pub fn observe(&mut self, seq: u64, send: Nanos, arrival: Nanos) {
        self.received += 1;
        self.highest_seq = self.highest_seq.max(seq);
        // A − S may be negative under clock skew; carry it as signed
        // seconds — only the variance is consumed.
        let delta = arrival.0 as f64 - send.0 as f64;
        self.delays.push(delta / 1e9);
    }

    /// Estimated loss probability: missing heartbeats over the highest
    /// sequence number seen (0 before any delivery).
    pub fn loss_estimate(&self) -> f64 {
        if self.highest_seq == 0 {
            return 0.0;
        }
        let missing = self.highest_seq.saturating_sub(self.received);
        (missing as f64 / self.highest_seq as f64).clamp(0.0, 0.999_999)
    }

    /// Estimated delay variance `V(D)` in seconds² (0 before two
    /// samples).
    fn delay_variance(&self) -> f64 {
        self.delays.variance().unwrap_or(0.0)
    }

    /// Heartbeats observed so far.
    pub fn observed(&self) -> u64 {
        self.received
    }

    /// The current `(pL, V(D))` snapshot for the configuration procedure.
    pub fn behavior(&self) -> NetworkBehavior {
        NetworkBehavior::new(self.loss_estimate(), self.delay_variance())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twofd_sim::time::Span;

    const DI: u64 = 100_000_000; // 100 ms in nanos

    fn feed(est: &mut NetworkEstimator, seq: u64, delay_ms: u64) {
        let send = Nanos(seq * DI);
        est.observe(seq, send, send + Span::from_millis(delay_ms));
    }

    #[test]
    fn fresh_estimator_reports_zeroes() {
        let e = NetworkEstimator::new(100);
        assert_eq!(e.loss_estimate(), 0.0);
        assert_eq!(e.delay_variance(), 0.0);
        assert_eq!(e.observed(), 0);
    }

    #[test]
    fn loss_counted_from_sequence_gaps() {
        let mut e = NetworkEstimator::new(100);
        for seq in [1u64, 2, 3, 5, 6, 8, 9, 10] {
            feed(&mut e, seq, 10);
        }
        // 10 sent (highest seq), 8 received → pL = 0.2.
        assert!((e.loss_estimate() - 0.2).abs() < 1e-12);
    }

    #[test]
    fn variance_matches_sample_spread() {
        let mut e = NetworkEstimator::new(100);
        // Delays alternate 10/30 ms → population variance (0.01)² = 1e-4.
        for seq in 1..=100u64 {
            feed(&mut e, seq, if seq % 2 == 0 { 10 } else { 30 });
        }
        assert!((e.delay_variance() - 1e-4).abs() < 1e-8);
    }

    #[test]
    fn clock_skew_does_not_affect_variance() {
        let mut plain = NetworkEstimator::new(100);
        let mut skewed = NetworkEstimator::new(100);
        for seq in 1..=50u64 {
            let send = Nanos(seq * DI);
            let delay = Span::from_millis(10 + (seq % 7));
            plain.observe(seq, send, send + delay);
            // Receiver clock 3 s ahead.
            skewed.observe(seq, send, send + delay + Span::from_secs(3));
        }
        assert!((plain.delay_variance() - skewed.delay_variance()).abs() < 1e-12);
    }

    #[test]
    fn negative_skew_handled() {
        let mut e = NetworkEstimator::new(10);
        // Receiver clock behind the sender: A − S negative.
        let send = Nanos::from_secs(100);
        e.observe(1, send, Nanos::from_secs(99));
        assert_eq!(e.delay_variance(), 0.0);
    }

    #[test]
    fn behavior_snapshot_combines_both() {
        let mut e = NetworkEstimator::new(100);
        for seq in [1u64, 2, 4, 5] {
            feed(&mut e, seq, if seq % 2 == 0 { 10 } else { 20 });
        }
        let b = e.behavior();
        assert!((b.loss_prob - 0.2).abs() < 1e-12);
        assert!(b.delay_var > 0.0);
    }

    #[test]
    fn window_slides() {
        let mut e = NetworkEstimator::new(4);
        for seq in 1..=100u64 {
            // Early delays huge, recent delays identical: a sliding
            // window must forget the early spread.
            feed(&mut e, seq, if seq < 90 { (seq % 50) * 10 } else { 10 });
        }
        assert!(e.delay_variance() < 1e-9);
    }
}
