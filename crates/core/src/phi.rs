//! The φ accrual failure detector (§II-B3 of the paper).
//!
//! Instead of a binary output, the φ FD maintains a *suspicion level*
//!
//! ```text
//! φ(T_now) = −log10( P_later(T_now − T_last) )
//! ```
//!
//! where `P_later` is the probability that a heartbeat arrives more than
//! the given time after the previous one, under a normal fit of the
//! windowed inter-arrival samples (Eqs. 7–9). A binary detector is
//! obtained by suspecting when `φ ≥ Φ` for a threshold Φ — the tuning
//! parameter the paper sweeps in Figures 6/7.
//!
//! Because `φ` is monotone in elapsed time, the threshold crossing has a
//! closed form: suspicion starts at `T_last + μ + σ·z(Φ)` where `z(Φ)`
//! is the standard-normal quantile of `1 − 10^{−Φ}`. That instant is this
//! implementation's [`Decision::trust_until`], which makes the φ FD
//! replayable through the same engine as the freshness-point detectors.

use crate::detector::{Decision, FailureDetector, FreshnessState};
use crate::math::{inverse_normal_cdf, normal_sf};
use crate::window::MomentsWindow;
use twofd_sim::time::{Nanos, Span};

/// Configuration of the φ accrual detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PhiConfig {
    /// Inter-arrival sampling-window size (paper: 1000).
    pub window: usize,
    /// Suspicion threshold Φ.
    pub threshold: f64,
    /// Lower clamp on the fitted standard deviation, seconds. Guards the
    /// degenerate perfectly-periodic case where σ → 0 would make the
    /// detector suspect the instant a heartbeat is microseconds late.
    pub min_std: f64,
    /// Timeout granted after the very first heartbeat, before any
    /// inter-arrival sample exists.
    pub bootstrap: Span,
}

impl PhiConfig {
    /// The paper's configuration: window 1000, with the given threshold.
    pub fn paper_default(threshold: f64) -> Self {
        PhiConfig {
            window: 1000,
            threshold,
            min_std: 1e-5,
            bootstrap: Span::from_secs(2),
        }
    }
}

/// The φ accrual failure detector.
#[derive(Debug, Clone)]
pub struct PhiAccrualFd {
    config: PhiConfig,
    interarrivals: MomentsWindow,
    last_arrival: Option<Nanos>,
    state: FreshnessState,
}

impl PhiAccrualFd {
    /// Creates the detector.
    ///
    /// # Panics
    /// If the threshold is not positive.
    pub fn new(config: PhiConfig) -> Self {
        assert!(config.threshold > 0.0, "phi threshold must be positive");
        assert!(config.min_std > 0.0, "min_std must be positive");
        PhiAccrualFd {
            interarrivals: MomentsWindow::new(config.window),
            config,
            last_arrival: None,
            state: FreshnessState::default(),
        }
    }

    /// Convenience constructor with the paper's defaults.
    pub fn with_threshold(window: usize, threshold: f64) -> Self {
        PhiAccrualFd::new(PhiConfig {
            window,
            ..PhiConfig::paper_default(threshold)
        })
    }

    /// Fitted inter-arrival mean/std-dev in seconds, if any samples.
    fn fit(&self) -> Option<(f64, f64)> {
        let mean = self.interarrivals.mean()?;
        let std = self
            .interarrivals
            .std_dev()
            .unwrap_or(0.0)
            .max(self.config.min_std);
        Some((mean, std))
    }

    /// The suspicion level φ at time `now` (Eq. 7); `None` before the
    /// first heartbeat, 0 before the first inter-arrival sample.
    pub fn phi(&self, now: Nanos) -> Option<f64> {
        let last = self.last_arrival?;
        let (mean, std) = match self.fit() {
            Some(f) => f,
            None => return Some(0.0),
        };
        let elapsed = now.saturating_since(last).as_secs_f64();
        let p_later = normal_sf(elapsed, mean, std).max(f64::MIN_POSITIVE);
        Some(-p_later.log10())
    }

    /// The elapsed time after which φ reaches the threshold: `μ + σ·z`
    /// with `z = Φ⁻¹(1 − 10^{−Φ})`, computed through the lower tail for
    /// numerical stability at large Φ.
    fn timeout_secs(&self, mean: f64, std: f64) -> f64 {
        let p_tail = 10f64.powf(-self.config.threshold).max(1e-300);
        // z such that SF(z) = p_tail  ⇔  z = −Φ⁻¹(p_tail).
        let z = -inverse_normal_cdf(p_tail);
        (mean + std * z).max(0.0)
    }

    /// The configured threshold Φ.
    pub fn threshold(&self) -> f64 {
        self.config.threshold
    }
}

impl FailureDetector for PhiAccrualFd {
    fn name(&self) -> String {
        format!(
            "phi({},Φ={:.2})",
            self.interarrivals.capacity(),
            self.config.threshold
        )
    }

    fn on_heartbeat(&mut self, seq: u64, arrival: Nanos) -> Option<Decision> {
        if !self.state.accept(seq) {
            return None;
        }
        if let Some(last) = self.last_arrival {
            // A reordered fresh message can in principle arrive at a
            // timestamp before the previous fresh arrival; clamp at zero.
            self.interarrivals
                .push(arrival.saturating_since(last).as_secs_f64());
        }
        self.last_arrival = Some(arrival);
        let trust_until = match self.fit() {
            Some((mean, std)) => arrival + Span::from_secs_f64(self.timeout_secs(mean, std)),
            None => arrival + self.config.bootstrap,
        };
        let d = Decision { trust_until };
        self.state.decision = Some(d);
        Some(d)
    }

    fn current_decision(&self) -> Option<Decision> {
        self.state.decision
    }

    fn last_seq(&self) -> Option<u64> {
        self.state.last_seq
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::detector::FdOutput;

    const DI: Span = Span(100_000_000); // 100 ms

    fn arrival(seq: u64, delay_ms: u64) -> Nanos {
        Nanos(seq * DI.0 + delay_ms * 1_000_000)
    }

    fn warmed_up(threshold: f64) -> PhiAccrualFd {
        // min_std of 20 ms keeps the z-values in these tests inside the
        // range where the normal tail is representable in f64.
        let mut fd = PhiAccrualFd::new(PhiConfig {
            window: 1000,
            threshold,
            min_std: 0.02,
            bootstrap: Span::from_secs(2),
        });
        for seq in 1..=500u64 {
            // Small jitter so sigma is realistic.
            let d = 10 + (seq % 5);
            fd.on_heartbeat(seq, arrival(seq, d));
        }
        fd
    }

    #[test]
    fn bootstrap_timeout_applies_to_first_heartbeat() {
        let mut fd = PhiAccrualFd::new(PhiConfig {
            window: 10,
            threshold: 1.0,
            min_std: 1e-5,
            bootstrap: Span::from_secs(3),
        });
        let d = fd.on_heartbeat(1, arrival(1, 10)).unwrap();
        assert_eq!(d.trust_until, arrival(1, 10) + Span::from_secs(3));
    }

    #[test]
    fn phi_grows_with_elapsed_time() {
        let fd = warmed_up(1.0);
        let last = arrival(500, 10);
        let phi_soon = fd.phi(last + Span::from_millis(50)).unwrap();
        let phi_later = fd.phi(last + Span::from_millis(300)).unwrap();
        let phi_much_later = fd.phi(last + Span::from_millis(700)).unwrap();
        assert!(phi_soon < phi_later);
        assert!(phi_later < phi_much_later);
        assert!(phi_much_later > 10.0);
    }

    #[test]
    fn threshold_crossing_matches_phi() {
        // trust_until must be (to numerical tolerance) the instant at
        // which phi() reaches the threshold.
        let threshold = 2.0;
        let mut fd = warmed_up(threshold);
        let d = fd.on_heartbeat(501, arrival(501, 12)).unwrap();
        let just_before = d.trust_until - Span::from_micros(200);
        let just_after = d.trust_until + Span::from_micros(200);
        assert!(fd.phi(just_before).unwrap() < threshold);
        assert!(fd.phi(just_after).unwrap() >= threshold * 0.999);
    }

    #[test]
    fn higher_threshold_waits_longer() {
        let mut aggressive = warmed_up(0.5);
        let mut conservative = warmed_up(8.0);
        let a = aggressive.on_heartbeat(501, arrival(501, 12)).unwrap();
        let c = conservative.on_heartbeat(501, arrival(501, 12)).unwrap();
        assert!(c.trust_until > a.trust_until);
    }

    #[test]
    fn very_large_threshold_stays_finite() {
        let mut fd = warmed_up(50.0);
        let d = fd.on_heartbeat(501, arrival(501, 12)).unwrap();
        assert!(d.trust_until > arrival(501, 12));
        assert!(d.trust_until < arrival(501, 12) + Span::from_secs(60));
    }

    #[test]
    fn min_std_bounds_aggressiveness() {
        // Perfectly periodic arrivals: sigma would be 0; min_std keeps
        // the timeout at least mean + z·min_std.
        let mut fd = PhiAccrualFd::new(PhiConfig {
            window: 100,
            threshold: 1.0,
            min_std: 0.01,
            bootstrap: Span::from_secs(2),
        });
        for seq in 1..=50u64 {
            fd.on_heartbeat(seq, arrival(seq, 10));
        }
        let (_, std) = fd.fit().unwrap();
        assert!((std - 0.01).abs() < 1e-12);
    }

    #[test]
    fn output_transitions_at_trust_until() {
        let mut fd = warmed_up(1.0);
        let d = fd.on_heartbeat(501, arrival(501, 10)).unwrap();
        assert_eq!(fd.output_at(d.trust_until - Span(1)), FdOutput::Trust);
        assert_eq!(fd.output_at(d.trust_until), FdOutput::Suspect);
    }

    #[test]
    fn stale_messages_ignored() {
        let mut fd = warmed_up(1.0);
        assert!(fd.on_heartbeat(400, arrival(501, 10)).is_none());
    }

    #[test]
    #[should_panic(expected = "threshold must be positive")]
    fn rejects_non_positive_threshold() {
        PhiAccrualFd::with_threshold(10, 0.0);
    }
}
