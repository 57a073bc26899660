//! The Exponential Distribution failure detector (§II-B4 of the paper).
//!
//! Same accrual principle as the φ FD, but the inter-arrival distribution
//! is modelled as exponential (Eqs. 10–11):
//!
//! ```text
//! e_d = F(T_now − T_last),   F(t) = 1 − e^{−t/μ}
//! ```
//!
//! with `μ` the windowed mean inter-arrival time. Suspicion starts when
//! `e_d` reaches a threshold `E ∈ (0, 1)`. To put ED on the same sweep
//! axis as the φ FD, the threshold is expressed here as an exponent
//! `κ` with `E = 1 − 10^{−κ}`, giving the closed-form timeout
//! `Δ = −μ·ln(1 − E) = μ·κ·ln 10`.

use crate::detector::{Decision, FailureDetector, FreshnessState};
use crate::window::MomentsWindow;
use twofd_sim::time::{Nanos, Span};

/// Configuration of the ED detector.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EdConfig {
    /// Inter-arrival sampling-window size (paper: 1000).
    pub window: usize,
    /// Threshold exponent κ; the suspicion threshold is `E = 1 − 10^{−κ}`.
    pub kappa: f64,
    /// Timeout granted after the very first heartbeat.
    pub bootstrap: Span,
}

/// The Exponential Distribution accrual failure detector.
#[derive(Debug, Clone)]
pub struct EdFd {
    config: EdConfig,
    interarrivals: MomentsWindow,
    last_arrival: Option<Nanos>,
    state: FreshnessState,
}

impl EdFd {
    /// Creates the detector.
    ///
    /// # Panics
    /// If `kappa` is not positive.
    pub fn new(config: EdConfig) -> Self {
        assert!(config.kappa > 0.0, "kappa must be positive");
        EdFd {
            interarrivals: MomentsWindow::new(config.window),
            config,
            last_arrival: None,
            state: FreshnessState::default(),
        }
    }

    /// Convenience constructor with the paper's window default.
    pub fn with_kappa(window: usize, kappa: f64) -> Self {
        EdFd::new(EdConfig {
            window,
            kappa,
            bootstrap: Span::from_secs(2),
        })
    }

    /// The effective threshold `E = 1 − 10^{−κ}`.
    pub fn threshold(&self) -> f64 {
        1.0 - 10f64.powf(-self.config.kappa)
    }
}

impl FailureDetector for EdFd {
    fn name(&self) -> String {
        format!(
            "ed({},κ={:.2})",
            self.interarrivals.capacity(),
            self.config.kappa
        )
    }

    fn on_heartbeat(&mut self, seq: u64, arrival: Nanos) -> Option<Decision> {
        if !self.state.accept(seq) {
            return None;
        }
        if let Some(last) = self.last_arrival {
            self.interarrivals
                .push(arrival.saturating_since(last).as_secs_f64());
        }
        self.last_arrival = Some(arrival);
        let trust_until = match self.interarrivals.mean() {
            Some(mean) if mean > 0.0 => {
                // Δ = −μ ln(1 − E) = μ·κ·ln(10).
                let timeout = mean * self.config.kappa * core::f64::consts::LN_10;
                arrival + Span::from_secs_f64(timeout)
            }
            _ => arrival + self.config.bootstrap,
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

    const DI: Span = Span(100_000_000); // 100 ms

    fn arrival(seq: u64, delay_ms: u64) -> Nanos {
        Nanos(seq * DI.0 + delay_ms * 1_000_000)
    }

    fn warmed_up(kappa: f64) -> EdFd {
        let mut fd = EdFd::with_kappa(1000, kappa);
        for seq in 1..=200u64 {
            fd.on_heartbeat(seq, arrival(seq, 10));
        }
        fd
    }

    #[test]
    fn bootstrap_applies_before_any_interarrival() {
        let mut fd = EdFd::new(EdConfig {
            window: 10,
            kappa: 1.0,
            bootstrap: Span::from_secs(5),
        });
        let d = fd.on_heartbeat(1, arrival(1, 10)).unwrap();
        assert_eq!(d.trust_until, arrival(1, 10) + Span::from_secs(5));
    }

    #[test]
    fn timeout_is_mu_kappa_ln10() {
        let mut fd = warmed_up(2.0);
        let a = arrival(201, 10);
        let d = fd.on_heartbeat(201, a).unwrap();
        // μ = 100 ms exactly (periodic arrivals with constant delay).
        let expected = 0.1 * 2.0 * core::f64::consts::LN_10;
        let got = (d.trust_until - a).as_secs_f64();
        assert!(
            (got - expected).abs() < 1e-6,
            "got {got}, expected {expected}"
        );
    }

    #[test]
    fn larger_kappa_is_more_conservative() {
        let mut a = warmed_up(0.5);
        let mut c = warmed_up(5.0);
        let da = a.on_heartbeat(201, arrival(201, 10)).unwrap();
        let dc = c.on_heartbeat(201, arrival(201, 10)).unwrap();
        assert!(dc.trust_until > da.trust_until);
    }

    #[test]
    fn lost_heartbeats_inflate_mu_and_timeout() {
        let mut steady = warmed_up(1.0);
        let mut lossy = warmed_up(1.0);
        // Feed `lossy` every other heartbeat only: inter-arrivals double.
        for seq in 201..=400u64 {
            steady.on_heartbeat(seq, arrival(seq, 10));
            if seq % 2 == 0 {
                lossy.on_heartbeat(seq, arrival(seq, 10));
            }
        }
        let ds = steady.on_heartbeat(401, arrival(401, 10)).unwrap();
        let dl = lossy.on_heartbeat(401, arrival(401, 10)).unwrap();
        let ts = (ds.trust_until - arrival(401, 10)).as_secs_f64();
        let tl = (dl.trust_until - arrival(401, 10)).as_secs_f64();
        // The lossy window holds ~200 normal gaps (warm-up) plus ~100
        // doubled gaps, so μ grows by a third; the timeout must follow.
        assert!(tl > 1.25 * ts, "lossy timeout {tl} vs steady {ts}");
    }

    #[test]
    #[should_panic(expected = "kappa must be positive")]
    fn rejects_non_positive_kappa() {
        EdFd::with_kappa(10, -1.0);
    }
}
