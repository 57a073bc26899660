//! Bertier's failure detector (§II-B2 of the paper).
//!
//! Bertier et al. keep Chen's expected-arrival estimation (Eq. 2) but
//! replace the constant safety margin with a dynamic one adapted by
//! Jacobson's TCP-RTO estimation (Eqs. 3–6). On each fresh heartbeat
//! `m_l` received at `A_l`:
//!
//! ```text
//! error_l    = A_l − EA_l − delay_l
//! delay_l+1  = delay_l + γ·error_l
//! var_l+1    = var_l + γ·(|error_l| − var_l)
//! Δto_l+1    = β·delay_l+1 + φ·var_l+1
//! τ_l+1      = EA_l+1 + Δto_l+1
//! ```
//!
//! The algorithm has no free tuning knob (γ, β, φ are fixed constants),
//! which is why the paper plots it as a single point in Figures 6/7.

use crate::detector::{Decision, FailureDetector, FreshnessState};
use crate::estimator::ChenEstimator;
use twofd_sim::time::{Nanos, Span};

/// Jacobson-adaptation constants. The paper: "Parameter γ represents the
/// importance of a new measure … typical values are β [= 1] and φ = 4";
/// Bertier et al. use γ = 0.1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BertierParams {
    /// Weight of a new error measurement.
    pub gamma: f64,
    /// Weight of the smoothed error ("delay") in the margin.
    pub beta: f64,
    /// Weight of the error variability in the margin.
    pub phi: f64,
}

impl Default for BertierParams {
    fn default() -> Self {
        BertierParams {
            gamma: 0.1,
            beta: 1.0,
            phi: 4.0,
        }
    }
}

/// Bertier's adaptive failure detector.
#[derive(Debug, Clone)]
pub struct BertierFd {
    estimator: ChenEstimator,
    params: BertierParams,
    /// Smoothed estimation error ("delay_l"), seconds.
    smoothed_error: f64,
    /// Error variability ("var_l"), seconds.
    variability: f64,
    /// EA_l: the prediction made for the message we are waiting for.
    predicted_arrival: Option<Nanos>,
    state: FreshnessState,
}

impl BertierFd {
    /// Creates the detector with the standard constants and the given
    /// estimation window (the paper's comparison uses 1000).
    pub fn new(window: usize, interval: Span) -> Self {
        Self::with_params(window, interval, BertierParams::default())
    }

    /// Creates the detector with explicit Jacobson constants.
    pub fn with_params(window: usize, interval: Span, params: BertierParams) -> Self {
        assert!(params.gamma > 0.0 && params.gamma <= 1.0, "gamma in (0,1]");
        BertierFd {
            estimator: ChenEstimator::new(window, interval),
            params,
            smoothed_error: 0.0,
            variability: 0.0,
            predicted_arrival: None,
            state: FreshnessState::default(),
        }
    }

    /// The current dynamic safety margin Δto, in seconds.
    pub fn current_margin_secs(&self) -> f64 {
        (self.params.beta * self.smoothed_error + self.params.phi * self.variability).max(0.0)
    }

    /// The configured estimation window size.
    pub fn window(&self) -> usize {
        self.estimator.window()
    }
}

impl FailureDetector for BertierFd {
    fn name(&self) -> String {
        format!("bertier({})", self.estimator.window())
    }

    fn on_heartbeat(&mut self, seq: u64, arrival: Nanos) -> Option<Decision> {
        if !self.state.accept(seq) {
            return None;
        }
        // Eq. 3: estimation error of *this* arrival against the
        // prediction made when the previous heartbeat was processed.
        // For the very first heartbeat there is no prediction; the error
        // is defined as zero so the margin starts from rest.
        if let Some(ea) = self.predicted_arrival {
            let error = arrival.as_secs_f64() - ea.as_secs_f64() - self.smoothed_error;
            // Eqs. 4–5.
            self.smoothed_error += self.params.gamma * error;
            self.variability += self.params.gamma * (error.abs() - self.variability);
        }
        let ea_next = self.estimator.observe_and_project(seq, arrival);
        self.predicted_arrival = Some(ea_next);
        // Eq. 6 (margin floored at zero: a negative timeout would mean
        // suspecting before the expected arrival, which the algorithm
        // never intends).
        let margin = Span::from_secs_f64(self.current_margin_secs());
        let d = Decision {
            trust_until: ea_next.saturating_add(margin),
        };
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

    #[test]
    fn first_heartbeat_has_zero_margin() {
        let mut fd = BertierFd::new(10, DI);
        let d = fd.on_heartbeat(1, arrival(1, 10)).unwrap();
        // No error history yet: τ_2 = EA_2 exactly.
        assert_eq!(d.trust_until, Nanos(2 * DI.0 + 10_000_000));
        assert_eq!(fd.current_margin_secs(), 0.0);
    }

    #[test]
    fn steady_arrivals_keep_margin_tiny() {
        let mut fd = BertierFd::new(100, DI);
        for seq in 1..=200u64 {
            fd.on_heartbeat(seq, arrival(seq, 10));
        }
        // Perfectly periodic arrivals → errors are ~0 → margin ~0.
        assert!(
            fd.current_margin_secs() < 1e-6,
            "{}",
            fd.current_margin_secs()
        );
    }

    #[test]
    fn jitter_grows_the_margin() {
        let mut fd = BertierFd::new(100, DI);
        for seq in 1..=200u64 {
            // Alternating 5 ms / 45 ms delays: persistent estimation error.
            let delay = if seq % 2 == 0 { 5 } else { 45 };
            fd.on_heartbeat(seq, arrival(seq, delay));
        }
        // The φ·var term must have picked up the ~±20 ms oscillation.
        assert!(
            fd.current_margin_secs() > 0.02,
            "margin {}",
            fd.current_margin_secs()
        );
    }

    #[test]
    fn margin_adapts_downward_after_stabilization() {
        let mut fd = BertierFd::new(10, DI);
        for seq in 1..=50u64 {
            let delay = if seq % 2 == 0 { 5 } else { 45 };
            fd.on_heartbeat(seq, arrival(seq, delay));
        }
        let noisy = fd.current_margin_secs();
        for seq in 51..=400u64 {
            fd.on_heartbeat(seq, arrival(seq, 10));
        }
        let calm = fd.current_margin_secs();
        assert!(calm < noisy / 4.0, "calm {calm} vs noisy {noisy}");
    }

    #[test]
    fn stale_messages_ignored() {
        let mut fd = BertierFd::new(10, DI);
        fd.on_heartbeat(3, arrival(3, 10)).unwrap();
        assert!(fd.on_heartbeat(2, arrival(3, 12)).is_none());
    }

    #[test]
    #[should_panic(expected = "gamma in (0,1]")]
    fn rejects_bad_gamma() {
        BertierFd::with_params(
            10,
            DI,
            BertierParams {
                gamma: 0.0,
                beta: 1.0,
                phi: 4.0,
            },
        );
    }

    #[test]
    fn name_includes_window() {
        assert_eq!(BertierFd::new(1000, DI).name(), "bertier(1000)");
    }
}
