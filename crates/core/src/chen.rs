//! Chen's failure detector (NFD-E variant, §II-B1 of the paper).
//!
//! On every fresh heartbeat `m_l`, the next freshness point is
//! `τ_{l+1} = EA_{l+1} + Δto` (Eq. 1), with `EA_{l+1}` estimated over a
//! sliding window of the last `n` arrivals (Eq. 2). The detector trusts
//! the monitored process exactly while some received message is still
//! fresh, i.e. until `τ_{l+1}`.
//!
//! `Δto` is the constant safety margin chosen from the application's
//! detection-time requirement; sweeping it produces the detection-time
//! axis of Figures 4–7.

use crate::detector::{Decision, FailureDetector, FreshnessState};
use crate::estimator::ChenEstimator;
use twofd_sim::time::{Nanos, Span};

/// Chen's QoS failure detector.
#[derive(Debug, Clone)]
pub struct ChenFd {
    estimator: ChenEstimator,
    safety_margin: Span,
    state: FreshnessState,
}

impl ChenFd {
    /// Creates the detector.
    ///
    /// * `window` — number of past arrivals used by Eq. 2 (the paper's
    ///   comparison uses 1 and 1000).
    /// * `interval` — the sender's heartbeat interval Δi.
    /// * `safety_margin` — the constant Δto of Eq. 1.
    pub fn new(window: usize, interval: Span, safety_margin: Span) -> Self {
        ChenFd {
            estimator: ChenEstimator::new(window, interval),
            safety_margin,
            state: FreshnessState::default(),
        }
    }

    /// The configured sliding-window size.
    pub fn window(&self) -> usize {
        self.estimator.window()
    }

    /// The configured safety margin Δto.
    pub fn safety_margin(&self) -> Span {
        self.safety_margin
    }

    /// The next freshness point `τ_{l+1}`, if any heartbeat was seen.
    pub fn next_freshness_point(&self) -> Option<Nanos> {
        self.state.decision.map(|d| d.trust_until)
    }
}

impl FailureDetector for ChenFd {
    fn name(&self) -> String {
        format!("chen({})", self.estimator.window())
    }

    fn on_heartbeat(&mut self, seq: u64, arrival: Nanos) -> Option<Decision> {
        if !self.state.accept(seq) {
            return None;
        }
        let ea = self.estimator.observe_and_project(seq, arrival);
        let d = Decision {
            trust_until: ea.saturating_add(self.safety_margin),
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
    use crate::detector::FdOutput;

    const DI: Span = Span(100_000_000); // 100 ms
    const DTO: Span = Span(30_000_000); // 30 ms

    fn arrival(seq: u64, delay_ms: u64) -> Nanos {
        Nanos(seq * DI.0 + delay_ms * 1_000_000)
    }

    #[test]
    fn freshness_point_is_ea_plus_margin() {
        let mut fd = ChenFd::new(10, DI, DTO);
        let d = fd.on_heartbeat(1, arrival(1, 10)).unwrap();
        // EA_2 = 2·Δi + 10 ms; τ_2 = EA_2 + 30 ms.
        assert_eq!(d.trust_until, Nanos(2 * DI.0 + 40_000_000));
        assert_eq!(fd.next_freshness_point(), Some(d.trust_until));
    }

    #[test]
    fn trusts_until_freshness_point_then_suspects() {
        let mut fd = ChenFd::new(10, DI, DTO);
        let d = fd.on_heartbeat(1, arrival(1, 10)).unwrap();
        assert_eq!(fd.output_at(arrival(1, 10)), FdOutput::Trust);
        assert_eq!(fd.output_at(d.trust_until - Span(1)), FdOutput::Trust);
        assert_eq!(fd.output_at(d.trust_until), FdOutput::Suspect);
    }

    #[test]
    fn late_heartbeat_restores_trust() {
        let mut fd = ChenFd::new(10, DI, DTO);
        fd.on_heartbeat(1, arrival(1, 10)).unwrap();
        // Heartbeat 2 is very late (arrives 80 ms after its send).
        let d2 = fd.on_heartbeat(2, arrival(2, 80)).unwrap();
        assert!(d2.trust_until > arrival(2, 80));
        assert_eq!(fd.output_at(arrival(2, 80)), FdOutput::Trust);
    }

    #[test]
    fn window_one_adapts_instantly_window_large_slowly() {
        let mut small = ChenFd::new(1, DI, DTO);
        let mut large = ChenFd::new(1000, DI, DTO);
        for seq in 1..=100u64 {
            small.on_heartbeat(seq, arrival(seq, 10));
            large.on_heartbeat(seq, arrival(seq, 10));
        }
        // Sudden delay jump to 60 ms.
        let ds = small.on_heartbeat(101, arrival(101, 60)).unwrap();
        let dl = large.on_heartbeat(101, arrival(101, 60)).unwrap();
        // Small window projects the full 60 ms forward; the large window
        // has barely moved from 10 ms.
        assert_eq!(ds.trust_until, Nanos(102 * DI.0 + 90_000_000));
        assert!(dl.trust_until < ds.trust_until);
        assert!(dl.trust_until >= Nanos(102 * DI.0 + 40_000_000));
    }

    #[test]
    fn stale_messages_do_not_move_the_freshness_point() {
        let mut fd = ChenFd::new(10, DI, DTO);
        fd.on_heartbeat(5, arrival(5, 10)).unwrap();
        let tau = fd.next_freshness_point().unwrap();
        assert!(fd.on_heartbeat(4, arrival(5, 20)).is_none());
        assert_eq!(fd.next_freshness_point(), Some(tau));
    }

    #[test]
    fn zero_margin_is_allowed() {
        let mut fd = ChenFd::new(1, DI, Span::ZERO);
        let d = fd.on_heartbeat(1, arrival(1, 10)).unwrap();
        assert_eq!(d.trust_until, Nanos(2 * DI.0 + 10_000_000));
    }

    #[test]
    fn name_includes_window() {
        assert_eq!(ChenFd::new(1000, DI, DTO).name(), "chen(1000)");
    }
}
