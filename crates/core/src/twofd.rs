//! The paper's contribution: the Two-Windows (Multiple-Windows) failure
//! detector.
//!
//! 2W-FD runs Chen's expected-arrival estimator over **two** sliding
//! windows simultaneously — a short-term one (size `n1`, paper best: 1)
//! that reacts instantly to bursts, and a long-term one (size `n2`, paper
//! best: 1000) that is immune to momentary fluctuations — and takes the
//! **maximum** of the two estimates when computing the freshness point
//! (Eq. 12):
//!
//! ```text
//! τ_{l+1} = max(EA_{l+1}(n1), EA_{l+1}(n2)) + Δto
//! ```
//!
//! Because the freshness point is never earlier than what either window
//! alone would produce, the detector only makes the mistakes *both*
//! single-window Chen detectors would make (Eq. 13):
//!
//! ```text
//! Mistakes(2W[n1,n2]) = Mistakes(Chen[n1]) ∩ Mistakes(Chen[n2])
//! ```
//!
//! [`MultiWindowFd`] generalizes to any number of windows; [`TwoWindowFd`]
//! is the two-window instantiation evaluated in the paper.

use crate::detector::{Decision, FailureDetector, FreshnessState};
use crate::estimator::ChenEstimator;
use twofd_sim::time::{Nanos, Span};

/// The per-window estimators. The two-window case — the detector the
/// paper evaluates and every fleet stream runs — keeps both inline, so a
/// heartbeat reaches them without leaving the detector; other window
/// counts live on the heap. Everything else sees one slice.
#[derive(Debug, Clone)]
enum Estimators {
    Two([ChenEstimator; 2]),
    Many(Vec<ChenEstimator>),
}

impl Estimators {
    #[inline]
    fn as_slice(&self) -> &[ChenEstimator] {
        match self {
            Estimators::Two(pair) => pair,
            Estimators::Many(all) => all,
        }
    }

    #[inline]
    fn as_mut_slice(&mut self) -> &mut [ChenEstimator] {
        match self {
            Estimators::Two(pair) => pair,
            Estimators::Many(all) => all,
        }
    }
}

/// The generalized Multiple-Windows failure detector.
#[derive(Debug, Clone)]
pub struct MultiWindowFd {
    estimators: Estimators,
    safety_margin: Span,
    state: FreshnessState,
}

impl MultiWindowFd {
    /// Creates a detector with one Chen estimator per entry of `windows`.
    ///
    /// # Panics
    /// If `windows` is empty or contains a zero size.
    pub fn new(windows: &[usize], interval: Span, safety_margin: Span) -> Self {
        assert!(!windows.is_empty(), "need at least one window");
        let estimators = match *windows {
            [n1, n2] => Estimators::Two([
                ChenEstimator::new(n1, interval),
                ChenEstimator::new(n2, interval),
            ]),
            _ => Estimators::Many(
                windows
                    .iter()
                    .map(|&w| ChenEstimator::new(w, interval))
                    .collect(),
            ),
        };
        MultiWindowFd {
            estimators,
            safety_margin,
            state: FreshnessState::default(),
        }
    }

    /// The configured window sizes.
    pub fn windows(&self) -> Vec<usize> {
        self.estimators
            .as_slice()
            .iter()
            .map(|e| e.window())
            .collect()
    }

    /// The configured safety margin Δto.
    pub fn safety_margin(&self) -> Span {
        self.safety_margin
    }

    /// Per-window expected next arrivals (for diagnostics / the window
    /// sweep experiment).
    pub fn expected_arrivals(&self) -> Vec<Option<Nanos>> {
        self.estimators
            .as_slice()
            .iter()
            .map(|e| e.expected_next_arrival())
            .collect()
    }
}

impl FailureDetector for MultiWindowFd {
    fn name(&self) -> String {
        let sizes: Vec<String> = self
            .estimators
            .as_slice()
            .iter()
            .map(|e| e.window().to_string())
            .collect();
        // hotpath:allow(alloc) — a label for reports and logs, built on
        // request; no heartbeat reaches it.
        if sizes.len() == 2 {
            format!("2w-fd({})", sizes.join(","))
        } else {
            format!("mw-fd({})", sizes.join(","))
        }
    }

    fn on_heartbeat(&mut self, seq: u64, arrival: Nanos) -> Option<Decision> {
        if !self.state.accept(seq) {
            return None;
        }
        let mut max_ea = Nanos::ZERO;
        for est in self.estimators.as_mut_slice() {
            max_ea = max_ea.max(est.observe_and_project(seq, arrival));
        }
        let d = Decision {
            trust_until: max_ea.saturating_add(self.safety_margin),
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

/// The Two-Windows failure detector exactly as evaluated in the paper.
///
/// ```
/// use twofd_core::{FailureDetector, FdOutput, TwoWindowFd};
/// use twofd_sim::{Nanos, Span};
///
/// let interval = Span::from_millis(100);
/// let mut fd = TwoWindowFd::new(1, 1000, interval, Span::from_millis(40));
///
/// // Heartbeat 1, sent at 100 ms, arrives after a 10 ms delay.
/// let d = fd.on_heartbeat(1, Nanos::from_millis(110)).unwrap();
/// // Trusted until max(EA(1), EA(1000)) + Δto = 250 ms.
/// assert_eq!(d.trust_until, Nanos::from_millis(250));
/// assert_eq!(fd.output_at(Nanos::from_millis(200)), FdOutput::Trust);
/// assert_eq!(fd.output_at(Nanos::from_millis(250)), FdOutput::Suspect);
/// ```
#[derive(Debug, Clone)]
pub struct TwoWindowFd(MultiWindowFd);

impl TwoWindowFd {
    /// Creates a 2W-FD with a short window `n1` and a long window `n2`.
    ///
    /// The paper's recommended configuration is `n1 = 1`, `n2 = 1000`.
    pub fn new(n1: usize, n2: usize, interval: Span, safety_margin: Span) -> Self {
        TwoWindowFd(MultiWindowFd::new(&[n1, n2], interval, safety_margin))
    }

    /// The paper's recommended configuration: windows of 1 and 1000.
    pub fn paper_default(interval: Span, safety_margin: Span) -> Self {
        TwoWindowFd::new(1, 1000, interval, safety_margin)
    }

    /// The two window sizes `(n1, n2)`.
    pub fn window_sizes(&self) -> (usize, usize) {
        let w = self.0.windows();
        (w[0], w[1])
    }

    /// The configured safety margin Δto.
    pub fn safety_margin(&self) -> Span {
        self.0.safety_margin()
    }
}

impl FailureDetector for TwoWindowFd {
    fn name(&self) -> String {
        self.0.name()
    }
    fn on_heartbeat(&mut self, seq: u64, arrival: Nanos) -> Option<Decision> {
        self.0.on_heartbeat(seq, arrival)
    }
    fn current_decision(&self) -> Option<Decision> {
        self.0.current_decision()
    }
    fn last_seq(&self) -> Option<u64> {
        self.0.last_seq()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chen::ChenFd;
    use proptest::prelude::*;

    const DI: Span = Span(100_000_000); // 100 ms
    const DTO: Span = Span(20_000_000); // 20 ms

    fn arrival(seq: u64, delay_ms: u64) -> Nanos {
        Nanos(seq * DI.0 + delay_ms * 1_000_000)
    }

    #[test]
    fn names() {
        assert_eq!(TwoWindowFd::new(1, 1000, DI, DTO).name(), "2w-fd(1,1000)");
        assert_eq!(
            MultiWindowFd::new(&[1, 10, 100], DI, DTO).name(),
            "mw-fd(1,10,100)"
        );
    }

    #[test]
    fn paper_default_windows() {
        let fd = TwoWindowFd::paper_default(DI, DTO);
        assert_eq!(fd.window_sizes(), (1, 1000));
    }

    #[test]
    #[should_panic(expected = "at least one window")]
    fn rejects_empty_window_list() {
        MultiWindowFd::new(&[], DI, DTO);
    }

    /// The defining invariant (Eq. 12): the 2W freshness point equals the
    /// max of the two single-window Chen freshness points, heartbeat by
    /// heartbeat — even with losses and delay jumps.
    #[test]
    fn freshness_point_is_pointwise_max_of_chen() {
        let mut two = TwoWindowFd::new(1, 5, DI, DTO);
        let mut c1 = ChenFd::new(1, DI, DTO);
        let mut c5 = ChenFd::new(5, DI, DTO);
        let delays = [10, 12, 80, 9, 200, 15, 14, 13, 300, 11, 10, 10];
        let mut seq = 0;
        for (i, &d) in delays.iter().enumerate() {
            seq += if i % 4 == 3 { 2 } else { 1 }; // occasional loss
            let a = arrival(seq, d);
            let dt = two.on_heartbeat(seq, a).unwrap();
            let d1 = c1.on_heartbeat(seq, a).unwrap();
            let d5 = c5.on_heartbeat(seq, a).unwrap();
            assert_eq!(
                dt.trust_until,
                d1.trust_until.max(d5.trust_until),
                "divergence at seq {seq}"
            );
        }
    }

    #[test]
    fn equal_windows_degenerate_to_chen() {
        let mut two = TwoWindowFd::new(7, 7, DI, DTO);
        let mut chen = ChenFd::new(7, DI, DTO);
        for seq in 1..=50u64 {
            let a = arrival(seq, 10 + (seq % 7) * 3);
            assert_eq!(
                two.on_heartbeat(seq, a).unwrap(),
                chen.on_heartbeat(seq, a).unwrap()
            );
        }
    }

    #[test]
    fn stale_messages_ignored() {
        let mut fd = TwoWindowFd::new(1, 10, DI, DTO);
        fd.on_heartbeat(5, arrival(5, 10)).unwrap();
        assert!(fd.on_heartbeat(3, arrival(5, 11)).is_none());
        assert_eq!(fd.last_seq(), Some(5));
    }

    /// Seq 1, then an absurd seq: the freshness point saturates at the
    /// far future. It used to panic in debug builds and, in release,
    /// wrap to 20 ms for a beat that arrived at 210 ms.
    #[test]
    fn huge_sequence_numbers_never_panic_or_wrap() {
        for huge in [1u64 << 40, 1 << 63, u64::MAX] {
            let mut fd = TwoWindowFd::paper_default(DI, DTO);
            fd.on_heartbeat(1, arrival(1, 10)).unwrap();
            let d = fd.on_heartbeat(huge, arrival(2, 10)).unwrap();
            assert_eq!(d.trust_until, Nanos(u64::MAX), "seq {huge}");
            assert!(fd.on_heartbeat(2, arrival(3, 10)).is_none());
            let mut chen = ChenFd::new(1000, DI, Span(u64::MAX));
            chen.on_heartbeat(1, arrival(1, 10)).unwrap();
            let d = chen.on_heartbeat(huge, arrival(2, 10)).unwrap();
            assert_eq!(d.trust_until, Nanos(u64::MAX));
        }
    }

    #[test]
    fn burst_recovery_short_window_dominates() {
        // After a burst of very slow heartbeats, the short window keeps
        // the freshness point far out while the long window would have
        // snapped back — 2W must follow the short window (the max).
        let mut two = TwoWindowFd::new(1, 100, DI, DTO);
        let mut long_only = ChenFd::new(100, DI, DTO);
        for seq in 1..=100u64 {
            two.on_heartbeat(seq, arrival(seq, 10));
            long_only.on_heartbeat(seq, arrival(seq, 10));
        }
        // Slow heartbeat: delay 400 ms.
        let d2 = two.on_heartbeat(101, arrival(101, 400)).unwrap();
        let dl = long_only.on_heartbeat(101, arrival(101, 400)).unwrap();
        assert!(d2.trust_until > dl.trust_until);
    }

    proptest! {
        /// Eq. 12 as a property over random traces, including losses and
        /// arbitrary window sizes.
        #[test]
        fn pointwise_max_property(
            delays in prop::collection::vec(0u64..400, 1..200),
            gaps in prop::collection::vec(1u64..4, 1..200),
            w1 in 1usize..50,
            w2 in 1usize..50,
        ) {
            let mut two = TwoWindowFd::new(w1, w2, DI, DTO);
            let mut a1 = ChenFd::new(w1, DI, DTO);
            let mut a2 = ChenFd::new(w2, DI, DTO);
            let mut seq = 0u64;
            for (d, g) in delays.iter().zip(gaps.iter().cycle()) {
                seq += g;
                let at = arrival(seq, *d);
                let dt = two.on_heartbeat(seq, at).unwrap().trust_until;
                let t1 = a1.on_heartbeat(seq, at).unwrap().trust_until;
                let t2 = a2.on_heartbeat(seq, at).unwrap().trust_until;
                prop_assert_eq!(dt, t1.max(t2));
            }
        }
    }
}
