//! Uniform construction of every detector in the paper's comparison —
//! the workspace's **single** detector-construction path.
//!
//! The evaluation sweeps each algorithm's tuning knob to trace out its
//! detection-time/accuracy curve: the safety margin `Δto` for Chen and
//! 2W-FD, the threshold `Φ` for the φ FD, the exponent `κ` for the ED FD
//! — and nothing for Bertier, which is parameter-free and appears as a
//! single point. [`DetectorSpec`] abstracts over "which algorithm, with
//! which window(s)" so the bench harnesses can iterate one list, and
//! every runtime layer (replay, the UDP monitor, the sharded fleet
//! runtime, the shared service) instantiates detectors through it:
//!
//! * [`DetectorSpec::build_any`] returns an [`AnyDetector`] — a closed
//!   enum over the five algorithms, statically dispatched via `match`.
//!   This is the hot-path constructor: an `AnyDetector` lives **inline**
//!   in whatever table owns it (no per-stream heap allocation) and its
//!   `observe`/`output` calls compile to a jump table instead of a
//!   vtable load, which matters when a shard owns tens of thousands of
//!   detectors.
//! * [`DetectorSpec::build`] boxes the same value as
//!   `Box<dyn FailureDetector + Send>` for callers that genuinely want
//!   type erasure (external plug-in detectors, tests of the `dyn` path).
//! * [`DetectorConfig`] pairs a spec with the two runtime inputs every
//!   build needs (heartbeat interval, tuning knob) so a complete
//!   construction recipe can travel through configs and across threads.
//!
//! Specs also have a canonical text form (`Display`/`FromStr`, the same
//! grammar `label()` prints) so they can live in config files.

use crate::bertier::BertierFd;
use crate::chen::ChenFd;
use crate::detector::{Decision, FailureDetector, FdOutput};
use crate::ed::EdFd;
use crate::impact::ImpactFd;
use crate::phi::PhiAccrualFd;
use crate::twofd::{MultiWindowFd, TwoWindowFd};
use std::fmt;
use std::str::FromStr;
use twofd_sim::time::{Nanos, Span};

/// An algorithm plus its structural (non-swept) parameters.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DetectorSpec {
    /// Chen's FD with the given estimation window.
    Chen {
        /// Sliding-window size for Eq. 2.
        window: usize,
    },
    /// Bertier's FD with the given estimation window (no tuning knob).
    Bertier {
        /// Sliding-window size for Eq. 2.
        window: usize,
    },
    /// The φ accrual FD with the given sampling window.
    Phi {
        /// Inter-arrival sampling-window size.
        window: usize,
    },
    /// The ED accrual FD with the given sampling window.
    Ed {
        /// Inter-arrival sampling-window size.
        window: usize,
    },
    /// The paper's 2W-FD with short window `n1` and long window `n2`.
    TwoWindow {
        /// Short (reactive) window size.
        n1: usize,
        /// Long (conservative) window size.
        n2: usize,
    },
    /// The generalized multi-window FD.
    MultiWindow {
        /// All window sizes.
        windows: Vec<usize>,
    },
    /// The Impact FD's per-process member detector: constant timeout
    /// `Δi + Δto`, carrying the process's impact factor for the
    /// federation tier's set-valued group aggregation.
    Impact {
        /// The process's impact factor (structural, not swept).
        factor: usize,
    },
}

impl Default for DetectorSpec {
    /// The paper's own configuration: 2W-FD with `n1 = 1`, `n2 = 1000`
    /// (§IV-C2's featured operating point).
    fn default() -> Self {
        DetectorSpec::TwoWindow { n1: 1, n2: 1000 }
    }
}

impl DetectorSpec {
    /// The full comparison set of §IV-C2 with the paper's window choices.
    pub fn paper_comparison() -> Vec<DetectorSpec> {
        vec![
            DetectorSpec::TwoWindow { n1: 1, n2: 1000 },
            DetectorSpec::Chen { window: 1 },
            DetectorSpec::Chen { window: 1000 },
            DetectorSpec::Phi { window: 1000 },
            DetectorSpec::Ed { window: 1000 },
            DetectorSpec::Bertier { window: 1000 },
        ]
    }

    /// Whether the algorithm has a tuning knob (`false` only for
    /// Bertier).
    pub fn has_tuning(&self) -> bool {
        !matches!(self, DetectorSpec::Bertier { .. })
    }

    /// A short display name without the tuning value.
    pub fn label(&self) -> String {
        match self {
            DetectorSpec::Chen { window } => format!("chen({window})"),
            DetectorSpec::Bertier { window } => format!("bertier({window})"),
            DetectorSpec::Phi { window } => format!("phi({window})"),
            DetectorSpec::Ed { window } => format!("ed({window})"),
            DetectorSpec::TwoWindow { n1, n2 } => format!("2w-fd({n1},{n2})"),
            DetectorSpec::MultiWindow { windows } => {
                let s: Vec<String> = windows.iter().map(|w| w.to_string()).collect();
                format!("mw-fd({})", s.join(","))
            }
            DetectorSpec::Impact { factor } => format!("impact({factor})"),
        }
    }

    /// Instantiates the detector inline, without boxing.
    ///
    /// `interval` is the sender's heartbeat interval Δi. `tuning` is the
    /// algorithm's swept knob: the safety margin Δto **in seconds** for
    /// Chen-family detectors, the threshold Φ for φ, the exponent κ for
    /// ED; it is ignored for Bertier.
    pub fn build_any(&self, interval: Span, tuning: f64) -> AnyDetector {
        let margin = Span::from_secs_f64(tuning.max(0.0));
        match self {
            DetectorSpec::Chen { window } => {
                AnyDetector::Chen(ChenFd::new(*window, interval, margin))
            }
            DetectorSpec::Bertier { window } => {
                AnyDetector::Bertier(BertierFd::new(*window, interval))
            }
            DetectorSpec::Phi { window } => {
                AnyDetector::Phi(PhiAccrualFd::with_threshold(*window, tuning))
            }
            DetectorSpec::Ed { window } => AnyDetector::Ed(EdFd::with_kappa(*window, tuning)),
            DetectorSpec::TwoWindow { n1, n2 } => {
                AnyDetector::TwoWindow(TwoWindowFd::new(*n1, *n2, interval, margin))
            }
            DetectorSpec::MultiWindow { windows } => {
                AnyDetector::MultiWindow(MultiWindowFd::new(windows, interval, margin))
            }
            DetectorSpec::Impact { factor } => {
                AnyDetector::Impact(ImpactFd::new(*factor, interval, margin))
            }
        }
    }

    /// Instantiates the detector behind a `Box<dyn FailureDetector>`.
    ///
    /// Compatibility constructor for callers that want type erasure (for
    /// example to mix paper detectors with external implementations of
    /// the trait). Runtime hot paths should prefer
    /// [`DetectorSpec::build_any`], which allocates nothing and
    /// dispatches statically.
    pub fn build(&self, interval: Span, tuning: f64) -> Box<dyn FailureDetector + Send> {
        Box::new(self.build_any(interval, tuning))
    }
}

impl fmt::Display for DetectorSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(&self.label())
    }
}

/// Why a detector-spec string failed to parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseSpecError {
    /// Human-readable explanation.
    pub reason: String,
}

impl fmt::Display for ParseSpecError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid detector spec: {}", self.reason)
    }
}

impl std::error::Error for ParseSpecError {}

impl FromStr for DetectorSpec {
    type Err = ParseSpecError;

    /// Parses the canonical `label()` grammar: `chen(W)`, `bertier(W)`,
    /// `phi(W)`, `ed(W)`, `2w-fd(N1,N2)`, `mw-fd(N1,N2,...)`.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let err = |reason: String| ParseSpecError { reason };
        let s = s.trim();
        let (name, rest) = s
            .split_once('(')
            .ok_or_else(|| err(format!("missing '(' in {s:?}")))?;
        let args = rest
            .strip_suffix(')')
            .ok_or_else(|| err(format!("missing ')' in {s:?}")))?;
        let windows: Vec<usize> = args
            .split(',')
            .map(|w| {
                w.trim()
                    .parse::<usize>()
                    .map_err(|_| err(format!("bad window {w:?} in {s:?}")))
            })
            .collect::<Result<_, _>>()?;
        let arity = |n: usize| {
            if windows.len() == n {
                Ok(())
            } else {
                Err(err(format!(
                    "{name} takes {n} window(s), got {}",
                    windows.len()
                )))
            }
        };
        match name.trim() {
            "chen" => arity(1).map(|()| DetectorSpec::Chen { window: windows[0] }),
            "bertier" => arity(1).map(|()| DetectorSpec::Bertier { window: windows[0] }),
            "phi" => arity(1).map(|()| DetectorSpec::Phi { window: windows[0] }),
            "ed" => arity(1).map(|()| DetectorSpec::Ed { window: windows[0] }),
            "2w-fd" => arity(2).map(|()| DetectorSpec::TwoWindow {
                n1: windows[0],
                n2: windows[1],
            }),
            "mw-fd" => {
                if windows.is_empty() {
                    Err(err("mw-fd needs at least one window".into()))
                } else {
                    Ok(DetectorSpec::MultiWindow { windows })
                }
            }
            "impact" => arity(1).map(|()| DetectorSpec::Impact { factor: windows[0] }),
            other => Err(err(format!("unknown algorithm {other:?}"))),
        }
    }
}

/// A complete detector-construction recipe: which algorithm
/// ([`DetectorSpec`]) plus the two runtime inputs every build needs.
///
/// This is the unit that travels through configuration — the sharded
/// fleet runtime, the UDP monitor and the service layer all accept it —
/// so "which detector watches this stream" is a value, not a closure.
#[derive(Debug, Clone, PartialEq)]
pub struct DetectorConfig {
    /// The algorithm and its structural parameters.
    pub spec: DetectorSpec,
    /// The sender's heartbeat interval Δi.
    pub interval: Span,
    /// The swept knob: Δto in seconds for the Chen family, Φ for φ, κ
    /// for ED (ignored for Bertier).
    pub tuning: f64,
}

impl Default for DetectorConfig {
    /// The paper's featured configuration: 2W-FD(1,1000) on the
    /// evaluation's 100 ms heartbeat interval with a 100 ms margin.
    fn default() -> Self {
        DetectorConfig {
            spec: DetectorSpec::default(),
            interval: Span::from_millis(100),
            tuning: 0.1,
        }
    }
}

impl DetectorConfig {
    /// Bundles a spec with its runtime inputs.
    pub fn new(spec: DetectorSpec, interval: Span, tuning: f64) -> Self {
        DetectorConfig {
            spec,
            interval,
            tuning,
        }
    }

    /// A recipe from the QoS configuration procedure's output: the
    /// derived `(Δi, Δto)` drive the spec's interval and margin knob.
    pub fn from_qos(spec: DetectorSpec, qos: &crate::qos::FdConfig) -> Self {
        DetectorConfig {
            spec,
            interval: qos.interval,
            tuning: qos.safety_margin.as_secs_f64(),
        }
    }

    /// Instantiates the detector inline (the hot-path constructor).
    pub fn build(&self) -> AnyDetector {
        self.spec.build_any(self.interval, self.tuning)
    }

    /// Instantiates the detector boxed (type-erasure compat path).
    pub fn build_boxed(&self) -> Box<dyn FailureDetector + Send> {
        self.spec.build(self.interval, self.tuning)
    }
}

/// Every algorithm of the paper's comparison as one inline value.
///
/// `AnyDetector` is to [`DetectorSpec`] what an instance is to a recipe:
/// [`DetectorSpec::build_any`] produces it, and it implements
/// [`FailureDetector`] by `match`ing to the concrete algorithm —
/// static dispatch, no heap allocation, `Clone`-able. Store it inline
/// in per-stream tables (the sharded runtime keeps one per monitored
/// stream); reach for `Box<dyn FailureDetector>` only when mixing in
/// detector implementations outside this enum.
#[derive(Debug, Clone)]
pub enum AnyDetector {
    /// Chen's FD (Eq. 2 estimation, constant margin).
    Chen(ChenFd),
    /// Bertier's FD (dynamic margin, parameter-free).
    Bertier(BertierFd),
    /// The φ accrual FD.
    Phi(PhiAccrualFd),
    /// The ED accrual FD.
    Ed(EdFd),
    /// The paper's 2W-FD.
    TwoWindow(TwoWindowFd),
    /// The generalized multi-window FD.
    MultiWindow(MultiWindowFd),
    /// The Impact FD's per-process member detector.
    Impact(ImpactFd),
}

/// Dispatches a method call to the concrete algorithm.
macro_rules! any_dispatch {
    ($self:expr, $fd:ident => $body:expr) => {
        match $self {
            AnyDetector::Chen($fd) => $body,
            AnyDetector::Bertier($fd) => $body,
            AnyDetector::Phi($fd) => $body,
            AnyDetector::Ed($fd) => $body,
            AnyDetector::TwoWindow($fd) => $body,
            AnyDetector::MultiWindow($fd) => $body,
            AnyDetector::Impact($fd) => $body,
        }
    };
}

impl FailureDetector for AnyDetector {
    fn name(&self) -> String {
        any_dispatch!(self, fd => fd.name())
    }

    #[inline]
    fn on_heartbeat(&mut self, seq: u64, arrival: Nanos) -> Option<Decision> {
        any_dispatch!(self, fd => fd.on_heartbeat(seq, arrival))
    }

    #[inline]
    fn current_decision(&self) -> Option<Decision> {
        any_dispatch!(self, fd => fd.current_decision())
    }

    #[inline]
    fn last_seq(&self) -> Option<u64> {
        any_dispatch!(self, fd => fd.last_seq())
    }

    #[inline]
    fn output_at(&self, t: Nanos) -> FdOutput {
        any_dispatch!(self, fd => fd.output_at(t))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twofd_sim::time::Nanos;

    const DI: Span = Span(100_000_000);

    #[test]
    fn paper_comparison_has_six_entries() {
        let set = DetectorSpec::paper_comparison();
        assert_eq!(set.len(), 6);
        assert_eq!(set[0].label(), "2w-fd(1,1000)");
    }

    #[test]
    fn only_bertier_lacks_tuning() {
        for spec in DetectorSpec::paper_comparison() {
            let expect = !matches!(spec, DetectorSpec::Bertier { .. });
            assert_eq!(spec.has_tuning(), expect, "{}", spec.label());
        }
    }

    #[test]
    fn build_produces_working_detectors() {
        for spec in DetectorSpec::paper_comparison() {
            let mut fd = spec.build(DI, 1.0);
            let d = fd.on_heartbeat(1, Nanos(DI.0 + 10_000_000));
            assert!(d.is_some(), "{} rejected a fresh heartbeat", spec.label());
            assert!(fd.on_heartbeat(1, Nanos(DI.0 + 20_000_000)).is_none());
        }
    }

    #[test]
    fn labels_match_detector_names() {
        // label() (spec-level) must prefix/agree with name() (instance).
        let spec = DetectorSpec::Chen { window: 5 };
        let fd = spec.build(DI, 0.1);
        assert_eq!(fd.name(), "chen(5)");
        assert_eq!(spec.label(), "chen(5)");
    }

    #[test]
    fn negative_margin_clamps_to_zero() {
        let spec = DetectorSpec::Chen { window: 1 };
        let mut fd = spec.build(DI, -5.0);
        let d = fd.on_heartbeat(1, Nanos(DI.0 + 10_000_000)).unwrap();
        // Δto = 0: trust exactly until EA_2.
        assert_eq!(d.trust_until, Nanos(2 * DI.0 + 10_000_000));
    }

    #[test]
    fn multi_window_spec_builds() {
        let spec = DetectorSpec::MultiWindow {
            windows: vec![1, 10, 100],
        };
        let fd = spec.build(DI, 0.05);
        assert_eq!(fd.name(), "mw-fd(1,10,100)");
    }

    #[test]
    fn default_spec_is_the_papers_two_window() {
        assert_eq!(
            DetectorSpec::default(),
            DetectorSpec::TwoWindow { n1: 1, n2: 1000 }
        );
        assert_eq!(DetectorConfig::default().spec, DetectorSpec::default());
    }

    #[test]
    fn build_any_matches_boxed_build() {
        for spec in DetectorSpec::paper_comparison() {
            let mut inline = spec.build_any(DI, 1.0);
            let mut boxed = spec.build(DI, 1.0);
            assert_eq!(inline.name(), boxed.name());
            for seq in 1..=20u64 {
                let at = Nanos(seq * DI.0 + (seq % 7) * 3_000_000);
                assert_eq!(
                    inline.on_heartbeat(seq, at),
                    boxed.on_heartbeat(seq, at),
                    "{} diverged at seq {seq}",
                    spec.label()
                );
            }
            assert_eq!(inline.current_decision(), boxed.current_decision());
            assert_eq!(inline.last_seq(), boxed.last_seq());
        }
    }

    #[test]
    fn spec_text_codec_round_trips() {
        let mut all = DetectorSpec::paper_comparison();
        all.push(DetectorSpec::MultiWindow {
            windows: vec![1, 30, 1000],
        });
        all.push(DetectorSpec::Impact { factor: 4 });
        for spec in all {
            let text = spec.to_string();
            assert_eq!(text, spec.label());
            assert_eq!(text.parse::<DetectorSpec>().unwrap(), spec, "{text}");
        }
    }

    #[test]
    fn spec_parse_rejects_malformed_input() {
        for bad in [
            "",
            "chen",
            "chen()",
            "chen(1,2)",
            "2w-fd(1)",
            "mw-fd()",
            "warp(3)",
            "phi(-1)",
            "ed(1",
            "impact()",
            "impact(1,2)",
        ] {
            assert!(bad.parse::<DetectorSpec>().is_err(), "{bad:?} parsed");
        }
    }

    #[test]
    fn impact_spec_builds_the_member_detector() {
        let spec = DetectorSpec::Impact { factor: 5 };
        let mut fd = spec.build_any(DI, 0.05);
        assert_eq!(fd.name(), "impact(5)");
        assert_eq!(spec.label(), "impact(5)");
        assert!(spec.has_tuning());
        // Constant timeout: trust for Δi + Δto past the arrival.
        let d = fd.on_heartbeat(1, Nanos(DI.0)).unwrap();
        assert_eq!(d.trust_until, Nanos(2 * DI.0 + 50_000_000));
    }

    #[test]
    fn detector_config_builds_inline_and_boxed() {
        let cfg = DetectorConfig::new(DetectorSpec::Chen { window: 5 }, DI, 0.1);
        let mut inline = cfg.build();
        let mut boxed = cfg.build_boxed();
        assert_eq!(inline.name(), "chen(5)");
        let at = Nanos(DI.0 + 10_000_000);
        assert_eq!(inline.on_heartbeat(1, at), boxed.on_heartbeat(1, at));
    }

    #[test]
    fn detector_config_from_qos_uses_derived_parameters() {
        let qos = crate::qos::FdConfig {
            interval: DI,
            safety_margin: Span::from_millis(250),
        };
        let cfg = DetectorConfig::from_qos(DetectorSpec::default(), &qos);
        assert_eq!(cfg.interval, DI);
        assert!((cfg.tuning - 0.25).abs() < 1e-12);
    }
}
