//! Message-loss models.
//!
//! A [`LossModel`] decides, per heartbeat, whether the network drops it.
//! Besides the memoryless Bernoulli process the substrate provides a
//! Gilbert–Elliott two-state Markov model, which is what actually creates
//! the *bursts of lost messages* the 2W-FD paper targets: in the `Bad`
//! state, long runs of consecutive heartbeats disappear, defeating
//! estimators that only track long-run averages.

use crate::rng::SimRng;
use crate::time::Nanos;

/// A stateful loss process.
pub trait LossModel {
    /// Whether a message sent at `send_time` is dropped.
    fn is_lost(&mut self, rng: &mut SimRng, send_time: Nanos) -> bool;
}

/// Never loses a message (the paper's LAN trace lost none).
#[derive(Debug, Clone, Copy, Default)]
pub struct NoLoss;

impl LossModel for NoLoss {
    fn is_lost(&mut self, _rng: &mut SimRng, _send_time: Nanos) -> bool {
        false
    }
}

/// Independent loss with fixed probability.
#[derive(Debug, Clone, Copy)]
pub struct BernoulliLoss(pub f64);

impl LossModel for BernoulliLoss {
    fn is_lost(&mut self, rng: &mut SimRng, _send_time: Nanos) -> bool {
        rng.chance(self.0)
    }
}

/// Gilbert–Elliott two-state Markov loss.
///
/// The channel alternates between a `Good` state (loss probability
/// `loss_good`, typically near zero) and a `Bad` state (loss probability
/// `loss_bad`, typically near one). Transitions are evaluated once per
/// message: `p_gb` is the Good→Bad probability, `p_bg` the Bad→Good
/// probability. Expected burst length is `1 / p_bg` messages and the
/// stationary probability of being in `Bad` is `p_gb / (p_gb + p_bg)`.
#[derive(Debug, Clone, Copy)]
pub struct GilbertElliottLoss {
    /// Good → Bad transition probability per message.
    pub p_gb: f64,
    /// Bad → Good transition probability per message.
    pub p_bg: f64,
    /// Loss probability while in the Good state.
    pub loss_good: f64,
    /// Loss probability while in the Bad state.
    pub loss_bad: f64,
    in_bad: bool,
}

impl GilbertElliottLoss {
    /// Creates the model (all arguments are probabilities), starting in
    /// the Good state.
    pub fn new(p_gb: f64, p_bg: f64, loss_good: f64, loss_bad: f64) -> Self {
        for (name, p) in [
            ("p_gb", p_gb),
            ("p_bg", p_bg),
            ("loss_good", loss_good),
            ("loss_bad", loss_bad),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be a probability");
        }
        GilbertElliottLoss {
            p_gb,
            p_bg,
            loss_good,
            loss_bad,
            in_bad: false,
        }
    }
}

impl LossModel for GilbertElliottLoss {
    fn is_lost(&mut self, rng: &mut SimRng, _send_time: Nanos) -> bool {
        // State transition first, then the per-state coin flip.
        if self.in_bad {
            if rng.chance(self.p_bg) {
                self.in_bad = false;
            }
        } else if rng.chance(self.p_gb) {
            self.in_bad = true;
        }
        let p = if self.in_bad {
            self.loss_bad
        } else {
            self.loss_good
        };
        rng.chance(p)
    }
}

/// Forces loss inside explicit time windows, delegating elsewhere.
///
/// Used to script the paper's *Burst* segment deterministically: every
/// heartbeat sent inside a window is dropped regardless of the base model.
#[derive(Debug)]
pub struct ScriptedLoss<M> {
    /// Loss process applied outside the forced windows.
    pub base: M,
    /// Half-open `[start, end)` windows of forced loss, sorted by start.
    pub windows: Vec<(Nanos, Nanos)>,
}

impl<M: LossModel> LossModel for ScriptedLoss<M> {
    fn is_lost(&mut self, rng: &mut SimRng, send_time: Nanos) -> bool {
        let forced = self
            .windows
            .iter()
            .any(|&(start, end)| send_time >= start && send_time < end);
        // Always advance the base model so scripting does not shift its
        // random stream relative to an unscripted run.
        let base_lost = self.base.is_lost(rng, send_time);
        forced || base_lost
    }
}

/// Plain-data description of a loss model.
///
/// Variant fields mirror the corresponding model constructors.
#[derive(Debug, Clone, PartialEq)]
#[allow(missing_docs)]
pub enum LossSpec {
    /// No losses.
    None,
    /// Independent loss with probability `p`.
    Bernoulli { p: f64 },
    /// Gilbert–Elliott bursty loss.
    GilbertElliott {
        p_gb: f64,
        p_bg: f64,
        loss_good: f64,
        loss_bad: f64,
    },
    /// A base spec plus forced-loss windows (`[start, end)` in nanos).
    Scripted {
        base: Box<LossSpec>,
        windows: Vec<(u64, u64)>,
    },
}

impl LossSpec {
    /// Instantiates the described model.
    pub fn build(&self) -> Box<dyn LossModel + Send> {
        match self {
            LossSpec::None => Box::new(NoLoss),
            LossSpec::Bernoulli { p } => Box::new(BernoulliLoss(*p)),
            LossSpec::GilbertElliott {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => Box::new(GilbertElliottLoss::new(*p_gb, *p_bg, *loss_good, *loss_bad)),
            LossSpec::Scripted { base, windows } => Box::new(ScriptedLoss {
                base: base.build(),
                windows: windows.iter().map(|&(s, e)| (Nanos(s), Nanos(e))).collect(),
            }),
        }
    }
}

impl LossModel for Box<dyn LossModel + Send> {
    fn is_lost(&mut self, rng: &mut SimRng, send_time: Nanos) -> bool {
        (**self).is_lost(rng, send_time)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_loss_never_drops() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut m = NoLoss;
        assert!((0..1000).all(|i| !m.is_lost(&mut rng, Nanos::from_millis(i))));
    }

    #[test]
    fn bernoulli_rate_matches() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut m = BernoulliLoss(0.05);
        let n = 200_000;
        let lost = (0..n).filter(|_| m.is_lost(&mut rng, Nanos::ZERO)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.05).abs() < 0.005, "rate {rate}");
    }

    #[test]
    fn gilbert_elliott_stationary_loss_matches() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut m = GilbertElliottLoss::new(0.01, 0.2, 0.001, 0.9);
        // Stationary P(bad) = p_gb / (p_gb + p_bg).
        let p_bad = 0.01 / 0.21;
        let expected = p_bad * 0.9 + (1.0 - p_bad) * 0.001;
        let n = 400_000;
        let lost = (0..n).filter(|_| m.is_lost(&mut rng, Nanos::ZERO)).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - expected).abs() < 0.01, "rate {rate} vs {expected}");
    }

    #[test]
    fn gilbert_elliott_produces_bursts() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut m = GilbertElliottLoss::new(0.002, 0.05, 0.0, 1.0);
        let outcomes: Vec<bool> = (0..200_000)
            .map(|_| m.is_lost(&mut rng, Nanos::ZERO))
            .collect();
        // Longest run of consecutive losses should be far longer than a
        // Bernoulli process with the same rate would plausibly produce.
        let mut longest = 0usize;
        let mut run = 0usize;
        for &l in &outcomes {
            if l {
                run += 1;
                longest = longest.max(run);
            } else {
                run = 0;
            }
        }
        assert!(longest >= 20, "longest burst {longest}");
    }

    #[test]
    fn gilbert_elliott_rejects_bad_probabilities() {
        assert!(std::panic::catch_unwind(|| GilbertElliottLoss::new(1.5, 0.1, 0.0, 1.0)).is_err());
    }

    #[test]
    fn scripted_windows_force_loss() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut m = ScriptedLoss {
            base: NoLoss,
            windows: vec![(Nanos::from_secs(10), Nanos::from_secs(12))],
        };
        assert!(!m.is_lost(&mut rng, Nanos::from_secs(9)));
        assert!(m.is_lost(&mut rng, Nanos::from_secs(10)));
        assert!(m.is_lost(&mut rng, Nanos::from_secs(11)));
        assert!(!m.is_lost(&mut rng, Nanos::from_secs(12)));
    }

    #[test]
    fn spec_builds_a_model_at_its_stationary_loss() {
        let spec = LossSpec::GilbertElliott {
            p_gb: 0.01,
            p_bg: 0.19,
            loss_good: 0.0,
            loss_bad: 1.0,
        };
        let expected = 0.01 / 0.20;
        let mut rng = SimRng::seed_from_u64(5);
        let mut model = spec.build();
        let n = 400_000;
        let lost = (0..n)
            .filter(|_| model.is_lost(&mut rng, Nanos::ZERO))
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - expected).abs() < 0.01, "rate {rate} vs {expected}");
    }

    #[test]
    fn scripted_spec_round_trip() {
        let spec = LossSpec::Scripted {
            base: Box::new(LossSpec::None),
            windows: vec![(0, 1_000)],
        };
        let mut rng = SimRng::seed_from_u64(6);
        let mut model = spec.build();
        assert!(model.is_lost(&mut rng, Nanos(500)));
        assert!(!model.is_lost(&mut rng, Nanos(2_000)));
    }
}
