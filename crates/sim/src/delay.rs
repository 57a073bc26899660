//! One-way message delay models.
//!
//! A [`DelayModel`] answers one question for each heartbeat: *given it is
//! sent now, how long does the network take to deliver it?* Models are
//! stateful (auto-correlated delays, congestion spikes), so they take
//! `&mut self`.
//!
//! Plain-data [`DelaySpec`] descriptions build the concrete models; the
//! scenario scripting in [`crate::scenario`] stores specs, not trait
//! objects, so a scenario is a value that can be cloned and compared.

use crate::rng::{log_normal_params, DistSpec, SimRng};
use crate::time::{Nanos, Span};

/// A stateful one-way delay process.
pub trait DelayModel {
    /// Delay experienced by a message sent at `send_time`.
    fn delay(&mut self, rng: &mut SimRng, send_time: Nanos) -> Span;
}

/// Fixed delay for every message.
#[derive(Debug, Clone, Copy)]
pub struct ConstantDelay(pub Span);

impl DelayModel for ConstantDelay {
    fn delay(&mut self, _rng: &mut SimRng, _send_time: Nanos) -> Span {
        self.0
    }
}

/// Independent draws from a scalar distribution (seconds), clamped below
/// at `floor` so a heavy-tailed spec can never produce a negative or
/// implausibly small delay.
#[derive(Debug, Clone, Copy)]
pub struct IidDelay {
    /// Scalar delay distribution, in seconds.
    pub dist: DistSpec,
    /// Lower clamp applied to every draw.
    pub floor: Span,
}

impl IidDelay {
    /// Creates the model.
    pub fn new(dist: DistSpec, floor: Span) -> Self {
        IidDelay { dist, floor }
    }
}

impl DelayModel for IidDelay {
    fn delay(&mut self, rng: &mut SimRng, _send_time: Nanos) -> Span {
        let secs = self.dist.sample(rng);
        Span::from_secs_f64(secs).max(self.floor)
    }
}

/// First-order auto-regressive delay in log space.
///
/// Wide-area delays are strongly auto-correlated: a congested path stays
/// congested for many consecutive heartbeats. This model keeps a latent
/// AR(1) state `x_{k+1} = rho * x_k + sqrt(1-rho^2) * eps` (`eps` standard
/// normal) and outputs `exp(mu + sigma * x_k)`, i.e. marginally log-normal
/// with the requested linear-space mean and standard deviation, but with
/// lag-1 autocorrelation `rho` in log space.
#[derive(Debug, Clone, Copy)]
pub struct Ar1LogNormalDelay {
    mu: f64,
    sigma: f64,
    rho: f64,
    state: f64,
    floor: Span,
}

impl Ar1LogNormalDelay {
    /// `mean`/`std_dev` are the marginal delay moments in seconds; `rho`
    /// in `(-1,1)` is the log-space lag-1 autocorrelation. Positive
    /// values model sticky congestion; negative values model the
    /// oscillation of queue build-up and drain (a delayed packet is
    /// typically followed by a back-to-back fast delivery).
    pub fn new(mean: f64, std_dev: f64, rho: f64, floor: Span) -> Self {
        assert!((-1.0..1.0).contains(&rho), "rho must be in (-1,1)");
        let (mu, sigma) = log_normal_params(mean, std_dev);
        Ar1LogNormalDelay {
            mu,
            sigma,
            rho,
            state: 0.0,
            floor,
        }
    }
}

impl DelayModel for Ar1LogNormalDelay {
    fn delay(&mut self, rng: &mut SimRng, _send_time: Nanos) -> Span {
        let eps = rng.standard_normal();
        self.state = self.rho * self.state + (1.0 - self.rho * self.rho).sqrt() * eps;
        let secs = (self.mu + self.sigma * self.state).exp();
        Span::from_secs_f64(secs).max(self.floor)
    }
}

/// A base model plus rare long stalls.
///
/// Reproduces the LAN trace's "largest interval between two heartbeats was
/// about 1.5 s" behaviour: with probability `spike_prob` per message the
/// delay is drawn from `spike_dist` instead of the base model.
#[derive(Debug)]
pub struct SpikeDelay<M> {
    /// Delay process for non-spike messages.
    pub base: M,
    /// Per-message probability of drawing from `spike_dist` instead.
    pub spike_prob: f64,
    /// Spike delay distribution, in seconds.
    pub spike_dist: DistSpec,
}

impl<M: DelayModel> DelayModel for SpikeDelay<M> {
    fn delay(&mut self, rng: &mut SimRng, send_time: Nanos) -> Span {
        if rng.chance(self.spike_prob) {
            Span::from_secs_f64(self.spike_dist.sample(rng).max(0.0))
        } else {
            self.base.delay(rng, send_time)
        }
    }
}

/// Spikes arriving in *episodes*: a two-state Markov process switches
/// between a calm state (no spikes) and a congestion episode in which
/// each message is a spike with probability `spike_prob`. This models
/// the clustered congestion of real WAN paths — long quiet stretches
/// punctuated by multi-second bursts of queueing — which is the regime
/// where short-memory estimators (window-1 Chen, Jacobson margins) are
/// repeatedly surprised at episode onsets while long windows remember.
#[derive(Debug)]
pub struct EpisodicSpikeDelay<M> {
    /// Delay process between spikes.
    pub base: M,
    /// Calm → episode transition probability per message.
    pub onset_prob: f64,
    /// Episode → calm transition probability per message.
    pub end_prob: f64,
    /// Spike probability per message while inside an episode.
    pub spike_prob: f64,
    /// Spike delay distribution (seconds).
    pub spike_dist: DistSpec,
    in_episode: bool,
}

impl<M> EpisodicSpikeDelay<M> {
    /// Creates the process, starting in the calm state.
    pub fn new(
        base: M,
        onset_prob: f64,
        end_prob: f64,
        spike_prob: f64,
        spike_dist: DistSpec,
    ) -> Self {
        for (name, p) in [
            ("onset_prob", onset_prob),
            ("end_prob", end_prob),
            ("spike_prob", spike_prob),
        ] {
            assert!((0.0..=1.0).contains(&p), "{name} must be a probability");
        }
        EpisodicSpikeDelay {
            base,
            onset_prob,
            end_prob,
            spike_prob,
            spike_dist,
            in_episode: false,
        }
    }
}

impl<M: DelayModel> DelayModel for EpisodicSpikeDelay<M> {
    fn delay(&mut self, rng: &mut SimRng, send_time: Nanos) -> Span {
        if self.in_episode {
            if rng.chance(self.end_prob) {
                self.in_episode = false;
            }
        } else if rng.chance(self.onset_prob) {
            self.in_episode = true;
        }
        let base = self.base.delay(rng, send_time);
        if self.in_episode && rng.chance(self.spike_prob) {
            base + Span::from_secs_f64(self.spike_dist.sample(rng).max(0.0))
        } else {
            base
        }
    }
}

impl DelayModel for Box<dyn DelayModel + Send> {
    fn delay(&mut self, rng: &mut SimRng, send_time: Nanos) -> Span {
        (**self).delay(rng, send_time)
    }
}

/// Plain-data description of a delay model.
///
/// Variant fields mirror the corresponding model constructors; all
/// times are seconds unless the field name says `nanos`.
#[derive(Debug, Clone, Copy, PartialEq)]
#[allow(missing_docs)]
pub enum DelaySpec {
    /// Every message takes exactly `nanos`.
    Constant { nanos: u64 },
    /// Independent draws from `dist` (seconds), clamped at `floor_nanos`.
    Iid { dist: DistSpec, floor_nanos: u64 },
    /// Auto-correlated log-normal (see [`Ar1LogNormalDelay`]).
    Ar1LogNormal {
        mean_secs: f64,
        std_dev_secs: f64,
        rho: f64,
        floor_nanos: u64,
    },
    /// `base` with probability `1 - spike_prob`, otherwise a stall drawn
    /// from `spike_dist` (seconds).
    Spiky {
        base: DistSpec,
        floor_nanos: u64,
        spike_prob: f64,
        spike_dist: DistSpec,
    },
    /// Auto-correlated log-normal base delays overlaid with independent
    /// congestion spikes — the bimodal, rapidly changing behaviour of a
    /// congested WAN path (the regime the 2W-FD targets).
    Ar1Spiky {
        mean_secs: f64,
        std_dev_secs: f64,
        rho: f64,
        floor_nanos: u64,
        spike_prob: f64,
        spike_dist: DistSpec,
    },
    /// Auto-correlated log-normal base delays with spikes arriving in
    /// Markov-modulated episodes (see [`EpisodicSpikeDelay`]).
    Episodic {
        mean_secs: f64,
        std_dev_secs: f64,
        rho: f64,
        floor_nanos: u64,
        onset_prob: f64,
        end_prob: f64,
        spike_prob: f64,
        spike_dist: DistSpec,
    },
}

impl DelaySpec {
    /// Instantiates the described model.
    pub fn build(&self) -> Box<dyn DelayModel + Send> {
        match *self {
            DelaySpec::Constant { nanos } => Box::new(ConstantDelay(Span(nanos))),
            DelaySpec::Iid { dist, floor_nanos } => {
                Box::new(IidDelay::new(dist, Span(floor_nanos)))
            }
            DelaySpec::Ar1LogNormal {
                mean_secs,
                std_dev_secs,
                rho,
                floor_nanos,
            } => Box::new(Ar1LogNormalDelay::new(
                mean_secs,
                std_dev_secs,
                rho,
                Span(floor_nanos),
            )),
            DelaySpec::Spiky {
                base,
                floor_nanos,
                spike_prob,
                spike_dist,
            } => Box::new(SpikeDelay {
                base: IidDelay::new(base, Span(floor_nanos)),
                spike_prob,
                spike_dist,
            }),
            DelaySpec::Ar1Spiky {
                mean_secs,
                std_dev_secs,
                rho,
                floor_nanos,
                spike_prob,
                spike_dist,
            } => Box::new(SpikeDelay {
                base: Ar1LogNormalDelay::new(mean_secs, std_dev_secs, rho, Span(floor_nanos)),
                spike_prob,
                spike_dist,
            }),
            DelaySpec::Episodic {
                mean_secs,
                std_dev_secs,
                rho,
                floor_nanos,
                onset_prob,
                end_prob,
                spike_prob,
                spike_dist,
            } => Box::new(EpisodicSpikeDelay::new(
                Ar1LogNormalDelay::new(mean_secs, std_dev_secs, rho, Span(floor_nanos)),
                onset_prob,
                end_prob,
                spike_prob,
                spike_dist,
            )),
        }
    }

    /// Approximate mean delay in seconds (ignores truncation and spikes'
    /// contribution beyond their own mean).
    pub fn mean_secs(&self) -> f64 {
        match *self {
            DelaySpec::Constant { nanos } => Span(nanos).as_secs_f64(),
            DelaySpec::Iid { dist, .. } => dist.mean(),
            DelaySpec::Ar1LogNormal { mean_secs, .. } => mean_secs,
            DelaySpec::Spiky {
                base,
                spike_prob,
                spike_dist,
                ..
            } => (1.0 - spike_prob) * base.mean() + spike_prob * spike_dist.mean(),
            DelaySpec::Ar1Spiky {
                mean_secs,
                spike_prob,
                spike_dist,
                ..
            } => (1.0 - spike_prob) * mean_secs + spike_prob * spike_dist.mean(),
            DelaySpec::Episodic {
                mean_secs,
                onset_prob,
                end_prob,
                spike_prob,
                spike_dist,
                ..
            } => {
                let frac_in_episode = if onset_prob + end_prob > 0.0 {
                    onset_prob / (onset_prob + end_prob)
                } else {
                    0.0
                };
                mean_secs + frac_in_episode * spike_prob * spike_dist.mean()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn constant_delay_is_constant() {
        let mut rng = SimRng::seed_from_u64(0);
        let mut m = ConstantDelay(Span::from_millis(5));
        for i in 0..10 {
            assert_eq!(m.delay(&mut rng, Nanos::from_secs(i)), Span::from_millis(5));
        }
    }

    #[test]
    fn iid_delay_respects_floor() {
        let mut rng = SimRng::seed_from_u64(1);
        let mut m = IidDelay::new(
            DistSpec::Normal {
                mean: 0.0,
                std_dev: 0.001,
                min: -1.0,
            },
            Span::from_micros(50),
        );
        for _ in 0..1000 {
            assert!(m.delay(&mut rng, Nanos::ZERO) >= Span::from_micros(50));
        }
    }

    #[test]
    fn ar1_marginal_moments_match() {
        let mut rng = SimRng::seed_from_u64(2);
        let mut m = Ar1LogNormalDelay::new(0.120, 0.040, 0.9, Span::ZERO);
        // Warm up past the initial deterministic state.
        for _ in 0..1000 {
            m.delay(&mut rng, Nanos::ZERO);
        }
        let n = 200_000;
        let xs: Vec<f64> = (0..n)
            .map(|_| m.delay(&mut rng, Nanos::ZERO).as_secs_f64())
            .collect();
        let mean = xs.iter().sum::<f64>() / n as f64;
        assert!((mean - 0.120).abs() < 0.004, "mean {mean}");
    }

    #[test]
    fn ar1_is_autocorrelated() {
        let mut rng = SimRng::seed_from_u64(3);
        let mut m = Ar1LogNormalDelay::new(0.1, 0.05, 0.95, Span::ZERO);
        let xs: Vec<f64> = (0..50_000)
            .map(|_| m.delay(&mut rng, Nanos::ZERO).as_secs_f64().ln())
            .collect();
        let mean = xs.iter().sum::<f64>() / xs.len() as f64;
        let var = xs.iter().map(|x| (x - mean).powi(2)).sum::<f64>();
        let cov: f64 = xs.windows(2).map(|w| (w[0] - mean) * (w[1] - mean)).sum();
        let rho = cov / var;
        assert!(rho > 0.8, "lag-1 autocorrelation {rho}");
    }

    #[test]
    fn ar1_rejects_invalid_rho() {
        let r = std::panic::catch_unwind(|| {
            Ar1LogNormalDelay::new(0.1, 0.01, 1.0, Span::ZERO);
        });
        assert!(r.is_err());
    }

    #[test]
    fn spikes_occur_at_expected_rate() {
        let mut rng = SimRng::seed_from_u64(4);
        let mut m = SpikeDelay {
            base: ConstantDelay(Span::from_micros(100)),
            spike_prob: 0.01,
            spike_dist: DistSpec::Constant { value: 1.5 },
        };
        let n = 100_000;
        let spikes = (0..n)
            .filter(|_| m.delay(&mut rng, Nanos::ZERO) > Span::from_millis(1))
            .count();
        let rate = spikes as f64 / n as f64;
        assert!((rate - 0.01).abs() < 0.002, "spike rate {rate}");
    }

    #[test]
    fn episodic_spikes_cluster() {
        let mut rng = SimRng::seed_from_u64(9);
        let mut m = EpisodicSpikeDelay::new(
            ConstantDelay(Span::from_millis(100)),
            1.0 / 200.0, // episodes every ~200 messages
            1.0 / 25.0,  // lasting ~25 messages
            0.8,
            DistSpec::Constant { value: 0.5 },
        );
        let spikes: Vec<bool> = (0..100_000)
            .map(|_| m.delay(&mut rng, Nanos::ZERO) > Span::from_millis(200))
            .collect();
        let total = spikes.iter().filter(|&&s| s).count();
        // Stationary fraction ≈ (1/200)/(1/200 + 1/25) ≈ 0.111 of time in
        // episode, times 0.8 spike rate ≈ 8.9% of messages.
        let rate = total as f64 / spikes.len() as f64;
        assert!((rate - 0.089).abs() < 0.03, "spike rate {rate}");
        // Clustering: the probability that the message after a spike is
        // also a spike must far exceed the marginal rate.
        let mut after_spike = 0usize;
        let mut after_spike_spike = 0usize;
        for w in spikes.windows(2) {
            if w[0] {
                after_spike += 1;
                if w[1] {
                    after_spike_spike += 1;
                }
            }
        }
        let conditional = after_spike_spike as f64 / after_spike as f64;
        assert!(
            conditional > 3.0 * rate,
            "conditional {conditional} vs marginal {rate}"
        );
    }

    #[test]
    fn episodic_spec_mean_accounts_for_episodes() {
        let spec = DelaySpec::Episodic {
            mean_secs: 0.1,
            std_dev_secs: 0.0,
            rho: 0.0,
            floor_nanos: 0,
            onset_prob: 0.01,
            end_prob: 0.09,
            spike_prob: 0.5,
            spike_dist: DistSpec::Constant { value: 0.4 },
        };
        // 10% of time in episode × 0.5 × 0.4 s = 20 ms extra.
        assert!((spec.mean_secs() - 0.12).abs() < 1e-9);
        let mut rng = SimRng::seed_from_u64(10);
        let mut model = spec.build();
        let _ = model.delay(&mut rng, Nanos::ZERO);
    }

    #[test]
    fn spec_build_round_trip_behaviour() {
        let mut rng = SimRng::seed_from_u64(5);
        let spec = DelaySpec::Constant {
            nanos: 2_000_000, // 2 ms
        };
        let mut m = spec.build();
        assert_eq!(m.delay(&mut rng, Nanos::ZERO), Span::from_millis(2));
        assert!((spec.mean_secs() - 0.002).abs() < 1e-12);
    }

    #[test]
    fn spiky_spec_mean_blends() {
        let spec = DelaySpec::Spiky {
            base: DistSpec::Constant { value: 0.1 },
            floor_nanos: 0,
            spike_prob: 0.5,
            spike_dist: DistSpec::Constant { value: 0.3 },
        };
        assert!((spec.mean_secs() - 0.2).abs() < 1e-12);
    }
}
