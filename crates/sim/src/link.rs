//! Link-level scenario directives.
//!
//! A [`crate::scenario::NetworkScenario`] scripts regimes by *heartbeat
//! count* — good for single-sender traces, but a cluster simulation
//! needs to script the behaviour of a directed **link** (sender →
//! monitor) in *time*: "this link blacks out from t=30s to t=45s",
//! "that one browns out with +200ms delay and 30% loss for a minute".
//! A [`LinkSpec`] is a base scenario plus an ordered list of
//! time-windowed [`LinkDirective`]s layered on top.
//!
//! Asymmetric behaviour falls out of directionality: each simulated
//! link owns its own `LinkSpec`, so partitioning A→B while leaving B→A
//! clean is just two different specs. Correlated burst loss is a
//! first-class directive: a `BurstLoss` window runs its own
//! Gilbert–Elliott chain ([`crate::loss::GilbertElliottLoss`]) seeded
//! from the scenario RNG, so losses cluster instead of falling
//! independently; a slow-node brownout is `ExtraDelay` + `Lossy` over
//! the same window.
//!
//! Like [`crate::loss::ScriptedLoss`], the base scenario's models are
//! advanced for **every** transmission — even ones a `Blackout`
//! directive then discards — so adding or removing directives never
//! shifts the base random stream relative to an unscripted run.

use crate::loss::{GilbertElliottLoss, LossModel};
use crate::rng::SimRng;
use crate::scenario::{NetworkScenario, ScenarioNetwork, Transmission};
use crate::time::{Nanos, Span};

/// What a [`LinkDirective`] does to transmissions inside its window.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LinkEffect {
    /// Drop every message (a hard partition of this direction).
    Blackout,
    /// Add a constant delay on top of whatever the base model drew
    /// (a congested or distant path).
    ExtraDelay {
        /// Added one-way delay in nanoseconds.
        nanos: u64,
    },
    /// Drop messages with an extra independent probability, on top of
    /// the base loss model (a brownout's flaky half).
    Lossy {
        /// Additional independent loss probability.
        p: f64,
    },
    /// Drop messages through a two-state Gilbert–Elliott chain layered
    /// on the base model: losses arrive in correlated bursts (mean
    /// burst length `1/p_bg` messages) instead of independently — the
    /// radio-link / congested-queue picture. The chain starts Good at
    /// the window's first covered message and advances once per
    /// message, drawing from the link's scenario RNG.
    BurstLoss {
        /// Good → Bad transition probability per message.
        p_gb: f64,
        /// Bad → Good transition probability per message.
        p_bg: f64,
        /// Loss probability while in the Good state.
        loss_good: f64,
        /// Loss probability while in the Bad state.
        loss_bad: f64,
    },
}

/// One time-windowed effect on a link: `effect` applies to every
/// message sent in `[start, end)` (nanoseconds, half-open — the same
/// convention as [`crate::loss::LossSpec::Scripted`] windows).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LinkDirective {
    /// Window start (inclusive), in nanoseconds of send time.
    pub start: u64,
    /// Window end (exclusive), in nanoseconds of send time.
    pub end: u64,
    /// The effect applied inside the window.
    pub effect: LinkEffect,
}

impl LinkDirective {
    /// Whether the window covers a message sent at `t`.
    pub fn covers(&self, t: Nanos) -> bool {
        t.0 >= self.start && t.0 < self.end
    }
}

/// Plain-data description of one directed link: a base
/// [`NetworkScenario`] plus layered time-windowed directives.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSpec {
    /// Baseline behaviour (phase-scripted delay and loss).
    pub scenario: NetworkScenario,
    /// Time-windowed effects layered over the baseline, applied in
    /// order for every covered message.
    pub directives: Vec<LinkDirective>,
}

impl LinkSpec {
    /// A link with baseline behaviour only.
    pub fn clean(scenario: NetworkScenario) -> Self {
        LinkSpec {
            scenario,
            directives: Vec::new(),
        }
    }

    /// Adds a directive window (builder-style).
    pub fn with(mut self, start: Span, end: Span, effect: LinkEffect) -> Self {
        assert!(start.0 < end.0, "directive window must be non-empty");
        match effect {
            LinkEffect::Lossy { p } => {
                assert!((0.0..=1.0).contains(&p), "loss must be a probability");
            }
            LinkEffect::BurstLoss {
                p_gb,
                p_bg,
                loss_good,
                loss_bad,
            } => {
                // Constructing the chain runs its probability asserts.
                let _ = GilbertElliottLoss::new(p_gb, p_bg, loss_good, loss_bad);
            }
            LinkEffect::Blackout | LinkEffect::ExtraDelay { .. } => {}
        }
        self.directives.push(LinkDirective {
            start: start.0,
            end: end.0,
            effect,
        });
        self
    }

    /// Instantiates the live model.
    pub fn instantiate(&self) -> LinkModel {
        // Burst-loss directives carry Markov state; give each its own
        // chain, parallel to the directive list.
        let bursts = self
            .directives
            .iter()
            .map(|d| match d.effect {
                LinkEffect::BurstLoss {
                    p_gb,
                    p_bg,
                    loss_good,
                    loss_bad,
                } => Some(GilbertElliottLoss::new(p_gb, p_bg, loss_good, loss_bad)),
                _ => None,
            })
            .collect();
        LinkModel {
            network: self.scenario.instantiate(),
            directives: self.directives.clone(),
            bursts,
        }
    }
}

/// A [`LinkSpec`] with live base-model state.
pub struct LinkModel {
    network: ScenarioNetwork,
    directives: Vec<LinkDirective>,
    /// Per-directive Gilbert–Elliott state, `Some` iff the directive at
    /// the same index is a [`LinkEffect::BurstLoss`].
    bursts: Vec<Option<GilbertElliottLoss>>,
}

impl LinkModel {
    /// Transmits the next message over this link (sent at `send_time`);
    /// messages must be offered in send order, one call per message.
    ///
    /// The base scenario always draws first (keeping its random stream
    /// aligned with an unscripted run), then every directive covering
    /// `send_time` applies in list order: a `Blackout` loses the
    /// message outright, a `Lossy` window flips one extra coin, and
    /// `ExtraDelay` stretches whatever delay survives.
    pub fn transmit(&mut self, rng: &mut SimRng, send_time: Nanos) -> Transmission {
        let base = self.network.transmit(rng, send_time);
        let mut delay = match base {
            Transmission::Lost => None,
            Transmission::Delivered { delay } => Some(delay),
        };
        for (directive, burst) in self.directives.iter().zip(&mut self.bursts) {
            if !directive.covers(send_time) {
                continue;
            }
            match directive.effect {
                LinkEffect::Blackout => delay = None,
                LinkEffect::Lossy { p } => {
                    // Drawn even for already-lost messages so that the
                    // base loss pattern does not shift this window's
                    // coin sequence.
                    if rng.chance(p) {
                        delay = None;
                    }
                }
                LinkEffect::BurstLoss { .. } => {
                    // Same convention: the chain advances once per
                    // covered message, lost or not, so the burst
                    // pattern is independent of the base loss draws.
                    let chain = burst.as_mut().expect("bursts parallels directives");
                    if chain.is_lost(rng, send_time) {
                        delay = None;
                    }
                }
                LinkEffect::ExtraDelay { nanos } => {
                    delay = delay.map(|d| Span(d.0.saturating_add(nanos)));
                }
            }
        }
        match delay {
            Some(delay) => Transmission::Delivered { delay },
            None => Transmission::Lost,
        }
    }

    /// Messages transmitted so far.
    pub fn transmitted(&self) -> u64 {
        self.network.transmitted()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelaySpec;
    use crate::loss::LossSpec;

    fn base() -> NetworkScenario {
        NetworkScenario::uniform(
            "clean",
            1_000,
            DelaySpec::Constant { nanos: 1_000_000 },
            LossSpec::None,
        )
    }

    #[test]
    fn blackout_window_partitions_the_link() {
        let spec = LinkSpec::clean(base()).with(
            Span::from_secs(10),
            Span::from_secs(20),
            LinkEffect::Blackout,
        );
        let mut link = spec.instantiate();
        let mut rng = SimRng::seed_from_u64(1);
        assert!(matches!(
            link.transmit(&mut rng, Nanos::from_secs(9)),
            Transmission::Delivered { .. }
        ));
        assert_eq!(
            link.transmit(&mut rng, Nanos::from_secs(10)),
            Transmission::Lost
        );
        assert_eq!(
            link.transmit(&mut rng, Nanos::from_secs(19)),
            Transmission::Lost
        );
        assert!(matches!(
            link.transmit(&mut rng, Nanos::from_secs(20)),
            Transmission::Delivered { .. }
        ));
    }

    #[test]
    fn extra_delay_stretches_deliveries_inside_the_window() {
        let spec = LinkSpec::clean(base()).with(
            Span::from_secs(5),
            Span::from_secs(6),
            LinkEffect::ExtraDelay { nanos: 200_000_000 },
        );
        let mut link = spec.instantiate();
        let mut rng = SimRng::seed_from_u64(2);
        assert_eq!(
            link.transmit(&mut rng, Nanos::from_secs(4)),
            Transmission::Delivered {
                delay: Span::from_millis(1)
            }
        );
        assert_eq!(
            link.transmit(&mut rng, Nanos::from_secs(5)),
            Transmission::Delivered {
                delay: Span::from_millis(201)
            }
        );
    }

    #[test]
    fn lossy_window_raises_the_loss_rate() {
        let spec = LinkSpec::clean(base()).with(
            Span::ZERO,
            Span::from_secs(1_000_000),
            LinkEffect::Lossy { p: 0.5 },
        );
        let mut link = spec.instantiate();
        let mut rng = SimRng::seed_from_u64(3);
        let n = 10_000;
        let lost = (0..n)
            .filter(|i| link.transmit(&mut rng, Nanos::from_millis(*i)) == Transmission::Lost)
            .count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.5).abs() < 0.03, "rate {rate}");
    }

    /// Directives must not shift the base random stream: outside every
    /// window, a scripted link behaves bit-identically to a clean one.
    #[test]
    fn directives_leave_the_base_stream_unshifted() {
        let stochastic = NetworkScenario::uniform(
            "wan",
            1_000,
            DelaySpec::Ar1LogNormal {
                mean_secs: 0.02,
                std_dev_secs: 0.01,
                rho: 0.9,
                floor_nanos: 1_000_000,
            },
            LossSpec::Bernoulli { p: 0.05 },
        );
        let scripted = LinkSpec::clean(stochastic.clone()).with(
            Span::from_secs(10),
            Span::from_secs(20),
            LinkEffect::Blackout,
        );
        let clean = LinkSpec::clean(stochastic);
        let mut a = scripted.instantiate();
        let mut b = clean.instantiate();
        let mut rng_a = SimRng::seed_from_u64(9);
        let mut rng_b = SimRng::seed_from_u64(9);
        for i in 0..300u64 {
            let t = Nanos::from_millis(i * 100);
            let ta = a.transmit(&mut rng_a, t);
            let tb = b.transmit(&mut rng_b, t);
            if t >= Nanos::from_secs(10) && t < Nanos::from_secs(20) {
                assert_eq!(ta, Transmission::Lost);
            } else {
                assert_eq!(ta, tb, "diverged at t={t:?}");
            }
        }
    }

    #[test]
    fn brownout_composes_delay_and_loss() {
        let spec = LinkSpec::clean(base())
            .with(
                Span::from_secs(1),
                Span::from_secs(2),
                LinkEffect::ExtraDelay { nanos: 100_000_000 },
            )
            .with(
                Span::from_secs(1),
                Span::from_secs(2),
                LinkEffect::Lossy { p: 0.0 },
            );
        let mut link = spec.instantiate();
        let mut rng = SimRng::seed_from_u64(4);
        assert_eq!(
            link.transmit(&mut rng, Nanos::from_millis(1_500)),
            Transmission::Delivered {
                delay: Span::from_millis(101)
            }
        );
    }

    /// Burst loss must hit the stationary Gilbert–Elliott rate *and*
    /// cluster: mean loss-run length ≈ 1/p_bg, far above what an
    /// independent `Lossy` window at the same rate produces.
    #[test]
    fn burst_loss_clusters_losses_at_the_stationary_rate() {
        // p_bad = 0.05/(0.05+0.2) = 0.2 stationary loss; bursts of ~5.
        let spec = LinkSpec::clean(base()).with(
            Span::ZERO,
            Span::from_secs(1_000_000),
            LinkEffect::BurstLoss {
                p_gb: 0.05,
                p_bg: 0.2,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
        );
        let mut link = spec.instantiate();
        let mut rng = SimRng::seed_from_u64(5);
        let n: u64 = 50_000;
        let outcomes: Vec<bool> = (0..n)
            .map(|i| link.transmit(&mut rng, Nanos::from_millis(i)) == Transmission::Lost)
            .collect();
        let lost = outcomes.iter().filter(|&&l| l).count();
        let rate = lost as f64 / n as f64;
        assert!((rate - 0.2).abs() < 0.02, "stationary rate {rate}");

        let mut runs = 0usize;
        for i in 0..outcomes.len() {
            if outcomes[i] && (i == 0 || !outcomes[i - 1]) {
                runs += 1;
            }
        }
        let mean_burst = lost as f64 / runs as f64;
        assert!(
            mean_burst > 3.0,
            "losses must cluster (mean burst {mean_burst:.2}, independent would be ~1.25)"
        );
    }

    /// Outside its window a burst-loss directive draws nothing, so the
    /// base stream stays aligned with a clean link.
    #[test]
    fn burst_loss_window_leaves_the_outside_untouched() {
        let scripted = LinkSpec::clean(base()).with(
            Span::from_secs(10),
            Span::from_secs(20),
            LinkEffect::BurstLoss {
                p_gb: 1.0,
                p_bg: 0.0,
                loss_good: 0.0,
                loss_bad: 1.0,
            },
        );
        let mut link = scripted.instantiate();
        let mut rng = SimRng::seed_from_u64(6);
        for i in 0..300u64 {
            let t = Nanos::from_millis(i * 100);
            let out = link.transmit(&mut rng, t);
            if t >= Nanos::from_secs(10) && t < Nanos::from_secs(20) {
                // p_gb=1 flips to Bad on the first covered message and
                // p_bg=0 pins it there: the whole window is lost.
                assert_eq!(out, Transmission::Lost, "t={t:?}");
            } else {
                assert!(matches!(out, Transmission::Delivered { .. }), "t={t:?}");
            }
        }
    }

    #[test]
    fn rejects_empty_windows_and_bad_probabilities() {
        assert!(std::panic::catch_unwind(|| {
            LinkSpec::clean(base()).with(
                Span::from_secs(2),
                Span::from_secs(2),
                LinkEffect::Blackout,
            )
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            LinkSpec::clean(base()).with(
                Span::ZERO,
                Span::from_secs(1),
                LinkEffect::Lossy { p: 1.5 },
            )
        })
        .is_err());
        assert!(std::panic::catch_unwind(|| {
            LinkSpec::clean(base()).with(
                Span::ZERO,
                Span::from_secs(1),
                LinkEffect::BurstLoss {
                    p_gb: 0.1,
                    p_bg: -0.1,
                    loss_good: 0.0,
                    loss_bad: 1.0,
                },
            )
        })
        .is_err());
    }
}
