//! Phase-scripted network scenarios.
//!
//! The paper's WAN experiment is naturally described as a sequence of
//! regimes — *Stable 1*, *Burst*, *Worm*, *Stable 2* (Table I) — each with
//! its own delay and loss behaviour. A [`NetworkScenario`] is exactly
//! that: an ordered list of [`Phase`]s, each active for a number of
//! heartbeats, with plain-data model specs rather than trait objects, so
//! a scenario is a value that can be cloned, compared and rebuilt.

use crate::delay::{DelayModel, DelaySpec};
use crate::loss::{LossModel, LossSpec};
use crate::rng::SimRng;
use crate::time::{Nanos, Span};

/// One regime of network behaviour.
#[derive(Debug, Clone, PartialEq)]
pub struct Phase {
    /// Human-readable label ("Stable 1", "Burst", …).
    pub name: String,
    /// Number of heartbeats sent during this phase.
    pub heartbeats: u64,
    /// Delay behaviour while the phase is active.
    pub delay: DelaySpec,
    /// Loss behaviour while the phase is active.
    pub loss: LossSpec,
}

/// An ordered sequence of phases.
#[derive(Debug, Clone, PartialEq)]
pub struct NetworkScenario {
    /// The regimes, applied to heartbeats in order.
    pub phases: Vec<Phase>,
}

impl NetworkScenario {
    /// Creates a scenario from non-empty phases.
    pub fn new(phases: Vec<Phase>) -> Self {
        assert!(!phases.is_empty(), "scenario needs at least one phase");
        assert!(
            phases.iter().all(|p| p.heartbeats > 0),
            "phases must cover at least one heartbeat"
        );
        NetworkScenario { phases }
    }

    /// A single-phase scenario.
    pub fn uniform(name: &str, heartbeats: u64, delay: DelaySpec, loss: LossSpec) -> Self {
        NetworkScenario::new(vec![Phase {
            name: name.to_string(),
            heartbeats,
            delay,
            loss,
        }])
    }

    /// Total number of heartbeats across all phases.
    pub fn total_heartbeats(&self) -> u64 {
        self.phases.iter().map(|p| p.heartbeats).sum()
    }

    /// Index of the phase covering heartbeat `seq` (0-based), if any.
    pub fn phase_of(&self, seq: u64) -> Option<usize> {
        let mut start = 0;
        for (i, p) in self.phases.iter().enumerate() {
            if seq < start + p.heartbeats {
                return Some(i);
            }
            start += p.heartbeats;
        }
        None
    }

    /// Instantiates the per-phase models into a stateful network.
    pub fn instantiate(&self) -> ScenarioNetwork {
        ScenarioNetwork {
            scenario: self.clone(),
            models: self
                .phases
                .iter()
                .map(|p| (p.delay.build(), p.loss.build()))
                .collect(),
            next_seq: 0,
        }
    }
}

/// A [`NetworkScenario`] with live model state, consumed heartbeat by
/// heartbeat in sequence order.
pub struct ScenarioNetwork {
    scenario: NetworkScenario,
    models: Vec<(Box<dyn DelayModel + Send>, Box<dyn LossModel + Send>)>,
    next_seq: u64,
}

/// Outcome of pushing one heartbeat through the network.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transmission {
    /// Delivered after the contained delay.
    Delivered {
        /// One-way delay experienced by the message.
        delay: Span,
    },
    /// Dropped by the network.
    Lost,
}

impl ScenarioNetwork {
    /// Transmits the next heartbeat (sent at `send_time`); heartbeats must
    /// be offered in increasing sequence order, one call per heartbeat.
    pub fn transmit(&mut self, rng: &mut SimRng, send_time: Nanos) -> Transmission {
        let phase = self
            .scenario
            .phase_of(self.next_seq)
            .unwrap_or(self.scenario.phases.len() - 1);
        self.next_seq += 1;
        let (delay_model, loss_model) = &mut self.models[phase];
        if loss_model.is_lost(rng, send_time) {
            Transmission::Lost
        } else {
            Transmission::Delivered {
                delay: delay_model.delay(rng, send_time),
            }
        }
    }

    /// Heartbeats transmitted so far.
    pub fn transmitted(&self) -> u64 {
        self.next_seq
    }

    /// The scenario this network was built from.
    pub fn scenario(&self) -> &NetworkScenario {
        &self.scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::DistSpec;

    fn two_phase() -> NetworkScenario {
        NetworkScenario::new(vec![
            Phase {
                name: "clean".into(),
                heartbeats: 100,
                delay: DelaySpec::Constant { nanos: 1_000_000 },
                loss: LossSpec::None,
            },
            Phase {
                name: "dead".into(),
                heartbeats: 50,
                delay: DelaySpec::Constant { nanos: 1_000_000 },
                loss: LossSpec::Bernoulli { p: 1.0 },
            },
        ])
    }

    #[test]
    fn totals() {
        assert_eq!(two_phase().total_heartbeats(), 150);
    }

    #[test]
    fn phase_lookup() {
        let s = two_phase();
        assert_eq!(s.phase_of(0), Some(0));
        assert_eq!(s.phase_of(99), Some(0));
        assert_eq!(s.phase_of(100), Some(1));
        assert_eq!(s.phase_of(149), Some(1));
        assert_eq!(s.phase_of(150), None);
    }

    #[test]
    fn phases_apply_in_order() {
        let s = two_phase();
        let mut net = s.instantiate();
        let mut rng = SimRng::seed_from_u64(0);
        for i in 0..100 {
            assert_eq!(
                net.transmit(&mut rng, Nanos::from_millis(i)),
                Transmission::Delivered {
                    delay: Span::from_millis(1)
                }
            );
        }
        for i in 100..150 {
            assert_eq!(
                net.transmit(&mut rng, Nanos::from_millis(i)),
                Transmission::Lost
            );
        }
        assert_eq!(net.transmitted(), 150);
    }

    #[test]
    fn overrun_uses_last_phase() {
        let s = two_phase();
        let mut net = s.instantiate();
        let mut rng = SimRng::seed_from_u64(0);
        for i in 0..150 {
            net.transmit(&mut rng, Nanos::from_millis(i));
        }
        // Past the scripted range: keeps using the "dead" phase.
        assert_eq!(
            net.transmit(&mut rng, Nanos::from_millis(151)),
            Transmission::Lost
        );
    }

    #[test]
    fn rejects_empty_scenarios() {
        assert!(std::panic::catch_unwind(|| NetworkScenario::new(vec![])).is_err());
    }

    #[test]
    fn uniform_constructor() {
        let s = NetworkScenario::uniform(
            "lan",
            10,
            DelaySpec::Iid {
                dist: DistSpec::Constant { value: 0.0001 },
                floor_nanos: 0,
            },
            LossSpec::None,
        );
        assert_eq!(s.phases.len(), 1);
        assert_eq!(s.total_heartbeats(), 10);
    }
}
