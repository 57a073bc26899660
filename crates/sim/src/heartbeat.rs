//! Heartbeat emission through a scripted network.
//!
//! [`HeartbeatRun`] ties together the paper's process model: a monitored
//! process `p` sends heartbeat `m_i` at time `i · Δi` (sequence numbers
//! start at 1, exactly as in Algorithm 1), each message traverses a
//! [`ScenarioNetwork`] that may drop or delay it, and an optional crash
//! time cuts the stream short. The output is a list of
//! [`HeartbeatOutcome`]s — precisely the information a trace file records.

use crate::rng::SimRng;
use crate::scenario::{NetworkScenario, ScenarioNetwork, Transmission};
use crate::time::{Nanos, Span};

/// The fate of one heartbeat.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HeartbeatOutcome {
    /// Sequence number, starting at 1.
    pub seq: u64,
    /// Send time on `p`'s clock (`seq · Δi`).
    pub send: Nanos,
    /// Arrival time at `q`, or `None` if the network dropped it.
    pub arrival: Option<Nanos>,
}

impl HeartbeatOutcome {
    /// One-way delay, if delivered.
    pub fn delay(&self) -> Option<Span> {
        self.arrival.map(|a| a - self.send)
    }
}

/// Configuration of a heartbeat emission run.
#[derive(Debug, Clone, PartialEq)]
pub struct HeartbeatRun {
    /// Heartbeat interval Δi.
    pub interval: Span,
    /// Network behaviour across the run.
    pub scenario: NetworkScenario,
    /// If set, `p` crashes at this instant: no heartbeat with
    /// `send >= crash_at` is emitted.
    pub crash_at: Option<Nanos>,
    /// RNG seed for the network models.
    pub seed: u64,
}

impl HeartbeatRun {
    /// Creates a run description (no crash by default).
    pub fn new(interval: Span, scenario: NetworkScenario, seed: u64) -> Self {
        assert!(!interval.is_zero(), "heartbeat interval must be positive");
        HeartbeatRun {
            interval,
            scenario,
            crash_at: None,
            seed,
        }
    }

    /// Sets a crash time for the monitored process.
    pub fn with_crash_at(mut self, at: Nanos) -> Self {
        self.crash_at = Some(at);
        self
    }

    /// Executes the run, producing one outcome per emitted heartbeat, in
    /// send order.
    pub fn execute(&self) -> Vec<HeartbeatOutcome> {
        let mut rng = SimRng::seed_from_u64(self.seed);
        let mut net: ScenarioNetwork = self.scenario.instantiate();
        let total = self.scenario.total_heartbeats();
        let mut out = Vec::with_capacity(total as usize);
        for seq in 1..=total {
            let send = Nanos(seq * self.interval.0);
            if let Some(crash) = self.crash_at {
                if send >= crash {
                    break;
                }
            }
            let arrival = match net.transmit(&mut rng, send) {
                Transmission::Delivered { delay } => Some(send + delay),
                Transmission::Lost => None,
            };
            out.push(HeartbeatOutcome { seq, send, arrival });
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delay::DelaySpec;
    use crate::loss::LossSpec;

    fn clean_scenario(n: u64) -> NetworkScenario {
        NetworkScenario::uniform(
            "clean",
            n,
            DelaySpec::Constant { nanos: 2_000_000 },
            LossSpec::None,
        )
    }

    #[test]
    fn sends_at_multiples_of_interval() {
        let run = HeartbeatRun::new(Span::from_millis(100), clean_scenario(5), 1);
        let out = run.execute();
        assert_eq!(out.len(), 5);
        for (i, hb) in out.iter().enumerate() {
            let seq = i as u64 + 1;
            assert_eq!(hb.seq, seq);
            assert_eq!(hb.send, Nanos::from_millis(100 * seq));
            assert_eq!(hb.arrival, Some(Nanos::from_millis(100 * seq + 2)));
            assert_eq!(hb.delay(), Some(Span::from_millis(2)));
        }
    }

    #[test]
    fn crash_truncates_the_stream() {
        let run = HeartbeatRun::new(Span::from_millis(100), clean_scenario(10), 1)
            .with_crash_at(Nanos::from_millis(450));
        let out = run.execute();
        // Heartbeats at 100..400 ms are sent; the one at 500 ms is not.
        assert_eq!(out.len(), 4);
        assert_eq!(out.last().unwrap().send, Nanos::from_millis(400));
    }

    #[test]
    fn crash_exactly_at_send_time_suppresses_that_heartbeat() {
        let run = HeartbeatRun::new(Span::from_millis(100), clean_scenario(10), 1)
            .with_crash_at(Nanos::from_millis(300));
        let out = run.execute();
        assert_eq!(out.last().unwrap().send, Nanos::from_millis(200));
    }

    #[test]
    fn lost_heartbeats_have_no_arrival() {
        let scenario = NetworkScenario::uniform(
            "dead",
            3,
            DelaySpec::Constant { nanos: 0 },
            LossSpec::Bernoulli { p: 1.0 },
        );
        let out = HeartbeatRun::new(Span::from_millis(20), scenario, 7).execute();
        assert_eq!(out.len(), 3);
        assert!(out.iter().all(|hb| hb.arrival.is_none()));
        assert!(out.iter().all(|hb| hb.delay().is_none()));
    }

    #[test]
    fn same_seed_same_outcomes() {
        let scenario = NetworkScenario::uniform(
            "noisy",
            500,
            DelaySpec::Iid {
                dist: crate::rng::DistSpec::Exponential {
                    mean: 0.05,
                    offset: 0.01,
                },
                floor_nanos: 0,
            },
            LossSpec::Bernoulli { p: 0.05 },
        );
        let a = HeartbeatRun::new(Span::from_millis(100), scenario.clone(), 42).execute();
        let b = HeartbeatRun::new(Span::from_millis(100), scenario, 42).execute();
        assert_eq!(a, b);
    }

    #[test]
    #[should_panic(expected = "interval must be positive")]
    fn zero_interval_rejected() {
        HeartbeatRun::new(Span::ZERO, clean_scenario(1), 0);
    }
}
