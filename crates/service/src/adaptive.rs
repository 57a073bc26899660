//! Adaptive reconfiguration of the shared service.
//!
//! §V-A of the paper: "it is possible to run the configuration procedure
//! periodically in order to make the algorithm adaptive to changes in
//! the probabilistic behavior of the network." This module closes that
//! loop in a discrete-event simulation:
//!
//! * the monitored host sends heartbeats at the service's current
//!   `Δi_min`;
//! * the monitor estimates `(pL, V(D))` online from the stream
//!   (§V-A.1);
//! * every `reconfig_period`, the service re-runs the combination
//!   procedure (Steps 1–4) with the fresh estimates, adopts the new
//!   shared interval, and re-derives every application's margin.
//!
//! The simulation driver lets tests inject a network-regime change and
//! assert that the service converges to a configuration suited to the
//! new conditions — the paper's adaptivity claim, made executable.

use crate::combine::{combine, CombineError, SharedConfig};
use crate::registry::AppRegistry;
use twofd_core::NetworkEstimator;
use twofd_sim::delay::{DelayModel, DelaySpec};
use twofd_sim::event::EventQueue;
use twofd_sim::loss::{LossModel, LossSpec};
use twofd_sim::rng::SimRng;
use twofd_sim::time::{Nanos, Span};

/// One adopted configuration, with the estimates that produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct ReconfigRecord {
    /// When the configuration was adopted.
    pub at: Nanos,
    /// The shared heartbeat interval adopted.
    pub interval: Span,
    /// Loss estimate `pL` at reconfiguration time.
    pub loss_estimate: f64,
    /// Delay-variance estimate `V(D)` at reconfiguration time (s²).
    pub delay_var_estimate: f64,
}

/// Outcome of an adaptive run.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveRunReport {
    /// Every configuration adopted, in order (the initial one first).
    pub reconfigurations: Vec<ReconfigRecord>,
    /// Heartbeats emitted by the monitored host.
    pub sent: u64,
    /// Heartbeats delivered to the monitor.
    pub delivered: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Event {
    Send,
    Deliver { seq: u64, send: Nanos },
    Reconfigure,
}

/// Discrete-event simulation of a self-reconfiguring shared service.
pub struct AdaptiveServiceSim {
    registry: AppRegistry,
    reconfig_period: Span,
    queue: EventQueue<Event>,
    rng: SimRng,
    delay: Box<dyn DelayModel + Send>,
    loss: Box<dyn LossModel + Send>,
    estimator: NetworkEstimator,
    current: SharedConfig,
    next_seq: u64,
    sent: u64,
    delivered: u64,
    report: AdaptiveRunReport,
    started: bool,
}

impl AdaptiveServiceSim {
    /// Creates the simulation.
    ///
    /// `initial_guess` seeds the very first configuration before any
    /// heartbeat has been observed (a deployment would use provisioning
    /// defaults). Returns an error if any application's tuple is
    /// unachievable under the guess.
    pub fn new(
        registry: AppRegistry,
        initial_guess: twofd_core::NetworkBehavior,
        reconfig_period: Span,
        delay: DelaySpec,
        loss: LossSpec,
        seed: u64,
    ) -> Result<Self, CombineError> {
        assert!(
            !reconfig_period.is_zero(),
            "reconfig period must be positive"
        );
        let current = combine(&registry, &initial_guess)?;
        let initial = ReconfigRecord {
            at: Nanos::ZERO,
            interval: current.interval,
            loss_estimate: initial_guess.loss_prob,
            delay_var_estimate: initial_guess.delay_var,
        };
        Ok(AdaptiveServiceSim {
            registry,
            reconfig_period,
            queue: EventQueue::new(),
            rng: SimRng::seed_from_u64(seed),
            delay: delay.build(),
            loss: loss.build(),
            estimator: NetworkEstimator::new(2_000),
            current,
            next_seq: 0,
            sent: 0,
            delivered: 0,
            report: AdaptiveRunReport {
                reconfigurations: vec![initial],
                sent: 0,
                delivered: 0,
            },
            started: false,
        })
    }

    /// Swaps the network models — a regime change. Takes effect for all
    /// heartbeats sent after the call.
    pub fn set_network(&mut self, delay: DelaySpec, loss: LossSpec) {
        self.delay = delay.build();
        self.loss = loss.build();
    }

    /// Runs the simulation until simulated time `until`, returning the
    /// cumulative report. May be called repeatedly with increasing
    /// horizons (e.g. to change the network between runs).
    pub fn run_until(&mut self, until: Nanos) -> AdaptiveRunReport {
        if !self.started {
            self.started = true;
            let first_send = self.queue.now() + self.current.interval;
            self.queue.schedule(first_send, Event::Send);
            self.queue
                .schedule(self.queue.now() + self.reconfig_period, Event::Reconfigure);
        }
        while let Some(at) = self.queue.peek_time() {
            if at > until {
                break;
            }
            let (now, event) = self.queue.pop().expect("peeked");
            match event {
                Event::Send => {
                    self.next_seq += 1;
                    self.sent += 1;
                    let seq = self.next_seq;
                    if !self.loss.is_lost(&mut self.rng, now) {
                        let arrival = now + self.delay.delay(&mut self.rng, now);
                        self.queue
                            .schedule(arrival, Event::Deliver { seq, send: now });
                    }
                    self.queue
                        .schedule(now + self.current.interval, Event::Send);
                }
                Event::Deliver { seq, send } => {
                    self.delivered += 1;
                    self.estimator.observe(seq, send, now);
                }
                Event::Reconfigure => {
                    self.reconfigure(now);
                    self.queue
                        .schedule(now + self.reconfig_period, Event::Reconfigure);
                }
            }
        }
        self.report.sent = self.sent;
        self.report.delivered = self.delivered;
        self.report.clone()
    }

    fn reconfigure(&mut self, now: Nanos) {
        // Before enough observations the estimates are meaningless;
        // skip (the initial guess stays in force).
        if self.estimator.observed() < 100 {
            return;
        }
        let behavior = self.estimator.behavior();
        match combine(&self.registry, &behavior) {
            Ok(config) => {
                if config.interval != self.current.interval {
                    self.report.reconfigurations.push(ReconfigRecord {
                        at: now,
                        interval: config.interval,
                        loss_estimate: behavior.loss_prob,
                        delay_var_estimate: behavior.delay_var,
                    });
                }
                self.current = config;
            }
            Err(_) => {
                // Conditions too hostile for some tuple: keep the last
                // viable configuration rather than stopping heartbeats.
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twofd_core::{NetworkBehavior, QosSpec};
    use twofd_sim::rng::DistSpec;

    fn registry() -> AppRegistry {
        let mut r = AppRegistry::new();
        r.register("a", QosSpec::new(1.0, 3600.0, 1.0));
        r.register("b", QosSpec::new(4.0, 600.0, 2.0));
        r
    }

    fn quiet_delay() -> DelaySpec {
        DelaySpec::Iid {
            dist: DistSpec::LogNormal {
                mean: 0.02,
                std_dev: 0.004,
            },
            floor_nanos: 100_000,
        }
    }

    fn noisy_delay() -> DelaySpec {
        DelaySpec::Iid {
            dist: DistSpec::LogNormal {
                mean: 0.08,
                std_dev: 0.05,
            },
            floor_nanos: 100_000,
        }
    }

    fn sim(seed: u64) -> AdaptiveServiceSim {
        AdaptiveServiceSim::new(
            registry(),
            NetworkBehavior::new(0.05, 0.001), // deliberately poor guess
            Span::from_secs(30),
            quiet_delay(),
            LossSpec::Bernoulli { p: 0.002 },
            seed,
        )
        .unwrap()
    }

    #[test]
    fn estimates_replace_the_initial_guess() {
        let mut s = sim(1);
        let report = s.run_until(Nanos::from_secs(300));
        assert!(report.reconfigurations.len() >= 2, "never reconfigured");
        let last = report.reconfigurations.last().unwrap();
        // The measured network is far better than the guess…
        assert!(last.loss_estimate < 0.02, "pL {}", last.loss_estimate);
        assert!(last.delay_var_estimate < 0.001);
        // …so the adopted interval is larger (fewer heartbeats needed).
        assert!(
            report.reconfigurations.last().unwrap().interval > report.reconfigurations[0].interval,
            "{:?}",
            report.reconfigurations
        );
    }

    #[test]
    fn regime_change_tightens_the_configuration() {
        let mut s = sim(2);
        s.run_until(Nanos::from_secs(300));
        let calm_interval = s.current.interval;

        // The network degrades: more loss, much more delay variance.
        s.set_network(noisy_delay(), LossSpec::Bernoulli { p: 0.08 });
        let report = s.run_until(Nanos::from_secs(900));
        let stressed_interval = report.reconfigurations.last().unwrap().interval;
        assert!(
            stressed_interval < calm_interval,
            "interval did not tighten: calm {calm_interval}, stressed {stressed_interval}"
        );
        let last = report.reconfigurations.last().unwrap();
        assert!(last.loss_estimate > 0.03, "pL {}", last.loss_estimate);
    }

    #[test]
    fn heartbeats_flow_continuously() {
        let mut s = sim(3);
        let report = s.run_until(Nanos::from_secs(120));
        assert!(report.sent > 100);
        // ~0.2% loss: nearly everything arrives.
        assert!(report.delivered as f64 > 0.98 * report.sent as f64);
    }

    #[test]
    fn runs_are_deterministic_in_the_seed() {
        let a = sim(7).run_until(Nanos::from_secs(200));
        let b = sim(7).run_until(Nanos::from_secs(200));
        assert_eq!(a, b);
        let c = sim(8).run_until(Nanos::from_secs(200));
        assert!(a.sent != c.sent || a.reconfigurations != c.reconfigurations);
    }

    #[test]
    fn incremental_runs_match_a_single_run() {
        let mut split = sim(9);
        split.run_until(Nanos::from_secs(100));
        let split_report = split.run_until(Nanos::from_secs(200));
        let whole_report = sim(9).run_until(Nanos::from_secs(200));
        assert_eq!(split_report, whole_report);
    }

    #[test]
    fn hostile_conditions_keep_last_viable_config() {
        let mut s = sim(10);
        s.run_until(Nanos::from_secs(200));
        // Catastrophic loss: most tuples become unachievable; the
        // service must keep heartbeating with the old parameters.
        s.set_network(noisy_delay(), LossSpec::Bernoulli { p: 0.95 });
        let before = s.current.interval;
        let report = s.run_until(Nanos::from_secs(600));
        assert!(report.sent > 0);
        // Interval still positive and sane.
        assert!(s.current.interval <= before.saturating_mul(4));
        assert!(!s.current.interval.is_zero());
    }

    #[test]
    #[should_panic(expected = "reconfig period must be positive")]
    fn zero_period_rejected() {
        let _ = AdaptiveServiceSim::new(
            registry(),
            NetworkBehavior::new(0.01, 0.0001),
            Span::ZERO,
            quiet_delay(),
            LossSpec::None,
            0,
        );
    }
}
