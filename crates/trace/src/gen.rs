//! Synthetic trace generators.
//!
//! The paper's evaluation replays two real traces that are not available
//! to us (see DESIGN.md): a week-long WAN trace between Switzerland and
//! Japan — including a loss burst and the 2004 W32/Netsky worm congestion
//! period — and a day-long LAN trace from JAIST. The generators here
//! synthesize traces with the same *structure* and matched first-order
//! statistics, which is what the failure detectors' relative behaviour
//! depends on:
//!
//! * [`WanTraceConfig`] — four regimes at Table-I proportions: stable
//!   auto-correlated delays with rare losses, a dense loss burst, a long
//!   "worm" period of elevated delay/variance/loss, then stability again.
//! * [`LanTraceConfig`] — 20 ms heartbeats, ~100 µs delays with tiny
//!   variance, zero loss, and rare long stalls (the paper observed one
//!   gap of ≈1.5 s).
//!
//! All generators are deterministic in their seed.

use crate::record::Trace;
use crate::segments::table1_segments;
use twofd_sim::delay::DelaySpec;
use twofd_sim::heartbeat::HeartbeatRun;
use twofd_sim::loss::LossSpec;
use twofd_sim::rng::DistSpec;
use twofd_sim::scenario::{NetworkScenario, Phase};
use twofd_sim::time::{Nanos, Span};

/// Configuration of the synthetic WAN trace.
#[derive(Debug, Clone, PartialEq)]
pub struct WanTraceConfig {
    /// Total heartbeats (the paper's trace has 5,845,712; default scales
    /// down to 200,000 to keep experiment turnaround reasonable —
    /// Table-I segment proportions are preserved at any size).
    pub samples: u64,
    /// Heartbeat interval Δi (paper: ≈100 ms).
    pub interval: Span,
    /// RNG seed.
    pub seed: u64,
    /// Mean one-way delay in stable periods, seconds.
    pub stable_delay_mean: f64,
    /// Delay standard deviation in stable periods, seconds.
    pub stable_delay_std: f64,
    /// Lag-1 autocorrelation of log-delays in stable periods.
    pub stable_delay_rho: f64,
    /// Loss probability in stable periods.
    pub stable_loss: f64,
    /// Mean delay during the worm period, seconds.
    pub worm_delay_mean: f64,
    /// Delay standard deviation during the worm period, seconds.
    pub worm_delay_std: f64,
    /// Long-run loss probability during the worm period.
    pub worm_loss: f64,
    /// Expected burst length (messages) of worm-period loss bursts.
    pub worm_burst_len: f64,
    /// Loss probability inside the Burst segment's bad state.
    pub burst_loss_bad: f64,
    /// Expected burst length (messages) in the Burst segment.
    pub burst_len: f64,
    /// Long-run loss probability in the Burst segment.
    pub burst_loss: f64,
    /// Per-heartbeat probability of a congestion spike in stable periods.
    pub stable_spike_prob: f64,
    /// Pareto scale of stable-period spikes, seconds. Stable-period
    /// spikes are rare but *large* (route flaps, multi-hundred-ms
    /// stalls): uncoverable by any sane margin, but poison for
    /// variance-scaled timeouts, whose σ estimate they inflate for a
    /// full sampling window.
    pub stable_spike_scale: f64,
    /// Pareto shape of stable-period spikes.
    pub stable_spike_shape: f64,
    /// Spike probability per heartbeat while congested. The default worm
    /// period is *sustained* congestion (always "in episode"): a dense
    /// stream of heavy-tailed queueing spikes that no short window can
    /// track — the regime that separates the 2W-FD from single-window
    /// Chen and from Jacobson-style margins.
    pub worm_spike_prob: f64,
    /// Calm → congested transition probability per heartbeat in the
    /// worm/burst periods (1.0 = permanently congested).
    pub worm_episode_onset: f64,
    /// Congested → calm transition probability per heartbeat (0.0 =
    /// permanently congested). Set both transition probabilities to
    /// intermediate values for episodic congestion ablations.
    pub worm_episode_end: f64,
    /// Pareto scale (minimum spike magnitude), seconds. Spikes are
    /// heavy-tailed — most are small queueing excursions, rare ones reach
    /// seconds — matching measured WAN delay distributions.
    pub spike_scale: f64,
    /// Pareto shape (tail index); smaller = heavier tail.
    pub spike_shape: f64,
}

impl Default for WanTraceConfig {
    fn default() -> Self {
        WanTraceConfig {
            samples: 200_000,
            interval: Span::from_millis(100),
            seed: 0x2BFD_0001,
            stable_delay_mean: 0.125,
            stable_delay_std: 0.005,
            stable_delay_rho: 0.90,
            stable_loss: 0.001,
            worm_delay_mean: 0.150,
            worm_delay_std: 0.020,
            worm_loss: 0.08,
            worm_burst_len: 8.0,
            burst_loss_bad: 0.98,
            burst_len: 40.0,
            burst_loss: 0.45,
            stable_spike_prob: 0.0015,
            stable_spike_scale: 0.25,
            stable_spike_shape: 1.5,
            worm_spike_prob: 0.9,
            worm_episode_onset: 1.0,
            worm_episode_end: 0.0,
            spike_scale: 0.05,
            spike_shape: 1.4,
        }
    }
}

impl WanTraceConfig {
    /// A smaller configuration for unit tests and examples.
    pub fn small(samples: u64, seed: u64) -> Self {
        WanTraceConfig {
            samples,
            seed,
            ..WanTraceConfig::default()
        }
    }

    /// Builds the four-phase network scenario at Table-I proportions.
    pub fn scenario(&self) -> NetworkScenario {
        let segs = table1_segments(self.samples);
        assert_eq!(segs.len(), 4);

        let spike_dist = DistSpec::Pareto {
            x_min: self.spike_scale,
            alpha: self.spike_shape,
        };
        let stable_delay = DelaySpec::Ar1Spiky {
            mean_secs: self.stable_delay_mean,
            std_dev_secs: self.stable_delay_std,
            rho: self.stable_delay_rho,
            floor_nanos: 1_000_000, // 1 ms physical floor
            spike_prob: self.stable_spike_prob,
            spike_dist: DistSpec::Pareto {
                x_min: self.stable_spike_scale,
                alpha: self.stable_spike_shape,
            },
        };
        let worm_delay = DelaySpec::Episodic {
            mean_secs: self.worm_delay_mean,
            std_dev_secs: self.worm_delay_std,
            rho: 0.30,
            floor_nanos: 1_000_000,
            onset_prob: self.worm_episode_onset,
            end_prob: self.worm_episode_end,
            spike_prob: self.worm_spike_prob,
            spike_dist,
        };
        // Gilbert–Elliott parameters from target long-run loss `l`,
        // expected burst length `b` and in-burst loss `q`:
        // p_bg = 1/b, stationary bad prob = l/q, p_gb solved from it.
        let ge = |l: f64, b: f64, q: f64| -> LossSpec {
            let p_bg = 1.0 / b;
            let pi_bad = (l / q).min(0.9999);
            let p_gb = p_bg * pi_bad / (1.0 - pi_bad);
            LossSpec::GilbertElliott {
                p_gb: p_gb.min(1.0),
                p_bg,
                loss_good: 0.0,
                loss_bad: q,
            }
        };

        NetworkScenario::new(vec![
            Phase {
                name: "Stable 1".into(),
                heartbeats: segs[0].len(),
                delay: stable_delay,
                loss: LossSpec::Bernoulli {
                    p: self.stable_loss,
                },
            },
            Phase {
                name: "Burst".into(),
                heartbeats: segs[1].len(),
                delay: worm_delay,
                loss: ge(self.burst_loss, self.burst_len, self.burst_loss_bad),
            },
            Phase {
                name: "Worm".into(),
                heartbeats: segs[2].len(),
                delay: worm_delay,
                loss: ge(self.worm_loss, self.worm_burst_len, 0.9),
            },
            Phase {
                name: "Stable 2".into(),
                heartbeats: segs[3].len(),
                delay: stable_delay,
                loss: LossSpec::Bernoulli {
                    p: self.stable_loss,
                },
            },
        ])
    }

    /// Generates the trace.
    pub fn generate(&self) -> Trace {
        let run = HeartbeatRun::new(self.interval, self.scenario(), self.seed);
        Trace::new("synthetic-wan", self.interval, run.execute())
    }
}

/// Configuration of the synthetic LAN trace.
#[derive(Debug, Clone, PartialEq)]
pub struct LanTraceConfig {
    /// Total heartbeats (paper: 7,104,446; default scales down).
    pub samples: u64,
    /// Heartbeat interval Δi (paper: 20 ms).
    pub interval: Span,
    /// RNG seed.
    pub seed: u64,
    /// Mean one-way delay, seconds (paper: ≈100 µs).
    pub delay_mean: f64,
    /// Delay standard deviation, seconds (paper: "very small").
    pub delay_std: f64,
    /// Probability of a long stall per heartbeat.
    pub stall_prob: f64,
    /// Stall duration range `(lo, hi)` in seconds (paper max ≈1.5 s).
    pub stall_range: (f64, f64),
}

impl Default for LanTraceConfig {
    fn default() -> Self {
        LanTraceConfig {
            samples: 200_000,
            interval: Span::from_millis(20),
            seed: 0x2BFD_0002,
            delay_mean: 100e-6,
            delay_std: 15e-6,
            stall_prob: 2e-6,
            stall_range: (0.5, 1.5),
        }
    }
}

impl LanTraceConfig {
    /// A smaller configuration for unit tests and examples.
    pub fn small(samples: u64, seed: u64) -> Self {
        LanTraceConfig {
            samples,
            seed,
            ..LanTraceConfig::default()
        }
    }

    /// Builds the single-phase LAN scenario.
    pub fn scenario(&self) -> NetworkScenario {
        NetworkScenario::uniform(
            "LAN",
            self.samples,
            DelaySpec::Spiky {
                base: DistSpec::LogNormal {
                    mean: self.delay_mean,
                    std_dev: self.delay_std,
                },
                floor_nanos: 10_000, // 10 µs wire floor
                spike_prob: self.stall_prob,
                spike_dist: DistSpec::Uniform {
                    lo: self.stall_range.0,
                    hi: self.stall_range.1,
                },
            },
            LossSpec::None, // the paper's LAN trace lost no heartbeat
        )
    }

    /// Generates the trace.
    pub fn generate(&self) -> Trace {
        let run = HeartbeatRun::new(self.interval, self.scenario(), self.seed);
        Trace::new("synthetic-lan", self.interval, run.execute())
    }
}

/// Generates a trace from an arbitrary scenario — the hook for custom
/// workloads (failure-injection tests, ablations).
pub fn generate_scripted(
    name: &str,
    interval: Span,
    scenario: NetworkScenario,
    seed: u64,
    crash_at: Option<Nanos>,
) -> Trace {
    let mut run = HeartbeatRun::new(interval, scenario, seed);
    if let Some(at) = crash_at {
        run = run.with_crash_at(at);
    }
    Trace::new(name, interval, run.execute())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::TraceStats;

    #[test]
    fn wan_trace_matches_target_statistics() {
        let cfg = WanTraceConfig::small(60_000, 7);
        let trace = cfg.generate();
        assert_eq!(trace.sent() as u64, cfg.samples);
        let stats = TraceStats::compute(&trace);
        // Loss: dominated by stable (~0.1%) plus worm (~8% over a third
        // of the trace) → overall a few percent.
        assert!(
            stats.loss_rate > 0.005 && stats.loss_rate < 0.10,
            "loss {}",
            stats.loss_rate
        );
        // Delay mean sits between stable and worm means.
        assert!(
            stats.delay_mean > 0.10 && stats.delay_mean < 0.20,
            "delay mean {}",
            stats.delay_mean
        );
    }

    #[test]
    fn wan_segments_have_distinct_loss_profiles() {
        let cfg = WanTraceConfig::small(80_000, 3);
        let trace = cfg.generate();
        let segs = table1_segments(cfg.samples);
        let loss = |i: usize| {
            let s = segs[i].slice(&trace);
            TraceStats::compute(&s).loss_rate
        };
        let (stable1, burst, worm, stable2) = (loss(0), loss(1), loss(2), loss(3));
        assert!(burst > 10.0 * stable1, "burst {burst} vs stable {stable1}");
        assert!(worm > 5.0 * stable1, "worm {worm} vs stable {stable1}");
        assert!(burst > worm, "burst {burst} should exceed worm {worm}");
        assert!(stable2 < 0.01, "stable2 {stable2}");
    }

    #[test]
    fn lan_trace_is_clean_and_fast() {
        let cfg = LanTraceConfig::small(50_000, 5);
        let trace = cfg.generate();
        let stats = TraceStats::compute(&trace);
        assert_eq!(stats.loss_rate, 0.0);
        assert!(
            (stats.delay_mean - 100e-6).abs() < 30e-6,
            "delay mean {}",
            stats.delay_mean
        );
        assert!(stats.delay_max < 2.0);
    }

    #[test]
    fn generators_are_deterministic() {
        let a = WanTraceConfig::small(5_000, 11).generate();
        let b = WanTraceConfig::small(5_000, 11).generate();
        assert_eq!(a, b);
        let c = WanTraceConfig::small(5_000, 12).generate();
        assert_ne!(a, c);
    }

    #[test]
    fn scripted_generation_with_crash() {
        let scenario = NetworkScenario::uniform(
            "x",
            100,
            DelaySpec::Constant { nanos: 1_000_000 },
            LossSpec::None,
        );
        let t = generate_scripted(
            "crashy",
            Span::from_millis(10),
            scenario,
            1,
            Some(Nanos::from_millis(505)),
        );
        assert_eq!(t.max_seq(), 50);
        assert_eq!(t.name, "crashy");
    }
}
