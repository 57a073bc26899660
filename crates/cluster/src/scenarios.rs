//! The scripted scenario library.
//!
//! Each scenario is a [`ClusterConfig`] plus the [`Envelope`] its
//! report must land in: which streams end Trusted or Suspected, how
//! many suspicions each may rack up on the way, and — where the
//! outcome is clear-cut — whether the online [`twofd_obs::QosVerdict`]
//! must come back met or violated. The library covers the failure modes the
//! fleet runtime claims to survive:
//!
//! | scenario             | what it scripts                                  |
//! |----------------------|--------------------------------------------------|
//! | `steady_state`       | jittery WAN links, no faults                     |
//! | `crash`              | a subset of the fleet crashes mid-run            |
//! | `partition_and_heal` | symmetric blackout of a group, then recovery     |
//! | `asymmetric_link`    | one direction dark, the other clean (2 monitors) |
//! | `skewed_clocks`      | offset + drifting clocks on every node           |
//! | `mass_churn`         | staggered joins, half the fleet leaves           |
//! | `brownout`           | one slow, lossy node flapping for a window       |
//! | `crash_recovery`     | reboots with bumped incarnations → `Recovered`   |
//! | `monitor_failover`   | a federated monitor dies; its peer adopts        |
//!
//! Every scenario uses stochastic link delay, so different seeds yield
//! different arrival instants (and thus different timelines) while any
//! fixed seed replays bit-identically — the determinism harness in
//! `tests/cluster_scenarios.rs` checks both directions.

use crate::node::NodeClock;
use crate::sim::{run, ClusterConfig, FederationPlan, MonitorSpec, ScenarioReport, SenderSpec};
use twofd_core::{DetectorConfig, DetectorSpec, FdOutput, QosSpec, TransitionKind};
use twofd_obs::{QosOrigin, QosTrackerConfig};
use twofd_sim::link::{LinkEffect, LinkSpec};
use twofd_sim::loss::LossSpec;
use twofd_sim::rng::DistSpec;
use twofd_sim::scenario::NetworkScenario;
use twofd_sim::time::{Nanos, Span};
use twofd_sim::DelaySpec;

/// How big to build the fleet: `Quick` for CI smoke runs and tests,
/// `Full` for the bench example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Small fleets — every scenario finishes in well under a second.
    Quick,
    /// The sizes the bench artifact reports (thousands of streams in
    /// `mass_churn`).
    Full,
}

impl Scale {
    fn pick(self, quick: usize, full: usize) -> usize {
        match self {
            Scale::Quick => quick,
            Scale::Full => full,
        }
    }
}

/// Bounds one group of streams must satisfy on one monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct StreamEnvelope {
    /// Which monitor's report to check.
    pub monitor: usize,
    /// The streams the bounds apply to.
    pub streams: Vec<u64>,
    /// Required detector output at end of run.
    pub final_output: FdOutput,
    /// Minimum Suspect transitions each stream must show.
    pub min_suspicions: u64,
    /// Maximum Suspect transitions each stream may show.
    pub max_suspicions: u64,
    /// Minimum `Recovered` transitions (incarnation-bump re-trusts)
    /// each stream must show.
    pub min_recoveries: u64,
    /// Maximum `Recovered` transitions each stream may show.
    pub max_recoveries: u64,
    /// If set, the end-of-run [`twofd_obs::QosVerdict::met`] each
    /// stream must report. Leave `None` where the verdict is not
    /// clear-cut.
    pub qos_met: Option<bool>,
}

/// The declared acceptance region of one scenario's report.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Envelope {
    /// Per-group bounds; streams not mentioned are unconstrained.
    pub streams: Vec<StreamEnvelope>,
}

impl Envelope {
    /// Checks `report` against every bound; `Err` carries one line per
    /// violation.
    pub fn check(&self, report: &ScenarioReport) -> Result<(), Vec<String>> {
        let mut violations = Vec::new();
        for bound in &self.streams {
            let Some(monitor) = report.monitors.get(bound.monitor) else {
                violations.push(format!("no monitor {}", bound.monitor));
                continue;
            };
            for &stream in &bound.streams {
                let actual = monitor
                    .final_outputs
                    .iter()
                    .find(|(s, _)| *s == stream)
                    .map(|&(_, out)| out);
                if actual != Some(bound.final_output) {
                    violations.push(format!(
                        "monitor {} stream {stream}: final output {actual:?}, expected {:?}",
                        bound.monitor, bound.final_output
                    ));
                }
                let suspicions = monitor
                    .timeline
                    .iter()
                    .filter(|e| e.key == stream && e.output == FdOutput::Suspect)
                    .count() as u64;
                if suspicions < bound.min_suspicions || suspicions > bound.max_suspicions {
                    violations.push(format!(
                        "monitor {} stream {stream}: {suspicions} suspicions outside [{}, {}]",
                        bound.monitor, bound.min_suspicions, bound.max_suspicions
                    ));
                }
                let recoveries = monitor
                    .timeline
                    .iter()
                    .filter(|e| e.key == stream && e.kind == TransitionKind::Recovered)
                    .count() as u64;
                if recoveries < bound.min_recoveries || recoveries > bound.max_recoveries {
                    violations.push(format!(
                        "monitor {} stream {stream}: {recoveries} recoveries outside [{}, {}]",
                        bound.monitor, bound.min_recoveries, bound.max_recoveries
                    ));
                }
                if let Some(expected_met) = bound.qos_met {
                    let met = monitor
                        .qos
                        .iter()
                        .find(|(s, _, _)| *s == stream)
                        .map(|(_, _, v)| v.met);
                    if met != Some(expected_met) {
                        violations.push(format!(
                            "monitor {} stream {stream}: qos met = {met:?}, expected {expected_met}",
                            bound.monitor
                        ));
                    }
                }
            }
        }
        if violations.is_empty() {
            Ok(())
        } else {
            Err(violations)
        }
    }
}

/// A named cluster scenario: the configuration plus its acceptance
/// envelope.
#[derive(Debug, Clone, PartialEq)]
pub struct Scenario {
    /// The cluster to simulate.
    pub config: ClusterConfig,
    /// The region its report must land in.
    pub envelope: Envelope,
}

impl Scenario {
    /// The scenario's name.
    pub fn name(&self) -> &str {
        &self.config.name
    }

    /// Runs the scenario under `seed`.
    pub fn run(&self, seed: u64) -> ScenarioReport {
        run(&self.config, seed)
    }

    /// Runs under `seed` and checks the envelope; `Err` lists the
    /// violations.
    pub fn run_checked(&self, seed: u64) -> Result<ScenarioReport, Vec<String>> {
        let report = self.run(seed);
        self.envelope.check(&report)?;
        Ok(report)
    }
}

/// Heartbeat interval shared by every scenario: the paper's 100 ms.
pub const INTERVAL: Span = Span(100_000_000);

/// The detector every scenario runs: the paper's 2W-FD(1,1000) with a
/// 500 ms safety margin — wide enough that WAN jitter and sub-ms clock
/// drift alone never cause a suspicion, so every suspicion in a report
/// is attributable to the scripted fault.
fn detector() -> DetectorConfig {
    DetectorConfig::new(DetectorSpec::TwoWindow { n1: 1, n2: 1000 }, INTERVAL, 0.5)
}

/// The QoS contract under test: detect within 2 s, at most one mistake
/// per 20 s, mistakes corrected within 2 s on average.
fn qos() -> QosTrackerConfig {
    QosTrackerConfig {
        spec: Some(QosSpec::new(2.0, 20.0, 2.0)),
        interval: INTERVAL,
        window: Span::MAX,
        origin: QosOrigin::Nominal,
    }
}

/// The same contract with the auto-anchored detection-time origin:
/// scenarios whose senders don't share the monitor's `j·Δi` send axis
/// (clock offsets, staggered joins, incarnation restarts) get full
/// verdicts instead of transitions-only assertions.
fn qos_auto() -> QosTrackerConfig {
    QosTrackerConfig {
        origin: QosOrigin::Auto,
        ..qos()
    }
}

/// The baseline link: WAN-ish jittery delay (15–35 ms uniform) with
/// 1% independent loss. Stochastic delay is what makes different seeds
/// produce different timelines.
fn wan(duration: Span) -> NetworkScenario {
    NetworkScenario::uniform(
        "wan",
        duration.0 / INTERVAL.0 + 2,
        DelaySpec::Iid {
            dist: DistSpec::Uniform {
                lo: 0.015,
                hi: 0.035,
            },
            floor_nanos: 1_000_000,
        },
        LossSpec::Bernoulli { p: 0.01 },
    )
}

/// A fleet of `n` aligned-clock senders with the given per-stream link.
fn fleet(n: usize, link: impl Fn(u64) -> LinkSpec) -> Vec<SenderSpec> {
    (0..n as u64)
        .map(|stream| SenderSpec {
            stream,
            clock: NodeClock::aligned(),
            stop: None,
            restart: None,
            links: vec![link(stream)],
        })
        .collect()
}

fn base_config(name: &str, duration: Span, senders: Vec<SenderSpec>) -> ClusterConfig {
    ClusterConfig {
        name: name.to_string(),
        interval: INTERVAL,
        duration,
        detector: detector(),
        qos: Some(qos()),
        monitors: vec![MonitorSpec::default()],
        senders,
        federation: None,
    }
}

fn all_streams(config: &ClusterConfig) -> Vec<u64> {
    config.senders.iter().map(|s| s.stream).collect()
}

/// No faults: every stream must hold Trust from its first heartbeat to
/// the horizon with zero suspicions, and meet the QoS contract.
fn steady_state(scale: Scale) -> Scenario {
    let duration = Span::from_secs(30);
    let n = scale.pick(16, 64);
    let config = base_config(
        "steady_state",
        duration,
        fleet(n, |_| LinkSpec::clean(wan(duration))),
    );
    let streams = all_streams(&config);
    Scenario {
        envelope: Envelope {
            streams: vec![StreamEnvelope {
                monitor: 0,
                streams,
                final_output: FdOutput::Trust,
                min_suspicions: 0,
                max_suspicions: 0,
                min_recoveries: 0,
                max_recoveries: 0,
                qos_met: Some(true),
            }],
        },
        config,
    }
}

/// Every sixth sender crashes at t=12 s; each must be suspected
/// (exactly once — a crash is not a flap) and stay suspected, while
/// the survivors never waver.
pub fn crash(scale: Scale) -> Scenario {
    let duration = Span::from_secs(30);
    let n = scale.pick(18, 48);
    let mut senders = fleet(n, |_| LinkSpec::clean(wan(duration)));
    let crashed: Vec<u64> = (0..n as u64).filter(|s| s.is_multiple_of(6)).collect();
    for s in &mut senders {
        if crashed.contains(&s.stream) {
            s.stop = Some(Nanos::from_secs(12));
        }
    }
    let config = base_config("crash", duration, senders);
    let healthy: Vec<u64> = all_streams(&config)
        .into_iter()
        .filter(|s| !crashed.contains(s))
        .collect();
    Scenario {
        envelope: Envelope {
            streams: vec![
                StreamEnvelope {
                    monitor: 0,
                    streams: crashed,
                    final_output: FdOutput::Suspect,
                    min_suspicions: 1,
                    max_suspicions: 1,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: None,
                },
                StreamEnvelope {
                    monitor: 0,
                    streams: healthy,
                    final_output: FdOutput::Trust,
                    min_suspicions: 0,
                    max_suspicions: 0,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: Some(true),
                },
            ],
        },
        config,
    }
}

/// The first quarter of the fleet is partitioned (link blackout) from
/// t=8 s to t=18 s, then heals. Partitioned streams must be suspected
/// during the outage and re-trusted after it; the 10 s mistake blows
/// the contract's 2 s mistake-duration bound, so their verdict must
/// come back violated.
fn partition_and_heal(scale: Scale) -> Scenario {
    let duration = Span::from_secs(40);
    let n = scale.pick(16, 32);
    let cut = (n / 4) as u64;
    let config = base_config(
        "partition_and_heal",
        duration,
        fleet(n, |stream| {
            let base = LinkSpec::clean(wan(duration));
            if stream < cut {
                base.with(
                    Span::from_secs(8),
                    Span::from_secs(18),
                    LinkEffect::Blackout,
                )
            } else {
                base
            }
        }),
    );
    let (partitioned, spared): (Vec<u64>, Vec<u64>) =
        all_streams(&config).into_iter().partition(|&s| s < cut);
    Scenario {
        envelope: Envelope {
            streams: vec![
                StreamEnvelope {
                    monitor: 0,
                    streams: partitioned,
                    final_output: FdOutput::Trust,
                    min_suspicions: 1,
                    max_suspicions: 2,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: Some(false),
                },
                StreamEnvelope {
                    monitor: 0,
                    streams: spared,
                    final_output: FdOutput::Trust,
                    min_suspicions: 0,
                    max_suspicions: 0,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: Some(true),
                },
            ],
        },
        config,
    }
}

/// Two monitors watch the same fleet; stream 0's link to monitor 0
/// goes dark at t=10 s *in that direction only*. Monitor 0 must end
/// suspecting stream 0 while monitor 1 holds Trust on the identical
/// heartbeat history — the asymmetric-partition picture.
fn asymmetric_link(scale: Scale) -> Scenario {
    let duration = Span::from_secs(30);
    let n = scale.pick(8, 16);
    let senders = (0..n as u64)
        .map(|stream| {
            let dark = LinkSpec::clean(wan(duration));
            let dark = if stream == 0 {
                dark.with(Span::from_secs(10), duration, LinkEffect::Blackout)
            } else {
                dark
            };
            SenderSpec {
                stream,
                clock: NodeClock::aligned(),
                stop: None,
                restart: None,
                links: vec![dark, LinkSpec::clean(wan(duration))],
            }
        })
        .collect();
    let mut config = base_config("asymmetric_link", duration, senders);
    config.monitors = vec![MonitorSpec::default(), MonitorSpec::default()];
    let others: Vec<u64> = (1..n as u64).collect();
    Scenario {
        envelope: Envelope {
            streams: vec![
                StreamEnvelope {
                    monitor: 0,
                    streams: vec![0],
                    final_output: FdOutput::Suspect,
                    min_suspicions: 1,
                    max_suspicions: 1,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: None,
                },
                StreamEnvelope {
                    monitor: 1,
                    streams: vec![0],
                    final_output: FdOutput::Trust,
                    min_suspicions: 0,
                    max_suspicions: 0,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: Some(true),
                },
                StreamEnvelope {
                    monitor: 0,
                    streams: others.clone(),
                    final_output: FdOutput::Trust,
                    min_suspicions: 0,
                    max_suspicions: 0,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: Some(true),
                },
                StreamEnvelope {
                    monitor: 1,
                    streams: others,
                    final_output: FdOutput::Trust,
                    min_suspicions: 0,
                    max_suspicions: 0,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: Some(true),
                },
            ],
        },
        config,
    }
}

/// Every node's clock is scripted: the monitor reads an hour ahead and
/// runs 300 ppm fast, each sender starts from its own origin with up
/// to ±500 ppm drift. Receiver-side timestamps make the detector
/// skew-invariant, so the one scripted crash is still detected and
/// nobody else is suspected. The tracker's auto-anchored origin
/// ([`QosOrigin::Auto`]) absorbs the scripted offsets the way the
/// detector does, so the healthy streams' full QoS verdict is asserted
/// met (DESIGN.md §15.5's former transitions-only caveat).
fn skewed_clocks(scale: Scale) -> Scenario {
    let duration = Span::from_secs(35);
    let n = scale.pick(12, 24);
    let mut senders = fleet(n, |_| LinkSpec::clean(wan(duration)));
    for s in &mut senders {
        let i = s.stream;
        s.clock = NodeClock::new(
            Nanos::ZERO,
            Span::from_millis(50 * i),
            (i as i64 % 11 - 5) * 100,
        );
    }
    senders[0].stop = Some(Nanos::from_secs(15));
    let mut config = base_config("skewed_clocks", duration, senders);
    config.qos = Some(qos_auto());
    config.monitors = vec![MonitorSpec {
        clock: NodeClock::new(Nanos::ZERO, Span::from_secs(3600), 300),
        n_shards: 4,
        kill: None,
    }];
    let healthy: Vec<u64> = (1..n as u64).collect();
    Scenario {
        envelope: Envelope {
            streams: vec![
                StreamEnvelope {
                    monitor: 0,
                    streams: vec![0],
                    final_output: FdOutput::Suspect,
                    min_suspicions: 1,
                    max_suspicions: 1,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: None,
                },
                StreamEnvelope {
                    monitor: 0,
                    streams: healthy,
                    final_output: FdOutput::Trust,
                    min_suspicions: 0,
                    max_suspicions: 0,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: Some(true),
                },
            ],
        },
        config,
    }
}

/// The whole fleet joins staggered across the first 10 s; the odd half
/// leaves at t=22 s. Leavers must end suspected exactly once (their
/// departure), stayers must never be suspected — churn, at `Full`
/// scale, with thousands of streams against the real runtime. The
/// auto-anchored origin pins each stream's detection-time axis to its
/// own (staggered) join, so stayers carry a full met verdict; leavers
/// stay unasserted — their open end-of-run suspicion is justified, but
/// the tracker cannot know that without a later incarnation bump.
fn mass_churn(scale: Scale) -> Scenario {
    let duration = Span::from_secs(45);
    let n = scale.pick(64, 2048);
    let mut senders = fleet(n, |_| LinkSpec::clean(wan(duration)));
    for s in &mut senders {
        let i = s.stream;
        s.clock = NodeClock::new(Nanos(i * 10_000_000_000 / n as u64), Span::ZERO, 0);
        if i % 2 == 1 {
            s.stop = Some(Nanos::from_secs(22));
        }
    }
    let mut config = base_config("mass_churn", duration, senders);
    config.qos = Some(qos_auto());
    let (leavers, stayers): (Vec<u64>, Vec<u64>) =
        all_streams(&config).into_iter().partition(|s| s % 2 == 1);
    Scenario {
        envelope: Envelope {
            streams: vec![
                StreamEnvelope {
                    monitor: 0,
                    streams: leavers,
                    final_output: FdOutput::Suspect,
                    min_suspicions: 1,
                    max_suspicions: 1,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: None,
                },
                StreamEnvelope {
                    monitor: 0,
                    streams: stayers,
                    final_output: FdOutput::Trust,
                    min_suspicions: 0,
                    max_suspicions: 0,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: Some(true),
                },
            ],
        },
        config,
    }
}

/// Stream 3's link browns out from t=15 s to t=30 s: +50 ms delay and
/// 85% loss. The node flaps — repeated suspect/trust cycles — then
/// recovers to Trust, but the flapping must blow its mistake-rate
/// contract while every other stream stays clean.
fn brownout(scale: Scale) -> Scenario {
    let duration = Span::from_secs(60);
    let n = scale.pick(8, 16);
    let config = base_config(
        "brownout",
        duration,
        fleet(n, |stream| {
            let base = LinkSpec::clean(wan(duration));
            if stream == 3 {
                base.with(
                    Span::from_secs(15),
                    Span::from_secs(30),
                    LinkEffect::ExtraDelay { nanos: 50_000_000 },
                )
                .with(
                    Span::from_secs(15),
                    Span::from_secs(30),
                    LinkEffect::Lossy { p: 0.85 },
                )
            } else {
                base
            }
        }),
    );
    let others: Vec<u64> = all_streams(&config)
        .into_iter()
        .filter(|&s| s != 3)
        .collect();
    Scenario {
        envelope: Envelope {
            streams: vec![
                StreamEnvelope {
                    monitor: 0,
                    streams: vec![3],
                    final_output: FdOutput::Trust,
                    min_suspicions: 2,
                    max_suspicions: 200,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: Some(false),
                },
                StreamEnvelope {
                    monitor: 0,
                    streams: others,
                    final_output: FdOutput::Trust,
                    min_suspicions: 0,
                    max_suspicions: 0,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: Some(true),
                },
            ],
        },
        config,
    }
}

/// Every fourth sender crashes at t=12 s and reboots at t=16 s with a
/// bumped incarnation. The monitor must suspect each exactly once (the
/// justified crash suspicion), re-trust it through exactly one
/// `Recovered` transition when the higher incarnation's heartbeats
/// arrive, and — because a justified suspicion closed by a recovery is
/// *not* a mistake, and the auto-anchored origin re-anchors on the
/// restart's sequence reset — still report the full QoS contract met.
fn crash_recovery(scale: Scale) -> Scenario {
    let duration = Span::from_secs(30);
    let n = scale.pick(12, 24);
    let mut senders = fleet(n, |_| LinkSpec::clean(wan(duration)));
    let restarted: Vec<u64> = (0..n as u64).filter(|s| s.is_multiple_of(4)).collect();
    for s in &mut senders {
        if restarted.contains(&s.stream) {
            s.stop = Some(Nanos::from_secs(12));
            s.restart = Some(Nanos::from_secs(16));
        }
    }
    let mut config = base_config("crash_recovery", duration, senders);
    config.qos = Some(qos_auto());
    let steady: Vec<u64> = all_streams(&config)
        .into_iter()
        .filter(|s| !restarted.contains(s))
        .collect();
    Scenario {
        envelope: Envelope {
            streams: vec![
                StreamEnvelope {
                    monitor: 0,
                    streams: restarted,
                    final_output: FdOutput::Trust,
                    min_suspicions: 1,
                    max_suspicions: 1,
                    min_recoveries: 1,
                    max_recoveries: 1,
                    qos_met: Some(true),
                },
                StreamEnvelope {
                    monitor: 0,
                    streams: steady,
                    final_output: FdOutput::Trust,
                    min_suspicions: 0,
                    max_suspicions: 0,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: Some(true),
                },
            ],
        },
        config,
    }
}

/// Two federated monitors; the whole fleet is homed to monitor 0 (its
/// links to monitor 1 are dark) and one stream restarts mid-run with a
/// bumped incarnation. Monitor 0 is killed at t=19.95 s. Monitor 1 —
/// which has never received a heartbeat — must detect the dead peer
/// through its digest silence, adopt its relayed view (incarnations
/// included), and hold every stream in Trust through the failover gap
/// until the fleet re-homes to it at t=20.3 s: continuous detection
/// across a monitor crash, with zero suspicions on the survivor.
fn monitor_failover(scale: Scale) -> Scenario {
    let duration = Span::from_secs(30);
    let n = scale.pick(6, 12);
    let kill = Nanos(19_950_000_000);
    let rehome = Span(20_300_000_000);
    let senders = (0..n as u64)
        .map(|stream| SenderSpec {
            stream,
            clock: NodeClock::aligned(),
            // Stream 0 exercises crash-recovery under federation: its
            // bumped incarnation must survive the digest relay.
            stop: (stream == 0).then(|| Nanos::from_secs(8)),
            restart: (stream == 0).then(|| Nanos::from_secs(10)),
            links: vec![
                LinkSpec::clean(wan(duration)),
                // Homed to monitor 0 until the kill; service discovery
                // re-points the fleet at the survivor shortly after.
                LinkSpec::clean(wan(duration)).with(Span::ZERO, rehome, LinkEffect::Blackout),
            ],
        })
        .collect();
    let mut config = base_config("monitor_failover", duration, senders);
    // A wider margin keeps the adopted horizons alive across the
    // detect-and-adopt window (kill → peer-detector expiry → re-home).
    config.detector =
        DetectorConfig::new(DetectorSpec::TwoWindow { n1: 1, n2: 1000 }, INTERVAL, 1.0);
    config.qos = Some(qos_auto());
    config.monitors = vec![
        MonitorSpec {
            kill: Some(kill),
            ..MonitorSpec::default()
        },
        MonitorSpec::default(),
    ];
    config.federation = Some(FederationPlan {
        digest_interval: Span::from_millis(200),
        relay_delay: Span::from_millis(1),
        peer_detector: DetectorConfig::new(
            DetectorSpec::Chen { window: 1 },
            Span::from_millis(200),
            0.15,
        ),
    });
    let all = all_streams(&config);
    let steady: Vec<u64> = all.iter().copied().filter(|&s| s != 0).collect();
    Scenario {
        envelope: Envelope {
            streams: vec![
                // The killed monitor's frozen report: everything it saw
                // up to the kill, including the one crash-recovery.
                StreamEnvelope {
                    monitor: 0,
                    streams: vec![0],
                    final_output: FdOutput::Trust,
                    min_suspicions: 1,
                    max_suspicions: 1,
                    min_recoveries: 1,
                    max_recoveries: 1,
                    qos_met: Some(true),
                },
                StreamEnvelope {
                    monitor: 0,
                    streams: steady.clone(),
                    final_output: FdOutput::Trust,
                    min_suspicions: 0,
                    max_suspicions: 0,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: Some(true),
                },
                // The survivor: adoption bridges the gap, so no stream
                // is ever suspected and all end trusted.
                StreamEnvelope {
                    monitor: 1,
                    streams: all,
                    final_output: FdOutput::Trust,
                    min_suspicions: 0,
                    max_suspicions: 0,
                    min_recoveries: 0,
                    max_recoveries: 0,
                    qos_met: None,
                },
            ],
        },
        config,
    }
}

/// The whole library, in a stable order.
pub fn library(scale: Scale) -> Vec<Scenario> {
    vec![
        steady_state(scale),
        crash(scale),
        partition_and_heal(scale),
        asymmetric_link(scale),
        skewed_clocks(scale),
        mass_churn(scale),
        brownout(scale),
        crash_recovery(scale),
        monitor_failover(scale),
    ]
}
