//! The discrete-event cluster scheduler.
//!
//! [`run`] executes a [`ClusterConfig`] — N simulated senders beaming
//! heartbeats over scripted [`LinkSpec`] links at M monitor nodes — in
//! **virtual time**, against the production shard code: each monitor
//! owns `n_shards` [`ShardCore`]s (streams routed `stream % n_shards`,
//! as the live runtime routes them), with their timing wheels and QoS
//! trackers, and calls them from the scheduler's own loop. There are no
//! workers, queues or clocks to coordinate: the instant each call works
//! at is an argument.
//!
//! ## The determinism protocol
//!
//! Apply in arrival order, sweep to the last arrival. The scheduler owns
//! one global [`EventQueue`]; beats and deliveries pop in timestamp
//! order (stable on ties). Per monitor, deliveries accumulate into a
//! batch buffer, and each batch becomes one [`ShardCore::pass`] per core
//! at the batch's last arrival (in the monitor's local time): the pass
//! applies its heartbeats in order and sweeps every horizon that
//! expired before that arrival. Digest ticks and the end of the run
//! sweep every core to their own instant.
//!
//! Every transition lands in the monitor's timeline as it is produced.
//! At the horizon the timeline is canonicalized by `(at, key)` — a
//! total order, since one stream cannot transition twice at one
//! instant — so two runs with the same seed produce byte-identical
//! reports.

use crate::node::NodeClock;
use twofd_core::{DetectorConfig, FdOutput, QosMetrics, TransitionKind};
use twofd_federation::{Federation, FederationConfig, LivenessDigest};
use twofd_net::shard::{FleetEvent, Job, ShardCore};
use twofd_obs::{QosPlan, QosTrackerConfig, QosVerdict, Registry};
use twofd_sim::link::LinkSpec;
use twofd_sim::rng::SimRng;
use twofd_sim::time::{Nanos, Span};
use twofd_sim::EventQueue;

/// Deliveries buffered per monitor before a batch pass.
const PASS_BATCH: usize = 256;

/// One monitor node: its clock, its shard count, and when it dies.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MonitorSpec {
    /// The node's local clock (arrivals are stamped in *its* time).
    pub clock: NodeClock,
    /// Shard cores of this monitor (streams routed `stream % n_shards`).
    pub n_shards: usize,
    /// Global instant this *monitor* crashes: it stops ingesting,
    /// digesting and relaying, and its report freezes at the kill
    /// (final outputs and QoS are read at the kill's local instant).
    pub kill: Option<Nanos>,
}

impl Default for MonitorSpec {
    fn default() -> Self {
        MonitorSpec {
            clock: NodeClock::aligned(),
            n_shards: 4,
            kill: None,
        }
    }
}

/// One simulated sender: a stream id, its own clock (which fixes both
/// its join time and its beat cadence), an optional crash instant, and
/// one directed [`LinkSpec`] per monitor.
#[derive(Debug, Clone, PartialEq)]
pub struct SenderSpec {
    /// Stream id carried by this sender's heartbeats.
    pub stream: u64,
    /// The sender's clock; `clock.start` is its join time and beat `i`
    /// is due at *local* `i·Δi`.
    pub clock: NodeClock,
    /// Global instant the process crashes (no beat at or after this).
    pub stop: Option<Nanos>,
    /// Global instant the crashed process reboots (requires `stop`, and
    /// must be later). The restarted process bumps its incarnation,
    /// restarts its sequence numbers from 1 and re-anchors its beat
    /// cadence at the reboot — the crash-recovery model.
    pub restart: Option<Nanos>,
    /// Directed links to each monitor, indexed like
    /// [`ClusterConfig::monitors`].
    pub links: Vec<LinkSpec>,
}

/// Federation tier of a simulated cluster: every monitor periodically
/// digests its per-stream liveness view to every other monitor; digest
/// arrivals drive per-peer detectors (monitors monitoring monitors),
/// and a dead monitor's last view is adopted by each survivor so
/// detection of its streams continues across the crash.
#[derive(Debug, Clone, PartialEq)]
pub struct FederationPlan {
    /// Digest cadence, on the global scheduler grid.
    pub digest_interval: Span,
    /// Fixed monitor-to-monitor relay delay (digests ride a dedicated
    /// deterministic control channel, not the lossy heartbeat links).
    pub relay_delay: Span,
    /// Detector recipe for the per-peer digest detectors; its interval
    /// should match `digest_interval`.
    pub peer_detector: DetectorConfig,
}

/// A complete simulated cluster: the fleet, the monitors, the detector
/// recipe and the QoS contract under test.
#[derive(Debug, Clone, PartialEq)]
pub struct ClusterConfig {
    /// Scenario name (carried into the report).
    pub name: String,
    /// Heartbeat inter-send interval `Δi` (in sender-local time).
    pub interval: Span,
    /// Global run length; beats and deliveries beyond it do not happen.
    pub duration: Span,
    /// Detector recipe every monitor applies to every stream.
    pub detector: DetectorConfig,
    /// QoS tracker (and optional contracted bound) attached to every
    /// stream on every monitor; `None` runs without QoS tracking.
    pub qos: Option<QosTrackerConfig>,
    /// The monitor nodes.
    pub monitors: Vec<MonitorSpec>,
    /// The fleet; every sender needs one link per monitor.
    pub senders: Vec<SenderSpec>,
    /// Digest-relay federation between the monitors; `None` runs each
    /// monitor standalone (exactly the pre-federation behaviour —
    /// `tests/cluster_scenarios.rs` pins the equivalence).
    pub federation: Option<FederationPlan>,
}

/// What one monitor observed over the run.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// Every published Trust/Suspect transition, canonicalized by
    /// `(at, key)` — the deterministic replay timeline.
    pub timeline: Vec<FleetEvent>,
    /// Final detector output per stream (sorted by stream id), read at
    /// the monitor's local end-of-run instant.
    pub final_outputs: Vec<(u64, FdOutput)>,
    /// Per-stream QoS estimates and verdicts at end of run (sorted by
    /// stream id; empty when [`ClusterConfig::qos`] is `None`).
    pub qos: Vec<(u64, QosMetrics, QosVerdict)>,
    /// Heartbeats delivered to (and ingested by) this monitor.
    pub ingested: u64,
    /// Streams this monitor adopted from dead peers' relayed digest
    /// views (0 without a federation, or when no peer died).
    pub adopted: u64,
}

/// The full outcome of one simulated run.
#[derive(Debug, Clone, PartialEq)]
pub struct ScenarioReport {
    /// Scenario name, from [`ClusterConfig::name`].
    pub name: String,
    /// The seed the run was driven by.
    pub seed: u64,
    /// Heartbeats emitted across the fleet.
    pub beats_sent: u64,
    /// Heartbeat deliveries across all monitors (sent × monitors −
    /// losses − post-horizon arrivals).
    pub deliveries: u64,
    /// Discrete events processed by the scheduler (beats + deliveries);
    /// the virtual-time throughput numerator.
    pub sim_events: u64,
    /// The scripted global run length.
    pub virtual_duration: Span,
    /// Per-monitor observations, indexed like [`ClusterConfig::monitors`].
    pub monitors: Vec<MonitorReport>,
}

impl ScenarioReport {
    /// An order-stable FNV-1a digest over every timeline event, final
    /// output and QoS estimate — two runs replayed bit-identically iff
    /// their digests match (used by the determinism harness and the
    /// bench artifact).
    pub fn digest(&self) -> u64 {
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut eat = |bytes: &[u8]| {
            for &b in bytes {
                h ^= u64::from(b);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
        };
        eat(self.name.as_bytes());
        eat(&self.seed.to_le_bytes());
        eat(&self.beats_sent.to_le_bytes());
        eat(&self.deliveries.to_le_bytes());
        for m in &self.monitors {
            for e in &m.timeline {
                eat(&e.key.to_le_bytes());
                eat(&[match e.kind {
                    TransitionKind::Trust => 0u8,
                    TransitionKind::Suspect => 1,
                    TransitionKind::Recovered => 2,
                }]);
                eat(&e.at.0.to_le_bytes());
            }
            for &(stream, out) in &m.final_outputs {
                eat(&stream.to_le_bytes());
                eat(&[matches!(out, FdOutput::Suspect) as u8]);
            }
            for (stream, metrics, verdict) in &m.qos {
                eat(&stream.to_le_bytes());
                eat(&metrics.detection_time.to_bits().to_le_bytes());
                eat(&metrics.mistake_rate.to_bits().to_le_bytes());
                eat(&metrics.avg_mistake_duration.to_bits().to_le_bytes());
                eat(&metrics.query_accuracy.to_bits().to_le_bytes());
                eat(&[verdict.met as u8]);
            }
        }
        h
    }

    /// Total transitions observed across all monitors.
    pub fn transitions(&self) -> usize {
        self.monitors.iter().map(|m| m.timeline.len()).sum()
    }
}

/// A scheduler event: a sender's beat deadline or reboot, a heartbeat
/// landing at a monitor, or the federation's digest cadence/relay.
enum Ev {
    Beat {
        sender: usize,
    },
    Restart {
        sender: usize,
    },
    Deliver {
        monitor: usize,
        stream: u64,
        seq: u64,
        incarnation: u32,
    },
    /// A monitor's digest tick: build + relay its liveness digest, then
    /// sweep its per-peer detectors and adopt dead peers' views.
    Digest {
        monitor: usize,
    },
    /// A relayed digest landing at a monitor.
    RelayDigest {
        monitor: usize,
        digest: LivenessDigest,
    },
}

/// Live state of one sender during the run.
struct SenderState {
    seq: u64,
    /// Boot counter carried in every heartbeat (0 until a restart).
    incarnation: u32,
    /// Local instant the current boot's cadence is anchored at: beat
    /// `i` of this boot is due at local `epoch + i·Δi`.
    epoch_local: Nanos,
    /// One `(link model, private rng)` per monitor; a forked rng per
    /// link keeps each link's random stream independent, so adding a
    /// monitor (or more draws on one link) never perturbs another.
    links: Vec<(twofd_sim::link::LinkModel, SimRng)>,
}

/// Live state of one monitor during the run.
struct MonitorState {
    cores: Vec<ShardCore>,
    /// One pass's heartbeats per core, refilled from `buffer`.
    inboxes: Vec<Vec<Job>>,
    buffer: Vec<Job>,
    timeline: Vec<FleetEvent>,
    ingested: u64,
    adopted: u64,
    fed: Option<Federation>,
}

/// The core a stream is routed to, as the live runtime routes it.
fn route(stream: u64, n_shards: usize) -> usize {
    (stream % n_shards as u64) as usize
}

impl MonitorState {
    fn core_of(&mut self, stream: u64) -> &mut ShardCore {
        let i = route(stream, self.cores.len());
        &mut self.cores[i]
    }

    /// The batch pass: routes everything buffered to its core, then
    /// runs one pass per core at the last arrival, so every core is
    /// swept to it.
    fn apply_batch(&mut self) {
        let Some(&(_, _, last_arrival, _)) = self.buffer.last() else {
            return;
        };
        self.ingested += self.buffer.len() as u64;
        for job in self.buffer.drain(..) {
            self.inboxes[route(job.0, self.cores.len())].push(job);
        }
        for (core, inbox) in self.cores.iter_mut().zip(&mut self.inboxes) {
            core.pass(last_arrival, false, inbox, &mut self.timeline);
        }
    }

    /// Sweeps every core to `now`.
    fn sweep(&mut self, now: Nanos) {
        for core in &mut self.cores {
            core.sweep(now, &mut self.timeline);
        }
    }
}

/// Runs `config` under `seed`, returning the full deterministic report.
///
/// # Panics
/// If the config is malformed: no monitors, a monitor with no shards,
/// a zero interval/duration, a sender whose `links` don't match the
/// monitor count, or duplicate stream ids.
pub fn run(config: &ClusterConfig, seed: u64) -> ScenarioReport {
    assert!(!config.monitors.is_empty(), "need at least one monitor");
    assert!(
        !config.interval.is_zero(),
        "heartbeat interval must be positive"
    );
    assert!(!config.duration.is_zero(), "run must cover some time");
    for s in &config.senders {
        assert_eq!(
            s.links.len(),
            config.monitors.len(),
            "sender {} needs one link per monitor",
            s.stream
        );
        if let Some(restart) = s.restart {
            let stop = s.stop.expect("restart requires a stop instant");
            assert!(
                restart > stop,
                "sender {} must restart after it stops",
                s.stream
            );
        }
    }
    if let Some(plan) = &config.federation {
        assert!(
            !plan.digest_interval.is_zero(),
            "digest interval must be positive"
        );
    }
    {
        let mut ids: Vec<u64> = config.senders.iter().map(|s| s.stream).collect();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), config.senders.len(), "duplicate stream ids");
    }

    let mut root = SimRng::seed_from_u64(seed);
    let mut senders: Vec<SenderState> = config
        .senders
        .iter()
        .map(|s| SenderState {
            seq: 0,
            incarnation: 0,
            epoch_local: Nanos::ZERO,
            links: s
                .links
                .iter()
                .map(|l| (l.instantiate(), root.fork()))
                .collect(),
        })
        .collect();

    let mut monitors: Vec<MonitorState> = config
        .monitors
        .iter()
        .enumerate()
        .map(|(idx, m)| {
            assert!(m.n_shards > 0, "need at least one shard");
            let cores = (0..m.n_shards)
                .map(|_| {
                    ShardCore::new(
                        config.detector.clone().into(),
                        config.qos.map(QosPlan::Uniform),
                    )
                })
                .collect();
            // A federated monitor watches every *other* monitor through
            // its digests, at the plan's shared peer-detector recipe.
            let fed = config.federation.as_ref().map(|plan| {
                let mut f = Federation::new(
                    FederationConfig {
                        local: idx as u64,
                        digest_interval: plan.digest_interval,
                    },
                    &Registry::new(),
                );
                for peer in 0..config.monitors.len() {
                    if peer != idx {
                        f.register_peer(peer as u64, &plan.peer_detector);
                    }
                }
                f
            });
            let mut state = MonitorState {
                cores,
                inboxes: vec![Vec::new(); m.n_shards],
                buffer: Vec::with_capacity(PASS_BATCH),
                timeline: Vec::new(),
                ingested: 0,
                adopted: 0,
                fed,
            };
            // Pre-register the whole fleet: every stream has a defined
            // output (initially Suspect) from the first instant, like a
            // monitor bootstrapped from a membership list.
            for s in &config.senders {
                state.core_of(s.stream).register(s.stream);
            }
            state
        })
        .collect();

    let horizon = Nanos::ZERO + config.duration;
    let mut queue: EventQueue<Ev> = EventQueue::new();
    for (i, s) in config.senders.iter().enumerate() {
        let first = s.clock.global_at(Nanos(config.interval.0));
        if first < horizon && s.stop.is_none_or(|stop| first < stop) {
            queue.schedule(first, Ev::Beat { sender: i });
        }
        if let Some(restart) = s.restart {
            if restart < horizon {
                queue.schedule(restart, Ev::Restart { sender: i });
            }
        }
    }
    if let Some(plan) = &config.federation {
        for m in 0..config.monitors.len() {
            let first = Nanos::ZERO + plan.digest_interval;
            if first < horizon {
                queue.schedule(first, Ev::Digest { monitor: m });
            }
        }
    }

    let mut beats_sent = 0u64;
    let mut deliveries = 0u64;
    let mut sim_events = 0u64;
    while let Some((t, ev)) = queue.pop() {
        sim_events += 1;
        match ev {
            Ev::Beat { sender } => {
                beats_sent += 1;
                let spec = &config.senders[sender];
                let state = &mut senders[sender];
                state.seq += 1;
                for (m, (link, rng)) in state.links.iter_mut().enumerate() {
                    if let twofd_sim::Transmission::Delivered { delay } = link.transmit(rng, t) {
                        let arrival = t + delay;
                        if arrival < horizon {
                            queue.schedule(
                                arrival,
                                Ev::Deliver {
                                    monitor: m,
                                    stream: spec.stream,
                                    seq: state.seq,
                                    incarnation: state.incarnation,
                                },
                            );
                        }
                    }
                }
                let next_local = Nanos(
                    state
                        .epoch_local
                        .0
                        .saturating_add(config.interval.0.saturating_mul(state.seq + 1)),
                );
                let next = spec.clock.global_at(next_local);
                // `stop` only fells the original boot; the scripted
                // restart (which is later) starts a fresh cadence.
                let stopped = state.incarnation == 0 && spec.stop.is_some_and(|stop| next >= stop);
                if next < horizon && !stopped {
                    queue.schedule(next, Ev::Beat { sender });
                }
            }
            Ev::Restart { sender } => {
                let spec = &config.senders[sender];
                let state = &mut senders[sender];
                state.incarnation += 1;
                state.seq = 0;
                state.epoch_local = spec.clock.local(t);
                let first = spec
                    .clock
                    .global_at(Nanos(state.epoch_local.0.saturating_add(config.interval.0)));
                if first < horizon {
                    queue.schedule(first, Ev::Beat { sender });
                }
            }
            Ev::Deliver {
                monitor,
                stream,
                seq,
                incarnation,
            } => {
                deliveries += 1;
                if config.monitors[monitor].kill.is_some_and(|k| t >= k) {
                    continue; // the monitor is dead; the datagram is lost
                }
                let local = config.monitors[monitor].clock.local(t);
                let state = &mut monitors[monitor];
                state.buffer.push((stream, seq, local, incarnation));
                if state.buffer.len() >= PASS_BATCH {
                    state.apply_batch();
                }
            }
            Ev::Digest { monitor } => {
                let spec = &config.monitors[monitor];
                if spec.kill.is_some_and(|k| t >= k) {
                    continue; // dead monitors neither digest nor adopt
                }
                let plan = config
                    .federation
                    .as_ref()
                    .expect("digest tick implies a plan");
                let local_now = spec.clock.local(t);
                let state = &mut monitors[monitor];
                // The digest summarizes the monitor's view *now*: apply
                // everything that has arrived, and sweep to the tick.
                state.apply_batch();
                state.sweep(local_now);
                let fed = state.fed.as_mut().expect("federated monitor");
                if fed.digest_due(local_now) {
                    let statuses: Vec<_> = state
                        .cores
                        .iter()
                        .flat_map(|c| c.statuses(local_now))
                        .collect();
                    let digest = fed.build_digest(&statuses, local_now);
                    let arrive = t + plan.relay_delay;
                    if arrive < horizon {
                        for peer in 0..config.monitors.len() {
                            if peer != monitor {
                                queue.schedule(
                                    arrive,
                                    Ev::RelayDigest {
                                        monitor: peer,
                                        digest: digest.clone(),
                                    },
                                );
                            }
                        }
                    }
                }
                // Sweep the per-peer detectors; a newly dead peer's last
                // view is adopted, rebased from the origin's clock onto
                // this monitor's through the global timeline.
                for adoption in fed.sweep(local_now) {
                    let origin = config.monitors[adoption.peer as usize].clock;
                    for e in &adoption.streams {
                        let global_until = origin.global_at(e.trust_until);
                        let local_until = spec.clock.local(global_until);
                        let i = route(e.stream, state.cores.len());
                        if state.cores[i].adopt(
                            e.stream,
                            e.incarnation,
                            local_until,
                            local_now,
                            &mut state.timeline,
                        ) {
                            state.adopted += 1;
                        }
                    }
                }
                let next = t + plan.digest_interval;
                if next < horizon {
                    queue.schedule(next, Ev::Digest { monitor });
                }
            }
            Ev::RelayDigest { monitor, digest } => {
                let spec = &config.monitors[monitor];
                if spec.kill.is_some_and(|k| t >= k) {
                    continue;
                }
                let local = spec.clock.local(t);
                let state = &mut monitors[monitor];
                let fed = state.fed.as_mut().expect("relay implies a plan");
                // The wire round-trip keeps the simulator honest about
                // the digest codec: what a peer adopts is exactly what
                // the format can carry.
                let decoded = LivenessDigest::decode(&digest.encode()).expect("digest round-trips");
                fed.on_digest(&decoded, local);
            }
        }
    }

    // End of run: apply the tail, sweep every monitor to its local end
    // instant, and collect.
    let mut reports = Vec::with_capacity(monitors.len());
    for (m, mut state) in monitors.into_iter().enumerate() {
        state.apply_batch();
        // A killed monitor's report freezes at the kill: it is never
        // swept or read past that instant.
        let end_global = config.monitors[m].kill.map_or(horizon, |k| k.min(horizon));
        let end_local = config.monitors[m].clock.local(end_global);
        state.sweep(end_local);
        // Canonical order: (at, key) is total — a stream cannot
        // transition twice at one instant (an S needs a strictly
        // earlier horizon; the T restoring it moves the horizon past
        // it) — so sorting erases the order the cores were called in.
        state
            .timeline
            .sort_unstable_by_key(|e| (e.at, e.key, matches!(e.output, FdOutput::Suspect)));
        let mut streams: Vec<u64> = config.senders.iter().map(|s| s.stream).collect();
        streams.sort_unstable();
        let final_outputs = streams
            .iter()
            .map(|&s| {
                let output = state.core_of(s).output(s, end_local);
                (s, output.expect("registered stream"))
            })
            .collect();
        let qos = if config.qos.is_some() {
            streams
                .iter()
                .filter_map(|&s| {
                    let core = state.core_of(s);
                    let metrics = core.qos_metrics(s, end_local)?;
                    let verdict = core.qos_verdict(s, end_local)?;
                    Some((s, metrics, verdict))
                })
                .collect()
        } else {
            Vec::new()
        };
        reports.push(MonitorReport {
            timeline: state.timeline,
            final_outputs,
            qos,
            ingested: state.ingested,
            adopted: state.adopted,
        });
    }

    ScenarioReport {
        name: config.name.clone(),
        seed,
        beats_sent,
        deliveries,
        sim_events,
        virtual_duration: config.duration,
        monitors: reports,
    }
}
