//! The adapter: every call into a `twofd-*` crate is in this file, and
//! only through entry points ROADMAP item 2 keeps — `ingest_batch`,
//! `on_heartbeat_incarnated`, `encode_into`/`decode`,
//! `IntakeMode::Batched`, `spawn_with_clock` — never `ingest`,
//! `on_heartbeat`, `HeapProcessSet`, `PerDatagram` or `encode_v1`, so
//! the planned deletions cannot break the benchmark. The rest of the
//! harness sees plain nanosecond integers and the small types below.

use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::Arc;
use std::time::Duration;
use twofd_core::{
    AnyDetector, DetectorConfig, DetectorSpec, FailureDetector, FdOutput, ProcessSet, QosSpec,
    ReplayResult, StreamSlab, StreamTransition, Timeline, TimingWheel, TransitionKind, WheelEntry,
};
use twofd_net::{
    sim_channel, BatchReceiver, FleetEvent, FleetMonitor, Heartbeat, IntakeMode, ManualClock,
    MonotonicClock, ObsOptions, SenderTransport, ShardConfig, ShardRuntime, SimSender,
    SimTransport, TimeSource, Transport,
};
use twofd_obs::{Counter, Histogram, QosOrigin, QosPlan, QosTracker, QosTrackerConfig, Registry};
use twofd_sim::time::{Nanos, Span};
use twofd_trace::{Trace, WanTraceConfig};

/// Bytes of one encoded heartbeat.
pub const WIRE: usize = twofd_net::WIRE_SIZE;
/// Datagrams one batched receive can return.
pub const INTAKE_BATCH: usize = twofd_net::intake::BATCH;
/// The heartbeat interval Δi of every workload.
pub const INTERVAL_NS: u64 = 100_000_000;

/// One heartbeat on its way into a runtime.
pub type Job = twofd_net::Job;

pub fn job(stream: u64, seq: u64, arrival_ns: u64) -> Job {
    (stream, seq, Nanos(arrival_ns), 0)
}

/// The wall clock one live workload shares between generator, monitor
/// and consumer, so that a lag is a difference on one time axis.
#[derive(Clone)]
pub struct LiveClock(Arc<MonotonicClock>);

impl LiveClock {
    #[allow(clippy::new_without_default)]
    pub fn new() -> LiveClock {
        LiveClock(Arc::new(MonotonicClock::new()))
    }

    pub fn now_ns(&self) -> u64 {
        self.0.now().0
    }

    fn source(&self) -> Arc<dyn TimeSource> {
        self.0.clone()
    }
}

/// A clock the harness advances along the schedule it feeds.
#[derive(Clone)]
pub struct VirtualClock(Arc<ManualClock>);

impl VirtualClock {
    #[allow(clippy::new_without_default)]
    pub fn new() -> VirtualClock {
        VirtualClock(Arc::new(ManualClock::new()))
    }

    pub fn advance_to_ns(&self, t: u64) {
        self.0.advance_to(Nanos(t));
    }

    fn source(&self) -> Arc<dyn TimeSource> {
        self.0.clone()
    }
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Trust,
    Suspect,
    Recovered,
}

/// A published verdict change.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Event {
    pub stream: u64,
    pub kind: Kind,
    /// `trust_until` for a Suspect, the arrival stamp for a Trust.
    pub at_ns: u64,
}

impl From<StreamTransition<u64>> for Event {
    fn from(t: FleetEvent) -> Event {
        Event {
            stream: t.key,
            kind: match t.kind {
                TransitionKind::Trust => Kind::Trust,
                TransitionKind::Suspect => Kind::Suspect,
                TransitionKind::Recovered => Kind::Recovered,
            },
            at_ns: t.at.0,
        }
    }
}

/// How a monitor is built: the paper's default `2w-fd(1,1000)` at
/// Δi = 100 ms on two shards, with the knobs the workloads vary.
#[derive(Debug, Clone, Copy)]
pub struct MonitorSpec {
    pub margin_s: f64,
    pub queue_capacity: usize,
    pub event_capacity: usize,
    /// Jitter histogram plus a uniform 60 s sliding-window QoS tracker
    /// with a contract to judge against.
    pub obs: bool,
}

pub const SHARDS: usize = 2;

fn detector(margin_s: f64) -> DetectorConfig {
    DetectorConfig::new(DetectorSpec::default(), Span(INTERVAL_NS), margin_s)
}

impl MonitorSpec {
    fn config(&self) -> ShardConfig {
        let obs = if self.obs {
            ObsOptions {
                jitter: true,
                qos: Some(QosPlan::Uniform(QosTrackerConfig {
                    spec: Some(QosSpec::new(1.0, 10.0, 1.0)),
                    interval: Span(INTERVAL_NS),
                    window: Span::from_secs(60),
                    origin: QosOrigin::Nominal,
                })),
            }
        } else {
            ObsOptions::default()
        };
        ShardConfig {
            detector: detector(self.margin_s).into(),
            n_shards: SHARDS,
            queue_capacity: self.queue_capacity,
            event_capacity: self.event_capacity,
            obs,
            ..ShardConfig::default()
        }
    }
}

/// Accounting counters, summed over shards.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Counts {
    pub received: u64,
    pub applied: u64,
    pub dropped: u64,
    pub stale: u64,
    pub events_dropped: u64,
    pub sweeps: u64,
}

/// Handles on a runtime's registry cells, so that reading the
/// accounting costs a few atomic loads and takes no shard lock.
struct Cells {
    received: Vec<Counter>,
    applied: Vec<Counter>,
    dropped: Vec<Counter>,
    stale: Vec<Counter>,
    sweeps: Vec<Histogram>,
    events_dropped: Counter,
}

impl Cells {
    fn of(registry: &Registry) -> Cells {
        let per_shard = |name: &str| -> Vec<Counter> {
            let family = registry.counter_vec(name, "", &["shard"]);
            (0..SHARDS)
                .map(|i| family.with(&[&i.to_string()]))
                .collect()
        };
        let sweeps = registry.histogram_vec("twofd_sweep_duration_seconds", "", &["shard"]);
        Cells {
            received: per_shard("twofd_shard_received_total"),
            applied: per_shard("twofd_shard_applied_total"),
            dropped: per_shard("twofd_shard_dropped_total"),
            stale: per_shard("twofd_shard_stale_total"),
            sweeps: (0..SHARDS)
                .map(|i| sweeps.with(&[&i.to_string()]))
                .collect(),
            events_dropped: registry.counter("twofd_events_dropped_total", ""),
        }
    }

    fn counts(&self) -> Counts {
        let sum = |cells: &[Counter]| cells.iter().map(Counter::get).sum();
        Counts {
            received: sum(&self.received),
            applied: sum(&self.applied),
            dropped: sum(&self.dropped),
            stale: sum(&self.stale),
            events_dropped: self.events_dropped.get(),
            sweeps: self.sweeps.iter().map(Histogram::count).sum(),
        }
    }

    /// Median sweep duration in µs, from the merged sweep histograms
    /// (upper bound of the bucket holding the median).
    fn sweep_p50_us(&self) -> f64 {
        let mut merged = vec![0u64; 0];
        for hist in &self.sweeps {
            let counts = hist.bucket_counts();
            merged.resize(counts.len(), 0);
            for (m, c) in merged.iter_mut().zip(counts) {
                *m += c;
            }
        }
        let total: u64 = merged.iter().sum();
        let bounds = Histogram::bucket_upper_bounds();
        let mut seen = 0;
        for (count, bound) in merged.iter().zip(bounds) {
            seen += count;
            if seen * 2 >= total && total > 0 {
                return bound * 1e6;
            }
        }
        0.0
    }
}

/// Reading verdicts out of a monitor, whichever front end it has.
pub trait Verdicts {
    fn try_event(&self) -> Option<Event>;
    fn wait_event(&self, timeout: Duration) -> Option<Event>;
    /// `None` for a stream the monitor has never seen.
    fn is_trusted(&self, stream: u64) -> Option<bool>;
    fn counts(&self) -> Counts;
    fn sweep_p50_us(&self) -> f64;
}

macro_rules! verdicts {
    ($ty:ty, $inner:ident) => {
        impl Verdicts for $ty {
            fn try_event(&self) -> Option<Event> {
                self.$inner.events().try_recv().ok().map(Event::from)
            }
            fn wait_event(&self, timeout: Duration) -> Option<Event> {
                self.$inner
                    .events()
                    .recv_timeout(timeout)
                    .ok()
                    .map(Event::from)
            }
            fn is_trusted(&self, stream: u64) -> Option<bool> {
                self.$inner.output(stream).map(|o| o == FdOutput::Trust)
            }
            fn counts(&self) -> Counts {
                self.cells.counts()
            }
            fn sweep_p50_us(&self) -> f64 {
                self.cells.sweep_p50_us()
            }
        }
    };
}

/// The whole monitor: socket, batched intake, decode, shards.
pub struct Fleet {
    monitor: FleetMonitor,
    cells: Cells,
    batches: Counter,
    datagrams: Counter,
}

verdicts!(Fleet, monitor);

impl Fleet {
    pub fn spawn(spec: &MonitorSpec, clock: &LiveClock) -> io::Result<Fleet> {
        let monitor =
            FleetMonitor::spawn_with_clock(spec.config(), IntakeMode::Batched, clock.source())?;
        let registry = monitor.registry();
        Ok(Fleet {
            cells: Cells::of(registry),
            batches: registry.counter("twofd_intake_batches_total", ""),
            datagrams: registry.counter("twofd_intake_datagrams_total", ""),
            monitor,
        })
    }

    pub fn addr(&self) -> SocketAddr {
        self.monitor.local_addr()
    }

    /// `(receive calls that returned data, datagrams, rejected)`.
    pub fn intake(&self) -> (u64, u64, u64) {
        (
            self.batches.get(),
            self.datagrams.get(),
            self.monitor.rejected(),
        )
    }
}

/// The socket-free shard core.
pub struct Runtime {
    runtime: ShardRuntime,
    cells: Cells,
}

verdicts!(Runtime, runtime);

impl Runtime {
    pub fn on_virtual(spec: &MonitorSpec, clock: &VirtualClock) -> Runtime {
        Runtime::with(spec, clock.source())
    }

    pub fn on_live(spec: &MonitorSpec, clock: &LiveClock) -> Runtime {
        Runtime::with(spec, clock.source())
    }

    fn with(spec: &MonitorSpec, clock: Arc<dyn TimeSource>) -> Runtime {
        let runtime = ShardRuntime::new(spec.config(), clock);
        Runtime {
            cells: Cells::of(runtime.registry()),
            runtime,
        }
    }

    pub fn ingest(&self, jobs: &[Job]) {
        self.runtime.ingest_batch(jobs);
    }

    /// Heartbeats each shard has applied or dropped so far: four atomic
    /// loads, for the producer's backpressure check. Stream `s` belongs
    /// to shard `s % SHARDS`.
    pub fn handled_by_shard(&self) -> [u64; SHARDS] {
        std::array::from_fn(|i| self.cells.applied[i].get() + self.cells.dropped[i].get())
    }

    pub fn flush(&self) {
        self.runtime.flush();
    }

    pub fn sweep_now(&self) {
        self.runtime.sweep_now();
    }

    /// Streams in a `statuses()` snapshot.
    pub fn statuses(&self) -> usize {
        self.runtime.statuses().len()
    }

    pub fn suspected(&self) -> usize {
        self.runtime.suspected().len()
    }

    /// Streams counted by a `stats()` snapshot.
    pub fn stats_streams(&self) -> usize {
        self.runtime.stats().streams()
    }

    /// One scrape; returns the exposition's size.
    pub fn render(&self) -> usize {
        self.runtime.registry().render().len()
    }
}

/// A harness-owned detector bank: the structure a shard worker applies
/// heartbeats to, without the shard around it. Also the single-threaded
/// reference the sharded timelines are checked against.
pub struct Bank {
    set: ProcessSet<u64, DetectorConfig>,
    events: Vec<StreamTransition<u64>>,
}

impl Bank {
    pub fn new(margin_s: f64) -> Bank {
        Bank {
            set: ProcessSet::new(detector(margin_s)),
            events: Vec::new(),
        }
    }

    pub fn apply(&mut self, stream: u64, seq: u64, arrival_ns: u64) {
        self.set
            .on_heartbeat_incarnated(stream, 0, seq, Nanos(arrival_ns), &mut self.events);
    }

    /// Publishes every horizon that expired before `now_ns`; returns
    /// how many did.
    pub fn sweep(&mut self, now_ns: u64) -> usize {
        let before = self.events.len();
        self.set.sweep(Nanos(now_ns), &mut self.events);
        self.events.len() - before
    }

    pub fn next_expiry_ns(&mut self) -> Option<u64> {
        self.set.next_expiry().map(|t| t.0)
    }

    pub fn take_events(&mut self) -> Vec<Event> {
        self.events.drain(..).map(Event::from).collect()
    }
}

pub fn encode(stream: u64, seq: u64, sent_ns: u64, buf: &mut [u8; WIRE]) {
    Heartbeat {
        stream,
        seq,
        sent_at: Nanos(sent_ns),
        incarnation: 0,
    }
    .encode_into(buf);
}

/// `(stream, seq, sent_ns)` of a well-formed datagram.
pub fn decode(datagram: &[u8]) -> Option<(u64, u64, u64)> {
    Heartbeat::decode(datagram)
        .ok()
        .map(|hb| (hb.stream, hb.seq, hb.sent_at.0))
}

/// `sendmmsg` on a connected socket; returns datagrams sent.
pub fn send_batch(socket: &UdpSocket, datagrams: &[&[u8]]) -> io::Result<usize> {
    twofd_net::intake::send_batch(socket, datagrams)
}

/// The `recvmmsg` arena the fleet's intake thread uses.
pub struct BatchRx(BatchReceiver);

impl BatchRx {
    #[allow(clippy::new_without_default)]
    pub fn new() -> BatchRx {
        BatchRx(BatchReceiver::new())
    }

    pub fn recv(&mut self, socket: &UdpSocket) -> io::Result<usize> {
        self.0.recv_batch(socket)
    }

    pub fn datagram(&self, i: usize) -> &[u8] {
        self.0.datagram(i)
    }
}

/// The in-memory transport pair.
pub struct SimLink {
    tx: SimSender,
    rx: SimTransport,
}

impl SimLink {
    pub fn new(capacity: usize) -> SimLink {
        let (tx, rx) = sim_channel(capacity);
        SimLink { tx, rx }
    }

    pub fn send(&mut self, datagram: &[u8]) -> io::Result<()> {
        self.tx.send(datagram)
    }

    pub fn recv(&mut self) -> io::Result<usize> {
        self.rx.recv_batch()
    }

    pub fn datagram(&self, i: usize) -> &[u8] {
        self.rx.datagram(i)
    }
}

/// `core::slab` on its own.
pub struct SlabProbe(StreamSlab<u64, u64>);

impl SlabProbe {
    #[allow(clippy::new_without_default)]
    pub fn new() -> SlabProbe {
        SlabProbe(StreamSlab::new())
    }

    pub fn intern(&mut self, key: u64) -> u32 {
        self.0.intern_with(key, |k| *k)
    }
}

/// `core::wheel` on its own.
pub struct WheelProbe {
    wheel: TimingWheel,
    due: Vec<WheelEntry>,
}

impl WheelProbe {
    #[allow(clippy::new_without_default)]
    pub fn new() -> WheelProbe {
        WheelProbe {
            wheel: TimingWheel::new(Nanos(0)),
            due: Vec::new(),
        }
    }

    pub fn insert(&mut self, slot: u32, deadline_ns: u64) {
        self.wheel.insert(slot, 0, Nanos(deadline_ns));
    }

    /// Harvests everything due before `now_ns`; returns how many.
    pub fn advance(&mut self, now_ns: u64) -> usize {
        self.due.clear();
        self.wheel.advance(Nanos(now_ns), &mut self.due);
        self.due.len()
    }
}

/// `obs` primitives on their own: one tracker, one histogram, one
/// counter, as a shard worker drives them per heartbeat.
pub struct ObsProbe {
    tracker: QosTracker,
    hist: Histogram,
    counter: Counter,
}

impl ObsProbe {
    #[allow(clippy::new_without_default)]
    pub fn new() -> ObsProbe {
        ObsProbe {
            tracker: QosTracker::new(QosTrackerConfig {
                spec: None,
                interval: Span(INTERVAL_NS),
                window: Span::from_secs(60),
                origin: QosOrigin::Nominal,
            }),
            hist: Histogram::new(),
            counter: Counter::new(),
        }
    }

    pub fn track(&mut self, seq: u64, arrival_ns: u64, trust_until_ns: u64) {
        let decision = twofd_core::Decision {
            trust_until: Nanos(trust_until_ns),
        };
        self.tracker
            .on_heartbeat(seq, Nanos(arrival_ns), Some(decision));
    }

    /// Prunes the tracker's window the way a scrape does.
    pub fn scrape(&mut self, now_ns: u64) -> f64 {
        self.tracker.metrics_at(Nanos(now_ns)).detection_time
    }

    pub fn observe(&self, ns: u64) {
        self.hist.observe_ns(ns);
    }

    pub fn inc(&self) {
        self.counter.inc();
    }

    pub fn totals(&self) -> (u64, u64) {
        (self.hist.count(), self.counter.get())
    }
}

/// One algorithm of the paper's comparison (§IV-C2).
#[derive(Debug, Clone)]
pub struct Spec(DetectorSpec);

/// The comparison set, in the paper's order: `2w-fd(1,1000)`,
/// `chen(1)`, `chen(1000)`, `phi(1000)`, `ed(1000)`, `bertier(1000)`.
pub fn paper_specs() -> Vec<Spec> {
    DetectorSpec::paper_comparison()
        .into_iter()
        .map(Spec)
        .collect()
}

impl Spec {
    pub fn label(&self) -> String {
        self.0.label()
    }

    /// Whether the knob is a safety margin in seconds (the Chen
    /// family) rather than an accrual threshold.
    pub fn tuned_by_margin(&self) -> bool {
        matches!(
            self.0,
            DetectorSpec::Chen { .. } | DetectorSpec::TwoWindow { .. }
        )
    }

    pub fn build(&self, tuning: f64) -> Detector {
        Detector(self.0.build_any(Span(INTERVAL_NS), tuning))
    }
}

/// One detector instance.
pub struct Detector(AnyDetector);

impl Detector {
    /// Feeds a heartbeat; the new `trust_until` if it was fresh.
    pub fn feed(&mut self, seq: u64, arrival_ns: u64) -> Option<u64> {
        self.0
            .on_heartbeat(seq, Nanos(arrival_ns))
            .map(|d| d.trust_until.0)
    }
}

/// One delivered heartbeat of a trace.
#[derive(Debug, Clone, Copy)]
pub struct Delivery {
    pub seq: u64,
    pub send_ns: u64,
    pub at_ns: u64,
}

/// The synthetic WAN trace of the paper's evaluation.
pub struct WanTrace(Trace);

impl WanTrace {
    pub fn generate(samples: u64, seed: u64) -> WanTrace {
        WanTrace(WanTraceConfig::small(samples, seed).generate())
    }

    pub fn sent(&self) -> u64 {
        self.0.sent() as u64
    }

    /// Deliveries in arrival order.
    pub fn deliveries(&self) -> Vec<Delivery> {
        self.0
            .arrivals()
            .into_iter()
            .map(|a| Delivery {
                seq: a.seq,
                send_ns: a.send.0,
                at_ns: a.at.0,
            })
            .collect()
    }

    /// The paper's evaluation step: one detector over the whole trace.
    pub fn replay(&self, spec: &Spec, tuning: f64) -> Replayed {
        let mut fd = spec.0.build_any(self.0.interval, tuning);
        Replayed(twofd_core::replay(&mut fd, &self.0))
    }
}

/// The outcome of one replay.
pub struct Replayed(ReplayResult);

impl Replayed {
    /// Heartbeats the detector processed, fresh or stale.
    pub fn heartbeats(&self) -> u64 {
        self.0.fresh_heartbeats + self.0.stale_heartbeats
    }

    /// Suspicion periods `(start_ns, end_ns)`, in time order.
    pub fn mistakes(&self) -> Vec<(u64, u64)> {
        self.0
            .mistakes
            .iter()
            .map(|m| (m.start.0, m.end.0))
            .collect()
    }

    /// `(T_D seconds, mistakes)` from the QoS aggregation.
    pub fn qos(&self) -> (f64, u64) {
        let m = self.0.metrics();
        (m.detection_time, m.mistakes)
    }

    pub fn timeline(&self) -> VerdictTimeline {
        VerdictTimeline(Timeline::from_replay(&self.0))
    }
}

/// A replay's verdict as a function of time, for queries.
pub struct VerdictTimeline(Timeline);

impl VerdictTimeline {
    pub fn span_ns(&self) -> (u64, u64) {
        (self.0.start.0, self.0.end.0)
    }

    pub fn is_trusted_at(&self, t_ns: u64) -> bool {
        self.0.output_at(Nanos(t_ns)) == FdOutput::Trust
    }
}
