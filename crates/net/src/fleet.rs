//! Monitoring a fleet of senders on one socket.
//!
//! The wire format carries a stream id precisely so that one monitoring
//! endpoint can watch many monitored processes — the deployment shape of
//! a failure-detection *service*. [`FleetMonitor`] binds the UDP socket,
//! decodes and timestamps each datagram on an ingestion thread, and
//! routes it into a [`ShardRuntime`]: per-stream detectors partitioned
//! across shard workers behind bounded queues, each shard proactively
//! sweeping its timing wheel (see [`crate::shard`] for the architecture).
//!
//! Queries contend only with the one shard that owns the queried
//! stream, ingestion never blocks (overload drops-oldest and counts),
//! and Trust→Suspect transitions are *pushed* on the
//! [`FleetMonitor::events`] channel at their exact expiry instants
//! instead of being discovered by polling.

use crate::clock::{MonotonicClock, TimeSource};
use crate::inbox::Events;
use crate::intake::BATCH;
use crate::shard::{FleetEvent, Job, RuntimeStats, ShardConfig, ShardRuntime};
use crate::transport::{Transport, UdpTransport};
use crate::wire::Heartbeat;
use std::io;
use std::net::{SocketAddr, ToSocketAddrs, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;
use twofd_core::{DetectorConfig, FdOutput, ProcessStatus, QosMetrics};
use twofd_obs::{Counter, MetricsServer, QosVerdict, Registry};

pub use crate::shard::DetectorPlan;

/// How the ingestion thread pulls datagrams off the socket. Batch
/// receive is the only mode; [`FleetMonitor::spawn_with_clock`] still
/// takes it as an argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IntakeMode {
    /// Batch receive ([`crate::intake::BatchReceiver`]): one kernel
    /// crossing and one clock read per batch of up to
    /// [`crate::intake::BATCH`] datagrams, handed to the runtime via
    /// [`ShardRuntime::ingest_batch`].
    #[default]
    Batched,
}

/// Handle to a running fleet monitor. Dropping it stops the ingestion
/// thread and all shard workers.
pub struct FleetMonitor {
    runtime: Arc<ShardRuntime>,
    stop: Arc<AtomicBool>,
    rejected: Counter,
    thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl FleetMonitor {
    /// Binds a localhost socket and starts demultiplexing heartbeats
    /// with the default [`ShardConfig`]: every stream gets `detector`
    /// (a `DetectorSpec` recipe — the paper's `2w-fd(1,1000)` if you
    /// pass `DetectorConfig::default()`).
    pub fn spawn(detector: DetectorConfig) -> io::Result<FleetMonitor> {
        Self::spawn_with(ShardConfig {
            detector: detector.into(),
            ..ShardConfig::default()
        })
    }

    /// Binds a localhost socket and starts demultiplexing heartbeats
    /// into a sharded runtime tuned by `config` (including its
    /// [`DetectorPlan`]), using batched intake.
    pub fn spawn_with(config: ShardConfig) -> io::Result<FleetMonitor> {
        Self::spawn_with_clock(config, IntakeMode::Batched, Arc::new(MonotonicClock::new()))
    }

    /// Like [`FleetMonitor::spawn_with`] with an explicit [`TimeSource`]
    /// stamping arrivals and driving the sweepers. The default
    /// constructors pass a fresh [`MonotonicClock`]; a
    /// [`crate::clock::ManualClock`] here puts the whole UDP monitor on
    /// a virtual time axis.
    pub fn spawn_with_clock(
        config: ShardConfig,
        _mode: IntakeMode,
        clock: Arc<dyn TimeSource>,
    ) -> io::Result<FleetMonitor> {
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        let local_addr = socket.local_addr()?;
        // Short read timeout so the thread notices stop requests.
        socket.set_read_timeout(Some(Duration::from_millis(20)))?;
        // The other half of batch intake: a deep kernel buffer rides out
        // bursts between intake-thread time slices, so the next recvmmsg
        // finds a full batch instead of a tail of drops. Best-effort —
        // the kernel caps it at net.core.rmem_max.
        let _ = crate::intake::set_recv_buffer(&socket, 4 << 20);
        Self::spawn_with_transport_at(config, UdpTransport::new(socket), clock, local_addr)
    }

    /// Spawns the monitor over an arbitrary [`Transport`] — the seam the
    /// deterministic tests thread an in-memory
    /// [`crate::transport::SimTransport`] through. The returned
    /// handle's [`FleetMonitor::local_addr`] is the unspecified
    /// `127.0.0.1:0`, since a non-socket transport has no address.
    pub fn spawn_with_transport<T: Transport + 'static>(
        config: ShardConfig,
        transport: T,
        clock: Arc<dyn TimeSource>,
    ) -> io::Result<FleetMonitor> {
        Self::spawn_with_transport_at(config, transport, clock, ([127, 0, 0, 1], 0).into())
    }

    fn spawn_with_transport_at<T: Transport + 'static>(
        config: ShardConfig,
        transport: T,
        clock: Arc<dyn TimeSource>,
        local_addr: SocketAddr,
    ) -> io::Result<FleetMonitor> {
        let runtime = Arc::new(ShardRuntime::new(config, Arc::clone(&clock)));
        let rejected = runtime.registry().counter(
            "twofd_monitor_rejected_total",
            "Malformed datagrams dropped by the ingestion thread",
        );
        let intake_batches = runtime.registry().counter(
            "twofd_intake_batches_total",
            "Transport receive calls that returned at least one datagram",
        );
        let intake_datagrams = runtime.registry().counter(
            "twofd_intake_datagrams_total",
            "Datagrams pulled off the transport (valid or not)",
        );
        let stop = Arc::new(AtomicBool::new(false));

        let thread = {
            let runtime = Arc::clone(&runtime);
            let stop = Arc::clone(&stop);
            let rejected = rejected.clone();
            thread::Builder::new()
                .name("twofd-fleet-ingest".into())
                .spawn(move || {
                    ingest_loop(
                        transport,
                        runtime,
                        clock,
                        stop,
                        rejected,
                        intake_batches,
                        intake_datagrams,
                    )
                })?
        };

        Ok(FleetMonitor {
            runtime,
            stop,
            rejected,
            thread: Some(thread),
            local_addr,
        })
    }

    /// The socket address senders should target.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Pre-registers a stream so it is reported (as suspect) before its
    /// first heartbeat. Streams are interned to dense per-shard slots;
    /// re-registering a known stream is a no-op.
    pub fn register(&self, stream: u64) {
        self.runtime.register(stream);
    }

    /// Removes a stream from monitoring; returns whether it existed.
    /// Later heartbeats (or a re-`register`) start a fresh incarnation
    /// with no memory — and no queued expiries — of the old one.
    pub fn deregister(&self, stream: u64) -> bool {
        self.runtime.deregister(stream)
    }

    /// Current output for one stream (`None` if never seen/registered).
    pub fn output(&self, stream: u64) -> Option<FdOutput> {
        self.runtime.output(stream)
    }

    /// Status snapshot of every monitored stream.
    pub fn statuses(&self) -> Vec<ProcessStatus<u64>> {
        self.runtime.statuses()
    }

    /// Streams currently suspected.
    pub fn suspected(&self) -> Vec<u64> {
        self.runtime.suspected()
    }

    /// Valid heartbeats received so far (including any later dropped by
    /// shard backpressure; see [`FleetMonitor::stats`]).
    pub fn received(&self) -> u64 {
        self.runtime.stats().received()
    }

    /// Malformed datagrams dropped so far.
    pub fn rejected(&self) -> u64 {
        self.rejected.get()
    }

    /// The registry holding every metric of this monitor (the runtime's
    /// per-shard counters plus `twofd_monitor_rejected_total`).
    pub fn registry(&self) -> &Registry {
        self.runtime.registry()
    }

    /// Starts a metrics endpoint on an ephemeral localhost port serving
    /// `GET /metrics` (this monitor's registry) and `GET /healthz`
    /// (healthy while the ingestion thread is running). The server stops
    /// when the returned handle is dropped.
    pub fn serve_metrics(&self) -> io::Result<MetricsServer> {
        self.serve_metrics_on(("127.0.0.1", 0))
    }

    /// Like [`FleetMonitor::serve_metrics`] on an explicit address.
    fn serve_metrics_on(&self, addr: impl ToSocketAddrs) -> io::Result<MetricsServer> {
        let stop = Arc::clone(&self.stop);
        MetricsServer::spawn_with_health(
            addr,
            self.registry().clone(),
            Arc::new(move || !stop.load(Ordering::Acquire)),
        )
    }

    /// Online QoS estimates for one stream, if QoS tracking is enabled
    /// in the [`ShardConfig`]'s [`crate::shard::ObsOptions`].
    pub fn qos_metrics(&self, stream: u64) -> Option<QosMetrics> {
        self.runtime.qos_metrics(stream)
    }

    /// Live verdict of one stream against its configured QoS bound, if
    /// QoS tracking is enabled.
    pub fn qos_verdict(&self, stream: u64) -> Option<QosVerdict> {
        self.runtime.qos_verdict(stream)
    }

    /// Number of streams currently monitored.
    pub fn len(&self) -> usize {
        self.runtime.len()
    }

    /// True when no stream is monitored.
    pub fn is_empty(&self) -> bool {
        self.runtime.is_empty()
    }

    /// The stream of Trust/Suspect transitions, stamped with exact
    /// transition times (sweeper-published, no query required).
    pub fn events(&self) -> &Events<FleetEvent> {
        self.runtime.events()
    }

    /// Observability snapshot: per-shard received/dropped/stale counts,
    /// queue depths, live/suspect tallies and transition totals.
    pub fn stats(&self) -> RuntimeStats {
        self.runtime.stats()
    }

    /// Transition events dropped because the event channel was full.
    pub fn events_dropped(&self) -> u64 {
        self.runtime.events_dropped()
    }
}

impl Drop for FleetMonitor {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

/// The one ingest loop, generic over the [`Transport`] seam: one
/// `recv_batch`, one clock read, and one [`ShardRuntime::ingest_batch`]
/// per batch. Decoding borrows the transport's buffers, so the UDP path
/// is allocation-free after the initial `jobs` reservation. Batching is
/// invisible to detector semantics: the same datagrams in batches of
/// any size produce the identical transition timeline (see
/// [`ShardRuntime::ingest_batch`]).
///
/// A transport error other than the idle timeouts ends the loop and
/// raises `stop`, so `/healthz` reports the dead intake.
fn ingest_loop<T: Transport>(
    mut transport: T,
    runtime: Arc<ShardRuntime>,
    clock: Arc<dyn TimeSource>,
    stop: Arc<AtomicBool>,
    rejected: Counter,
    intake_batches: Counter,
    intake_datagrams: Counter,
) {
    let mut jobs: Vec<Job> = Vec::with_capacity(BATCH);
    loop {
        if stop.load(Ordering::Acquire) {
            return;
        }
        let n = match transport.recv_batch() {
            Ok(n) => n,
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue;
            }
            Err(_) => {
                stop.store(true, Ordering::Release);
                return;
            }
        };
        if n == 0 {
            continue;
        }
        // One arrival timestamp for the whole batch: every datagram in
        // it was already queued in the transport's buffer at this
        // instant, so a shared "now" is at least as accurate as serially
        // reading the clock while the rest of the batch waits.
        let arrival = clock.now();
        jobs.clear();
        for i in 0..n {
            match Heartbeat::decode(transport.datagram(i)) {
                Ok(hb) => jobs.push((hb.stream, hb.seq, arrival, hb.incarnation)),
                Err(_) => rejected.inc(),
            }
        }
        intake_batches.inc();
        intake_datagrams.add(n as u64);
        runtime.ingest_batch(&jobs);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sender::HeartbeatSender;
    use std::time::Instant;
    use twofd_core::{DetectorBuilder, DetectorSpec, FailureDetector};
    use twofd_sim::time::Span;

    fn config(interval: Span, margin: Span) -> DetectorConfig {
        DetectorConfig::new(
            DetectorSpec::TwoWindow { n1: 1, n2: 100 },
            interval,
            margin.as_secs_f64(),
        )
    }

    fn fleet(interval: Span, margin: Span) -> FleetMonitor {
        FleetMonitor::spawn(config(interval, margin)).expect("bind fleet monitor")
    }

    /// Regression test: the default plan must be the paper's
    /// `2w-fd(1,1000)` configuration, not an ad-hoc window pair. (An
    /// earlier revision hardcoded `(1, 100)` here, silently diverging
    /// from the paper's evaluation setup.)
    #[test]
    fn default_shard_config_uses_papers_two_window() {
        let config = ShardConfig::default();
        assert_eq!(config.detector.build(&7).name(), "2w-fd(1,1000)");
        assert_eq!(
            config.detector.config_for(&7).spec,
            DetectorSpec::TwoWindow { n1: 1, n2: 1000 }
        );
        // ...and it is overridable via config.
        let custom = ShardConfig {
            detector: DetectorConfig::new(
                DetectorSpec::Chen { window: 500 },
                Span::from_millis(10),
                0.05,
            )
            .into(),
            ..ShardConfig::default()
        };
        assert_eq!(custom.detector.build(&7).name(), "chen(500)");
    }

    fn wait_for(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        while Instant::now() < deadline {
            if cond() {
                return true;
            }
            thread::sleep(Duration::from_millis(10));
        }
        false
    }

    #[test]
    fn demultiplexes_streams() {
        let interval = Span::from_millis(10);
        let monitor = fleet(interval, Span::from_millis(50));
        let s1 = HeartbeatSender::spawn(1, interval, monitor.local_addr()).unwrap();
        let s2 = HeartbeatSender::spawn(2, interval, monitor.local_addr()).unwrap();
        assert!(wait_for(
            || monitor.len() == 2
                && monitor.output(1) == Some(FdOutput::Trust)
                && monitor.output(2) == Some(FdOutput::Trust),
            Duration::from_secs(3)
        ));
        drop((s1, s2));
    }

    #[test]
    fn crash_of_one_stream_does_not_affect_another() {
        let interval = Span::from_millis(10);
        let monitor = fleet(interval, Span::from_millis(50));
        let alive = HeartbeatSender::spawn(10, interval, monitor.local_addr()).unwrap();
        let doomed = HeartbeatSender::spawn(20, interval, monitor.local_addr()).unwrap();
        assert!(wait_for(
            || monitor.suspected().is_empty() && monitor.len() == 2,
            Duration::from_secs(3)
        ));
        doomed.crash();
        assert!(wait_for(
            || monitor.suspected() == vec![20],
            Duration::from_secs(3)
        ));
        assert_eq!(monitor.output(10), Some(FdOutput::Trust));
        drop(alive);
    }

    #[test]
    fn registered_streams_start_suspect() {
        let monitor = fleet(Span::from_millis(10), Span::from_millis(50));
        monitor.register(99);
        assert_eq!(monitor.output(99), Some(FdOutput::Suspect));
        assert_eq!(monitor.output(100), None);
        let statuses = monitor.statuses();
        assert_eq!(statuses.len(), 1);
        assert_eq!(statuses[0].key, 99);
        // Deregistering forgets the stream entirely; re-registering
        // starts a clean incarnation (and slots/gauges reconcile).
        assert!(monitor.deregister(99));
        assert!(!monitor.deregister(99));
        assert_eq!(monitor.output(99), None);
        assert!(monitor.statuses().is_empty());
        monitor.register(99);
        assert_eq!(monitor.output(99), Some(FdOutput::Suspect));
    }

    #[test]
    fn garbage_does_not_create_streams() {
        let monitor = fleet(Span::from_millis(10), Span::from_millis(50));
        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sock.send_to(b"not a heartbeat", monitor.local_addr())
            .unwrap();
        // The retired version-1 frame, at its own 32 bytes and padded
        // to full length: rejected and counted, never applied.
        let mut v1 = Heartbeat {
            stream: 5,
            seq: 1,
            sent_at: twofd_sim::time::Nanos(1),
            incarnation: 0,
        }
        .encode();
        v1[4..6].copy_from_slice(&1u16.to_le_bytes());
        sock.send_to(&v1[..32], monitor.local_addr()).unwrap();
        sock.send_to(&v1, monitor.local_addr()).unwrap();
        assert!(wait_for(|| monitor.rejected() == 3, Duration::from_secs(2)));
        assert!(monitor.is_empty());
        assert_eq!(monitor.received(), 0);
    }

    #[test]
    fn stats_cover_the_fleet() {
        let interval = Span::from_millis(10);
        let monitor = fleet(interval, Span::from_millis(50));
        let senders: Vec<_> = (0..4u64)
            .map(|s| HeartbeatSender::spawn(s, interval, monitor.local_addr()).unwrap())
            .collect();
        assert!(wait_for(
            || monitor.stats().live() == 4,
            Duration::from_secs(3)
        ));
        let stats = monitor.stats();
        assert_eq!(stats.streams(), 4);
        assert_eq!(stats.suspect(), 0);
        assert!(stats.received() >= 4);
        assert_eq!(stats.dropped(), 0);
        // Default config: four shards, one stream each under modulo
        // routing of ids 0..4.
        assert_eq!(stats.shards.len(), 4);
        assert!(stats.shards.iter().all(|s| s.streams == 1), "{stats:?}");
        // Each stream published its Suspect→Trust transition.
        assert_eq!(stats.shards.iter().map(|s| s.to_trust).sum::<u64>(), 4);
        drop(senders);
    }
}
