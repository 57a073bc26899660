//! The monitoring process `q`: a UDP receiver feeding failure detectors.
//!
//! A [`Monitor`] owns a socket and a receive thread and watches one
//! process: the stream of the first valid heartbeat it hears. Each
//! heartbeat of that stream is timestamped on arrival with the
//! monitor's own clock and fed to every registered [`FailureDetector`]
//! (one per application in the shared-service deployment) plus a
//! [`NetworkEstimator`] for `(pL, V(D))`; datagrams of any other stream
//! are rejected, so a second sender can neither keep a crashed process
//! trusted nor skew the estimate. The model is crash-stop: the
//! heartbeat's `incarnation` is ignored (the sharded runtime,
//! [`crate::ShardRuntime`], is the crash-recovery path). Clients query
//! outputs at any time; an [`Events`]
//! queue streams Trust/Suspect transitions. The queue is *bounded*: if
//! no one drains it, transitions beyond its capacity are dropped
//! (newest-first) and counted in
//! [`Monitor::events_dropped`] rather than growing memory without limit.

use crate::clock::{MonotonicClock, TimeSource};
use crate::inbox::Events;
use crate::unpoison;
use crate::wire::Heartbeat;
use std::io;
use std::net::{SocketAddr, UdpSocket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;
use twofd_core::{AnyDetector, DetectorConfig, FailureDetector, FdOutput, NetworkEstimator};
use twofd_obs::Counter;
use twofd_sim::time::Nanos;

/// A Trust/Suspect transition event for one registered detector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransitionEvent {
    /// Index of the detector (registration order).
    pub detector: usize,
    /// The new output.
    pub output: FdOutput,
    /// Monitor-clock time at which the event was observed.
    pub at: Nanos,
}

struct Inner {
    /// The monitored stream: the first one heard.
    stream: Option<u64>,
    /// Inline, statically dispatched detectors — one per registered
    /// spec, in registration order.
    detectors: Vec<AnyDetector>,
    estimator: NetworkEstimator,
    last_outputs: Vec<FdOutput>,
}

/// Shared state between the monitor handle and its receive thread.
struct Shared {
    inner: Mutex<Inner>,
    stop: AtomicBool,
    received: Counter,
    rejected: Counter,
    clock: Arc<dyn TimeSource>,
    events: Events<TransitionEvent>,
}

/// Default capacity of the transition-event channel.
const DEFAULT_EVENT_CAPACITY: usize = 1024;

/// Handle to a running heartbeat monitor.
///
/// Dropping the handle stops the receive thread.
pub struct Monitor {
    shared: Arc<Shared>,
    thread: Option<JoinHandle<()>>,
    local_addr: SocketAddr,
}

impl Monitor {
    /// Binds a fresh localhost socket and starts receiving, building one
    /// detector per spec-based recipe (at least one required). The event
    /// channel holds up to `DEFAULT_EVENT_CAPACITY` (1024) undrained
    /// transitions.
    pub fn spawn(detectors: Vec<DetectorConfig>) -> io::Result<Monitor> {
        Self::spawn_with_clock(
            detectors,
            DEFAULT_EVENT_CAPACITY,
            Arc::new(MonotonicClock::new()),
        )
    }

    /// Like [`Monitor::spawn`] with an explicit event-channel capacity
    /// (transitions that would overflow it are dropped and counted in
    /// [`Monitor::events_dropped`]) and an explicit [`TimeSource`]
    /// stamping arrivals and timing queries — the clock seam that lets
    /// a deterministic driver put the monitor on a virtual time axis.
    /// [`Monitor::spawn`] passes a fresh [`MonotonicClock`] (its own
    /// origin, deliberately unsynchronized with any sender's, as in the
    /// paper).
    pub fn spawn_with_clock(
        detectors: Vec<DetectorConfig>,
        event_capacity: usize,
        clock: Arc<dyn TimeSource>,
    ) -> io::Result<Monitor> {
        assert!(!detectors.is_empty(), "monitor needs at least one detector");
        let detectors: Vec<AnyDetector> = detectors.iter().map(DetectorConfig::build).collect();
        let socket = UdpSocket::bind(("127.0.0.1", 0))?;
        let local_addr = socket.local_addr()?;
        // Short read timeout so the thread notices stop requests.
        socket.set_read_timeout(Some(Duration::from_millis(20)))?;

        let n = detectors.len();
        let shared = Arc::new(Shared {
            inner: Mutex::new(Inner {
                stream: None,
                detectors,
                estimator: NetworkEstimator::new(1000),
                last_outputs: vec![FdOutput::Suspect; n],
            }),
            stop: AtomicBool::new(false),
            received: Counter::new(),
            rejected: Counter::new(),
            clock,
            events: Events::new(event_capacity, Counter::new()),
        });

        let thread_shared = Arc::clone(&shared);
        let thread = thread::Builder::new()
            .name("twofd-monitor".into())
            .spawn(move || {
                let mut buf = [0u8; 128];
                loop {
                    if thread_shared.stop.load(Ordering::Acquire) {
                        return;
                    }
                    let len = match socket.recv(&mut buf) {
                        Ok(len) => len,
                        Err(e)
                            if e.kind() == io::ErrorKind::WouldBlock
                                || e.kind() == io::ErrorKind::TimedOut =>
                        {
                            // Timeout tick: publish S-transitions that
                            // happened silently (no datagram involved).
                            thread_shared.tick();
                            continue;
                        }
                        Err(_) => return,
                    };
                    let arrival = thread_shared.clock.now();
                    match Heartbeat::decode(&buf[..len]) {
                        Ok(hb) if thread_shared.deliver(hb, arrival) => {
                            thread_shared.received.inc()
                        }
                        _ => thread_shared.rejected.inc(),
                    }
                }
            })?;

        Ok(Monitor {
            shared,
            thread: Some(thread),
            local_addr,
        })
    }

    /// The socket address heartbeats should be sent to.
    pub fn local_addr(&self) -> SocketAddr {
        self.local_addr
    }

    /// Output of detector `idx` right now.
    pub fn output(&self, idx: usize) -> Option<FdOutput> {
        let now = self.shared.clock.now();
        let inner = unpoison(self.shared.inner.lock());
        inner.detectors.get(idx).map(|d| d.output_at(now))
    }

    /// Outputs of all detectors right now.
    pub fn outputs(&self) -> Vec<FdOutput> {
        let now = self.shared.clock.now();
        let inner = unpoison(self.shared.inner.lock());
        inner.detectors.iter().map(|d| d.output_at(now)).collect()
    }

    /// Detector names (e.g. `"2w-fd(1,1000)"`), in registration order.
    pub fn detector_names(&self) -> Vec<String> {
        let inner = unpoison(self.shared.inner.lock());
        inner.detectors.iter().map(|d| d.name()).collect()
    }

    /// Current `(pL, V(D))` estimate from observed heartbeats.
    pub fn network_estimate(&self) -> twofd_core::NetworkBehavior {
        unpoison(self.shared.inner.lock()).estimator.behavior()
    }

    /// Heartbeats of the monitored stream received so far.
    pub fn received(&self) -> u64 {
        self.shared.received.get()
    }

    /// Datagrams dropped so far: malformed ones, and heartbeats of any
    /// stream other than the monitored one.
    pub fn rejected(&self) -> u64 {
        self.shared.rejected.get()
    }

    /// The stream of Trust/Suspect transitions.
    pub fn events(&self) -> &Events<TransitionEvent> {
        &self.shared.events
    }

    /// Transitions dropped because the bounded event channel was full
    /// (i.e. nobody drained [`Monitor::events`] fast enough).
    pub fn events_dropped(&self) -> u64 {
        self.shared.events.dropped()
    }

    /// The monitor's clock (for interpreting event timestamps).
    pub fn now(&self) -> Nanos {
        self.shared.clock.now()
    }
}

impl Shared {
    /// Feeds `hb` to the estimator and the detectors, pinning its stream
    /// if it is the first heard. Returns false, having fed nothing, for
    /// a heartbeat of another stream.
    fn deliver(&self, hb: Heartbeat, arrival: Nanos) -> bool {
        let mut inner = unpoison(self.inner.lock());
        if *inner.stream.get_or_insert(hb.stream) != hb.stream {
            return false;
        }
        inner.estimator.observe(hb.seq, hb.sent_at, arrival);
        for d in inner.detectors.iter_mut() {
            d.on_heartbeat(hb.seq, arrival);
        }
        drop(inner);
        self.publish_transitions(arrival);
        true
    }

    fn tick(&self) {
        self.publish_transitions(self.clock.now());
    }

    fn publish_transitions(&self, now: Nanos) {
        let mut inner = unpoison(self.inner.lock());
        let Inner {
            detectors,
            last_outputs,
            ..
        } = &mut *inner;
        for (i, d) in detectors.iter().enumerate() {
            let out = d.output_at(now);
            if out != last_outputs[i] {
                last_outputs[i] = out;
                let event = TransitionEvent {
                    detector: i,
                    output: out,
                    at: now,
                };
                self.events.publish(event);
            }
        }
    }
}

impl Drop for Monitor {
    fn drop(&mut self) {
        self.shared.stop.store(true, Ordering::Release);
        if let Some(handle) = self.thread.take() {
            let _ = handle.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twofd_core::DetectorSpec;
    use twofd_sim::time::Span;

    fn detectors(interval: Span) -> Vec<DetectorConfig> {
        vec![
            DetectorConfig::new(DetectorSpec::TwoWindow { n1: 1, n2: 100 }, interval, 0.04),
            DetectorConfig::new(DetectorSpec::Chen { window: 100 }, interval, 0.04),
        ]
    }

    #[test]
    fn monitor_starts_suspecting() {
        let m = Monitor::spawn(detectors(Span::from_millis(10))).unwrap();
        assert_eq!(m.outputs(), vec![FdOutput::Suspect, FdOutput::Suspect]);
        assert_eq!(m.detector_names(), vec!["2w-fd(1,100)", "chen(100)"]);
        assert_eq!(m.received(), 0);
    }

    #[test]
    fn heartbeats_establish_trust() {
        let m = Monitor::spawn(detectors(Span::from_millis(10))).unwrap();
        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let clock = MonotonicClock::new();
        for seq in 1..=10u64 {
            let hb = Heartbeat {
                stream: 1,
                seq,
                sent_at: clock.now(),
                incarnation: 0,
            };
            sock.send_to(&hb.encode(), m.local_addr()).unwrap();
            thread::sleep(Duration::from_millis(10));
        }
        // Give the receive thread a beat to process the last datagram.
        thread::sleep(Duration::from_millis(10));
        assert!(m.received() >= 9);
        assert_eq!(m.output(0), Some(FdOutput::Trust));
        assert_eq!(m.output(1), Some(FdOutput::Trust));
    }

    #[test]
    fn silence_turns_trust_into_suspicion_and_emits_events() {
        let m = Monitor::spawn(detectors(Span::from_millis(10))).unwrap();
        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let clock = MonotonicClock::new();
        for seq in 1..=10u64 {
            let hb = Heartbeat {
                stream: 1,
                seq,
                sent_at: clock.now(),
                incarnation: 0,
            };
            sock.send_to(&hb.encode(), m.local_addr()).unwrap();
            thread::sleep(Duration::from_millis(10));
        }
        // Stop sending: both detectors must S-transition.
        thread::sleep(Duration::from_millis(300));
        assert_eq!(m.output(0), Some(FdOutput::Suspect));
        // The event stream saw, for each detector, at least one T and
        // one (final) S transition.
        let events: Vec<_> = m.events().try_iter().collect();
        for det in 0..2 {
            assert!(events
                .iter()
                .any(|e| e.detector == det && e.output == FdOutput::Trust));
            assert!(events
                .iter()
                .any(|e| e.detector == det && e.output == FdOutput::Suspect));
        }
    }

    #[test]
    fn malformed_datagrams_are_counted_not_fatal() {
        let m = Monitor::spawn(detectors(Span::from_millis(10))).unwrap();
        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        sock.send_to(b"garbage", m.local_addr()).unwrap();
        thread::sleep(Duration::from_millis(50));
        assert_eq!(m.rejected(), 1);
        assert_eq!(m.received(), 0);
    }

    #[test]
    fn network_estimator_sees_the_stream() {
        let m = Monitor::spawn(detectors(Span::from_millis(5))).unwrap();
        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let clock = MonotonicClock::new();
        // Send 1..=20 but skip half: pL ≈ 0.5.
        for seq in 1..=20u64 {
            if seq % 2 == 0 {
                continue;
            }
            let hb = Heartbeat {
                stream: 1,
                seq,
                sent_at: clock.now(),
                incarnation: 0,
            };
            sock.send_to(&hb.encode(), m.local_addr()).unwrap();
            thread::sleep(Duration::from_millis(5));
        }
        thread::sleep(Duration::from_millis(50));
        let est = m.network_estimate();
        assert!(est.loss_prob > 0.3, "pL estimate {}", est.loss_prob);
    }

    #[test]
    #[should_panic(expected = "at least one detector")]
    fn rejects_empty_detector_list() {
        let _ = Monitor::spawn(vec![]);
    }

    #[test]
    fn undrained_event_channel_drops_and_counts() {
        // Capacity 1 and two detectors: the simultaneous T-transitions on
        // the first heartbeats overflow the channel, which must drop the
        // excess and count it rather than block or grow.
        let m = Monitor::spawn_with_clock(
            detectors(Span::from_millis(10)),
            1,
            Arc::new(MonotonicClock::new()),
        )
        .unwrap();
        let sock = UdpSocket::bind(("127.0.0.1", 0)).unwrap();
        let clock = MonotonicClock::new();
        for seq in 1..=10u64 {
            let hb = Heartbeat {
                stream: 1,
                seq,
                sent_at: clock.now(),
                incarnation: 0,
            };
            sock.send_to(&hb.encode(), m.local_addr()).unwrap();
            thread::sleep(Duration::from_millis(10));
        }
        thread::sleep(Duration::from_millis(20));
        assert_eq!(m.outputs(), vec![FdOutput::Trust, FdOutput::Trust]);
        assert_eq!(m.events().len(), 1, "channel holds exactly its capacity");
        assert!(
            m.events_dropped() >= 1,
            "overflowing transition must be counted, got {}",
            m.events_dropped()
        );
    }
}
