//! End-to-end test over real UDP: sender and monitor on loopback, crash
//! injection, detection within the expected window.

use std::net::UdpSocket;
use std::thread::sleep;
use std::time::{Duration, Instant};
use twofd::core::{DetectorConfig, DetectorSpec, FdOutput};
use twofd::net::{Heartbeat, HeartbeatSender, Monitor};
use twofd::sim::{Nanos, Span};

fn spawn_pair(interval: Span, margin: Span) -> (HeartbeatSender, Monitor) {
    let tuning = margin.as_secs_f64();
    let detectors = vec![
        DetectorConfig::new(DetectorSpec::TwoWindow { n1: 1, n2: 200 }, interval, tuning),
        DetectorConfig::new(DetectorSpec::Chen { window: 200 }, interval, tuning),
    ];
    let monitor = Monitor::spawn(detectors).expect("bind monitor");
    let sender = HeartbeatSender::spawn(1, interval, monitor.local_addr()).expect("spawn sender");
    (sender, monitor)
}

fn wait_for(mut cond: impl FnMut() -> bool, timeout: Duration) -> bool {
    let deadline = Instant::now() + timeout;
    while Instant::now() < deadline {
        if cond() {
            return true;
        }
        sleep(Duration::from_millis(10));
    }
    false
}

#[test]
fn trust_is_established_then_crash_is_detected() {
    let interval = Span::from_millis(10);
    let (sender, monitor) = spawn_pair(interval, Span::from_millis(50));

    // Trust after a handful of heartbeats.
    assert!(
        wait_for(
            || monitor.outputs().iter().all(|o| *o == FdOutput::Trust),
            Duration::from_secs(3)
        ),
        "detectors never started trusting"
    );
    assert!(monitor.received() > 0);

    // Crash: both detectors must suspect within interval + margin plus
    // scheduling slack.
    sender.crash();
    let crash_instant = Instant::now();
    assert!(
        wait_for(
            || monitor.outputs().iter().all(|o| *o == FdOutput::Suspect),
            Duration::from_secs(3)
        ),
        "crash not detected"
    );
    let detection = crash_instant.elapsed();
    assert!(
        detection < Duration::from_secs(1),
        "detection took {detection:?}"
    );
}

/// A `Monitor` watches the first stream it hears. A second sender aimed
/// at it must not keep the first one trusted after it crashes: its
/// heartbeats are rejected, not fed to the detectors.
#[test]
fn a_second_stream_cannot_keep_a_crashed_process_trusted() {
    let interval = Span::from_millis(10);
    let (sender, monitor) = spawn_pair(interval, Span::from_millis(50));
    // `spawn_pair`'s sender may not have beaten yet: pin stream 1 by hand.
    let first = Heartbeat {
        stream: 1,
        seq: 0,
        sent_at: Nanos::ZERO,
        incarnation: 0,
    };
    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind");
    socket
        .send_to(&first.encode(), monitor.local_addr())
        .expect("send");
    let other = HeartbeatSender::spawn(2, interval, monitor.local_addr()).expect("spawn sender");
    assert!(
        wait_for(
            || monitor.outputs().iter().all(|o| *o == FdOutput::Trust),
            Duration::from_secs(3)
        ),
        "detectors never started trusting"
    );

    sender.crash();
    let crash_instant = Instant::now();
    let rejected_at_crash = monitor.rejected();
    assert!(
        wait_for(
            || monitor.outputs().iter().all(|o| *o == FdOutput::Suspect),
            Duration::from_secs(1)
        ),
        "crash of the monitored stream hidden by stream 2's heartbeats"
    );
    let detection = crash_instant.elapsed();
    assert!(
        detection < Duration::from_secs(1),
        "detection took {detection:?}"
    );
    // Stream 2 kept sending throughout, and each of its heartbeats was
    // rejected.
    assert!(wait_for(
        || monitor.rejected() > rejected_at_crash,
        Duration::from_secs(1)
    ));
    assert!(other.sent() > 0);
}

#[test]
fn partition_causes_a_mistake_that_heals() {
    let interval = Span::from_millis(10);
    let (sender, monitor) = spawn_pair(interval, Span::from_millis(40));
    assert!(wait_for(
        || monitor.outputs().iter().all(|o| *o == FdOutput::Trust),
        Duration::from_secs(3)
    ));

    sender.pause();
    assert!(
        wait_for(
            || monitor.output(0) == Some(FdOutput::Suspect),
            Duration::from_secs(2)
        ),
        "partition not noticed"
    );
    // Hold the partition a few event-publisher ticks (20 ms granularity)
    // so the S-transition lands in the event stream, not just in direct
    // queries.
    sleep(Duration::from_millis(100));
    sender.resume();
    assert!(
        wait_for(
            || monitor.output(0) == Some(FdOutput::Trust),
            Duration::from_secs(2)
        ),
        "trust not restored after partition"
    );

    // The event stream recorded the S and the T transition.
    let events: Vec<_> = monitor.events().try_iter().collect();
    let suspects = events
        .iter()
        .filter(|e| e.output == FdOutput::Suspect)
        .count();
    let trusts = events
        .iter()
        .filter(|e| e.output == FdOutput::Trust)
        .count();
    assert!(suspects >= 1 && trusts >= 2, "events: {events:?}");
}

#[test]
fn network_estimates_reflect_the_loopback_link() {
    let interval = Span::from_millis(5);
    let (sender, monitor) = spawn_pair(interval, Span::from_millis(50));
    assert!(wait_for(
        || monitor.received() > 100,
        Duration::from_secs(5)
    ));
    let est = monitor.network_estimate();
    // Loopback: negligible loss, sub-millisecond jitter.
    assert!(est.loss_prob < 0.05, "pL {}", est.loss_prob);
    assert!(est.delay_var < 1e-4, "V(D) {}", est.delay_var);
    drop(sender);
}

/// Sum of `twofd_sweep_duration_seconds_count` across shards — one
/// increment per worker pass that swept, i.e. per wakeup doing work.
fn total_sweeps(monitor: &twofd::net::FleetMonitor) -> u64 {
    monitor
        .registry()
        .render()
        .lines()
        .filter(|l| l.starts_with("twofd_sweep_duration_seconds_count{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse::<f64>().unwrap() as u64)
        .sum()
}

/// Deadline-driven sweeping, idle side: with the only stream's trust
/// horizon ~a minute away and no traffic, workers must *park*, not
/// poll. The seed's unconditional 5 ms sleep made ~200 sweeps/s per
/// shard (~800/s for the default four); now the shard holding the one
/// pending expiry re-validates at most every `sweep_interval` (default
/// 250 ms → ≤ 4/s) and streamless shards park indefinitely at zero.
#[test]
fn idle_workers_park_until_their_next_freshness_point() {
    use twofd::net::{FleetMonitor, Heartbeat};
    use twofd::sim::Nanos;

    let interval = Span::from_secs(60);
    let monitor = FleetMonitor::spawn(DetectorConfig::new(
        DetectorSpec::TwoWindow { n1: 1, n2: 100 },
        interval,
        0.1,
    ))
    .expect("bind fleet monitor");
    let sock = std::net::UdpSocket::bind(("127.0.0.1", 0)).expect("bind test socket");
    sock.connect(monitor.local_addr()).expect("connect");
    for seq in 1..=2u64 {
        let hb = Heartbeat {
            stream: 9,
            seq,
            sent_at: Nanos(seq * interval.0),
            incarnation: 0,
        };
        sock.send(&hb.encode()).expect("send heartbeat");
    }
    assert!(
        wait_for(|| monitor.received() == 2, Duration::from_secs(2)),
        "heartbeats never arrived"
    );

    // Let the ingest-triggered passes settle, then measure a quiet
    // second via the sweep histogram's sample count.
    sleep(Duration::from_millis(300));
    let before = total_sweeps(&monitor);
    sleep(Duration::from_secs(1));
    let wakeups = total_sweeps(&monitor) - before;
    assert!(
        wakeups <= 12,
        "idle workers swept {wakeups} times in one second; \
         deadline parking should bound this by sweep_interval"
    );
}

/// Deadline-driven sweeping, latency side: the suspicion must be pushed
/// within one `sweep_interval` of the crashed stream's freshness point,
/// because the worker parks *until* that expiry rather than discovering
/// it on some later poll tick.
#[test]
fn crash_is_detected_within_a_sweep_interval_of_its_freshness_point() {
    use twofd::net::{FleetMonitor, ShardConfig};

    let interval = Span::from_millis(10);
    let margin = Span::from_millis(50);
    let config = ShardConfig {
        detector: DetectorConfig::new(
            DetectorSpec::TwoWindow { n1: 1, n2: 100 },
            interval,
            margin.as_secs_f64(),
        )
        .into(),
        ..ShardConfig::default()
    };
    let sweep_interval = config.sweep_interval;
    let monitor = FleetMonitor::spawn_with(config).expect("bind fleet monitor");
    let sender = HeartbeatSender::spawn(3, interval, monitor.local_addr()).expect("spawn sender");

    assert!(
        wait_for(
            || monitor.output(3) == Some(FdOutput::Trust),
            Duration::from_secs(3)
        ),
        "trust never established"
    );
    sender.crash();
    let crash_instant = Instant::now();
    let suspected = wait_for(
        || {
            monitor
                .events()
                .try_iter()
                .any(|e| e.key == 3 && e.output == FdOutput::Suspect)
        },
        Duration::from_secs(3),
    );
    let detection = crash_instant.elapsed();
    assert!(suspected, "sweeper never pushed the suspicion");
    // The freshness point is at most `interval + margin` (plus estimator
    // slack) past the last beat; parking wakes at that instant, bounded
    // by one `sweep_interval` re-validation, plus scheduling slack. The
    // seed's bound here was a full second.
    let bound =
        Duration::from_nanos(interval.0 + margin.0) + sweep_interval + Duration::from_millis(200);
    assert!(
        detection < bound,
        "suspicion took {detection:?}, bound {bound:?}"
    );
}

/// One plain-text HTTP/1.1 GET against a `MetricsServer`; the server
/// sends `Connection: close`, so reading to EOF yields the full reply.
fn http_get(addr: std::net::SocketAddr, path: &str) -> String {
    use std::io::{Read, Write};
    let mut stream = std::net::TcpStream::connect(addr).expect("connect metrics endpoint");
    write!(stream, "GET {path} HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    reply
}

/// Dead intake must show on `/healthz`. Dropping the only `SimSender`
/// makes the in-memory transport fail with `NotConnected` on its next
/// receive, at most one 20 ms idle timeout later. The 5 s bound is
/// generous on purpose: only a monitor that never notices the dead
/// intake fails it.
#[test]
fn healthz_turns_unhealthy_when_intake_dies() {
    use std::sync::Arc;
    use twofd::net::{sim_channel, FleetMonitor, MonotonicClock, ShardConfig};

    let (sender, transport) = sim_channel(16);
    let monitor = FleetMonitor::spawn_with_transport(
        ShardConfig::default(),
        transport,
        Arc::new(MonotonicClock::new()),
    )
    .expect("spawn fleet monitor");
    let server = monitor.serve_metrics().expect("bind metrics server");
    let addr = server.local_addr();
    let reply = http_get(addr, "/healthz");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    drop(sender);
    assert!(
        wait_for(
            || http_get(addr, "/healthz").starts_with("HTTP/1.1 503"),
            Duration::from_secs(5)
        ),
        "/healthz still healthy after the intake thread exited"
    );
}

#[test]
fn metrics_endpoint_scrapes_the_live_fleet() {
    use twofd::core::QosSpec;
    use twofd::net::{FleetMonitor, ObsOptions, ShardConfig};
    use twofd::obs::{QosPlan, QosTrackerConfig};

    let interval = Span::from_millis(10);
    // A contract loopback trivially meets: T_D ≤ 1 s, ≥ 60 s between
    // mistakes, mistakes shorter than 1 s — so `twofd_qos_met` must be 1.
    let contract = QosSpec::new(1.0, 60.0, 1.0);
    let monitor = FleetMonitor::spawn_with(ShardConfig {
        detector: DetectorConfig::new(DetectorSpec::TwoWindow { n1: 1, n2: 100 }, interval, 0.05)
            .into(),
        obs: ObsOptions {
            jitter: true,
            qos: Some(QosPlan::Uniform(QosTrackerConfig {
                spec: Some(contract),
                ..QosTrackerConfig::cumulative(interval)
            })),
        },
        ..ShardConfig::default()
    })
    .expect("bind fleet monitor");
    let sender = HeartbeatSender::spawn(42, interval, monitor.local_addr()).expect("spawn sender");
    assert!(
        wait_for(|| monitor.received() > 20, Duration::from_secs(5)),
        "heartbeats never arrived"
    );

    let server = monitor.serve_metrics().expect("bind metrics server");
    let addr = server.local_addr();

    let health = http_get(addr, "/healthz");
    assert!(health.starts_with("HTTP/1.1 200"), "{health}");
    assert!(health.ends_with("ok\n"), "{health}");

    let reply = http_get(addr, "/metrics");
    assert!(reply.starts_with("HTTP/1.1 200"), "{reply}");
    assert!(
        reply.contains("text/plain; version=0.0.4"),
        "wrong content type: {reply}"
    );
    let body = reply
        .split_once("\r\n\r\n")
        .map(|(_, b)| b)
        .expect("header/body split");
    // Monitor + shard counters, the sweep histogram, and the live QoS
    // series for the one sending stream — the acceptance checklist.
    for needle in [
        "# TYPE twofd_monitor_rejected_total counter",
        "twofd_shard_received_total{shard=\"",
        "# TYPE twofd_sweep_duration_seconds histogram",
        "twofd_sweep_duration_seconds_bucket{shard=\"0\",le=\"+Inf\"}",
        "twofd_interarrival_seconds_count{shard=\"",
        "twofd_qos_detection_time_seconds{stream=\"42\"}",
        "twofd_qos_query_accuracy{stream=\"42\"}",
        "twofd_qos_met{stream=\"42\"} 1",
    ] {
        assert!(body.contains(needle), "missing {needle:?} in:\n{body}");
    }
    // One producer, the ingest thread, pushes arrivals in order: the
    // sweep horizon's precondition holds on every shard.
    let out_of_order: Vec<f64> = body
        .lines()
        .filter_map(|l| l.strip_prefix("twofd_shard_out_of_order_total{"))
        .map(|l| l.rsplit(' ').next().unwrap().parse().unwrap())
        .collect();
    assert_eq!(out_of_order, [0.0; 4], "{body}");

    let missing = http_get(addr, "/nope");
    assert!(missing.starts_with("HTTP/1.1 404"), "{missing}");
    drop(sender);
}
