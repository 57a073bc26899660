//! Live observability: a fleet monitor with a Prometheus endpoint.
//!
//! Three heartbeat senders target one [`FleetMonitor`] configured with
//! the full instrumentation: per-shard counters and sweep-latency
//! histograms (always on), inter-arrival jitter histograms, and an
//! online [`QosTracker`](twofd::obs::QosTracker) per stream judging the
//! live T_D / T_MR / T_M estimates against a contracted
//! [`QosSpec`](twofd::core::QosSpec). The monitor's registry is served
//! over HTTP; while the example runs you can scrape it yourself:
//!
//! ```text
//! curl http://127.0.0.1:<port>/metrics
//! curl http://127.0.0.1:<port>/healthz
//! ```
//!
//! The example then crashes one sender and shows the QoS verdict of the
//! crashed stream flip: the silence becomes a (censored) suspicion
//! period that blows through the contract's mistake-recurrence bound.
//!
//! The trackers here are cumulative (`QosTrackerConfig::cumulative`):
//! each keeps running totals in its 240 inline bytes, whatever the run's
//! length. A sliding window (`window: Span::from_secs(60)`, say) adds a
//! 1 056-byte ring of 64 buckets of `⌈window / 64⌉`, and rounds its
//! window's start down to a bucket boundary. Either way the estimates
//! come out of `QosMetrics::from_totals`, the formula the offline replay
//! uses.
//!
//! Run: `cargo run --release --example observability`

use std::io::{Read, Write};
use std::net::TcpStream;
use std::thread::sleep;
use std::time::Duration;
use twofd::core::{DetectorConfig, DetectorSpec, QosSpec};
use twofd::net::{FleetMonitor, HeartbeatSender, ObsOptions, ShardConfig};
use twofd::obs::{QosPlan, QosTrackerConfig};
use twofd::sim::Span;

fn main() {
    let interval = Span::from_millis(20);
    // The contract each stream is judged against, online: detect crashes
    // within 250 ms, at most one mistake per 10 s, mistakes shorter than
    // 1 s. A healthy loopback stream meets it; a crashed stream cannot.
    let contract = QosSpec::new(0.25, 10.0, 1.0);

    let monitor = FleetMonitor::spawn_with(ShardConfig {
        detector: DetectorConfig::new(DetectorSpec::TwoWindow { n1: 1, n2: 200 }, interval, 0.06)
            .into(),
        obs: ObsOptions {
            jitter: true,
            qos: Some(QosPlan::Uniform(QosTrackerConfig {
                spec: Some(contract),
                // Judge over the last 30 s so old mistakes age out.
                window: Span::from_secs(30),
                ..QosTrackerConfig::cumulative(interval)
            })),
        },
        ..ShardConfig::default()
    })
    .expect("bind fleet monitor");

    let server = monitor.serve_metrics().expect("bind metrics endpoint");
    println!("fleet monitor on {}", monitor.local_addr());
    println!("metrics at http://{}/metrics\n", server.local_addr());

    let senders: Vec<HeartbeatSender> = (1..=3)
        .map(|stream| {
            HeartbeatSender::spawn(stream, interval, monitor.local_addr()).expect("spawn sender")
        })
        .collect();

    sleep(Duration::from_millis(800));
    println!("--- steady state ---");
    print_verdicts(&monitor);

    println!("\n>>> crashing stream 2");
    senders[1].crash();
    sleep(Duration::from_millis(900));
    println!("--- after the crash ---");
    print_verdicts(&monitor);

    // Scrape our own endpoint, exactly as Prometheus would.
    let body = scrape(&format!("{}", server.local_addr()));
    println!("\n--- /metrics excerpt ---");
    for line in body.lines().filter(|l| {
        l.starts_with("twofd_qos_met")
            || l.starts_with("twofd_qos_detection_time_seconds")
            || l.starts_with("twofd_shard_received_total")
            || l.starts_with("twofd_sweep_duration_seconds_count")
    }) {
        println!("  {line}");
    }

    // The crashed stream's open suspicion is a censored mistake: its
    // rate blows the recurrence bound and its accuracy collapses —
    // guaranteed. Healthy streams are compared *relatively*: on a loaded
    // single-core host a scheduling stall can suspect a healthy stream
    // for a few hundred ms too, but nothing short of an actual crash can
    // rival the crashed stream's ever-growing suspicion tail.
    let accuracy = |stream: u64| monitor.qos_metrics(stream).expect("tracked").query_accuracy;
    let crashed = monitor.qos_verdict(2).expect("tracked");
    assert!(!crashed.met, "the crashed stream must violate the contract");
    assert!(accuracy(2) < 0.9, "the crashed stream must lose accuracy");
    assert!(
        accuracy(2) + 0.2 < accuracy(1).min(accuracy(3)),
        "healthy streams must stay far more accurate than the crashed one"
    );
    println!("\nonline QoS verdicts correct ✓");
}

fn print_verdicts(monitor: &FleetMonitor) {
    for stream in 1..=3u64 {
        let m = monitor.qos_metrics(stream).expect("stream tracked");
        let v = monitor.qos_verdict(stream).expect("stream tracked");
        println!(
            "  stream {stream}: T_D {:.3}s, {} mistakes, P_A {:.4} -> {}",
            m.detection_time,
            m.mistakes,
            m.query_accuracy,
            if v.met {
                "meets contract".to_string()
            } else {
                format!("VIOLATES {:?}", v.violated_axes)
            }
        );
    }
}

/// A one-shot `GET /metrics`, the way any scraper reaches the endpoint.
fn scrape(addr: &str) -> String {
    let mut stream = TcpStream::connect(addr).expect("connect metrics endpoint");
    write!(stream, "GET /metrics HTTP/1.1\r\nHost: localhost\r\n\r\n").expect("send request");
    let mut reply = String::new();
    stream.read_to_string(&mut reply).expect("read reply");
    reply
        .split_once("\r\n\r\n")
        .map(|(_, body)| body.to_string())
        .unwrap_or(reply)
}
