//! The QoS-tracker part of a scrape's lock hold.
//!
//! With QoS tracking on, the runtime's scrape hook holds each shard's
//! lock while it runs `metrics_at` and `judge` for every tracked stream
//! and publishes the result. This bench times the first two on one
//! `ShardCore` shaped like one of the spine's `core_obs` shards: 5 000
//! streams, the paper's default 2W-FD, and a 60 s sliding tracker whose
//! window is full (700 heartbeats a stream at Δi = 100 ms). Gauge
//! publishing is left out; the spine's `obs.render_ms` times the whole
//! scrape.
//!
//! Run: `cargo bench -p twofd-bench --bench qos_scrape`

use std::time::Instant;
use twofd_core::{DetectorConfig, DetectorSpec, QosSpec};
use twofd_net::{Job, ShardCore};
use twofd_obs::qos::judge;
use twofd_obs::{QosOrigin, QosPlan, QosTrackerConfig};
use twofd_sim::time::{Nanos, Span};

const STREAMS: u64 = 5_000;
const BEATS: u64 = 700;
const DI: u64 = 100_000_000;
const REPS: usize = 7;

fn main() {
    let spec = QosSpec::new(1.0, 10.0, 1.0);
    let mut core = ShardCore::new(
        DetectorConfig::new(DetectorSpec::default(), Span(DI), 0.04).into(),
        Some(QosPlan::Uniform(QosTrackerConfig {
            spec: Some(spec),
            interval: Span(DI),
            window: Span::from_secs(60),
            origin: QosOrigin::Nominal,
        })),
    );
    // One pass per round of heartbeats, staggered and jittered by a few
    // ms, in arrival order.
    let (mut inbox, mut events): (Vec<Job>, _) = (Vec::new(), Vec::new());
    let mut now = Nanos::ZERO;
    for seq in 1..=BEATS {
        for s in 0..STREAMS {
            let jitter = (s * 7_919 + seq * 104_729) % 3_000_000;
            inbox.push((s, seq, Nanos(seq * DI + s * (DI / STREAMS) + jitter), 0));
        }
        inbox.sort_by_key(|&(_, _, at, _)| at);
        now = inbox.last().map_or(now, |&(_, _, at, _)| at);
        core.pass(now, false, &mut inbox, &mut events);
        events.clear();
    }

    let mut ms = Vec::with_capacity(REPS);
    for rep in 0..REPS as u64 {
        let at = Nanos(now.0 + rep * 1_000_000);
        let started = Instant::now();
        let mut violated = 0;
        for s in 0..STREAMS {
            let metrics = core.qos_metrics(s, at).expect("every stream is tracked");
            violated += judge(&spec, &metrics).violated_axes.len();
        }
        ms.push(started.elapsed().as_secs_f64() * 1e3);
        std::hint::black_box(violated);
    }
    ms.sort_by(f64::total_cmp);
    println!(
        "qos_scrape: {STREAMS} streams, metrics_at + judge per scrape: \
         median {:.3} ms (min {:.3}, max {:.3}, {REPS} scrapes)",
        ms[REPS / 2],
        ms[0],
        ms[REPS - 1]
    );
}
