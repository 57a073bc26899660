//! Online QoS tracking against the offline replay pipeline.
//!
//! The `QosTracker` wired into the sharded runtime watches decisions and
//! transitions *as they stream past*; `twofd::core::replay` reconstructs
//! the same timeline after the fact with the whole trace in hand. Both
//! end in `QosMetrics::from_mistakes`, so on a deterministic clock the
//! online cumulative-window numbers must agree with the offline oracle
//! to floating-point noise — T_D, the mistake rate, T_M and P_A alike.
//! Any drift here means the live `/metrics` numbers are lying about what
//! a replay of the same trace would report.
//!
//! A sliding-window tracker ages its state out on every heartbeat, not
//! only when something scrapes it; the second test holds that to the
//! same oracle restricted to the last window, whether or not the
//! tracker was scraped along the way.
//!
//! The trackers live under the shard's one lock, next to the detectors
//! that feed them, so a caller-side `sweep_now` racing the worker cannot
//! hand a tracker a later transition before an earlier pass; the third
//! test runs such a sweeper flat out beside the feed and holds the
//! result to the same oracle.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use twofd::core::{replay, DetectorConfig, DetectorSpec, FailureDetector, Mistake, QosMetrics};
use twofd::net::{ManualClock, ObsOptions, ShardConfig, ShardRuntime, TimeSource};
use twofd::obs::{QosPlan, QosTrackerConfig};
use twofd::sim::{Nanos, Span};
use twofd::trace::{Trace, WanTraceConfig};

const SHORT_WINDOW: usize = 8;
const LONG_WINDOW: usize = 50;
// Tight margin so the WAN tail produces genuine mistakes, censored
// tails and re-trusts — the paths where online/offline could diverge.
const MARGIN: Span = Span(15_000_000);

fn detector_config(interval: Span) -> DetectorConfig {
    DetectorConfig::new(
        DetectorSpec::TwoWindow {
            n1: SHORT_WINDOW,
            n2: LONG_WINDOW,
        },
        interval,
        MARGIN.as_secs_f64(),
    )
}

/// Drives `trace` through a QoS-tracking shard runtime under the
/// determinism protocol and snapshots the online metrics at the trace
/// horizon — after scraping them every `scrape_every` arrivals on the
/// way there, if asked to, and with a second thread calling
/// `sweep_now()` in a loop for as long as the feed lasts, if asked to.
fn online_metrics(
    trace: &Trace,
    tracker: QosTrackerConfig,
    scrape_every: Option<usize>,
    concurrent_sweeper: bool,
) -> QosMetrics {
    let clock = Arc::new(ManualClock::new());
    let rt = ShardRuntime::new(
        ShardConfig {
            detector: detector_config(trace.interval).into(),
            n_shards: 2,
            queue_capacity: 4096,
            sweep_interval: Duration::from_millis(1),
            event_capacity: 1 << 16,
            obs: ObsOptions {
                jitter: false,
                qos: Some(QosPlan::Uniform(tracker)),
            },
        },
        clock.clone() as Arc<dyn TimeSource>,
    );

    let feeding = AtomicBool::new(true);
    std::thread::scope(|scope| {
        if concurrent_sweeper {
            let (started_tx, started_rx) = mpsc::channel();
            let (rt, feeding) = (&rt, &feeding);
            scope.spawn(move || {
                started_tx.send(()).expect("feeder is waiting");
                while feeding.load(Ordering::SeqCst) {
                    rt.sweep_now();
                }
            });
            started_rx.recv().expect("sweeper started");
        }
        for (i, a) in trace.arrivals().into_iter().enumerate() {
            clock.advance_to(a.at);
            rt.ingest_batch(&[(9, a.seq, a.at, 0)]);
            if scrape_every.is_some_and(|every| i % every == every - 1) {
                rt.flush();
                rt.qos_metrics(9).expect("stream 9 is tracked");
            }
        }
        rt.flush();
        feeding.store(false, Ordering::SeqCst);
    });
    clock.advance_to(trace.end_time());
    rt.qos_metrics(9).expect("stream 9 is tracked")
}

/// The offline pipeline's numbers for the last `window` of `trace`: the
/// replay's mistakes clipped to `[horizon − window, horizon]` and the
/// detection-time samples of the heartbeats that arrived inside it.
fn offline_window_metrics(trace: &Trace, window: Span) -> QosMetrics {
    let whole = replay(&mut detector_config(trace.interval).build(), trace);
    let end = whole.horizon;
    let start = whole
        .first_arrival
        .max(Nanos(end.0.saturating_sub(window.0)));
    let mistakes: Vec<Mistake> = whole
        .mistakes
        .iter()
        .map(|m| Mistake {
            start: m.start.max(start),
            end: m.end.min(end),
            ..*m
        })
        .filter(|m| m.start < m.end)
        .collect();
    let mut fd = detector_config(trace.interval).build();
    let (mut fresh, mut sum_worst_td) = (0u64, 0.0f64);
    for a in trace.arrivals() {
        match fd.on_heartbeat(a.seq, a.at) {
            Some(d) if a.at >= start => {
                fresh += 1;
                sum_worst_td += d.trust_until.saturating_since(a.send).as_secs_f64();
            }
            _ => {}
        }
    }
    QosMetrics::from_mistakes(
        &mistakes,
        end.saturating_since(start),
        sum_worst_td,
        fresh,
        trace.interval,
    )
}

fn assert_close(axis: &str, online: f64, offline: f64, seed: u64) {
    let tol = 1e-9 * offline.abs().max(1.0);
    assert!(
        (online - offline).abs() <= tol,
        "seed {seed}: online {axis} = {online} vs offline {offline}"
    );
}

#[test]
fn online_tracker_matches_offline_replay_metrics() {
    let mut saw_mistakes = false;
    for seed in [3u64, 17, 40, 71, 104] {
        let trace = WanTraceConfig::small(400, seed).generate();

        let mut fd = detector_config(trace.interval).build();
        let offline = replay(&mut fd, &trace).metrics();
        saw_mistakes |= offline.mistakes > 0;

        let online = online_metrics(
            &trace,
            QosTrackerConfig::cumulative(trace.interval),
            None,
            false,
        );

        assert_eq!(
            online.mistakes, offline.mistakes,
            "seed {seed}: mistake counts diverged"
        );
        assert_close("T_D", online.detection_time, offline.detection_time, seed);
        assert_close("λ_M", online.mistake_rate, offline.mistake_rate, seed);
        assert_close(
            "T_M",
            online.avg_mistake_duration,
            offline.avg_mistake_duration,
            seed,
        );
        assert_close("P_A", online.query_accuracy, offline.query_accuracy, seed);
    }
    assert!(
        saw_mistakes,
        "no seed produced a mistake; the differential never exercised the mistake paths"
    );
}

#[test]
fn sliding_window_tracker_matches_the_offline_window_scraped_or_not() {
    let mut saw_mistakes = false;
    for seed in [3u64, 17, 40, 71, 104] {
        let trace = WanTraceConfig::small(400, seed).generate();
        // A quarter of the trace: most of what the tracker saw has to
        // have aged out by the horizon.
        let window = Span(100 * trace.interval.0);
        let tracker = QosTrackerConfig {
            window,
            ..QosTrackerConfig::cumulative(trace.interval)
        };

        let offline = offline_window_metrics(&trace, window);
        saw_mistakes |= offline.mistakes > 0;

        let unscraped = online_metrics(&trace, tracker, None, false);
        let scraped = online_metrics(&trace, tracker, Some(7), false);
        assert_eq!(
            scraped, unscraped,
            "seed {seed}: scraping along the way changed the final window"
        );

        assert_eq!(
            unscraped.mistakes, offline.mistakes,
            "seed {seed}: mistake counts diverged"
        );
        assert_close(
            "T_D",
            unscraped.detection_time,
            offline.detection_time,
            seed,
        );
        assert_close("λ_M", unscraped.mistake_rate, offline.mistake_rate, seed);
        assert_close(
            "T_M",
            unscraped.avg_mistake_duration,
            offline.avg_mistake_duration,
            seed,
        );
        assert_close(
            "P_A",
            unscraped.query_accuracy,
            offline.query_accuracy,
            seed,
        );
        assert_close("span", unscraped.observed_secs, offline.observed_secs, seed);
    }
    assert!(
        saw_mistakes,
        "no seed had a mistake in its last window; the clipping paths never ran"
    );
}

/// A caller-side sweeper racing the worker publishes some of the
/// suspicions the worker (or the next heartbeat) would have; whoever
/// publishes a transition also feeds it to the tracker under the same
/// lock hold, so the tracker sees each stream's transitions in timeline
/// order and the online numbers do not move.
#[test]
fn concurrent_sweep_now_leaves_the_online_metrics_on_the_oracle() {
    let mut saw_mistakes = false;
    for seed in [3u64, 17, 40, 71, 104] {
        let trace = WanTraceConfig::small(400, seed).generate();
        let offline = replay(&mut detector_config(trace.interval).build(), &trace).metrics();
        saw_mistakes |= offline.mistakes > 0;

        let online = online_metrics(
            &trace,
            QosTrackerConfig::cumulative(trace.interval),
            None,
            true,
        );

        assert_eq!(
            online.mistakes, offline.mistakes,
            "seed {seed}: mistake counts diverged"
        );
        assert_close("T_D", online.detection_time, offline.detection_time, seed);
        assert_close("λ_M", online.mistake_rate, offline.mistake_rate, seed);
        assert_close(
            "T_M",
            online.avg_mistake_duration,
            offline.avg_mistake_duration,
            seed,
        );
        assert_close("P_A", online.query_accuracy, offline.query_accuracy, seed);
    }
    assert!(
        saw_mistakes,
        "no seed produced a mistake; the sweeper had nothing to race for"
    );
}
