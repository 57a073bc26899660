//! Counter reconciliation under forced overload.
//!
//! The shard runtime's accounting identity — every received heartbeat is
//! either applied or dropped, per shard — must hold exactly even while
//! queues are shedding, and the bounded event channel must count what it
//! sheds rather than block or lie. These are the invariants the
//! `/metrics` endpoint's operators reason from, so they get their own
//! regression test at the most hostile settings we can force.

use std::sync::Arc;
use std::time::{Duration, Instant};
use twofd::core::{DetectorConfig, DetectorSpec, FdOutput};
use twofd::net::{Job, ManualClock, ShardConfig, ShardRuntime, TimeSource};
use twofd::sim::{Nanos, Span};

const INTERVAL: Span = Span(10_000_000); // 10 ms

fn config() -> DetectorConfig {
    DetectorConfig::new(DetectorSpec::TwoWindow { n1: 1, n2: 100 }, INTERVAL, 0.04)
}

#[test]
fn overloaded_shards_reconcile_received_as_applied_plus_dropped() {
    // Tiny queues, several shards, a stalled clock (sweeps can't retire
    // anything "late") and far more ingest than capacity: a guaranteed
    // mix of applied and dropped on every shard.
    let clock = Arc::new(ManualClock::new());
    let rt = ShardRuntime::new(
        ShardConfig {
            detector: config().into(),
            n_shards: 4,
            queue_capacity: 16,
            sweep_interval: Duration::from_millis(50),
            event_capacity: 1 << 12,
            ..ShardConfig::default()
        },
        clock.clone() as Arc<dyn TimeSource>,
    );

    let start = Instant::now();
    for seq in 1..=80_000u64 {
        rt.ingest_batch(&[(seq % 128, seq, Nanos(seq), 0)]);
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "overloaded ingest must never block"
    );
    rt.flush();

    let stats = rt.stats();
    assert_eq!(stats.received(), 80_000);
    assert!(stats.dropped() > 0, "overload never shed: {stats:?}");
    assert!(stats.applied() > 0, "nothing was applied: {stats:?}");
    // The identity, globally and per shard: nothing lost, nothing
    // double-counted, even though shedding raced the workers.
    assert_eq!(stats.received(), stats.applied() + stats.dropped());
    for (i, shard) in stats.shards.iter().enumerate() {
        assert_eq!(
            shard.received,
            shard.applied + shard.dropped,
            "shard {i} leaked heartbeats: {shard:?}"
        );
    }

    // The registry mirrors the same reconciliation (same cells, not
    // copies): sum the rendered per-shard counters back together.
    let text = rt.registry().render();
    let sum = |name: &str| -> u64 {
        text.lines()
            .filter(|l| l.starts_with(&format!("{name}{{")))
            .map(|l| {
                l.rsplit(' ')
                    .next()
                    .unwrap()
                    .parse::<f64>()
                    .expect("counter value")
            })
            .sum::<f64>() as u64
    };
    assert_eq!(sum("twofd_shard_received_total"), stats.received());
    assert_eq!(sum("twofd_shard_applied_total"), stats.applied());
    assert_eq!(sum("twofd_shard_dropped_total"), stats.dropped());
}

/// The same identity under the batched handoff: `ingest_batch` amortizes
/// queue locking and eviction across a group, so its drop-oldest
/// accounting runs in bulk — `received == applied + dropped` must still
/// balance to the heartbeat on every shard while batches slam saturated
/// queues.
#[test]
fn batched_overload_reconciles_received_as_applied_plus_dropped() {
    let clock = Arc::new(ManualClock::new());
    let rt = ShardRuntime::new(
        ShardConfig {
            detector: config().into(),
            n_shards: 4,
            queue_capacity: 16,
            sweep_interval: Duration::from_millis(50),
            event_capacity: 1 << 12,
            ..ShardConfig::default()
        },
        clock.clone() as Arc<dyn TimeSource>,
    );

    // 80k heartbeats in batches bigger than any queue (320 jobs → ~80
    // per shard against 16-slot queues): every batch must evict in bulk,
    // never block, and never lose a count.
    let start = Instant::now();
    let mut batch: Vec<Job> = Vec::with_capacity(320);
    let mut seq = 0u64;
    while seq < 80_000 {
        batch.clear();
        for _ in 0..320 {
            seq += 1;
            batch.push((seq % 128, seq, Nanos(seq), 0));
        }
        rt.ingest_batch(&batch);
    }
    assert!(
        start.elapsed() < Duration::from_secs(10),
        "overloaded batched ingest must never block"
    );
    rt.flush();

    let stats = rt.stats();
    assert_eq!(stats.received(), 80_000);
    assert!(stats.dropped() > 0, "overload never shed: {stats:?}");
    assert!(stats.applied() > 0, "nothing was applied: {stats:?}");
    assert_eq!(stats.received(), stats.applied() + stats.dropped());
    for (i, shard) in stats.shards.iter().enumerate() {
        assert_eq!(
            shard.received,
            shard.applied + shard.dropped,
            "shard {i} leaked heartbeats in the batched path: {shard:?}"
        );
        assert!(shard.queue_depth <= 16, "shard {i} overfilled: {shard:?}");
    }

    // The rendered registry reconciles to the same totals.
    let text = rt.registry().render();
    let sum = |name: &str| -> u64 {
        text.lines()
            .filter(|l| l.starts_with(&format!("{name}{{")))
            .map(|l| {
                l.rsplit(' ')
                    .next()
                    .unwrap()
                    .parse::<f64>()
                    .expect("counter value")
            })
            .sum::<f64>() as u64
    };
    assert_eq!(sum("twofd_shard_received_total"), stats.received());
    assert_eq!(
        sum("twofd_shard_applied_total") + sum("twofd_shard_dropped_total"),
        stats.received()
    );
}

#[test]
fn overflowed_event_channel_counts_its_losses() {
    // One worker, a 4-slot event channel and nobody draining it: beyond
    // the first 4 transitions every publish must shed *and count*.
    let clock = Arc::new(ManualClock::new());
    let rt = ShardRuntime::new(
        ShardConfig {
            detector: config().into(),
            n_shards: 1,
            queue_capacity: 4096,
            sweep_interval: Duration::from_millis(1),
            event_capacity: 4,
            ..ShardConfig::default()
        },
        clock.clone() as Arc<dyn TimeSource>,
    );

    // 64 streams each establish trust with two on-time heartbeats: at
    // least 64 T-transitions compete for 4 event slots.
    for seq in 1..=2u64 {
        for stream in 0..64u64 {
            let at = Nanos(seq * INTERVAL.0 + stream);
            clock.advance_to(at);
            rt.ingest_batch(&[(stream, seq, at, 0)]);
        }
        rt.flush();
    }

    let stats = rt.stats();
    assert_eq!(stats.dropped(), 0, "heartbeat queues were not the subject");
    assert!(
        stats.events_dropped >= 60,
        "expected the event channel to shed: {stats:?}"
    );
    assert_eq!(stats.events_dropped, rt.events_dropped());
    // And the loss is visible where operators will look for it.
    let text = rt.registry().render();
    let line = text
        .lines()
        .find(|l| l.starts_with("twofd_events_dropped_total "))
        .expect("events_dropped series rendered");
    let rendered: f64 = line.rsplit(' ').next().unwrap().parse().unwrap();
    assert_eq!(rendered as u64, stats.events_dropped);
}

/// A heartbeat with an absurd sequence number — 2^40, 2^63, `u64::MAX` —
/// is one more applied heartbeat. The 2W-FD's arithmetic is total: the
/// worker neither panics (debug) nor wraps the freshness point into the
/// past (release), and `received == applied + dropped` still balances.
/// The honest beat that follows is stale, as it is for any larger `seq`.
#[test]
fn huge_sequence_numbers_are_applied_and_counted() {
    let clock = Arc::new(ManualClock::new());
    let rt = ShardRuntime::new(
        ShardConfig {
            detector: DetectorConfig::new(
                DetectorSpec::TwoWindow { n1: 1, n2: 1000 },
                INTERVAL,
                0.04,
            )
            .into(),
            n_shards: 2,
            ..ShardConfig::default()
        },
        clock.clone() as Arc<dyn TimeSource>,
    );
    let huge = [1u64 << 40, 1 << 63, u64::MAX];
    let mut jobs: Vec<Job> = Vec::new();
    for (stream, &seq) in (0u64..).zip(&huge) {
        jobs.push((stream, 1, Nanos(INTERVAL.0 + 1_000_000), 0));
        jobs.push((stream, seq, Nanos(2 * INTERVAL.0 + 1_000_000), 0));
        jobs.push((stream, 2, Nanos(3 * INTERVAL.0), 0));
    }
    clock.advance_to(Nanos(3 * INTERVAL.0));
    rt.ingest_batch(&jobs);

    // Not `flush`: a worker that died on the beat would never catch up.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let s = rt.stats();
        if s.applied() + s.dropped() == s.received() {
            break;
        }
        assert!(Instant::now() < deadline, "a worker stopped: {s:?}");
        std::thread::sleep(Duration::from_millis(1));
    }
    let stats = rt.stats();
    assert_eq!(stats.received(), 9);
    assert_eq!(stats.received(), stats.applied() + stats.dropped());
    for shard in &stats.shards {
        assert_eq!(shard.received, shard.applied + shard.dropped, "{shard:?}");
    }
    for stream in 0..3 {
        // The projection saturates at the far future instead of
        // wrapping to a freshness point before the beat's own arrival.
        assert_eq!(rt.output(stream), Some(FdOutput::Trust), "stream {stream}");
    }
}
