//! The sharded runtime against the sequential replay oracle.
//!
//! Because the runtime stamps transitions with their *exact* instants
//! (S at `trust_until`, T at the restoring arrival — see
//! `twofd_core::multi`), the per-stream event timeline is a pure
//! function of the heartbeat schedule: worker scheduling, sweep timing
//! and batching must not be observable. These tests drive a
//! [`ShardRuntime`] on a [`ManualClock`] through deterministic delivery
//! schedules and demand event-for-event equality with
//! [`twofd::core::replay`], plus a live-UDP crash test where the
//! sweeper (never a query) reports the suspicion.

use std::collections::BTreeMap;
use std::sync::Arc;
use std::thread::sleep;
use std::time::{Duration, Instant};
use twofd::core::{
    replay, DetectorConfig, DetectorSpec, FdOutput, Timeline, TransitionKind, TwoWindowFd,
};
use twofd::net::{
    FleetMonitor, HeartbeatSender, Job, ManualClock, ShardConfig, ShardRuntime, TimeSource,
};
use twofd::sim::{Nanos, Span};
use twofd::trace::{Trace, WanTraceConfig};

const SHORT_WINDOW: usize = 8;
const LONG_WINDOW: usize = 50;
const MARGIN: Span = Span(15_000_000); // 15 ms — tight enough to make mistakes

fn detector(interval: Span) -> TwoWindowFd {
    TwoWindowFd::new(SHORT_WINDOW, LONG_WINDOW, interval, MARGIN)
}

/// The same recipe through the spec path the runtime uses; the oracle
/// and the runtime must build identical detectors.
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

/// The events the runtime must publish for one stream: a T at the first
/// fresh arrival if the detector starts out trusting, then exactly the
/// replay timeline's transitions (every S at its mistake start, every T
/// at its restoring arrival; a censored tail keeps its S).
fn expected_events(trace: &Trace) -> Vec<(FdOutput, Nanos)> {
    let mut fd = detector(trace.interval);
    let result = replay(&mut fd, trace);
    let tl = Timeline::from_replay(&result);
    let mut expected = Vec::new();
    if tl.output_at(result.first_arrival) == FdOutput::Trust {
        expected.push((FdOutput::Trust, result.first_arrival));
    }
    expected.extend(tl.transitions().iter().map(|t| (t.to, t.at)));
    expected
}

#[test]
fn sharded_runtime_matches_sequential_replay_event_for_event() {
    for seed in [3u64, 17, 40] {
        let n_streams = 6u64;
        let traces: BTreeMap<u64, Trace> = (0..n_streams)
            .map(|s| (s, WanTraceConfig::small(300, seed * 100 + s).generate()))
            .collect();
        assert_runtime_matches_oracle(&traces, &format!("seed {seed}"));
    }
}

/// A stream whose arrivals step 5 s forward mid-run: every window that
/// spans the step holds values more than 2^32 ns apart, so both of its
/// windows widen to `i64` storage while the worker applies it. Its
/// timeline, and its neighbours', still equal the replay oracle's.
#[test]
fn a_stream_whose_windows_widen_mid_run_matches_the_replay_oracle() {
    let mut traces: BTreeMap<u64, Trace> = (0..4u64)
        .map(|s| (s, WanTraceConfig::small(300, 2_900 + s).generate()))
        .collect();
    let stepped = traces.get_mut(&2).unwrap();
    for record in &mut stepped.records[150..] {
        record.arrival = record.arrival.map(|at| at + Span::from_secs(5));
    }
    assert_runtime_matches_oracle(&traces, "5 s step on stream 2");
}

/// Feeds every stream's arrivals to a three-shard runtime in one global
/// arrival order, one job per call, and demands each stream's published
/// timeline equal its replay oracle's up to the stream's own horizon.
fn assert_runtime_matches_oracle(traces: &BTreeMap<u64, Trace>, what: &str) {
    let interval = traces[&0].interval;

    // Merge every stream's deliveries into one global arrival order.
    let mut schedule: Vec<(Nanos, u64, u64)> = traces
        .iter()
        .flat_map(|(&stream, trace)| {
            trace
                .arrivals()
                .into_iter()
                .map(move |a| (a.at, stream, a.seq))
        })
        .collect();
    schedule.sort_unstable();
    let global_horizon = traces.values().map(Trace::end_time).max().unwrap();

    let clock = Arc::new(ManualClock::new());
    let rt = ShardRuntime::new(
        ShardConfig {
            detector: detector_config(interval).into(),
            n_shards: 3,
            queue_capacity: 4096,
            sweep_interval: Duration::from_millis(1),
            event_capacity: 1 << 16,
            ..ShardConfig::default()
        },
        clock.clone() as Arc<dyn TimeSource>,
    );

    // The determinism protocol: the clock reaches an arrival instant
    // only after every earlier heartbeat is already enqueued, so no
    // sweep can expire a horizon a pending heartbeat extends.
    for &(at, stream, seq) in &schedule {
        clock.advance_to(at);
        rt.ingest_batch(&[(stream, seq, at, 0)]);
    }
    rt.flush();
    clock.advance_to(global_horizon);

    let expected: BTreeMap<u64, Vec<(FdOutput, Nanos)>> = traces
        .iter()
        .map(|(&s, t)| (s, expected_events(t)))
        .collect();
    // Replay only observes a stream up to its own trace horizon; the
    // runtime keeps sweeping until the latest one. Events stamped at
    // or past a stream's horizon are outside the oracle's window.
    let expected_total: usize = expected.values().map(Vec::len).sum();

    let mut actual: BTreeMap<u64, Vec<(FdOutput, Nanos)>> = BTreeMap::new();
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut seen = 0usize;
    while seen < expected_total && Instant::now() < deadline {
        for ev in rt.events().try_iter() {
            if ev.at < traces[&ev.key].end_time() {
                seen += 1;
            }
            actual.entry(ev.key).or_default().push((ev.output, ev.at));
        }
        sleep(Duration::from_millis(1));
    }
    // Grace pass: catch any extra events the runtime wrongly emits.
    sleep(Duration::from_millis(20));
    for ev in rt.events().try_iter() {
        actual.entry(ev.key).or_default().push((ev.output, ev.at));
    }
    assert_eq!(rt.events_dropped(), 0);

    for (stream, trace) in traces {
        let horizon = trace.end_time();
        let got: Vec<_> = actual
            .remove(stream)
            .unwrap_or_default()
            .into_iter()
            .filter(|&(_, at)| at < horizon)
            .collect();
        assert_eq!(
            got, expected[stream],
            "{what}: stream {stream} diverged from the replay oracle"
        );
    }
}

/// Batched ingest must be *invisible*: feeding the same schedule through
/// `ingest_batch` in arbitrary batch sizes has to yield the exact event
/// timeline of one job per call — which in turn is the replay
/// oracle's. One delivery schedule, two runtimes, event-for-event
/// equality plus identical accounting.
#[test]
fn batched_ingest_matches_per_heartbeat_ingest_event_for_event() {
    for seed in [5u64, 23] {
        let n_streams = 6u64;
        let traces: BTreeMap<u64, Trace> = (0..n_streams)
            .map(|s| (s, WanTraceConfig::small(300, seed * 100 + s).generate()))
            .collect();
        let interval = traces[&0].interval;

        let mut schedule: Vec<(Nanos, u64, u64)> = traces
            .iter()
            .flat_map(|(&stream, trace)| {
                trace
                    .arrivals()
                    .into_iter()
                    .map(move |a| (a.at, stream, a.seq))
            })
            .collect();
        schedule.sort_unstable();
        let global_horizon = traces.values().map(Trace::end_time).max().unwrap();

        let spawn = |clock: Arc<ManualClock>| {
            ShardRuntime::new(
                ShardConfig {
                    detector: detector_config(interval).into(),
                    n_shards: 3,
                    queue_capacity: 4096,
                    sweep_interval: Duration::from_millis(1),
                    event_capacity: 1 << 16,
                    ..ShardConfig::default()
                },
                clock as Arc<dyn TimeSource>,
            )
        };

        // One-job-per-call reference: the seed determinism protocol.
        let clock_a = Arc::new(ManualClock::new());
        let rt_a = spawn(clock_a.clone());
        for &(at, stream, seq) in &schedule {
            clock_a.advance_to(at);
            rt_a.ingest_batch(&[(stream, seq, at, 0)]);
        }
        rt_a.flush();
        clock_a.advance_to(global_horizon);

        // Batched: the same schedule cut into deliberately awkward batch
        // sizes (1, odd, exactly the grouping chunk, larger than it).
        // Enqueue the whole batch *before* advancing the clock to its
        // last arrival: every heartbeat is in its queue before any sweep
        // can reach its instant, the same invariant the per-heartbeat
        // protocol maintains.
        let clock_b = Arc::new(ManualClock::new());
        let rt_b = spawn(clock_b.clone());
        let sizes = [1usize, 3, 7, 64, 129, 16];
        let mut cursor = 0usize;
        let mut size_ix = 0usize;
        while cursor < schedule.len() {
            let len = sizes[size_ix % sizes.len()].min(schedule.len() - cursor);
            size_ix += 1;
            let batch: Vec<Job> = schedule[cursor..cursor + len]
                .iter()
                .map(|&(at, stream, seq)| (stream, seq, at, 0))
                .collect();
            cursor += len;
            rt_b.ingest_batch(&batch);
            clock_b.advance_to(batch.last().unwrap().2);
        }
        rt_b.flush();
        clock_b.advance_to(global_horizon);

        let collect = |rt: &ShardRuntime| -> BTreeMap<u64, Vec<(FdOutput, Nanos)>> {
            // Workers may still be retiring final sweeps; drain until
            // the stream is quiet for a couple of passes.
            let mut out: BTreeMap<u64, Vec<(FdOutput, Nanos)>> = BTreeMap::new();
            let deadline = Instant::now() + Duration::from_secs(10);
            let mut quiet = 0;
            while quiet < 3 && Instant::now() < deadline {
                let mut got_any = false;
                for ev in rt.events().try_iter() {
                    out.entry(ev.key).or_default().push((ev.output, ev.at));
                    got_any = true;
                }
                quiet = if got_any { 0 } else { quiet + 1 };
                sleep(Duration::from_millis(5));
            }
            out
        };
        let events_a = collect(&rt_a);
        let events_b = collect(&rt_b);
        assert_eq!(rt_a.events_dropped(), 0);
        assert_eq!(rt_b.events_dropped(), 0);

        for (stream, trace) in &traces {
            let horizon = trace.end_time();
            let windowed = |m: &BTreeMap<u64, Vec<(FdOutput, Nanos)>>| -> Vec<(FdOutput, Nanos)> {
                m.get(stream)
                    .cloned()
                    .unwrap_or_default()
                    .into_iter()
                    .filter(|&(_, at)| at < horizon)
                    .collect()
            };
            let got_a = windowed(&events_a);
            let got_b = windowed(&events_b);
            let oracle = expected_events(trace);
            assert_eq!(
                got_b, got_a,
                "seed {seed} stream {stream}: batched diverged from per-heartbeat"
            );
            assert_eq!(
                got_b, oracle,
                "seed {seed} stream {stream}: batched diverged from the replay oracle"
            );
        }

        // Identical accounting: same arrivals, nothing shed on either
        // path, and the identity holds on both.
        let (sa, sb) = (rt_a.stats(), rt_b.stats());
        assert_eq!(sa.received(), schedule.len() as u64);
        assert_eq!(sb.received(), sa.received());
        assert_eq!(sa.dropped(), 0);
        assert_eq!(sb.dropped(), 0);
        assert_eq!(sa.received(), sa.applied() + sa.dropped());
        assert_eq!(sb.received(), sb.applied() + sb.dropped());
        for (i, (a, b)) in sa.shards.iter().zip(sb.shards.iter()).enumerate() {
            assert_eq!(
                a.received, b.received,
                "shard {i} received different loads on the two paths"
            );
        }
    }
}

/// A worker pass applies everything it dequeued back to back under one
/// lock hold, so one pass can carry many heartbeats of the *same*
/// stream. That must be invisible too: a single `ingest_batch` holding a
/// stream's whole history — in-order beats, a duplicated (stale)
/// sequence number, a restart under a bumped incarnation and a
/// straggler from the dead boot — yields the timeline of the same jobs
/// fed one per pass, which is a bare `ProcessSet`'s, which up to the
/// restart is the replay oracle's.
#[test]
fn one_pass_carrying_a_streams_whole_history_matches_per_job_ingest() {
    const STREAM: u64 = 7;
    for seed in [11u64, 29] {
        let trace = WanTraceConfig::small(150, seed).generate();
        let arrivals = trace.arrivals();

        // First boot: the trace, with every 20th heartbeat delivered
        // twice (the copy is stale by the time it is applied).
        let mut jobs: Vec<Job> = Vec::new();
        for (i, a) in arrivals.iter().enumerate() {
            jobs.push((STREAM, a.seq, a.at, 0));
            if i % 20 == 19 {
                jobs.push((STREAM, a.seq, a.at, 0));
            }
        }
        // Second boot, 1 ms after the last arrival: sequence numbers
        // restart under incarnation 1, and one frame of the dead boot
        // turns up late among them.
        let restart = Nanos(arrivals.last().unwrap().at.0 + 1_000_000);
        let step = trace.interval.0;
        for seq in 1..=40u64 {
            jobs.push((STREAM, seq, Nanos(restart.0 + (seq - 1) * step), 1));
            if seq == 5 {
                jobs.push((STREAM, 10_000, Nanos(restart.0 + 4 * step), 0));
            }
        }
        let horizon = Nanos(restart.0 + 60 * step);
        assert!(jobs.len() < 512, "the batch must fit one worker pass");

        // The sequential reference.
        let mut reference = twofd::core::ProcessSet::new(detector_config(trace.interval));
        let mut expected = Vec::new();
        let mut expected_stale = 0u64;
        for &(stream, seq, at, incarnation) in &jobs {
            let (_slot, d) =
                reference.on_heartbeat_incarnated(stream, incarnation, seq, at, &mut expected);
            expected_stale += u64::from(d.is_none());
        }
        reference.sweep(horizon, &mut expected);
        let expected: Vec<_> = expected.iter().map(|e| (e.kind, e.at)).collect();
        assert!(
            expected_stale >= 8,
            "duplicates and the straggler are stale"
        );
        assert_eq!(
            expected
                .iter()
                .filter(|(k, _)| *k == TransitionKind::Recovered)
                .count(),
            1
        );

        // The clock stays at zero while heartbeats are in flight (no
        // sweep can fire), then jumps to the horizon for one caller-side
        // sweep that retires the second boot's last freshness point.
        let run = |feed: &dyn Fn(&ShardRuntime)| {
            let clock = Arc::new(ManualClock::new());
            let rt = ShardRuntime::new(
                ShardConfig {
                    detector: detector_config(trace.interval).into(),
                    n_shards: 1,
                    queue_capacity: 4096,
                    sweep_interval: Duration::from_millis(1),
                    event_capacity: 1 << 16,
                    ..ShardConfig::default()
                },
                clock.clone() as Arc<dyn TimeSource>,
            );
            feed(&rt);
            rt.flush();
            clock.advance_to(horizon);
            rt.sweep_now();
            let mut got = Vec::new();
            let deadline = Instant::now() + Duration::from_secs(10);
            while got.len() < expected.len() && Instant::now() < deadline {
                got.extend(rt.events().try_iter().map(|e| (e.kind, e.at)));
                sleep(Duration::from_millis(1));
            }
            // Grace pass: catch any extra events wrongly emitted.
            sleep(Duration::from_millis(20));
            got.extend(rt.events().try_iter().map(|e| (e.kind, e.at)));
            // The worker publishes after releasing the shard lock, so
            // its last events may trail the caller-side sweep's.
            got.sort_by_key(|&(_, at)| at);
            let stats = rt.stats();
            assert_eq!(stats.applied(), jobs.len() as u64);
            assert_eq!(stats.dropped(), 0);
            assert_eq!(rt.events_dropped(), 0);
            (got, stats.stale())
        };
        // One enqueue (single shard: one `force_send_many`), so the
        // worker finds all of it, or none of it, when it looks.
        let (one_pass, stale_one_pass) = run(&|rt| rt.ingest_batch(&jobs));
        let (per_job, stale_per_job) = run(&|rt| {
            for job in &jobs {
                rt.ingest_batch(std::slice::from_ref(job));
                rt.flush();
            }
        });
        assert_eq!(one_pass, expected, "seed {seed}: one pass vs ProcessSet");
        assert_eq!(per_job, expected, "seed {seed}: per job vs ProcessSet");
        assert_eq!(stale_one_pass, expected_stale);
        assert_eq!(stale_per_job, expected_stale);

        // Up to the restart nothing but crash-stop traffic was seen, so
        // that stretch is also the replay oracle's timeline.
        let oracle: Vec<_> = expected_events(&trace)
            .into_iter()
            .filter(|&(_, at)| at < restart)
            .collect();
        let first_boot: Vec<_> = one_pass
            .iter()
            .filter(|&&(_, at)| at < restart)
            .map(|&(kind, at)| (kind.output(), at))
            .collect();
        assert_eq!(first_boot, oracle, "seed {seed}: first boot vs replay");
    }
}

#[test]
fn crash_is_reported_by_the_sweeper_over_udp() {
    let interval = Span::from_millis(10);
    let monitor = FleetMonitor::spawn(DetectorConfig::new(
        DetectorSpec::TwoWindow { n1: 1, n2: 100 },
        interval,
        0.04,
    ))
    .expect("bind fleet monitor");
    let sender = HeartbeatSender::spawn(7, interval, monitor.local_addr()).expect("spawn sender");

    // Never query outputs: the event channel alone must tell the story.
    let deadline = Instant::now() + Duration::from_secs(5);
    let mut events = Vec::new();
    while events.is_empty() && Instant::now() < deadline {
        events.extend(monitor.events().try_iter());
        sleep(Duration::from_millis(5));
    }
    assert_eq!(
        events.first().map(|e| (e.key, e.output)),
        Some((7, FdOutput::Trust)),
        "expected the stream to establish trust first: {events:?}"
    );

    sender.crash();
    let crash_instant = Instant::now();
    let deadline = crash_instant + Duration::from_secs(5);
    while Instant::now() < deadline {
        if let Some(s) = monitor
            .events()
            .try_iter()
            .find(|e| e.output == FdOutput::Suspect)
        {
            assert_eq!(s.key, 7);
            // The sweeper pushed the S-transition; detection latency is
            // interval + margin plus sweep/scheduling slack.
            assert!(
                crash_instant.elapsed() < Duration::from_secs(2),
                "suspicion published too late"
            );
            return;
        }
        sleep(Duration::from_millis(5));
    }
    panic!("sweeper never published the S-transition after the crash");
}

#[test]
fn saturated_shard_queue_drops_and_counts_instead_of_blocking() {
    // A runtime whose single worker is effectively stalled (huge sweep
    // interval, clock pinned at zero) and whose queue holds 8 entries.
    let clock = Arc::new(ManualClock::new());
    let rt = ShardRuntime::new(
        ShardConfig {
            detector: DetectorConfig::new(
                DetectorSpec::TwoWindow { n1: 1, n2: 100 },
                Span::from_millis(10),
                0.04,
            )
            .into(),
            n_shards: 1,
            queue_capacity: 8,
            sweep_interval: Duration::from_millis(200),
            event_capacity: 64,
            ..ShardConfig::default()
        },
        clock as Arc<dyn TimeSource>,
    );

    // 50k ingests must return promptly (never block) and be fully
    // accounted for as processed-or-dropped.
    let start = Instant::now();
    for seq in 1..=50_000u64 {
        rt.ingest_batch(&[(seq % 256, seq, Nanos(seq), 0)]);
    }
    assert!(
        start.elapsed() < Duration::from_secs(5),
        "ingestion blocked on a saturated queue"
    );
    rt.flush();
    let stats = rt.stats();
    assert_eq!(stats.received(), 50_000);
    assert!(stats.dropped() > 0, "{stats:?}");
    assert!(stats.shards[0].queue_depth <= 8);
}

// ---------------------------------------------------------------------------
// The sweep horizon under saturation.
//
// A closed-loop driver shaped like the spine's `core_wide`: one producer
// hands an on-time schedule over in 64-job chunks, advances the
// `ManualClock` to each chunk's last arrival *after* the hand-over, and
// keeps up to `OUTSTANDING` heartbeats in flight — several worker
// passes' worth, so passes fill up and leave heartbeats queued while the
// clock runs ahead of them. Now and then a stream skips two beats. The
// timeline must still be the replay oracle's, and each Suspect must be
// published before the beat that ends its silence arrives.
//
// One shard, so one worker against one producer: the worker is the
// slower side and its queue stays full (two workers can keep up with
// the producer, and then the backlog drains).
// ---------------------------------------------------------------------------

mod saturation {
    use super::*;
    use std::collections::HashMap;
    use twofd::trace::HeartbeatRecord;

    const INTERVAL: Span = Span(100_000_000); // 100 ms
    const STREAMS: u64 = 4096;
    const BEATS: u64 = 40;
    const CHUNK: usize = 64;
    /// A worker pass applies at most this many heartbeats...
    const MAX_BATCH: u64 = 512;
    /// ...and the producer keeps up to six passes' worth in flight.
    const OUTSTANDING: u64 = 6 * MAX_BATCH;
    /// One beat in this many (from `WARM_UP` on) starts a silence...
    const SILENCE_ONE_IN: u64 = 16;
    const WARM_UP: u64 = 4;
    /// ...of this many beats: the stream resumes at `L + 3Δi`, its
    /// horizon being `L + Δi + MARGIN`.
    const SILENT_BEATS: u64 = 2;

    fn mix(stream: u64, seq: u64) -> u64 {
        // splitmix64's finalizer.
        let mut z = (stream << 32 ^ seq).wrapping_add(0x9e37_79b9_7f4a_7c15);
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Stream `s` beats at `seq·Δi + s·Δi/STREAMS`, with no delay, except
    /// inside its silences (which may run into each other).
    fn traces() -> BTreeMap<u64, Trace> {
        (0..STREAMS)
            .map(|stream| {
                let mut skip = 0;
                let records = (1..=BEATS)
                    .map(|seq| {
                        let send = Nanos(seq * INTERVAL.0 + stream * INTERVAL.0 / STREAMS);
                        let silent = if skip > 0 {
                            skip -= 1;
                            true
                        } else if seq >= WARM_UP && mix(stream, seq).is_multiple_of(SILENCE_ONE_IN)
                        {
                            skip = SILENT_BEATS - 1;
                            true
                        } else {
                            false
                        };
                        HeartbeatRecord {
                            seq,
                            send,
                            arrival: (!silent).then_some(send),
                        }
                    })
                    .collect();
                (stream, Trace::new("saturating", INTERVAL, records))
            })
            .collect()
    }

    /// What the producer saw.
    #[derive(Default)]
    struct Run {
        events: BTreeMap<u64, Vec<(FdOutput, Nanos)>>,
        /// Per stream, each Suspect's stamp and the clock reading when
        /// the producer held it.
        suspects_held: BTreeMap<u64, Vec<(Nanos, Nanos)>>,
    }

    impl Run {
        fn hold(&mut self, rt: &ShardRuntime, now: Nanos) {
            for ev in rt.events().try_iter() {
                if ev.output == FdOutput::Suspect {
                    self.suspects_held
                        .entry(ev.key)
                        .or_default()
                        .push((ev.at, now));
                }
                self.events
                    .entry(ev.key)
                    .or_default()
                    .push((ev.output, ev.at));
            }
        }
    }

    fn drive(traces: &BTreeMap<u64, Trace>) -> Run {
        let mut jobs: Vec<Job> = traces
            .iter()
            .flat_map(|(&stream, trace)| {
                trace
                    .arrivals()
                    .into_iter()
                    .map(move |a| (stream, a.seq, a.at, 0))
            })
            .collect();
        jobs.sort_unstable_by_key(|&(stream, _, at, _)| (at, stream));

        let clock = Arc::new(ManualClock::new());
        let rt = ShardRuntime::new(
            ShardConfig {
                detector: detector_config(INTERVAL).into(),
                n_shards: 1,
                queue_capacity: 8192,
                sweep_interval: Duration::from_millis(1),
                event_capacity: 1 << 16,
                ..ShardConfig::default()
            },
            clock.clone() as Arc<dyn TimeSource>,
        );
        // The accounting cells, read without taking the shard lock.
        let cell = |name: &str| rt.registry().counter_vec(name, "", &["shard"]).with(&["0"]);
        let (applied, dropped) = (
            cell("twofd_shard_applied_total"),
            cell("twofd_shard_dropped_total"),
        );

        let mut run = Run::default();
        let mut sent = 0u64;
        for chunk in jobs.chunks(CHUNK) {
            rt.ingest_batch(chunk);
            sent += chunk.len() as u64;
            // After the hand-over, never before: a sweep at the new
            // clock value must find these heartbeats already queued.
            let now = chunk.last().expect("a non-empty chunk").2;
            clock.advance_to(now);
            // Wait, then hold: whatever a pass published before the
            // backlog fell back under the bound is held at `now`.
            while sent - applied.get() - dropped.get() > OUTSTANDING {
                std::thread::yield_now();
            }
            run.hold(&rt, now);
        }
        rt.flush();
        let horizon = traces.values().map(Trace::end_time).max().unwrap();
        clock.advance_to(horizon);
        rt.sweep_now();
        // The workers publish after releasing the shard lock: collect
        // until the runtime has published nothing new for a while.
        let published = || rt.stats().transitions() as usize;
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            run.hold(&rt, horizon);
            let held: usize = run.events.values().map(Vec::len).sum();
            if held == published() || Instant::now() >= deadline {
                break;
            }
            sleep(Duration::from_millis(1));
        }
        sleep(Duration::from_millis(20));
        run.hold(&rt, horizon);
        assert_eq!(rt.events_dropped(), 0);
        let stats = rt.stats();
        assert_eq!(stats.dropped(), 0, "the queue never sheds");
        assert_eq!(stats.received(), jobs.len() as u64);
        assert_eq!(stats.received(), stats.applied());
        run
    }

    /// (a) The timeline is the oracle's: sweeping a full pass to its last
    /// applied arrival publishes nothing the sequential replay would
    /// not, although the clock runs up to `OUTSTANDING` (75 ms of
    /// schedule) ahead of the applied heartbeats — more than the 15 ms
    /// margin, so a sweep at `now` would retire horizons that queued
    /// heartbeats extend.
    ///
    /// (b) Every Suspect is held while the clock still reads before the
    /// arrival that ends its silence: a sweep published it, not the
    /// heartbeat that resumed the stream. The bound makes this exact,
    /// not likely. Once the clock has passed a horizon `D`, the first
    /// pass to apply a heartbeat that arrived after `D` sweeps past it,
    /// and at most `2·MAX_BATCH` applies after the first such
    /// heartbeat. The producer gets past its wait only once a *later*
    /// pass has bumped `applied`, so the Suspect is held by the time it
    /// has handed over `2·MAX_BATCH + OUTSTANDING + CHUNK` = 4 160
    /// heartbeats past `D`; about 6 700 arrive in the 185 ms between
    /// `D = L + Δi + 15 ms` and the resumption at `L + 3Δi`.
    #[test]
    fn saturated_worker_publishes_the_oracles_timeline_suspects_before_resumption() {
        let traces = traces();
        let run = drive(&traces);

        let mut resumes: HashMap<(u64, Nanos), Nanos> = HashMap::new();
        for (&stream, trace) in &traces {
            let horizon = trace.end_time();
            let got: Vec<_> = run
                .events
                .get(&stream)
                .cloned()
                .unwrap_or_default()
                .into_iter()
                .filter(|&(_, at)| at < horizon)
                .collect();
            let expected = expected_events(trace);
            assert_eq!(
                got, expected,
                "stream {stream} diverged from the replay oracle"
            );
            // Each Suspect, by the arrival that ends it.
            for pair in expected.windows(2) {
                if let [(FdOutput::Suspect, at), (FdOutput::Trust, resumed)] = *pair {
                    resumes.insert((stream, at), resumed);
                }
            }
        }
        let mut checked = 0;
        for (&stream, held) in &run.suspects_held {
            for &(at, clock) in held {
                let Some(&resumed) = resumes.get(&(stream, at)) else {
                    continue; // a censored tail: nothing resumes it
                };
                assert!(
                    clock < resumed,
                    "stream {stream}: the Suspect at {at:?} was held at {clock:?}, \
                     after the stream resumed at {resumed:?}"
                );
                checked += 1;
            }
        }
        assert_eq!(checked, resumes.len(), "every resumed silence was held");
        assert!(checked > 1_000, "only {checked} silences");
    }
}

// ---------------------------------------------------------------------------
// Wheel-vs-heap differential property test.
//
// `ProcessSet` (dense slots + hierarchical timing wheel) and
// `HeapProcessSet` (the original lazy-deletion binary heap, kept in
// `tests/support/heap_oracle.rs` as the reference oracle) implement the same published-timeline contract. On a
// random interleaving of heartbeats, sweeps, registrations and
// deregistrations they must agree on:
//
//   * every decision returned for every heartbeat,
//   * the `next_expiry` value after every single operation (the parking
//     deadline the shard workers sleep on),
//   * the per-stream Trust/Suspect event timeline, event for event,
//   * final outputs and trusted/suspected counts.
// ---------------------------------------------------------------------------

#[path = "support/heap_oracle.rs"]
mod heap_oracle;

mod wheel_heap_differential {
    use super::heap_oracle::HeapProcessSet;
    use super::*;
    use proptest::prelude::*;
    use twofd::core::{ProcessSet, StreamTransition};

    const N_STREAMS: u64 = 6;

    /// One decoded fuzz operation.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Advance time by `dt` and heartbeat `stream` (stale replays the
        /// stream's last sequence number instead of advancing it).
        Heartbeat { stream: u64, stale: bool, dt: u64 },
        /// Advance time by `dt` and sweep both sets.
        Sweep { dt: u64 },
        /// Deregister `stream` from both sets.
        Deregister { stream: u64 },
        /// (Re-)register `stream` in both sets.
        Register { stream: u64 },
    }

    /// Decodes a raw generated tuple into an operation. The `mag` field
    /// picks a time-delta magnitude so traces mix sub-tick steps,
    /// interval-scale steps (around the 100 ms heartbeat period) and
    /// multi-second jumps that force level-1/2/3 wheel cascades.
    fn decode((kind, stream, mag, d): (u8, u64, u8, u64)) -> Op {
        let stream = stream % N_STREAMS;
        let dt = match mag % 4 {
            0 => d % 2_000_000,                     // < 2 ms: within a tick
            1 => 1_000_000 + (d % 200_000_000),     // 1–201 ms: interval scale
            2 => 100_000_000 + (d % 2_000_000_000), // 0.1–2.1 s: level 1–2
            _ => d % 400_000_000_000,               // up to 400 s: level 2–3
        };
        match kind % 100 {
            0..=69 => Op::Heartbeat {
                stream,
                stale: kind % 7 == 0,
                dt,
            },
            70..=84 => Op::Sweep { dt },
            85..=92 => Op::Deregister { stream },
            _ => Op::Register { stream },
        }
    }

    /// Per-stream event timelines from a flat event log (cross-stream
    /// order within one sweep is unspecified — slot order vs key order —
    /// so equality is demanded per stream).
    fn per_stream(events: &[StreamTransition<u64>]) -> BTreeMap<u64, Vec<(FdOutput, Nanos)>> {
        let mut map: BTreeMap<u64, Vec<(FdOutput, Nanos)>> = BTreeMap::new();
        for e in events {
            map.entry(e.key).or_default().push((e.output, e.at));
        }
        map
    }

    fn config() -> DetectorConfig {
        // Tight margin on 2W-FD(1,8): late heartbeats routinely shrink or
        // overrun horizons, so traces exercise S-transitions, missed-
        // expiry synthesis and the shrink (trust_until <= arrival) case.
        DetectorConfig::new(
            DetectorSpec::TwoWindow { n1: 1, n2: 8 },
            Span::from_millis(100),
            0.015,
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]
        #[test]
        fn wheel_and_heap_agree_on_timelines_and_next_expiry(
            raw in prop::collection::vec(
                (0u8..255, 0u64..N_STREAMS, 0u8..4, 0u64..u64::MAX),
                40..280,
            )
        ) {
            let mut wheel: ProcessSet<u64, DetectorConfig> = ProcessSet::new(config());
            let mut heap: HeapProcessSet<u64, DetectorConfig> =
                HeapProcessSet::new(config());
            let mut wheel_events = Vec::new();
            let mut heap_events = Vec::new();
            let mut now = Nanos(10_000_000);
            let mut seqs: BTreeMap<u64, u64> = BTreeMap::new();

            for (i, &tuple) in raw.iter().enumerate() {
                match decode(tuple) {
                    Op::Heartbeat { stream, stale, dt } => {
                        now = Nanos(now.0.saturating_add(dt));
                        let seq = {
                            let c = seqs.entry(stream).or_insert(0);
                            if !stale {
                                *c += 1;
                            }
                            (*c).max(1)
                        };
                        let (_slot, dw) = wheel.on_heartbeat_incarnated(
                            stream, 0, seq, now, &mut wheel_events,
                        );
                        let dh = heap.on_heartbeat_with_events(
                            stream, seq, now, &mut heap_events,
                        );
                        prop_assert_eq!(dw, dh, "op {}: decision mismatch", i);
                    }
                    Op::Sweep { dt } => {
                        now = Nanos(now.0.saturating_add(dt));
                        wheel.sweep(now, &mut wheel_events);
                        heap.sweep(now, &mut heap_events);
                    }
                    Op::Deregister { stream } => {
                        let rw = wheel.deregister(&stream);
                        let rh = heap.deregister(&stream);
                        prop_assert_eq!(rw, rh, "op {}: deregister mismatch", i);
                        // A deregistered stream restarts from scratch.
                        seqs.remove(&stream);
                    }
                    Op::Register { stream } => {
                        wheel.register(stream);
                        heap.register(stream);
                    }
                }
                // The parking deadline must agree after *every* op: both
                // prune dead entries, so both report the same live
                // minimum horizon (or none).
                prop_assert_eq!(
                    wheel.next_expiry(),
                    heap.next_expiry(),
                    "op {}: next_expiry diverged",
                    i
                );
                prop_assert_eq!(wheel.len(), heap.len(), "op {}: len diverged", i);
            }

            // Final sweep far in the future flushes every pending expiry.
            now = Nanos(now.0.saturating_add(3_600_000_000_000));
            wheel.sweep(now, &mut wheel_events);
            heap.sweep(now, &mut heap_events);
            prop_assert_eq!(wheel.next_expiry(), heap.next_expiry());

            // Event-for-event equality per stream.
            prop_assert_eq!(per_stream(&wheel_events), per_stream(&heap_events));

            // Output and gauge agreement at several probe instants.
            for probe in [now, Nanos(now.0 + 1), Nanos(now.0 + 50_000_000)] {
                for stream in 0..N_STREAMS {
                    prop_assert_eq!(
                        wheel.output(&stream, probe),
                        heap.output(&stream, probe)
                    );
                }
                prop_assert_eq!(wheel.counts(probe), heap.counts(probe));
            }
        }
    }
}
