//! One window of a live-clock workload: a fresh monitor, the paced
//! generator on its own thread, and the main thread as the reader of
//! verdicts. `live_fleet` and `query_mix` differ in where the
//! heartbeats enter (a UDP socket or `ingest_batch`) and in what the
//! reader does between events (block, or query in a closed loop).

use super::paced::{run_paced, GenLog, PacedPlan, Sink, PHASES, TICK_NS};
use super::{match_script, query_burst, Held, Lags, Plan, Rng};
use crate::api::{Counts, Kind, LiveClock, MonitorSpec, Verdicts};
use crate::procfs::{self, ThreadCpu};
use crate::stats::{percentile, WindowEnv};
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};

/// The monitor of the live workloads: Δto = 40 ms over Δi = 100 ms.
pub const SPEC: MonitorSpec = MonitorSpec {
    margin_s: 0.04,
    queue_capacity: 4096,
    event_capacity: 65_536,
    obs: false,
};
/// A silence starts every 4 ms: ≈ 250 Suspects and Trusts a second.
const SILENCE_EVERY: u64 = 4;
/// Ticks before the first silence: every stream has beaten by then.
const WARM_TICKS: u64 = 150;
/// Ticks after the last silence may start: it ends, and its Trust is
/// held, within these.
const TAIL_TICKS: u64 = PacedPlan::SILENCE_TICKS + 20;
/// The query client's slot at the end of a blocking reader's window.
const QUERY_MS: u64 = 150;

/// What the main thread does while the window runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reader {
    /// Blocks on the event channel; queries only in a short slot at
    /// the end, beside live traffic.
    Blocking,
    /// Queries in a closed loop throughout, draining events between
    /// blocks of 256 queries.
    Querying,
}

pub struct LiveShape {
    pub streams: u64,
    /// Streams `pausable_from..streams` may be silenced; queries go to
    /// `0..pausable_from` (or to all streams when nothing is reserved).
    pub pausable_from: u64,
    pub reader: Reader,
    pub seed: u64,
}

#[derive(Debug, Default)]
pub struct LiveWindow {
    pub setup_s: f64,
    pub hb_per_s: f64,
    pub queries_per_s: f64,
    pub lags: Lags,
    pub counts: Counts,
    pub sweep_p50_us: f64,
    pub late_p99_us: f64,
    pub gen_cpu_ns_per_hb: f64,
    pub sent: u64,
    pub lost: u64,
    pub expected: u64,
    pub errors: Vec<String>,
    /// Thread CPU at the edges of the measured interval, and the
    /// heartbeats applied between them.
    pub cpu_before: Vec<ThreadCpu>,
    pub cpu_after: Vec<ThreadCpu>,
    pub applied: u64,
}

impl LiveWindow {
    /// CPU ns per applied heartbeat of the threads `keep` selects.
    pub fn cpu_ns_per_hb(&self, keep: impl Fn(&str) -> bool) -> f64 {
        procfs::cpu_between(&self.cpu_before, &self.cpu_after, keep) as f64
            / self.applied.max(1) as f64
    }
}

fn paced_plan(plan: &Plan, shape: &LiveShape, start_ns: u64) -> PacedPlan {
    let ticks = (plan.window_s() * 1e9) as u64 / TICK_NS;
    let scripted = ticks
        .saturating_sub(WARM_TICKS + TAIL_TICKS + QUERY_MS)
        .max(2 * PHASES);
    PacedPlan {
        seed: shape.seed,
        streams: shape.streams,
        pausable_from: shape.pausable_from,
        start_ns,
        silence_every: SILENCE_EVERY,
        first_silence_tick: WARM_TICKS,
        last_silence_tick: WARM_TICKS + scripted,
        // Slack past the query slot; the reader stops the generator.
        end_tick: WARM_TICKS + scripted + TAIL_TICKS + QUERY_MS + 50,
    }
}

/// Runs one window against `monitor` (built by the caller just before,
/// at `setup_started`). `sink` receives the heartbeats on the
/// generator thread; `settle` blocks until the monitor has applied
/// everything the generator handed over.
pub fn live_window<M: Verdicts>(
    plan: &Plan,
    shape: &LiveShape,
    clock: &LiveClock,
    monitor: &M,
    setup_started: Instant,
    sink: impl Sink + Send,
    settle: impl FnOnce(&GenLog),
) -> (LiveWindow, WindowEnv) {
    let stat_before = procfs::cpu_times();
    let paced = paced_plan(plan, shape, clock.now_ns() + 2 * TICK_NS);
    let measure_from = paced.start_ns + paced.first_silence_tick * TICK_NS;
    let measure_to = paced.start_ns + (paced.last_silence_tick + TAIL_TICKS) * TICK_NS;
    let query_streams = if shape.pausable_from > 0 {
        shape.pausable_from
    } else {
        shape.streams
    };
    let stop = AtomicBool::new(false);
    let mut rng = Rng::new(shape.seed ^ 0x51);
    let mut w = LiveWindow::default();
    let mut off_script = 0u64;
    let mut events: Vec<Held> = Vec::with_capacity(shape.streams as usize + 4096);

    let log = std::thread::scope(|scope| {
        let generator = std::thread::Builder::new()
            .name("spine-gen".into())
            .spawn_scoped(scope, || {
                let mut sink = sink;
                run_paced(&paced, clock, &mut sink, &stop)
            })
            .expect("spawn the generator thread");

        let mut trusted = 0u64;
        let mut edge: Option<(Counts, Vec<ThreadCpu>, u64)> = None;
        let mut untrusted = 0u64;
        let mut queries = 0u64;
        loop {
            let mut take = |event: crate::api::Event, now: u64, events: &mut Vec<Held>| {
                events.push(Held {
                    event,
                    held_ns: now,
                });
                if trusted < shape.streams && event.kind == Kind::Trust {
                    trusted += 1;
                    if trusted == shape.streams {
                        // Set-up ends when the whole fleet is trusted.
                        w.setup_s = setup_started.elapsed().as_secs_f64();
                    }
                }
            };
            let now = match shape.reader {
                Reader::Blocking => {
                    let event = monitor.wait_event(Duration::from_millis(1));
                    let now = clock.now_ns();
                    if let Some(event) = event {
                        take(event, now, &mut events);
                    }
                    now
                }
                Reader::Querying => {
                    for _ in 0..256 {
                        if monitor.is_trusted(rng.below(query_streams)) != Some(true) {
                            untrusted += 1;
                        }
                    }
                    let now = clock.now_ns();
                    while let Some(event) = monitor.try_event() {
                        take(event, now, &mut events);
                    }
                    if edge.is_some() {
                        queries += 256;
                    }
                    // With two cores and four busy threads, a reader
                    // that never lets go decides by the scheduler's
                    // timeslice when a worker gets to publish; a real
                    // client does something with its answers here.
                    std::thread::yield_now();
                    now
                }
            };
            if edge.is_none() && now >= measure_from {
                // Streams are only queried once they have all beaten.
                untrusted = 0;
                edge = Some((monitor.counts(), procfs::thread_cpu(), now));
            }
            if now >= measure_to {
                break;
            }
        }
        let (counts0, cpu0, t0) = edge.expect("the window outlasts its warm-up");
        let counts1 = monitor.counts();
        w.cpu_after = procfs::thread_cpu();
        w.cpu_before = cpu0;
        let elapsed_s = (clock.now_ns() - t0) as f64 / 1e9;
        w.applied = counts1.applied - counts0.applied;
        w.hb_per_s = w.applied as f64 / elapsed_s;
        match shape.reader {
            Reader::Querying => w.queries_per_s = queries as f64 / elapsed_s,
            Reader::Blocking => {
                // Events keep queueing meanwhile; none is scripted.
                let slot = Duration::from_millis(QUERY_MS);
                let (qps, wrong) = query_burst(monitor, query_streams, slot, &mut rng);
                w.queries_per_s = qps;
                untrusted += wrong;
            }
        }
        if untrusted > 0 {
            off_script += untrusted;
            w.errors
                .push(format!("{untrusted} queries answered other than Trust"));
        }
        stop.store(true, Ordering::Release);
        generator.join().expect("generator thread panicked")
    });

    settle(&log);
    while let Some(event) = monitor.try_event() {
        events.push(Held {
            event,
            held_ns: clock.now_ns(),
        });
    }
    let matched = match_script(&log.silences, &events, shape.streams);
    w.lags = matched.lags;
    w.expected = matched.expected;
    off_script += matched.errors.len() as u64;
    w.errors.extend(matched.errors);
    w.counts = monitor.counts();
    w.sweep_p50_us = monitor.sweep_p50_us();
    w.sent = log.sent;
    w.lost = log.sent.saturating_sub(w.counts.applied);
    if w.counts.events_dropped > 0 {
        w.errors
            .push(format!("{} events dropped", w.counts.events_dropped));
    }
    if w.counts.received != w.counts.applied + w.counts.dropped {
        w.errors.push(format!(
            "accounting: received {} != applied {} + dropped {}",
            w.counts.received, w.counts.applied, w.counts.dropped
        ));
    }
    w.gen_cpu_ns_per_hb = log.cpu_ns as f64 / log.sent.max(1) as f64;
    w.late_p99_us = percentile(&mut log.late_us.clone(), 0.99).unwrap_or(0.0);
    let env = WindowEnv {
        steal_ratio: procfs::steal_ratio(stat_before, procfs::cpu_times()),
        late_max_us: log.late_us.iter().copied().fold(0.0, f64::max),
        off_script,
    };
    (w, env)
}

/// The metrics every live workload reports from its windows.
pub fn record_live(report: &mut crate::metrics::Report, ws: &[LiveWindow]) {
    let each = |f: fn(&LiveWindow) -> f64| ws.iter().map(f).collect::<Vec<f64>>();
    let total = |f: fn(&LiveWindow) -> u64| ws.iter().map(f).sum::<u64>() as f64;
    report.record("setup_s", each(|w| w.setup_s));
    report.record("hb_per_s", each(|w| w.hb_per_s));
    report.record(
        "cpu_ns_per_hb",
        each(|w| w.cpu_ns_per_hb(procfs::is_system_thread)),
    );
    report.record("output_queries_per_s", each(|w| w.queries_per_s));
    let lags: Vec<Lags> = ws.iter().map(|w| w.lags.clone()).collect();
    super::record_lags(report, &lags);
    report.record(
        "shard.worker_cpu_ns_per_hb",
        each(|w| w.cpu_ns_per_hb(|n| n.starts_with("twofd-shard-"))),
    );
    report.record_one("shard.dropped", total(|w| w.counts.dropped));
    report.record_one("shard.stale", total(|w| w.counts.stale));
    report.record_one("shard.events_dropped", total(|w| w.counts.events_dropped));
    report.record("shard.sweep_count", each(|w| w.counts.sweeps as f64));
    report.record("shard.sweep_p50_us", each(|w| w.sweep_p50_us));
    report.record("gen.late_p99_us", each(|w| w.late_p99_us));
    report.record("gen.cpu_ns_per_hb", each(|w| w.gen_cpu_ns_per_hb));
    if ws
        .iter()
        .any(|w| w.cpu_ns_per_hb(|n| n.starts_with("twofd-shard-")) == 0.0)
    {
        report.error("no twofd-shard-* thread found to attribute CPU to".into());
    }
}
