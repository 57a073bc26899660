//! `query_mix` — the shard layer used the other way round: one client
//! reads verdicts in a closed loop while a paced generator writes
//! 100 k heartbeats a second through `ingest_batch`. A lock or
//! ownership redesign that buys ingest speed by making queries slower
//! (or the reverse) shows here. Silences are scripted on the upper
//! half of the fleet and queries go to the lower half, so every answer
//! must be `Trust`.

use super::live::{live_window, record_live, LiveShape, LiveWindow, Reader, SPEC};
use super::paced::Sink;
use super::{account, Plan};
use crate::api::{self, Job, LiveClock, Runtime, INTAKE_BATCH};
use crate::layers;
use crate::metrics::Report;
use crate::stats::collect_windows;
use std::time::Instant;

pub const STREAMS: u64 = 10_000;

/// Hands each tick to the runtime in intake-sized batches, stamped
/// with the clock's now as a socket thread would.
struct IngestSink<'a> {
    runtime: &'a Runtime,
    clock: &'a LiveClock,
    jobs: Vec<Job>,
}

impl Sink for IngestSink<'_> {
    fn emit(&mut self, _due_ns: u64, beats: &[(u64, u64)]) -> u64 {
        for chunk in beats.chunks(INTAKE_BATCH) {
            let arrival = self.clock.now_ns();
            self.jobs.clear();
            self.jobs.extend(
                chunk
                    .iter()
                    .map(|&(stream, seq)| api::job(stream, seq, arrival)),
            );
            self.runtime.ingest(&self.jobs);
        }
        beats.len() as u64
    }
}

/// Wall µs of one `statuses()`, `suspected()` and `stats()` call.
fn time_snapshots(runtime: &Runtime, streams: u64, errors: &mut Vec<String>) -> [f64; 3] {
    let timed = |call: &dyn Fn() -> usize| {
        let started = Instant::now();
        let n = call();
        (started.elapsed().as_nanos() as f64 / 1e3, n)
    };
    let (statuses_us, listed) = timed(&|| runtime.statuses());
    let (suspected_us, _) = timed(&|| runtime.suspected());
    let (stats_us, counted) = timed(&|| runtime.stats_streams());
    if listed as u64 != streams || counted as u64 != streams {
        errors.push(format!(
            "statuses() lists {listed} and stats() counts {counted} of {streams} streams"
        ));
    }
    [statuses_us, suspected_us, stats_us]
}

pub fn run(plan: &Plan) -> Report {
    let mut report = Report::new("query_mix", plan.seed, plan.seconds, plan.traced);
    let clock = LiveClock::new();
    let streams = plan.streams(STREAMS);

    let windows = collect_windows(plan.windows(), plan.max_rerun(), |i| {
        let setup_started = Instant::now();
        let runtime = Runtime::on_live(&SPEC, &clock);
        let shape = LiveShape {
            streams,
            pausable_from: streams / 2,
            reader: Reader::Querying,
            seed: plan.seed.wrapping_add(i as u64),
        };
        let sink = IngestSink {
            runtime: &runtime,
            clock: &clock,
            jobs: Vec::with_capacity(INTAKE_BATCH),
        };
        let (mut live, env) =
            live_window(plan, &shape, &clock, &runtime, setup_started, sink, |_| {
                runtime.flush()
            });
        let snapshots = time_snapshots(&runtime, streams, &mut live.errors);
        ((live, snapshots), env)
    });
    let (lives, snapshots): (Vec<LiveWindow>, Vec<[f64; 3]>) =
        report.take_windows(windows).into_iter().unzip();

    record_live(&mut report, &lives);
    for (k, name) in ["shard.statuses_us", "shard.suspected_us", "shard.stats_us"]
        .into_iter()
        .enumerate()
    {
        report.record(name, snapshots.iter().map(|s| s[k]).collect());
    }
    for w in lives {
        account(&mut report, w.expected, w.sent, w.lost, w.errors);
    }
    if plan.traced {
        layers::query_path(plan, &mut report);
    }
    super::finish(&mut report);
    report
}
