//! `core_wide` and `core_obs` — closed loop into a `ShardRuntime` on a
//! manual clock, no sockets: `net::shard` routing, queue and worker,
//! `core::multi`, `core::slab` and `core::wheel` do all the work and
//! syscalls and decode do none. One producer (the main thread) feeds an
//! on-time schedule in 64-job chunks, advancing the clock alongside,
//! with at most 8 192 heartbeats outstanding per shard; a seeded 1 % of
//! beats start a two-beat silence, so sweeps, wheel harvests and the
//! event channel run.
//!
//! * `core_wide`: 32 000 streams with full `n2 = 1000` windows — far
//!   more detector state than any cache holds — and observability off.
//! * `core_obs`: 10 000 streams with the jitter histogram and a QoS
//!   tracker per stream, and a scraper thread rendering the registry
//!   every 4 M heartbeats, about once a second (the scrape is also the
//!   only thing that prunes the trackers; pacing it by work rather
//!   than by wall time keeps the trackers' size, and so peak RSS, the
//!   same from run to run). The hot-obs side
//!   table, trackers and exposition are absent from `core_wide`, so a
//!   change to them shows here and must not move `core_wide`.
//!
//! The lags are read on the manual clock — the clock the monitor runs
//! on: the reader notes the clock's value when it holds an event. A
//! Suspect's lag is that value minus its `trust_until`, a Trust's path
//! runs from the arrival stamp of the heartbeat that caused it, `T_D`
//! from the arrival of the last heartbeat before the silence. They say
//! how far, in the fleet's own time, the published view trails the
//! schedule under saturating load, and do not depend on how fast the
//! host happens to be.

use super::{account, mix, query_burst, record_lags, Lags, Plan, Rng};
use crate::api::{
    self, Bank, Event, Job, Kind, MonitorSpec, Runtime, Verdicts, VirtualClock, INTERVAL_NS,
};
use crate::layers;
use crate::metrics::Report;
use crate::procfs;
use crate::stats::{collect_windows, WindowEnv};
use std::collections::HashMap;
use std::sync::mpsc::{sync_channel, SyncSender};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    Wide,
    Obs,
}

impl Variant {
    pub fn name(self) -> &'static str {
        match self {
            Variant::Wide => "core_wide",
            Variant::Obs => "core_obs",
        }
    }

    pub fn streams(self, plan: &Plan) -> u64 {
        plan.streams(match self {
            Variant::Wide => 32_000,
            Variant::Obs => 10_000,
        })
    }
}

/// Beats fed to every stream before measuring, so the long window of
/// `2w-fd(1,1000)` is full.
pub const PREFEED: u64 = 1000;
pub const CHUNK: usize = 64;
/// Heartbeats handed over but not yet applied, at most — split evenly
/// between the shards' queues. A bound on the total alone lets one
/// descheduled worker hold all of it, and then how far that shard's
/// verdicts trail depends on the scheduler, not on the system.
const OUTSTANDING: u64 = 16_384;
const OUTSTANDING_PER_SHARD: u64 = OUTSTANDING / api::SHARDS as u64;
/// One beat in a hundred starts a silence...
const SILENCE_ONE_IN: u64 = 100;
/// ...of this many beats: a 300 ms gap against a ≈ 200 ms horizon.
const SILENT_BEATS: u8 = 2;
/// Streams whose timeline is checked against the reference.
const SAMPLE: usize = 512;
const QUERY_MS: u64 = 150;

pub fn spec(obs: bool) -> MonitorSpec {
    MonitorSpec {
        // The library's default margin, Δto = 100 ms.
        margin_s: 0.1,
        queue_capacity: OUTSTANDING as usize,
        event_capacity: 1 << 17,
        obs,
    }
}

/// The seeded on-time schedule: stream `order[i]` beats at
/// `seq·Δi + i·Δi/n`, except inside its silences. Per-stream state
/// only, so a reference can replay any subset of streams.
pub struct Schedule {
    seed: u64,
    /// No silence starts before this beat.
    quiet_until: u64,
    pub order: Vec<u64>,
    skip_left: Vec<u8>,
    resumes: Vec<bool>,
}

pub enum Beat {
    Emit {
        arrival_ns: u64,
        resumes: bool,
    },
    /// Swallowed by a silence; `first` on the beat that starts it.
    Skip {
        first: bool,
    },
}

impl Schedule {
    pub fn new(seed: u64, streams: u64, quiet_until: u64) -> Schedule {
        let mut order: Vec<u64> = (0..streams).collect();
        Rng::new(seed).shuffle(&mut order);
        Schedule {
            seed,
            quiet_until,
            order,
            skip_left: vec![0; streams as usize],
            resumes: vec![false; streams as usize],
        }
    }

    pub fn arrival_ns(&self, position: usize, seq: u64) -> u64 {
        seq * INTERVAL_NS + position as u64 * INTERVAL_NS / self.order.len() as u64
    }

    /// The fate of beat `seq` of the stream at `position`. Call once
    /// per beat, in sequence order per stream.
    pub fn beat(&mut self, position: usize, seq: u64) -> Beat {
        let s = self.order[position] as usize;
        if seq >= self.quiet_until {
            if self.skip_left[s] > 0 {
                self.skip_left[s] -= 1;
                self.resumes[s] = self.skip_left[s] == 0;
                return Beat::Skip { first: false };
            }
            // Never on the beat that ends a silence: two silences would
            // merge into one, and every silence is to yield exactly
            // one Suspect and one Trust.
            if !self.resumes[s] && mix(self.seed, s as u64, seq).is_multiple_of(SILENCE_ONE_IN) {
                self.skip_left[s] = SILENT_BEATS - 1;
                return Beat::Skip { first: true };
            }
        }
        Beat::Emit {
            arrival_ns: self.arrival_ns(position, seq),
            resumes: std::mem::take(&mut self.resumes[s]),
        }
    }
}

/// Chunks between scrapes: 4 M heartbeats.
const SCRAPE_EVERY: u64 = 65_536;

/// The operator's scraper: a thread (`spine-scrape`) that renders the
/// registry each time the producer pokes it.
struct Scraper {
    poke: Option<SyncSender<()>>,
    thread: Option<JoinHandle<()>>,
}

impl Scraper {
    fn spawn(runtime: Arc<Runtime>) -> Scraper {
        let (poke, poked) = sync_channel::<()>(1);
        let thread = std::thread::Builder::new()
            .name("spine-scrape".into())
            .spawn(move || {
                for () in poked {
                    std::hint::black_box(runtime.render());
                }
            })
            .expect("spawn the scraper thread");
        Scraper {
            poke: Some(poke),
            thread: Some(thread),
        }
    }

    /// Asks for a scrape; one already pending is enough.
    fn poke(&self) {
        if let Some(poke) = &self.poke {
            let _ = poke.try_send(());
        }
    }
}

impl Drop for Scraper {
    fn drop(&mut self) {
        self.poke.take();
        if let Some(thread) = self.thread.take() {
            let _ = thread.join();
        }
    }
}

/// A stream's silences whose Suspect or Trust the reader has not held
/// yet. Events of one stream arrive in order, so three counters and a
/// small ring pair each event with the silence that caused it even
/// when the reader runs a silence or two behind the producer.
#[derive(Debug, Clone, Copy, Default)]
struct Pending {
    started: u32,
    suspected: u32,
    trusted: u32,
    /// Arrival stamps of the last beat before the silence and of the
    /// beat that ended it.
    ring: [(u64, u64); Pending::RING],
}

impl Pending {
    const RING: usize = 4;

    fn started(&mut self, last_arrival: u64) {
        self.ring[self.started as usize % Self::RING] = (last_arrival, 0);
        self.started += 1;
    }

    fn resumed(&mut self, arrival: u64) {
        if let Some(latest) = self.started.checked_sub(1) {
            self.ring[latest as usize % Self::RING].1 = arrival;
        }
    }

    /// The silence a Suspect belongs to: its last arrival, unless the
    /// reader is more than a ring behind.
    fn suspected(&mut self) -> Option<u64> {
        let slot = Self::claim(&mut self.suspected, self.started)?;
        Some(self.ring[slot].0)
    }

    fn trusted(&mut self) -> Option<u64> {
        let slot = Self::claim(&mut self.trusted, self.started)?;
        Some(self.ring[slot].1)
    }

    fn claim(cursor: &mut u32, started: u32) -> Option<usize> {
        if *cursor >= started {
            return None;
        }
        let slot = *cursor as usize % Self::RING;
        let fresh = started - *cursor <= Self::RING as u32;
        *cursor += 1;
        fresh.then_some(slot)
    }
}

/// Totals of one stretch of pumping.
#[derive(Debug, Default, Clone)]
struct Pumped {
    sent: u64,
    ingest_ns: u64,
    backlog_sum: u64,
    backlog_max: u64,
    chunks: u64,
    lags: Lags,
}

/// The producer: walks the schedule, feeds chunks, advances the clock,
/// holds the events.
struct Driver<'a> {
    runtime: &'a Arc<Runtime>,
    clock: &'a VirtualClock,
    schedule: Schedule,
    scraper: Option<Scraper>,
    chunks: u64,
    seq: u64,
    position: usize,
    sent: u64,
    sent_by_shard: [u64; api::SHARDS],
    silences: u64,
    jobs: Vec<Job>,
    /// What the manual clock reads.
    now_ns: u64,
    /// Per stream, its silences whose events are still to be held.
    pending: Vec<Pending>,
    sample: Vec<bool>,
    sample_events: HashMap<u64, Vec<(Kind, u64)>>,
}

impl<'a> Driver<'a> {
    fn new(
        runtime: &'a Arc<Runtime>,
        clock: &'a VirtualClock,
        seed: u64,
        streams: u64,
        obs: bool,
    ) -> Self {
        let schedule = Schedule::new(seed, streams, PREFEED);
        let mut sample = vec![false; streams as usize];
        for &s in schedule.order.iter().take(SAMPLE) {
            sample[s as usize] = true;
        }
        Driver {
            runtime,
            clock,
            schedule,
            scraper: obs.then(|| Scraper::spawn(Arc::clone(runtime))),
            chunks: 0,
            seq: 0,
            position: 0,
            sent: 0,
            sent_by_shard: [0; api::SHARDS],
            silences: 0,
            jobs: Vec::with_capacity(CHUNK),
            now_ns: 0,
            pending: vec![Pending::default(); streams as usize],
            sample,
            sample_events: HashMap::new(),
        }
    }

    /// Fills `jobs` with the next chunk of the schedule; `false` once
    /// `until_seq` is reached with nothing to send.
    fn fill(&mut self, until_seq: u64) -> bool {
        self.jobs.clear();
        while self.jobs.len() < CHUNK && self.seq < until_seq {
            let stream = self.schedule.order[self.position];
            match self.schedule.beat(self.position, self.seq) {
                Beat::Emit {
                    arrival_ns,
                    resumes,
                } => {
                    if resumes {
                        self.pending[stream as usize].resumed(arrival_ns);
                    }
                    self.sent_by_shard[stream as usize % api::SHARDS] += 1;
                    self.jobs.push(api::job(stream, self.seq, arrival_ns));
                }
                Beat::Skip { first: true } => {
                    self.silences += 1;
                    let last_arrival = self.schedule.arrival_ns(self.position, self.seq - 1);
                    self.pending[stream as usize].started(last_arrival);
                }
                Beat::Skip { first: false } => {}
            }
            self.position += 1;
            if self.position == self.schedule.order.len() {
                self.position = 0;
                self.seq += 1;
            }
        }
        !self.jobs.is_empty()
    }

    fn hold(&mut self, event: Event, lags: Option<&mut Lags>) {
        if self.sample[event.stream as usize] {
            self.sample_events
                .entry(event.stream)
                .or_default()
                .push((event.kind, event.at_ns));
        }
        let now_ns = self.now_ns;
        let us = |from: u64| now_ns.saturating_sub(from) as f64 / 1e3;
        let pending = &mut self.pending[event.stream as usize];
        match event.kind {
            Kind::Suspect => {
                let Some(last_arrival) = pending.suspected() else {
                    return;
                };
                if let Some(lags) = lags {
                    lags.suspect_us.push(us(event.at_ns));
                    lags.detect_ms.push(us(last_arrival) / 1e3);
                }
            }
            Kind::Trust => {
                // The first Trust of a stream follows no silence.
                let Some(resume_arrival) = pending.trusted() else {
                    return;
                };
                if let Some(lags) = lags {
                    lags.trust_us.push(us(resume_arrival));
                }
            }
            Kind::Recovered => {}
        }
    }

    /// Heartbeats queued at the shard that has the most.
    fn deepest_backlog(&self) -> u64 {
        let handled = self.runtime.handled_by_shard();
        (0..api::SHARDS)
            .map(|i| self.sent_by_shard[i].saturating_sub(handled[i]))
            .max()
            .unwrap_or(0)
    }

    fn drain(&mut self, mut lags: Option<&mut Lags>) {
        while let Some(event) = self.runtime.try_event() {
            self.hold(event, lags.as_deref_mut());
        }
    }

    /// Feeds the schedule until `deadline` or `until_seq`, whichever
    /// comes first. With `measure`, times the hand-overs and takes lags.
    fn pump(&mut self, deadline: Option<Instant>, until_seq: u64, measure: bool) -> Pumped {
        let mut out = Pumped::default();
        let sent_before = self.sent;
        loop {
            if !self.fill(until_seq) {
                break;
            }
            let started = measure.then(Instant::now);
            self.runtime.ingest(&self.jobs);
            if let Some(started) = started {
                out.ingest_ns += started.elapsed().as_nanos() as u64;
            }
            let (_, _, arrival, _) = *self.jobs.last().expect("a filled chunk");
            // After the hand-over, never before: a sweep at the new
            // clock value must find these heartbeats already queued.
            self.now_ns = arrival.0;
            self.clock.advance_to_ns(self.now_ns);
            self.sent += self.jobs.len() as u64;
            out.chunks += 1;
            let mut lags = measure.then_some(&mut out.lags);
            self.drain(lags.as_deref_mut());
            let mut backlog = self.deepest_backlog();
            out.backlog_sum += backlog;
            out.backlog_max = out.backlog_max.max(backlog);
            while backlog > OUTSTANDING_PER_SHARD {
                std::thread::yield_now();
                self.drain(lags.as_deref_mut());
                backlog = self.deepest_backlog();
            }
            self.chunks += 1;
            if self.chunks.is_multiple_of(SCRAPE_EVERY) {
                if let Some(scraper) = &self.scraper {
                    scraper.poke();
                }
            }
            if out.chunks % 256 == 0 && deadline.is_some_and(|d| Instant::now() >= d) {
                break;
            }
        }
        out.sent = self.sent - sent_before;
        out
    }

    /// Ends the run on a round boundary, applies everything, sweeps at
    /// the final clock value and holds the last events.
    fn close(&mut self) {
        if self.position != 0 {
            self.pump(None, self.seq + 1, false);
        }
        self.runtime.flush();
        // The round's last beats may have been silent: sweep at the
        // round's nominal end, where the reference sweeps too.
        let streams = self.schedule.order.len();
        self.clock
            .advance_to_ns(self.schedule.arrival_ns(streams - 1, self.seq - 1));
        self.runtime.sweep_now();
        self.drain(None);
    }

    /// The sampled streams' timelines from a single-threaded
    /// `ProcessSet` fed the same schedule; returns mismatching streams.
    fn check_against_reference(&self, margin_s: f64) -> Vec<String> {
        let mut bank = Bank::new(margin_s);
        let mut schedule = Schedule::new(
            self.schedule.seed,
            self.schedule.order.len() as u64,
            PREFEED,
        );
        let mut last_arrival = 0;
        for seq in 0..self.seq {
            for position in 0..SAMPLE.min(schedule.order.len()) {
                if let Beat::Emit { arrival_ns, .. } = schedule.beat(position, seq) {
                    bank.apply(schedule.order[position], seq, arrival_ns);
                }
            }
            // The runtime's final sweep ran at the last arrival of the
            // whole fleet, not of the sample.
            last_arrival = schedule.arrival_ns(schedule.order.len() - 1, seq);
        }
        bank.sweep(last_arrival);
        let mut expected: HashMap<u64, Vec<(Kind, u64)>> = HashMap::new();
        for e in bank.take_events() {
            expected
                .entry(e.stream)
                .or_default()
                .push((e.kind, e.at_ns));
        }
        let mut errors = Vec::new();
        for (stream, want) in &expected {
            let got = self.sample_events.get(stream);
            if got != Some(want) {
                errors.push(format!(
                    "stream {stream}: timeline differs from the reference ({} vs {} transitions)",
                    got.map_or(0, Vec::len),
                    want.len()
                ));
            }
        }
        errors
    }
}

/// Set-up: a thousand beats into every stream, so every long window
/// is full. Returns the driver poised at the first measured beat.
fn prefeed<'a>(
    runtime: &'a Arc<Runtime>,
    clock: &'a VirtualClock,
    seed: u64,
    streams: u64,
    obs: bool,
) -> Driver<'a> {
    let mut driver = Driver::new(runtime, clock, seed, streams, obs);
    driver.pump(None, PREFEED, false);
    runtime.flush();
    driver.drain(None);
    driver
}

#[derive(Debug, Default)]
struct Window {
    hb_per_s: f64,
    worker_cpu_ns_per_hb: f64,
    ingest_ns_per_hb: f64,
    backlog_mean: f64,
    backlog_max: f64,
    queries_per_s: f64,
    lags: Lags,
    errors: Vec<String>,
}

/// Heartbeats per second of one window against a fresh, pre-fed
/// runtime: the two sides of `obs.overhead_ratio`.
pub fn throughput(seed: u64, streams: u64, obs: bool, window: Duration) -> f64 {
    let clock = VirtualClock::new();
    let runtime = Arc::new(Runtime::on_virtual(&spec(obs), &clock));
    let mut driver = prefeed(&runtime, &clock, seed, streams, obs);
    let before = runtime.counts().applied;
    let started = Instant::now();
    driver.pump(Some(started + window), u64::MAX, false);
    let elapsed = started.elapsed().as_secs_f64();
    let rate = (runtime.counts().applied - before) as f64 / elapsed;
    driver.close();
    rate
}

pub fn run(plan: &Plan, variant: Variant) -> Report {
    let mut report = Report::new(variant.name(), plan.seed, plan.seconds, plan.traced);
    let streams = variant.streams(plan);
    let obs = variant == Variant::Obs;
    let spec = spec(obs);

    // Set-up: the runtime and a thousand beats into every stream. The
    // cheaper variant repeats it so the reported time is a median.
    let reps = match variant {
        Variant::Obs if !plan.traced => 3,
        _ => 1,
    };
    let mut setup_s = Vec::new();
    for _ in 1..reps {
        let started = Instant::now();
        let clock = VirtualClock::new();
        let runtime = Arc::new(Runtime::on_virtual(&spec, &clock));
        prefeed(&runtime, &clock, plan.seed, streams, obs);
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let started = Instant::now();
    let clock = VirtualClock::new();
    let runtime = Arc::new(Runtime::on_virtual(&spec, &clock));
    let mut driver = prefeed(&runtime, &clock, plan.seed, streams, obs);
    setup_s.push(started.elapsed().as_secs_f64());
    report.record("setup_s", setup_s);

    let window = Duration::from_secs_f64(plan.window_s() - QUERY_MS as f64 / 1e3);
    let mut rng = Rng::new(plan.seed ^ 0x51);
    let windows = collect_windows(plan.windows(), plan.max_rerun(), |_| {
        let stat_before = procfs::cpu_times();
        let cpu_before = procfs::thread_cpu();
        let applied_before = runtime.counts().applied;
        let started = Instant::now();
        let pumped = driver.pump(Some(started + window), u64::MAX, true);
        let elapsed = started.elapsed().as_secs_f64();
        let applied = (runtime.counts().applied - applied_before).max(1);
        let cpu_after = procfs::thread_cpu();
        let worker_cpu =
            procfs::cpu_between(&cpu_before, &cpu_after, |n| n.starts_with("twofd-shard-"));
        let mut w = Window {
            hb_per_s: applied as f64 / elapsed,
            worker_cpu_ns_per_hb: worker_cpu as f64 / applied as f64,
            ingest_ns_per_hb: pumped.ingest_ns as f64 / pumped.sent.max(1) as f64,
            backlog_mean: pumped.backlog_sum as f64 / pumped.chunks.max(1) as f64,
            backlog_max: pumped.backlog_max as f64,
            lags: pumped.lags,
            ..Window::default()
        };
        if worker_cpu == 0 {
            w.errors
                .push("no twofd-shard-* thread found to attribute CPU to".into());
        }
        // The query client, on the table the window left behind.
        let (qps, _) = query_burst(
            &*runtime,
            streams,
            Duration::from_millis(QUERY_MS),
            &mut rng,
        );
        w.queries_per_s = qps;
        let env = WindowEnv {
            steal_ratio: procfs::steal_ratio(stat_before, procfs::cpu_times()),
            ..WindowEnv::default()
        };
        (w, env)
    });
    let ws: Vec<Window> = report.take_windows(windows);

    let each = |f: fn(&Window) -> f64| ws.iter().map(f).collect::<Vec<f64>>();
    report.record("hb_per_s", each(|w| w.hb_per_s));
    report.record("cpu_ns_per_hb", each(|w| w.worker_cpu_ns_per_hb));
    report.record("output_queries_per_s", each(|w| w.queries_per_s));
    report.record(
        "shard.worker_cpu_ns_per_hb",
        each(|w| w.worker_cpu_ns_per_hb),
    );
    report.record("shard.ingest_batch_ns_per_hb", each(|w| w.ingest_ns_per_hb));
    report.record("shard.backlog_mean", each(|w| w.backlog_mean));
    report.record("shard.backlog_max", each(|w| w.backlog_max));
    let lags: Vec<Lags> = ws.iter().map(|w| w.lags.clone()).collect();
    record_lags(&mut report, &lags);

    // Correctness: exact accounting and the sampled timelines.
    driver.close();
    let counts = runtime.counts();
    let mut errors: Vec<String> = ws.into_iter().flat_map(|w| w.errors).collect();
    if counts.received != counts.applied + counts.dropped || counts.received != driver.sent {
        errors.push(format!(
            "accounting: sent {} received {} applied {} dropped {}",
            driver.sent, counts.received, counts.applied, counts.dropped
        ));
    }
    if counts.events_dropped > 0 {
        errors.push(format!("{} events dropped", counts.events_dropped));
    }
    errors.extend(driver.check_against_reference(spec.margin_s));
    report.record_one("shard.dropped", counts.dropped as f64);
    report.record_one("shard.stale", counts.stale as f64);
    report.record_one("shard.events_dropped", counts.events_dropped as f64);
    report.record_one("shard.sweep_count", counts.sweeps as f64);
    report.record_one("shard.sweep_p50_us", runtime.sweep_p50_us());
    let expected = streams + 2 * driver.silences;
    let lost = driver.sent - counts.applied.min(driver.sent);
    let sent = driver.sent;
    drop(driver);
    account(&mut report, expected, sent, lost, errors);

    if plan.traced {
        if obs {
            let started = Instant::now();
            let scrapes = 3;
            for _ in 0..scrapes {
                runtime.render();
            }
            let ms = started.elapsed().as_secs_f64() * 1e3 / f64::from(scrapes);
            report.record_one("obs.render_ms", ms);
        }
        drop(runtime);
        layers::bank_path(plan, variant, &mut report);
    }
    super::finish(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pending_pairs_events_with_their_silence_even_when_the_reader_lags() {
        let mut p = Pending::default();
        assert_eq!(p.trusted(), None, "the initial Trust follows no silence");
        p.started(100);
        p.resumed(1_000);
        p.started(200);
        // The reader is a whole silence behind the producer.
        assert_eq!(p.suspected(), Some(100));
        assert_eq!(p.trusted(), Some(1_000));
        p.resumed(2_000);
        assert_eq!(p.suspected(), Some(200));
        assert_eq!(p.trusted(), Some(2_000));
        assert_eq!(p.suspected(), None);
        // More than a ring behind: the slot was overwritten, no sample.
        for k in 0..=Pending::RING as u64 {
            p.started(k);
        }
        assert_eq!(p.suspected(), None);
        assert_eq!(p.suspected(), Some(1));
    }

    #[test]
    fn schedule_is_on_time_seeded_and_silences_last_two_beats() {
        let mut a = Schedule::new(5, 300, PREFEED);
        let mut b = Schedule::new(5, 300, PREFEED);
        let mut silences = 0;
        let mut skipped_in_a_row = vec![0u8; 300];
        for seq in 0..PREFEED + 400 {
            for position in 0..300 {
                let stream = a.order[position] as usize;
                match (a.beat(position, seq), b.beat(position, seq)) {
                    (
                        Beat::Emit {
                            arrival_ns,
                            resumes,
                        },
                        Beat::Emit {
                            arrival_ns: other, ..
                        },
                    ) => {
                        assert_eq!(arrival_ns, other);
                        assert_eq!(
                            arrival_ns,
                            seq * INTERVAL_NS + position as u64 * INTERVAL_NS / 300
                        );
                        assert_eq!(resumes, skipped_in_a_row[stream] > 0);
                        assert!(
                            skipped_in_a_row[stream] == 0
                                || skipped_in_a_row[stream] == SILENT_BEATS
                        );
                        skipped_in_a_row[stream] = 0;
                    }
                    (Beat::Skip { first }, Beat::Skip { first: other }) => {
                        assert_eq!(first, other);
                        assert!(seq >= PREFEED, "no silence while windows fill");
                        assert_eq!(first, skipped_in_a_row[stream] == 0);
                        skipped_in_a_row[stream] += 1;
                        silences += u64::from(first);
                    }
                    _ => panic!("same seed, different schedule"),
                }
            }
        }
        // One beat in a hundred starts one: 300 streams x 400 beats.
        assert!((800..1600).contains(&silences), "{silences}");
        assert_ne!(Schedule::new(6, 300, PREFEED).order, a.order);
    }
}
