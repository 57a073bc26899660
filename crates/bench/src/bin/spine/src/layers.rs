//! The traced pass: each workload's seeded schedule replayed *staged* —
//! one harness thread drives every stage through its public function
//! and records a span per call, one root span per 64-heartbeat batch —
//! plus probes of the layers a batch does not reach. Per-layer metrics
//! are self time per unit of work; end-to-end metrics never come from
//! here.

use crate::api::{
    self, Bank, BatchRx, Job, ObsProbe, Runtime, SimLink, SlabProbe, Verdicts, VirtualClock,
    WanTrace, WheelProbe, INTERVAL_NS, WIRE,
};
use crate::metrics::Report;
use crate::span::{Totals, Tracer};
use crate::workloads::core::{self, Beat, Schedule, Variant, CHUNK, PREFEED};
use crate::workloads::{live, live_fleet, query_mix, replay_wan, Plan};
use std::collections::BTreeMap;
use std::io::BufWriter;
use std::net::UdpSocket;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `crates/bench/results/spine/`, next to this package.
pub fn results_dir() -> PathBuf {
    PathBuf::from(concat!(
        env!("CARGO_MANIFEST_DIR"),
        "/../../../results/spine"
    ))
}

/// Writes the spans out, folds them into the report and sets
/// `trace.overhead_ratio` from the staged pass's own heartbeat rate.
fn close(
    tracer: &Tracer,
    staged_hb_per_s: f64,
    report: &mut Report,
    layers: &[(&str, &'static str, Fold)],
) {
    let path = results_dir().join(format!("trace_{}.jsonl", report.workload));
    let written = std::fs::create_dir_all(results_dir())
        .and_then(|_| std::fs::File::create(&path))
        .and_then(|file| tracer.write_jsonl(&mut BufWriter::new(file)));
    match written {
        Ok(()) => report.span_file = Some(path.display().to_string()),
        Err(e) => report.error(format!("span file {}: {e}", path.display())),
    }
    let totals: BTreeMap<&'static str, Totals> = tracer.totals();
    for (span, metric, fold) in layers {
        let Some(t) = totals.get(span) else {
            report.error(format!("the traced pass recorded no {span} span"));
            continue;
        };
        report.record_one(
            metric,
            match fold {
                Fold::NsPerUnit => t.ns_per_unit(),
                Fold::UsPerCall => t.us_per_call(),
            },
        );
    }
    let untraced = report.value("hb_per_s").unwrap_or(f64::NAN);
    report.record_one("trace.overhead_ratio", staged_hb_per_s / untraced);
}

#[derive(Clone, Copy)]
enum Fold {
    NsPerUnit,
    UsPerCall,
}

/// Draws the next chunk of an on-time schedule.
struct Beats {
    schedule: Schedule,
    seq: u64,
    position: usize,
}

impl Beats {
    /// Silences start from the third beat: the staged pass is short.
    fn new(seed: u64, streams: u64, quiet_until: u64) -> Beats {
        Beats {
            schedule: Schedule::new(seed, streams, quiet_until),
            seq: 0,
            position: 0,
        }
    }

    fn chunk(&mut self, jobs: &mut Vec<Job>) {
        jobs.clear();
        while jobs.len() < CHUNK {
            if let Beat::Emit { arrival_ns, .. } = self.schedule.beat(self.position, self.seq) {
                jobs.push(api::job(
                    self.schedule.order[self.position],
                    self.seq,
                    arrival_ns,
                ));
            }
            self.position += 1;
            if self.position == self.schedule.order.len() {
                self.position = 0;
                self.seq += 1;
            }
        }
    }
}

/// `live_fleet` staged: `wire.encode → intake.send_batch →
/// intake.recv_batch → wire.decode → shard.ingest_batch → shard.flush →
/// shard.sweep_now → events.drain` per batch, on one socket connected
/// to itself, then the single-datagram and in-memory transport probes.
pub fn live_path(plan: &Plan, report: &mut Report) {
    let clock = VirtualClock::new();
    let runtime = Runtime::on_virtual(&live::SPEC, &clock);
    let socket = UdpSocket::bind(("127.0.0.1", 0)).expect("bind the staged socket");
    socket
        .connect(socket.local_addr().expect("bound address"))
        .expect("connect the staged socket to itself");
    socket
        .set_read_timeout(Some(Duration::from_millis(200)))
        .expect("set a read timeout");
    let mut rx = BatchRx::new();
    let mut beats = Beats::new(plan.seed, plan.streams(live_fleet::STREAMS), 2);
    let mut jobs: Vec<Job> = Vec::with_capacity(CHUNK);
    let mut frames = vec![[0u8; WIRE]; CHUNK];
    let mut decoded: Vec<Job> = Vec::with_capacity(CHUNK);
    let mut tracer = Tracer::new();
    let mut heartbeats = 0u64;

    let budget = Duration::from_secs_f64(plan.staged_s() * 0.7);
    let started = Instant::now();
    while started.elapsed() < budget {
        beats.chunk(&mut jobs);
        tracer.span("batch", |t| {
            t.leaf("wire.encode", || {
                for (frame, &(stream, seq, arrival, _)) in frames.iter_mut().zip(&jobs) {
                    api::encode(stream, seq, arrival.0, frame);
                }
                jobs.len() as u64
            });
            let refs: Vec<&[u8]> = frames[..jobs.len()].iter().map(|f| &f[..]).collect();
            t.leaf("intake.send_batch", || {
                api::send_batch(&socket, &refs).unwrap_or(0) as u64
            });
            // The socket is pre-filled: one receive returns the batch.
            let mut got = 0;
            t.leaf("intake.recv_batch", || {
                got = rx.recv(&socket).unwrap_or(0);
                got as u64
            });
            t.leaf("wire.decode", || {
                decoded.clear();
                for i in 0..got {
                    if let Some((stream, seq, sent_ns)) = api::decode(rx.datagram(i)) {
                        decoded.push(api::job(stream, seq, sent_ns));
                    }
                }
                decoded.len() as u64
            });
            t.leaf("shard.ingest_batch", || {
                runtime.ingest(&decoded);
                decoded.len() as u64
            });
            if let Some((_, _, arrival, _)) = decoded.last() {
                clock.advance_to_ns(arrival.0);
            }
            t.leaf("shard.flush", || {
                runtime.flush();
                1
            });
            t.leaf("shard.sweep_now", || {
                runtime.sweep_now();
                1
            });
            t.leaf("events.drain", || {
                let mut drained = 0;
                while runtime.try_event().is_some() {
                    drained += 1;
                }
                drained
            });
            ((), decoded.len() as u64)
        });
        heartbeats += decoded.len() as u64;
    }
    let staged_hb_per_s = heartbeats as f64 / started.elapsed().as_secs_f64();
    if runtime.counts().applied != heartbeats {
        report.error(format!(
            "staged live path: {heartbeats} heartbeats sent to self, {} applied",
            runtime.counts().applied
        ));
    }

    // One datagram per receive: the cost batching amortizes.
    let frame = frames[0];
    for _ in 0..2_000 {
        if api::send_batch(&socket, &[&frame[..]]).unwrap_or(0) == 1 {
            tracer.leaf("intake.recv_single", || {
                rx.recv(&socket).unwrap_or(0) as u64
            });
        }
    }
    // The in-memory transport: send and batched receive, no kernel.
    let mut link = SimLink::new(4 * CHUNK);
    for _ in 0..500 {
        tracer.leaf("transport.sim", || {
            for f in &frames {
                let _ = link.send(f);
            }
            let got = link.recv().unwrap_or(0);
            (0..got)
                .map(|i| link.datagram(i).len().min(1))
                .sum::<usize>() as u64
        });
    }

    use Fold::{NsPerUnit, UsPerCall};
    close(
        &tracer,
        staged_hb_per_s,
        report,
        &[
            ("wire.encode", "wire.encode_ns", NsPerUnit),
            ("wire.decode", "wire.decode_ns", NsPerUnit),
            (
                "intake.send_batch",
                "intake.send_batch_ns_per_dgram",
                NsPerUnit,
            ),
            (
                "intake.recv_batch",
                "intake.recv_batch_ns_per_dgram",
                NsPerUnit,
            ),
            (
                "intake.recv_single",
                "intake.recv_single_ns_per_dgram",
                NsPerUnit,
            ),
            ("transport.sim", "transport.sim_ns_per_dgram", NsPerUnit),
            (
                "shard.ingest_batch",
                "shard.ingest_batch_ns_per_hb",
                NsPerUnit,
            ),
            ("shard.flush", "shard.flush_us", UsPerCall),
            ("shard.sweep_now", "shard.sweep_now_us", UsPerCall),
        ],
    );
}

/// `core_*` staged on a harness-owned `ProcessSet` with full windows:
/// `multi.apply → multi.sweep → multi.next_expiry` per batch; then the
/// slab and wheel on their own (`core_wide`), or the obs primitives
/// and the obs-on ÷ obs-off throughput ratio (`core_obs`).
pub fn bank_path(plan: &Plan, variant: Variant, report: &mut Report) {
    let streams = variant.streams(plan);
    let mut bank = Bank::new(core::spec(false).margin_s);
    let mut beats = Beats::new(plan.seed, streams, PREFEED);
    let mut jobs: Vec<Job> = Vec::with_capacity(CHUNK);
    while beats.seq < PREFEED {
        beats.chunk(&mut jobs);
        for &(stream, seq, arrival, _) in &jobs {
            bank.apply(stream, seq, arrival.0);
        }
        // Sweep as a worker does after each drain, or the wheel keeps
        // every superseded horizon of the fill (32 M entries).
        bank.sweep(jobs.last().map_or(0, |j| j.2 .0));
    }
    bank.take_events();

    let mut tracer = Tracer::new();
    let mut heartbeats = 0u64;
    let budget = Duration::from_secs_f64(plan.staged_s() * 0.3);
    let started = Instant::now();
    while started.elapsed() < budget {
        beats.chunk(&mut jobs);
        tracer.span("batch", |t| {
            t.leaf("multi.apply", || {
                for &(stream, seq, arrival, _) in &jobs {
                    bank.apply(stream, seq, arrival.0);
                }
                jobs.len() as u64
            });
            let now = jobs.last().map_or(0, |j| j.2 .0);
            t.leaf("multi.sweep", || bank.sweep(now) as u64);
            t.leaf("multi.next_expiry", || {
                u64::from(bank.next_expiry_ns().is_some())
            });
            ((), jobs.len() as u64)
        });
        heartbeats += jobs.len() as u64;
        bank.take_events();
    }
    let staged_hb_per_s = heartbeats as f64 / started.elapsed().as_secs_f64();
    drop(bank);

    use Fold::NsPerUnit;
    let mut layers = vec![
        ("multi.sweep", "multi.sweep_ns_per_expiry", NsPerUnit),
        ("multi.next_expiry", "multi.next_expiry_ns", NsPerUnit),
    ];
    match variant {
        Variant::Wide => {
            layers.push(("multi.apply", "multi.apply_wide_ns", NsPerUnit));
            // Interning new keys, then scheduling and harvesting one
            // horizon per slot, a batch at a time.
            let mut slab = SlabProbe::new();
            let mut wheel = WheelProbe::new();
            for batch in 0..(streams / CHUNK as u64) {
                let keys = batch * CHUNK as u64..(batch + 1) * CHUNK as u64;
                tracer.leaf("slab.intern", || {
                    keys.clone()
                        .map(|k| u64::from(slab.intern(k) as u64 == k))
                        .sum()
                });
                tracer.leaf("wheel.insert", || {
                    for k in keys.clone() {
                        wheel.insert(k as u32, 2 * INTERVAL_NS + k * INTERVAL_NS / streams);
                    }
                    CHUNK as u64
                });
            }
            for step in 0..100 {
                tracer.leaf("wheel.advance", || {
                    wheel.advance(2 * INTERVAL_NS + (step + 1) * INTERVAL_NS / 100) as u64
                });
            }
            layers.push(("slab.intern", "slab.intern_ns", NsPerUnit));
            layers.push(("wheel.insert", "wheel.insert_ns", NsPerUnit));
            layers.push(("wheel.advance", "wheel.advance_ns_per_due", NsPerUnit));
        }
        Variant::Obs => {
            layers.push(("multi.apply", "multi.apply_ns", NsPerUnit));
            let mut probe = ObsProbe::new();
            let mut seq = 0u64;
            for batch in 0..4_000u64 {
                tracer.leaf("obs.tracker", || {
                    for _ in 0..CHUNK {
                        seq += 1;
                        probe.track(seq, seq * INTERVAL_NS, (seq + 2) * INTERVAL_NS);
                    }
                    CHUNK as u64
                });
                tracer.leaf("obs.hist_observe", || {
                    for k in 0..CHUNK as u64 {
                        probe.observe(INTERVAL_NS + (batch * 64 + k) * 1_000);
                    }
                    CHUNK as u64
                });
                tracer.leaf("obs.counter_inc", || {
                    for _ in 0..CHUNK {
                        probe.inc();
                    }
                    CHUNK as u64
                });
                if batch % 512 == 511 {
                    // What a scrape does to the tracker: prune.
                    std::hint::black_box(probe.scrape(seq * INTERVAL_NS));
                }
            }
            std::hint::black_box(probe.totals());
            layers.push(("obs.tracker", "obs.tracker_ns", NsPerUnit));
            layers.push(("obs.hist_observe", "obs.hist_observe_ns", NsPerUnit));
            layers.push(("obs.counter_inc", "obs.counter_inc_ns", NsPerUnit));
            // The same schedule with observability on and off.
            let window = Duration::from_secs_f64(plan.staged_s() * 0.4);
            let on = core::throughput(plan.seed, streams, true, window);
            let off = core::throughput(plan.seed, streams, false, window);
            report.record_one("obs.overhead_ratio", on / off);
        }
    }
    close(&tracer, staged_hb_per_s, report, &layers);
}

/// `query_mix` staged: a batch in, a flush, then 64 verdict queries
/// and the three snapshot calls.
pub fn query_path(plan: &Plan, report: &mut Report) {
    let clock = VirtualClock::new();
    let runtime = Runtime::on_virtual(&live::SPEC, &clock);
    let streams = plan.streams(query_mix::STREAMS);
    let mut beats = Beats::new(plan.seed, streams, u64::MAX);
    let mut jobs: Vec<Job> = Vec::with_capacity(CHUNK);
    let mut tracer = Tracer::new();
    let mut heartbeats = 0u64;
    let mut batches = 0u64;
    let budget = Duration::from_secs_f64(plan.staged_s() * 0.7);
    let started = Instant::now();
    while started.elapsed() < budget {
        beats.chunk(&mut jobs);
        batches += 1;
        tracer.span("batch", |t| {
            t.leaf("shard.ingest_batch", || {
                runtime.ingest(&jobs);
                jobs.len() as u64
            });
            if let Some((_, _, arrival, _)) = jobs.last() {
                clock.advance_to_ns(arrival.0);
            }
            t.leaf("shard.flush", || {
                runtime.flush();
                1
            });
            t.leaf("shard.output", || {
                jobs.iter()
                    .map(|j| u64::from(runtime.is_trusted(j.0).is_some()))
                    .sum()
            });
            if batches.is_multiple_of(256) {
                t.leaf("shard.statuses", || runtime.statuses() as u64);
                t.leaf("shard.suspected", || 1 + runtime.suspected() as u64);
                t.leaf("shard.stats", || runtime.stats_streams() as u64);
            }
            ((), jobs.len() as u64)
        });
        heartbeats += jobs.len() as u64;
    }
    let staged_hb_per_s = heartbeats as f64 / started.elapsed().as_secs_f64();
    close(
        &tracer,
        staged_hb_per_s,
        report,
        &[
            (
                "shard.ingest_batch",
                "shard.ingest_batch_ns_per_hb",
                Fold::NsPerUnit,
            ),
            ("shard.flush", "shard.flush_us", Fold::UsPerCall),
        ],
    );
}

/// `replay_wan` staged: trace generation, each detector of the
/// comparison fed batch by batch at a full window, one replay per
/// detector and the QoS aggregation after it.
pub fn replay_path(plan: &Plan, trace: &WanTrace, report: &mut Report) {
    let mut tracer = Tracer::new();
    let samples = replay_wan::samples(plan);
    let generated = tracer.span("trace.gen", |_| {
        let generated = WanTrace::generate(samples, plan.seed ^ 1);
        let sent = generated.sent();
        (generated, sent)
    });
    drop(generated);

    let deliveries = trace.deliveries();
    let specs = api::paper_specs();
    let mut layers = vec![
        ("trace.gen", "trace.gen_ns_per_sample", Fold::NsPerUnit),
        ("replay", "replay.ns_per_hb", Fold::NsPerUnit),
        ("replay.metrics", "replay.metrics_us", Fold::UsPerCall),
    ];
    let mut heartbeats = 0u64;
    let mut replay_s = 0.0;
    for spec in &specs {
        // chen(1) has no window to fill and shares chen(1000)'s code.
        let (span, metric) = match spec.label().as_str() {
            "2w-fd(1,1000)" => ("detector.2w-fd", "detector.2w-fd_ns"),
            "chen(1000)" => ("detector.chen", "detector.chen_ns"),
            "phi(1000)" => ("detector.phi", "detector.phi_ns"),
            "ed(1000)" => ("detector.ed", "detector.ed_ns"),
            "bertier(1000)" => ("detector.bertier", "detector.bertier_ns"),
            _ => continue,
        };
        layers.push((span, metric, Fold::NsPerUnit));
        let tuning = replay_wan::tuning(spec, 1);
        let mut detector = spec.build(tuning);
        let (fill, measured) = deliveries.split_at(1000.min(deliveries.len()));
        for d in fill {
            detector.feed(d.seq, d.at_ns);
        }
        for batch in measured.chunks(CHUNK).take(4_000) {
            tracer.leaf(span, || {
                batch
                    .iter()
                    .map(|d| u64::from(detector.feed(d.seq, d.at_ns).is_some()))
                    .sum::<u64>()
                    .max(batch.len() as u64)
            });
        }
        let started = Instant::now();
        let replayed = tracer.span("replay", |_| {
            let replayed = trace.replay(spec, tuning);
            let n = replayed.heartbeats();
            (replayed, n)
        });
        replay_s += started.elapsed().as_secs_f64();
        heartbeats += replayed.heartbeats();
        tracer.leaf("replay.metrics", || replayed.qos().1.max(1));
    }
    close(&tracer, heartbeats as f64 / replay_s, report, &layers);
}
