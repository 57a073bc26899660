//! Heartbeat ingest throughput: sharded runtime vs the single-mutex
//! baseline it replaced, and inline enum dispatch vs the boxed
//! `Box<dyn FailureDetector>` storage *it* replaced.
//!
//! The old `FleetMonitor` applied every heartbeat to a global
//! `Mutex<ProcessSet>` *on the socket thread*, and suspicion was only
//! observable by querying that same lock. A failure-detection service
//! exists to be read (§V: many applications sharing one monitor), so the
//! configuration that matters is **observed** ingestion: heartbeats
//! arriving while a consumer continuously reads detection state.
//!
//! * baseline observed: a reader thread polls `statuses()` — the old
//!   design's only way to see transitions — holding the global lock for
//!   a full O(streams) scan per poll, which the intake path must then
//!   win back for every single heartbeat;
//! * sharded observed: the reader drains the pushed event channel and
//!   polls `stats()`, which takes one shard lock at a time; intake is a
//!   route + bounded-queue push that never touches a detector lock.
//!
//! The boxed-vs-inline section runs the *same* single-threaded
//! `ProcessSet` workload twice: once with detectors stored as
//! `Box<dyn FailureDetector + Send>` built by a closure (per-stream heap
//! allocation + vtable per call, the pre-spec storage), once stored
//! inline as `AnyDetector` via `DetectorConfig`
//! (match dispatch, contiguous entries). Single-threaded on purpose:
//! it isolates dispatch/allocation cost from scheduling noise.
//!
//! The quiescent (no reader) variants are printed too, for honesty: with
//! nobody reading, a single uncontended mutex is hard to beat and the
//! handoff to workers costs time-sliced CPU on this box.
//!
//! HONESTY NOTE: this container exposes a single CPU core, so shard
//! workers time-slice with the ingest loop and *parallel* end-to-end
//! speedup is not observable here; the observed-intake ratio reflects
//! the architectural change (detector work and full-table scans moved
//! off the socket thread), not core count. On a multi-core host the
//! end-to-end numbers scale with shards as well.
//!
//! Run: `cargo bench -p twofd-bench --bench shard_throughput`
//! (scale with `TWOFD_BENCH_SAMPLES`, the *total* heartbeat count;
//! set `TWOFD_BENCH_QUICK=1` for a seconds-long smoke run — the mode
//! CI uses to keep the bench binary exercised, not a measurement; it
//! writes its scaling matrix under `target/`, never over the tracked
//! `results/`).

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use twofd_bench::samples_from_env;
use twofd_core::{
    DetectorBuilder, DetectorConfig, DetectorSpec, FailureDetector, ProcessSet, TwoWindowFd,
};
use twofd_net::{
    FleetMonitor, Heartbeat, Job, ManualClock, ObsOptions, ShardConfig, ShardRuntime, TimeSource,
    WIRE_SIZE,
};
use twofd_obs::{QosPlan, QosTrackerConfig};
use twofd_sim::time::{Nanos, Span};

const INTERVAL: Span = Span(100_000_000); // 100 ms

/// Smoke-run mode: tiny totals, single repetition. CI sets this to keep
/// every section executing without turning the job into a benchmark.
fn quick() -> bool {
    std::env::var("TWOFD_BENCH_QUICK").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Run only the scaling-matrix section and exit — for iterating on the
/// multi-shard fix without paying for the dispatch/UDP sections. Set
/// `TWOFD_BENCH_SCALING_ONLY=1`.
fn scaling_only() -> bool {
    std::env::var("TWOFD_BENCH_SCALING_ONLY").is_ok_and(|v| !v.is_empty() && v != "0")
}

/// Stream cardinality; override with `TWOFD_BENCH_STREAMS`. The default
/// 10 000 matches the fleet-monitoring scenario; small values keep the
/// whole detector table cache-resident, which isolates dispatch cost
/// from working-set effects in the boxed-vs-inline section.
fn stream_count() -> u64 {
    std::env::var("TWOFD_BENCH_STREAMS")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(10_000)
}

/// The spec-driven (inline `AnyDetector`) construction path.
fn inline_config() -> DetectorConfig {
    DetectorConfig::new(DetectorSpec::TwoWindow { n1: 1, n2: 100 }, INTERVAL, 0.04)
}

/// The pre-spec storage: the same detector boxed by a closure, exactly
/// as the runtime used to hold it.
fn boxed_builder() -> impl Fn(&u64) -> Box<dyn FailureDetector + Send> {
    |_stream| Box::new(TwoWindowFd::new(1, 100, INTERVAL, Span::from_millis(40)))
}

/// Round-robin heartbeat schedule: every stream beats once per interval.
fn schedule(total: u64, streams: u64) -> Vec<(u64, u64, Nanos)> {
    let beats = total.div_ceil(streams);
    let mut jobs = Vec::with_capacity((beats * streams) as usize);
    for seq in 1..=beats {
        for stream in 0..streams {
            // Spread arrivals inside the interval so per-stream inter-
            // arrival times stay realistic.
            let at = Nanos(seq * INTERVAL.0 + stream * (INTERVAL.0 / streams));
            jobs.push((stream, seq, at));
        }
    }
    jobs
}

fn rate(jobs: usize, elapsed: Duration) -> f64 {
    jobs as f64 / elapsed.as_secs_f64()
}

/// Repetitions per configuration; the best run is reported. On a shared
/// single-core container scheduling noise only ever *slows* a run, so
/// the max is the least-interference capacity estimate.
fn reps() -> usize {
    if quick() {
        1
    } else {
        3
    }
}

fn best_of(mut measure: impl FnMut() -> (f64, f64)) -> (f64, f64) {
    let mut best = (0.0f64, 0.0f64);
    for _ in 0..reps() {
        let (a, b) = measure();
        best.0 = best.0.max(a);
        best.1 = best.1.max(b);
    }
    best
}

/// The pre-shard design: heartbeats applied inline under one global
/// lock. With `observed`, a reader thread polls `statuses()` on that
/// lock throughout — the only way the old design surfaced transitions.
/// Generic over the builder so the same workload measures boxed vs
/// inline detector storage.
fn baseline<B>(jobs: &[(u64, u64, Nanos)], builder: B, observed: bool) -> f64
where
    B: DetectorBuilder<u64> + Send + 'static,
    B::Detector: Send,
{
    let set = Arc::new(std::sync::Mutex::new(ProcessSet::new(builder)));
    let stop = Arc::new(AtomicBool::new(false));
    let reader = observed.then(|| {
        let set = Arc::clone(&set);
        let stop = Arc::clone(&stop);
        let now = jobs.last().unwrap().2;
        std::thread::spawn(move || {
            let mut scans = 0u64;
            while !stop.load(Ordering::Relaxed) {
                scans += set.lock().unwrap().statuses(now).len() as u64;
            }
            scans
        })
    });
    let mut events = Vec::new();
    let t0 = Instant::now();
    for &(stream, seq, at) in jobs {
        events.clear();
        set.lock()
            .unwrap()
            .on_heartbeat_incarnated(stream, 0, seq, at, &mut events);
    }
    let elapsed = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = reader {
        let _ = h.join();
    }
    rate(jobs.len(), elapsed)
}

/// Single-threaded sweep pass over the whole table, as the shard workers
/// run it between batches. Returns the sweep-loop rate (streams/s).
fn sweep_rate<B>(jobs: &[(u64, u64, Nanos)], builder: B, sweeps: usize) -> f64
where
    B: DetectorBuilder<u64>,
{
    let mut set = ProcessSet::new(builder);
    let mut events = Vec::new();
    for &(stream, seq, at) in jobs {
        set.on_heartbeat_incarnated(stream, 0, seq, at, &mut events);
    }
    events.clear();
    let horizon = jobs.last().unwrap().2 + Span::from_secs(60);
    let t0 = Instant::now();
    for _ in 0..sweeps {
        // counts() walks every entry's current decision — the same
        // cache-locality-bound scan the sweeper and stats path pay.
        std::hint::black_box(set.counts(horizon));
        set.sweep(horizon, &mut events);
        events.clear();
    }
    rate(sweeps * set.len(), t0.elapsed())
}

/// Clock mode for [`sharded`]: pinning the clock at the horizon before
/// ingest makes every decision expire instantly (maximal sweep work —
/// the throughput sections' convention), while advancing it alongside
/// ingest keeps streams on time, the operating condition that isolates
/// per-heartbeat instrumentation cost from mistake-path churn.
#[derive(Clone, Copy, PartialEq)]
enum ClockMode {
    Pinned,
    Live,
}

/// The sharded runtime. With `observed`, a reader drains the event
/// channel and polls `stats()` throughout. `batch` sets the handoff
/// granularity: `ingest_batch` over chunks of that size (64 is the
/// batched-intake thread's shape, 1 a heartbeat per call). Returns
/// (intake, end-to-end) rates; intake is the socket-thread handoff rate,
/// end-to-end includes `flush()` (all detector work done).
fn sharded(
    jobs: &[(u64, u64, Nanos)],
    n_shards: usize,
    observed: bool,
    sweep_interval: Duration,
    obs: ObsOptions,
    clock_mode: ClockMode,
    batch: usize,
) -> (f64, f64) {
    let clock = Arc::new(ManualClock::new());
    let rt = Arc::new(ShardRuntime::new(
        ShardConfig {
            detector: inline_config().into(),
            n_shards,
            // Sized so backpressure never drops during the bench: we are
            // measuring throughput, not shedding.
            queue_capacity: jobs.len() / n_shards + 1024,
            sweep_interval,
            event_capacity: 1 << 15,
            obs,
        },
        clock.clone() as Arc<dyn TimeSource>,
    ));
    if clock_mode == ClockMode::Pinned {
        clock.advance_to(jobs.last().unwrap().2);
    }

    let stop = Arc::new(AtomicBool::new(false));
    let reader = observed.then(|| {
        let rt = Arc::clone(&rt);
        let stop = Arc::clone(&stop);
        std::thread::spawn(move || {
            let mut seen = 0u64;
            while !stop.load(Ordering::Relaxed) {
                seen += rt.events().try_iter().count() as u64;
                seen += rt.stats().streams() as u64;
            }
            seen
        })
    });

    // Widen to wire jobs (incarnation 0 — crash-stop traffic) outside
    // the timed section.
    let jobs4: Vec<Job> = jobs.iter().map(|&(s, q, at)| (s, q, at, 0)).collect();

    let t0 = Instant::now();
    for chunk in jobs4.chunks(batch) {
        if clock_mode == ClockMode::Live {
            clock.advance_to(chunk.last().unwrap().2);
        }
        rt.ingest_batch(chunk);
    }
    let ingest_elapsed = t0.elapsed();
    rt.flush();
    let total_elapsed = t0.elapsed();
    stop.store(true, Ordering::Relaxed);
    if let Some(h) = reader {
        let _ = h.join();
    }

    let stats = rt.stats();
    assert_eq!(stats.dropped(), 0, "bench queues must not shed");
    (
        rate(jobs.len(), ingest_elapsed),
        rate(jobs.len(), total_elapsed),
    )
}

fn main() {
    let total = samples_from_env(if quick() { 20_000 } else { 200_000 });
    let streams = stream_count();
    let jobs = schedule(total, streams);
    println!(
        "# shard_throughput: {} heartbeats across {} streams ({} cores visible)",
        jobs.len(),
        streams,
        std::thread::available_parallelism().map_or(1, usize::from),
    );

    // The scaling matrix the wheel/slab rework exists for: sustained
    // observed intake across stream cardinalities × shard counts.
    // Before the rework, 8 shards *collapsed* below 4 (every worker
    // wake paid a stale-horizon heap probe plus a HashMap-walking sweep
    // over its whole shard); the wheel parks workers on live horizons
    // only and sweeps by harvesting due buckets, so adding shards must
    // not cost sustained intake.
    println!("\n# scaling matrix (observed, batch-64 handoff, pinned clock)");
    let cells = scaling_matrix();
    match write_scaling_json(&cells) {
        Ok(path) => println!("wrote {}", path.display()),
        Err(e) => println!("could not write BENCH_scaling.json: {e}"),
    }
    if scaling_only() {
        return;
    }

    println!("\n# dispatch (single-threaded ProcessSet, same workload, no scheduling noise)");
    let (boxed_quiet, _) = best_of(|| (baseline(&jobs, boxed_builder(), false), 0.0));
    println!("boxed   heartbeat path: {boxed_quiet:>12.0} hb/s (Box<dyn> + vtable, pre-spec)");
    let (inline_quiet, _) = best_of(|| (baseline(&jobs, inline_config(), false), 0.0));
    println!(
        "inline  heartbeat path: {inline_quiet:>12.0} hb/s (AnyDetector, {:>6.2}x boxed)",
        inline_quiet / boxed_quiet
    );
    const SWEEPS: usize = 50;
    let (boxed_sweep, _) = best_of(|| (sweep_rate(&jobs, boxed_builder(), SWEEPS), 0.0));
    println!("boxed   sweep/scan:     {boxed_sweep:>12.0} streams/s");
    let (inline_sweep, _) = best_of(|| (sweep_rate(&jobs, inline_config(), SWEEPS), 0.0));
    println!(
        "inline  sweep/scan:     {inline_sweep:>12.0} streams/s ({:>6.2}x boxed)",
        inline_sweep / boxed_sweep
    );

    let quiet_base = inline_quiet;
    let (observed_base, _) = best_of(|| (baseline(&jobs, inline_config(), true), 0.0));
    println!("\nbaseline quiescent:  {quiet_base:>12.0} hb/s (no reader; intake == end-to-end)");
    println!(
        "baseline observed:   {observed_base:>12.0} hb/s (statuses() reader on the same lock)"
    );

    let live_sweep = Duration::from_millis(5);
    println!("\n# observed (reader active — the service's operating condition)");
    for n_shards in [1usize, 2, 4, 8] {
        let (intake, e2e) = best_of(|| {
            sharded(
                &jobs,
                n_shards,
                true,
                live_sweep,
                ObsOptions::default(),
                ClockMode::Pinned,
                1,
            )
        });
        println!(
            "{n_shards} shard(s): intake {intake:>12.0} hb/s ({:>6.2}x) | end-to-end {e2e:>12.0} hb/s ({:>6.2}x)",
            intake / observed_base,
            e2e / observed_base,
        );
    }

    println!("\n# quiescent (no reader — favours the single mutex on one core)");
    for n_shards in [1usize, 2, 4, 8] {
        let (intake, e2e) = best_of(|| {
            sharded(
                &jobs,
                n_shards,
                false,
                live_sweep,
                ObsOptions::default(),
                ClockMode::Pinned,
                1,
            )
        });
        println!(
            "{n_shards} shard(s): intake {intake:>12.0} hb/s ({:>6.2}x) | end-to-end {e2e:>12.0} hb/s ({:>6.2}x)",
            intake / quiet_base,
            e2e / quiet_base,
        );
    }

    // Observability overhead: the same quiescent workload with the full
    // per-stream instrumentation on (inter-arrival histogram + online
    // QoS trackers) vs the registry-counters-only default. Counters are
    // always on (they *are* the runtime's accounting), so "uninstr." is
    // the shipping default, not a stripped build. The clock advances
    // with ingest (streams stay on time): the pinned-clock convention
    // above expires every decision instantly, and that synthetic
    // 100%-mistake storm would charge the trackers' mistake path for
    // work no healthy fleet does.
    println!("\n# observability overhead (on-time streams, 4 shards, end-to-end)");
    let full_obs = || ObsOptions {
        jitter: true,
        qos: Some(QosPlan::Uniform(QosTrackerConfig::cumulative(INTERVAL))),
    };
    let (_, e2e_plain) = best_of(|| {
        sharded(
            &jobs,
            4,
            false,
            live_sweep,
            ObsOptions::default(),
            ClockMode::Live,
            1,
        )
    });
    let (_, e2e_instr) =
        best_of(|| sharded(&jobs, 4, false, live_sweep, full_obs(), ClockMode::Live, 1));
    println!("uninstrumented: {e2e_plain:>12.0} hb/s (registry counters only)");
    println!(
        "instrumented:   {e2e_instr:>12.0} hb/s (jitter hist + QoS trackers, {:>+6.2}% overhead)",
        (e2e_plain / e2e_instr - 1.0) * 100.0
    );

    // Handoff: the same workload pushed through `ingest_batch` over
    // intake-sized chunks. The batched path takes each shard's queue
    // lock once per group and wakes its worker at most once per batch,
    // which is exactly what the `recvmmsg` intake thread does with live
    // traffic.
    println!("\n# handoff: ingest_batch over 64-job chunks (no reader, pinned clock)");
    for n_shards in [4usize, 8] {
        let (batched, _) = best_of(|| {
            sharded(
                &jobs,
                n_shards,
                false,
                live_sweep,
                ObsOptions::default(),
                ClockMode::Pinned,
                64,
            )
        });
        println!("{n_shards} shard(s): batch-64 {batched:>12.0} hb/s");
    }

    // Observed intake on the real loopback UDP path: the recvmmsg
    // batch intake against a sendmmsg blast.
    let udp_total = if quick() { 20_000 } else { 400_000 };
    println!("\n# live UDP intake ({udp_total} datagrams blasted at {streams} streams)");
    let mut best = (0.0f64, 0.0f64);
    for _ in 0..reps() {
        let (r, loss) = udp_blast(udp_total, streams);
        if r > best.0 {
            best = (r, loss);
        }
    }
    println!(
        "batched: observed intake {:>12.0} hb/s ({:>5.1}% of blast survived the socket buffer)",
        best.0,
        best.1 * 100.0,
    );
    println!(
        "# intake = socket-thread handoff rate (what bounds UDP intake);\n\
         # end-to-end on a single-core host cannot show parallel speedup\n\
         # (see module docs)."
    );
}

/// One measured cell of the scaling matrix.
struct ScalingCell {
    streams: u64,
    shards: usize,
    heartbeats: usize,
    /// Sustained observed intake: ingest + all detector work retired
    /// (the acceptance metric — what bounds steady-state absorption).
    sustained: f64,
    /// Socket-thread handoff rate during the burst (scheduler-share
    /// bound on a single-core host; secondary).
    handoff: f64,
}

/// Runs the scaling matrix: observed intake at {10k, 100k, 1M} streams
/// × {1, 2, 4, 8} shards, batch-64 handoff (the `recvmmsg` intake
/// thread's shape), pinned clock (maximal sweep work — the throughput
/// sections' convention). Quick mode keeps every row but drops to one
/// beat per stream and one repetition.
///
/// The headline metric per cell is **sustained** observed intake: the
/// rate at which the monitor ingests *and retires* heartbeats with a
/// reader attached — the rate it can absorb indefinitely without
/// unbounded queue growth, and the number that collapsed before the
/// wheel/slab rework. The raw socket-thread handoff rate is kept as a
/// secondary column, but on a single-core box it measures the producer
/// thread's scheduler share (≈ 1/(workers+1), so it *must* fall as
/// shards rise) rather than anything about the detector architecture;
/// see the module docs.
fn scaling_matrix() -> Vec<ScalingCell> {
    let live_sweep = Duration::from_millis(5);
    let mut cells = Vec::new();
    for streams in [10_000u64, 100_000, 1_000_000] {
        // `schedule` needs at least one beat per stream; full mode gives
        // small fleets enough beats for a steady-state measurement.
        let total = if quick() {
            streams
        } else {
            (streams * 2).max(1_000_000)
        };
        let jobs = schedule(total, streams);
        for n_shards in [1usize, 2, 4, 8] {
            let (handoff, sustained) = best_of(|| {
                sharded(
                    &jobs,
                    n_shards,
                    true,
                    live_sweep,
                    ObsOptions::default(),
                    ClockMode::Pinned,
                    64,
                )
            });
            println!(
                "{streams:>9} streams x {n_shards} shard(s): \
                 sustained {sustained:>12.0} hb/s | handoff {handoff:>12.0} hb/s"
            );
            cells.push(ScalingCell {
                streams,
                shards: n_shards,
                heartbeats: jobs.len(),
                sustained,
                handoff,
            });
        }
        let sustained_at = |n: usize| {
            cells
                .iter()
                .find(|c| c.streams == streams && c.shards == n)
                .map_or(0.0, |c| c.sustained)
        };
        println!(
            "{streams:>9} streams: 8-shard / 4-shard sustained observed intake = {:.2}x",
            sustained_at(8) / sustained_at(4)
        );
    }
    cells
}

/// Emits the scaling matrix as `BENCH_scaling.json` under the workspace
/// root's `results/` (`target/` in quick mode). Hand-rolled writer — the workspace vendors no JSON
/// serializer — with a flat schema so CI and EXPERIMENTS.md can consume
/// it without tooling.
fn write_scaling_json(cells: &[ScalingCell]) -> std::io::Result<std::path::PathBuf> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("../..")
        .join(if quick() { "target" } else { "results" });
    std::fs::create_dir_all(&dir)?;
    let path = dir.join("BENCH_scaling.json");
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str("  \"bench\": \"shard_throughput/scaling\",\n");
    out.push_str(&format!(
        "  \"mode\": \"{}\",\n",
        if quick() { "quick" } else { "full" }
    ));
    out.push_str("  \"batch\": 64,\n");
    out.push_str("  \"observed\": true,\n");
    out.push_str("  \"clock\": \"pinned\",\n");
    out.push_str(&format!("  \"reps\": {},\n", reps()));
    out.push_str(&format!(
        "  \"cores_visible\": {},\n",
        std::thread::available_parallelism().map_or(1, usize::from)
    ));
    out.push_str("  \"rows\": [\n");
    for (i, c) in cells.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"streams\": {}, \"shards\": {}, \"heartbeats\": {}, \
             \"sustained_intake_hb_s\": {:.1}, \"handoff_hb_s\": {:.1}}}{}\n",
            c.streams,
            c.shards,
            c.heartbeats,
            c.sustained,
            c.handoff,
            if i + 1 == cells.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    std::fs::write(&path, out)?;
    Ok(path)
}

/// Blasts `total` heartbeats round-robin across `streams` at a live
/// [`FleetMonitor`] over loopback UDP, as fast as `send(2)` goes, then
/// waits for intake to go quiet. Returns (observed intake rate in hb/s,
/// fraction of the blast that survived the kernel socket buffer). The
/// rate divides *received* heartbeats by the time from first send to the
/// last observed intake growth, so a slow intake that loses half the
/// blast cannot score by draining a small survivor set quickly.
fn udp_blast(total: u64, streams: u64) -> (f64, f64) {
    let monitor = FleetMonitor::spawn_with(ShardConfig {
        detector: inline_config().into(),
        queue_capacity: 1 << 15,
        ..ShardConfig::default()
    })
    .expect("bind fleet monitor");
    let sock = std::net::UdpSocket::bind(("127.0.0.1", 0)).expect("bind blaster");
    sock.connect(monitor.local_addr()).expect("connect");

    // Blast via sendmmsg so the (single-core) sender costs as few time
    // slices as possible: the measurement is the monitor's intake, and a
    // syscall-per-datagram blaster would throttle it.
    let t0 = Instant::now();
    let mut arena = [[0u8; WIRE_SIZE]; 64];
    let mut sent = 0u64;
    let mut seq = 0u64;
    let mut stream = 0u64;
    while sent < total {
        let want = 64.min((total - sent) as usize);
        for slot in arena.iter_mut().take(want) {
            if stream == 0 {
                seq += 1;
            }
            let hb = Heartbeat {
                stream,
                seq,
                sent_at: Nanos(sent),
                incarnation: 0,
            };
            hb.encode_into(slot);
            stream = (stream + 1) % streams;
        }
        let refs: Vec<&[u8]> = arena[..want].iter().map(|b| &b[..]).collect();
        match twofd_net::intake::send_batch(&sock, &refs) {
            Ok(n) => sent += n as u64,
            Err(_) => break,
        }
    }
    // Drain window: sample until `received` stops growing, crediting
    // intake with the instant of its last progress.
    let mut last = 0u64;
    let mut last_growth = Instant::now();
    loop {
        std::thread::sleep(Duration::from_millis(20));
        let now = monitor.received();
        if now > last {
            last = now;
            last_growth = Instant::now();
        } else if last_growth.elapsed() > Duration::from_millis(200) {
            break;
        }
    }
    let stats = monitor.stats();
    assert_eq!(
        stats.received(),
        stats.applied() + stats.dropped(),
        "UDP-path accounting must reconcile"
    );
    let elapsed = last_growth.duration_since(t0);
    (
        last as f64 / elapsed.as_secs_f64(),
        last as f64 / sent as f64,
    )
}
