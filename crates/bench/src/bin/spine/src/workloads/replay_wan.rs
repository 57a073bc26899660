//! `replay_wan` — the paper's own evaluation path: a synthetic WAN
//! trace replayed through the six detectors of the comparison at three
//! tunings each, on one thread. `core::{twofd, chen, bertier, phi, ed,
//! window, estimator, replay, metrics}` and `trace::gen` do everything
//! here; threads, sockets and shards do nothing.
//!
//! Replay has no wall clock, so its lags are read on the trace's own
//! time axis, by the same definitions as elsewhere: `T_D` is
//! `trust_until − send` per heartbeat; the trust path runs from the
//! restoring heartbeat's send stamp to the Trust instant (the WAN
//! delay); and with no sweeper a Suspect is only known at the next
//! arrival, so its lag is the length of the suspicion. These are
//! functions of the seed, not of the host — they move only when
//! detector arithmetic or the trace generator does.

use super::{account, Plan, Rng};
use crate::api::{self, Delivery, Spec, WanTrace};
use crate::layers;
use crate::metrics::Report;
use crate::procfs;
use crate::stats::{collect_windows, percentile, WindowEnv};
use std::time::{Duration, Instant};

/// Trace length at the contract's ten-second run; scales with
/// `--seconds`.
const SAMPLES_PER_WINDOW_SECOND: f64 = 500_000.0;
/// Δto for the Chen family, and Φ / κ for the accrual detectors.
pub const MARGINS: [f64; 3] = [0.04, 0.1, 0.2];
pub const THRESHOLDS: [f64; 3] = [1.0, 2.0, 4.0];
const QUERY_MS: u64 = 150;

pub fn samples(plan: &Plan) -> u64 {
    ((plan.window_s() * SAMPLES_PER_WINDOW_SECOND) as u64).max(20_000)
}

pub fn tuning(spec: &Spec, level: usize) -> f64 {
    if spec.tuned_by_margin() {
        MARGINS[level]
    } else {
        THRESHOLDS[level]
    }
}

/// Intersection of two sorted lists of disjoint intervals.
pub fn intersect(a: &[(u64, u64)], b: &[(u64, u64)]) -> Vec<(u64, u64)> {
    let (mut i, mut j) = (0, 0);
    let mut out = Vec::new();
    while i < a.len() && j < b.len() {
        let start = a[i].0.max(b[j].0);
        let end = a[i].1.min(b[j].1);
        if start < end {
            out.push((start, end));
        }
        if a[i].1 <= b[j].1 {
            i += 1;
        } else {
            j += 1;
        }
    }
    out
}

fn fnv(digest: &mut u64, value: u64) {
    for byte in value.to_le_bytes() {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x0100_0000_01b3);
    }
}

#[derive(Debug, Default)]
struct Window {
    hb_per_s: f64,
    cpu_ns_per_hb: f64,
    queries_per_s: f64,
    heartbeats: u64,
    digest: u64,
    errors: Vec<String>,
}

/// Eighteen replays; checks Eq. 13 at every margin:
/// `Mistakes(2W[1,1000]) = Mistakes(Chen[1]) ∩ Mistakes(Chen[1000])`.
fn one_window(
    trace: &WanTrace,
    specs: &[Spec],
    delivered: u64,
    rng: &mut Rng,
) -> (Window, WindowEnv) {
    let stat_before = procfs::cpu_times();
    let mut w = Window {
        digest: 0xcbf2_9ce4_8422_2325,
        ..Window::default()
    };
    let mut replay_s = 0.0;
    let mut cpu_ns = 0;
    let mut timeline = None;
    for (level, margin) in MARGINS.iter().enumerate() {
        // Timed: the replays. Checking and dropping their logs is not.
        let cpu_before = procfs::own_cpu_ns();
        let started = Instant::now();
        let replays: Vec<_> = specs
            .iter()
            .map(|spec| trace.replay(spec, tuning(spec, level)))
            .collect();
        replay_s += started.elapsed().as_secs_f64();
        cpu_ns += procfs::own_cpu_ns().saturating_sub(cpu_before);

        let logs: Vec<Vec<(u64, u64)>> = replays.iter().map(|r| r.mistakes()).collect();
        for log in &logs {
            for &(start, end) in log {
                fnv(&mut w.digest, start);
                fnv(&mut w.digest, end);
            }
        }
        // paper_specs() order: 2w-fd(1,1000), chen(1), chen(1000), ...
        let both = intersect(&logs[1], &logs[2]);
        if logs[0] != both {
            w.errors.push(format!(
                "Eq. 13 fails at margin {margin} s: 2W made {} mistakes, the intersection holds {}",
                logs[0].len(),
                both.len()
            ));
        }
        if replays.iter().any(|r| r.heartbeats() != delivered) {
            w.errors
                .push("a replay did not process every delivered heartbeat".into());
        }
        w.heartbeats += replays.iter().map(|r| r.heartbeats()).sum::<u64>();
        if level == 1 {
            timeline = Some(replays[0].timeline());
        }
    }
    w.hb_per_s = w.heartbeats as f64 / replay_s;
    w.cpu_ns_per_hb = cpu_ns as f64 / w.heartbeats.max(1) as f64;

    // The reader: verdict queries at seeded instants of the 2W-FD
    // timeline at the middle margin.
    let timeline = timeline.expect("the middle margin was replayed");
    let (from, to) = timeline.span_ns();
    let slot = Duration::from_millis(QUERY_MS);
    let started = Instant::now();
    let mut queries = 0u64;
    let mut trusted = 0u64;
    while started.elapsed() < slot {
        for _ in 0..256 {
            trusted += u64::from(timeline.is_trusted_at(from + rng.below(to - from)));
        }
        queries += 256;
    }
    w.queries_per_s = queries as f64 / started.elapsed().as_secs_f64();
    if trusted == 0 || trusted == queries {
        w.errors.push(format!(
            "{trusted} of {queries} timeline queries answered Trust"
        ));
    }
    let env = WindowEnv {
        steal_ratio: procfs::steal_ratio(stat_before, procfs::cpu_times()),
        ..WindowEnv::default()
    };
    (w, env)
}

/// The three lags on the trace's time axis, from `2w-fd(1,1000)` at the
/// middle margin: `(T_D p99 ms, trust path p90 µs, suspect lag p90 µs)`
/// and the sample counts behind them.
fn trace_lags(trace: &WanTrace, spec: &Spec, deliveries: &[Delivery]) -> ([f64; 3], [u64; 3]) {
    let mut detector = spec.build(MARGINS[1]);
    let mut detect_ms: Vec<f64> = deliveries
        .iter()
        .filter_map(|d| {
            let trust_until = detector.feed(d.seq, d.at_ns)?;
            Some(trust_until.saturating_sub(d.send_ns) as f64 / 1e6)
        })
        .collect();
    let mistakes = trace.replay(spec, MARGINS[1]).mistakes();
    let mut trust_us = Vec::new();
    let mut suspect_us = Vec::new();
    for &(start, end) in &mistakes {
        // A suspicion ends at the arrival of the heartbeat that
        // restored trust; one cut off by the end of the trace does not.
        let k = deliveries.partition_point(|d| d.at_ns < end);
        if let Some(d) = deliveries.get(k).filter(|d| d.at_ns == end) {
            trust_us.push((end - d.send_ns) as f64 / 1e3);
            suspect_us.push((end - start) as f64 / 1e3);
        }
    }
    let counts = [
        detect_ms.len() as u64,
        trust_us.len() as u64,
        suspect_us.len() as u64,
    ];
    let values = [
        percentile(&mut detect_ms, 0.99).unwrap_or(f64::NAN),
        percentile(&mut trust_us, 0.90).unwrap_or(f64::NAN),
        percentile(&mut suspect_us, 0.90).unwrap_or(f64::NAN),
    ];
    (values, counts)
}

pub fn run(plan: &Plan) -> Report {
    let mut report = Report::new("replay_wan", plan.seed, plan.seconds, plan.traced);
    let samples = samples(plan);
    let specs = api::paper_specs();

    // Set-up is generating the trace; five times, for a median.
    let mut setup_s = Vec::new();
    let mut trace = None;
    for _ in 0..5 {
        let started = Instant::now();
        trace = Some(WanTrace::generate(samples, plan.seed));
        setup_s.push(started.elapsed().as_secs_f64());
    }
    let trace = trace.expect("generated above");
    report.record("setup_s", setup_s);
    let deliveries = trace.deliveries();
    let delivered = deliveries.len() as u64;

    let mut rng = Rng::new(plan.seed ^ 0x51);
    let windows = collect_windows(plan.windows(), plan.max_rerun(), |_| {
        one_window(&trace, &specs, delivered, &mut rng)
    });
    let ws: Vec<Window> = report.take_windows(windows);
    let each = |f: fn(&Window) -> f64| ws.iter().map(f).collect::<Vec<f64>>();
    report.record("hb_per_s", each(|w| w.hb_per_s));
    report.record("cpu_ns_per_hb", each(|w| w.cpu_ns_per_hb));
    report.record("output_queries_per_s", each(|w| w.queries_per_s));

    let ([detect_ms, trust_us, suspect_us], counts) = trace_lags(&trace, &specs[0], &deliveries);
    report.record_one("detect_time_p99_ms", detect_ms);
    report.samples("detect_time_p99_ms", counts[0]);
    report.record_one("trust_path_p90_us", trust_us);
    report.samples("trust_path_p90_us", counts[1]);
    report.record_one("suspect_lag_p90_us", suspect_us);
    report.samples("suspect_lag_p90_us", counts[2]);

    let mut errors = Vec::new();
    if ws.iter().any(|w| w.digest != ws[0].digest) {
        errors.push("the mistake digest differs between windows of one trace".into());
    }
    let heartbeats: u64 = ws.iter().map(|w| w.heartbeats).sum();
    // Per window: three containment checks and one digest.
    let checks = ws.len() as u64 * (MARGINS.len() as u64 + 1);
    errors.extend(ws.into_iter().flat_map(|w| w.errors));
    account(&mut report, checks, heartbeats, 0, errors);

    if plan.traced {
        layers::replay_path(plan, &trace, &mut report);
    }
    super::finish(&mut report);
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interval_intersection() {
        let a = [(0, 10), (20, 30), (40, 50)];
        let b = [(5, 25), (28, 45), (60, 70)];
        assert_eq!(intersect(&a, &b), [(5, 10), (20, 25), (28, 30), (40, 45)]);
        assert_eq!(intersect(&a, &[]), []);
        // Touching intervals share no time.
        assert_eq!(intersect(&[(0, 10)], &[(10, 20)]), []);
    }

    #[test]
    fn digest_depends_on_order_and_value() {
        let digest = |values: &[u64]| {
            let mut d = 0xcbf2_9ce4_8422_2325;
            values.iter().for_each(|v| fnv(&mut d, *v));
            d
        };
        assert_eq!(digest(&[1, 2]), digest(&[1, 2]));
        assert_ne!(digest(&[1, 2]), digest(&[2, 1]));
    }
}
