//! The five workloads and what they share: the run plan, the seeded
//! generator, lag bookkeeping and the closed-loop query client.

pub mod core;
pub mod live;
pub mod live_fleet;
pub mod paced;
pub mod query_mix;
pub mod replay_wan;

use crate::api::{Event, Kind, Verdicts};
use crate::metrics::Report;
use crate::procfs;
use crate::stats::percentile;
use std::collections::HashMap;
use std::time::{Duration, Instant};

/// In `BENCHMARK.json` order.
pub const NAMES: [&str; 5] = [
    "live_fleet",
    "core_wide",
    "core_obs",
    "query_mix",
    "replay_wan",
];

#[derive(Debug, Clone, Copy)]
pub struct Plan {
    pub seed: u64,
    /// Seconds the measured phase lasts.
    pub seconds: f64,
    /// Also run the staged, span-recording pass and report per layer.
    pub traced: bool,
    /// Smoke-test scale: two short windows over small fleets.
    pub quick: bool,
}

impl Plan {
    pub fn windows(&self) -> usize {
        if self.quick {
            2
        } else {
            5
        }
    }

    /// Invalid windows a workload may replace.
    pub fn max_rerun(&self) -> usize {
        if self.quick {
            2
        } else {
            3
        }
    }

    /// Length of one window. A traced run gives half its time to the
    /// untraced windows (the run-sourced layer counters and the
    /// baseline of `trace.overhead_ratio`) and half to the staged pass.
    pub fn window_s(&self) -> f64 {
        let share = if self.traced { 0.5 } else { 1.0 };
        self.seconds * share / self.windows() as f64
    }

    /// Time the staged pass of a traced run may spend.
    pub fn staged_s(&self) -> f64 {
        self.seconds * 0.5
    }

    pub fn streams(&self, full: u64) -> u64 {
        if self.quick {
            (full / 20).max(200)
        } else {
            full
        }
    }
}

pub fn run(name: &str, plan: &Plan) -> Option<Report> {
    Some(match name {
        "live_fleet" => live_fleet::run(plan),
        "core_wide" => core::run(plan, core::Variant::Wide),
        "core_obs" => core::run(plan, core::Variant::Obs),
        "query_mix" => query_mix::run(plan),
        "replay_wan" => replay_wan::run(plan),
        _ => return None,
    })
}

/// SplitMix64: the harness's only source of randomness, so that one
/// `--seed` fixes every input the system receives.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        finalize(self.0)
    }

    /// Uniform in `0..n` (multiply-shift; no division on the query path).
    pub fn below(&mut self, n: u64) -> u64 {
        ((u128::from(self.next()) * u128::from(n)) >> 64) as u64
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i as u64 + 1) as usize);
        }
    }
}

fn finalize(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A stateless draw for `(stream, seq)` decisions (jitter, omissions):
/// the generator and the reference both derive the schedule from it.
pub fn mix(seed: u64, a: u64, b: u64) -> u64 {
    finalize(
        seed.wrapping_add(a.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .wrapping_add(b.wrapping_mul(0xD1B5_4A32_D192_ED03)),
    )
}

/// Lag samples of one window, on the workload's measurement axis.
#[derive(Debug, Clone, Default)]
pub struct Lags {
    /// Reader holds a Suspect − the instant it became due.
    pub suspect_us: Vec<f64>,
    /// Reader holds a Trust − send stamp of the resuming heartbeat.
    pub trust_us: Vec<f64>,
    /// Reader holds a Suspect − send stamp of the last heartbeat
    /// before the silence (the paper's `T_D`).
    pub detect_ms: Vec<f64>,
    /// `Trust.at` − send stamp of the resuming heartbeat: the part of
    /// the trust path before the arrival stamp.
    pub arrival_us: Vec<f64>,
}

/// Folds per-window lag samples into the three end-to-end lag metrics
/// and the per-layer lag split.
pub fn record_lags(report: &mut Report, windows: &[Lags]) {
    let per_window = |pick: fn(&Lags) -> &Vec<f64>, want: f64| -> Vec<f64> {
        windows
            .iter()
            .filter_map(|w| percentile(&mut pick(w).clone(), want))
            .collect()
    };
    let pooled = |pick: fn(&Lags) -> &Vec<f64>| -> Vec<f64> {
        windows
            .iter()
            .flat_map(|w| pick(w).iter().copied())
            .collect()
    };
    let count = |pick: fn(&Lags) -> &Vec<f64>| windows.iter().map(|w| pick(w).len() as u64).sum();

    report.record("suspect_lag_p90_us", per_window(|w| &w.suspect_us, 0.90));
    report.samples("suspect_lag_p90_us", count(|w| &w.suspect_us));
    report.record("trust_path_p90_us", per_window(|w| &w.trust_us, 0.90));
    report.samples("trust_path_p90_us", count(|w| &w.trust_us));
    // p99 needs a thousand samples; one window has a few hundred, so
    // the reported value pools them and the windows show the spread.
    let mut all = pooled(|w| &w.detect_ms);
    report.record_pooled(
        "detect_time_p99_ms",
        percentile(&mut all, 0.99).unwrap_or(f64::NAN),
        per_window(|w| &w.detect_ms, 0.99),
    );
    report.samples("detect_time_p99_ms", all.len() as u64);

    for (name, pick, want) in [
        (
            "lag.suspect_p50_us",
            (|w| &w.suspect_us) as fn(&Lags) -> &Vec<f64>,
            0.50,
        ),
        ("lag.suspect_p99_us", |w| &w.suspect_us, 0.99),
        ("lag.trust_p50_us", |w| &w.trust_us, 0.50),
        ("lag.trust_p99_us", |w| &w.trust_us, 0.99),
        ("lag.arrival_stamp_p50_us", |w| &w.arrival_us, 0.50),
    ] {
        let mut all = pooled(pick);
        if let Some(v) = percentile(&mut all, want) {
            report.record_one(name, v);
            report.samples(name, all.len() as u64);
        }
    }
}

/// One scripted silence of a paced generator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Silence {
    pub stream: u64,
    /// Due stamp of the last heartbeat before the silence.
    pub last_due_ns: u64,
    /// Due stamp of the heartbeat that ends it.
    pub resume_due_ns: u64,
}

/// An event and when the reader held it.
#[derive(Debug, Clone, Copy)]
pub struct Held {
    pub event: Event,
    pub held_ns: u64,
}

#[derive(Debug, Default)]
pub struct Matched {
    pub lags: Lags,
    /// Transitions the script calls for: one initial Trust per stream
    /// and a Suspect and a Trust per silence.
    pub expected: u64,
    pub errors: Vec<String>,
}

/// Checks a live window's events against its script — each stream
/// trusts once at its first heartbeat, each silence yields exactly one
/// Suspect then one Trust, and nothing else happens — and takes the
/// lag samples from the matched pairs.
pub fn match_script(silences: &[Silence], events: &[Held], streams: u64) -> Matched {
    #[derive(Clone, Copy, PartialEq)]
    enum Phase {
        Unseen,
        Trusted,
        Suspected,
    }
    let mut script: HashMap<u64, Vec<Silence>> = HashMap::new();
    for s in silences {
        script.entry(s.stream).or_default().push(*s);
    }
    let mut phase = vec![Phase::Unseen; streams as usize];
    let mut done = vec![0usize; streams as usize];
    let mut out = Matched {
        expected: streams + 2 * silences.len() as u64,
        ..Matched::default()
    };
    let us = |later: u64, earlier: u64| later.saturating_sub(earlier) as f64 / 1e3;
    for h in events {
        let Event {
            stream,
            kind,
            at_ns,
        } = h.event;
        let Some(state) = phase.get_mut(stream as usize) else {
            out.errors
                .push(format!("event for unknown stream {stream}"));
            continue;
        };
        let pending = script
            .get(&stream)
            .and_then(|list| list.get(done[stream as usize]));
        match (kind, *state, pending) {
            (Kind::Trust, Phase::Unseen, _) => *state = Phase::Trusted,
            (Kind::Suspect, Phase::Trusted, Some(s)) if at_ns > s.last_due_ns => {
                *state = Phase::Suspected;
                out.lags.suspect_us.push(us(h.held_ns, at_ns));
                out.lags.detect_ms.push(us(h.held_ns, s.last_due_ns) / 1e3);
            }
            (Kind::Trust, Phase::Suspected, Some(s)) => {
                *state = Phase::Trusted;
                done[stream as usize] += 1;
                out.lags.trust_us.push(us(h.held_ns, s.resume_due_ns));
                out.lags.arrival_us.push(us(at_ns, s.resume_due_ns));
            }
            _ => out.errors.push(format!(
                "stream {stream}: unscripted {kind:?} at {at_ns} ns"
            )),
        }
    }
    let unseen = phase.iter().filter(|p| **p == Phase::Unseen).count();
    if unseen > 0 {
        out.errors.push(format!(
            "{unseen} streams never reached their initial Trust"
        ));
    }
    for (stream, list) in &script {
        let finished = done[*stream as usize];
        if finished < list.len() {
            out.errors.push(format!(
                "stream {stream}: {} scripted silence(s) without their Suspect and Trust",
                list.len() - finished
            ));
        }
    }
    out
}

/// One closed-loop client asking for the verdict on seeded streams in
/// `0..streams` for `duration`. Returns queries per second and how
/// many answers were not `Trust` (including unknown streams).
pub fn query_burst(
    monitor: &impl Verdicts,
    streams: u64,
    duration: Duration,
    rng: &mut Rng,
) -> (f64, u64) {
    let started = Instant::now();
    let mut queries = 0u64;
    let mut untrusted = 0u64;
    loop {
        for _ in 0..256 {
            if monitor.is_trusted(rng.below(streams)) != Some(true) {
                untrusted += 1;
            }
        }
        queries += 256;
        let elapsed = started.elapsed();
        if elapsed >= duration {
            return (queries as f64 / elapsed.as_secs_f64(), untrusted);
        }
    }
}

/// Adds a window's failures to the report: the messages, and the
/// transitions and heartbeats it attempted.
pub fn account(report: &mut Report, expected: u64, sent: u64, lost: u64, errors: Vec<String>) {
    report.attempted += expected + sent;
    report.hb_sent += sent;
    report.hb_lost += lost;
    for e in errors {
        report.error(e);
    }
}

/// Closes a report: the host-side metrics every workload owes, then
/// the check that nothing owed is missing.
pub fn finish(report: &mut Report) {
    report.record_one("peak_rss_mb", procfs::peak_rss_mb());
    let steal: Vec<f64> = report.windows.iter().map(|w| w.steal_ratio).collect();
    report.record("env.steal_ratio", steal);
    report.record_one("env.windows_rerun", f64::from(report.windows_rerun));
    let late_max = report
        .windows
        .iter()
        .map(|w| w.late_max_us)
        .fold(0.0, f64::max);
    report.record_one("gen.late_max_us", late_max);
    report.record_one(
        "hb_lost_ratio",
        report.hb_lost as f64 / report.hb_sent.max(1) as f64,
    );
    report.record_one("verdict_errors", report.verdict_errors as f64);
    report.finish();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn held(stream: u64, kind: Kind, at_ns: u64, held_ns: u64) -> Held {
        Held {
            event: Event {
                stream,
                kind,
                at_ns,
            },
            held_ns,
        }
    }

    #[test]
    fn same_seed_same_draws() {
        let a: Vec<u64> = (0..5).map(|_| Rng::new(9).next()).collect();
        assert!(a.windows(2).all(|w| w[0] == w[1]));
        let mut r = Rng::new(9);
        let mut perm: Vec<u64> = (0..100).collect();
        r.shuffle(&mut perm);
        let mut sorted = perm.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(perm, sorted);
        assert!((0..1000).all(|_| r.below(7) < 7));
        assert_eq!(mix(1, 2, 3), mix(1, 2, 3));
        assert_ne!(mix(1, 2, 3), mix(1, 3, 2));
    }

    #[test]
    fn a_scripted_silence_yields_one_suspect_then_one_trust() {
        let silences = [Silence {
            stream: 1,
            last_due_ns: 1_000_000,
            resume_due_ns: 601_000_000,
        }];
        let events = [
            held(0, Kind::Trust, 10, 20),
            held(1, Kind::Trust, 11, 21),
            held(1, Kind::Suspect, 141_000_000, 141_300_000),
            held(1, Kind::Trust, 601_100_000, 601_250_000),
        ];
        let m = match_script(&silences, &events, 2);
        assert!(m.errors.is_empty(), "{:?}", m.errors);
        assert_eq!(m.expected, 4);
        assert_eq!(m.lags.suspect_us, [300.0]);
        assert_eq!(m.lags.detect_ms, [140.3]);
        assert_eq!(m.lags.trust_us, [250.0]);
        assert_eq!(m.lags.arrival_us, [100.0]);
    }

    #[test]
    fn anything_off_script_is_an_error() {
        let silences = [Silence {
            stream: 0,
            last_due_ns: 100,
            resume_due_ns: 700,
        }];
        // Stream 1 suspects with no silence scripted; stream 0's
        // silence never completes; stream 2 never shows up.
        let events = [
            held(0, Kind::Trust, 1, 2),
            held(1, Kind::Trust, 1, 2),
            held(1, Kind::Suspect, 50, 60),
            held(0, Kind::Suspect, 240, 250),
            held(0, Kind::Recovered, 300, 310),
        ];
        let m = match_script(&silences, &events, 3);
        assert_eq!(m.errors.len(), 4, "{:?}", m.errors);
        assert_eq!(m.lags.suspect_us.len(), 1);
        assert!(m.lags.trust_us.is_empty());
    }
}
