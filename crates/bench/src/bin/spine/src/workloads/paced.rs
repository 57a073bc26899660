//! The open-loop generator of the live workloads: every stream beats
//! once per Δi at a seeded phase with up to 2 ms of seeded jitter, in
//! 1 ms ticks, and a seeded script silences one stream at a time for
//! five beats. It runs on a thread of its own (`spine-gen`) and stamps
//! every heartbeat with the instant it was *due*, so a stalled
//! generator shows up as latency instead of hiding it.

use super::{mix, Rng, Silence};
use crate::api::{LiveClock, INTERVAL_NS};
use crate::procfs;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::Duration;

pub const TICK_NS: u64 = 1_000_000;
/// Ticks per heartbeat interval.
pub const PHASES: u64 = INTERVAL_NS / TICK_NS;
/// Jitter is 0, 1 or 2 ticks.
const JITTER_TICKS: u64 = 3;
/// Heartbeats a scripted silence swallows.
pub const SILENT_BEATS: u64 = 5;

#[derive(Debug, Clone)]
pub struct PacedPlan {
    pub seed: u64,
    pub streams: u64,
    /// Streams `pausable_from..streams` may be silenced.
    pub pausable_from: u64,
    /// Clock stamp of tick 0.
    pub start_ns: u64,
    /// A silence starts every this many ticks...
    pub silence_every: u64,
    /// ...from this tick...
    pub first_silence_tick: u64,
    /// ...and none starts after this one, so every scripted silence
    /// ends (and its Trust arrives) before `end_tick`.
    pub last_silence_tick: u64,
    /// Ticks to run unless stopped earlier.
    pub end_tick: u64,
}

impl PacedPlan {
    /// Ticks from the start of a silence to the due time of the
    /// heartbeat that ends it, at most.
    pub const SILENCE_TICKS: u64 = (SILENT_BEATS + 1) * PHASES + JITTER_TICKS;
}

/// Where the generator's heartbeats go.
pub trait Sink {
    /// Emits the `(stream, seq)` beats of one tick, all due at
    /// `due_ns`; returns how many were handed over.
    fn emit(&mut self, due_ns: u64, beats: &[(u64, u64)]) -> u64;
}

#[derive(Debug, Default)]
pub struct GenLog {
    pub sent: u64,
    pub silences: Vec<Silence>,
    /// Wake-up lateness of every tick, µs.
    pub late_us: Vec<f64>,
    pub cpu_ns: u64,
    pub ticks: u64,
}

fn jitter(seed: u64, stream: u64, seq: u64) -> u64 {
    mix(seed, stream, seq) % JITTER_TICKS
}

/// Runs the schedule until `end_tick` or `stop`.
pub fn run_paced(
    plan: &PacedPlan,
    clock: &LiveClock,
    sink: &mut impl Sink,
    stop: &AtomicBool,
) -> GenLog {
    let cpu_before = procfs::own_cpu_ns();
    let mut rng = Rng::new(plan.seed);
    // Phases by seeded permutation: stream order[i] beats at tick
    // i % PHASES of every interval.
    let mut order: Vec<u64> = (0..plan.streams).collect();
    rng.shuffle(&mut order);
    let mut phase_of = vec![0u64; plan.streams as usize];
    let mut by_phase: Vec<Vec<u64>> = vec![Vec::new(); PHASES as usize];
    for (i, &stream) in order.iter().enumerate() {
        let phase = i as u64 % PHASES;
        phase_of[stream as usize] = phase;
        by_phase[phase as usize].push(stream);
    }
    let due_tick = |stream: u64, seq: u64| {
        seq * PHASES + phase_of[stream as usize] + jitter(plan.seed, stream, seq)
    };

    // Heartbeats with seq in (silent_from, silent_through] are skipped.
    let mut silent_from = vec![u64::MAX; plan.streams as usize];
    let mut silent_through = vec![0u64; plan.streams as usize];
    // A stream is not silenced again until well after it resumed.
    let mut busy_until_tick = vec![0u64; plan.streams as usize];
    let mut ring: Vec<Vec<(u64, u64)>> = vec![Vec::new(); JITTER_TICKS as usize + 1];
    let mut log = GenLog::default();
    let pausable = plan.streams - plan.pausable_from;

    for tick in 0..plan.end_tick {
        if stop.load(Ordering::Acquire) {
            break;
        }
        let due_ns = plan.start_ns + tick * TICK_NS;
        let now = clock.now_ns();
        if due_ns > now {
            std::thread::sleep(Duration::from_nanos(due_ns - now));
        }
        log.late_us
            .push(clock.now_ns().saturating_sub(due_ns) as f64 / 1e3);

        let seq = tick / PHASES;
        if tick >= plan.first_silence_tick
            && tick <= plan.last_silence_tick
            && (tick - plan.first_silence_tick).is_multiple_of(plan.silence_every)
            && pausable > 0
        {
            // A few draws to find a stream that is not already in (or
            // just out of) a silence.
            for _ in 0..8 {
                let stream = plan.pausable_from + rng.below(pausable);
                let phase = phase_of[stream as usize];
                if busy_until_tick[stream as usize] > tick || tick < phase + PHASES {
                    continue;
                }
                // The last beat already scheduled for this stream.
                let last_seq = (tick - phase) / PHASES;
                let resume_seq = last_seq + SILENT_BEATS + 1;
                silent_from[stream as usize] = last_seq;
                silent_through[stream as usize] = resume_seq - 1;
                busy_until_tick[stream as usize] = (resume_seq + 3) * PHASES;
                log.silences.push(Silence {
                    stream,
                    last_due_ns: plan.start_ns + due_tick(stream, last_seq) * TICK_NS,
                    resume_due_ns: plan.start_ns + due_tick(stream, resume_seq) * TICK_NS,
                });
                break;
            }
        }

        for &stream in &by_phase[(tick % PHASES) as usize] {
            let i = stream as usize;
            if seq > silent_from[i] && seq <= silent_through[i] {
                continue;
            }
            let slot = (tick + jitter(plan.seed, stream, seq)) % ring.len() as u64;
            ring[slot as usize].push((stream, seq));
        }
        let slot = (tick % ring.len() as u64) as usize;
        log.sent += sink.emit(due_ns, &ring[slot]);
        ring[slot].clear();
        log.ticks = tick + 1;
    }
    log.cpu_ns = procfs::own_cpu_ns().saturating_sub(cpu_before);
    log
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashMap;

    struct Collect(Vec<(u64, u64, u64)>);

    impl Sink for Collect {
        fn emit(&mut self, due_ns: u64, beats: &[(u64, u64)]) -> u64 {
            self.0.extend(beats.iter().map(|&(s, q)| (due_ns, s, q)));
            beats.len() as u64
        }
    }

    /// A plan whose start lies in the past runs without sleeping.
    fn plan(seed: u64) -> PacedPlan {
        PacedPlan {
            seed,
            streams: 200,
            pausable_from: 100,
            start_ns: 0,
            silence_every: 20,
            first_silence_tick: 150,
            last_silence_tick: 600,
            end_tick: 600 + PacedPlan::SILENCE_TICKS + PHASES,
        }
    }

    fn run(seed: u64) -> (GenLog, Vec<(u64, u64, u64)>) {
        let clock = LiveClock::new();
        std::thread::sleep(Duration::from_millis(2));
        let mut p = plan(seed);
        // Entirely in the past: no tick ever waits.
        p.start_ns = 0;
        let mut sink = Collect(Vec::new());
        let stop = AtomicBool::new(false);
        // The clock must already be past the last tick.
        let horizon = p.end_tick * TICK_NS;
        while clock.now_ns() < horizon {
            std::thread::sleep(Duration::from_millis(50));
        }
        let log = run_paced(&p, &clock, &mut sink, &stop);
        (log, sink.0)
    }

    #[test]
    fn schedule_is_a_function_of_the_seed_and_silences_swallow_five_beats() {
        let (log, beats) = run(11);
        let (log2, beats2) = run(11);
        assert_eq!(beats, beats2);
        assert_eq!(log.silences, log2.silences);
        assert_ne!(run(12).1, beats);
        assert_eq!(log.sent as usize, beats.len());
        assert!(!log.silences.is_empty());

        let mut seqs: HashMap<u64, Vec<(u64, u64)>> = HashMap::new();
        for &(due, stream, seq) in &beats {
            seqs.entry(stream).or_default().push((seq, due));
        }
        for s in &log.silences {
            assert!(s.stream >= 100, "only the pausable half is silenced");
            let sent = &seqs[&s.stream];
            let (last_seq, last_due) = *sent.iter().find(|(_, due)| *due == s.last_due_ns).unwrap();
            let (resume_seq, _) = *sent
                .iter()
                .find(|(_, due)| *due == s.resume_due_ns)
                .unwrap();
            assert_eq!(resume_seq, last_seq + SILENT_BEATS + 1);
            assert!(sent.iter().all(|(q, _)| *q <= last_seq || *q >= resume_seq));
            assert!(s.resume_due_ns > last_due);
        }
        // Unsilenced streams beat once per interval, in order.
        let quiet = &seqs[&0];
        assert!(quiet
            .windows(2)
            .all(|w| w[1].0 == w[0].0 + 1 && w[1].1 > w[0].1));
    }
}
