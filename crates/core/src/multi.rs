//! Monitoring many processes with one detector bank.
//!
//! The paper's model is one monitor `q` watching one process `p`; a real
//! deployment (and the service vision of §V) watches a *fleet*. A
//! [`ProcessSet`] owns one failure-detector instance per monitored
//! process, keyed by an application-chosen identifier, with uniform
//! construction via a [`DetectorBuilder`] and bulk status queries.
//!
//! The per-process detectors are fully independent — exactly `n` copies
//! of the paper's two-process model — so all single-process QoS results
//! carry over unchanged.
//!
//! ## Push-mode transitions
//!
//! Beyond pull-style queries ([`ProcessSet::output`],
//! [`ProcessSet::statuses`]), a process set can *publish* its output
//! changes as [`StreamTransition`]s with **exact** timestamps:
//!
//! * a T-transition is stamped with the arrival time of the heartbeat
//!   that restored trust;
//! * an S-transition is stamped with the decision's `trust_until` — the
//!   instant the output actually flipped — no matter how much later the
//!   expiry is noticed (by [`ProcessSet::sweep`] or by the next fresh
//!   heartbeat synthesizing the missed transition).
//!
//! Because every timestamp is derived from decisions rather than from
//! when bookkeeping happens to run, the published event timeline for a
//! stream is a pure function of its heartbeat schedule — identical to
//! what [`crate::replay::replay`] reconstructs offline. The sharded
//! monitor runtime in `twofd-net` is built on exactly this property.
//!
//! ## Storage: dense slots, hot/cold split, timing wheel
//!
//! Keys are interned to dense `u32` slots at registration
//! ([`ProcessSet::register`] returns the slot). Per-stream state lives
//! in a [`crate::slab::StreamSlab`]: a 24-byte hot mirror per stream
//! (trust horizon, last sequence, publication state) in one dense array,
//! with the detector itself — 256 bytes for an [`AnyDetector`] — and the
//! key in parallel cold arrays. Scans ([`ProcessSet::counts`],
//! [`ProcessSet::statuses`], [`ProcessSet::suspected`], the obs gauges)
//! walk only the hot array; a heartbeat apply touches the hot mirror
//! plus exactly one detector. For the 2W-FD that detector is
//! self-contained but for the long window's ring: both estimators and
//! an `n1 = 1` window's sample live inside it, so one apply reads the
//! index bucket, the hot slot, the detector's four adjacent lines, the
//! one ring line where the long window evicts and inserts, and the
//! wheel bucket it queues the new horizon on.
//!
//! Expiries are scheduled on a hierarchical [`crate::wheel::TimingWheel`]
//! — `O(1)` insert and advance, where a binary heap costs `O(log n)` —
//! with a lazy-deletion contract: every fresh
//! decision enqueues `(slot, generation, trust_until)`, and an entry is
//! live iff its deadline still equals the stream's current horizon and
//! its generation matches (recycled slots bump the generation, so a
//! re-registered stream can never inherit its predecessor's expiries).
//! [`ProcessSet::next_expiry`] prunes dead entries before reporting, so
//! the sweeper's park deadline always belongs to a live stream. A
//! binary-heap implementation of the same contract is the differential
//! oracle of `tests/shard_equivalence.rs` (`tests/support/heap_oracle.rs`).

use crate::detector::{Decision, FailureDetector, FdOutput};
use crate::slab::{HotSlot, StreamSlab};
use crate::suite::{AnyDetector, DetectorConfig};
use crate::wheel::{TimingWheel, WheelEntry};
use std::hash::Hash;
use twofd_sim::time::Nanos;

/// Builds the failure detector for a newly seen process.
///
/// Implemented for `Fn(&K) -> D` closures (for any detector type `D`,
/// boxed or inline) and for [`DetectorConfig`] — the spec-based
/// constructor that gives every process the same inline
/// [`AnyDetector`]. A detector outside the paper's suite plugs in as a
/// closure returning `Box<dyn FailureDetector + Send>`.
pub trait DetectorBuilder<K> {
    /// The concrete detector type constructed, stored inline in the
    /// process table.
    type Detector: FailureDetector;

    /// Constructs the detector instance for process `key`.
    fn build(&self, key: &K) -> Self::Detector;
}

impl<K, D, F> DetectorBuilder<K> for F
where
    D: FailureDetector,
    F: Fn(&K) -> D,
{
    type Detector = D;

    fn build(&self, key: &K) -> D {
        self(key)
    }
}

/// The spec-based constructor: every process gets the same recipe,
/// instantiated inline.
impl<K> DetectorBuilder<K> for DetectorConfig {
    type Detector = AnyDetector;

    fn build(&self, _key: &K) -> AnyDetector {
        DetectorConfig::build(self)
    }
}

/// The three-state classification of a published transition under the
/// crash-recovery model: plain Trust/Suspect flips, plus `Recovered` —
/// a Trust whose heartbeat carried a *higher incarnation* than the
/// stream's previous boot (the process provably crashed and restarted,
/// so any suspicion in between was correct detection, not a mistake).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TransitionKind {
    /// Output flipped to `Trust` within the same incarnation.
    Trust,
    /// Output flipped to `Suspect`.
    Suspect,
    /// Output is `Trust`, but for a *new incarnation* of the process.
    Recovered,
}

impl TransitionKind {
    /// The plain two-state output this transition leaves in force
    /// (`Recovered` is a `Trust`).
    pub fn output(self) -> FdOutput {
        match self {
            TransitionKind::Suspect => FdOutput::Suspect,
            TransitionKind::Trust | TransitionKind::Recovered => FdOutput::Trust,
        }
    }
}

/// A published Trust/Suspect/Recovered output change of one monitored
/// process.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StreamTransition<K> {
    /// The process whose output changed.
    pub key: K,
    /// The output in force *from* [`StreamTransition::at`].
    pub output: FdOutput,
    /// Exact instant the output changed (arrival time for T/R, the
    /// decision's `trust_until` for S).
    pub at: Nanos,
    /// Three-state classification; `output` is always `kind.output()`.
    pub kind: TransitionKind,
}

impl<K> StreamTransition<K> {
    /// A transition of `kind` at `at`, with the matching two-state
    /// output.
    pub fn new(key: K, kind: TransitionKind, at: Nanos) -> Self {
        StreamTransition {
            key,
            output: kind.output(),
            at,
            kind,
        }
    }
}

/// A snapshot of one monitored process's state.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProcessStatus<K> {
    /// The process key.
    pub key: K,
    /// Current output.
    pub output: FdOutput,
    /// Largest heartbeat sequence number seen (in the current
    /// incarnation).
    pub last_seq: Option<u64>,
    /// The instant suspicion will start if no further heartbeat arrives.
    pub trust_until: Option<Nanos>,
    /// The process's current incarnation (0 for crash-stop traffic).
    pub incarnation: u32,
}

/// A bank of per-process failure detectors over dense stream slots.
pub struct ProcessSet<K, B: DetectorBuilder<K>> {
    builder: B,
    slab: StreamSlab<K, B::Detector>,
    wheel: TimingWheel,
    /// Reusable harvest buffer for [`ProcessSet::sweep`].
    due: Vec<WheelEntry>,
}

impl<K, B> ProcessSet<K, B>
where
    K: Eq + Hash + Clone,
    B: DetectorBuilder<K>,
{
    /// Creates an empty set; `builder` constructs the detector for a
    /// process the first time a heartbeat from it is seen (or when
    /// registered explicitly).
    pub fn new(builder: B) -> Self {
        ProcessSet {
            builder,
            slab: StreamSlab::new(),
            wheel: TimingWheel::new(Nanos::ZERO),
            due: Vec::new(),
        }
    }

    /// Pre-registers a process so it is reported (as `Suspect`) before
    /// its first heartbeat, returning its dense slot. Registering an
    /// already-known key is a no-op that returns the existing slot —
    /// state, queued expiries and gauges are unaffected.
    pub fn register(&mut self, key: K) -> u32 {
        let builder = &self.builder;
        self.slab.intern_with(key, |k| builder.build(k))
    }

    /// The dense slot a registered process was interned at.
    pub fn slot_of(&self, key: &K) -> Option<u32> {
        self.slab.slot_of(key)
    }

    /// Removes a process from monitoring; returns whether it existed.
    /// Its slot is recycled under a new generation, so any queued expiry
    /// entries die (they can never alias the slot's next occupant).
    pub fn deregister(&mut self, key: &K) -> bool {
        match self.slab.remove(key) {
            Some(slot) => {
                self.wheel.note_removed(slot);
                true
            }
            None => false,
        }
    }

    /// Feeds a heartbeat from process `key` — the one apply entry —
    /// auto-registering unknown processes, and appends any resulting
    /// output transitions to `events`, stamped with exact transition
    /// times:
    ///
    /// * if the previous trust horizon expired strictly before this
    ///   arrival and the expiry was not yet published (no sweep ran), the
    ///   missed S-transition is synthesized at the old `trust_until`;
    /// * if the heartbeat restores trust, a T-transition is stamped at
    ///   its arrival time.
    ///
    /// Crash-stop senders carry incarnation 0 throughout. Relative to
    /// the stream's current incarnation:
    ///
    /// * a **lower** incarnation is stale — a delayed frame from a dead
    ///   boot — and is dropped (`None`), like a stale sequence number;
    /// * an **equal** incarnation follows the crash-stop path above;
    /// * a **higher** incarnation resets the stream: the old detector's
    ///   sampled history describes a dead boot, so it is rebuilt fresh,
    ///   the sequence axis restarts, and the heartbeat publishes a
    ///   [`TransitionKind::Recovered`] transition at its arrival. If the
    ///   old boot's horizon had already expired unpublished, the missed
    ///   S-transition is synthesized first (at the old horizon), so the
    ///   stream's suspicion interval stays exact.
    ///
    /// Returns the dense slot `key` is interned at — so a caller keeping
    /// slot-indexed state beside the set need not look the key up again
    /// — and the decision (`None` for stale heartbeats).
    pub fn on_heartbeat_incarnated(
        &mut self,
        key: K,
        incarnation: u32,
        seq: u64,
        arrival: Nanos,
        events: &mut Vec<StreamTransition<K>>,
    ) -> (u32, Option<Decision>) {
        let builder = &self.builder;
        let slot = self.slab.intern_with(key, |k| builder.build(k));
        let recovered = {
            let hot = self.slab.hot(slot);
            if incarnation < hot.incarnation() {
                return (slot, None);
            }
            incarnation > hot.incarnation()
        };
        if recovered {
            // The previous boot is provably dead. If its horizon expired
            // before this arrival and no sweep published it, synthesize
            // the missed S-transition exactly as a same-incarnation
            // heartbeat would; if it was still trusted, the stream goes
            // Trust→Trust across the boot boundary and only the
            // Recovered event marks it.
            let (hot, _, key) = self.slab.apply(slot);
            publish_missed_expiry(hot, key, hot.trust_until(), arrival, events);
            let builder = &self.builder;
            self.slab.reset_detector(slot, |k| builder.build(k));
        }
        let (hot, fd, key) = self.slab.apply(slot);
        hot.set_incarnation(incarnation);
        let prev = hot.trust_until();
        let Some(decision) = fd.on_heartbeat(seq, arrival) else {
            return (slot, None);
        };
        if let Some(s) = fd.last_seq() {
            hot.set_seq(s);
        }
        hot.set_decision(decision.trust_until);

        // Expiry between the previous fresh arrival and this one that no
        // sweep noticed: publish it now, stamped at the expiry instant.
        publish_missed_expiry(hot, key, prev, arrival, events);

        if decision.trust_until > arrival && (recovered || !hot.published_trust()) {
            let was_published = hot.published_trust();
            hot.set_published(true);
            // A recovered boot publishes `Recovered` whether the old
            // boot was trusted (Trust→Trust across the boundary) or
            // suspected (the restart ends the suspicion) — unless the
            // suspicion never existed to begin with.
            let kind = if recovered {
                TransitionKind::Recovered
            } else {
                TransitionKind::Trust
            };
            if !was_published || recovered {
                events.push(StreamTransition::new(key.clone(), kind, arrival));
            }
        }
        // A trust_until at or before the arrival means the heartbeat
        // arrived past its own freshness point — the detector stays
        // suspicious (Chen §II-B1's "no fresh message"). The horizon is
        // queued unconditionally either way: dead entries are cheap and
        // the live-entry multiset stays identical to the heap oracle's.
        let gen = hot.gen();
        self.wheel.insert(slot, gen, decision.trust_until);

        (slot, Some(decision))
    }

    /// Adopts a stream from a peer monitor's relayed digest view: seeds
    /// the stream's hot state with the peer's last known incarnation and
    /// trust horizon, *without* fabricating detector history. Detection
    /// then continues locally: the seeded horizon is scheduled on the
    /// wheel, so if no real heartbeat arrives the stream S-transitions
    /// at exactly the adopted horizon; if heartbeats do arrive, the
    /// fresh local detector takes over seamlessly.
    ///
    /// Local state that is at least as fresh wins: the adoption is
    /// skipped (returns `false`) if the stream already has a horizon at
    /// or past the adopted one, a higher incarnation, or the adopted
    /// horizon is already in the past at `now` (nothing to seed — the
    /// stream is suspect either way).
    ///
    /// If the local horizon expired strictly before `now` and no sweep
    /// published it, the missed S-transition is synthesized at that
    /// horizon before the stream is re-trusted at `now` — exactly as a
    /// late heartbeat does — so the timeline does not depend on whether
    /// a sweep ran first.
    pub fn adopt(
        &mut self,
        key: K,
        incarnation: u32,
        trust_until: Nanos,
        now: Nanos,
        events: &mut Vec<StreamTransition<K>>,
    ) -> bool {
        let builder = &self.builder;
        let slot = self.slab.intern_with(key, |k| builder.build(k));
        let (hot, _, key) = self.slab.apply(slot);
        if hot.incarnation() > incarnation || trust_until <= now {
            return false;
        }
        if let Some(local) = hot.trust_until() {
            if local >= trust_until {
                return false;
            }
        }
        publish_missed_expiry(hot, key, hot.trust_until(), now, events);
        hot.set_incarnation(incarnation);
        hot.set_decision(trust_until);
        if !hot.published_trust() {
            hot.set_published(true);
            events.push(StreamTransition::new(
                key.clone(),
                TransitionKind::Trust,
                now,
            ));
        }
        let gen = hot.gen();
        self.wheel.insert(slot, gen, trust_until);
        true
    }

    /// Publishes the S-transition of every stream whose trust horizon
    /// expired strictly before `now`, stamped at the exact expiry
    /// instant. Strict comparison keeps a heartbeat arriving exactly at
    /// its predecessor's horizon from producing a zero-length suspicion,
    /// matching the replay reconstruction.
    pub fn sweep(&mut self, now: Nanos, events: &mut Vec<StreamTransition<K>>) {
        let mut due = std::mem::take(&mut self.due);
        due.clear();
        self.wheel.advance(now, &mut due);
        // The wheel harvests in bucket order; publish in deterministic
        // (deadline, slot) order like a heap would pop.
        due.sort_unstable_by_key(|e| (e.deadline, e.slot));
        for e in &due {
            if let Some(key) = self.slab.publish_expiry(e.slot, e.gen, e.deadline) {
                events.push(StreamTransition::new(
                    key.clone(),
                    TransitionKind::Suspect,
                    e.deadline,
                ));
            }
        }
        self.due = due;
    }

    /// Earliest *live* trust horizon currently scheduled — the instant
    /// the next S-transition will happen if no further heartbeat
    /// arrives. Stale wheel entries (superseded horizons, deregistered
    /// or recycled slots) are pruned before reporting, so a sweeper
    /// parked on the returned deadline never wakes for a dead horizon.
    pub fn next_expiry(&mut self) -> Option<Nanos> {
        let slab = &self.slab;
        self.wheel
            .next_expiry_with(|e| slab.entry_is_live(e.slot, e.gen, e.deadline))
    }

    /// The output for process `key` at time `t` (`None` if unknown),
    /// answered from the hot mirror without touching the detector.
    pub fn output(&self, key: &K, t: Nanos) -> Option<FdOutput> {
        self.slab
            .slot_of(key)
            .map(|slot| self.slab.hot(slot).output_at(t))
    }

    /// Status snapshot of every monitored process at time `t`, in
    /// unspecified order.
    pub fn statuses(&self, t: Nanos) -> Vec<ProcessStatus<K>> {
        let mut out = Vec::with_capacity(self.slab.len());
        self.slab.for_each(|key, hot| {
            out.push(ProcessStatus {
                key: key.clone(),
                output: hot.output_at(t),
                last_seq: hot.last_seq(),
                trust_until: hot.trust_until(),
                incarnation: hot.incarnation(),
            });
        });
        out
    }

    /// Keys of all processes currently suspected at time `t`.
    pub fn suspected(&self, t: Nanos) -> Vec<K> {
        let mut out = Vec::new();
        self.slab.for_each(|key, hot| {
            if hot.output_at(t) == FdOutput::Suspect {
                out.push(key.clone());
            }
        });
        out
    }

    /// `(trusted, suspected)` process counts at time `t` — a pure scan
    /// of the dense hot array (the obs-gauge path).
    pub fn counts(&self, t: Nanos) -> (usize, usize) {
        let mut trusted = 0;
        self.slab.for_each_hot(|hot| {
            if hot.output_at(t) == FdOutput::Trust {
                trusted += 1;
            }
        });
        (trusted, self.slab.len() - trusted)
    }

    /// Number of monitored processes.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// True when no process is monitored.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }
}

/// Publishes the `Suspect` no sweep reached: a stream still published
/// as trusted whose `horizon` expired strictly before `t`, stamped at
/// the horizon.
#[inline]
fn publish_missed_expiry<K: Clone>(
    hot: &mut HotSlot,
    key: &K,
    horizon: Option<Nanos>,
    t: Nanos,
    events: &mut Vec<StreamTransition<K>>,
) {
    if let Some(p) = horizon.filter(|&p| hot.published_trust() && p < t) {
        hot.set_published(false);
        events.push(StreamTransition::new(
            key.clone(),
            TransitionKind::Suspect,
            p,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::twofd::TwoWindowFd;
    use twofd_sim::time::Span;

    const DI: Span = Span(100_000_000);

    fn set() -> ProcessSet<&'static str, impl Fn(&&'static str) -> Box<dyn FailureDetector + Send>>
    {
        ProcessSet::new(|_key: &&str| {
            Box::new(TwoWindowFd::new(1, 100, DI, Span::from_millis(40)))
                as Box<dyn FailureDetector + Send>
        })
    }

    fn hb(seq: u64) -> Nanos {
        Nanos(seq * DI.0 + 10_000_000)
    }

    /// A crash-stop heartbeat whose transitions the test does not read.
    fn beat<K, B>(s: &mut ProcessSet<K, B>, key: K, seq: u64, at: Nanos) -> Option<Decision>
    where
        K: Eq + Hash + Clone,
        B: DetectorBuilder<K>,
    {
        s.on_heartbeat_incarnated(key, 0, seq, at, &mut Vec::new())
            .1
    }

    #[test]
    fn unknown_processes_are_auto_registered() {
        let mut s = set();
        assert!(s.is_empty());
        beat(&mut s, "a", 1, hb(1));
        beat(&mut s, "b", 1, hb(1));
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn registered_process_is_suspect_before_first_heartbeat() {
        let mut s = set();
        s.register("quiet");
        assert_eq!(s.output(&"quiet", hb(1)), Some(FdOutput::Suspect));
        assert_eq!(s.output(&"unknown", hb(1)), None);
    }

    #[test]
    fn registration_interns_dense_slots() {
        let mut s = set();
        let a = s.register("a");
        let b = s.register("b");
        assert_eq!((a, b), (0, 1));
        // Registering again returns the same slot, builds nothing new.
        assert_eq!(s.register("a"), 0);
        assert_eq!(s.slot_of(&"b"), Some(1));
        assert_eq!(s.slot_of(&"unseen"), None);
        assert_eq!(s.len(), 2);
    }

    #[test]
    fn processes_are_independent() {
        let mut s = set();
        for seq in 1..=5 {
            beat(&mut s, "alive", seq, hb(seq));
        }
        // "dead" only ever sent one heartbeat.
        beat(&mut s, "dead", 1, hb(1));
        let now = hb(5) + Span::from_millis(1);
        assert_eq!(s.output(&"alive", now), Some(FdOutput::Trust));
        assert_eq!(s.output(&"dead", now), Some(FdOutput::Suspect));
        assert_eq!(s.suspected(now), vec!["dead"]);
        assert_eq!(s.counts(now), (1, 1));
    }

    #[test]
    fn statuses_snapshot_everything() {
        let mut s = set();
        beat(&mut s, "a", 3, hb(3));
        s.register("b");
        let mut statuses = s.statuses(hb(3) + Span::from_millis(1));
        statuses.sort_by_key(|st| st.key);
        assert_eq!(statuses.len(), 2);
        assert_eq!(statuses[0].key, "a");
        assert_eq!(statuses[0].last_seq, Some(3));
        assert!(statuses[0].trust_until.is_some());
        assert_eq!(statuses[1].key, "b");
        assert_eq!(statuses[1].last_seq, None);
        assert_eq!(statuses[1].output, FdOutput::Suspect);
    }

    #[test]
    fn deregister_stops_monitoring() {
        let mut s = set();
        beat(&mut s, "a", 1, hb(1));
        assert!(s.deregister(&"a"));
        assert!(!s.deregister(&"a"));
        assert_eq!(s.output(&"a", hb(2)), None);
    }

    #[test]
    fn per_process_sequence_tracking() {
        let mut s = set();
        assert!(beat(&mut s, "a", 5, hb(5)).is_some());
        // Stale for a, fresh for b.
        assert!(beat(&mut s, "a", 4, hb(5)).is_none());
        assert!(beat(&mut s, "b", 4, hb(5)).is_some());
    }

    #[test]
    fn detector_config_builds_inline_detectors() {
        // A spec-driven set stores `AnyDetector` values inline — no
        // boxing anywhere in the type.
        let mut s: ProcessSet<u64, DetectorConfig> = ProcessSet::new(DetectorConfig::default());
        beat(&mut s, 7u64, 1, hb(1));
        beat(&mut s, 8u64, 1, hb(1));
        assert_eq!(s.len(), 2);
        assert_eq!(s.output(&7, hb(1) + Span(1)), Some(FdOutput::Trust));
    }

    #[test]
    fn inline_closures_build_unboxed_detectors() {
        // Closures may return concrete detector types directly.
        let mut s = ProcessSet::new(|_k: &u64| TwoWindowFd::new(1, 100, DI, Span::from_millis(40)));
        beat(&mut s, 1u64, 1, hb(1));
        assert_eq!(s.output(&1, hb(1) + Span(1)), Some(FdOutput::Trust));
    }

    #[test]
    fn first_fresh_heartbeat_publishes_trust_at_arrival() {
        let mut s = set();
        let mut events = Vec::new();
        s.on_heartbeat_incarnated("a", 0, 1, hb(1), &mut events);
        assert_eq!(
            events,
            vec![StreamTransition::new("a", TransitionKind::Trust, hb(1))]
        );
        // The next fresh heartbeat keeps trusting: no further event.
        events.clear();
        s.on_heartbeat_incarnated("a", 0, 2, hb(2), &mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn sweep_publishes_suspicion_at_exact_expiry() {
        let mut s = set();
        let mut events = Vec::new();
        s.on_heartbeat_incarnated("a", 0, 1, hb(1), &mut events);
        let trust_until = s.statuses(hb(1))[0].trust_until.unwrap();
        events.clear();

        // Sweeping before the horizon publishes nothing; the horizon
        // itself is exclusive (strict comparison).
        s.sweep(trust_until, &mut events);
        assert!(events.is_empty());
        s.sweep(trust_until + Span(1), &mut events);
        assert_eq!(
            events,
            vec![StreamTransition::new(
                "a",
                TransitionKind::Suspect,
                trust_until
            )]
        );
        // Idempotent: the expiry is published once.
        events.clear();
        s.sweep(trust_until + Span::from_millis(5), &mut events);
        assert!(events.is_empty());
    }

    #[test]
    fn missed_expiry_is_synthesized_on_next_heartbeat() {
        let mut s = set();
        let mut events = Vec::new();
        s.on_heartbeat_incarnated("a", 0, 1, hb(1), &mut events);
        let trust_until = s.statuses(hb(1))[0].trust_until.unwrap();
        events.clear();

        // No sweep runs; the next heartbeat arrives long after expiry.
        let late = trust_until + Span::from_secs(1);
        s.on_heartbeat_incarnated("a", 0, 2, late, &mut events);
        assert_eq!(events.len(), 2, "{events:?}");
        assert_eq!(
            events[0],
            StreamTransition::new("a", TransitionKind::Suspect, trust_until)
        );
        assert_eq!(events[1].output, FdOutput::Trust);
        assert_eq!(events[1].kind, TransitionKind::Trust);
        assert_eq!(events[1].at, late);
    }

    /// Crash-recovery: a bumped incarnation with a reset sequence axis
    /// must not be treated as stale; it rebuilds the detector and
    /// publishes a `Recovered` transition at its arrival.
    #[test]
    fn higher_incarnation_recovers_a_suspected_stream() {
        let mut s = set();
        let mut events = Vec::new();
        for seq in 1..=5 {
            s.on_heartbeat_incarnated("a", 0, seq, hb(seq), &mut events);
        }
        let trust_until = s.statuses(hb(5))[0].trust_until.unwrap();
        events.clear();
        s.sweep(trust_until + Span(1), &mut events);
        assert_eq!(events.len(), 1, "crashed: {events:?}");
        assert_eq!(events[0].kind, TransitionKind::Suspect);
        events.clear();

        // The restarted boot's first heartbeat: incarnation 1, seq 1 —
        // stale by sequence number, fresh by incarnation.
        let restart = trust_until + Span::from_secs(2);
        let d = s
            .on_heartbeat_incarnated("a", 1, 1, restart, &mut events)
            .1
            .expect("restart heartbeat must be fresh");
        assert!(d.trust_until > restart);
        assert_eq!(
            events,
            vec![StreamTransition::new(
                "a",
                TransitionKind::Recovered,
                restart
            )]
        );
        assert_eq!(s.output(&"a", restart + Span(1)), Some(FdOutput::Trust));
        assert_eq!(s.statuses(restart + Span(1))[0].incarnation, 1);
        assert_eq!(s.statuses(restart + Span(1))[0].last_seq, Some(1));
    }

    /// A restart while the old boot is still trusted synthesizes no
    /// suspicion: the stream goes Trust→Trust across the boot boundary
    /// with only the `Recovered` event marking it.
    #[test]
    fn fast_restart_recovers_without_suspicion() {
        let mut s = set();
        let mut events = Vec::new();
        s.on_heartbeat_incarnated("a", 0, 7, hb(1), &mut events);
        events.clear();
        let quick = hb(1) + Span::from_millis(5); // still inside the horizon
        s.on_heartbeat_incarnated("a", 1, 1, quick, &mut events);
        assert_eq!(
            events,
            vec![StreamTransition::new("a", TransitionKind::Recovered, quick)]
        );
        // The missed-expiry variant: the old horizon expired unpublished
        // before the restart — the S must be synthesized at the exact old
        // horizon, then the recovery published at the restart arrival.
        let mut s2 = set();
        events.clear();
        s2.on_heartbeat_incarnated("b", 0, 3, hb(1), &mut events);
        let old_horizon = s2.statuses(hb(1))[0].trust_until.unwrap();
        events.clear();
        let late = old_horizon + Span::from_secs(1);
        s2.on_heartbeat_incarnated("b", 2, 1, late, &mut events);
        assert_eq!(
            events,
            vec![
                StreamTransition::new("b", TransitionKind::Suspect, old_horizon),
                StreamTransition::new("b", TransitionKind::Recovered, late),
            ]
        );
    }

    /// Frames from a dead boot (lower incarnation) are dropped exactly
    /// like stale sequence numbers.
    #[test]
    fn lower_incarnation_frames_are_stale() {
        let mut s = set();
        let mut events = Vec::new();
        s.on_heartbeat_incarnated("a", 2, 1, hb(1), &mut events);
        assert!(s
            .on_heartbeat_incarnated("a", 1, 99, hb(2), &mut events)
            .1
            .is_none());
        assert!(s
            .on_heartbeat_incarnated("a", 0, 100, hb(2), &mut events)
            .1
            .is_none());
        assert_eq!(s.statuses(hb(2))[0].incarnation, 2);
        // Same incarnation, fresh seq: accepted.
        assert!(s
            .on_heartbeat_incarnated("a", 2, 2, hb(2), &mut events)
            .1
            .is_some());
    }

    /// Adoption seeds a relayed horizon so detection continues across a
    /// monitor crash: the adopted stream is trusted until the relayed
    /// horizon, and S-transitions at exactly that instant if no real
    /// heartbeat arrives.
    #[test]
    fn adopted_streams_expire_at_the_relayed_horizon() {
        let mut s = set();
        let mut events = Vec::new();
        let now = hb(1);
        let horizon = now + Span::from_millis(700);
        assert!(s.adopt("x", 3, horizon, now, &mut events));
        assert_eq!(
            events,
            vec![StreamTransition::new("x", TransitionKind::Trust, now)]
        );
        assert_eq!(s.output(&"x", now + Span(1)), Some(FdOutput::Trust));
        assert_eq!(s.statuses(now)[0].incarnation, 3);
        events.clear();
        s.sweep(horizon + Span(1), &mut events);
        assert_eq!(
            events,
            vec![StreamTransition::new("x", TransitionKind::Suspect, horizon)]
        );
    }

    /// Fresher local state wins over a relayed view: adoption must not
    /// clobber a stream the local monitor already tracks further ahead,
    /// nor resurrect one whose relayed horizon is already past.
    #[test]
    fn adoption_defers_to_fresher_local_state() {
        let mut s = set();
        let mut events = Vec::new();
        s.on_heartbeat_incarnated("a", 0, 1, hb(1), &mut events);
        let local = s.statuses(hb(1))[0].trust_until.unwrap();
        events.clear();
        assert!(!s.adopt("a", 0, local - Span(1), hb(1), &mut events));
        assert!(events.is_empty());
        // Expired relayed horizon: nothing to seed.
        assert!(!s.adopt("gone", 1, hb(1), hb(1) + Span(1), &mut events));
        assert!(events.is_empty());
        // Real heartbeats take over from an adopted seed seamlessly.
        assert!(s.adopt("x", 1, hb(3), hb(2), &mut events));
        events.clear();
        assert!(s
            .on_heartbeat_incarnated("x", 1, 5, hb(2) + Span::from_millis(1), &mut events)
            .1
            .is_some());
        assert!(
            events.is_empty(),
            "already trusted; no new transition: {events:?}"
        );
    }

    /// A stream whose local horizon expired unpublished and is then
    /// adopted past `now` gets the same timeline whether or not a sweep
    /// ran before the adoption: the missed suspicion, then trust again.
    #[test]
    fn adoption_over_an_unswept_expiry_matches_sweep_then_adopt() {
        let timeline = |sweep_first: bool| {
            let mut s = set();
            let mut events = Vec::new();
            s.on_heartbeat_incarnated("a", 0, 1, hb(1), &mut events);
            let local = s.statuses(hb(1))[0].trust_until.unwrap();
            let now = local + Span::from_millis(300);
            if sweep_first {
                s.sweep(now, &mut events);
            }
            assert!(s.adopt("a", 0, now + Span::from_secs(1), now, &mut events));
            (events, local, now)
        };
        let (swept, local, now) = timeline(true);
        assert_eq!(
            swept,
            vec![
                StreamTransition::new("a", TransitionKind::Trust, hb(1)),
                StreamTransition::new("a", TransitionKind::Suspect, local),
                StreamTransition::new("a", TransitionKind::Trust, now),
            ]
        );
        assert_eq!(timeline(false).0, swept);
    }

    #[test]
    fn stale_wheel_entries_are_skipped() {
        let mut s = set();
        let mut events = Vec::new();
        for seq in 1..=5 {
            s.on_heartbeat_incarnated("a", 0, seq, hb(seq), &mut events);
        }
        events.clear();
        // Sweep past the first four (superseded) horizons but before the
        // live one: nothing may be published.
        let live = s.statuses(hb(5))[0].trust_until.unwrap();
        s.sweep(live - Span(1), &mut events);
        assert!(events.is_empty());
        assert!(s.next_expiry().is_some());
    }

    #[test]
    fn deregistered_streams_never_publish() {
        let mut s = set();
        let mut events = Vec::new();
        s.on_heartbeat_incarnated("a", 0, 1, hb(1), &mut events);
        s.deregister(&"a");
        events.clear();
        s.sweep(Nanos::from_secs(3600), &mut events);
        assert!(events.is_empty());
    }

    /// Regression (stale-horizon bug): `next_expiry` used to peek the
    /// scheduling structure blindly and report horizons already
    /// superseded by fresher heartbeats, making shard workers park and
    /// wake on dead deadlines. The reported horizon must always be some
    /// live stream's current `trust_until`.
    #[test]
    fn next_expiry_always_matches_a_live_stream() {
        let mut s = set();
        for seq in 1..=5 {
            beat(&mut s, "a", seq, hb(seq));
        }
        beat(&mut s, "b", 1, hb(5) + Span::from_millis(3));
        let live: Vec<Nanos> = s
            .statuses(hb(5))
            .iter()
            .filter_map(|st| st.trust_until)
            .collect();
        let reported = s.next_expiry().expect("two live horizons queued");
        assert!(
            live.contains(&reported),
            "reported horizon {reported:?} matches no live stream ({live:?})"
        );
        assert_eq!(reported, *live.iter().min().unwrap());

        // Deregistering the stream that owns the minimum must move the
        // reported horizon to the surviving stream, not a dead entry.
        let owner = s
            .statuses(hb(5))
            .into_iter()
            .find(|st| st.trust_until == Some(reported))
            .unwrap()
            .key;
        s.deregister(&owner);
        let survivor: Vec<Nanos> = s
            .statuses(hb(5))
            .iter()
            .filter_map(|st| st.trust_until)
            .collect();
        assert_eq!(s.next_expiry(), survivor.iter().min().copied());
    }

    /// Regression (re-registration leak): a deregister/re-register cycle
    /// must neither resurrect the old occupant's queued expiries nor
    /// drift the stream-count bookkeeping, and churn must not grow the
    /// slot table or the wheel without bound.
    #[test]
    fn churn_is_leak_free_and_gauges_reconcile() {
        let mut s = set();
        let mut events = Vec::new();
        s.on_heartbeat_incarnated("a", 0, 1, hb(1), &mut events);
        s.on_heartbeat_incarnated("b", 0, 1, hb(1), &mut events);
        let baseline_slots = s.slab.capacity();

        for round in 0..100u64 {
            events.clear();
            // Vacate and immediately re-register under the same key.
            assert!(s.deregister(&"a"));
            s.register("a");
            assert_eq!(s.len(), 2, "register/deregister must reconcile");
            // The new incarnation is suspect until it heartbeats...
            assert_eq!(s.output(&"a", hb(round + 2)), Some(FdOutput::Suspect));
            // ...and the old incarnation's queued expiry must not
            // publish against it.
            s.sweep(hb(round + 2), &mut events);
            assert!(
                events.iter().all(|e| e.key != "a"),
                "old incarnation's expiry leaked into round {round}: {events:?}"
            );
            s.on_heartbeat_incarnated("a", 0, round + 2, hb(round + 2), &mut events);
        }

        assert_eq!(
            s.slab.capacity(),
            baseline_slots,
            "churn minted new slots instead of recycling"
        );
        // Dead entries are pruned by sweeps/probes: the wheel cannot
        // have accumulated anywhere near one entry per churn round.
        s.next_expiry();
        assert!(
            s.wheel.len() <= 4,
            "wheel leaked {} entries over churn",
            s.wheel.len()
        );
        // Exact gauge reconciliation: counts sum to len.
        let (t, su) = s.counts(hb(101));
        assert_eq!(t + su, s.len());
    }

    /// The hot-mirror fast path must agree with the detectors for every
    /// spec in the suite (they all use the default `output_at`).
    #[test]
    fn hot_mirror_matches_detector_outputs_across_suite() {
        use crate::suite::DetectorSpec;
        for spec in [
            DetectorSpec::Chen { window: 100 },
            DetectorSpec::Bertier { window: 100 },
            DetectorSpec::Phi { window: 100 },
            DetectorSpec::Ed { window: 100 },
            DetectorSpec::TwoWindow { n1: 1, n2: 100 },
            DetectorSpec::MultiWindow {
                windows: vec![1, 10, 100],
            },
        ] {
            let cfg = DetectorConfig {
                spec: spec.clone(),
                ..DetectorConfig::default()
            };
            let mut s: ProcessSet<u64, DetectorConfig> = ProcessSet::new(cfg.clone());
            let mut fd = cfg.build();
            for seq in 1..=20u64 {
                let at = Nanos(seq * DI.0 + (seq % 7) * 3_000_000);
                beat(&mut s, 1, seq, at);
                fd.on_heartbeat(seq, at);
                for probe in [at + Span(1), at + Span::from_millis(35), at + DI + DI] {
                    assert_eq!(
                        s.output(&1, probe),
                        Some(fd.output_at(probe)),
                        "spec {spec:?} diverges at {probe:?}"
                    );
                }
            }
        }
    }
}
