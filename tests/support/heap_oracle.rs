//! The heap-based reference `ProcessSet` — differential oracle for the
//! timing-wheel implementation, `mod`-included by
//! `tests/shard_equivalence.rs`.
//!
//! This is the original lazy-deletion `BinaryHeap` process set that
//! `twofd::core::ProcessSet` replaced, kept as an independently simple
//! implementation of the *same* published-timeline contract so the
//! wheel can be differentially tested against it. It keeps only the
//! entry points the proptest calls, crash-stop semantics only (it never
//! sees an incarnation). Two deliberate fixes over the historical
//! version:
//!
//! 1. **Stale-horizon fix** ([`HeapProcessSet::next_expiry`]): the old
//!    `next_expiry` peeked the heap top blindly, so it could report a
//!    horizon long superseded by fresher heartbeats and make a shard
//!    worker park-and-wake on a dead deadline. It now pops stale
//!    entries until the top corresponds to a live stream horizon.
//! 2. **Equality staleness**: every fresh decision pushes its horizon
//!    (even one at or before its own arrival — the "no fresh message"
//!    shrink case), and an entry is live iff its deadline *equals* the
//!    stream's current `trust_until`. This makes the heap's live-entry
//!    multiset — and hence its `next_expiry` sequence — identical to
//!    the wheel's by construction, while publishing the same
//!    S-transitions at the same exact stamps as before (a shrink-case
//!    expiry is published at the first sweep past it rather than at the
//!    first sweep past the stream's *previous* horizon).
//!
//! Unlike the wheel-backed set this keeps the `K: Ord` bound (heap
//! entries are `(Nanos, K)` tuples) and scans full detector entries for
//! status queries.

use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashMap};
use std::hash::Hash;
use twofd::core::{
    Decision, DetectorBuilder, FailureDetector, FdOutput, StreamTransition, TransitionKind,
};
use twofd::sim::Nanos;

struct Entry<D> {
    fd: D,
    last_published: FdOutput,
}

/// A bank of per-process failure detectors scheduled by a lazy-deletion
/// binary min-heap. Reference implementation — see the module docs.
pub struct HeapProcessSet<K, B: DetectorBuilder<K>> {
    builder: B,
    detectors: HashMap<K, Entry<B::Detector>>,
    /// Min-heap of `(trust_until, key)` expiry candidates, lazily
    /// deleted: an entry is live iff it equals its stream's current
    /// horizon.
    expiries: BinaryHeap<Reverse<(Nanos, K)>>,
}

impl<K, B> HeapProcessSet<K, B>
where
    K: Eq + Hash + Ord + Clone,
    B: DetectorBuilder<K>,
{
    /// Creates an empty set; `builder` constructs the detector for a
    /// process the first time a heartbeat from it is seen (or when
    /// registered explicitly).
    pub fn new(builder: B) -> Self {
        HeapProcessSet {
            builder,
            detectors: HashMap::new(),
            expiries: BinaryHeap::new(),
        }
    }

    /// Pre-registers a process so it is reported (as `Suspect`) before
    /// its first heartbeat.
    pub fn register(&mut self, key: K) {
        let builder = &self.builder;
        self.detectors.entry(key.clone()).or_insert_with(|| Entry {
            fd: builder.build(&key),
            last_published: FdOutput::Suspect,
        });
    }

    /// Removes a process from monitoring; returns whether it existed.
    /// Any queued expiry entries for it are discarded lazily.
    pub fn deregister(&mut self, key: &K) -> bool {
        self.detectors.remove(key).is_some()
    }

    /// Feeds a heartbeat from process `key`, auto-registering unknown
    /// processes, and appends any resulting output transitions to
    /// `events` — the crash-stop (incarnation 0) contract of
    /// `ProcessSet::on_heartbeat_incarnated`. Returns the decision
    /// (`None` for stale heartbeats).
    pub fn on_heartbeat_with_events(
        &mut self,
        key: K,
        seq: u64,
        arrival: Nanos,
        events: &mut Vec<StreamTransition<K>>,
    ) -> Option<Decision> {
        let builder = &self.builder;
        let entry = self.detectors.entry(key.clone()).or_insert_with(|| Entry {
            fd: builder.build(&key),
            last_published: FdOutput::Suspect,
        });
        let prev = entry.fd.current_decision();
        let decision = entry.fd.on_heartbeat(seq, arrival)?;

        if entry.last_published == FdOutput::Trust {
            if let Some(p) = prev {
                if p.trust_until < arrival {
                    entry.last_published = FdOutput::Suspect;
                    events.push(StreamTransition::new(
                        key.clone(),
                        TransitionKind::Suspect,
                        p.trust_until,
                    ));
                }
            }
        }

        if decision.trust_until > arrival && entry.last_published == FdOutput::Suspect {
            entry.last_published = FdOutput::Trust;
            events.push(StreamTransition::new(
                key.clone(),
                TransitionKind::Trust,
                arrival,
            ));
        }
        // Unconditional: even a shrink-case horizon (trust_until <=
        // arrival) is queued, so the live-entry multiset matches the
        // wheel's exactly.
        self.expiries.push(Reverse((decision.trust_until, key)));

        Some(decision)
    }

    /// Publishes the S-transition of every stream whose trust horizon
    /// expired strictly before `now`, stamped at the exact expiry
    /// instant.
    pub fn sweep(&mut self, now: Nanos, events: &mut Vec<StreamTransition<K>>) {
        while let Some(Reverse((t, _))) = self.expiries.peek() {
            if *t >= now {
                break;
            }
            let Reverse((t, key)) = self.expiries.pop().expect("peeked entry");
            let Some(entry) = self.detectors.get_mut(&key) else {
                continue; // deregistered since the entry was queued
            };
            let Some(d) = entry.fd.current_decision() else {
                continue;
            };
            if d.trust_until != t {
                continue; // stale: superseded by a fresher heartbeat
            }
            if entry.last_published == FdOutput::Trust {
                entry.last_published = FdOutput::Suspect;
                events.push(StreamTransition::new(key, TransitionKind::Suspect, t));
            }
        }
    }

    /// Earliest *live* queued horizon: stale entries (superseded or
    /// deregistered) are popped before reporting, so the returned
    /// instant always matches some stream's current `trust_until`.
    pub fn next_expiry(&mut self) -> Option<Nanos> {
        loop {
            let Reverse((t, key)) = self.expiries.peek()?;
            let live = self
                .detectors
                .get(key)
                .and_then(|e| e.fd.current_decision())
                .is_some_and(|d| d.trust_until == *t);
            if live {
                return Some(*t);
            }
            self.expiries.pop();
        }
    }

    /// The output for process `key` at time `t` (`None` if unknown).
    pub fn output(&self, key: &K, t: Nanos) -> Option<FdOutput> {
        self.detectors.get(key).map(|e| e.fd.output_at(t))
    }

    /// `(trusted, suspected)` process counts at time `t`.
    pub fn counts(&self, t: Nanos) -> (usize, usize) {
        let mut trusted = 0;
        let mut suspect = 0;
        for e in self.detectors.values() {
            match e.fd.output_at(t) {
                FdOutput::Trust => trusted += 1,
                FdOutput::Suspect => suspect += 1,
            }
        }
        (trusted, suspect)
    }

    /// Number of monitored processes.
    pub fn len(&self) -> usize {
        self.detectors.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use twofd::core::TwoWindowFd;
    use twofd::sim::Span;

    const DI: Span = Span(100_000_000);

    fn set() -> HeapProcessSet<&'static str, impl Fn(&&'static str) -> TwoWindowFd> {
        HeapProcessSet::new(|_key: &&str| TwoWindowFd::new(1, 100, DI, Span::from_millis(40)))
    }

    fn hb(seq: u64) -> Nanos {
        Nanos(seq * DI.0 + 10_000_000)
    }

    /// Feeds one heartbeat; the fresh decision's trust horizon.
    fn beat(
        s: &mut HeapProcessSet<&'static str, impl Fn(&&'static str) -> TwoWindowFd>,
        key: &'static str,
        seq: u64,
        at: Nanos,
    ) -> Nanos {
        s.on_heartbeat_with_events(key, seq, at, &mut Vec::new())
            .expect("fresh heartbeat")
            .trust_until
    }

    #[test]
    fn next_expiry_reports_only_live_horizons() {
        let mut s = set();
        let mut live = Nanos::ZERO;
        for seq in 1..=5 {
            live = beat(&mut s, "a", seq, hb(seq));
        }
        // The historical bug: four superseded horizons sit below `live`
        // in the heap. The fixed probe must skip them all.
        assert_eq!(s.next_expiry(), Some(live));
    }

    #[test]
    fn next_expiry_skips_deregistered_streams() {
        let mut s = set();
        beat(&mut s, "a", 1, hb(1));
        let live = beat(&mut s, "b", 5, hb(1) + Span::from_millis(1));
        s.deregister(&"a");
        assert_eq!(s.next_expiry(), Some(live));
        s.deregister(&"b");
        assert_eq!(s.next_expiry(), None);
    }

    #[test]
    fn sweep_and_synthesis_match_the_published_contract() {
        let mut s = set();
        let mut events = Vec::new();
        let trust_until = s
            .on_heartbeat_with_events("a", 1, hb(1), &mut events)
            .expect("fresh heartbeat")
            .trust_until;
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].output, FdOutput::Trust);
        events.clear();
        s.sweep(trust_until, &mut events);
        assert!(events.is_empty(), "horizon instant itself is exclusive");
        s.sweep(trust_until + Span(1), &mut events);
        assert_eq!(
            events,
            vec![StreamTransition::new(
                "a",
                TransitionKind::Suspect,
                trust_until
            )]
        );
    }
}
