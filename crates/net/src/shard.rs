//! Sharded monitor runtime for high-cardinality fleets.
//!
//! One `Mutex<ProcessSet>` for a whole fleet would serialize ingestion,
//! queries and expiry sweeping across every stream. This module
//! partitions that state by stream id:
//!
//! ```text
//!                 ingest_batch(&[(stream, seq, arrival, incarnation)])
//!                        │  route: stream % n_shards
//!                        │  (jobs grouped per shard, one
//!                        │   Inbox::push per group)
//!        ┌───────────────┼───────────────┐
//!     [Inbox]         [Inbox]         [Inbox]       Inbox::push:
//!        │               │               │          drop-oldest +
//!   shard worker    shard worker    shard worker    per-shard counter
//!   one mutex:      one mutex:      one mutex:
//!   ShardCore       ShardCore       ShardCore
//!   (ProcessSet +   (ProcessSet +   (ProcessSet +
//!   slot-indexed    slot-indexed    slot-indexed
//!   obs state)      obs state)      obs state)
//!        └───────────────┴───────────────┘
//!                 bounded Events queue (counted drops)
//! ```
//!
//! * **One pass body** — a shard's state is a [`ShardCore`]: its
//!   [`ProcessSet`] and the opt-in observability state below, with no
//!   lock, clock, channel or thread inside. [`ShardCore::pass`] applies
//!   an inbox of heartbeats, sweeps, and feeds the trackers; it is the
//!   only caller of [`ProcessSet::on_heartbeat_incarnated`], and only
//!   the core's `pass` and `sweep` call [`ProcessSet::sweep`]. The
//!   shard worker calls `pass` under the shard lock; the cluster
//!   simulator owns its cores and calls it from its one thread.
//! * **One way in, one lock per shard** — [`ShardRuntime::ingest_batch`]
//!   is the only ingest entry. Each shard has exactly one mutex, guarding
//!   its [`ShardCore`]; it is only ever contended between that shard's
//!   worker and direct queries or scrapes against the same shard — never
//!   across shards. Every control and query method is one call into the
//!   core under that lock.
//! * **Bounded everything** — ingestion never blocks: a full shard queue
//!   drops its *oldest* heartbeat (the one a fresher heartbeat from the
//!   same regime supersedes anyway — sequence-number freshness makes
//!   drop-oldest strictly better than drop-newest here) and counts it.
//!   The event channel drops (and counts) on overflow instead of growing
//!   without bound.
//! * **Batched handoff** — [`ShardRuntime::ingest_batch`] groups a
//!   decoded batch by shard and pushes each group into the shard's
//!   [`Inbox`] with one queue lock and at most one worker wakeup, so
//!   queue costs amortize across the batch. The accounting identity is
//!   untouched: every heartbeat of a batch is counted received, and
//!   every one the push displaces (from the queue or from the batch's
//!   own overflow) is counted dropped. The worker mirrors it on the way
//!   out: one pass takes the shard lock, takes up to `MAX_BATCH`
//!   heartbeats with one queue lock ([`Inbox::take`], which also moves
//!   the `applied` watermark [`ShardRuntime::flush`] waits on), applies
//!   them back to back, and bumps `applied`/`stale` once — the queue
//!   lock and the counter lines are touched per pass, not per
//!   heartbeat.
//! * **Deadline-driven sweeping** — each worker advances its shard's
//!   hierarchical timing wheel ([`twofd_core::wheel`]) on every pass,
//!   harvesting every expired horizon in one `O(1)`-amortized
//!   sweep and publishing Trust→Suspect transitions at the exact
//!   `trust_until` instant without anyone querying. A pass that empties
//!   its queue sweeps up to the clock's `now`; a full pass that leaves
//!   heartbeats queued sweeps up to the arrival of the last heartbeat
//!   it applied. So a saturated worker publishes a silent stream's
//!   Suspect once it has applied heartbeats that arrived after the
//!   horizon, rather than leaving it to the heartbeat that ends the
//!   silence (which a crashed process never sends). An idle worker
//!   *parks* on its queue until [`ProcessSet::next_expiry`] (any
//!   enqueue wakes it immediately), so idle shards cost ~zero CPU and
//!   suspicion is published at the freshness point itself rather than
//!   up to one poll interval late. `next_expiry` prunes superseded
//!   wheel entries before reporting, so the park deadline always
//!   belongs to a live stream and never wakes the worker for a dead
//!   horizon.
//!
//! Because transitions carry exact timestamps (see
//! [`twofd_core::multi`]), the per-stream event timeline is a pure
//! function of the heartbeat schedule — scheduling jitter between
//! workers and sweepers cannot change it. The sweep horizon of a full
//! pass relies on each shard queue having one producer that stamps
//! arrivals in order (the fleet's ingest thread, or a simulator's
//! driver), so that no queued heartbeat arrived before one already
//! dequeued; the inbox counts every arrival that breaks that rule in
//! `twofd_shard_out_of_order_total`. A single-threaded caller of
//! [`ShardCore::pass`] keeps the same rule in its simplest form: apply
//! in arrival order, sweep to the last arrival. The `shard_equivalence`
//! integration test exploits this to check the sharded runtime against
//! the sequential replay oracle event-for-event.
//!
//! ## Observability
//!
//! Every counter the runtime keeps lives in a [`Registry`]
//! ([`twofd_obs`]): per-shard received/dropped/applied/stale counters
//! and transition totals are always on (each costs one relaxed atomic
//! increment), a sweep-duration histogram times every expiry sweep,
//! and a scrape hook fills queue-depth and live/suspect gauges at
//! exposition time. Two opt-in extras ride in the shard pass behind
//! [`ObsOptions`]: an inter-arrival jitter histogram, and per-stream
//! online QoS tracking ([`twofd_obs::QosTracker`]) fed by the same
//! freshness decisions and transition events the detectors already
//! produce. [`RuntimeStats`] is the programmatic snapshot, a thin view
//! over the same registry-backed cells that `GET /metrics` renders.
//!
//! The per-stream part of those extras (last arrival, tracker) is a
//! `Vec` indexed by the dense slot the [`ProcessSet`] interned the
//! stream at, inside the same [`ShardCore`] as the set: the apply entry
//! hands the slot back, so feeding a heartbeat costs one indexed write
//! and no
//! second lookup, and a tracker can never be read between a pass's
//! heartbeats and that pass's transitions. `deregister` clears a slot's
//! entry (and its `twofd_qos_*` series) before the slab recycles the
//! slot.

use crate::clock::TimeSource;
use crate::inbox::{Events, Inbox};
use crate::unpoison;
use std::fmt;
use std::sync::{Arc, Mutex, Weak};
use std::thread::{self, JoinHandle};
use std::time::Duration;
use twofd_core::{
    AnyDetector, Decision, DetectorBuilder, DetectorConfig, FdOutput, ProcessSet, ProcessStatus,
    QosMetrics, StreamTransition, TransitionKind,
};
use twofd_obs::{
    qos::judge, Counter, GaugeVec, Histogram, QosAxis, QosPlan, QosTracker, QosVerdict, Registry,
};
use twofd_sim::time::Nanos;

/// A Trust/Suspect transition of one monitored stream, as published by
/// the sharded runtime.
pub type FleetEvent = StreamTransition<u64>;

/// How a shard builds the detector for a newly seen stream.
///
/// Every path goes through [`DetectorConfig`] — and therefore through
/// `DetectorSpec`, the workspace's single construction recipe — so the
/// per-stream detectors are inline [`AnyDetector`] values: no per-stream
/// heap allocation, no vtable on the heartbeat hot path.
#[derive(Clone)]
pub enum DetectorPlan {
    /// Every stream gets the same recipe (the common case).
    Uniform(DetectorConfig),
    /// Per-stream recipes, e.g. per-tenant QoS tiers. The closure
    /// returns a *config*, not a detector, so construction still goes
    /// through the one spec-based path.
    PerStream(Arc<dyn Fn(&u64) -> DetectorConfig + Send + Sync>),
}

impl DetectorPlan {
    /// The recipe used for stream `stream`.
    pub fn config_for(&self, stream: &u64) -> DetectorConfig {
        match self {
            DetectorPlan::Uniform(config) => config.clone(),
            DetectorPlan::PerStream(f) => f(stream),
        }
    }
}

impl Default for DetectorPlan {
    /// The paper's configuration: `2w-fd(1,1000)` at the default
    /// interval/margin of [`DetectorConfig::default`].
    fn default() -> Self {
        DetectorPlan::Uniform(DetectorConfig::default())
    }
}

impl From<DetectorConfig> for DetectorPlan {
    fn from(config: DetectorConfig) -> Self {
        DetectorPlan::Uniform(config)
    }
}

impl fmt::Debug for DetectorPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DetectorPlan::Uniform(config) => f.debug_tuple("Uniform").field(config).finish(),
            DetectorPlan::PerStream(_) => f.debug_tuple("PerStream").field(&"<fn>").finish(),
        }
    }
}

impl DetectorBuilder<u64> for DetectorPlan {
    type Detector = AnyDetector;

    fn build(&self, stream: &u64) -> AnyDetector {
        self.config_for(stream).build()
    }
}

/// Opt-in worker-thread observability. The always-on counters and the
/// sweep histogram are not gated here — they are as cheap as the raw
/// atomics they replaced; these options add per-heartbeat bookkeeping
/// that is not.
#[derive(Debug, Clone, Default)]
pub struct ObsOptions {
    /// Record per-stream inter-arrival gaps into a per-shard
    /// `twofd_interarrival_seconds` histogram.
    pub jitter: bool,
    /// Attach an online [`QosTracker`] to streams per this plan; the
    /// estimates surface as `twofd_qos_*` gauges on scrape and through
    /// [`ShardRuntime::qos_metrics`] / [`ShardRuntime::qos_verdict`].
    pub qos: Option<QosPlan>,
}

/// Tuning knobs of the sharded runtime, including which detector runs
/// on each stream.
#[derive(Debug, Clone)]
pub struct ShardConfig {
    /// How to build the detector for a newly seen stream. Defaults to
    /// the paper's `2w-fd(1,1000)` recipe.
    pub detector: DetectorPlan,
    /// Number of shard workers (streams are routed by `id % n_shards`).
    pub n_shards: usize,
    /// Per-shard heartbeat queue capacity; overflow drops the oldest
    /// queued heartbeat and counts it.
    pub queue_capacity: usize,
    /// Upper bound on one idle park: how long a worker may wait before
    /// re-validating its sweep deadline against the clock. Workers park
    /// on their queue until `min(next_expiry − now, sweep_interval)` —
    /// any enqueue wakes them immediately, and a worker with no pending
    /// expiry parks until traffic arrives — so on a live clock
    /// processing lag and publication lateness are event-driven and this
    /// bounds neither; it bounds how stale a park can go when the clock
    /// is driven externally (a [`crate::clock::ManualClock`] advanced
    /// while the worker sleeps).
    pub sweep_interval: Duration,
    /// Capacity of the shared transition-event channel; overflow drops
    /// the newest event and counts it.
    pub event_capacity: usize,
    /// Opt-in observability extras (jitter histogram, online QoS).
    pub obs: ObsOptions,
}

impl Default for ShardConfig {
    fn default() -> Self {
        ShardConfig {
            detector: DetectorPlan::default(),
            n_shards: 4,
            queue_capacity: 1024,
            // Deadline re-validation cadence, not a poll period: 4
            // wakeups/s per idle shard with a pending expiry (zero with
            // none). The live clock wakes workers at the deadline
            // itself; see the field docs.
            sweep_interval: Duration::from_millis(250),
            event_capacity: 4096,
            obs: ObsOptions::default(),
        }
    }
}

/// One heartbeat routed to a shard: `(stream, seq, arrival,
/// incarnation)`. This is the element type of
/// [`ShardRuntime::ingest_batch`] slices. A sender that has never
/// restarted carries incarnation 0.
pub type Job = (u64, u64, Nanos, u32);

/// Largest number of heartbeats a worker dequeues and applies under one
/// lock acquisition (and the size of its inbox). Batching amortizes
/// locking; the cap keeps queries from starving under sustained floods.
const MAX_BATCH: usize = 512;

/// Largest slice [`ShardRuntime::ingest_batch`] groups in one pass; the
/// per-shard group buffer lives on the stack at this size. Larger
/// batches are simply processed in `GROUP_BATCH`-sized chunks.
const GROUP_BATCH: usize = 64;

/// Floor on one park while an expiry is pending. Waking *at* the
/// deadline cannot retire it (the sweep comparison is strict), so the
/// park always overshoots by at least this much; it also keeps a
/// manually driven clock pinned exactly at an expiry from spinning the
/// worker.
const MIN_PARK: Duration = Duration::from_micros(200);

/// Yields a worker spends waiting for its queue to refill after a
/// productive drain, before falling back to the sweep-then-park path.
/// Under sustained load the producer refills the queue within a yield,
/// so the worker picks the next batch up without a futex park/wake
/// round-trip — on a core-starved host those round-trips otherwise
/// dominate small per-shard batches (each wake retires
/// `batch/n_shards` heartbeats but costs a full context switch). On an
/// idle fleet the yields return immediately (no other runnable thread)
/// and the worker parks exactly as before.
const DRAIN_LINGER: u32 = 16;

/// Per-stream opt-in observability state, one entry per slab slot.
struct StreamObs {
    /// The stream interned at this slot; scrapes label its series by it.
    stream: u64,
    last_arrival: Option<Nanos>,
    tracker: Option<QosTracker>,
}

/// The opt-in observability state of one shard.
struct ShardObs {
    jitter: Option<Histogram>,
    qos: Option<QosPlan>,
    /// Indexed by the slot the shard's [`ProcessSet`] interned the
    /// stream at; `None` until the slot's occupant is first heard from.
    streams: Vec<Option<StreamObs>>,
}

impl ShardObs {
    /// The entry of `stream`, interned at `slot`, created on first use.
    fn stream(&mut self, slot: u32, stream: u64) -> &mut StreamObs {
        let i = slot as usize;
        if i >= self.streams.len() {
            self.streams.resize_with(i + 1, || None);
        }
        let qos = &self.qos;
        self.streams[i].get_or_insert_with(|| StreamObs {
            stream,
            last_arrival: None,
            tracker: qos
                .as_ref()
                .and_then(|p| p.config_for(&stream))
                .map(QosTracker::new),
        })
    }

    fn on_heartbeat(
        &mut self,
        slot: u32,
        (stream, seq, arrival, _incarnation): Job,
        decision: Option<Decision>,
    ) {
        let obs = self.stream(slot, stream);
        let previous = obs.last_arrival.replace(arrival);
        if let Some(tracker) = &mut obs.tracker {
            tracker.on_heartbeat(seq, arrival, decision);
        }
        if let (Some(hist), Some(last)) = (&self.jitter, previous) {
            hist.observe_span(arrival.saturating_since(last));
        }
    }
}

/// One shard's detector bank — a [`ProcessSet`] — and, beside it, the
/// opt-in observability state indexed by the bank's slots.
///
/// A `ShardCore` holds no lock, clock, channel or thread: every method
/// is a plain `&mut self` call that takes the instant it works at and
/// appends the transitions it produces to a caller-owned `Vec`.
/// [`ShardCore::pass`] is the one body of a shard pass. A
/// [`ShardRuntime`] keeps one core per shard under the shard's mutex and
/// its worker thread calls `pass`; a single-threaded caller (the cluster
/// simulator) owns its cores outright and calls the same methods. Fed
/// the same heartbeats in arrival order and swept to the same instants,
/// the two publish the same timeline.
pub struct ShardCore {
    set: ProcessSet<u64, DetectorPlan>,
    /// `None` when no observability extra is on, so the default apply
    /// loop pays one never-taken branch for it.
    obs: Option<ShardObs>,
    /// The `twofd_sweep_duration_seconds` cell of a runtime's shard.
    /// Its wall-clock reads time the sweep for the metric and never
    /// feed a decision; a core without one reads no clock at all.
    sweep_hist: Option<Histogram>,
    /// What the current pass applied, by slot, for the obs feed at the
    /// end of the pass; only populated when the extras are on. The feed
    /// runs after the applies, not among them: back to back, the
    /// tracker updates' cache misses overlap, while one interleaved
    /// with each apply is paid in full (EXPERIMENTS.md, "One lock, one
    /// table").
    observed: Vec<(u32, Job, Option<Decision>)>,
}

impl ShardCore {
    /// An empty core building detectors per `detector`, with an online
    /// [`QosTracker`] on every stream `qos` covers.
    pub fn new(detector: DetectorPlan, qos: Option<QosPlan>) -> Self {
        Self::with_metrics(detector, qos, None, None)
    }

    fn with_metrics(
        detector: DetectorPlan,
        qos: Option<QosPlan>,
        jitter: Option<Histogram>,
        sweep_hist: Option<Histogram>,
    ) -> Self {
        let obs = (jitter.is_some() || qos.is_some()).then(|| ShardObs {
            jitter,
            qos,
            // hotpath:allow(alloc) — startup path: the empty table; it
            // grows with the slab, at registration.
            streams: Vec::new(),
        });
        ShardCore {
            set: ProcessSet::new(detector),
            obs,
            sweep_hist,
            // hotpath:allow(alloc) — startup path: reused (drained,
            // never dropped) by every pass.
            observed: Vec::new(),
        }
    }

    /// One shard pass at instant `now`: applies `inbox` (drained) in
    /// order, sweeps every horizon that expired before `now`, then
    /// feeds the jitter/QoS extras the pass's heartbeats and, after
    /// them, its transitions. `backlog` says the caller left heartbeats
    /// queued behind this inbox; such a pass sweeps no further than its
    /// last applied arrival. Appends the pass's transitions to `events`
    /// and returns how many heartbeats were stale.
    ///
    /// The timeline is the sequential one, however the heartbeats are
    /// cut into passes, as long as each inbox is in arrival order, none
    /// of it arrived before a heartbeat an earlier pass applied, and —
    /// unless `backlog` is set — no heartbeat left for a later pass
    /// arrived before `now`.
    pub fn pass(
        &mut self,
        now: Nanos,
        backlog: bool,
        inbox: &mut Vec<Job>,
        events: &mut Vec<FleetEvent>,
    ) -> u64 {
        let start = events.len();
        let last_applied = inbox.last().map(|&(_, _, arrival, _)| arrival);
        let mut stale = 0u64;
        for job in inbox.drain(..) {
            let (stream, seq, arrival, incarnation) = job;
            let (slot, decision) =
                self.set
                    .on_heartbeat_incarnated(stream, incarnation, seq, arrival, events);
            stale += u64::from(decision.is_none());
            if self.obs.is_some() {
                self.observed.push((slot, job, decision));
            }
        }
        self.sweep_set(sweep_horizon(now, last_applied, backlog), events);
        // Heartbeats first, then the pass's transitions: TD samples are
        // order-insensitive, and the transition list already carries
        // the exact mistake timeline.
        if let Some(obs) = &mut self.obs {
            for (slot, job, decision) in self.observed.drain(..) {
                obs.on_heartbeat(slot, job, decision);
            }
        }
        self.observe_transitions(&events[start..]);
        stale
    }

    /// Publishes the Suspect of every stream whose horizon expired
    /// strictly before `now`, stamped at the horizon, and feeds them to
    /// the QoS trackers. Idempotent: a horizon is retired once.
    pub fn sweep(&mut self, now: Nanos, events: &mut Vec<FleetEvent>) {
        let start = events.len();
        self.sweep_set(now, events);
        self.observe_transitions(&events[start..]);
    }

    fn sweep_set(&mut self, now: Nanos, events: &mut Vec<FleetEvent>) {
        // xtask:allow(wall_clock) — times the sweep for the sweep_hist
        // metric; never feeds detector decisions.
        let started = self.sweep_hist.is_some().then(std::time::Instant::now);
        self.set.sweep(now, events);
        if let (Some(hist), Some(started)) = (&self.sweep_hist, started) {
            hist.observe_ns(started.elapsed().as_nanos() as u64);
        }
    }

    /// Seeds (or refreshes) `stream`'s horizon and incarnation from a
    /// peer's relayed view at instant `now` — see
    /// [`ProcessSet::adopt`] — and feeds the resulting transitions to
    /// its tracker. Returns whether the view was applied.
    pub fn adopt(
        &mut self,
        stream: u64,
        incarnation: u32,
        trust_until: Nanos,
        now: Nanos,
        events: &mut Vec<FleetEvent>,
    ) -> bool {
        let start = events.len();
        let applied = self
            .set
            .adopt(stream, incarnation, trust_until, now, events);
        self.observe_transitions(&events[start..]);
        applied
    }

    /// Feeds transitions this core just appended to the QoS trackers of
    /// their streams (a jitter-only configuration has none).
    fn observe_transitions(&mut self, events: &[FleetEvent]) {
        let Some(obs) = self.obs.as_mut().filter(|obs| obs.qos.is_some()) else {
            return;
        };
        for event in events {
            let Some(slot) = self.set.slot_of(&event.key) else {
                continue;
            };
            if let Some(tracker) = &mut obs.stream(slot, event.key).tracker {
                tracker.on_transition_kind(event.kind, event.at);
            }
        }
    }

    /// Pre-registers `stream` (suspect until its first heartbeat); a
    /// no-op for a known stream.
    pub fn register(&mut self, stream: u64) {
        self.set.register(stream);
    }

    /// Removes `stream`, its obs entry first: the slot reaches the
    /// slab's free list with nothing for its next occupant to inherit.
    /// Returns whether the stream existed and whether it had a tracker.
    fn deregister(&mut self, stream: u64) -> (bool, bool) {
        let obs = self
            .set
            .slot_of(&stream)
            .and_then(|slot| self.obs.as_mut()?.streams.get_mut(slot as usize)?.take());
        (
            self.set.deregister(&stream),
            obs.is_some_and(|obs| obs.tracker.is_some()),
        )
    }

    /// `stream`'s output at `now` (`None` if never seen or registered).
    pub fn output(&self, stream: u64, now: Nanos) -> Option<FdOutput> {
        self.set.output(&stream, now)
    }

    /// Status of every stream of this core at `now`.
    pub fn statuses(&self, now: Nanos) -> Vec<ProcessStatus<u64>> {
        self.set.statuses(now)
    }

    fn tracker(&mut self, stream: u64) -> Option<&mut QosTracker> {
        let slot = self.set.slot_of(&stream)?;
        let obs = self.obs.as_mut()?.streams.get_mut(slot as usize)?;
        obs.as_mut()?.tracker.as_mut()
    }

    /// `stream`'s online QoS estimates at `now`, if a tracker covers it.
    pub fn qos_metrics(&mut self, stream: u64, now: Nanos) -> Option<QosMetrics> {
        Some(self.tracker(stream)?.metrics_at(now))
    }

    /// `stream`'s verdict against its QoS bound at `now`, if a tracker
    /// covers it.
    pub fn qos_verdict(&mut self, stream: u64, now: Nanos) -> Option<QosVerdict> {
        Some(self.tracker(stream)?.verdict_at(now))
    }
}

struct ShardShared {
    /// The shard's one lock.
    core: Mutex<ShardCore>,
    /// The shard's queue: the ingest path pushes, the worker takes.
    inbox: Inbox,
    /// Heartbeats routed to this shard.
    received: Counter,
    /// Heartbeats evicted by drop-oldest backpressure.
    dropped: Counter,
    /// Heartbeats applied by the worker (fresh + stale).
    applied: Counter,
    /// Stale (duplicate/reordered) heartbeats ignored by detectors.
    stale: Counter,
    /// Heartbeats pushed with an arrival earlier than the latest one
    /// already pushed to this shard: the one-producer rule broken.
    out_of_order: Counter,
    /// Suspect→Trust transitions published.
    to_trust: Counter,
    /// Trust→Suspect transitions published.
    to_suspect: Counter,
    /// Recovered transitions published (restart with a bumped
    /// incarnation re-trusted the stream).
    to_recovered: Counter,
}

struct Shard {
    shared: Arc<ShardShared>,
    worker: Option<JoinHandle<()>>,
}

/// Observability snapshot of one shard.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard index.
    pub shard: usize,
    /// Heartbeats routed to this shard.
    pub received: u64,
    /// Heartbeats evicted by drop-oldest backpressure.
    pub dropped: u64,
    /// Heartbeats applied by the worker (fresh + stale). Every routed
    /// heartbeat ends up applied or dropped: once the queue drains,
    /// `received == applied + dropped`.
    pub applied: u64,
    /// Stale heartbeats ignored by detectors.
    pub stale: u64,
    /// Heartbeats currently queued, awaiting the worker.
    pub queue_depth: usize,
    /// Streams owned by this shard.
    pub streams: usize,
    /// Streams currently output `Trust`.
    pub live: usize,
    /// Streams currently output `Suspect`.
    pub suspect: usize,
    /// Suspect→Trust transitions published so far.
    pub to_trust: u64,
    /// Trust→Suspect transitions published so far.
    pub to_suspect: u64,
    /// Recovered transitions published so far (incarnation bumps).
    pub to_recovered: u64,
}

/// Observability snapshot of the whole runtime.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RuntimeStats {
    /// Per-shard breakdown, indexed by shard.
    pub shards: Vec<ShardStats>,
    /// Transition events dropped because the event channel was full.
    pub events_dropped: u64,
}

impl RuntimeStats {
    /// Total heartbeats routed.
    pub fn received(&self) -> u64 {
        self.shards.iter().map(|s| s.received).sum()
    }

    /// Total heartbeats dropped by backpressure.
    pub fn dropped(&self) -> u64 {
        self.shards.iter().map(|s| s.dropped).sum()
    }

    /// Total heartbeats applied by workers.
    pub fn applied(&self) -> u64 {
        self.shards.iter().map(|s| s.applied).sum()
    }

    /// Total stale heartbeats ignored.
    pub fn stale(&self) -> u64 {
        self.shards.iter().map(|s| s.stale).sum()
    }

    /// Total monitored streams.
    pub fn streams(&self) -> usize {
        self.shards.iter().map(|s| s.streams).sum()
    }

    /// Streams currently trusted, fleet-wide.
    pub fn live(&self) -> usize {
        self.shards.iter().map(|s| s.live).sum()
    }

    /// Streams currently suspected, fleet-wide.
    pub fn suspect(&self) -> usize {
        self.shards.iter().map(|s| s.suspect).sum()
    }

    /// Total transitions published (all directions).
    pub fn transitions(&self) -> u64 {
        self.shards
            .iter()
            .map(|s| s.to_trust + s.to_suspect + s.to_recovered)
            .sum()
    }

    /// Total Recovered transitions published, fleet-wide.
    pub fn recovered(&self) -> u64 {
        self.shards.iter().map(|s| s.to_recovered).sum()
    }
}

/// Everything the workers, queries and scrape hooks share. Split from
/// [`ShardRuntime`] so the registry's scrape hook can hold a [`Weak`]
/// reference — the hook must not keep the runtime alive after it is
/// dropped, or shutdown would never close the worker queues.
struct Inner {
    shards: Vec<Shard>,
    /// Where the workers, `adopt` and [`ShardRuntime::sweep_now`]
    /// publish transitions.
    events: Arc<Events<FleetEvent>>,
    /// The per-stream `twofd_qos_*` families, when QoS tracking is on:
    /// scrapes publish into them, `deregister` removes from them.
    qos_gauges: Option<QosGauges>,
    clock: Arc<dyn TimeSource>,
}

impl Inner {
    fn shard_of(&self, stream: u64) -> &Shard {
        &self.shards[(stream % self.shards.len() as u64) as usize]
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        for shard in &self.shards {
            shard.shared.inbox.close(); // the worker drains and exits
        }
        for shard in &mut self.shards {
            if let Some(handle) = shard.worker.take() {
                let _ = handle.join();
            }
        }
    }
}

/// The per-stream QoS gauge families, resolved lazily per stream at
/// scrape time (scrape hooks run before the exposition lock is taken,
/// so `.with()` inside a hook is safe).
struct QosGauges {
    detection_time: GaugeVec,
    mistake_rate: GaugeVec,
    mistake_duration: GaugeVec,
    query_accuracy: GaugeVec,
    met: GaugeVec,
    axis_violated: GaugeVec,
}

impl QosGauges {
    fn new(registry: &Registry) -> QosGauges {
        QosGauges {
            detection_time: registry.gauge_vec(
                "twofd_qos_detection_time_seconds",
                "Online windowed estimate of detection time T_D",
                &["stream"],
            ),
            mistake_rate: registry.gauge_vec(
                "twofd_qos_mistake_rate_per_second",
                "Online windowed mistake rate (1 / T_MR)",
                &["stream"],
            ),
            mistake_duration: registry.gauge_vec(
                "twofd_qos_mistake_duration_seconds",
                "Online windowed mean mistake duration T_M",
                &["stream"],
            ),
            query_accuracy: registry.gauge_vec(
                "twofd_qos_query_accuracy",
                "Online windowed query accuracy probability P_A",
                &["stream"],
            ),
            met: registry.gauge_vec(
                "twofd_qos_met",
                "1 when the stream currently meets its configured QoS bound",
                &["stream"],
            ),
            axis_violated: registry.gauge_vec(
                "twofd_qos_axis_violated",
                "1 when the named QoS axis is currently out of contract",
                &["stream", "axis"],
            ),
        }
    }

    fn publish(&self, stream: u64, metrics: &QosMetrics, verdict: Option<&QosVerdict>) {
        let label = stream.to_string();
        self.detection_time
            .with(&[&label])
            .set(metrics.detection_time);
        self.mistake_rate.with(&[&label]).set(metrics.mistake_rate);
        self.mistake_duration
            .with(&[&label])
            .set(metrics.avg_mistake_duration);
        self.query_accuracy
            .with(&[&label])
            .set(metrics.query_accuracy);
        if let Some(v) = verdict {
            self.met.with(&[&label]).set(if v.met { 1.0 } else { 0.0 });
            for axis in QosAxis::ALL {
                let violated = v.violated_axes.contains(&axis);
                self.axis_violated
                    .with(&[&label, axis.label()])
                    .set(if violated { 1.0 } else { 0.0 });
            }
        }
    }

    /// Drops every series of a deregistered stream, so churn cannot
    /// grow the exposition's label cardinality without bound.
    fn remove(&self, stream: u64) {
        let label = stream.to_string();
        for family in [
            &self.detection_time,
            &self.mistake_rate,
            &self.mistake_duration,
            &self.query_accuracy,
            &self.met,
        ] {
            family.remove(&[&label]);
        }
        for axis in QosAxis::ALL {
            self.axis_violated.remove(&[&label, axis.label()]);
        }
    }
}

/// The socket-free sharded monitor core.
///
/// [`ShardRuntime::ingest_batch`] routes timestamped heartbeats to per-stream
/// detectors across `n_shards` worker threads; queries and the
/// [`ShardRuntime::events`] channel read the results. The UDP layer
/// ([`crate::fleet::FleetMonitor`]) is a thin shell around this.
pub struct ShardRuntime {
    inner: Arc<Inner>,
    registry: Registry,
}

impl ShardRuntime {
    /// Starts `config.n_shards` workers building detectors per
    /// `config.detector` and reading sweep times from `clock`, with a
    /// fresh private [`Registry`].
    ///
    /// # Panics
    /// If `n_shards` or `queue_capacity` is zero.
    pub fn new(config: ShardConfig, clock: Arc<dyn TimeSource>) -> Self {
        let registry = Registry::new();
        assert!(config.n_shards > 0, "need at least one shard");
        assert!(
            config.queue_capacity > 0,
            "shard queues must hold something"
        );
        let events = Arc::new(Events::new(
            config.event_capacity,
            registry.counter(
                "twofd_events_dropped_total",
                "Transition events dropped because the event channel was full",
            ),
        ));

        let received_vec = registry.counter_vec(
            "twofd_shard_received_total",
            "Heartbeats routed to the shard",
            &["shard"],
        );
        let dropped_vec = registry.counter_vec(
            "twofd_shard_dropped_total",
            "Heartbeats evicted by drop-oldest backpressure",
            &["shard"],
        );
        let applied_vec = registry.counter_vec(
            "twofd_shard_applied_total",
            "Heartbeats applied by the shard worker (fresh + stale)",
            &["shard"],
        );
        let stale_vec = registry.counter_vec(
            "twofd_shard_stale_total",
            "Stale (duplicate/reordered) heartbeats ignored by detectors",
            &["shard"],
        );
        let out_of_order_vec = registry.counter_vec(
            "twofd_shard_out_of_order_total",
            "Heartbeats pushed with an arrival earlier than the latest one already pushed to the shard",
            &["shard"],
        );
        let transitions_vec = registry.counter_vec(
            "twofd_shard_transitions_total",
            "Trust/Suspect transitions published",
            &["shard", "direction"],
        );
        let sweep_vec = registry.histogram_vec(
            "twofd_sweep_duration_seconds",
            "Wall-clock duration of each expiry sweep",
            &["shard"],
        );
        let jitter_vec = config.obs.jitter.then(|| {
            registry.histogram_vec(
                "twofd_interarrival_seconds",
                "Per-stream heartbeat inter-arrival gaps",
                &["shard"],
            )
        });

        let shards = (0..config.n_shards)
            .map(|i| {
                let label = i.to_string();
                let shared = Arc::new(ShardShared {
                    core: Mutex::new(ShardCore::with_metrics(
                        config.detector.clone(),
                        config.obs.qos.clone(),
                        jitter_vec.as_ref().map(|v| v.with(&[&label])),
                        Some(sweep_vec.with(&[&label])),
                    )),
                    inbox: Inbox::new(config.queue_capacity),
                    received: received_vec.with(&[&label]),
                    dropped: dropped_vec.with(&[&label]),
                    applied: applied_vec.with(&[&label]),
                    stale: stale_vec.with(&[&label]),
                    out_of_order: out_of_order_vec.with(&[&label]),
                    to_trust: transitions_vec.with(&[&label, "to_trust"]),
                    to_suspect: transitions_vec.with(&[&label, "to_suspect"]),
                    to_recovered: transitions_vec.with(&[&label, "to_recovered"]),
                });
                let worker = {
                    let shared = Arc::clone(&shared);
                    let events = Arc::clone(&events);
                    let clock = Arc::clone(&clock);
                    let sweep_interval = config.sweep_interval;
                    thread::Builder::new()
                        // hotpath:allow(alloc) — startup path: one
                        // thread-name string per shard, at spawn.
                        .name(format!("twofd-shard-{i}"))
                        .spawn(move || shard_worker(shared, events, clock, sweep_interval))
                        // hotpath:allow(panic) — startup path: failing
                        // to spawn a worker means the runtime cannot
                        // exist; fail-stop at construction is correct.
                        .expect("spawn shard worker")
                };
                Shard {
                    shared,
                    worker: Some(worker),
                }
            })
            .collect();

        let inner = Arc::new(Inner {
            shards,
            events,
            qos_gauges: config.obs.qos.as_ref().map(|_| QosGauges::new(&registry)),
            clock,
        });
        Self::install_scrape_hook(&registry, &inner);
        ShardRuntime { inner, registry }
    }

    /// Registers the snapshot-gauge scrape hook. The hook holds a
    /// [`Weak`] so dropping the runtime still disconnects the worker
    /// queues; a scrape after that renders the last pushed values.
    fn install_scrape_hook(registry: &Registry, inner: &Arc<Inner>) {
        let queue_depth = registry.gauge_vec(
            "twofd_shard_queue_depth",
            "Heartbeats queued, awaiting the shard worker",
            &["shard"],
        );
        let streams_gauge = registry.gauge_vec(
            "twofd_shard_streams",
            "Monitored streams by current output state",
            &["shard", "state"],
        );
        let events_depth = registry.gauge(
            "twofd_events_queue_depth",
            "Transition events queued, awaiting the consumer",
        );
        let weak: Weak<Inner> = Arc::downgrade(inner);
        registry.on_scrape(move || {
            let Some(inner) = weak.upgrade() else { return };
            let now = inner.clock.now();
            events_depth.set(inner.events.len() as f64);
            for (i, shard) in inner.shards.iter().enumerate() {
                let label = i.to_string();
                queue_depth
                    .with(&[&label])
                    .set(shard.shared.inbox.len() as f64);
                // hotpath:allow(block) — scrape path, not the worker
                // loop: runs at exporter cadence (seconds) and holds
                // each shard's lock for an O(live) tally plus, with QoS
                // tracking on, one estimate per tracked stream.
                let mut core = unpoison(shard.shared.core.lock());
                let (live, suspect) = core.set.counts(now);
                streams_gauge.with(&[&label, "live"]).set(live as f64);
                streams_gauge.with(&[&label, "suspect"]).set(suspect as f64);
                if let (Some(gauges), Some(obs)) = (&inner.qos_gauges, &mut core.obs) {
                    for obs in obs.streams.iter_mut().flatten() {
                        if let Some(tracker) = &mut obs.tracker {
                            let metrics = tracker.metrics_at(now);
                            let verdict = tracker.config().spec.map(|spec| judge(&spec, &metrics));
                            gauges.publish(obs.stream, &metrics, verdict.as_ref());
                        }
                    }
                }
            }
        });
    }

    /// The registry holding every metric of this runtime. Clone it into
    /// a [`twofd_obs::MetricsServer`] to serve `GET /metrics`.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    fn shard_of(&self, stream: u64) -> &Shard {
        self.inner.shard_of(stream)
    }

    /// Routes decoded, timestamped heartbeats — the one way in —
    /// grouping them by shard so that each shard's queue is taken once
    /// per batch (one lock acquisition, at most one worker wakeup)
    /// instead of once per heartbeat. Never blocks: a full shard queue
    /// evicts its oldest heartbeats. Ordering per stream is preserved,
    /// and the accounting identity is exact: every job is counted
    /// received and everything the enqueue displaces — whether evicted
    /// from the queue or shed from an over-capacity batch — is counted
    /// dropped.
    ///
    /// Each job carries the sender's boot counter. A higher incarnation
    /// than the stream's current one resets its detector (the
    /// sequence-number restart is a new boot, not stale traffic) and
    /// publishes a `Recovered` transition; a lower one is dropped as
    /// stale. Crash-stop senders carry incarnation 0.
    ///
    /// Feeding the same jobs one per call produces the identical
    /// transition timeline; batching is invisible to detector semantics
    /// (`tests/shard_equivalence.rs` enforces this differentially).
    pub fn ingest_batch(&self, jobs: &[Job]) {
        let n = self.inner.shards.len() as u64;
        if n == 1 {
            self.enqueue_group(&self.inner.shards[0], jobs);
            return;
        }
        // Group on a stack buffer, one shard at a time. O(n_shards ×
        // chunk) scans of a tiny array beat allocating per-shard
        // vectors on the ingest hot path.
        for chunk in jobs.chunks(GROUP_BATCH) {
            let mut group = [(0u64, 0u64, Nanos(0), 0u32); GROUP_BATCH];
            for (i, shard) in self.inner.shards.iter().enumerate() {
                let mut len = 0;
                for &job in chunk {
                    if job.0 % n == i as u64 {
                        group[len] = job;
                        len += 1;
                    }
                }
                if len > 0 {
                    self.enqueue_group(shard, &group[..len]);
                }
            }
        }
    }

    /// Pushes one shard's slice of a batch with a single queue lock,
    /// reconciling the counters exactly.
    fn enqueue_group(&self, shard: &Shard, group: &[Job]) {
        if group.is_empty() {
            return;
        }
        let shared = &shard.shared;
        shared.received.add(group.len() as u64);
        let pushed = shared.inbox.push(group);
        if pushed.evicted > 0 {
            shared.dropped.add(pushed.evicted as u64);
        }
        if pushed.out_of_order > 0 {
            shared.out_of_order.add(pushed.out_of_order as u64);
        }
    }

    /// Pre-registers a stream so it is reported (as suspect) before its
    /// first heartbeat. Interns the stream to a dense per-shard slot;
    /// registering an already-known stream is a no-op (state, queued
    /// expiries and the stream-count gauges are unaffected).
    pub fn register(&self, stream: u64) {
        // hotpath:allow(block) — control-plane admin op, not the worker
        // loop: the per-shard mutex is held for one O(1) insert.
        unpoison(self.shard_of(stream).shared.core.lock()).register(stream);
    }

    /// Removes a stream from monitoring; returns whether it existed.
    /// The detector state, queued expiries (dead by slot-generation
    /// bump), any per-stream QoS/obs state and the stream's
    /// `twofd_qos_*` series are released, and the stream-count gauges
    /// reconcile immediately. A later heartbeat or
    /// [`ShardRuntime::register`] starts a fresh incarnation with no
    /// memory of the old one — including whichever stream the slab
    /// hands the vacated slot to next.
    pub fn deregister(&self, stream: u64) -> bool {
        // hotpath:allow(block) — control-plane admin op: one short
        // critical section (O(1) removals), off the heartbeat path.
        let (existed, tracked) =
            unpoison(self.shard_of(stream).shared.core.lock()).deregister(stream);
        if let (true, Some(gauges)) = (tracked, &self.inner.qos_gauges) {
            gauges.remove(stream);
        }
        existed
    }

    /// Adopts a stream from a relayed liveness digest: seeds (or
    /// refreshes) the stream's trust horizon and incarnation from a
    /// peer monitor's view, so detection continues across a monitor
    /// crash without waiting for the next direct heartbeat. Returns
    /// whether the relayed view was applied — fresher local state
    /// (a higher incarnation, a later local horizon, or an already
    /// expired relayed horizon) wins and the call is a no-op.
    ///
    /// Synchronous: any resulting Trust transition is published through
    /// [`ShardRuntime::events`] before the call returns, and the
    /// adopted horizon expires through the ordinary sweep path.
    pub fn adopt(&self, stream: u64, incarnation: u32, trust_until: Nanos) -> bool {
        let now = self.inner.clock.now();
        let shard = self.shard_of(stream);
        // hotpath:allow(alloc) — digest-relay control plane: `adopt`
        // runs at relay cadence, not per heartbeat; one scratch vector
        // per call is fine.
        let mut events: Vec<FleetEvent> = Vec::new();
        // hotpath:allow(block) — digest-relay control plane: one short
        // critical section, serialized with the worker by design (the
        // shard mutex IS the serialization point).
        let applied = unpoison(shard.shared.core.lock()).adopt(
            stream,
            incarnation,
            trust_until,
            now,
            &mut events,
        );
        publish(&shard.shared, &self.inner.events, &mut events);
        applied
    }

    /// Current output for one stream (`None` if never seen/registered).
    pub fn output(&self, stream: u64) -> Option<FdOutput> {
        let now = self.inner.clock.now();
        // hotpath:allow(block) — caller-side query, not the worker
        // loop: one O(1) lookup under the per-shard mutex.
        unpoison(self.shard_of(stream).shared.core.lock()).output(stream, now)
    }

    /// Status snapshot of every monitored stream, across all shards.
    pub fn statuses(&self) -> Vec<ProcessStatus<u64>> {
        let now = self.inner.clock.now();
        // hotpath:allow(block) — caller-side snapshot: locks shards one
        // at a time for an O(live) copy; workers stall at most one
        // shard's copy, never the fleet.
        self.inner
            .shards
            .iter()
            .flat_map(|s| unpoison(s.shared.core.lock()).statuses(now))
            .collect()
    }

    /// Streams currently suspected, across all shards.
    pub fn suspected(&self) -> Vec<u64> {
        let now = self.inner.clock.now();
        // hotpath:allow(block) — caller-side snapshot, same per-shard
        // O(live) copy discipline as `statuses`.
        self.inner
            .shards
            .iter()
            .flat_map(|s| unpoison(s.shared.core.lock()).set.suspected(now))
            .collect()
    }

    /// Number of streams currently monitored.
    pub fn len(&self) -> usize {
        // hotpath:allow(block) — caller-side query: O(1) tally under
        // each per-shard mutex, off the heartbeat path.
        self.inner
            .shards
            .iter()
            .map(|s| unpoison(s.shared.core.lock()).set.len())
            .sum()
    }

    /// True when no stream is monitored.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The stream of Trust/Suspect transitions, timestamped exactly.
    pub fn events(&self) -> &Events<FleetEvent> {
        &self.inner.events
    }

    /// Transition events dropped because the event queue was full.
    pub fn events_dropped(&self) -> u64 {
        self.inner.events.dropped()
    }

    /// The online QoS estimates for one stream as of now, if QoS
    /// tracking is enabled ([`ObsOptions::qos`]) and covers the stream.
    pub fn qos_metrics(&self, stream: u64) -> Option<QosMetrics> {
        let now = self.inner.clock.now();
        // hotpath:allow(block) — observer query: one O(1) tracker
        // lookup under the shard lock, off the worker loop.
        unpoison(self.shard_of(stream).shared.core.lock()).qos_metrics(stream, now)
    }

    /// The live verdict of one stream against its configured QoS bound,
    /// if QoS tracking is enabled and covers the stream. Vacuously met
    /// when the tracker has no spec.
    pub fn qos_verdict(&self, stream: u64) -> Option<QosVerdict> {
        let now = self.inner.clock.now();
        // hotpath:allow(block) — observer query, same O(1) lookup
        // discipline as `qos_metrics`.
        unpoison(self.shard_of(stream).shared.core.lock()).qos_verdict(stream, now)
    }

    /// Observability snapshot: per-shard counters, queue depths and
    /// live/suspect tallies.
    pub fn stats(&self) -> RuntimeStats {
        let now = self.inner.clock.now();
        let shards = self
            .inner
            .shards
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let (streams, live, suspect, queue_depth) = {
                    // hotpath:allow(block) — observability snapshot:
                    // per-shard O(live) tally at caller cadence.
                    let core = unpoison(s.shared.core.lock());
                    let (live, suspect) = core.set.counts(now);
                    (core.set.len(), live, suspect, s.shared.inbox.len())
                };
                ShardStats {
                    shard: i,
                    received: s.shared.received.get(),
                    dropped: s.shared.dropped.get(),
                    applied: s.shared.applied.get(),
                    stale: s.shared.stale.get(),
                    queue_depth,
                    streams,
                    live,
                    suspect,
                    to_trust: s.shared.to_trust.get(),
                    to_suspect: s.shared.to_suspect.get(),
                    to_recovered: s.shared.to_recovered.get(),
                }
            })
            .collect();
        RuntimeStats {
            shards,
            events_dropped: self.events_dropped(),
        }
    }

    /// Blocks until every heartbeat ingested *before this call* has been
    /// applied by its shard worker (dropped heartbeats count as handled).
    /// Benches and deterministic tests use this as a barrier. It waits,
    /// shard by shard, on the inbox's `applied` watermark, which the
    /// worker moves — and which wakes the waiter — when it takes its next
    /// batch. That take runs under the shard lock after the earlier pass
    /// fed its heartbeats and transitions to the QoS trackers, so a query
    /// after the barrier (which needs the same lock) sees them too.
    pub fn flush(&self) {
        for shard in &self.inner.shards {
            shard.shared.inbox.flush();
        }
    }

    /// Runs one expiry sweep over every shard from the *caller's*
    /// thread, at the clock's current instant, publishing any resulting
    /// Trust→Suspect transitions through the same [`ShardRuntime::events`]
    /// channel the workers use.
    ///
    /// This is the virtual-time barrier: a deterministic driver that
    /// jumps a [`crate::clock::ManualClock`] past a trust horizon calls
    /// [`ShardRuntime::flush`], advances the clock, then `sweep_now` —
    /// and the suspicion is published before the call returns, instead
    /// of whenever a parked worker next re-validates its deadline
    /// (bounded only by `sweep_interval` wall time). Idempotent: a
    /// sweep retires each expired horizon exactly once, so calling
    /// again — or racing a worker's own sweep, with which it serializes
    /// on the shard lock — publishes nothing twice. The QoS trackers are
    /// fed under that same lock hold, so they see a stream's transitions
    /// in the order the sweeps produced them.
    pub fn sweep_now(&self) {
        let now = self.inner.clock.now();
        // hotpath:allow(alloc) — deterministic-driver path, called at
        // sweep cadence from tests/sims; one scratch vector per call.
        let mut events: Vec<FleetEvent> = Vec::new();
        for shard in &self.inner.shards {
            // hotpath:allow(block) — caller-side sweep: serializes with
            // the worker on the shard mutex by design, holding it for
            // exactly one sweep.
            unpoison(shard.shared.core.lock()).sweep(now, &mut events);
            publish(&shard.shared, &self.inner.events, &mut events);
        }
    }
}

/// How long an idle worker may park before re-reading the clock:
/// exactly until the next freshness point (plus a strictness epsilon —
/// the sweep comparison is strict, so waking *at* the deadline would
/// retire nothing), capped at `sweep_interval` so an externally driven
/// clock that jumps while the worker sleeps is noticed within one
/// interval. `None` parks indefinitely: with no pending expiry there is
/// nothing to sweep, and any enqueue (or shutdown) wakes the worker.
///
/// `next_expiry` is a *live* horizon ([`ProcessSet::next_expiry`] prunes
/// superseded entries before reporting), so a park here always ends at
/// an instant where there is real expiry work — the stale-horizon
/// park-and-wake-for-nothing cycle of the lazy heap cannot happen.
fn park_duration(
    next_expiry: Option<Nanos>,
    now: Nanos,
    sweep_interval: Duration,
) -> Option<Duration> {
    next_expiry.map(|t| {
        let until = Duration::from_nanos(t.saturating_since(now).0) + Duration::from_nanos(1);
        until.clamp(MIN_PARK, sweep_interval.max(MIN_PARK))
    })
}

/// The instant a worker pass sweeps up to: `now`, unless the pass left
/// heartbeats queued, in which case no later than the arrival of the
/// last heartbeat it applied.
///
/// This is exact under the inbox's one-producer rule: a shard's
/// [`Inbox`] is FIFO behind one producer that pushes arrivals in order,
/// so every heartbeat still queued arrived at or after `last_applied`.
/// The sweep retires only horizons strictly before its instant, so
/// whatever it retires had expired before the next queued heartbeat of
/// its stream arrived — the same `Suspect`, at the same stamp, that
/// applying that heartbeat would synthesize. Published earlier, and
/// identical. Nothing enforces the rule; the inbox counts each
/// heartbeat that breaks it in `twofd_shard_out_of_order_total`.
fn sweep_horizon(now: Nanos, last_applied: Option<Nanos>, left_queued: bool) -> Nanos {
    match last_applied {
        Some(arrival) if left_queued => now.min(arrival),
        _ => now,
    }
}

fn shard_worker(
    shared: Arc<ShardShared>,
    events_out: Arc<Events<FleetEvent>>,
    clock: Arc<dyn TimeSource>,
    sweep_interval: Duration,
) {
    // hotpath:allow(alloc) — worker startup: the event and batch
    // vectors are allocated once per worker thread and reused (drained,
    // never dropped) across every pass of the loop below; the batch
    // never holds more than the `MAX_BATCH` it is sized for.
    let mut events: Vec<FleetEvent> = Vec::new();
    let mut batch: Vec<Job> = Vec::with_capacity(MAX_BATCH);
    loop {
        // Read the sweep time *before* taking: anything pushed before the
        // clock reached `now` is taken first, so a pass that empties the
        // queue can sweep at `now` without expiring a horizon that a
        // queued heartbeat extends.
        let now = clock.now();
        let left;
        let taken;
        let next_expiry;
        {
            // hotpath:allow(block) — this per-shard mutex IS the
            // shard's designed serialization point: single-writer
            // worker, uncontended except against short control-plane
            // sections, held for at most MAX_BATCH applies + one sweep.
            let mut core = unpoison(shared.core.lock());
            // One queue lock per pass, taken under the shard lock so
            // that a caller's `sweep_now` cannot run between a heartbeat
            // leaving the queue and its apply.
            left = shared.inbox.take(&mut batch, MAX_BATCH);
            taken = batch.len();
            // Sweep on every pass; one that left heartbeats queued
            // stops at its last applied arrival (`sweep_horizon`).
            // Sweeping at `now` whenever `now ≥ next_expiry` would not
            // be exact: behind a backlog it publishes `Suspect@T` for a
            // stream whose queued heartbeat arrived in time, then
            // `Trust@A` with `A < T` once that heartbeat is applied.
            let backlog = left.is_some_and(|n| n > 0);
            let stale = core.pass(now, backlog, &mut batch, &mut events);
            // One update per pass: the producer and scrapes read these
            // lines, so a bump per heartbeat would bounce them per
            // heartbeat.
            if taken > 0 {
                shared.applied.add(taken as u64);
            }
            if stale > 0 {
                shared.stale.add(stale);
            }
            // Its one consumer is the park below, and only a pass that
            // applied nothing parks: a productive pass lingers instead.
            next_expiry = if taken == 0 {
                core.set.next_expiry()
            } else {
                None
            };
        }
        publish(&shared, &events_out, &mut events);
        if left.is_none() {
            return;
        }
        if taken > 0 {
            // Just applied a batch: under load the producer refills the
            // queue within a yield, and picking the next batch up here
            // skips the park/wake context switch entirely. The wait
            // touches only the queue (never the shard lock, so it cannot
            // contend with queries or scrapes); if the queue stays empty
            // the next pass takes nothing — moving the watermark past
            // this pass — sweeps and parks.
            let mut spins = DRAIN_LINGER;
            while spins > 0 && shared.inbox.is_empty() {
                thread::yield_now();
                spins -= 1;
            }
        } else {
            // Idle: park until the next freshness point — or until a
            // push wakes us, which is how a fresh batch starts processing
            // immediately instead of on the next poll tick. A close while
            // parked ends the park; the next pass drains, sweeps and
            // exits.
            shared
                .inbox
                .park(park_duration(next_expiry, now, sweep_interval));
        }
    }
}

fn publish(shared: &ShardShared, events_out: &Events<FleetEvent>, events: &mut Vec<FleetEvent>) {
    for event in events.drain(..) {
        match event.kind {
            TransitionKind::Trust => shared.to_trust.inc(),
            TransitionKind::Suspect => shared.to_suspect.inc(),
            TransitionKind::Recovered => shared.to_recovered.inc(),
        };
        events_out.publish(event);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::ManualClock;
    use std::collections::HashMap;
    use twofd_core::{DetectorSpec, QosSpec};
    use twofd_obs::QosTrackerConfig;
    use twofd_sim::time::Span;

    const DI: Span = Span(100_000_000); // 100 ms

    fn plan() -> DetectorPlan {
        DetectorConfig::new(DetectorSpec::TwoWindow { n1: 1, n2: 100 }, DI, 0.04).into()
    }

    fn runtime_with_manual_clock(n_shards: usize) -> (ShardRuntime, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let config = ShardConfig {
            detector: plan(),
            n_shards,
            sweep_interval: Duration::from_millis(1),
            ..ShardConfig::default()
        };
        let rt = ShardRuntime::new(config, clock.clone() as Arc<dyn TimeSource>);
        (rt, clock)
    }

    fn hb(seq: u64) -> Nanos {
        Nanos(seq * DI.0 + 10_000_000)
    }

    #[test]
    fn routes_streams_across_shards() {
        let (rt, clock) = runtime_with_manual_clock(4);
        for stream in 0..8u64 {
            clock.advance_to(hb(1));
            rt.ingest_batch(&[(stream, 1, hb(1), 0)]);
        }
        rt.flush();
        assert_eq!(rt.len(), 8);
        let stats = rt.stats();
        assert_eq!(stats.shards.len(), 4);
        // stream % 4 routing: two streams per shard.
        for s in &stats.shards {
            assert_eq!(s.streams, 2, "{stats:?}");
            assert_eq!(s.received, 2);
        }
        assert_eq!(stats.received(), 8);
        assert_eq!(stats.dropped(), 0);
    }

    #[test]
    fn sweeper_publishes_suspicion_without_queries() {
        let (rt, clock) = runtime_with_manual_clock(2);
        for seq in 1..=5u64 {
            clock.advance_to(hb(seq));
            rt.ingest_batch(&[(9, seq, hb(seq), 0)]);
        }
        rt.flush();
        assert_eq!(rt.output(9), Some(FdOutput::Trust));
        // Advance far past the trust horizon; the sweeper alone must
        // publish the S-transition, stamped at the exact expiry.
        let trust_until = rt.statuses()[0].trust_until.unwrap();
        clock.advance_to(trust_until + Span::from_secs(1));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let mut got = Vec::new();
        while got.len() < 2 && std::time::Instant::now() < deadline {
            got.extend(rt.events().try_iter());
            thread::sleep(Duration::from_millis(2));
        }
        assert_eq!(got.len(), 2, "{got:?}");
        assert_eq!(got[0].output, FdOutput::Trust);
        assert_eq!(got[0].at, hb(1));
        assert_eq!(got[1].output, FdOutput::Suspect);
        assert_eq!(got[1].at, trust_until);
        let stats = rt.stats();
        assert_eq!(stats.suspect(), 1);
        assert_eq!(stats.live(), 0);
        assert_eq!(stats.transitions(), 2);
    }

    /// A full pass that left heartbeats queued never sweeps past the
    /// last arrival it applied, however far the clock has run ahead of
    /// the backlog; any other pass sweeps at `now`.
    #[test]
    fn a_full_pass_with_queued_jobs_never_sweeps_past_its_last_applied_arrival() {
        let now = hb(10);
        assert_eq!(sweep_horizon(now, Some(hb(7)), true), hb(7));
        // An arrival stamped after the pass read the clock.
        assert_eq!(sweep_horizon(now, Some(hb(12)), true), now);
        assert_eq!(sweep_horizon(now, Some(hb(7)), false), now);
        assert_eq!(sweep_horizon(now, None, false), now);

        // Why: stream 1's beats 1–3 are one pass and its on-time beat 4
        // is still queued when the clock passes beat 3's horizon.
        let beats = |seqs: std::ops::RangeInclusive<u64>| -> Vec<Job> {
            seqs.map(|seq| (1, seq, hb(seq), 0)).collect()
        };
        let expiry = {
            let mut core = ShardCore::new(plan(), None);
            core.pass(hb(3), false, &mut beats(1..=3), &mut Vec::new());
            core.statuses(hb(3))[0]
                .trust_until
                .expect("stream 1 is trusted")
        };
        assert!(hb(4) < expiry, "beat 4 is on time");
        let now = expiry + Span::from_millis(50);
        let timeline = |backlog: bool| {
            let mut core = ShardCore::new(plan(), None);
            let mut events = Vec::new();
            core.pass(now, backlog, &mut beats(1..=3), &mut events);
            core.pass(now, false, &mut beats(4..=4), &mut events);
            events.iter().map(|e| (e.kind, e.at)).collect::<Vec<_>>()
        };
        // Swept to the last applied arrival: beat 4 keeps the stream
        // trusted, as it would have sequentially.
        assert_eq!(timeline(true), vec![(TransitionKind::Trust, hb(1))]);
        // Swept to `now`: a Suspect the schedule never had, and a Trust
        // stamped before it.
        assert_eq!(
            timeline(false),
            vec![
                (TransitionKind::Trust, hb(1)),
                (TransitionKind::Suspect, expiry),
                (TransitionKind::Trust, hb(4)),
            ]
        );
    }

    /// A caller may keep one event `Vec` across passes (the simulator
    /// appends every pass to its timeline): each pass feeds the trackers
    /// only the transitions it appended, so a mistake is counted once.
    #[test]
    fn passes_appending_to_one_event_vec_feed_each_transition_once() {
        use TransitionKind::{Suspect, Trust};
        let qos = QosPlan::Uniform(QosTrackerConfig::cumulative(DI));
        let mut core = ShardCore::new(plan(), Some(qos));
        let mut events = Vec::new();
        // Beat 6 goes missing and beat 7 arrives two seconds late: the
        // pass publishes Trust, the missed Suspect, and Trust again.
        let late = hb(5) + Span::from_secs(2);
        let mut first: Vec<Job> = (1..=5).map(|seq| (7, seq, hb(seq), 0)).collect();
        first.push((7, 7, late, 0));
        core.pass(late, false, &mut first, &mut events);
        let kinds: Vec<TransitionKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(kinds, vec![Trust, Suspect, Trust]);
        // An on-time beat 8: no transition of its own, and none fed again.
        let next = late + DI;
        core.pass(next, false, &mut vec![(7, 8, next, 0)], &mut events);
        assert_eq!(events.len(), 3);
        assert_eq!(core.qos_metrics(7, next).expect("tracked").mistakes, 1);
    }

    #[test]
    fn stale_heartbeats_are_counted() {
        let (rt, clock) = runtime_with_manual_clock(1);
        clock.advance_to(hb(3));
        rt.ingest_batch(&[(1, 3, hb(3), 0)]);
        rt.ingest_batch(&[(1, 2, hb(3), 0)]); // stale: lower seq
        rt.flush();
        assert_eq!(rt.stats().stale(), 1);
    }

    #[test]
    fn overflow_drops_oldest_and_counts() {
        // One shard, tiny queue, and a clock pinned at zero so the worker
        // mostly idles between sweeps while we flood the queue.
        let clock = Arc::new(ManualClock::new());
        let config = ShardConfig {
            detector: plan(),
            n_shards: 1,
            queue_capacity: 4,
            sweep_interval: Duration::from_millis(50),
            ..ShardConfig::default()
        };
        let rt = ShardRuntime::new(config, clock.clone() as Arc<dyn TimeSource>);
        for seq in 1..=10_000u64 {
            rt.ingest_batch(&[(1, seq, hb(seq), 0)]);
        }
        rt.flush();
        let stats = rt.stats();
        assert_eq!(stats.received(), 10_000);
        assert!(stats.dropped() > 0, "{stats:?}");
        // Every heartbeat is accounted for: applied + dropped = received.
        assert_eq!(stats.dropped() + stats.applied(), 10_000);
        assert_eq!(out_of_order(&rt), 0, "one producer, in arrival order");
    }

    /// `twofd_shard_out_of_order_total`, summed over shards, read
    /// through the registry.
    fn out_of_order(rt: &ShardRuntime) -> u64 {
        let family = rt
            .registry()
            .counter_vec("twofd_shard_out_of_order_total", "", &["shard"]);
        (0..rt.inner.shards.len())
            .map(|i| family.with(&[&i.to_string()]).get())
            .sum()
    }

    /// Two producers interleaving one stream's arrivals out of order
    /// break the one-producer rule `sweep_horizon` relies on. The inbox
    /// counts it, and applies the heartbeats as pushed: never reordered.
    #[test]
    fn a_second_producer_out_of_order_is_counted() {
        let (rt, clock) = runtime_with_manual_clock(1);
        clock.advance_to(hb(3));
        for job in [(1, 2, hb(2), 0), (1, 1, hb(1), 0), (1, 3, hb(3), 0)] {
            thread::scope(|s| {
                s.spawn(|| rt.ingest_batch(&[job]));
            });
        }
        rt.flush();
        assert_eq!(out_of_order(&rt), 1);
        let stats = rt.stats();
        assert_eq!((stats.received(), stats.applied()), (3, 3));
        assert_eq!(stats.stale(), 1, "seq 1 applied after seq 2: {stats:?}");
    }

    #[test]
    fn register_before_first_heartbeat() {
        let (rt, _clock) = runtime_with_manual_clock(3);
        rt.register(42);
        assert_eq!(rt.output(42), Some(FdOutput::Suspect));
        assert_eq!(rt.output(41), None);
        assert_eq!(rt.suspected(), vec![42]);
        assert!(!rt.is_empty());
    }

    #[test]
    fn default_plan_is_the_papers_two_window() {
        use twofd_core::FailureDetector;
        assert_eq!(DetectorPlan::default().build(&0).name(), "2w-fd(1,1000)");
    }

    /// Regression (re-registration leak): deregister/re-register churn
    /// must keep the stream-count gauges exactly reconciled, and an old
    /// incarnation's queued trust horizon must never publish against
    /// the stream's new incarnation.
    #[test]
    fn churn_reconciles_gauges_and_leaks_no_expiries() {
        let (rt, clock) = runtime_with_manual_clock(2);
        clock.advance_to(hb(1));
        rt.ingest_batch(&[(1, 1, hb(1), 0)]); // the churned stream
        rt.ingest_batch(&[(2, 1, hb(1), 0)]); // a stable neighbour on the other shard
        rt.flush();
        assert_eq!(rt.len(), 2);

        let mut last_round = 1;
        for round in 2..=50u64 {
            assert!(rt.deregister(1));
            assert!(!rt.deregister(1), "double deregister must be a no-op");
            rt.register(1);
            // The fresh incarnation starts suspect and seq-blank...
            assert_eq!(rt.output(1), Some(FdOutput::Suspect));
            // ...so the same sequence number is fresh again.
            let at = hb(round);
            clock.advance_to(at);
            rt.ingest_batch(&[(1, round, at, 0)]);
            rt.flush();
            assert_eq!(rt.len(), 2, "round {round}: stream count drifted");
            let stats = rt.stats();
            assert_eq!(
                stats.live() + stats.suspect(),
                rt.len(),
                "round {round}: gauges do not reconcile: {stats:?}"
            );
            last_round = round;
        }

        // Only the *live* incarnation's horizon may ever fire. Old
        // incarnations were deregistered while trusted: their queued
        // entries are dead and must not synthesize S-transitions.
        let final_horizon = rt
            .statuses()
            .iter()
            .find(|st| st.key == 1)
            .unwrap()
            .trust_until
            .unwrap();
        clock.advance_to(final_horizon + Span::from_secs(5));
        let deadline = std::time::Instant::now() + Duration::from_secs(2);
        let mut events = Vec::new();
        while std::time::Instant::now() < deadline {
            events.extend(rt.events().try_iter());
            let s_count = events
                .iter()
                .filter(|e| e.output == FdOutput::Suspect)
                .count();
            if s_count >= 2 {
                break;
            }
            thread::sleep(Duration::from_millis(2));
        }
        let stream1_s: Vec<_> = events
            .iter()
            .filter(|e| e.key == 1 && e.output == FdOutput::Suspect)
            .collect();
        assert_eq!(
            stream1_s.len(),
            1,
            "exactly one S for the live incarnation: {stream1_s:?}"
        );
        assert_eq!(stream1_s[0].at, final_horizon);
        // Every incarnation published its T at its heartbeat arrival.
        let stream1_t = events
            .iter()
            .filter(|e| e.key == 1 && e.output == FdOutput::Trust)
            .count();
        assert_eq!(stream1_t as u64, last_round, "one T per incarnation");
        assert_eq!(rt.events_dropped(), 0);
    }

    /// `sweep_now` must retire expired horizons synchronously — the
    /// events are in the channel the moment the call returns, with no
    /// dependence on a worker waking up. Exercised with workers parked
    /// far away so only the caller-driven sweep can plausibly run.
    #[test]
    fn sweep_now_publishes_expiries_synchronously() {
        let clock = Arc::new(ManualClock::new());
        let config = ShardConfig {
            detector: plan(),
            n_shards: 2,
            sweep_interval: Duration::from_secs(3600),
            ..ShardConfig::default()
        };
        let rt = ShardRuntime::new(config, clock.clone() as Arc<dyn TimeSource>);
        clock.advance_to(hb(1));
        rt.ingest_batch(&[(4, 1, hb(1), 0)]);
        rt.ingest_batch(&[(5, 1, hb(1), 0)]);
        rt.flush();
        let horizons: HashMap<u64, Nanos> = rt
            .statuses()
            .iter()
            .map(|s| (s.key, s.trust_until.unwrap()))
            .collect();
        let max_horizon = horizons.values().copied().max().unwrap();
        clock.advance_to(max_horizon + Span::from_secs(1));
        rt.sweep_now();
        // No polling loop: everything is already published.
        let events: Vec<FleetEvent> = rt.events().try_iter().collect();
        let suspects: Vec<_> = events
            .iter()
            .filter(|e| e.output == FdOutput::Suspect)
            .collect();
        assert_eq!(suspects.len(), 2, "{events:?}");
        for event in suspects {
            assert_eq!(event.at, horizons[&event.key], "exact expiry stamp");
        }
        // Idempotent: a second sweep finds nothing left to retire.
        rt.sweep_now();
        assert_eq!(rt.events().try_iter().count(), 0);
        assert_eq!(rt.events_dropped(), 0);
    }

    #[test]
    fn per_stream_plans_pick_recipes_by_stream() {
        use twofd_core::FailureDetector;
        let plan = DetectorPlan::PerStream(Arc::new(|stream: &u64| {
            let spec = if (*stream).is_multiple_of(2) {
                DetectorSpec::Chen { window: 10 }
            } else {
                DetectorSpec::default()
            };
            DetectorConfig::new(spec, DI, 0.04)
        }));
        assert_eq!(plan.build(&0).name(), "chen(10)");
        assert_eq!(plan.build(&1).name(), "2w-fd(1,1000)");
    }

    #[test]
    fn drop_joins_all_workers() {
        let (rt, clock) = runtime_with_manual_clock(8);
        clock.advance_to(hb(1));
        for stream in 0..64u64 {
            rt.ingest_batch(&[(stream, 1, hb(1), 0)]);
        }
        drop(rt); // must not hang
    }

    #[test]
    fn registry_mirrors_stats_counters() {
        let (rt, clock) = runtime_with_manual_clock(2);
        for seq in 1..=3u64 {
            clock.advance_to(hb(seq));
            rt.ingest_batch(&[(7, seq, hb(seq), 0)]);
        }
        rt.flush();
        let text = rt.registry().render();
        assert!(
            text.contains("twofd_shard_received_total{shard=\"1\"} 3"),
            "{text}"
        );
        assert!(
            text.contains("twofd_shard_applied_total{shard=\"1\"} 3"),
            "{text}"
        );
        assert!(text.contains("twofd_shard_streams{shard=\"1\",state=\"live\"} 1"));
        assert!(text.contains("# TYPE twofd_sweep_duration_seconds histogram"));
        // The hook survives a runtime drop without resurrecting workers.
        let registry = rt.registry().clone();
        drop(rt);
        let _ = registry.render();
    }

    /// Crash-recovery through the sharded runtime: a suspected stream
    /// that returns with a bumped incarnation (and a reset sequence
    /// counter) is re-trusted via a `Recovered` transition, counted
    /// under its own metric direction.
    #[test]
    fn bumped_incarnation_recovers_a_suspected_stream() {
        let (rt, clock) = runtime_with_manual_clock(1);
        clock.advance_to(hb(1));
        rt.ingest_batch(&[(3, 1, hb(1), 0)]);
        rt.flush();
        let horizon = rt.statuses()[0].trust_until.unwrap();
        clock.advance_to(horizon + Span::from_secs(1));
        rt.sweep_now();
        assert_eq!(rt.output(3), Some(FdOutput::Suspect));
        // The restarted boot resets seq to 1 — stale under incarnation
        // 0, fresh under incarnation 1.
        let restart = horizon + Span::from_secs(2);
        clock.advance_to(restart);
        rt.ingest_batch(&[(3, 1, restart, 1)]);
        rt.flush();
        assert_eq!(rt.output(3), Some(FdOutput::Trust));
        let events: Vec<FleetEvent> = rt.events().try_iter().collect();
        let kinds: Vec<TransitionKind> = events.iter().map(|e| e.kind).collect();
        assert_eq!(
            kinds,
            vec![
                TransitionKind::Trust,
                TransitionKind::Suspect,
                TransitionKind::Recovered
            ],
            "{events:?}"
        );
        assert_eq!(events[2].at, restart);
        let stats = rt.stats();
        assert_eq!(stats.recovered(), 1);
        assert_eq!(stats.transitions(), 3);
        // A frame from the dead incarnation is stale, not applied.
        rt.ingest_batch(&[(3, 50, restart + Span::from_millis(1), 0)]);
        rt.flush();
        assert_eq!(rt.stats().stale(), 1);
        let text = rt.registry().render();
        assert!(
            text.contains(
                "twofd_shard_transitions_total{shard=\"0\",direction=\"to_recovered\"} 1"
            ),
            "{text}"
        );
    }

    /// Digest adoption: a never-seen stream seeded from a peer's view
    /// is trusted until the relayed horizon, then suspected by the
    /// ordinary sweep — detection continues without a direct heartbeat.
    #[test]
    fn adopted_stream_expires_through_the_sweep_path() {
        let (rt, clock) = runtime_with_manual_clock(2);
        clock.advance_to(Nanos(1_000));
        let horizon = Nanos(500_000_000);
        assert!(rt.adopt(6, 2, horizon));
        // Synchronous: the Trust is already published.
        let events: Vec<FleetEvent> = rt.events().try_iter().collect();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].kind, TransitionKind::Trust);
        assert_eq!(rt.output(6), Some(FdOutput::Trust));
        // Stale relayed views lose to the adopted state.
        assert!(!rt.adopt(6, 1, horizon + Span::from_secs(5)));
        assert!(!rt.adopt(6, 2, horizon - Span::from_millis(1)));
        clock.advance_to(horizon + Span::from_millis(1));
        rt.sweep_now();
        let events: Vec<FleetEvent> = rt.events().try_iter().collect();
        assert_eq!(events.len(), 1, "{events:?}");
        assert_eq!(events[0].kind, TransitionKind::Suspect);
        assert_eq!(events[0].at, horizon);
        assert_eq!(rt.output(6), Some(FdOutput::Suspect));
    }

    /// One shard with the jitter histogram and a cumulative QoS tracker
    /// (judged against a contract) on every stream; workers parked far away, so only `sweep_now`
    /// publishes expiries.
    fn qos_runtime() -> (ShardRuntime, Arc<ManualClock>) {
        let clock = Arc::new(ManualClock::new());
        let config = ShardConfig {
            detector: plan(),
            n_shards: 1,
            sweep_interval: Duration::from_secs(3600),
            obs: ObsOptions {
                jitter: true,
                qos: Some(QosPlan::Uniform(QosTrackerConfig {
                    spec: Some(QosSpec::new(1.0, 10.0, 1.0)),
                    ..QosTrackerConfig::cumulative(DI)
                })),
            },
            ..ShardConfig::default()
        };
        let rt = ShardRuntime::new(config, clock.clone() as Arc<dyn TimeSource>);
        (rt, clock)
    }

    /// Feeds `stream` beats `seqs` on the nominal schedule, one pass each.
    fn beats(
        rt: &ShardRuntime,
        clock: &ManualClock,
        stream: u64,
        incarnation: u32,
        seqs: std::ops::RangeInclusive<u64>,
        offset: Span,
    ) {
        for seq in seqs {
            let at = hb(seq) + offset;
            clock.advance_to(at);
            rt.ingest_batch(&[(stream, seq, at, incarnation)]);
            rt.flush();
        }
    }

    /// Lets `stream`'s horizon pass, publishes the suspicion, and ends
    /// it two seconds later with beat `seq` of boot `incarnation`: a
    /// mistake if the boot is the same, a justified suspicion if not.
    fn suspect_then_beat(
        rt: &ShardRuntime,
        clock: &ManualClock,
        stream: u64,
        incarnation: u32,
        seq: u64,
    ) {
        let horizon = rt
            .statuses()
            .iter()
            .find(|st| st.key == stream)
            .and_then(|st| st.trust_until)
            .expect("stream is trusted");
        clock.advance_to(horizon + Span::from_secs(1));
        rt.sweep_now();
        assert_eq!(rt.output(stream), Some(FdOutput::Suspect));
        let offset = (horizon + Span::from_secs(2)).saturating_since(hb(seq));
        beats(rt, clock, stream, incarnation, seq..=seq, offset);
    }

    fn slot_of(rt: &ShardRuntime, stream: u64) -> Option<u32> {
        unpoison(rt.shard_of(stream).shared.core.lock())
            .set
            .slot_of(&stream)
    }

    fn jitter_count(rt: &ShardRuntime) -> u64 {
        let text = rt.registry().render();
        let line = text
            .lines()
            .find(|l| l.starts_with("twofd_interarrival_seconds_count{shard=\"0\"}"))
            .expect("jitter histogram rendered");
        line.rsplit(' ').next().unwrap().parse().unwrap()
    }

    /// Regression (exposition leak): `deregister` must drop the stream's
    /// `twofd_qos_*` series, not leave them rendering their last values
    /// forever; a re-registered stream comes back with no history.
    #[test]
    fn deregister_releases_the_streams_qos_series() {
        let (rt, clock) = qos_runtime();
        beats(&rt, &clock, 5, 0, 1..=5, Span(0));
        suspect_then_beat(&rt, &clock, 5, 0, 6);
        assert_eq!(rt.qos_metrics(5).expect("tracked").mistakes, 1);
        let text = rt.registry().render();
        assert!(text.contains("twofd_qos_query_accuracy{stream=\"5\"}"));
        assert!(text.contains("twofd_qos_axis_violated{stream=\"5\","));

        assert!(rt.deregister(5));
        let text = rt.registry().render();
        assert!(!text.contains("stream=\"5\""), "series leaked:\n{text}");
        assert!(rt.qos_metrics(5).is_none());

        // Back from zero history: the old mistake is not remembered.
        let resume = clock.now().saturating_since(hb(0));
        beats(&rt, &clock, 5, 0, 1..=3, resume);
        assert_eq!(rt.qos_metrics(5).expect("tracked again").mistakes, 0);
        let text = rt.registry().render();
        assert!(
            text.contains("twofd_qos_query_accuracy{stream=\"5\"} 1"),
            "{text}"
        );
    }

    /// Slot indexing must not leak across occupants: a stream that takes
    /// a deregistered stream's recycled slot starts with no tracker
    /// history, and the jitter histogram sees no gap between the two.
    #[test]
    fn recycled_slot_starts_with_no_obs_state() {
        let (rt, clock) = qos_runtime();
        beats(&rt, &clock, 5, 0, 1..=5, Span(0));
        suspect_then_beat(&rt, &clock, 5, 0, 6);
        assert_eq!(rt.qos_metrics(5).expect("tracked").mistakes, 1);
        assert_eq!(jitter_count(&rt), 5, "six beats, five gaps");

        let slot = slot_of(&rt, 5);
        assert!(rt.deregister(5));
        rt.register(8);
        assert_eq!(slot_of(&rt, 8), slot, "8 takes 5's recycled slot");
        assert!(rt.qos_metrics(5).is_none());
        assert!(rt.qos_metrics(8).is_none(), "registered, not yet heard");

        let resume = clock.now().saturating_since(hb(0));
        beats(&rt, &clock, 8, 0, 1..=3, resume);
        let metrics = rt.qos_metrics(8).expect("tracked");
        assert_eq!(metrics.mistakes, 0);
        assert!(
            metrics.observed_secs < 1.0,
            "8 has been observed for two intervals, not since 5's first beat: {metrics:?}"
        );
        assert_eq!(
            jitter_count(&rt),
            5 + 2,
            "no gap from 5's last beat to 8's first"
        );
    }

    /// A restart is not churn: the tracker stays on the stream's slot
    /// across an incarnation bump, and the `Recovered` transition closes
    /// the open suspicion as justified rather than as a mistake.
    #[test]
    fn tracker_survives_an_incarnation_bump_on_its_slot() {
        let (rt, clock) = qos_runtime();
        beats(&rt, &clock, 3, 0, 1..=5, Span(0));
        let slot = slot_of(&rt, 3);
        suspect_then_beat(&rt, &clock, 3, 1, 1);
        assert_eq!(slot_of(&rt, 3), slot);
        assert_eq!(rt.stats().recovered(), 1);
        let metrics = rt.qos_metrics(3).expect("tracked");
        assert_eq!(metrics.mistakes, 0, "{metrics:?}");
        assert!((metrics.query_accuracy - 1.0).abs() < 1e-9, "{metrics:?}");
        assert!(
            metrics.observed_secs > 2.0,
            "the first boot's history is kept: {metrics:?}"
        );
    }

    #[test]
    fn qos_tracking_reports_metrics_and_verdicts() {
        let (rt, clock) = qos_runtime();
        for seq in 1..=20u64 {
            clock.advance_to(hb(seq));
            rt.ingest_batch(&[(5, seq, hb(seq), 0)]);
            rt.flush();
        }
        let metrics = rt.qos_metrics(5).expect("tracker attached");
        assert_eq!(metrics.mistakes, 0);
        assert!((metrics.query_accuracy - 1.0).abs() < 1e-9);
        assert!(rt.qos_verdict(5).expect("tracker attached").met);
        assert!(rt.qos_metrics(999).is_none(), "unseen stream");
        let text = rt.registry().render();
        assert!(
            text.contains("twofd_qos_query_accuracy{stream=\"5\"} 1"),
            "{text}"
        );
        assert!(text.contains("twofd_interarrival_seconds_count{shard=\"0\"}"));
    }
}
