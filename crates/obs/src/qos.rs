//! Online QoS tracking — the live mirror of the offline replay pipeline.
//!
//! The workspace already knows how to judge a detector *after the fact*:
//! `twofd_core::replay` reconstructs the Trust/Suspect timeline from a
//! recorded trace and `QosMetrics::from_mistakes` turns it into the
//! paper's `T_D` / `T_MR` / `T_M` / `P_A`. A deployed monitor cannot
//! wait for a replay: it must report, *while serving traffic*, whether
//! each stream currently meets its contracted `(T_Dᵁ, T_MRᵁ, T_Mᵁ)`.
//!
//! [`QosTracker`] consumes exactly the inputs the sharded runtime
//! already produces — per-heartbeat freshness [`Decision`]s and the
//! Trust/Suspect [`StreamTransition`](twofd_core::StreamTransition)
//! stream from the sweepers — and keeps totals, never one sample per
//! heartbeat. [`QosTracker::metrics_at`] hands them to
//! [`QosMetrics::from_totals`], the one formula the offline
//! `from_mistakes` folds its mistake log into, so both paths produce the
//! **same** [`QosMetrics`] by the same arithmetic (see
//! `tests/obs_differential.rs`).
//!
//! What a tracker holds does not grow with the heartbeats it sees:
//!
//! * A **cumulative** tracker (`window: Span::MAX`) keeps running
//!   totals: the fresh count and Σ worst-`T_D` in arrival order, and the
//!   closed mistakes' count and Σ duration. Its output is bit-identical
//!   to folding a per-heartbeat sample log. Its only heap is the few
//!   mistakes a relayed view (`adopt`) closes before the stream's first
//!   heartbeat, which wait there to be clipped against that arrival.
//! * A **sliding** tracker quantises its window to `B = 64` buckets of
//!   width `w = ⌈window / 64⌉` on an absolute time grid: the window at
//!   `now` is `[⌊(now − window) / w⌋·w, now]`, whole buckets, and
//!   `observed_secs` reports that span. A fixed ring of `B + 1` buckets
//!   holds each bucket's fresh count and Σ worst-`T_D` (1 056 heap
//!   bytes); closed mistakes stay exact `(start, end)` pairs, pruned at
//!   the window's start, so only the mistakes of one window are kept.
//!
//! Semantics deliberately shared with `twofd_core::replay::replay`:
//!
//! * A mistake opens at the **S-transition instant** (the expired
//!   `trust_until`, not when the sweeper happened to notice) and closes
//!   at the restoring heartbeat's **arrival instant**.
//! * A mistake still open at the evaluation instant is **censored**: it
//!   counts toward the mistake *rate* and suspect time but not the mean
//!   *duration* (unless every mistake is censored, in which case the
//!   mean over censored spans is the only estimate available).
//! * The worst-case detection-time sample for heartbeat `j` is
//!   `trust_until(j) − σ(j)` where `σ(j) = j·Δi` is the nominal send
//!   instant; the average-case `T_D` subtracts half an inter-send
//!   interval, floored at zero.

use std::collections::VecDeque;
use std::sync::Arc;
use twofd_core::{Decision, QosMetrics, QosSpec, TransitionKind};
use twofd_sim::time::{Nanos, Span};

/// How the tracker recovers a heartbeat's send instant `σ(j)` from its
/// sequence number — the anchor every detection-time sample subtracts.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum QosOrigin {
    /// `σ(j) = j·Δi` on the monitor's own clock: the trace builders'
    /// convention, and what the offline replay pipeline assumes. Exact
    /// when senders are born at the monitor's time zero with no clock
    /// offset — every differential test against `twofd_core::replay`
    /// uses this.
    #[default]
    Nominal,
    /// Chen-style estimated origin: anchor on the *fastest observed*
    /// message by tracking `min(arrival − j·Δi)` over the stream's
    /// fresh heartbeats and using `σ(j) = j·Δi + that offset`. Robust
    /// to sender clock offsets and staggered joins (the offset absorbs
    /// both, plus the minimum network delay — the same bias Chen's EA
    /// estimator carries), so full QoS verdicts hold under skewed
    /// clocks and mid-run churn where `Nominal` inflates `T_D` by the
    /// stream's entire birth time. The offset resets on an incarnation
    /// restart, whose sequence numbers restart with it.
    Auto,
}

/// Configuration for one stream's [`QosTracker`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QosTrackerConfig {
    /// The contracted bound to judge against; `None` tracks estimates
    /// without issuing verdicts (the verdict is then vacuously met).
    pub spec: Option<QosSpec>,
    /// The heartbeat inter-send interval `Δi` — needed to recover the
    /// nominal send instant `σ(j) = j·Δi` from a sequence number, and
    /// for the half-interval crash-time correction.
    pub interval: Span,
    /// Sliding evaluation window. Estimates at instant `now` cover
    /// `[now − window, now]`, its start rounded down to a multiple of
    /// `⌈window / 64⌉`; use [`Span::MAX`] for a whole-trace (cumulative)
    /// window.
    pub window: Span,
    /// How send instants are anchored (see [`QosOrigin`]).
    pub origin: QosOrigin,
}

impl QosTrackerConfig {
    /// A cumulative (whole-trace) tracker with no contracted bound.
    pub fn cumulative(interval: Span) -> Self {
        QosTrackerConfig {
            spec: None,
            interval,
            window: Span::MAX,
            origin: QosOrigin::Nominal,
        }
    }
}

/// Per-stream tracker-configuration lookup used by
/// [`QosPlan::PerStream`]; `None` leaves the stream untracked.
pub type StreamConfigFn = Arc<dyn Fn(&u64) -> Option<QosTrackerConfig> + Send + Sync>;

/// How trackers are assigned to streams in a multi-stream runtime.
#[derive(Clone)]
pub enum QosPlan {
    /// Every stream gets the same configuration.
    Uniform(QosTrackerConfig),
    /// Per-stream lookup (e.g. from a service registry's per-app
    /// contracts); `None` leaves the stream untracked.
    PerStream(StreamConfigFn),
}

impl std::fmt::Debug for QosPlan {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QosPlan::Uniform(cfg) => f.debug_tuple("Uniform").field(cfg).finish(),
            QosPlan::PerStream(_) => f.write_str("PerStream(..)"),
        }
    }
}

impl QosPlan {
    /// Resolves the configuration for `stream`, if any.
    pub fn config_for(&self, stream: &u64) -> Option<QosTrackerConfig> {
        match self {
            QosPlan::Uniform(cfg) => Some(*cfg),
            QosPlan::PerStream(f) => f(stream),
        }
    }
}

/// One QoS axis of the paper's `(T_Dᵁ, T_MRᵁ, T_Mᵁ)` contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QosAxis {
    /// Detection time `T_D` exceeded `T_Dᵁ`.
    DetectionTime,
    /// Mistake rate exceeded `1 / T_MRᵁ` (mistakes recur too often).
    MistakeRecurrence,
    /// Mean mistake duration `T_M` exceeded `T_Mᵁ`.
    MistakeDuration,
}

impl QosAxis {
    /// The label value used in exposition (`axis="detection_time"` …).
    pub fn label(self) -> &'static str {
        match self {
            QosAxis::DetectionTime => "detection_time",
            QosAxis::MistakeRecurrence => "mistake_recurrence",
            QosAxis::MistakeDuration => "mistake_duration",
        }
    }

    /// All three axes, in exposition order.
    pub const ALL: [QosAxis; 3] = [
        QosAxis::DetectionTime,
        QosAxis::MistakeRecurrence,
        QosAxis::MistakeDuration,
    ];
}

/// The live judgement of one stream against its contracted bound.
#[derive(Debug, Clone, PartialEq)]
pub struct QosVerdict {
    /// True iff no axis is violated (vacuously true without a spec).
    pub met: bool,
    /// The axes currently out of contract, in [`QosAxis::ALL`] order.
    pub violated_axes: Vec<QosAxis>,
}

/// Judges `metrics` against `spec`, axis by axis.
pub fn judge(spec: &QosSpec, metrics: &QosMetrics) -> QosVerdict {
    // hotpath:allow(alloc) — per scrape, not per heartbeat, and an empty
    // `Vec` allocates nothing: only a violated axis costs a push.
    let mut violated_axes = Vec::new();
    if metrics.detection_time > spec.detection_time {
        violated_axes.push(QosAxis::DetectionTime);
    }
    if metrics.mistake_rate > spec.max_mistake_rate() {
        violated_axes.push(QosAxis::MistakeRecurrence);
    }
    if metrics.avg_mistake_duration > spec.mistake_duration {
        violated_axes.push(QosAxis::MistakeDuration);
    }
    QosVerdict {
        met: violated_axes.is_empty(),
        violated_axes,
    }
}

/// Buckets per sliding window: the window's start is rounded down to a
/// multiple of `⌈window / BUCKETS⌉`.
const BUCKETS: u64 = 64;

/// Ring slots of a sliding tracker. A window spans `BUCKETS` whole
/// buckets plus the partial one `now` falls in.
const SLOTS: usize = BUCKETS as usize + 1;

/// The fresh heartbeats that arrived in one bucket of a sliding window.
#[derive(Debug, Clone, Copy, Default)]
struct Bucket {
    fresh: u64,
    /// Σ worst-case `T_D` samples, seconds, in arrival order.
    sum_worst: f64,
}

/// A sliding tracker's detection-time samples, as per-bucket totals.
///
/// Slot `k mod SLOTS` holds bucket `k = ⌊arrival / width⌋` for every
/// `k` in `[head − BUCKETS, head]`; no window that ends at or after the
/// latest arrival reaches further back.
#[derive(Debug)]
struct Ring {
    /// Bucket width `⌈window / BUCKETS⌉`, nanoseconds (at least 1).
    width: u64,
    /// Index of the newest bucket a heartbeat landed in.
    head: u64,
    slots: [Bucket; SLOTS],
}

impl Ring {
    fn new(window: Span) -> Ring {
        Ring {
            width: window.0.div_ceil(BUCKETS).max(1),
            head: 0,
            slots: [Bucket::default(); SLOTS],
        }
    }

    fn slot(&mut self, bucket: u64) -> &mut Bucket {
        &mut self.slots[(bucket % SLOTS as u64) as usize]
    }

    /// Start of the window ending at `now`: `⌊(now − window) / width⌋·width`.
    fn window_start(&self, window: Span, now: Nanos) -> Nanos {
        Nanos(now.0.saturating_sub(window.0) / self.width * self.width)
    }

    fn add(&mut self, arrival: Nanos, worst: f64) {
        let k = arrival.0 / self.width;
        if k > self.head {
            // The buckets the ring moves onto still hold data from a
            // lap ago: clear them (all of them after a long silence).
            for stale in (k - (k - self.head).min(SLOTS as u64) + 1)..=k {
                *self.slot(stale) = Bucket::default();
            }
            self.head = k;
        } else if self.head - k > BUCKETS {
            // Older than any window the tracker can still be asked for.
            return;
        }
        let bucket = self.slot(k);
        bucket.fresh += 1;
        bucket.sum_worst += worst;
    }

    /// `(fresh, Σ worst)` of every bucket from `first` on, oldest first.
    fn totals_since(&self, first: u64) -> (u64, f64) {
        let lo = first.max(self.head.saturating_sub(BUCKETS));
        (lo..=self.head).fold((0, 0.0), |(fresh, sum), k| {
            let b = &self.slots[(k % SLOTS as u64) as usize];
            (fresh + b.fresh, sum + b.sum_worst)
        })
    }
}

/// Count and Σ duration of closed mistakes, already clipped.
#[derive(Debug, Clone, Copy, Default)]
struct Closed {
    count: u64,
    secs: f64,
}

impl Closed {
    /// Adds the mistake `[start, end)` if it is not empty.
    fn add(&mut self, start: Nanos, end: Nanos) {
        if start < end {
            self.count += 1;
            self.secs += end.saturating_since(start).as_secs_f64();
        }
    }
}

/// Where a tracker keeps its detection-time samples and closed
/// mistakes: running totals for a cumulative window, buckets for a
/// sliding one.
#[derive(Debug)]
enum Samples {
    Cumulative {
        fresh: u64,
        /// Σ worst-case `T_D`, seconds, in arrival order.
        sum_worst: f64,
        /// Closed mistakes, clipped to the first arrival.
        closed: Closed,
    },
    Sliding(Box<Ring>),
}

/// Online estimator of one stream's QoS metrics over a cumulative or
/// sliding window, in constant space per heartbeat.
///
/// Feed it every processed heartbeat ([`QosTracker::on_heartbeat`]) and
/// every published transition ([`QosTracker::on_transition_kind`]), then ask
/// for [`QosTracker::metrics_at`] / [`QosTracker::verdict_at`] whenever
/// a scrape (or a test) wants the current estimates. All methods take
/// `&mut self`; in the sharded runtime each tracker lives behind its
/// shard and is touched only by that shard's worker or a scrape.
#[derive(Debug)]
pub struct QosTracker {
    config: QosTrackerConfig,
    /// First heartbeat arrival — observation starts here, like the
    /// replay pipeline's `start = first arrival`.
    first_arrival: Option<Nanos>,
    /// The latest instant the tracker was fed, arrival or transition —
    /// the earliest instant an evaluation can be "as of".
    latest: Nanos,
    samples: Samples,
    /// Closed mistakes `(start, end)` not folded into totals: a sliding
    /// tracker's, pruned once they end before the window; a cumulative
    /// tracker's that closed before its first heartbeat.
    closed: VecDeque<(Nanos, Nanos)>,
    /// S-transition instant of the currently open mistake, if any.
    open_since: Option<Nanos>,
    /// Whether any heartbeat ever produced a Trust period — mirrors the
    /// replay convention that a stream whose first heartbeat arrives
    /// already-expired is suspected from that first arrival.
    ever_trusted: bool,
    /// The most recent freshness decision, used to synthesize the
    /// not-yet-swept mistake tail at evaluation time.
    last_decision: Option<Decision>,
    /// Largest sequence number seen fresh — a fresh heartbeat at or
    /// below it is an incarnation restart, which re-anchors the
    /// [`QosOrigin::Auto`] offset.
    last_seq: Option<u64>,
    /// Running `min(arrival − j·Δi)` in nanos ([`QosOrigin::Auto`]
    /// only); signed because a fast sender clock puts arrivals before
    /// the nominal schedule.
    origin_offset: Option<i128>,
}

impl QosTracker {
    /// Creates an empty tracker.
    pub fn new(config: QosTrackerConfig) -> Self {
        let samples = if config.window == Span::MAX {
            Samples::Cumulative {
                fresh: 0,
                sum_worst: 0.0,
                closed: Closed::default(),
            }
        } else {
            // hotpath:allow(alloc) — once per tracker, when its stream
            // is first seen; the ring is never resized.
            Samples::Sliding(Box::new(Ring::new(config.window)))
        };
        QosTracker {
            config,
            first_arrival: None,
            latest: Nanos::ZERO,
            samples,
            closed: VecDeque::new(),
            open_since: None,
            ever_trusted: false,
            last_decision: None,
            last_seq: None,
            origin_offset: None,
        }
    }

    /// The tracker's configuration.
    pub fn config(&self) -> &QosTrackerConfig {
        &self.config
    }

    /// Records one processed heartbeat: its sequence number, arrival
    /// instant, and the freshness decision (if it was fresh).
    pub fn on_heartbeat(&mut self, seq: u64, arrival: Nanos, decision: Option<Decision>) {
        self.latest = self.latest.max(arrival);
        if self.first_arrival.is_none() {
            self.first_arrival = Some(arrival);
            if let Samples::Cumulative { closed, .. } = &mut self.samples {
                // Mistakes a relayed view closed before this stream was
                // heard from count from its first arrival on, like any
                // other; from here on the totals take them directly.
                for (start, end) in std::mem::take(&mut self.closed) {
                    closed.add(start.max(arrival), end);
                }
            }
        }
        let Some(d) = decision else { return };
        // A *fresh* decision at or below the largest seen sequence
        // number means the detector's freshness state was reset — an
        // incarnation restart. The new boot's sequence numbers anchor a
        // new origin.
        if self.last_seq.is_some_and(|l| seq <= l) {
            self.origin_offset = None;
        }
        self.last_seq = Some(seq);
        self.last_decision = Some(d);
        // Worst-case detection time sample: trust_until − σ(seq). Under
        // `Nominal`, σ(seq) = seq·Δi (the trace builders' convention,
        // and the replay pipeline's — kept byte-exact for the
        // differential tests). Under `Auto`, the nominal instant is
        // shifted by the fastest-message offset (see [`QosOrigin`]).
        let nominal = seq.saturating_mul(self.config.interval.0);
        let worst = match self.config.origin {
            QosOrigin::Nominal => d.trust_until.saturating_since(Nanos(nominal)).as_secs_f64(),
            QosOrigin::Auto => {
                let delta = i128::from(arrival.0) - i128::from(nominal);
                let offset = match self.origin_offset {
                    Some(o) => o.min(delta),
                    None => delta,
                };
                self.origin_offset = Some(offset);
                let send = i128::from(nominal) + offset;
                (i128::from(d.trust_until.0) - send).max(0) as f64 / 1e9
            }
        };
        match &mut self.samples {
            Samples::Cumulative {
                fresh, sum_worst, ..
            } => {
                *fresh += 1;
                *sum_worst += worst;
            }
            Samples::Sliding(ring) => {
                ring.add(arrival, worst);
                // Age the mistakes out here too, not only when scraped,
                // or a tracker nobody scrapes keeps every one it saw.
                let start = ring.window_start(self.config.window, self.latest);
                prune(&mut self.closed, start);
            }
        }
        // Replay convention: if the very first heartbeat arrives with
        // its freshness point already in the past, the stream is
        // suspected from that first arrival (never from time zero).
        if !self.ever_trusted && self.open_since.is_none() && d.trust_until <= arrival {
            self.open_since = Some(arrival);
        }
        if d.trust_until > arrival {
            self.ever_trusted = true;
        }
    }

    /// Records one published transition, crash-recovery aware: a
    /// `Recovered` transition (restart with a bumped incarnation)
    /// closes any open suspicion *without* counting it as a mistake —
    /// the restart proves the crash was real, so the detector was
    /// right to suspect (Reis & Vieira's accounting; a plain `Trust`
    /// close still records the span as a false suspicion).
    pub fn on_transition_kind(&mut self, kind: TransitionKind, at: Nanos) {
        self.latest = self.latest.max(at);
        match kind {
            TransitionKind::Suspect => {
                if self.open_since.is_none() {
                    self.open_since = Some(at);
                }
            }
            TransitionKind::Trust => {
                self.ever_trusted = true;
                if let Some(start) = self.open_since.take() {
                    match (&mut self.samples, self.first_arrival) {
                        (Samples::Cumulative { closed, .. }, Some(first)) => {
                            closed.add(start.max(first), at);
                        }
                        _ if start < at => self.closed.push_back((start, at)),
                        _ => {}
                    }
                }
            }
            TransitionKind::Recovered => {
                self.ever_trusted = true;
                // Justified suspicion: discard the open span entirely.
                self.open_since = None;
            }
        }
    }

    /// The windowed QoS estimates as of `now` — the same
    /// [`QosMetrics`] struct (and the same arithmetic) as the offline
    /// pipeline, in time independent of the heartbeats seen: a
    /// cumulative tracker reads its totals, a sliding one folds its
    /// `B + 1` buckets and the mistakes of one window. Prunes mistakes
    /// older than the window as a side effect. A `now` behind the
    /// latest instant the tracker was fed (a caller whose clock lags
    /// the one the arrivals and transitions were stamped on) is taken
    /// as that instant: the tracker has already aged its window up to
    /// there, scraped or not.
    pub fn metrics_at(&mut self, now: Nanos) -> QosMetrics {
        let interval = self.config.interval;
        let Some(first) = self.first_arrival else {
            return QosMetrics::from_totals(0, 0, 0.0, 0.0, Span::ZERO, 0.0, 0, interval);
        };
        let now = now.max(self.latest);
        let (start, fresh, sum_worst, closed) = match &self.samples {
            Samples::Cumulative {
                fresh,
                sum_worst,
                closed,
            } => (first, *fresh, *sum_worst, *closed),
            Samples::Sliding(ring) => {
                let window_start = ring.window_start(self.config.window, now);
                prune(&mut self.closed, window_start);
                let start = first.max(window_start);
                // Every closed mistake ended at or before `latest`, so
                // only its start needs clipping to the window.
                let mut closed = Closed::default();
                for &(s, e) in &self.closed {
                    closed.add(s.max(start), e);
                }
                let (fresh, sum_worst) = ring.totals_since(window_start.0 / ring.width);
                (start, fresh, sum_worst, closed)
            }
        };

        // The open mistake (sweeper already fired S) — censored at now.
        let mut open = self.open_since;
        // The not-yet-swept tail: the last freshness point may already
        // have expired without a sweep having run. The replay pipeline
        // sees this tail because it closes the timeline at the horizon;
        // synthesize it here so a scrape between sweeps agrees.
        if open.is_none() && self.ever_trusted {
            if let Some(d) = self.last_decision {
                if d.trust_until < now {
                    open = Some(d.trust_until);
                }
            }
        }
        let (mut mistakes, mut suspect_secs) = (closed.count, closed.secs);
        if let Some(s) = open {
            let cs = s.max(start);
            if cs < now {
                mistakes += 1;
                suspect_secs += now.saturating_since(cs).as_secs_f64();
            }
        }

        QosMetrics::from_totals(
            mistakes,
            closed.count,
            closed.secs,
            suspect_secs,
            now.saturating_since(start),
            sum_worst,
            fresh,
            interval,
        )
    }

    /// The verdict against the configured spec as of `now`. Without a
    /// spec the verdict is vacuously met.
    pub fn verdict_at(&mut self, now: Nanos) -> QosVerdict {
        match self.config.spec {
            None => QosVerdict {
                met: true,
                // hotpath:allow(alloc) — an empty `Vec` allocates nothing.
                violated_axes: Vec::new(),
            },
            Some(spec) => {
                let metrics = self.metrics_at(now);
                judge(&spec, &metrics)
            }
        }
    }
}

/// Drops the closed mistakes that end at or before `window_start`.
fn prune(closed: &mut VecDeque<(Nanos, Nanos)>, window_start: Nanos) {
    while closed.front().is_some_and(|&(_, end)| end <= window_start) {
        closed.pop_front();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(trust_until: Nanos) -> Option<Decision> {
        Some(Decision { trust_until })
    }

    const SEC: u64 = 1_000_000_000;

    #[test]
    fn no_mistakes_means_perfect_accuracy() {
        let mut t = QosTracker::new(QosTrackerConfig::cumulative(Span(SEC)));
        // Heartbeats every second, each trusted 1.5 s past its send.
        for seq in 0..10u64 {
            let arrival = Nanos(seq * SEC + SEC / 10);
            t.on_heartbeat(seq, arrival, decision(Nanos(seq * SEC + 3 * SEC / 2)));
        }
        let m = t.metrics_at(Nanos(9 * SEC + SEC / 4));
        assert_eq!(m.mistakes, 0);
        assert!((m.query_accuracy - 1.0).abs() < 1e-12);
        assert!((m.worst_detection_time - 1.5).abs() < 1e-12);
        // Average-case subtracts Δi/2.
        assert!((m.detection_time - 1.0).abs() < 1e-12);
    }

    #[test]
    fn closed_mistake_counts_toward_rate_and_duration() {
        let mut t = QosTracker::new(QosTrackerConfig::cumulative(Span(SEC)));
        t.on_heartbeat(0, Nanos(0), decision(Nanos(2 * SEC)));
        t.on_transition_kind(TransitionKind::Trust, Nanos(0));
        // Sweep fires S at the expired freshness point…
        t.on_transition_kind(TransitionKind::Suspect, Nanos(2 * SEC));
        // …and a late heartbeat restores trust 1 s later.
        t.on_heartbeat(1, Nanos(3 * SEC), decision(Nanos(5 * SEC)));
        t.on_transition_kind(TransitionKind::Trust, Nanos(3 * SEC));
        let m = t.metrics_at(Nanos(4 * SEC));
        assert_eq!(m.mistakes, 1);
        assert!((m.avg_mistake_duration - 1.0).abs() < 1e-12);
        assert!((m.mistake_rate - 1.0 / 4.0).abs() < 1e-12);
        assert!((m.query_accuracy - 0.75).abs() < 1e-12);
    }

    #[test]
    fn unswept_expiry_is_synthesized_as_censored_tail() {
        let mut t = QosTracker::new(QosTrackerConfig::cumulative(Span(SEC)));
        t.on_heartbeat(0, Nanos(0), decision(Nanos(2 * SEC)));
        t.on_transition_kind(TransitionKind::Trust, Nanos(0));
        // No sweeper ran, but the freshness point expired at 2 s; a
        // scrape at 3 s must still see 1 s of (censored) suspicion.
        let m = t.metrics_at(Nanos(3 * SEC));
        assert_eq!(m.mistakes, 1);
        assert!((m.query_accuracy - 2.0 / 3.0).abs() < 1e-12);
        // All-censored fallback: mean over censored spans.
        assert!((m.avg_mistake_duration - 1.0).abs() < 1e-12);
    }

    #[test]
    fn first_heartbeat_already_expired_opens_at_first_arrival() {
        let mut t = QosTracker::new(QosTrackerConfig::cumulative(Span(SEC)));
        // trust_until == arrival → no Trust period (replay convention).
        t.on_heartbeat(0, Nanos(5 * SEC), decision(Nanos(5 * SEC)));
        let m = t.metrics_at(Nanos(7 * SEC));
        assert_eq!(m.mistakes, 1);
        // Observed from first arrival (5 s) to now (7 s), all suspect.
        assert!((m.query_accuracy - 0.0).abs() < 1e-12);
    }

    #[test]
    fn sliding_window_forgets_old_mistakes() {
        let mut t = QosTracker::new(QosTrackerConfig {
            spec: None,
            interval: Span(SEC),
            window: Span(10 * SEC),
            origin: QosOrigin::Nominal,
        });
        t.on_heartbeat(0, Nanos(0), decision(Nanos(2 * SEC)));
        t.on_transition_kind(TransitionKind::Trust, Nanos(0));
        t.on_transition_kind(TransitionKind::Suspect, Nanos(2 * SEC));
        t.on_heartbeat(3, Nanos(3 * SEC), decision(Nanos(100 * SEC)));
        t.on_transition_kind(TransitionKind::Trust, Nanos(3 * SEC));
        // In-window at 5 s…
        assert_eq!(t.metrics_at(Nanos(5 * SEC)).mistakes, 1);
        // …fully aged out by 20 s (window start 10 s > mistake end 3 s).
        let m = t.metrics_at(Nanos(20 * SEC));
        assert_eq!(m.mistakes, 0);
        assert!((m.query_accuracy - 1.0).abs() < 1e-12);
    }

    /// Heartbeats a sliding tracker's ring holds, over all its slots.
    fn ring_beats(t: &QosTracker) -> u64 {
        match &t.samples {
            Samples::Sliding(ring) => ring.slots.iter().map(|b| b.fresh).sum(),
            Samples::Cumulative { .. } => panic!("not a sliding tracker"),
        }
    }

    #[test]
    fn unscraped_sliding_tracker_stays_bounded() {
        let window = 10u64; // in heartbeat intervals
        let mut t = QosTracker::new(QosTrackerConfig {
            spec: None,
            interval: Span(SEC),
            window: Span(window * SEC),
            origin: QosOrigin::Nominal,
        });
        // An early mistake, then a long quiet run — and never a scrape.
        t.on_heartbeat(0, Nanos(0), decision(Nanos(3 * SEC / 2)));
        t.on_transition_kind(TransitionKind::Trust, Nanos(0));
        t.on_transition_kind(TransitionKind::Suspect, Nanos(3 * SEC / 2));
        t.on_heartbeat(2, Nanos(2 * SEC), decision(Nanos(7 * SEC / 2)));
        t.on_transition_kind(TransitionKind::Trust, Nanos(2 * SEC));
        for seq in 3..5_000u64 {
            t.on_heartbeat(
                seq,
                Nanos(seq * SEC),
                decision(Nanos(seq * SEC + 3 * SEC / 2)),
            );
            // The ring spans the window plus one bucket, 10.16 s: never
            // more than that many heartbeats, however long the run.
            assert!(ring_beats(&t) <= window + 1, "seq {seq}");
        }
        assert!(t.closed.is_empty(), "the aged-out mistake was kept");
        // What is left is exactly what a scrape would have kept.
        let m = t.metrics_at(Nanos(4_999 * SEC + SEC / 4));
        assert_eq!(m.mistakes, 0);
        assert!((m.worst_detection_time - 1.5).abs() < 1e-12);
    }

    #[test]
    fn sliding_window_starts_on_a_bucket_boundary() {
        // 6.4 s window → 100 ms buckets.
        let mut t = QosTracker::new(QosTrackerConfig {
            spec: None,
            interval: Span(SEC / 10),
            window: Span(64 * SEC / 10),
            origin: QosOrigin::Nominal,
        });
        for seq in 0..200u64 {
            let arrival = Nanos(seq * SEC / 10 + SEC / 100);
            t.on_heartbeat(seq, arrival, decision(Nanos(arrival.0 + SEC / 5)));
        }
        // now − window = 13.55 s rounds down to 13.5 s: the window holds
        // the arrivals at 13.51 s … 19.91 s, 65 of them, over 6.45 s.
        let m = t.metrics_at(Nanos(19_950_000_000));
        assert!((m.observed_secs - 6.45).abs() < 1e-12, "{m:?}");
        assert_eq!(ring_beats(&t), 65);
        // Every sample reads trust_until − σ = 0.21 s.
        assert!((m.worst_detection_time - 0.21).abs() < 1e-12, "{m:?}");
    }

    #[test]
    fn evaluation_behind_the_latest_arrival_is_taken_as_that_arrival() {
        let mut t = QosTracker::new(QosTrackerConfig {
            spec: None,
            interval: Span(SEC),
            window: Span(10 * SEC),
            origin: QosOrigin::Nominal,
        });
        for seq in 0..30u64 {
            t.on_heartbeat(
                seq,
                Nanos(seq * SEC),
                decision(Nanos(seq * SEC + 3 * SEC / 2)),
            );
        }
        // The window `[−5 s, 5 s]` was aged out heartbeats ago; a lagging
        // caller reads the window ending at the last arrival instead of
        // a half-pruned one.
        let lagging = t.metrics_at(Nanos(5 * SEC));
        assert_eq!(lagging, t.metrics_at(Nanos(29 * SEC)));
        // 29 s − 10 s rounds down to a 156.25 ms bucket boundary.
        assert!((lagging.observed_secs - (29.0 - 121.0 * 0.156_25)).abs() < 1e-12);
    }

    #[test]
    fn verdict_reports_violated_axes() {
        let spec = QosSpec::new(0.5, 100.0, 0.1);
        let mut t = QosTracker::new(QosTrackerConfig {
            spec: Some(spec),
            interval: Span(SEC),
            window: Span::MAX,
            origin: QosOrigin::Nominal,
        });
        // Worst TD = 2 s ⇒ avg TD = 1.5 s > 0.5 s bound. One 1 s
        // mistake in 4 s ⇒ rate 0.25 > 1/100, duration 1 s > 0.1 s.
        t.on_heartbeat(0, Nanos(0), decision(Nanos(2 * SEC)));
        t.on_transition_kind(TransitionKind::Trust, Nanos(0));
        t.on_transition_kind(TransitionKind::Suspect, Nanos(2 * SEC));
        t.on_heartbeat(1, Nanos(3 * SEC), decision(Nanos(5 * SEC)));
        t.on_transition_kind(TransitionKind::Trust, Nanos(3 * SEC));
        let v = t.verdict_at(Nanos(4 * SEC));
        assert!(!v.met);
        assert_eq!(
            v.violated_axes,
            vec![
                QosAxis::DetectionTime,
                QosAxis::MistakeRecurrence,
                QosAxis::MistakeDuration
            ]
        );

        // A tracker with no spec never complains.
        let mut free = QosTracker::new(QosTrackerConfig::cumulative(Span(SEC)));
        free.on_heartbeat(0, Nanos(0), decision(Nanos(SEC)));
        assert!(free.verdict_at(Nanos(10 * SEC)).met);
    }

    #[test]
    fn recovered_closes_suspicion_without_a_mistake() {
        let mut t = QosTracker::new(QosTrackerConfig::cumulative(Span(SEC)));
        t.on_heartbeat(1, Nanos(SEC), decision(Nanos(3 * SEC)));
        t.on_transition_kind(TransitionKind::Trust, Nanos(SEC));
        // The process crashes; the sweeper fires S at the horizon…
        t.on_transition_kind(TransitionKind::Suspect, Nanos(3 * SEC));
        // …and a restarted incarnation re-trusts 2 s later. The
        // suspicion was *correct*, so it must not count as a mistake.
        t.on_heartbeat(1, Nanos(5 * SEC), decision(Nanos(7 * SEC)));
        t.on_transition_kind(TransitionKind::Recovered, Nanos(5 * SEC));
        let m = t.metrics_at(Nanos(6 * SEC));
        assert_eq!(m.mistakes, 0);
        assert!((m.query_accuracy - 1.0).abs() < 1e-12);
    }

    #[test]
    fn auto_origin_absorbs_clock_offset() {
        // Sender clock 100 s ahead of nominal: every arrival lands at
        // j·Δi + 100 s + delay. Nominal anchoring would report a T_D of
        // ~100 s; the auto origin anchors on the fastest message.
        let offset = 100 * SEC;
        let cfg = QosTrackerConfig {
            origin: QosOrigin::Auto,
            ..QosTrackerConfig::cumulative(Span(SEC))
        };
        let mut auto_t = QosTracker::new(cfg);
        let mut nominal = QosTracker::new(QosTrackerConfig::cumulative(Span(SEC)));
        for seq in 1..=10u64 {
            let arrival = Nanos(seq * SEC + offset + SEC / 10);
            let d = decision(Nanos(arrival.0 + 3 * SEC / 2));
            auto_t.on_heartbeat(seq, arrival, d);
            nominal.on_heartbeat(seq, arrival, d);
        }
        let now = Nanos(11 * SEC + offset);
        let with_auto = auto_t.metrics_at(now);
        let with_nominal = nominal.metrics_at(now);
        // worst per sample ≈ (arrival + 1.5 s) − (j·Δi + min offset) =
        // 1.6 s once the offset is learned; the first sample pins it at
        // exactly trust_until − arrival = 1.5 s.
        assert!(with_auto.worst_detection_time < 2.0, "{with_auto:?}");
        assert!(
            with_nominal.worst_detection_time > 100.0,
            "{with_nominal:?}"
        );
    }

    #[test]
    fn auto_origin_re_anchors_on_incarnation_restart() {
        let cfg = QosTrackerConfig {
            origin: QosOrigin::Auto,
            ..QosTrackerConfig::cumulative(Span(SEC))
        };
        let mut t = QosTracker::new(cfg);
        // First incarnation runs for 50 heartbeats…
        for seq in 1..=50u64 {
            let arrival = Nanos(seq * SEC + SEC / 10);
            t.on_heartbeat(seq, arrival, decision(Nanos(arrival.0 + 3 * SEC / 2)));
        }
        // …then the restarted boot resets seq to 1 at t = 60 s. With
        // the stale anchor, σ(1) ≈ 1 s and T_D would read ~60 s.
        for seq in 1..=10u64 {
            let arrival = Nanos((60 + seq) * SEC + SEC / 10);
            t.on_heartbeat(seq, arrival, decision(Nanos(arrival.0 + 3 * SEC / 2)));
        }
        let m = t.metrics_at(Nanos(75 * SEC));
        assert!(m.worst_detection_time < 2.0, "{m:?}");
    }

    #[test]
    fn plan_resolution() {
        let uniform = QosPlan::Uniform(QosTrackerConfig::cumulative(Span(SEC)));
        assert!(uniform.config_for(&7).is_some());
        let per = QosPlan::PerStream(Arc::new(|k: &u64| {
            (*k).is_multiple_of(2)
                .then(|| QosTrackerConfig::cumulative(Span(SEC)))
        }));
        assert!(per.config_for(&4).is_some());
        assert!(per.config_for(&5).is_none());
    }
}
