//! Heap bytes per QoS tracker, counted at the allocator.
//!
//! A `QosTracker` keeps totals, not one sample per heartbeat: a
//! cumulative tracker holds running sums and no heap at all once its
//! stream has been heard from, and a sliding one holds a fixed ring of
//! 65 buckets (1 056 bytes) plus the closed mistakes of one window. The
//! counting allocator below sees every byte this test binary holds. The
//! binary has one test so that no other test allocates while it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
use twofd::core::{Decision, TransitionKind};
use twofd::prelude::*;

/// Bytes currently allocated through [`Counting`].
static LIVE: AtomicIsize = AtomicIsize::new(0);

struct Counting;

// SAFETY: every call is forwarded to `System` with the caller's own
// arguments; the wrapper only adds the sizes up.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        // SAFETY: the caller upholds `alloc`'s contract for `layout`.
        let p = unsafe { System.alloc(layout) };
        if !p.is_null() {
            LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `alloc` above with this `layout`.
        unsafe { System.dealloc(ptr, layout) };
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
    }
}

#[global_allocator]
static ALLOCATOR: Counting = Counting;

fn live() -> isize {
    LIVE.load(Ordering::Relaxed)
}

const INTERVAL: Span = Span(100_000_000); // 100 ms
const SEC: u64 = 1_000_000_000;

/// Heap bytes a tracker with `window` holds after `beats` heartbeats
/// `period` apart, counted from before it was built. With
/// `mistake_every`, a relayed view's mistake closes before the first
/// heartbeat, and a 5 ms suspicion, published and then closed by the
/// heartbeat's arrival, precedes every heartbeat whose arrival crosses
/// a multiple of it.
fn heap_after(window: Span, beats: u64, period: Span, mistake_every: Option<Span>) -> isize {
    let before = live();
    let mut t = QosTracker::new(QosTrackerConfig {
        window,
        ..QosTrackerConfig::cumulative(INTERVAL)
    });
    if mistake_every.is_some() {
        // A relayed view trusts the stream, loses it and trusts it
        // again before its first heartbeat: that mistake waits for the
        // first arrival to be clipped against.
        t.on_transition_kind(TransitionKind::Trust, Nanos(1_000_000));
        t.on_transition_kind(TransitionKind::Suspect, Nanos(2_000_000));
        t.on_transition_kind(TransitionKind::Trust, Nanos(3_000_000));
    }
    let mut previous = Nanos::ZERO;
    for seq in 1..=beats {
        let arrival = Nanos(seq * period.0 + 10_000_000);
        if mistake_every.is_some_and(|every| arrival.0 / every.0 != previous.0 / every.0) {
            t.on_transition_kind(TransitionKind::Suspect, arrival - Span(5_000_000));
            t.on_transition_kind(TransitionKind::Trust, arrival);
        }
        let trust_until = Nanos(arrival.0 + 2 * period.0);
        t.on_heartbeat(seq, arrival, Some(Decision { trust_until }));
        previous = arrival;
    }
    // A scrape allocates nothing that outlives it.
    std::hint::black_box(t.metrics_at(previous));
    let held = live() - before;
    drop(t);
    held
}

#[test]
fn trackers_hold_constant_heap_whatever_the_heartbeat_count() {
    // Cumulative: 10³ and 10⁶ heartbeats, a mistake every 1 000 of
    // them, and the same (empty) heap.
    let mistake_every = Some(Span(1_000 * INTERVAL.0));
    let short = heap_after(Span::MAX, 1_000, INTERVAL, mistake_every);
    let long = heap_after(Span::MAX, 1_000_000, INTERVAL, mistake_every);
    assert_eq!(
        short, long,
        "cumulative: {short} B after 10³, {long} B after 10⁶"
    );
    assert_eq!(long, 0, "a cumulative tracker owns {long} heap bytes");

    // Sliding, 60 s: ten minutes fed every Δi and every Δi/10, one
    // mistake every 25 s, and the same heap.
    let window = Span(60 * SEC);
    let every_25s = Some(Span(25 * SEC));
    let at_interval = heap_after(window, 6_000, INTERVAL, every_25s);
    let tenfold = heap_after(window, 60_000, Span(INTERVAL.0 / 10), every_25s);
    assert_eq!(
        at_interval, tenfold,
        "sliding: {at_interval} B fed every Δi, {tenfold} B every Δi/10"
    );
    // The ring (65 buckets × 16 B + width and head) and a 4-slot
    // mistake deque: at most three 25 s-apart mistakes reach into 60 s.
    assert!(
        at_interval <= 1_120,
        "a 60 s sliding tracker owns {at_interval} heap bytes"
    );

    // Control: the counter does see a tracker's storage.
    let quiet = heap_after(window, 6_000, INTERVAL, None);
    assert_eq!(quiet, 1_056, "the ring alone owns {quiet} heap bytes");
}
