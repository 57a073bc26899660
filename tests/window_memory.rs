//! Heap bytes per monitored stream, counted at the allocator.
//!
//! A 2W-FD at the paper's `(1, 1000)` keeps its short window inline and
//! its long window as one heap ring of `i32` offsets: 4 000 bytes, where
//! an `i64` ring took 8 000. The counting allocator below sees every byte
//! this test binary holds, so the figures are what a fleet pays per
//! stream. The binary has one test so that no other test allocates while
//! it counts.

use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};
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

/// Heap bytes `fd` holds after `arrival(i)` has been fed for seq
/// `1..=beats`, counted from before it was built.
fn heap_after(beats: u64, arrival: impl Fn(u64) -> Nanos) -> isize {
    let before = live();
    let mut fd = DetectorSpec::TwoWindow { n1: 1, n2: 1000 }.build_any(INTERVAL, 0.04);
    for seq in 1..=beats {
        fd.on_heartbeat(seq, arrival(seq));
    }
    let held = live() - before;
    drop(fd);
    held
}

#[test]
fn a_paper_default_2w_fd_owns_at_most_4_kib_of_heap() {
    // A full long window under ordinary jitter.
    let jitter = |seq: u64| Nanos(seq * INTERVAL.0 + 10_000_000 + (seq * 7_919) % 3_000_000);
    let full = heap_after(2_000, jitter);
    assert!(full <= 4_096, "2w-fd(1,1000) owns {full} heap bytes");

    // A sender drifting 1 ms per beat moves 20 s over the run: its long
    // window re-bases in place many times and never widens.
    let drifting = |seq: u64| Nanos(seq * (INTERVAL.0 + 1_000_000) + 10_000_000);
    let drifted = heap_after(20_000, drifting);
    assert!(
        drifted <= 4_096,
        "a drifting stream owns {drifted} heap bytes"
    );

    // Control: a 5 s step inside the window widens it to 8 000 bytes, so
    // the counter does see the window's storage.
    let stepped = |seq: u64| jitter(seq) + Span::from_secs(if seq > 1_500 { 5 } else { 0 });
    let widened = heap_after(2_000, stepped);
    assert!(
        (8_000..=8_192).contains(&widened),
        "a widened window owns {widened} heap bytes"
    );
}
