//@ path: crates/core/src/wheel.rs
// Fixture: hotpath-panic — fire on unwrap and panic!, allow with a
// written invariant, and ignore lookalikes.

fn fire(x: Option<u32>) {
    let v = x.unwrap();
    panic!("boom");
}

fn allowed(x: Option<u32>) {
    // hotpath:allow(panic) — fixture: invariant makes None impossible.
    let v = x.unwrap();
}

fn lookalikes(x: Option<u32>) {
    let v = x.unwrap_or(0);
}
