//@ path: crates/net/src/pair_a.rs
// Fixture: atomic-pairing — `ready` pairs across files (see b.rs),
// `orphan` has no acquire side anywhere and fires, and `waived`
// carries the one-sided waiver.

fn publish(s: &S) {
    s.ready.store(true, Ordering::Release);
    s.orphan.store(true, Ordering::Release);
}

fn waived(s: &S) {
    // xtask:allow(one_sided) — fixture: the acquire side lives behind
    // a helper the static pass cannot attribute.
    s.waived.store(true, Ordering::Release);
}
