//@ path: crates/obs/src/gauge.rs
// Fixture: atomic-ordering rule — Relaxed needs a written
// justification marker, SeqCst is banned, and neither fires from doc
// comments or string literals. (The marker itself is deliberately not
// spelled in this header: it would justify the lines below.)

fn fire_relaxed(a: &AtomicU64) {
    a.load(Ordering::Relaxed);
}

fn allowed_relaxed(a: &AtomicU64) {
    // ordering: fixture — single stat cell, no cross-cell invariant.
    a.load(Ordering::Relaxed);
}

fn fire_seqcst(a: &AtomicU64) {
    a.store(1, Ordering::SeqCst);
}

/// Doc prose naming `Ordering::SeqCst` is not a use.
fn doc_only() {
    let s = "Ordering::SeqCst";
}
