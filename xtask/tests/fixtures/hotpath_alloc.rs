//@ path: crates/core/src/slab.rs
// Fixture: hotpath-alloc — fire on vec!/format!, allow Vec::new with a
// justification, and leave the sanctioned with_capacity alone.

fn fire() {
    let v = vec![1, 2, 3];
    let s = format!("x{}", 1);
}

fn allowed() {
    // hotpath:allow(alloc) — fixture: construction path, runs once.
    let v: Vec<u8> = Vec::new();
}

fn sanctioned() {
    let v: Vec<u8> = Vec::with_capacity(64);
}
