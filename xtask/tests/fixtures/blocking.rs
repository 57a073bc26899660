//@ path: crates/net/src/shard.rs
// Fixture: blocking-call — fire on sleep and lock, allow with a bound,
// and ignore Mutex construction.

fn fire(m: &Mutex<u32>) {
    thread::sleep(Duration::from_millis(1));
    let g = m.lock();
}

fn allowed(m: &Mutex<u32>) {
    // hotpath:allow(block) — fixture: uncontended, O(1) section.
    let g = m.lock();
}

fn construction() {
    let m = Mutex::new(0);
}
