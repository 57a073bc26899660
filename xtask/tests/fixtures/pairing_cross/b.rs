//@ path: crates/net/src/pair_b.rs
// Second half of the pairing corpus: the acquire side of `ready`.

fn consume(s: &S) -> bool {
    s.ready.load(Ordering::Acquire)
}
