//@ path: crates/core/src/wheel.rs
//@ baseline: hotpath-panic legacy fixture debt, exercised by the golden suite
// Fixture: suppression baseline — the finding is absorbed (reported as
// baselined, not failing), and the entry is not stale.

fn debt(x: Option<u32>) {
    let v = x.unwrap();
}
