//@ path: crates/net/src/intake.rs
// Fixture: safety-comment — fire and allow paths, plus the
// string-literal regression (satellite: `unsafe` in a string must not
// count as an unsafe site).

fn fire() {
    let p = unsafe { danger() };
}

fn allowed() {
    // SAFETY: `danger` has no preconditions in this fixture.
    let p = unsafe { danger() };
}

fn in_string() {
    let s = "unsafe";
}
