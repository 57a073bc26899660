//@ path: crates/core/src/qos.rs
// Fixture: unsafe-isolation — `unsafe` outside the designated boundary
// fires even when the SAFETY comment is present.

fn fire() {
    // SAFETY: justified, but still in the wrong module.
    let p = unsafe { danger() };
}
