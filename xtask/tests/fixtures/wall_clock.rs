//@ path: crates/sim/src/engine.rs
// Fixture: wall-clock — the extended scope (crates/sim/src) fires on
// both clock reads, honors the allow marker, and skips string literals
// and test code.

fn fire() {
    let t = std::time::Instant::now();
    let u = std::time::SystemTime::now();
}

fn allowed() {
    // xtask:allow(wall_clock) — fixture: measuring only.
    let t = std::time::Instant::now();
}

fn in_string() {
    let s = "Instant::now()";
}

#[cfg(test)]
mod tests {
    fn free_here() {
        let t = std::time::Instant::now();
    }
}
