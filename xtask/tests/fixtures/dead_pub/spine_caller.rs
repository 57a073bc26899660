//@ path: crates/bench/src/bin/spine/src/main.rs
// Fixture: dead-pub — the spine lives outside the workspace but its
// uses count. A mention of named_in_prose_only in a comment does not.

fn main() {
    twofd_core::surface::used_by_the_spine();
    let s = "named_in_prose_only";
}
