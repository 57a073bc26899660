//@ path: examples/demo.rs
// Fixture: dead-pub — examples count as callers.

fn main() {
    twofd_core::surface::used_by_an_example();
}
