//@ path: crates/core/src/surface.rs
// Fixture: dead-pub — the library file whose `pub` items are indexed.

fn caller() -> u32 {
    same_file_only() + SAME_FILE_CONST
}

pub fn planted_dead() {}

pub fn used_only_by_own_tests() {}

pub fn same_file_only() -> u32 {
    1
}

pub fn used_by_the_spine() {}

pub fn used_by_an_example() {}

pub fn named_in_prose_only() {}

pub const SAME_FILE_CONST: u32 = 2;

pub static DEAD_STATIC: u32 = 3;

pub(crate) fn crate_visibility_is_not_indexed() {}

pub const fn const_fn_is_indexed() {}

// xtask:allow(dead_pub) — fixture: kept on purpose, with a reason.
pub fn kept_on_purpose() {}

#[cfg(test)]
mod tests {
    #[test]
    fn own_test() {
        super::used_only_by_own_tests();
    }
}
