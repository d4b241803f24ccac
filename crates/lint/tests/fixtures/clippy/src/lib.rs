//! One seeded violation of each rule clippy enforces for the workspace.
//! `//~ <lint> [<lint> …]` trailing a line names the diagnostics
//! expected on it; the `lint-invariants` CI job fails on any missing or
//! unexpected `(line, lint)` pair.

#![warn(clippy::unwrap_used, clippy::expect_used, clippy::panic)]

pub type Map = std::collections::HashMap<u64, u64>; //~ clippy::disallowed_types

pub type Queue = std::collections::BinaryHeap<u64>; //~ clippy::disallowed_types

pub fn started() -> std::time::Instant {
    std::time::Instant::now() //~ clippy::disallowed_methods
}

pub fn scale() -> Option<String> {
    std::env::var("MOT3D_SCALE").ok() //~ clippy::disallowed_methods
}

pub fn first(x: Option<u8>) -> u8 {
    x.unwrap() //~ clippy::unwrap_used
}

pub fn named(x: Option<u8>) -> u8 {
    x.expect("always set") //~ clippy::expect_used
}

pub fn explode() {
    panic!("boom"); //~ clippy::panic
}

#[expect(clippy::unwrap_used, reason = "stale")] //~ unfulfilled_lint_expectations
pub fn tolerant(x: Option<u8>) -> u8 {
    x.unwrap_or(0)
}

#[allow(dead_code)] //~ clippy::allow_attributes clippy::allow_attributes_without_reason
fn unused() {}

// Test code may panic: that is how a test fails.
#[cfg(test)]
mod tests {
    #[test]
    fn tests_may_unwrap() {
        assert_eq!(super::first(Some(3)).checked_add(1).unwrap(), 4);
    }
}
