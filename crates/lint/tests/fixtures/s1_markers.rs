//@ path: crates/mem/src/fixture.rs
//! Seeded S1 violations: markers that fail to parse or take effect.
//! There is no suppression channel, so a leftover `allow` marker is as
//! malformed as a typo.

// mot3d-lint: allow(P1) -- suppressions are #[expect] attributes now
//^ S1
fn leftover_allow() {}

// mot3d-lint: no-allok
//^ S1
fn typo() {}

// A `no-alloc` marker with no following fn/impl/mod item is inert.
// mot3d-lint: no-alloc
//^ S1
const ORPHAN: u8 = 1;
