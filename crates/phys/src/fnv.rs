//! Deterministic hashing for result-affecting collections.
//!
//! `std`'s default `RandomState` hasher is seeded per process, so the
//! iteration order of a default `HashMap`/`HashSet` differs from run to
//! run. Any such order leaking into metrics, report rows, or golden
//! checksums silently breaks the bit-identical-results contract the
//! equivalence suites pin. This module provides the sanctioned
//! replacement: [FNV-1a] is tiny (a fold of one xor and one multiply —
//! no external dependency, consistent with the offline vendoring
//! policy), fast on the short integer keys the simulator uses, and
//! **unkeyed**, so iteration order is a pure function of the inserted
//! keys.
//!
//! Use [`FnvHashMap`]/[`FnvHashSet`] wherever a hash collection lives in
//! a result-affecting crate; `clippy::disallowed_types` (configured in
//! `clippy.toml`) rejects the default-hasher forms.
//! The same FNV-1a fold is what `mot3d-bench` uses for its golden
//! record-stream checksums, so one hash algorithm serves both jobs.
//!
//! [FNV-1a]: http://www.isthe.com/chongo/tech/comp/fnv/
//!
//! # Examples
//!
//! ```
//! use mot3d_phys::fnv::FnvHashMap;
//!
//! let mut m: FnvHashMap<u32, &str> = FnvHashMap::default();
//! m.insert(7, "seven");
//! m.insert(3, "three");
//! // Iteration order is a pure function of the keys — identical in
//! // every process, so it may feed checksums and reports.
//! let keys: Vec<u32> = m.keys().copied().collect();
//! let again: Vec<u32> = m.keys().copied().collect();
//! assert_eq!(keys, again);
//! ```

use std::hash::{BuildHasherDefault, Hasher};

/// FNV-1a 64-bit offset basis.
pub const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64-bit prime.
pub const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// Folds `bytes` into an FNV-1a state (start from [`FNV_OFFSET`]).
#[must_use]
pub fn fnv1a64_fold(mut state: u64, bytes: &[u8]) -> u64 {
    for &b in bytes {
        state ^= u64::from(b);
        state = state.wrapping_mul(FNV_PRIME);
    }
    state
}

/// A [`Hasher`] computing 64-bit FNV-1a over the written bytes.
///
/// Unkeyed and stateless across processes: two runs hashing the same
/// keys produce the same table layout, hence the same iteration order.
/// That determinism is the point; FNV is **not** DoS-resistant, which
/// is irrelevant here — every key is generated by the simulator itself.
#[derive(Debug, Clone)]
pub struct Fnv64Hasher {
    state: u64,
}

impl Default for Fnv64Hasher {
    fn default() -> Self {
        Fnv64Hasher { state: FNV_OFFSET }
    }
}

impl Hasher for Fnv64Hasher {
    fn finish(&self) -> u64 {
        self.state
    }

    fn write(&mut self, bytes: &[u8]) {
        self.state = fnv1a64_fold(self.state, bytes);
    }
}

/// [`std::hash::BuildHasher`] producing [`Fnv64Hasher`]s.
pub type FnvBuildHasher = BuildHasherDefault<Fnv64Hasher>;

/// A `HashMap` with deterministic (FNV-1a) hashing — the sanctioned
/// form for result-affecting crates.
#[expect(
    clippy::disallowed_types,
    reason = "this alias *is* the sanctioned replacement"
)]
pub type FnvHashMap<K, V> = std::collections::HashMap<K, V, FnvBuildHasher>;

/// A `HashSet` with deterministic (FNV-1a) hashing — the sanctioned
/// form for result-affecting crates.
#[expect(
    clippy::disallowed_types,
    reason = "this alias *is* the sanctioned replacement"
)]
pub type FnvHashSet<T> = std::collections::HashSet<T, FnvBuildHasher>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn matches_the_reference_vectors() {
        // Classic FNV-1a test vectors (empty string, "a", "foobar").
        assert_eq!(fnv1a64_fold(FNV_OFFSET, b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64_fold(FNV_OFFSET, b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64_fold(FNV_OFFSET, b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn hasher_equals_direct_fold() {
        let mut h = Fnv64Hasher::default();
        h.write(b"foo");
        h.write(b"bar");
        assert_eq!(h.finish(), fnv1a64_fold(FNV_OFFSET, b"foobar"));
    }

    #[test]
    fn iteration_order_is_a_pure_function_of_the_keys() {
        let build = |keys: &[u64]| -> Vec<u64> {
            let mut s: FnvHashSet<u64> = FnvHashSet::default();
            for &k in keys {
                s.insert(k);
            }
            s.iter().copied().collect()
        };
        // Same keys, different insertion order, fresh tables: identical
        // iteration order (unkeyed hash + same growth schedule).
        let a = build(&[9, 1, 4, 7, 2, 8, 3]);
        let b = build(&[9, 1, 4, 7, 2, 8, 3]);
        assert_eq!(a, b);
    }

    #[test]
    fn map_alias_round_trips() {
        let mut m: FnvHashMap<&str, u32> = FnvHashMap::default();
        m.insert("x", 1);
        m.insert("y", 2);
        assert_eq!(m.get("x"), Some(&1));
        assert_eq!(m.len(), 2);
    }
}
