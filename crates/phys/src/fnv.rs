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
//! [`fold_words`] is the one other fold here: eight bytes a step, for
//! the result store's line checksums, which are read on every cache
//! hit.
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

/// Odd multiplier of [`fold_words`] (the 64-bit golden ratio).
const WORD_K: u64 = 0x9E37_79B9_7F4A_7C15;
/// Left rotation of [`fold_words`], so high product bits reach the low
/// bits the next word's xor lands on.
const WORD_R: u32 = 29;

/// One step of [`fold_words`]: `rotl((state ^ word) · K, r)`. The
/// multiplier is odd, so for a fixed word the step is a bijection of
/// `state`.
fn fold_word(state: u64, word: u64) -> u64 {
    (state ^ word).wrapping_mul(WORD_K).rotate_left(WORD_R)
}

/// Folds `bytes` eight at a time: each 8-byte little-endian word, the
/// last one zero-padded, then the length, each by
/// `rotl((state ^ w) · K, r)`.
///
/// Every step is a bijection of the state for a fixed word, so two
/// inputs of one length that differ in any single byte (hence in one
/// word) fold to different values from the same start, by
/// construction; the length word keeps zero padding from hiding
/// trailing NULs. It takes one multiply per eight bytes where
/// [`fnv1a64_fold`] takes one per byte, and it is not a substitute for
/// it where FNV-1a values are pinned.
#[must_use]
pub fn fold_words(mut state: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    let mut word = [0u8; 8];
    for chunk in &mut words {
        word.copy_from_slice(chunk);
        state = fold_word(state, u64::from_le_bytes(word));
    }
    let tail = words.remainder();
    if !tail.is_empty() {
        word = [0u8; 8];
        word[..tail.len()].copy_from_slice(tail);
        state = fold_word(state, u64::from_le_bytes(word));
    }
    fold_word(state, bytes.len() as u64)
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

    /// Pinned values: the store's line checksum is this fold, so a
    /// drift would turn every stored line into a miss.
    #[test]
    fn fold_words_matches_its_pinned_values() {
        assert_eq!(fold_words(FNV_OFFSET, b""), 0x3c70_99c1_3f17_7259);
        assert_eq!(fold_words(FNV_OFFSET, b"a"), 0x2e18_a1d7_a1ad_bc72);
        assert_eq!(fold_words(FNV_OFFSET, b"foobar"), 0x7057_1931_41bf_a8ae);
        assert_eq!(
            fold_words(FNV_OFFSET, b"0123456789abcdef!"),
            0x31e2_4f6c_642c_2415
        );
        assert_eq!(fold_words(0, b"01234567"), 0xbcfd_e65c_33b6_656b);
    }

    #[test]
    fn every_single_byte_change_changes_the_fold() {
        let base: Vec<u8> = (0u8..24).map(|i| i.wrapping_mul(37) ^ 0x5a).collect();
        for len in 0..=base.len() {
            let bytes = &base[..len];
            let want = fold_words(FNV_OFFSET, bytes);
            for at in 0..len {
                for value in 0..=u8::MAX {
                    if value == bytes[at] {
                        continue;
                    }
                    let mut changed = bytes.to_vec();
                    changed[at] = value;
                    assert_ne!(
                        fold_words(FNV_OFFSET, &changed),
                        want,
                        "len {len}, byte {at} = {value:#04x}"
                    );
                }
            }
        }
    }

    #[test]
    fn the_length_word_separates_trailing_nuls() {
        assert_ne!(
            fold_words(FNV_OFFSET, b"ab"),
            fold_words(FNV_OFFSET, b"ab\0")
        );
        assert_ne!(fold_words(FNV_OFFSET, b""), fold_words(FNV_OFFSET, b"\0"));
        assert_ne!(
            fold_words(FNV_OFFSET, b"01234567"),
            fold_words(FNV_OFFSET, b"01234567\0")
        );
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
