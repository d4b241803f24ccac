//! LRU replacement state for set-associative caches.
//!
//! Table I specifies LRU for the private L1s; the L2 banks use LRU too
//! (8-way).
//!
//! State for *all* sets lives in one flat table ([`ReplacerTable`]) —
//! per-set stamps are contiguous slices of shared arrays rather than one
//! heap object per set, so a cache access touches at most two cache
//! lines of replacer state and victim selection never allocates.

/// Flat LRU state for every set of one cache: one `u64` access stamp per
/// (set, way) plus one logical clock per set, allocated once at
/// construction.
#[derive(Debug, Clone)]
pub(crate) struct ReplacerTable {
    ways: usize,
    /// Per-(set, way) access stamps, set-major.
    stamps: Box<[u64]>,
    /// Per-set logical clocks.
    clocks: Box<[u64]>,
}

impl ReplacerTable {
    pub(crate) fn new(sets: usize, ways: usize) -> Self {
        ReplacerTable {
            ways,
            stamps: vec![0; sets * ways].into_boxed_slice(),
            clocks: vec![0; sets].into_boxed_slice(),
        }
    }

    /// Restores the construction-time state of `sets` (the cache clears
    /// only the sets a run touched).
    pub(crate) fn reset_sets(&mut self, sets: std::ops::Range<usize>) {
        self.stamps[sets.start * self.ways..sets.end * self.ways].fill(0);
        self.clocks[sets].fill(0);
    }

    /// Records a hit, use or (re)fill of `way` in `set`.
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        self.clocks[set] += 1;
        self.stamps[set * self.ways + way] = self.clocks[set];
    }

    /// Chooses the victim way of `set`. `is_valid(way)` reports way
    /// occupancy straight off the caller's metadata — invalid ways win
    /// immediately, and no temporary is built.
    pub(crate) fn victim(&self, set: usize, mut is_valid: impl FnMut(usize) -> bool) -> usize {
        if let Some(free) = (0..self.ways).find(|&w| !is_valid(w)) {
            return free;
        }
        index_of_min(&self.stamps[set * self.ways..(set + 1) * self.ways])
    }
}

#[expect(
    clippy::expect_used,
    reason = "CacheConfig rejects zero associativity, so the slice is non-empty"
)]
fn index_of_min(values: &[u64]) -> usize {
    values
        .iter()
        .enumerate()
        .min_by_key(|(_, v)| **v)
        .map(|(i, _)| i)
        .expect("sets have at least one way")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lru_evicts_least_recent() {
        let mut r = ReplacerTable::new(1, 4);
        for way in 0..4 {
            r.touch(0, way);
        }
        r.touch(0, 0); // order now: 1 oldest, then 2, 3, 0
        assert_eq!(r.victim(0, |_| true), 1);
        r.touch(0, 1);
        assert_eq!(r.victim(0, |_| true), 2);
    }

    #[test]
    fn invalid_way_wins_over_policy() {
        let mut r = ReplacerTable::new(1, 4);
        for way in 0..4 {
            r.touch(0, way);
        }
        assert_eq!(r.victim(0, |w| w != 2), 2);
    }

    #[test]
    fn sets_are_independent() {
        let mut r = ReplacerTable::new(2, 2);
        r.touch(0, 0);
        r.touch(0, 1);
        r.touch(1, 1);
        r.touch(1, 0);
        r.touch(0, 0);
        // Set 0's LRU is way 1; set 1's is way 1 (filled first there).
        assert_eq!(r.victim(0, |_| true), 1);
        assert_eq!(r.victim(1, |_| true), 1);
    }

    #[test]
    fn reset_restores_fresh_grant_order() {
        fn grants(r: &mut ReplacerTable) -> Vec<usize> {
            (0..4)
                .map(|_| {
                    let v = r.victim(0, |_| true);
                    r.touch(0, v);
                    v
                })
                .collect()
        }
        let mut r = ReplacerTable::new(1, 4);
        let fresh = grants(&mut r);
        r.reset_sets(0..1);
        assert_eq!(fresh, grants(&mut r));
    }

    #[test]
    fn all_policies_cover_all_ways_eventually() {
        // Filling W distinct new lines into a W-way set must evict every
        // way exactly once.
        let ways = 4;
        let mut r = ReplacerTable::new(1, ways);
        let mut valid = vec![false; ways];
        let mut seen = vec![false; ways];
        for _ in 0..ways {
            let v = r.victim(0, |w| valid[w]);
            assert!(!seen[v], "repeated victim {v}");
            seen[v] = true;
            valid[v] = true;
            r.touch(0, v);
        }
        assert!(seen.iter().all(|s| *s));
    }
}
