//! Replacement policies for set-associative caches.
//!
//! Table I specifies LRU for the private L1s; the L2 banks use LRU too
//! (8-way). Tree-PLRU and FIFO are provided for ablation studies of the
//! replacement choice (see the `replacement` bench in `mot3d-bench`).
//!
//! State for *all* sets lives in one flat table ([`ReplacerTable`]) —
//! per-set stamps/bits are contiguous slices of shared arrays rather than
//! one heap object per set, so a cache access touches at most two cache
//! lines of replacer state and victim selection never allocates.

/// Which replacement policy a cache uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReplacementPolicy {
    /// True least-recently-used via access timestamps (Table I).
    #[default]
    Lru,
    /// Tree pseudo-LRU: one decision bit per binary-tree node.
    TreePlru,
    /// First-in first-out by fill time.
    Fifo,
}

/// Flat replacement state for every set of one cache.
///
/// Layout: LRU and FIFO keep one `u64` stamp per (set, way) plus one
/// logical clock per set; Tree-PLRU keeps `ways − 1` decision bits per
/// set. Each policy allocates only the arrays it uses, once, at
/// construction.
#[derive(Debug, Clone)]
pub(crate) struct ReplacerTable {
    policy: ReplacementPolicy,
    ways: usize,
    /// Per-(set, way) access/fill stamps (LRU, FIFO), set-major.
    stamps: Box<[u64]>,
    /// Per-set logical clocks (LRU, FIFO).
    clocks: Box<[u64]>,
    /// Per-set PLRU decision bits, `ways − 1` each, set-major.
    bits: Box<[bool]>,
}

impl ReplacerTable {
    pub(crate) fn new(policy: ReplacementPolicy, sets: usize, ways: usize) -> Self {
        let (stamp_len, bit_len) = match policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => (sets * ways, 0),
            // A complete binary tree over `ways` leaves has `ways - 1`
            // internal nodes (ways is a power of two for PLRU).
            ReplacementPolicy::TreePlru => (0, sets * ways.saturating_sub(1)),
        };
        ReplacerTable {
            policy,
            ways,
            stamps: vec![0; stamp_len].into_boxed_slice(),
            clocks: vec![0; if bit_len == 0 { sets } else { 0 }].into_boxed_slice(),
            bits: vec![false; bit_len].into_boxed_slice(),
        }
    }

    /// Restores the construction-time state of `sets` (the cache clears
    /// only the sets a run touched).
    pub(crate) fn reset_sets(&mut self, sets: std::ops::Range<usize>) {
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                self.stamps[sets.start * self.ways..sets.end * self.ways].fill(0);
                self.clocks[sets].fill(0);
            }
            ReplacementPolicy::TreePlru => {
                let nodes = self.ways - 1;
                self.bits[sets.start * nodes..sets.end * nodes].fill(false);
            }
        }
    }

    /// Walks the PLRU tree from the root to `way`'s leaf, pointing every
    /// node away from the path just used.
    fn plru_touch(&mut self, set: usize, way: usize) {
        let bits = &mut self.bits[set * (self.ways - 1)..(set + 1) * (self.ways - 1)];
        let mut node = 0usize;
        let mut lo = 0usize;
        let mut hi = self.ways;
        while hi - lo > 1 {
            let mid = (lo + hi) / 2;
            let go_right = way >= mid;
            bits[node] = !go_right; // next victim search goes the other way
            node = 2 * node + if go_right { 2 } else { 1 };
            if go_right {
                lo = mid;
            } else {
                hi = mid;
            }
        }
    }

    /// Records a hit/use of `way` in `set`.
    pub(crate) fn touch(&mut self, set: usize, way: usize) {
        match self.policy {
            ReplacementPolicy::Lru => {
                self.clocks[set] += 1;
                self.stamps[set * self.ways + way] = self.clocks[set];
            }
            ReplacementPolicy::TreePlru => {
                if self.ways > 1 {
                    self.plru_touch(set, way);
                }
            }
            ReplacementPolicy::Fifo => {} // FIFO ignores hits
        }
    }

    /// Records that `way` in `set` was (re)filled.
    pub(crate) fn fill(&mut self, set: usize, way: usize) {
        match self.policy {
            ReplacementPolicy::Fifo => {
                self.clocks[set] += 1;
                self.stamps[set * self.ways + way] = self.clocks[set];
            }
            _ => self.touch(set, way),
        }
    }

    /// Chooses the victim way of `set`. `is_valid(way)` reports way
    /// occupancy straight off the caller's metadata — invalid ways win
    /// immediately, and no temporary is built.
    pub(crate) fn victim(&self, set: usize, mut is_valid: impl FnMut(usize) -> bool) -> usize {
        if let Some(free) = (0..self.ways).find(|&w| !is_valid(w)) {
            return free;
        }
        match self.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => {
                index_of_min(&self.stamps[set * self.ways..(set + 1) * self.ways])
            }
            ReplacementPolicy::TreePlru => {
                if self.ways == 1 {
                    return 0;
                }
                let bits = &self.bits[set * (self.ways - 1)..(set + 1) * (self.ways - 1)];
                let mut node = 0usize;
                let mut lo = 0usize;
                let mut hi = self.ways;
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let go_right = bits[node];
                    node = 2 * node + if go_right { 2 } else { 1 };
                    if go_right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
        }
    }
}

fn index_of_min(values: &[u64]) -> usize {
    values
        .iter()
        .enumerate()
        .min_by_key(|(_, v)| **v)
        .map(|(i, _)| i)
        // mot3d-lint: allow(P1) -- CacheConfig rejects zero associativity, so the slice is non-empty
        .expect("sets have at least one way")
}

#[cfg(test)]
mod tests {
    use super::*;

    fn one_set(policy: ReplacementPolicy, ways: usize) -> ReplacerTable {
        ReplacerTable::new(policy, 1, ways)
    }

    #[test]
    fn lru_evicts_least_recent() {
        let mut r = one_set(ReplacementPolicy::Lru, 4);
        for way in 0..4 {
            r.fill(0, way);
        }
        r.touch(0, 0); // order now: 1 oldest, then 2, 3, 0
        assert_eq!(r.victim(0, |_| true), 1);
        r.touch(0, 1);
        assert_eq!(r.victim(0, |_| true), 2);
    }

    #[test]
    fn invalid_way_wins_over_policy() {
        let mut r = one_set(ReplacementPolicy::Lru, 4);
        for way in 0..4 {
            r.fill(0, way);
        }
        assert_eq!(r.victim(0, |w| w != 2), 2);
    }

    #[test]
    fn fifo_ignores_touches() {
        let mut r = one_set(ReplacementPolicy::Fifo, 2);
        r.fill(0, 0);
        r.fill(0, 1);
        r.touch(0, 0); // should not save way 0
        assert_eq!(r.victim(0, |_| true), 0);
    }

    #[test]
    fn plru_victim_avoids_recent_path() {
        let mut r = one_set(ReplacementPolicy::TreePlru, 4);
        for way in 0..4 {
            r.fill(0, way);
        }
        r.touch(0, 3);
        let v = r.victim(0, |_| true);
        assert_ne!(v, 3, "just-touched way must not be the victim");
    }

    #[test]
    fn plru_single_way_degenerates() {
        let r = one_set(ReplacementPolicy::TreePlru, 1);
        assert_eq!(r.victim(0, |_| true), 0);
    }

    #[test]
    fn sets_are_independent() {
        let mut r = ReplacerTable::new(ReplacementPolicy::Lru, 2, 2);
        r.fill(0, 0);
        r.fill(0, 1);
        r.fill(1, 1);
        r.fill(1, 0);
        r.touch(0, 0);
        // Set 0's LRU is way 1; set 1's is way 1 (filled first there).
        assert_eq!(r.victim(0, |_| true), 1);
        assert_eq!(r.victim(1, |_| true), 1);
    }

    #[test]
    fn reset_restores_fresh_grant_order() {
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::Fifo,
        ] {
            let mut r = one_set(policy, 4);
            let fresh: Vec<usize> = (0..4)
                .map(|_| {
                    let v = r.victim(0, |_| true);
                    r.fill(0, v);
                    v
                })
                .collect();
            r.reset_sets(0..1);
            let replayed: Vec<usize> = (0..4)
                .map(|_| {
                    let v = r.victim(0, |_| true);
                    r.fill(0, v);
                    v
                })
                .collect();
            assert_eq!(fresh, replayed, "{policy:?}");
        }
    }

    #[test]
    fn all_policies_cover_all_ways_eventually() {
        // Filling W distinct new lines into a W-way set must evict every
        // way exactly once under any policy.
        for policy in [
            ReplacementPolicy::Lru,
            ReplacementPolicy::TreePlru,
            ReplacementPolicy::Fifo,
        ] {
            let ways = 4;
            let mut r = one_set(policy, ways);
            let mut valid = vec![false; ways];
            let mut seen = vec![false; ways];
            for _ in 0..ways {
                let v = r.victim(0, |w| valid[w]);
                assert!(!seen[v], "{policy:?} repeated victim {v}");
                seen[v] = true;
                valid[v] = true;
                r.fill(0, v);
            }
            assert!(seen.iter().all(|s| *s));
        }
    }
}
