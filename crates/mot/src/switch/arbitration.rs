//! Arbitration switches (Fig. 2(c)).
//!
//! Each L2 bank is reached through a binary arbitration tree that merges
//! requests from all cores. A 2-input arbitration switch grants one of its
//! two upstream ports per cycle; "a round-robin algorithm is implemented
//! for a starvation-free arbitration" (§II). The tree composes these
//! 2-input cells; [`ArbitrationTree`] provides the whole-tree view used by
//! the network model (grant one requester per bank per cycle, rotating
//! fairly).

/// A 2-input round-robin arbiter cell.
///
/// # Examples
///
/// ```
/// use mot3d_mot::switch::Arbiter2;
///
/// let mut arb = Arbiter2::new();
/// // Both request: grants alternate.
/// let first = arb.grant(true, true).unwrap();
/// let second = arb.grant(true, true).unwrap();
/// assert_ne!(first, second);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Arbiter2 {
    /// Port granted last (loses the next tie).
    last: bool,
}

impl Arbiter2 {
    /// A fresh arbiter; port 0 wins the first tie.
    pub fn new() -> Self {
        Arbiter2 { last: true }
    }

    /// One arbitration round: `req0`/`req1` are the request lines; returns
    /// the granted port index, or `None` if nobody requests.
    pub fn grant(&mut self, req0: bool, req1: bool) -> Option<usize> {
        let winner = match (req0, req1) {
            (false, false) => return None,
            (true, false) => false,
            (false, true) => true,
            // Tie: the port that lost last time wins (round robin).
            (true, true) => !self.last,
        };
        self.last = winner;
        Some(winner as usize)
    }
}

/// A whole arbitration tree for one bank: grants one of `n` requesters per
/// round, starvation-free, by composing [`Arbiter2`] cells bottom-up.
#[derive(Debug, Clone)]
pub struct ArbitrationTree {
    cells: Vec<Arbiter2>,
    inputs: usize,
}

impl ArbitrationTree {
    /// Builds a tree over `inputs` requesters.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is not a non-zero power of two (MoT arbitration
    /// trees are full binary trees).
    pub fn new(inputs: usize) -> Self {
        assert!(
            inputs.is_power_of_two() && inputs > 0,
            "arbitration tree needs a power-of-two input count, got {inputs}"
        );
        ArbitrationTree {
            cells: vec![Arbiter2::new(); inputs.saturating_sub(1)],
            inputs,
        }
    }

    /// Restores every cell's round-robin state to construction time, so a
    /// reset tree grants in exactly the same order as a fresh one.
    pub fn reset(&mut self) {
        self.cells.fill(Arbiter2::new());
    }

    /// One arbitration round over the request bitmap; returns the granted
    /// requester index, or `None` if no line is asserted.
    ///
    /// Only the cells on the granted path update their round-robin state
    /// (grant-path update). Updating every cell each round would make all
    /// cells flip in lockstep under saturation and starve the middle
    /// requesters — the classic tree-arbiter pitfall.
    ///
    /// # Panics
    ///
    /// Panics if `requests.len() != inputs`.
    pub fn grant(&mut self, requests: &[bool]) -> Option<usize> {
        assert_eq!(
            requests.len(),
            self.inputs,
            "request bitmap must have {} entries",
            self.inputs
        );
        if self.inputs == 1 {
            return requests[0].then_some(0);
        }
        if !requests.iter().any(|&r| r) {
            return None;
        }
        // Cells form an implicit heap over the leaves: cell 0 is the root,
        // cell i's children are 2i+1 and 2i+2; the subtree of a cell at
        // depth d covers inputs [lo, lo + inputs >> d).
        let mut cell = 0usize;
        let mut lo = 0usize;
        let mut span = self.inputs;
        while span > 1 {
            let half = span / 2;
            let left = requests[lo..lo + half].iter().any(|&r| r);
            let right = requests[lo + half..lo + span].iter().any(|&r| r);
            #[expect(
                clippy::expect_used,
                reason = "descent only enters subtrees holding a requester"
            )]
            let side = self.cells[cell]
                .grant(left, right)
                .expect("subtree has a requester by construction");
            if side == 1 {
                lo += half;
            }
            cell = 2 * cell + 1 + side;
            span = half;
        }
        Some(lo)
    }

    /// [`ArbitrationTree::grant`] over a request *bitmask* (bit `i` ⇔
    /// requester `i` asserted), for trees of up to 32 inputs. Identical
    /// grants and identical cell-state updates — subtree occupancy is one
    /// mask test instead of a slice scan, which is what the interconnect's
    /// per-cycle grant loop wants.
    ///
    /// # Panics
    ///
    /// Panics if the tree has more than 32 inputs.
    pub fn grant_mask(&mut self, requests: u32) -> Option<usize> {
        assert!(self.inputs <= 32, "grant_mask serves trees of ≤ 32 inputs");
        if self.inputs == 1 {
            return (requests & 1 != 0).then_some(0);
        }
        if requests == 0 {
            return None;
        }
        let mut cell = 0usize;
        let mut lo = 0usize;
        let mut span = self.inputs;
        while span > 1 {
            let half = span / 2;
            let half_mask = (1u32 << half) - 1;
            let left = requests & (half_mask << lo) != 0;
            let right = requests & (half_mask << (lo + half)) != 0;
            #[expect(
                clippy::expect_used,
                reason = "descent only enters subtrees holding a requester"
            )]
            let side = self.cells[cell]
                .grant(left, right)
                .expect("subtree has a requester by construction");
            if side == 1 {
                lo += half;
            }
            cell = 2 * cell + 1 + side;
            span = half;
        }
        Some(lo)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lone_requester_always_wins() {
        let mut arb = Arbiter2::new();
        for _ in 0..5 {
            assert_eq!(arb.grant(true, false), Some(0));
            assert_eq!(arb.grant(false, true), Some(1));
        }
    }

    #[test]
    fn no_request_no_grant() {
        let mut arb = Arbiter2::new();
        assert_eq!(arb.grant(false, false), None);
        let mut tree = ArbitrationTree::new(8);
        assert_eq!(tree.grant(&[false; 8]), None);
    }

    #[test]
    fn saturated_pair_alternates() {
        let mut arb = Arbiter2::new();
        let seq: Vec<usize> = (0..6).map(|_| arb.grant(true, true).unwrap()).collect();
        assert_eq!(seq, vec![0, 1, 0, 1, 0, 1]);
    }

    #[test]
    fn tree_grants_everyone_under_saturation() {
        // 8 requesters all asserting: within 8 rounds each must win at
        // least once (starvation freedom).
        let mut tree = ArbitrationTree::new(8);
        let mut wins = [0u32; 8];
        for _ in 0..8 {
            let g = tree.grant(&[true; 8]).unwrap();
            wins[g] += 1;
        }
        assert!(
            wins.iter().all(|&w| w >= 1),
            "someone starved in 8 rounds: {wins:?}"
        );
    }

    #[test]
    fn tree_of_one_is_passthrough() {
        let mut tree = ArbitrationTree::new(1);
        assert_eq!(tree.grant(&[true]), Some(0));
        assert_eq!(tree.grant(&[false]), None);
    }

    #[test]
    #[should_panic(expected = "power-of-two")]
    fn rejects_non_power_of_two_inputs() {
        ArbitrationTree::new(6);
    }

    #[test]
    #[should_panic(expected = "entries")]
    fn rejects_wrong_bitmap_size() {
        let mut tree = ArbitrationTree::new(4);
        tree.grant(&[true; 3]);
    }

    #[test]
    fn mask_grant_matches_slice_grant() {
        // Same request patterns through both entry points must produce
        // identical grant sequences (and identical cell-state evolution).
        for inputs in [1usize, 2, 4, 8, 16, 32] {
            let mut by_slice = ArbitrationTree::new(inputs);
            let mut by_mask = ArbitrationTree::new(inputs);
            let mut pattern: u32 = 0x9E37_79B9;
            for round in 0..64 {
                let mask = if inputs == 32 {
                    pattern
                } else {
                    pattern & ((1u32 << inputs) - 1)
                };
                let slice: Vec<bool> = (0..inputs).map(|i| mask & (1 << i) != 0).collect();
                assert_eq!(
                    by_slice.grant(&slice),
                    by_mask.grant_mask(mask),
                    "inputs {inputs} round {round} mask {mask:#x}"
                );
                pattern = pattern.rotate_left(5) ^ round;
            }
        }
    }

    #[test]
    fn sparse_requests_route_to_the_requester() {
        let mut tree = ArbitrationTree::new(16);
        for only in [0usize, 5, 11, 15] {
            let mut req = [false; 16];
            req[only] = true;
            assert_eq!(tree.grant(&req), Some(only));
        }
    }
}
