//! MSI directory state kept per L2 line.
//!
//! The paper's cluster has private L1 caches over a shared banked L2;
//! Graphite (the reference simulator) keeps them coherent with a directory
//! protocol. Each L2 line carries a [`Directory`] payload: a sharer bitmap
//! plus an optional exclusive owner. The protocol *logic* (who to
//! invalidate, when to recall dirty data) is driven by the cluster
//! simulator; this type only encapsulates the state transitions so their
//! invariants are testable in isolation.

/// Directory entry for one L2 line: which cores' L1s hold it and how.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct Directory {
    sharers: u32,
    owner: Option<u8>,
}

impl Directory {
    /// The core holding the line in Modified state, if any.
    pub fn owner(&self) -> Option<usize> {
        self.owner.map(|o| o as usize)
    }

    /// Cores holding the line in Shared state.
    pub fn sharers(&self) -> impl Iterator<Item = usize> + '_ {
        (0..32).filter(|i| self.sharers & (1 << i) != 0)
    }

    /// Whether `core` holds the line (shared or owned).
    pub fn holds(&self, core: usize) -> bool {
        self.sharers & (1 << core) != 0 || self.owner == Some(core as u8)
    }

    /// Records a read by `core`: the line becomes shared by it.
    ///
    /// # Panics
    ///
    /// Panics if the line currently has a different exclusive owner — the
    /// caller must recall the owner's dirty copy first (protocol bug
    /// otherwise).
    pub fn add_sharer(&mut self, core: usize) {
        assert!(
            self.owner.is_none() || self.owner == Some(core as u8),
            "add_sharer({core}) while owned by {:?}: recall first",
            self.owner
        );
        if self.owner == Some(core as u8) {
            self.owner = None;
        }
        self.sharers |= 1 << core;
    }

    /// Records an exclusive (write) grant to `core`, appending the cores
    /// whose copies must be invalidated to `victims` — the simulator's
    /// store path passes a reused scratch vector.
    ///
    /// # Panics
    ///
    /// Panics if the line has a different exclusive owner — recall first.
    pub fn grant_exclusive_into(&mut self, core: usize, victims: &mut Vec<usize>) {
        assert!(
            self.owner.is_none() || self.owner == Some(core as u8),
            "grant_exclusive_into({core}) while owned by {:?}: recall first",
            self.owner
        );
        victims.extend(self.sharers().filter(|&c| c != core));
        self.sharers = 0;
        self.owner = Some(core as u8);
    }

    /// Records that the exclusive owner wrote its copy back (downgrade to
    /// shared if `keep_shared`, else drop entirely).
    pub fn owner_writeback(&mut self, keep_shared: bool) {
        if let Some(owner) = self.owner.take() {
            if keep_shared {
                self.sharers |= 1 << owner;
            }
        }
    }

    /// Removes `core` from the entry (L1 eviction or invalidation ack).
    pub fn drop_core(&mut self, core: usize) {
        self.sharers &= !(1 << core);
        if self.owner == Some(core as u8) {
            self.owner = None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_uncached() {
        let d = Directory::default();
        assert_eq!(d.sharers().count(), 0);
        assert_eq!(d.owner(), None);
    }

    #[test]
    fn readers_accumulate() {
        let mut d = Directory::default();
        d.add_sharer(0);
        d.add_sharer(5);
        d.add_sharer(15);
        assert_eq!(d.sharers().count(), 3);
        assert!(d.holds(5));
        assert!(!d.holds(1));
        assert_eq!(d.sharers().collect::<Vec<_>>(), vec![0, 5, 15]);
    }

    #[test]
    fn exclusive_grant_lists_victims() {
        let mut d = Directory::default();
        d.add_sharer(1);
        d.add_sharer(2);
        d.add_sharer(3);
        let mut victims = Vec::new();
        d.grant_exclusive_into(2, &mut victims);
        assert_eq!(victims, vec![1, 3]);
        assert_eq!(d.owner(), Some(2));
        assert_eq!(d.sharers().count(), 0);
    }

    #[test]
    fn owner_writeback_can_keep_shared_copy() {
        let mut d = Directory::default();
        d.grant_exclusive_into(4, &mut Vec::new());
        d.owner_writeback(true);
        assert_eq!(d.owner(), None);
        assert!(d.holds(4));
        let mut d2 = Directory::default();
        d2.grant_exclusive_into(4, &mut Vec::new());
        d2.owner_writeback(false);
        assert_eq!(d2, Directory::default());
    }

    #[test]
    fn owner_rereading_keeps_single_copy() {
        let mut d = Directory::default();
        d.grant_exclusive_into(7, &mut Vec::new());
        d.add_sharer(7); // owner downgrades itself via a read
        assert_eq!(d.owner(), None);
        assert!(d.holds(7));
        assert_eq!(d.sharers().count(), 1);
    }

    #[test]
    #[should_panic(expected = "recall first")]
    fn reading_an_owned_line_without_recall_is_a_protocol_bug() {
        let mut d = Directory::default();
        d.grant_exclusive_into(1, &mut Vec::new());
        d.add_sharer(2);
    }

    #[test]
    fn drop_core_clears_both_roles() {
        let mut d = Directory::default();
        d.add_sharer(3);
        d.drop_core(3);
        assert_eq!(d, Directory::default());
        d.grant_exclusive_into(6, &mut Vec::new());
        d.drop_core(6);
        assert_eq!(d, Directory::default());
    }
}
