//! Set-associative cache core.
//!
//! One generic implementation serves both levels of the paper's hierarchy:
//! the private L1 I/D caches (4 KB, 32 B lines, 4-way, LRU — Table I) and
//! each 64 KB, 8-way L2 bank. The cache is generic over a per-line payload
//! `P`, which the L2 uses to attach MSI directory state.
//!
//! Tags store the full line address, so lines folded onto a bank by the
//! power-gating remap (whose *home* bank index differs in the ignored
//! bits, Fig. 4) coexist without aliasing — exactly the paper's "cache
//! data ... will evenly be distributed \[to\] the rest of cache banks" with
//! no change to the cache architecture.
//!
//! Data is modelled as one `u64` token per line (a version stamp written
//! by stores), which is what the golden-memory oracle checks end to end —
//! including across the dirty-flush sequence of a runtime power-state
//! switch.

mod replacement;

use replacement::ReplacerTable;

use crate::addr::LineAddr;
use std::error::Error;
use std::fmt;

/// Cache geometry (replacement is always LRU, Table I).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheConfig {
    /// Total capacity in bytes.
    pub capacity_bytes: usize,
    /// Line size in bytes.
    pub line_bytes: usize,
    /// Ways per set.
    pub associativity: usize,
    /// How many low line-address bits to skip when forming the set index
    /// (L2 banks skip their bank-index bits; L1 uses 0).
    pub index_shift: u32,
}

impl CacheConfig {
    /// Table I private L1: 4 KB, 32 B lines, 4-way, LRU.
    pub fn l1_date16() -> Self {
        CacheConfig {
            capacity_bytes: 4 * 1024,
            line_bytes: 32,
            associativity: 4,
            index_shift: 0,
        }
    }

    /// Table I L2 bank: 64 KB, 32 B lines, 8-way; set index skips the five
    /// bank-interleaving bits.
    pub fn l2_bank_date16() -> Self {
        CacheConfig {
            capacity_bytes: 64 * 1024,
            line_bytes: 32,
            associativity: 8,
            index_shift: 5,
        }
    }

    /// Number of sets.
    pub fn sets(&self) -> usize {
        self.capacity_bytes / (self.line_bytes * self.associativity)
    }

    /// Validates the geometry.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] when fields are zero, non-power-of-two
    /// where required, or inconsistent.
    pub fn validate(&self) -> Result<(), CacheConfigError> {
        if self.line_bytes == 0 || !self.line_bytes.is_power_of_two() {
            return Err(CacheConfigError::NotPowerOfTwo(
                "line_bytes",
                self.line_bytes,
            ));
        }
        if self.associativity == 0 {
            return Err(CacheConfigError::Zero("associativity"));
        }
        let set_bytes = self.line_bytes * self.associativity;
        if self.capacity_bytes == 0 || self.capacity_bytes % set_bytes != 0 {
            return Err(CacheConfigError::CapacityNotDivisible {
                capacity: self.capacity_bytes,
                set_bytes,
            });
        }
        if !self.sets().is_power_of_two() {
            return Err(CacheConfigError::NotPowerOfTwo("sets", self.sets()));
        }
        Ok(())
    }
}

/// Errors from invalid [`CacheConfig`]s.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CacheConfigError {
    /// A field that must be a power of two is not.
    NotPowerOfTwo(&'static str, usize),
    /// A field that must be positive is zero.
    Zero(&'static str),
    /// Capacity does not divide into whole sets.
    CapacityNotDivisible {
        /// The requested capacity.
        capacity: usize,
        /// Bytes per set.
        set_bytes: usize,
    },
}

impl fmt::Display for CacheConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CacheConfigError::NotPowerOfTwo(field, v) => {
                write!(f, "{field} must be a power of two, got {v}")
            }
            CacheConfigError::Zero(field) => write!(f, "{field} must be non-zero"),
            CacheConfigError::CapacityNotDivisible {
                capacity,
                set_bytes,
            } => write!(
                f,
                "capacity {capacity} B does not divide into {set_bytes} B sets"
            ),
        }
    }
}

impl Error for CacheConfigError {}

/// A line evicted, invalidated, or flushed out of the cache.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct EvictedLine<P> {
    /// The line's address.
    pub addr: LineAddr,
    /// The line's data token.
    pub data: u64,
    /// Whether it was dirty (needs writing to the next level).
    pub dirty: bool,
    /// The per-line payload (directory state for L2).
    pub payload: P,
}

/// Way-slot flag bit: the slot holds a line.
const FLAG_VALID: u8 = 1 << 0;
/// Way-slot flag bit: the line has been written since fill.
const FLAG_DIRTY: u8 = 1 << 1;

/// A resolved `(set, way)` slot of a resident line.
///
/// The hot transaction paths resolve a line's slot once with
/// [`SetAssocCache::find`] (or get it back from
/// [`SetAssocCache::fill_slot`]) and then use the `*_at` accessors,
/// instead of paying the associative tag scan again for every
/// `payload`/`read`/`write` on the same line.
///
/// A handle is a plain coordinate, not a lock: it stays valid only while
/// the line stays resident. Any intervening `fill`/`invalidate`/`clear`
/// on the same cache may repurpose the slot, after which the handle must
/// be re-resolved (the `*_at` accessors `debug_assert` validity).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SlotHandle {
    set: u32,
    way: u32,
}

/// A set-associative cache with per-line payloads.
///
/// ## Layout
///
/// Structure-of-arrays: tags, flags (valid/dirty bits), data tokens, and
/// payloads each live in one flat boxed slice indexed by
/// `set * ways + way`, with replacement state in a matching flat
/// `ReplacerTable`. A lookup therefore scans `ways` adjacent tag words
/// of a single allocation (one or two cache lines) instead of chasing
/// per-set `Vec`s, and no operation on the access path — including
/// victim selection — allocates.
///
/// ## Reuse
///
/// A line only ever becomes valid through a fill, so the cache marks
/// every set that receives one in a fixed bitmap (one bit per set,
/// sized at construction) and [`SetAssocCache::clear`] restores exactly
/// the marked sets. Clearing therefore costs what the run touched, not
/// what the cache holds: a sweep of short runs resets a 64 KB bank in
/// the time of the few sets each run filled.
///
/// # Examples
///
/// ```
/// use mot3d_mem::addr::LineAddr;
/// use mot3d_mem::cache::{CacheConfig, SetAssocCache};
///
/// let mut l1: SetAssocCache<()> = SetAssocCache::new(CacheConfig::l1_date16())?;
/// assert_eq!(l1.read(LineAddr(7)), None); // cold miss
/// l1.fill(LineAddr(7), 42, false);
/// assert_eq!(l1.read(LineAddr(7)), Some(42));
/// # Ok::<(), mot3d_mem::cache::CacheConfigError>(())
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocCache<P> {
    config: CacheConfig,
    /// `sets() - 1`; sets are a power of two, so this masks the index.
    set_mask: u64,
    ways: usize,
    /// Tag (full line address) per way slot, set-major.
    tags: Box<[u64]>,
    /// Valid/dirty bits per way slot, set-major.
    flags: Box<[u8]>,
    /// Data token per way slot, set-major.
    data: Box<[u64]>,
    /// Per-line payload (directory state for L2), set-major.
    payloads: Box<[P]>,
    replacer: ReplacerTable,
    /// Bit `set % 64` of word `set / 64` is set iff `set` received a fill
    /// since construction or the last [`SetAssocCache::clear`]. Every
    /// other set is still in its construction-time state: only a fill
    /// validates a line, and replacement state moves only on accesses to
    /// valid lines.
    touched: Box<[u64]>,
}

impl<P: Default + Clone> SetAssocCache<P> {
    /// Builds an empty cache.
    ///
    /// # Errors
    ///
    /// Returns [`CacheConfigError`] if the configuration is invalid.
    pub fn new(config: CacheConfig) -> Result<Self, CacheConfigError> {
        config.validate()?;
        let sets = config.sets();
        let ways = config.associativity;
        let slots = sets * ways;
        Ok(SetAssocCache {
            config,
            set_mask: sets as u64 - 1,
            ways,
            tags: vec![0; slots].into_boxed_slice(),
            flags: vec![0; slots].into_boxed_slice(),
            data: vec![0; slots].into_boxed_slice(),
            payloads: (0..slots)
                .map(|_| P::default())
                .collect::<Vec<_>>()
                .into_boxed_slice(),
            replacer: ReplacerTable::new(sets, ways),
            touched: vec![0; sets.div_ceil(64)].into_boxed_slice(),
        })
    }

    /// The cache's configuration.
    pub fn config(&self) -> &CacheConfig {
        &self.config
    }

    #[inline]
    fn set_index(&self, line: LineAddr) -> usize {
        ((line.0 >> self.config.index_shift) & self.set_mask) as usize
    }

    /// Index of `set`'s first way slot in the flat arrays.
    #[inline]
    fn base(&self, set: usize) -> usize {
        set * self.ways
    }

    /// The flat slot holding `line` in `set`, if resident.
    #[inline]
    fn find_slot(&self, set: usize, line: LineAddr) -> Option<usize> {
        let base = self.base(set);
        (base..base + self.ways)
            .find(|&s| self.flags[s] & FLAG_VALID != 0 && self.tags[s] == line.0)
    }

    /// Reads a line: on hit, touches LRU state and returns the data token.
    pub fn read(&mut self, line: LineAddr) -> Option<u64> {
        let set = self.set_index(line);
        let slot = self.find_slot(set, line)?;
        self.replacer.touch(set, slot - self.base(set));
        Some(self.data[slot])
    }

    /// Writes a line in place: on hit, stores the token, sets dirty, and
    /// returns `true`. On miss returns `false` (write-allocate is the
    /// caller's job via [`SetAssocCache::fill`]).
    pub fn write(&mut self, line: LineAddr, data: u64) -> bool {
        let set = self.set_index(line);
        let Some(slot) = self.find_slot(set, line) else {
            return false;
        };
        self.replacer.touch(set, slot - self.base(set));
        self.data[slot] = data;
        self.flags[slot] |= FLAG_DIRTY;
        true
    }

    /// Inserts a line (after a miss was serviced below), evicting a victim
    /// if the set is full. Returns the evicted line, if any.
    ///
    /// If the line is already present it is overwritten in place (no
    /// eviction).
    pub fn fill(&mut self, line: LineAddr, data: u64, dirty: bool) -> Option<EvictedLine<P>> {
        self.fill_slot(line, data, dirty).1
    }

    /// [`SetAssocCache::fill`] that also hands back the filled line's
    /// [`SlotHandle`], so refill paths can keep accessing the line
    /// without re-probing the tags.
    pub fn fill_slot(
        &mut self,
        line: LineAddr,
        data: u64,
        dirty: bool,
    ) -> (SlotHandle, Option<EvictedLine<P>>) {
        let set = self.set_index(line);
        self.touched[set / 64] |= 1 << (set % 64);
        if let Some(slot) = self.find_slot(set, line) {
            self.data[slot] = data;
            if dirty {
                self.flags[slot] |= FLAG_DIRTY;
            }
            let way = slot - self.base(set);
            self.replacer.touch(set, way);
            return (
                SlotHandle {
                    set: set as u32,
                    way: way as u32,
                },
                None,
            );
        }
        let base = self.base(set);
        let valid = &self.flags[base..base + self.ways];
        let way = self.replacer.victim(set, |w| valid[w] & FLAG_VALID != 0);
        let slot = base + way;
        let evicted = (self.flags[slot] & FLAG_VALID != 0).then(|| EvictedLine {
            addr: LineAddr(self.tags[slot]),
            data: self.data[slot],
            dirty: self.flags[slot] & FLAG_DIRTY != 0,
            payload: std::mem::take(&mut self.payloads[slot]),
        });
        self.tags[slot] = line.0;
        self.flags[slot] = FLAG_VALID | if dirty { FLAG_DIRTY } else { 0 };
        self.data[slot] = data;
        self.payloads[slot] = P::default();
        self.replacer.touch(set, way);
        (
            SlotHandle {
                set: set as u32,
                way: way as u32,
            },
            evicted,
        )
    }

    /// Resolves a resident line to its [`SlotHandle`] without touching
    /// replacement state (like [`SetAssocCache::peek`], this is not an
    /// access — the handle-taking accessors do the per-access
    /// bookkeeping).
    #[inline]
    pub fn find(&self, line: LineAddr) -> Option<SlotHandle> {
        let set = self.set_index(line);
        self.find_slot(set, line).map(|slot| SlotHandle {
            set: set as u32,
            way: (slot - self.base(set)) as u32,
        })
    }

    /// Flat array index of a handle's slot.
    #[inline]
    fn slot_of(&self, h: SlotHandle) -> usize {
        debug_assert!(
            self.flags[h.set as usize * self.ways + h.way as usize] & FLAG_VALID != 0,
            "stale SlotHandle: slot no longer holds a valid line"
        );
        h.set as usize * self.ways + h.way as usize
    }

    /// Reads through a resolved handle: touches LRU state and returns the
    /// data token — identical side effects to a hitting
    /// [`SetAssocCache::read`].
    #[inline]
    pub fn read_at(&mut self, h: SlotHandle) -> u64 {
        let slot = self.slot_of(h);
        self.replacer.touch(h.set as usize, h.way as usize);
        self.data[slot]
    }

    /// Writes through a resolved handle: touches LRU state, stores the
    /// token, sets dirty — identical side effects to a hitting
    /// [`SetAssocCache::write`].
    #[inline]
    pub fn write_at(&mut self, h: SlotHandle, data: u64) {
        let slot = self.slot_of(h);
        self.replacer.touch(h.set as usize, h.way as usize);
        self.data[slot] = data;
        self.flags[slot] |= FLAG_DIRTY;
    }

    /// Shared payload access through a resolved handle.
    #[inline]
    pub fn payload_at(&self, h: SlotHandle) -> &P {
        let slot = self.slot_of(h);
        &self.payloads[slot]
    }

    /// Mutable payload access through a resolved handle.
    #[inline]
    pub fn payload_at_mut(&mut self, h: SlotHandle) -> &mut P {
        let slot = self.slot_of(h);
        &mut self.payloads[slot]
    }

    /// Looks at a line without touching replacement state.
    pub fn peek(&self, line: LineAddr) -> Option<(u64, bool)> {
        let set = self.set_index(line);
        self.find_slot(set, line)
            .map(|slot| (self.data[slot], self.flags[slot] & FLAG_DIRTY != 0))
    }

    /// Mutable access to a resident line's payload (directory state).
    pub fn payload_mut(&mut self, line: LineAddr) -> Option<&mut P> {
        let set = self.set_index(line);
        let slot = self.find_slot(set, line)?;
        Some(&mut self.payloads[slot])
    }

    /// Shared access to a resident line's payload.
    pub fn payload(&self, line: LineAddr) -> Option<&P> {
        let set = self.set_index(line);
        let slot = self.find_slot(set, line)?;
        Some(&self.payloads[slot])
    }

    /// Removes a line if present, returning it (dirty lines must be
    /// written back by the caller).
    pub fn invalidate(&mut self, line: LineAddr) -> Option<EvictedLine<P>> {
        let set = self.set_index(line);
        let slot = self.find_slot(set, line)?;
        let dirty = self.flags[slot] & FLAG_DIRTY != 0;
        self.flags[slot] = 0;
        Some(EvictedLine {
            addr: LineAddr(self.tags[slot]),
            data: self.data[slot],
            dirty,
            payload: std::mem::take(&mut self.payloads[slot]),
        })
    }

    /// Empties the cache and resets replacement state to construction
    /// time, without reallocating the line arrays. A cleared
    /// cache behaves bit-identically to a freshly built one.
    ///
    /// Only the sets filled since the last clear are rewritten (see the
    /// type-level "Reuse" notes), so the cost follows the work the cache
    /// did, from a few stores after a short run to one pass over the
    /// arrays after a run that used every set.
    pub fn clear(&mut self) {
        for (word, touched) in self.touched.iter_mut().enumerate() {
            let mut bits = std::mem::take(touched);
            // One run of adjacent touched sets at a time: a cache that
            // used every set clears in one fill per array and word.
            while bits != 0 {
                let first = bits.trailing_zeros() as usize;
                let len = (bits >> first).trailing_ones() as usize;
                // The carry of `+ lowest bit` ripples through the run.
                bits &= bits.wrapping_add(1 << first);
                let sets = word * 64 + first..word * 64 + first + len;
                let slots = sets.start * self.ways..sets.end * self.ways;
                self.tags[slots.clone()].fill(0);
                self.flags[slots.clone()].fill(0);
                self.data[slots.clone()].fill(0);
                self.payloads[slots].fill_with(P::default);
                self.replacer.reset_sets(sets);
            }
        }
    }

    /// Number of resident lines.
    pub fn resident_lines(&self) -> usize {
        self.flags.iter().filter(|f| **f & FLAG_VALID != 0).count()
    }

    /// Iterates over resident line addresses.
    pub fn resident_addrs(&self) -> impl Iterator<Item = LineAddr> + '_ {
        self.flags
            .iter()
            .zip(self.tags.iter())
            .filter(|(f, _)| **f & FLAG_VALID != 0)
            .map(|(_, t)| LineAddr(*t))
    }
}

// `P: Default` is required by `std::mem::take`; payloads are plain data.

#[cfg(test)]
mod tests {
    use super::*;

    fn l1() -> SetAssocCache<()> {
        SetAssocCache::new(CacheConfig::l1_date16()).unwrap()
    }

    #[test]
    fn table1_geometries() {
        assert_eq!(CacheConfig::l1_date16().sets(), 32);
        assert_eq!(CacheConfig::l2_bank_date16().sets(), 256);
    }

    #[test]
    fn cold_miss_then_hit() {
        let mut c = l1();
        assert_eq!(c.read(LineAddr(100)), None);
        c.fill(LineAddr(100), 5, false);
        assert_eq!(c.read(LineAddr(100)), Some(5));
    }

    #[test]
    fn write_hit_marks_dirty() {
        let mut c = l1();
        c.fill(LineAddr(3), 1, false);
        assert!(c.write(LineAddr(3), 9));
        assert_eq!(c.peek(LineAddr(3)), Some((9, true)));
    }

    #[test]
    fn write_miss_does_not_allocate() {
        let mut c = l1();
        assert!(!c.write(LineAddr(3), 9));
        assert_eq!(c.peek(LineAddr(3)), None);
    }

    #[test]
    fn conflict_eviction_is_lru() {
        let mut c = l1();
        let sets = c.config().sets() as u64;
        // 5 lines in the same set of a 4-way cache: the first fill is
        // evicted.
        let lines: Vec<LineAddr> = (0..5).map(|i| LineAddr(7 + i * sets)).collect();
        for (i, &line) in lines.iter().take(4).enumerate() {
            c.fill(line, i as u64, false);
        }
        let evicted = c.fill(lines[4], 99, false).expect("set overflow evicts");
        assert_eq!(evicted.addr, lines[0]);
        assert!(!evicted.dirty);
    }

    #[test]
    fn dirty_eviction_reports_writeback() {
        let mut c = l1();
        let sets = c.config().sets() as u64;
        let lines: Vec<LineAddr> = (0..5).map(|i| LineAddr(2 + i * sets)).collect();
        c.fill(lines[0], 0, false);
        c.write(lines[0], 42);
        for (i, &line) in lines.iter().enumerate().skip(1).take(3) {
            c.fill(line, i as u64, false);
        }
        let evicted = c.fill(lines[4], 99, false).unwrap();
        assert_eq!(evicted.addr, lines[0]);
        assert!(evicted.dirty);
        assert_eq!(evicted.data, 42);
    }

    #[test]
    fn touch_on_read_protects_from_eviction() {
        let mut c = l1();
        let sets = c.config().sets() as u64;
        let lines: Vec<LineAddr> = (0..5).map(|i| LineAddr(1 + i * sets)).collect();
        for &line in lines.iter().take(4) {
            c.fill(line, 0, false);
        }
        c.read(lines[0]); // most recently used now
        let evicted = c.fill(lines[4], 0, false).unwrap();
        assert_eq!(evicted.addr, lines[1]);
    }

    #[test]
    fn refill_existing_line_updates_in_place() {
        let mut c = l1();
        c.fill(LineAddr(8), 1, false);
        assert!(c.fill(LineAddr(8), 2, true).is_none());
        assert_eq!(c.peek(LineAddr(8)), Some((2, true)));
    }

    #[test]
    fn invalidate_returns_line_once() {
        let mut c = l1();
        c.fill(LineAddr(5), 3, false);
        c.write(LineAddr(5), 4);
        let inv = c.invalidate(LineAddr(5)).unwrap();
        assert!(inv.dirty);
        assert_eq!(inv.data, 4);
        assert!(c.invalidate(LineAddr(5)).is_none());
        assert_eq!(c.read(LineAddr(5)), None);
    }

    #[test]
    fn flush_empties_and_reports_dirty() {
        let mut c = l1();
        c.fill(LineAddr(1), 10, false);
        c.fill(LineAddr(2), 20, false);
        c.write(LineAddr(2), 21);
        let lines: Vec<_> = c.resident_addrs().collect();
        let flushed: Vec<_> = lines.into_iter().filter_map(|l| c.invalidate(l)).collect();
        assert_eq!(flushed.len(), 2);
        let dirty: Vec<_> = flushed.iter().filter(|e| e.dirty).collect();
        assert_eq!(dirty.len(), 1);
        assert_eq!(dirty[0].addr, LineAddr(2));
        assert_eq!(c.resident_lines(), 0);
    }

    #[test]
    fn index_shift_separates_l2_sets() {
        // Two lines differing only in bank bits map to the same set of an
        // L2 bank (they'd live in different banks normally; under the
        // power-gating fold they coexist via distinct full tags).
        let mut c: SetAssocCache<()> = SetAssocCache::new(CacheConfig::l2_bank_date16()).unwrap();
        let a = LineAddr(0b00000); // home bank 0
        let b = LineAddr(0b00010); // home bank 2
        c.fill(a, 1, false);
        c.fill(b, 2, false);
        assert_eq!(c.read(a), Some(1));
        assert_eq!(c.read(b), Some(2));
    }

    #[test]
    fn rejects_bad_configs() {
        let mut bad = CacheConfig::l1_date16();
        bad.capacity_bytes = 5000;
        assert!(SetAssocCache::<()>::new(bad).is_err());
        let mut bad2 = CacheConfig::l1_date16();
        bad2.line_bytes = 24;
        assert!(matches!(
            SetAssocCache::<()>::new(bad2),
            Err(CacheConfigError::NotPowerOfTwo("line_bytes", 24))
        ));
    }

    #[test]
    fn handle_ops_match_line_ops_side_effects() {
        // Drive one cache through line ops and a twin through handle
        // ops: returned tokens, dirty bits, and LRU victim choice must
        // agree.
        let mut by_line = l1();
        let mut by_handle = l1();
        let sets = by_line.config().sets() as u64;
        let lines: Vec<LineAddr> = (0..4).map(|i| LineAddr(9 + i * sets)).collect();
        for (i, &line) in lines.iter().enumerate() {
            by_line.fill(line, i as u64, false);
            let (h, ev) = by_handle.fill_slot(line, i as u64, false);
            assert!(ev.is_none());
            assert_eq!(by_handle.find(line), Some(h));
        }
        assert_eq!(by_line.read(lines[0]), Some(0));
        let h0 = by_handle.find(lines[0]).unwrap();
        assert_eq!(by_handle.read_at(h0), 0);
        assert!(by_line.write(lines[1], 77));
        let h1 = by_handle.find(lines[1]).unwrap();
        by_handle.write_at(h1, 77);
        for &line in &lines {
            assert_eq!(by_line.peek(line), by_handle.peek(line));
        }
        assert_eq!(by_handle.peek(lines[1]), Some((77, true)));
        // Same victim on the next conflict fill, and the same lines left.
        let newcomer = LineAddr(9 + 4 * sets);
        let ev_line = by_line.fill(newcomer, 5, false);
        let (_, ev_handle) = by_handle.fill_slot(newcomer, 5, false);
        assert!(ev_line.is_some());
        assert_eq!(ev_line, ev_handle);
        assert!(by_line.resident_addrs().eq(by_handle.resident_addrs()));
    }

    #[test]
    fn fill_slot_handle_points_at_the_line() {
        let mut c: SetAssocCache<u8> = SetAssocCache::new(CacheConfig::l2_bank_date16()).unwrap();
        let line = LineAddr(0x1234);
        let (h, _) = c.fill_slot(line, 11, false);
        assert_eq!(c.find(line), Some(h));
        assert_eq!(c.peek(line), Some((11, false)));
        *c.payload_at_mut(h) = 42;
        assert_eq!(c.payload(line), Some(&42));
        assert_eq!(c.payload_at(h), &42);
        // Refilling an already-resident line returns the same slot.
        let (h2, ev) = c.fill_slot(line, 12, true);
        assert_eq!(h2, h);
        assert!(ev.is_none());
        assert_eq!(c.peek(line), Some((12, true)));
    }

    #[test]
    fn find_does_not_touch_stats_or_lru() {
        let mut c = l1();
        let sets = c.config().sets() as u64;
        let lines: Vec<LineAddr> = (0..5).map(|i| LineAddr(3 + i * sets)).collect();
        for &line in lines.iter().take(4) {
            c.fill(line, 0, false);
        }
        assert!(c.find(lines[0]).is_some());
        assert!(c.find(LineAddr(0xdead_0000)).is_none());
        // lines[0] was only `find`-ed, not touched: still the LRU victim.
        let ev = c.fill(lines[4], 0, false).unwrap();
        assert_eq!(ev.addr, lines[0]);
    }
}
