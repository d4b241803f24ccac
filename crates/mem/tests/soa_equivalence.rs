//! Differential tests for the structure-of-arrays cache layout.
//!
//! `SetAssocCache` stores tags/flags/data/payloads in flat boxed slices
//! with replacement state in a flat table. These tests pin its observable
//! behaviour — hit/miss results, victim choice, eviction contents, and
//! every `CacheStats` counter — against an independently-written
//! array-of-structs reference model, over random operation sequences and
//! all three replacement policies. Any layout change that alters a single
//! decision shows up as a counter or victim mismatch.

use mot3d_mem::addr::LineAddr;
use mot3d_mem::cache::{CacheConfig, EvictedLine, ReplacementPolicy, SetAssocCache};
use proptest::prelude::*;

/// Reference model: one struct per line, recency/insertion kept as
/// explicit per-set order lists (LRU/FIFO) or a plain node tree (PLRU).
struct RefCache {
    config: CacheConfig,
    sets: Vec<RefSet>,
    stats: RefStats,
}

#[derive(Default, Clone, Copy, PartialEq, Eq, Debug)]
struct RefStats {
    read_hits: u64,
    read_misses: u64,
    write_hits: u64,
    write_misses: u64,
    fills: u64,
    writebacks: u64,
}

struct RefSet {
    lines: Vec<Option<RefLine>>, // per way
    /// Way indices, least-recently-used first (LRU) or oldest-fill first
    /// (FIFO). Unused for PLRU.
    order: Vec<usize>,
    /// PLRU decision bits, root-first (one per internal node).
    plru: Vec<bool>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct RefLine {
    addr: u64,
    dirty: bool,
    data: u64,
    payload: u32,
}

impl RefCache {
    fn new(config: CacheConfig) -> Self {
        let ways = config.associativity;
        RefCache {
            config,
            sets: (0..config.sets())
                .map(|_| RefSet {
                    lines: vec![None; ways],
                    order: Vec::new(),
                    plru: vec![false; ways.saturating_sub(1)],
                })
                .collect(),
            stats: RefStats::default(),
        }
    }

    fn set_of(&self, line: u64) -> usize {
        ((line >> self.config.index_shift) % self.sets.len() as u64) as usize
    }

    fn way_of(&self, set: usize, line: u64) -> Option<usize> {
        self.sets[set]
            .lines
            .iter()
            .position(|l| l.is_some_and(|l| l.addr == line))
    }

    fn touch(&mut self, set: usize, way: usize) {
        let ways = self.config.associativity;
        match self.config.policy {
            ReplacementPolicy::Lru => {
                let s = &mut self.sets[set];
                s.order.retain(|&w| w != way);
                s.order.push(way); // most recent last
            }
            ReplacementPolicy::Fifo => {} // hits do not reorder FIFO
            ReplacementPolicy::TreePlru => {
                // Point every node on the root→leaf path away from `way`.
                let (mut node, mut lo, mut hi) = (0usize, 0usize, ways);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let right = way >= mid;
                    self.sets[set].plru[node] = !right;
                    node = 2 * node + if right { 2 } else { 1 };
                    if right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
            }
        }
    }

    fn note_fill(&mut self, set: usize, way: usize) {
        match self.config.policy {
            ReplacementPolicy::Fifo => {
                let s = &mut self.sets[set];
                s.order.retain(|&w| w != way);
                s.order.push(way); // newest fill last
            }
            _ => self.touch(set, way),
        }
    }

    fn victim(&self, set: usize) -> usize {
        let ways = self.config.associativity;
        if let Some(free) = self.sets[set].lines.iter().position(|l| l.is_none()) {
            return free;
        }
        match self.config.policy {
            ReplacementPolicy::Lru | ReplacementPolicy::Fifo => self.sets[set].order[0],
            ReplacementPolicy::TreePlru => {
                let (mut node, mut lo, mut hi) = (0usize, 0usize, ways);
                while hi - lo > 1 {
                    let mid = (lo + hi) / 2;
                    let right = self.sets[set].plru[node];
                    node = 2 * node + if right { 2 } else { 1 };
                    if right {
                        lo = mid;
                    } else {
                        hi = mid;
                    }
                }
                lo
            }
        }
    }

    fn read(&mut self, line: u64) -> Option<u64> {
        let set = self.set_of(line);
        match self.way_of(set, line) {
            Some(way) => {
                self.touch(set, way);
                self.stats.read_hits += 1;
                Some(self.sets[set].lines[way].unwrap().data)
            }
            None => {
                self.stats.read_misses += 1;
                None
            }
        }
    }

    fn write(&mut self, line: u64, data: u64) -> bool {
        let set = self.set_of(line);
        match self.way_of(set, line) {
            Some(way) => {
                self.touch(set, way);
                self.stats.write_hits += 1;
                let l = self.sets[set].lines[way].as_mut().unwrap();
                l.data = data;
                l.dirty = true;
                true
            }
            None => {
                self.stats.write_misses += 1;
                false
            }
        }
    }

    fn fill(&mut self, line: u64, data: u64, dirty: bool) -> Option<(u64, u64, bool)> {
        let set = self.set_of(line);
        self.stats.fills += 1;
        if let Some(way) = self.way_of(set, line) {
            let l = self.sets[set].lines[way].as_mut().unwrap();
            l.data = data;
            l.dirty |= dirty;
            self.note_fill(set, way);
            return None;
        }
        let way = self.victim(set);
        let evicted = self.sets[set].lines[way].map(|l| (l.addr, l.data, l.dirty));
        if evicted.is_some_and(|(_, _, d)| d) {
            self.stats.writebacks += 1;
        }
        self.sets[set].lines[way] = Some(RefLine {
            addr: line,
            dirty,
            data,
            payload: 0,
        });
        self.note_fill(set, way);
        evicted
    }

    fn invalidate(&mut self, line: u64) -> Option<(u64, u64, bool)> {
        let set = self.set_of(line);
        let way = self.way_of(set, line)?;
        let l = self.sets[set].lines[way].take().unwrap();
        if l.dirty {
            self.stats.writebacks += 1;
        }
        // Dropping a way does not rewind LRU/FIFO order in the real cache
        // either: victim selection prefers free ways first.
        Some((l.addr, l.data, l.dirty))
    }
}

/// One driver operation.
#[derive(Debug, Clone, Copy)]
enum CacheOp {
    Read(u64),
    Write(u64, u64),
    Fill(u64, u64, bool),
    Invalidate(u64),
}

fn op_strategy(lines: u64) -> impl Strategy<Value = CacheOp> {
    prop_oneof![
        (0..lines).prop_map(CacheOp::Read),
        (0..lines, 1..u64::MAX).prop_map(|(l, v)| CacheOp::Write(l, v)),
        (0..lines, 1..u64::MAX, any::<bool>()).prop_map(|(l, v, d)| CacheOp::Fill(l, v, d)),
        (0..lines).prop_map(CacheOp::Invalidate),
    ]
}

fn ev_tuple(ev: &EvictedLine<u32>) -> (u64, u64, bool) {
    (ev.addr.0, ev.data, ev.dirty)
}

/// Lines the clear test draws from: four per set of [`clear_config`].
const CLEAR_LINES: u64 = 512;

/// The sets the sparse half of the clear test confines itself to: a run
/// of neighbours, both edges of a bitmap word, and the last set.
const FEW_SETS: [u64; 6] = [0, 1, 2, 63, 64, 127];

/// 128 sets × 2 ways: the touched-set bitmap spans two words, and four
/// candidate lines per set keep every set evicting.
fn clear_config(policy: ReplacementPolicy) -> CacheConfig {
    CacheConfig {
        capacity_bytes: 8 * 1024,
        line_bytes: 32,
        associativity: 2,
        policy,
        index_shift: 0,
    }
}

impl CacheOp {
    /// The same operation on a line that maps to one of `sets`.
    fn confined_to(self, sets: &[u64], config: CacheConfig) -> CacheOp {
        let n = sets.len() as u64;
        let confine = |l: u64| sets[(l % n) as usize] + config.sets() as u64 * (l / n % 4);
        match self {
            CacheOp::Read(l) => CacheOp::Read(confine(l)),
            CacheOp::Write(l, v) => CacheOp::Write(confine(l), v),
            CacheOp::Fill(l, v, d) => CacheOp::Fill(confine(l), v, d),
            CacheOp::Invalidate(l) => CacheOp::Invalidate(confine(l)),
        }
    }
}

/// Everything a caller can observe of one operation.
#[derive(Debug, PartialEq)]
enum Observed {
    Read(Option<u64>),
    Write(bool),
    Out(Option<(u64, u64, bool)>),
}

fn apply(cache: &mut SetAssocCache<u32>, op: CacheOp) -> Observed {
    match op {
        CacheOp::Read(l) => Observed::Read(cache.read(LineAddr(l))),
        CacheOp::Write(l, v) => Observed::Write(cache.write(LineAddr(l), v)),
        CacheOp::Fill(l, v, d) => {
            Observed::Out(cache.fill(LineAddr(l), v, d).map(|ev| ev_tuple(&ev)))
        }
        CacheOp::Invalidate(l) => {
            Observed::Out(cache.invalidate(LineAddr(l)).map(|ev| ev_tuple(&ev)))
        }
    }
}

fn check_against_reference(
    policy: ReplacementPolicy,
    ops: &[CacheOp],
) -> Result<(), TestCaseError> {
    let config = CacheConfig {
        policy,
        ..CacheConfig::l1_date16()
    };
    let mut soa: SetAssocCache<u32> = SetAssocCache::new(config).unwrap();
    let mut reference = RefCache::new(config);

    for &op in ops {
        match op {
            CacheOp::Read(l) => {
                prop_assert_eq!(soa.read(LineAddr(l)), reference.read(l), "read {}", l);
            }
            CacheOp::Write(l, v) => {
                prop_assert_eq!(soa.write(LineAddr(l), v), reference.write(l, v));
            }
            CacheOp::Fill(l, v, d) => {
                let got = soa.fill(LineAddr(l), v, d).map(|ev| ev_tuple(&ev));
                prop_assert_eq!(got, reference.fill(l, v, d), "fill {} victim", l);
            }
            CacheOp::Invalidate(l) => {
                let got = soa.invalidate(LineAddr(l)).map(|ev| ev_tuple(&ev));
                prop_assert_eq!(got, reference.invalidate(l));
            }
        }
    }

    let s = *soa.stats();
    let r = reference.stats;
    prop_assert_eq!(s.read_hits, r.read_hits);
    prop_assert_eq!(s.read_misses, r.read_misses);
    prop_assert_eq!(s.write_hits, r.write_hits);
    prop_assert_eq!(s.write_misses, r.write_misses);
    prop_assert_eq!(s.fills, r.fills);
    prop_assert_eq!(s.writebacks, r.writebacks);

    // Final resident population agrees line for line.
    let mut resident: Vec<u64> = soa.resident_addrs().map(|l| l.0).collect();
    resident.sort_unstable();
    let mut expect: Vec<u64> = reference
        .sets
        .iter()
        .flat_map(|s| s.lines.iter().flatten().map(|l| l.addr))
        .collect();
    expect.sort_unstable();
    prop_assert_eq!(resident, expect);
    Ok(())
}

proptest! {
    /// LRU: flat layout decisions match the ordered-list reference.
    #[test]
    fn lru_layout_matches_reference(ops in prop::collection::vec(op_strategy(256), 1..500)) {
        check_against_reference(ReplacementPolicy::Lru, &ops)?;
    }

    /// Tree-PLRU: flat bit table matches the per-node reference tree.
    #[test]
    fn plru_layout_matches_reference(ops in prop::collection::vec(op_strategy(256), 1..500)) {
        check_against_reference(ReplacementPolicy::TreePlru, &ops)?;
    }

    /// FIFO: flat stamps match the insertion-order reference.
    #[test]
    fn fifo_layout_matches_reference(ops in prop::collection::vec(op_strategy(256), 1..500)) {
        check_against_reference(ReplacementPolicy::Fifo, &ops)?;
    }

    /// `clear()` is indistinguishable from a fresh cache, whatever the
    /// cache did before it and however much of it that touched: a cache
    /// dirtied by one random sequence (with a `flush_invalidate_all` in
    /// it) and cleared answers a second, unrelated sequence exactly as a
    /// new cache does — hits, victims, evicted lines and stats — under
    /// every replacement policy, after touching a handful of sets and
    /// after touching all of them.
    #[test]
    fn cleared_cache_replays_identically(
        dirtying in prop::collection::vec(op_strategy(CLEAR_LINES), 1..300),
        flush_at in any::<usize>(),
        replay in prop::collection::vec(op_strategy(CLEAR_LINES), 1..300),
    ) {
        let policies =
            [ReplacementPolicy::Lru, ReplacementPolicy::TreePlru, ReplacementPolicy::Fifo];
        for policy in policies {
            for touch_all in [false, true] {
                let config = clear_config(policy);
                let mut reused: SetAssocCache<u32> = SetAssocCache::new(config).unwrap();
                if touch_all {
                    for set in 0..config.sets() as u64 {
                        reused.fill(LineAddr(set), 1, true);
                    }
                }
                for (i, &op) in dirtying.iter().enumerate() {
                    if i == flush_at % dirtying.len() {
                        reused.flush_invalidate_all();
                    }
                    let op = if touch_all { op } else { op.confined_to(&FEW_SETS, config) };
                    apply(&mut reused, op);
                }
                reused.clear();

                // Not just equivalent: the very same state, replacement
                // stamps and touched-set marks included (`Debug` prints
                // every array).
                let mut fresh: SetAssocCache<u32> = SetAssocCache::new(config).unwrap();
                prop_assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
                for &op in &replay {
                    prop_assert_eq!(
                        apply(&mut reused, op),
                        apply(&mut fresh, op),
                        "{:?} after clear, {:?}, touch_all={}",
                        op,
                        policy,
                        touch_all
                    );
                }
                prop_assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
            }
        }
    }
}
