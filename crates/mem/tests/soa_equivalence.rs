//! Differential tests for the structure-of-arrays cache layout.
//!
//! `SetAssocCache` stores tags/flags/data/payloads in flat boxed slices
//! with LRU state in a flat table. These tests pin its observable
//! behaviour — hit/miss results, victim choice, eviction contents and the
//! final resident lines — against an independently-written
//! array-of-structs reference model over random operation sequences. Any
//! layout change that alters a single decision shows up as a result or
//! victim mismatch.

use mot3d_mem::addr::LineAddr;
use mot3d_mem::cache::{CacheConfig, EvictedLine, SetAssocCache};
use proptest::prelude::*;

/// Reference model: one struct per line, recency kept as an explicit
/// per-set order list.
struct RefCache {
    config: CacheConfig,
    sets: Vec<RefSet>,
}

struct RefSet {
    lines: Vec<Option<RefLine>>, // per way
    /// Way indices, least-recently-used first.
    order: Vec<usize>,
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
                })
                .collect(),
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
        let s = &mut self.sets[set];
        s.order.retain(|&w| w != way);
        s.order.push(way); // most recent last
    }

    fn victim(&self, set: usize) -> usize {
        if let Some(free) = self.sets[set].lines.iter().position(|l| l.is_none()) {
            return free;
        }
        self.sets[set].order[0]
    }

    fn read(&mut self, line: u64) -> Option<u64> {
        let set = self.set_of(line);
        let way = self.way_of(set, line)?;
        self.touch(set, way);
        Some(self.sets[set].lines[way].unwrap().data)
    }

    fn write(&mut self, line: u64, data: u64) -> bool {
        let set = self.set_of(line);
        let Some(way) = self.way_of(set, line) else {
            return false;
        };
        self.touch(set, way);
        let l = self.sets[set].lines[way].as_mut().unwrap();
        l.data = data;
        l.dirty = true;
        true
    }

    fn fill(&mut self, line: u64, data: u64, dirty: bool) -> Option<(u64, u64, bool)> {
        let set = self.set_of(line);
        if let Some(way) = self.way_of(set, line) {
            let l = self.sets[set].lines[way].as_mut().unwrap();
            l.data = data;
            l.dirty |= dirty;
            self.touch(set, way);
            return None;
        }
        let way = self.victim(set);
        let evicted = self.sets[set].lines[way].map(|l| (l.addr, l.data, l.dirty));
        self.sets[set].lines[way] = Some(RefLine {
            addr: line,
            dirty,
            data,
            payload: 0,
        });
        self.touch(set, way);
        evicted
    }

    fn invalidate(&mut self, line: u64) -> Option<(u64, u64, bool)> {
        let set = self.set_of(line);
        let way = self.way_of(set, line)?;
        let l = self.sets[set].lines[way].take().unwrap();
        // Dropping a way does not rewind LRU order in the real cache
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
fn clear_config() -> CacheConfig {
    CacheConfig {
        capacity_bytes: 8 * 1024,
        line_bytes: 32,
        associativity: 2,
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

fn check_against_reference(ops: &[CacheOp]) -> Result<(), TestCaseError> {
    let config = CacheConfig::l1_date16();
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
        check_against_reference(&ops)?;
    }

    /// `clear()` is indistinguishable from a fresh cache, whatever the
    /// cache did before it and however much of it that touched: a cache
    /// dirtied by one random sequence (with every line invalidated at one
    /// point in it) and cleared answers a second, unrelated sequence
    /// exactly as a new cache does — hits, victims and evicted lines —
    /// after touching a handful of sets and after touching all of them.
    #[test]
    fn cleared_cache_replays_identically(
        dirtying in prop::collection::vec(op_strategy(CLEAR_LINES), 1..300),
        flush_at in any::<usize>(),
        replay in prop::collection::vec(op_strategy(CLEAR_LINES), 1..300),
    ) {
        let config = clear_config();
        for touch_all in [false, true] {
            let mut reused: SetAssocCache<u32> = SetAssocCache::new(config).unwrap();
            if touch_all {
                for set in 0..config.sets() as u64 {
                    reused.fill(LineAddr(set), 1, true);
                }
            }
            for (i, &op) in dirtying.iter().enumerate() {
                if i == flush_at % dirtying.len() {
                    let lines: Vec<_> = reused.resident_addrs().collect();
                    for line in lines {
                        reused.invalidate(line);
                    }
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
                    "{:?} after clear, touch_all={}",
                    op,
                    touch_all
                );
            }
            prop_assert_eq!(format!("{reused:?}"), format!("{fresh:?}"));
        }
    }
}
