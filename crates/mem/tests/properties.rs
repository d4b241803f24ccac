//! Property-based tests for the memory substrate.
//!
//! The central invariant: a write-back cache in front of a backing store
//! never loses or reorders architectural stores — any load and the final
//! flushed state must agree with the flat golden memory.

use mot3d_mem::addr::LineAddr;
use mot3d_mem::bus::{MissBus, Transfer};
use mot3d_mem::cache::{CacheConfig, SetAssocCache};
use mot3d_mem::golden::GoldenMemory;
use proptest::prelude::*;

/// One architectural operation on a small address space.
#[derive(Debug, Clone, Copy)]
enum Op {
    Read(u64),
    Write(u64, u64),
}

fn op_strategy(lines: u64) -> impl Strategy<Value = Op> {
    prop_oneof![
        (0..lines).prop_map(Op::Read),
        (0..lines, 1..u64::MAX).prop_map(|(l, v)| Op::Write(l, v)),
    ]
}

/// Runs a write-back, write-allocate cache over a backing store, checking
/// every load against the golden memory, then flushes and checks the final
/// backing state.
fn check_cache_against_golden(ops: &[Op]) -> Result<(), TestCaseError> {
    let mut cache: SetAssocCache<()> = SetAssocCache::new(CacheConfig::l1_date16()).unwrap();
    let mut backing = GoldenMemory::new(); // plays the next level
    let mut golden = GoldenMemory::new(); // plays the oracle

    for &op in ops {
        match op {
            Op::Read(l) => {
                let line = LineAddr(l);
                let got = match cache.read(line) {
                    Some(v) => v,
                    None => {
                        let v = backing.read(line);
                        if let Some(ev) = cache.fill(line, v, false) {
                            if ev.dirty {
                                backing.write(ev.addr, ev.data);
                            }
                        }
                        v
                    }
                };
                prop_assert_eq!(got, golden.read(line), "load mismatch at line {}", l);
            }
            Op::Write(l, v) => {
                let line = LineAddr(l);
                golden.write(line, v);
                if !cache.write(line, v) {
                    // Write-allocate: fetch, then write.
                    let old = backing.read(line);
                    if let Some(ev) = cache.fill(line, old, false) {
                        if ev.dirty {
                            backing.write(ev.addr, ev.data);
                        }
                    }
                    prop_assert!(cache.write(line, v));
                }
            }
        }
    }

    let lines: Vec<_> = cache.resident_addrs().collect();
    for ev in lines.into_iter().filter_map(|line| cache.invalidate(line)) {
        if ev.dirty {
            backing.write(ev.addr, ev.data);
        }
    }
    for (line, want) in golden.iter() {
        prop_assert_eq!(
            backing.read(line),
            want,
            "final state mismatch at {:?}",
            line
        );
    }
    Ok(())
}

proptest! {
    /// LRU write-back cache is transparent wrt the golden memory.
    #[test]
    fn lru_cache_matches_golden(ops in prop::collection::vec(op_strategy(512), 1..400)) {
        check_cache_against_golden(&ops)?;
    }

    /// Residency never exceeds capacity, and every resident address is
    /// unique.
    #[test]
    fn residency_bounded_and_unique(ops in prop::collection::vec(op_strategy(4096), 1..500)) {
        let cfg = CacheConfig::l1_date16();
        let capacity_lines = cfg.capacity_bytes / cfg.line_bytes;
        let mut cache: SetAssocCache<()> = SetAssocCache::new(cfg).unwrap();
        for &op in &ops {
            let line = match op { Op::Read(l) | Op::Write(l, _) => LineAddr(l) };
            if cache.read(line).is_none() {
                cache.fill(line, 0, false);
            }
            prop_assert!(cache.resident_lines() <= capacity_lines);
        }
        let mut addrs: Vec<_> = cache.resident_addrs().collect();
        let n = addrs.len();
        addrs.sort();
        addrs.dedup();
        prop_assert_eq!(addrs.len(), n, "duplicate resident lines");
    }

    /// The miss bus delivers every enqueued transfer exactly once, in
    /// round-robin order across requesters, with no starvation: any
    /// transfer completes within (queued-ahead-in-own-queue + other
    /// requesters' backlog at one-each-per-round) grants.
    #[test]
    fn miss_bus_delivers_everything_fairly(
        counts in prop::collection::vec(0usize..8, 2..6),
        occupancy in 1u64..6,
    ) {
        let n = counts.len();
        let mut bus = MissBus::new(n, occupancy);
        let mut expected = 0u64;
        for (r, &c) in counts.iter().enumerate() {
            for k in 0..c {
                bus.enqueue(Transfer { requester: r, tag: (r * 100 + k) as u64 });
                expected += 1;
            }
        }
        let mut seen = Vec::new();
        let horizon = (expected + 2) * occupancy + 2;
        for now in 0..horizon {
            if let Some(t) = bus.tick(now) {
                seen.push(t);
            }
        }
        prop_assert_eq!(seen.len() as u64, expected, "lost or duplicated transfers");
        prop_assert!(bus.is_idle());
        // Per-requester FIFO order.
        for r in 0..n {
            let tags: Vec<u64> = seen.iter().filter(|t| t.requester == r).map(|t| t.tag).collect();
            let mut sorted = tags.clone();
            sorted.sort();
            prop_assert_eq!(tags, sorted, "requester {} reordered", r);
        }
    }
}
