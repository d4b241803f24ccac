//! The off-cluster DRAM model.
//!
//! Table I: one controller, 2 Gb, 4 KB pages, and three latency options —
//! 200 ns off-chip DDR3 \[18\], 63 ns on-chip Wide I/O \[17\], 42 ns optimised
//! 3-D DRAM \[16\]. At the paper's 1 GHz clock those are 200/63/42 cycles.
//!
//! Beyond the paper's fixed latency we model the 4 KB open page: hits to
//! the open row are cheaper, row conflicts slightly dearer, and the single
//! controller imposes a minimum command gap. A `fixed` constructor
//! disables both refinements to match the paper's flat-latency setup
//! exactly.
//!
//! The DRAM also stores the functional data tokens, making it the root of
//! the value hierarchy checked against the golden memory.

use crate::addr::{AddressMap, LineAddr};
use crate::linemap::LineMap;

/// Which of Table I's DRAM options is modelled.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DramKind {
    /// Off-chip 2-D DDR3, 200 ns.
    OffChipDdr3,
    /// On-chip 3-D Wide I/O (JEDEC JESD229), 63 ns.
    WideIo,
    /// On-chip 3-D DRAM after Weis et al., 42 ns.
    Weis3d,
}

impl DramKind {
    /// Access latency in cycles at the paper's 1 GHz clock.
    pub fn latency_cycles(self) -> u64 {
        match self {
            DramKind::OffChipDdr3 => 200,
            DramKind::WideIo => 63,
            DramKind::Weis3d => 42,
        }
    }

    /// All three options, in Table I order.
    pub fn all() -> [DramKind; 3] {
        [DramKind::OffChipDdr3, DramKind::WideIo, DramKind::Weis3d]
    }
}

impl std::fmt::Display for DramKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DramKind::OffChipDdr3 => write!(f, "off-chip DDR3 (200 ns)"),
            DramKind::WideIo => write!(f, "Wide I/O (63 ns)"),
            DramKind::Weis3d => write!(f, "3-D DRAM (42 ns)"),
        }
    }
}

/// Timing parameters of the controller.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct DramTiming {
    /// Baseline access latency in cycles.
    pub base_cycles: u64,
    /// Page (row) size in bytes; Table I: 4 KB.
    pub page_bytes: u64,
    /// Latency multiplier when the open row is hit.
    pub row_hit_factor: f64,
    /// Latency multiplier on a row conflict.
    pub row_miss_factor: f64,
    /// Minimum cycles between two command issues (controller occupancy).
    pub min_gap: u64,
}

impl DramTiming {
    /// The paper's flat-latency model: every access costs exactly
    /// `base_cycles`, back-to-back issue allowed.
    pub fn fixed(base_cycles: u64) -> Self {
        DramTiming {
            base_cycles,
            page_bytes: 4096,
            row_hit_factor: 1.0,
            row_miss_factor: 1.0,
            min_gap: 0,
        }
    }

    /// Open-page refinement: the `dram_open_page` axis of a plan
    /// (`mot3d open-page`, the second half of `mot3d fig8`).
    pub fn open_page(base_cycles: u64) -> Self {
        DramTiming {
            base_cycles,
            page_bytes: 4096,
            row_hit_factor: 0.7,
            row_miss_factor: 1.15,
            min_gap: 4,
        }
    }
}

/// The DRAM controller plus functional backing store.
///
/// # Examples
///
/// ```
/// use mot3d_mem::addr::{AddressMap, LineAddr};
/// use mot3d_mem::dram::{Dram, DramKind, DramTiming};
///
/// let map = AddressMap::date16();
/// let mut dram = Dram::new(DramTiming::fixed(DramKind::OffChipDdr3.latency_cycles()), map);
/// let done = dram.access(/*now=*/ 0, LineAddr(42), /*write=*/ false);
/// assert_eq!(done, 200);
/// ```
#[derive(Debug, Clone)]
pub struct Dram {
    timing: DramTiming,
    map: AddressMap,
    /// Functional backing store; flat open-addressed map keeps refill-path
    /// token reads off `HashMap`'s SipHash + bucket indirection.
    store: LineMap,
    open_row: Option<u64>,
    next_issue: u64,
    row_hits: u64,
}

impl Dram {
    /// Creates an empty DRAM (all lines read as 0 until written).
    pub fn new(timing: DramTiming, map: AddressMap) -> Self {
        Dram {
            timing,
            map,
            store: LineMap::new(),
            open_row: None,
            next_issue: 0,
            row_hits: 0,
        }
    }

    /// Issues an access at cycle `now`; returns the completion cycle.
    /// Timing only — use [`Dram::read_line`] / [`Dram::write_line`] for the
    /// functional side.
    pub fn access(&mut self, now: u64, line: LineAddr, _write: bool) -> u64 {
        let issue = now.max(self.next_issue);
        let row = line.byte_addr(&self.map) / self.timing.page_bytes;
        let factor = match self.open_row {
            Some(open) if open == row => {
                self.row_hits += 1;
                self.timing.row_hit_factor
            }
            Some(_) => self.timing.row_miss_factor,
            None => 1.0,
        };
        self.open_row = Some(row);
        self.next_issue = issue + self.timing.min_gap;
        if factor == 1.0 {
            // Flat latency (the paper's model, and every first access):
            // `round(base × 1.0)` is exactly `base` — skip the libm call.
            issue + self.timing.base_cycles
        } else {
            issue + (self.timing.base_cycles as f64 * factor).round() as u64
        }
    }

    /// Reads the functional token of a line (0 if never written).
    pub fn read_line(&self, line: LineAddr) -> u64 {
        self.store.get(line).unwrap_or(0)
    }

    /// Writes the functional token of a line.
    pub fn write_line(&mut self, line: LineAddr, data: u64) {
        self.store.insert(line, data);
    }

    /// Wake hint for event-driven callers: the controller's next free
    /// command-issue slot while it is still occupied (`min_gap` back
    /// pressure), or `None` when a command could issue immediately. The
    /// DRAM holds no self-scheduled work — completions are events the
    /// caller schedules from [`Dram::access`]'s return value — so this only
    /// matters to callers that poll for issue opportunities.
    pub fn next_activity(&self, now: u64) -> Option<u64> {
        (self.next_issue > now).then_some(self.next_issue)
    }

    /// Back to construction time under `timing`: clears the functional
    /// store (keeping its capacity), the open row, the controller
    /// occupancy, and all counters. Equivalent to
    /// [`Dram::new`]`(timing, map)` without the allocation.
    pub fn reset(&mut self, timing: DramTiming) {
        self.timing = timing;
        self.store.clear();
        self.open_row = None;
        self.next_issue = 0;
        self.row_hits = 0;
    }

    /// Row-buffer hits observed (0 in fixed mode only if accesses never
    /// repeat a row).
    pub fn row_hits(&self) -> u64 {
        self.row_hits
    }

    /// The row left open in the row buffer by the last access (`None`
    /// before any access). Under fixed (closed-page) timing the value
    /// still tracks the last-touched row but carries no latency benefit.
    pub fn open_row(&self) -> Option<u64> {
        self.open_row
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        AddressMap::date16()
    }

    #[test]
    fn kinds_match_table1() {
        assert_eq!(DramKind::OffChipDdr3.latency_cycles(), 200);
        assert_eq!(DramKind::WideIo.latency_cycles(), 63);
        assert_eq!(DramKind::Weis3d.latency_cycles(), 42);
    }

    #[test]
    fn fixed_timing_is_flat() {
        let mut d = Dram::new(DramTiming::fixed(63), map());
        // Alternate rows to provoke row misses: latency must stay flat.
        assert_eq!(d.access(0, LineAddr(0), false), 63);
        assert_eq!(d.access(10, LineAddr(4096 / 32), false), 73);
        assert_eq!(d.access(20, LineAddr(0), false), 83);
    }

    #[test]
    fn open_page_rewards_row_hits() {
        let mut d = Dram::new(DramTiming::open_page(200), map());
        let first = d.access(0, LineAddr(0), false); // row open: base
        let hit = d.access(300, LineAddr(1), false) - 300; // same 4 KB row
        let miss = d.access(600, LineAddr(4096 / 32), false) - 600; // new row
        assert_eq!(first, 200);
        assert!(hit < 200, "row hit {hit}");
        assert!(miss > 200, "row conflict {miss}");
        assert_eq!(d.row_hits(), 1);
    }

    #[test]
    fn controller_gap_serialises_bursts() {
        let mut d = Dram::new(DramTiming::open_page(100), map());
        let a = d.access(0, LineAddr(0), false);
        let b = d.access(0, LineAddr(1), false); // same cycle: must queue
        assert!(b > a - 100 + 4 - 1, "second issue respects min_gap");
        assert!(b >= a - 100 + 4);
    }

    #[test]
    fn functional_store_round_trips() {
        let mut d = Dram::new(DramTiming::fixed(42), map());
        assert_eq!(d.read_line(LineAddr(9)), 0);
        d.write_line(LineAddr(9), 77);
        assert_eq!(d.read_line(LineAddr(9)), 77);
    }

    #[test]
    fn display_names_the_option() {
        assert!(DramKind::WideIo.to_string().contains("63"));
    }
}
