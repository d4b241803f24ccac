//! Golden functional-memory oracle.
//!
//! A flat map from line address to data token, updated instantly on every
//! architectural store. Tests compare the cache hierarchy's observable
//! state (loads, final flushed contents) against this oracle — in
//! particular across the paper's runtime bank power-gating, whose dirty
//! writeback sequence must never lose a store.

use crate::addr::LineAddr;
use crate::linemap::LineMap;

/// The oracle memory.
///
/// # Examples
///
/// ```
/// use mot3d_mem::addr::LineAddr;
/// use mot3d_mem::golden::GoldenMemory;
///
/// let mut golden = GoldenMemory::new();
/// golden.write(LineAddr(3), 99);
/// assert_eq!(golden.read(LineAddr(3)), 99);
/// assert_eq!(golden.read(LineAddr(4)), 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct GoldenMemory {
    store: LineMap,
}

impl GoldenMemory {
    /// Creates an empty oracle (every line reads 0).
    pub fn new() -> Self {
        GoldenMemory::default()
    }

    /// The architecturally-correct token of a line.
    pub fn read(&self, line: LineAddr) -> u64 {
        self.store.get(line).unwrap_or(0)
    }

    /// Records an architectural store.
    pub fn write(&mut self, line: LineAddr, data: u64) {
        self.store.insert(line, data);
    }

    /// Forgets every write, so that every line reads 0 again, and keeps
    /// the capacity the writes grew.
    pub fn clear(&mut self) {
        self.store.clear();
    }

    /// Iterates over all written lines and their tokens.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, u64)> + '_ {
        self.store.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unwritten_lines_read_zero() {
        let g = GoldenMemory::new();
        assert_eq!(g.read(LineAddr(123)), 0);
        assert_eq!(g.iter().count(), 0);
    }

    #[test]
    fn last_write_wins() {
        let mut g = GoldenMemory::new();
        g.write(LineAddr(1), 10);
        g.write(LineAddr(1), 20);
        assert_eq!(g.read(LineAddr(1)), 20);
        assert_eq!(g.iter().count(), 1);
    }

    #[test]
    fn clear_forgets_every_write() {
        let mut g = GoldenMemory::new();
        g.write(LineAddr(1), 10);
        g.clear();
        assert_eq!(g.read(LineAddr(1)), 0);
        assert_eq!(g.iter().count(), 0);
    }

    #[test]
    fn iter_covers_all_writes() {
        let mut g = GoldenMemory::new();
        g.write(LineAddr(1), 10);
        g.write(LineAddr(2), 20);
        let mut seen: Vec<_> = g.iter().collect();
        seen.sort();
        assert_eq!(seen, vec![(LineAddr(1), 10), (LineAddr(2), 20)]);
    }
}
