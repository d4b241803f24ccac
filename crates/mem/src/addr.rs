//! Physical-address decomposition.
//!
//! The cluster uses byte addresses (`u64`). Caches operate on 32 B lines
//! (Table I); the shared L2 interleaves *lines* across banks, so
//! consecutive lines hit consecutive banks — the layout that makes the
//! paper's bank-index-bit folding work (Fig. 4: ignoring an index bit
//! merges two banks' address streams).

/// A cache-line address: the byte address with the offset bits stripped.
///
/// Newtype so line and byte addresses cannot be mixed up.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct LineAddr(pub u64);

impl LineAddr {
    /// The first byte covered by this line under the given mapping.
    pub fn byte_addr(self, map: &AddressMap) -> u64 {
        self.0 << map.offset_bits()
    }
}

/// Address-to-structure mapping parameters shared by the whole hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AddressMap {
    /// Cache-line size in bytes (power of two).
    pub line_bytes: usize,
    /// Number of L2 banks lines are interleaved over (power of two).
    pub banks: usize,
}

impl AddressMap {
    /// The paper's mapping: 32 B lines interleaved over 32 banks.
    pub fn date16() -> Self {
        AddressMap {
            line_bytes: 32,
            banks: 32,
        }
    }

    /// Number of byte-offset bits inside a line.
    #[inline]
    pub fn offset_bits(&self) -> u32 {
        self.line_bytes.trailing_zeros()
    }

    /// The line containing a byte address.
    #[inline]
    pub fn line_of(&self, byte_addr: u64) -> LineAddr {
        LineAddr(byte_addr >> self.offset_bits())
    }

    /// The *home* bank index of a line (before any power-gating remap —
    /// the remap is the interconnect's job, per the paper's design).
    #[inline]
    pub fn home_bank(&self, line: LineAddr) -> usize {
        (line.0 & (self.banks as u64 - 1)) as usize
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn date16_layout() {
        let m = AddressMap::date16();
        assert_eq!(m.offset_bits(), 5);
    }

    #[test]
    fn line_of_strips_offset() {
        let m = AddressMap::date16();
        assert_eq!(m.line_of(0), LineAddr(0));
        assert_eq!(m.line_of(31), LineAddr(0));
        assert_eq!(m.line_of(32), LineAddr(1));
        assert_eq!(m.line_of(0x1000), LineAddr(0x80));
    }

    #[test]
    fn consecutive_lines_interleave_over_banks() {
        let m = AddressMap::date16();
        for i in 0..64u64 {
            assert_eq!(m.home_bank(LineAddr(i)), (i % 32) as usize);
        }
    }

    #[test]
    fn byte_addr_round_trip() {
        let m = AddressMap::date16();
        let line = m.line_of(0xdead_bee0);
        assert_eq!(m.line_of(line.byte_addr(&m)), line);
    }
}
