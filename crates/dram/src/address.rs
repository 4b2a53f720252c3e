//! The NDP data address space.
//!
//! NDP systems allocate large contiguous (physical) address ranges and
//! interleave them coarsely so that each unit's working set sits in its
//! local bank (Section II-B; the UPMEM SDK's transposition procedure).
//! We model that directly: unit `u` owns the byte range
//! `[u * bank_bytes, (u+1) * bank_bytes)`.
//!
//! Load balancing operates at *block* granularity (`G_xfer` bytes,
//! 256 by default), so addresses also map to [`BlockAddr`]s.

use std::fmt;

use crate::geometry::{Geometry, UnitId};

/// A byte address in the global NDP data space.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct DataAddr(pub u64);

impl fmt::Display for DataAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "0x{:x}", self.0)
    }
}

/// A block index: `addr / G_xfer`. Blocks are the granularity of data
/// migration, the `isLent` bitmap, the `dataBorrowed` tables and the
/// hot-data sketch.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct BlockAddr(pub u64);

impl fmt::Display for BlockAddr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "b{}", self.0)
    }
}

/// Maps data addresses to home units, blocks and bank rows.
///
/// # Example
///
/// ```
/// use ndpb_dram::{AddressMap, Geometry, UnitId};
/// let g = Geometry::table1();
/// let m = AddressMap::new(&g, 256, 1024);
/// let a = m.addr_in_unit(UnitId(3), 100);
/// assert_eq!(m.home_unit(a), UnitId(3));
/// assert_eq!(m.block_home(m.block_of(a)), UnitId(3));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AddressMap {
    bank_bytes: u64,
    block_bytes: u32,
    row_bytes: u32,
    total_units: u32,
    /// `log2` of each divisor when it is a power of two (the case for
    /// every evaluated configuration). Address math runs on the
    /// per-event hot path — block lookups on every task route/deliver,
    /// row lookups on every DRAM access — where a 64-bit hardware
    /// divide costs an order of magnitude more than a shift, so the
    /// divisions are strength-reduced at construction. Shift and divide
    /// are bit-identical for power-of-two divisors: results do not
    /// depend on which path runs.
    bank_shift: Option<u32>,
    block_shift: Option<u32>,
    row_shift: Option<u32>,
}

/// `x / d`, as a shift when `shift` caches `log2(d)`.
#[inline(always)]
fn div_p2(x: u64, d: u64, shift: Option<u32>) -> u64 {
    match shift {
        Some(s) => x >> s,
        None => x / d,
    }
}

/// `x % d`, as a mask when `shift` caches `log2(d)`.
#[inline(always)]
fn rem_p2(x: u64, d: u64, shift: Option<u32>) -> u64 {
    match shift {
        Some(s) => x & ((1u64 << s) - 1),
        None => x % d,
    }
}

/// `log2(d)` if `d` is a power of two.
#[inline]
fn p2_shift(d: u64) -> Option<u32> {
    d.is_power_of_two().then(|| d.trailing_zeros())
}

impl AddressMap {
    /// Creates a map for `geometry` with migration blocks of
    /// `block_bytes` (`G_xfer`) and DRAM rows of `row_bytes` per bank.
    ///
    /// # Panics
    ///
    /// Panics if `block_bytes` or `row_bytes` is zero, or if `block_bytes`
    /// does not divide the bank size.
    pub fn new(geometry: &Geometry, block_bytes: u32, row_bytes: u32) -> Self {
        assert!(block_bytes > 0 && row_bytes > 0);
        assert_eq!(
            geometry.bank_bytes % block_bytes as u64,
            0,
            "block size must divide bank size"
        );
        AddressMap {
            bank_bytes: geometry.bank_bytes,
            block_bytes,
            row_bytes,
            total_units: geometry.total_units(),
            bank_shift: p2_shift(geometry.bank_bytes),
            block_shift: p2_shift(block_bytes as u64),
            row_shift: p2_shift(row_bytes as u64),
        }
    }

    /// The migration block size `G_xfer` in bytes.
    pub fn block_bytes(&self) -> u32 {
        self.block_bytes
    }

    /// Bytes of DRAM owned by each unit.
    pub fn bank_bytes(&self) -> u64 {
        self.bank_bytes
    }

    /// The home unit of an address (where the data originally resides).
    ///
    /// # Panics
    ///
    /// Panics if the address is beyond the last unit's range.
    pub fn home_unit(&self, addr: DataAddr) -> UnitId {
        let unit = div_p2(addr.0, self.bank_bytes, self.bank_shift) as u32;
        assert!(unit < self.total_units, "address {addr} beyond data space");
        UnitId(unit)
    }

    /// The block containing an address.
    #[inline]
    pub fn block_of(&self, addr: DataAddr) -> BlockAddr {
        BlockAddr(div_p2(addr.0, self.block_bytes as u64, self.block_shift))
    }

    /// First byte address of a block.
    pub fn block_base(&self, block: BlockAddr) -> DataAddr {
        DataAddr(block.0 * self.block_bytes as u64)
    }

    /// The home unit of a block.
    pub fn block_home(&self, block: BlockAddr) -> UnitId {
        self.home_unit(self.block_base(block))
    }

    /// Builds the address of byte `offset` within `unit`'s bank.
    ///
    /// # Panics
    ///
    /// Panics if `offset` is outside the bank.
    pub fn addr_in_unit(&self, unit: UnitId, offset: u64) -> DataAddr {
        assert!(offset < self.bank_bytes, "offset beyond bank");
        DataAddr(unit.0 as u64 * self.bank_bytes + offset)
    }

    /// The DRAM row (within its bank) an address falls in; used by the
    /// bank model for open-row hit/miss decisions.
    #[inline]
    pub fn row_of(&self, addr: DataAddr) -> u64 {
        div_p2(
            rem_p2(addr.0, self.bank_bytes, self.bank_shift),
            self.row_bytes as u64,
            self.row_shift,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn map() -> AddressMap {
        AddressMap::new(&Geometry::table1(), 256, 1024)
    }

    #[test]
    fn home_unit_partitioning() {
        let m = map();
        assert_eq!(m.home_unit(DataAddr(0)), UnitId(0));
        assert_eq!(m.home_unit(DataAddr((64 << 20) - 1)), UnitId(0));
        assert_eq!(m.home_unit(DataAddr(64 << 20)), UnitId(1));
    }

    #[test]
    fn block_round_trips() {
        let m = map();
        let a = DataAddr(1000);
        let b = m.block_of(a);
        assert_eq!(b, BlockAddr(3));
        assert_eq!(m.block_base(b), DataAddr(768));
        assert_eq!(m.block_home(b), UnitId(0));
    }

    #[test]
    fn addr_in_unit_and_back() {
        let m = map();
        for u in [0u32, 5, 511] {
            let a = m.addr_in_unit(UnitId(u), 12345);
            assert_eq!(m.home_unit(a), UnitId(u));
        }
    }

    #[test]
    fn rows_are_local_to_bank() {
        let m = map();
        // Offset 0 and offset row_bytes are different rows.
        let a0 = m.addr_in_unit(UnitId(2), 0);
        let a1 = m.addr_in_unit(UnitId(2), 1024);
        assert_eq!(m.row_of(a0), 0);
        assert_eq!(m.row_of(a1), 1);
        // Same offset in another bank has the same row index.
        let b0 = m.addr_in_unit(UnitId(3), 0);
        assert_eq!(m.row_of(b0), 0);
    }

    #[test]
    #[should_panic(expected = "beyond data space")]
    fn out_of_space_panics() {
        let m = map();
        m.home_unit(DataAddr(512 * (64 << 20)));
    }

    #[test]
    #[should_panic(expected = "offset beyond bank")]
    fn bad_offset_panics() {
        map().addr_in_unit(UnitId(0), 64 << 20);
    }
}
