//! DRAM system geometry: channels, ranks, chips, banks and NDP unit IDs.
//!
//! The paper's default configuration (Table I) is 2 channels × 4 ranks ×
//! 8 chips × 8 banks = 512 banks, one NDP unit per bank. Figure 15 varies
//! the chip DQ width (x4/x8/x16) while keeping the 64-bit channel, and
//! Figure 12 varies the rank count from 1 to 16.

use std::fmt;

/// Identifies one NDP unit (equivalently, one DRAM bank) globally.
///
/// Units are numbered bank-major within a chip, chip-major within a rank,
/// rank-major within a channel: unit `0` is channel 0 / rank 0 / chip 0 /
/// bank 0.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct UnitId(pub u32);

impl UnitId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for UnitId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "u{}", self.0)
    }
}

/// Identifies one rank globally (and therefore one level-1 bridge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RankId(pub u32);

impl RankId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for RankId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "r{}", self.0)
    }
}

/// Identifies one DDR channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId(pub u32);

impl ChannelId {
    /// The raw index.
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ChannelId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "ch{}", self.0)
    }
}

/// The position of a unit inside the DRAM hierarchy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct UnitPosition {
    /// Channel the unit's rank is attached to.
    pub channel: ChannelId,
    /// Global rank index.
    pub rank: RankId,
    /// Chip within the rank.
    pub chip: u32,
    /// Bank within the chip. Banks at the same position across the chips
    /// of a rank are gathered/scattered by one bridge command in parallel
    /// (Section V-B).
    pub bank: u32,
}

/// `(x / d, x % d)` with the divide strength-reduced to shifts when `d`
/// is a power of two — which every evaluated geometry's per-rank and
/// per-chip unit counts are. Unit→rank/chip/bank decomposition runs on
/// the per-message hot path, where the hardware divide is the dominant
/// cost; the power-of-two test itself is two cheap ALU ops. Shift and
/// divide agree exactly, so callers see identical values either way.
#[inline(always)]
fn divmod_p2(x: u32, d: u32) -> (u32, u32) {
    if d.is_power_of_two() {
        (x >> d.trailing_zeros(), x & (d - 1))
    } else {
        (x / d, x % d)
    }
}

/// Static description of the DRAM hierarchy.
///
/// # Example
///
/// ```
/// use ndpb_dram::Geometry;
/// let g = Geometry::table1();
/// assert_eq!(g.total_units(), 512);
/// assert_eq!(g.units_per_rank(), 64);
/// assert_eq!(g.channel_dq_bits(), 64);
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Geometry {
    /// Number of DDR channels.
    pub channels: u32,
    /// Ranks per channel.
    pub ranks_per_channel: u32,
    /// DRAM chips per rank.
    pub chips_per_rank: u32,
    /// Banks per chip (= NDP units per chip).
    pub banks_per_chip: u32,
    /// DQ pins per chip (x4/x8/x16).
    pub dq_bits_per_chip: u32,
    /// DQ pins per chip multiplexed away for C/A dispatch in the
    /// split-DIMM-buffer (*chameleon-s*) variant, Section V-A. Zero for
    /// the default unified-buffer design; the paper evaluates 2 (of 8).
    pub dq_ca_bits_per_chip: u32,
    /// DRAM capacity per bank in bytes (64 MB following UPMEM).
    pub bank_bytes: u64,
}

impl Geometry {
    /// The paper's default configuration (Table I): 2 channels × 4 ranks ×
    /// 8 chips × 8 banks of 64 MB, x8 chips, unified buffer.
    pub fn table1() -> Self {
        Geometry {
            channels: 2,
            ranks_per_channel: 4,
            chips_per_rank: 8,
            banks_per_chip: 8,
            dq_bits_per_chip: 8,
            dq_ca_bits_per_chip: 0,
            bank_bytes: 64 << 20,
        }
    }

    /// A geometry with `ranks` total ranks (Figure 12 scalability sweep:
    /// 1..16 ranks = 64..1024 units). Ranks are spread over the paper's
    /// two channels where divisible, else a single channel.
    pub fn with_total_ranks(ranks: u32) -> Self {
        assert!(ranks > 0, "need at least one rank");
        let (channels, ranks_per_channel) = if ranks.is_multiple_of(2) {
            (2, ranks / 2)
        } else {
            (1, ranks)
        };
        Geometry {
            channels,
            ranks_per_channel,
            ..Geometry::table1()
        }
    }

    /// A geometry with a different chip DQ width (Figure 15), keeping the
    /// 64-bit channel: x4 → 16 chips/rank, x8 → 8, x16 → 4.
    ///
    /// # Panics
    ///
    /// Panics if `dq_bits` does not divide 64.
    pub fn with_dq_bits(dq_bits: u32) -> Self {
        assert!(
            dq_bits > 0 && 64 % dq_bits == 0,
            "DQ width must divide the 64-bit channel"
        );
        Geometry {
            chips_per_rank: 64 / dq_bits,
            dq_bits_per_chip: dq_bits,
            ..Geometry::table1()
        }
    }

    /// The split-DIMM-buffer variant (*chameleon-s*): `ca_bits` of each
    /// chip's DQ pins are dedicated to C/A dispatch, shrinking data
    /// bandwidth between units and the level-1 bridges (Section V-A,
    /// evaluated in Section VIII-A with 2 of 8 pins).
    pub fn split_dimm_buffer() -> Self {
        Geometry {
            dq_ca_bits_per_chip: 2,
            ..Geometry::table1()
        }
    }

    /// Total ranks in the system (= number of level-1 bridges).
    pub fn total_ranks(&self) -> u32 {
        self.channels * self.ranks_per_channel
    }

    /// NDP units (banks) per rank.
    pub fn units_per_rank(&self) -> u32 {
        self.chips_per_rank * self.banks_per_chip
    }

    /// Total NDP units in the system.
    pub fn total_units(&self) -> u32 {
        self.total_ranks() * self.units_per_rank()
    }

    /// Channel data width in bits (chips × DQ pins); 64 for all evaluated
    /// configurations.
    pub fn channel_dq_bits(&self) -> u32 {
        self.chips_per_rank * self.dq_bits_per_chip
    }

    /// Effective *data* bits per tick on the intra-rank bus between banks
    /// and the level-1 bridge, after C/A multiplexing is deducted.
    pub fn intra_rank_data_bits(&self) -> u32 {
        self.chips_per_rank * (self.dq_bits_per_chip - self.dq_ca_bits_per_chip)
    }

    /// The hierarchy position of `unit`.
    ///
    /// # Panics
    ///
    /// Panics if `unit` is out of range.
    pub fn position(&self, unit: UnitId) -> UnitPosition {
        assert!(unit.0 < self.total_units(), "unit {unit} out of range");
        let (rank, within) = divmod_p2(unit.0, self.units_per_rank());
        let (chip, bank) = divmod_p2(within, self.banks_per_chip);
        UnitPosition {
            channel: ChannelId(divmod_p2(rank, self.ranks_per_channel).0),
            rank: RankId(rank),
            chip,
            bank,
        }
    }

    /// The rank containing `unit`.
    #[inline]
    pub fn rank_of(&self, unit: UnitId) -> RankId {
        RankId(divmod_p2(unit.0, self.units_per_rank()).0)
    }

    /// The channel a rank is attached to.
    pub fn channel_of_rank(&self, rank: RankId) -> ChannelId {
        ChannelId(rank.0 / self.ranks_per_channel)
    }

    /// All units in the system.
    pub fn all_units(&self) -> impl Iterator<Item = UnitId> {
        (0..self.total_units()).map(UnitId)
    }

    /// Whether two units live in the same DRAM chip (RowClone can copy
    /// between them over the chip-internal shared data bus).
    pub fn same_chip(&self, a: UnitId, b: UnitId) -> bool {
        let pa = self.position(a);
        let pb = self.position(b);
        pa.rank == pb.rank && pa.chip == pb.chip
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_matches_paper() {
        let g = Geometry::table1();
        assert_eq!(g.total_units(), 512);
        assert_eq!(g.total_ranks(), 8);
        assert_eq!(g.units_per_rank(), 64);
        assert_eq!(g.channel_dq_bits(), 64);
        assert_eq!(g.intra_rank_data_bits(), 64);
        assert_eq!(g.bank_bytes, 64 << 20);
    }

    #[test]
    fn position_round_trip() {
        let g = Geometry::table1();
        let p0 = g.position(UnitId(0));
        assert_eq!((p0.rank, p0.chip, p0.bank), (RankId(0), 0, 0));
        let p = g.position(UnitId(511));
        assert_eq!(p.rank, RankId(7));
        assert_eq!(p.channel, ChannelId(1));
        assert_eq!((p.chip, p.bank), (7, 7));
    }

    #[test]
    fn dq_variants_keep_channel_width() {
        for dq in [4, 8, 16] {
            let g = Geometry::with_dq_bits(dq);
            assert_eq!(g.channel_dq_bits(), 64);
        }
        assert_eq!(Geometry::with_dq_bits(4).total_units(), 1024);
        assert_eq!(Geometry::with_dq_bits(16).total_units(), 256);
    }

    #[test]
    #[should_panic(expected = "DQ width must divide")]
    fn bad_dq_width_panics() {
        Geometry::with_dq_bits(5);
    }

    #[test]
    fn scalability_geometries() {
        assert_eq!(Geometry::with_total_ranks(1).total_units(), 64);
        assert_eq!(Geometry::with_total_ranks(8).total_units(), 512);
        assert_eq!(Geometry::with_total_ranks(16).total_units(), 1024);
        // Even rank counts use both channels.
        assert_eq!(Geometry::with_total_ranks(16).channels, 2);
        assert_eq!(Geometry::with_total_ranks(1).channels, 1);
    }

    #[test]
    fn split_dimm_loses_data_pins() {
        let g = Geometry::split_dimm_buffer();
        assert_eq!(g.intra_rank_data_bits(), 48);
        assert_eq!(g.channel_dq_bits(), 64);
    }

    #[test]
    fn same_chip_detection() {
        let g = Geometry::table1();
        // Units 0..8 are chip 0 banks 0..8.
        assert!(g.same_chip(UnitId(0), UnitId(7)));
        assert!(!g.same_chip(UnitId(0), UnitId(8)));
        assert!(!g.same_chip(UnitId(0), UnitId(64)));
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn out_of_range_unit_panics() {
        Geometry::table1().position(UnitId(512));
    }
}
