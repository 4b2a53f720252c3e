//! Randomized property tests for the DRAM substrates, driven by the
//! in-repo deterministic `SimRng`.

use ndpb_dram::{AddressMap, BankModel, Bus, DataAddr, DramTiming, Geometry, UnitId};
use ndpb_sim::{SimRng, SimTime};

const CASES: usize = 64;

/// Bank service windows never overlap and never run backwards, no
/// matter when requests are issued.
#[test]
fn bank_serializes_all_requests() {
    let mut rng = SimRng::new(0xD8A0_0001);
    let timing = DramTiming::ddr4_2400();
    for _ in 0..CASES {
        let n = 1 + rng.next_index(99);
        let mut bank = BankModel::new();
        let mut prev_end = SimTime::ZERO;
        for _ in 0..n {
            let now = rng.next_below(10_000);
            let row = rng.next_below(64);
            let bytes = 1 + rng.next_below(511) as u32;
            let write = rng.chance(0.5);
            let a = bank.access(SimTime::from_ticks(now), row, bytes, write, &timing);
            assert!(a.start >= prev_end, "service windows overlap");
            assert!(a.end > a.start);
            prev_end = a.end;
        }
    }
}

/// Row hits are never slower than conflicts for the same size.
#[test]
fn hit_never_slower_than_conflict() {
    let mut rng = SimRng::new(0xD8A0_0002);
    let t = DramTiming::ddr4_2400();
    for _ in 0..512 {
        let bytes = 1 + rng.next_below(4095) as u32;
        assert!(t.row_hit(bytes) <= t.row_closed(bytes));
        assert!(t.row_closed(bytes) <= t.row_conflict(bytes));
    }
}

/// Bus grants are disjoint and ordered, and total busy time equals
/// the sum of transfer times.
#[test]
fn bus_grants_are_disjoint() {
    let mut rng = SimRng::new(0xD8A0_0003);
    for _ in 0..CASES {
        let n = 1 + rng.next_index(99);
        let mut bus = Bus::new(64);
        let mut prev_end = SimTime::ZERO;
        let mut expected_busy = SimTime::ZERO;
        for _ in 0..n {
            let now = rng.next_below(10_000);
            let bytes = 1 + rng.next_below(4095);
            let g = bus.reserve(SimTime::from_ticks(now), bytes);
            assert!(g.start >= prev_end);
            assert_eq!(g.end - g.start, bus.transfer_time(bytes));
            expected_busy += g.end - g.start;
            prev_end = g.end;
        }
        assert_eq!(bus.busy, expected_busy);
    }
}

/// Address mapping round-trips for every unit and in-range offset.
#[test]
fn address_round_trip() {
    let mut rng = SimRng::new(0xD8A0_0004);
    let g = Geometry::table1();
    let m = AddressMap::new(&g, 256, 1024);
    for _ in 0..512 {
        let unit = rng.next_below(512) as u32;
        let offset = rng.next_below(64 << 20);
        let addr = m.addr_in_unit(UnitId(unit), offset);
        assert_eq!(m.home_unit(addr), UnitId(unit));
        let block = m.block_of(addr);
        assert_eq!(m.block_home(block), UnitId(unit));
        assert!(m.block_base(block) <= addr);
        assert!(addr.0 - m.block_base(block).0 < 256);
    }
}

/// Unit positions are unique and invertible across the hierarchy.
#[test]
fn unit_positions_unique() {
    let g = Geometry::table1();
    // Exhaustive pairwise check (the proptest version sampled pairs).
    let positions: Vec<_> = (0..512u32).map(|u| g.position(UnitId(u))).collect();
    for a in 0..positions.len() {
        assert_eq!(positions[a], g.position(UnitId(a as u32)));
        for b in (a + 1)..positions.len() {
            assert!(
                positions[a] != positions[b],
                "units {a} and {b} share a position"
            );
        }
    }
}

/// Every address belongs to exactly one block whose home matches
/// the address's home.
#[test]
fn block_home_consistent() {
    let mut rng = SimRng::new(0xD8A0_0006);
    let g = Geometry::table1();
    let m = AddressMap::new(&g, 256, 1024);
    for _ in 0..512 {
        let addr = DataAddr(rng.next_below(512 * (64u64 << 20)));
        assert_eq!(m.home_unit(addr), m.block_home(m.block_of(addr)));
    }
}
