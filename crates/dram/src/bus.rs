//! Reservation-based bus/link models.
//!
//! Two kinds of links matter in NDPBridge (Table I):
//!
//! * the **intra-rank bus** between the banks of a rank and its level-1
//!   bridge — 2400 MT/s × 64 bits aggregated across the rank's chips
//!   (each chip contributes its DQ pins; one bridge command moves data
//!   for the same bank position of every chip in parallel);
//! * the **channel** between level-1 bridges and the level-2 bridge /
//!   host — 2400 MT/s × 64 bits, shared by all ranks of the channel and
//!   by host memory traffic in the baselines.
//!
//! A [`Bus`] hands out the earliest available time window for a transfer
//! of N bytes; callers chain the returned completion times into their own
//! event schedules.

use ndpb_sim::SimTime;

/// A shared, serializing link with a fixed data rate.
///
/// # Example
///
/// ```
/// use ndpb_dram::Bus;
/// use ndpb_sim::SimTime;
/// let mut ch = Bus::new(64); // 64 bits/tick = 8 B/tick
/// let a = ch.reserve(SimTime::ZERO, 256);
/// let b = ch.reserve(SimTime::ZERO, 256);
/// assert_eq!(a.end.ticks(), 32);
/// assert_eq!(b.start, a.end); // second transfer waits
/// ```
#[derive(Debug, Clone)]
pub struct Bus {
    bits_per_tick: u32,
    free_at: SimTime,
    /// Total time the link spent transferring.
    pub busy: SimTime,
    /// Total bytes transferred.
    pub bytes: u64,
}

/// The time window granted for one transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BusGrant {
    /// When the transfer begins occupying the link.
    pub start: SimTime,
    /// When the last beat completes.
    pub end: SimTime,
}

impl Bus {
    /// Creates a bus moving `bits_per_tick` data bits per tick.
    ///
    /// # Panics
    ///
    /// Panics if `bits_per_tick` is zero.
    pub fn new(bits_per_tick: u32) -> Self {
        assert!(bits_per_tick > 0, "bus must have positive bandwidth");
        Bus {
            bits_per_tick,
            free_at: SimTime::ZERO,
            busy: SimTime::ZERO,
            bytes: 0,
        }
    }

    /// The configured data rate in bits per tick.
    pub fn bits_per_tick(&self) -> u32 {
        self.bits_per_tick
    }

    /// Time needed to move `bytes` once the link is free.
    pub fn transfer_time(&self, bytes: u64) -> SimTime {
        // Shift instead of hardware divide for power-of-two link widths
        // (all evaluated configurations); results are identical.
        let bits = bytes * 8;
        let w = self.bits_per_tick as u64;
        let ticks = if w.is_power_of_two() {
            (bits + w - 1) >> w.trailing_zeros()
        } else {
            bits.div_ceil(w)
        };
        SimTime::from_ticks(ticks.max(1))
    }

    /// Reserves the earliest window of `bytes` starting no sooner than
    /// `now`; the link is busy until the returned `end`.
    pub fn reserve(&mut self, now: SimTime, bytes: u64) -> BusGrant {
        let start = now.max(self.free_at);
        let end = start + self.transfer_time(bytes);
        self.free_at = end;
        self.busy += end - start;
        self.bytes += bytes;
        BusGrant { start, end }
    }

    /// When the link next becomes idle.
    pub fn free_at(&self) -> SimTime {
        self.free_at
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn transfer_time_rounds_up() {
        let bus = Bus::new(64);
        assert_eq!(bus.transfer_time(8).ticks(), 1);
        assert_eq!(bus.transfer_time(9).ticks(), 2);
        assert_eq!(bus.transfer_time(0).ticks(), 1); // min one slot
    }

    #[test]
    fn reservations_serialize() {
        let mut bus = Bus::new(8); // 1 B/tick
        let a = bus.reserve(SimTime::ZERO, 10);
        let b = bus.reserve(SimTime::from_ticks(5), 10);
        assert_eq!(a.end.ticks(), 10);
        assert_eq!(b.start, a.end);
        assert_eq!(b.end.ticks(), 20);
        assert_eq!(bus.bytes, 20);
        assert_eq!(bus.busy.ticks(), 20);
    }

    #[test]
    fn idle_gap_honoured() {
        let mut bus = Bus::new(8);
        bus.reserve(SimTime::ZERO, 4);
        let late = bus.reserve(SimTime::from_ticks(100), 4);
        assert_eq!(late.start.ticks(), 100);
    }

    #[test]
    fn narrow_bus_is_slower() {
        let wide = Bus::new(64).transfer_time(256);
        let narrow = Bus::new(48).transfer_time(256); // chameleon-s
        assert!(narrow > wide);
    }

    #[test]
    #[should_panic(expected = "positive bandwidth")]
    fn zero_bandwidth_panics() {
        Bus::new(0);
    }
}
