//! System configuration (Table I) and sweep knobs.

use crate::audit::AuditLevel;
use ndpb_dram::{DramTiming, EnergyParams, Geometry};
use ndpb_sim::{SimTime, TICKS_PER_CORE_CYCLE};
use ndpb_sketch::SketchConfig;

/// When the bridges run task/data message gather/scatter rounds
/// (Section V-C, evaluated in Figure 14b).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TriggerPolicy {
    /// The paper's dynamic scheme: gather immediately when a mailbox
    /// exceeds `G_xfer`; gather at `I_min` frequency while any child is
    /// idle and messages are pending; otherwise wait.
    Dynamic,
    /// Fixed rounds every `I_min` (bandwidth-wasteful baseline).
    FixedIMin,
    /// Fixed rounds every `2 × I_min` (too-infrequent baseline; the
    /// paper reports a 31% performance loss).
    Fixed2IMin,
}

/// Full system configuration. Defaults reproduce Table I.
#[derive(Debug, Clone)]
pub struct SystemConfig {
    /// DRAM hierarchy.
    pub geometry: Geometry,
    /// DDR timing.
    pub timing: DramTiming,
    /// Energy model parameters.
    pub energy: EnergyParams,
    /// Message transfer and load-balancing granularity `G_xfer` (bytes).
    pub g_xfer: u32,
    /// Steal byte budget, in `G_xfer` multiples per `W_th` of stolen
    /// workload (only read when `LbPolicy::byte_budget` is on). The
    /// default 2 mirrors the `W_th` derivation — one gather out plus
    /// one scatter back stays latency-hidden per threshold of work.
    pub steal_budget_gxfer: u32,
    /// State-gathering period `I_state` in NDP core cycles.
    pub i_state_cycles: u64,
    /// Per-unit in-DRAM mailbox region (1 MB).
    pub mailbox_bytes: u64,
    /// Per-unit in-DRAM borrowed data region (1 MB).
    pub borrowed_region_bytes: u64,
    /// Level-1 bridge SRAM mailbox for upward messages (128 kB).
    pub bridge_mailbox_bytes: u64,
    /// Per-child scatter buffer in the bridge (1 kB each).
    pub scatter_buffer_bytes: u64,
    /// Bridge backup buffer (64 kB).
    pub backup_buffer_bytes: u64,
    /// Entries in each unit's `dataBorrowed` table (16 kB, 8-way,
    /// 16 B entries ⇒ 1024).
    pub unit_borrowed_entries: usize,
    /// Entries in each bridge's `dataBorrowed` table (1 MB, 16-way,
    /// 16 B entries ⇒ 65536).
    pub bridge_borrowed_entries: usize,
    /// Hot-data sketch geometry.
    pub sketch: SketchConfig,
    /// Reserved-queue chunk pool per unit (1280 chunks).
    pub reserved_chunks: usize,
    /// Tasks per reserved-queue chunk (`G_xfer` / 32 B task records).
    pub reserved_tasks_per_chunk: usize,
    /// Communication trigger policy.
    pub trigger: TriggerPolicy,
    /// Host software latency per forwarding round (the level-2 bridge is
    /// a host-side runtime in the paper's evaluation).
    pub host_round_latency: SimTime,
    /// Optional DIMM-Link-style peer-to-peer links between ranks
    /// (Section V-A: "NDPBridge is orthogonal to and can work in tandem
    /// with them"). `Some(bits_per_tick)` routes cross-rank messages
    /// bridge-to-bridge over dedicated links instead of through the
    /// host; DIMM-Link's 25.6 GB/s per link ≈ 88 bits/tick.
    pub dimm_link: Option<u32>,
    /// Master seed for all randomized decisions (matching, decay).
    pub seed: u64,
    /// Conservation-audit level. Purely observational (any level
    /// produces bit-identical results), but deliberately part of the
    /// fingerprint: an audited sweep must never be satisfied by a
    /// cached result whose run was not actually audited.
    pub audit: AuditLevel,
}

impl SystemConfig {
    /// The paper's Table I defaults.
    pub fn table1() -> Self {
        SystemConfig {
            geometry: Geometry::table1(),
            timing: DramTiming::ddr4_2400(),
            energy: EnergyParams::paper(),
            g_xfer: 256,
            steal_budget_gxfer: 2,
            i_state_cycles: 2000,
            mailbox_bytes: 1 << 20,
            borrowed_region_bytes: 1 << 20,
            bridge_mailbox_bytes: 128 << 10,
            scatter_buffer_bytes: 1 << 10,
            backup_buffer_bytes: 64 << 10,
            unit_borrowed_entries: 1024,
            bridge_borrowed_entries: 65536,
            sketch: SketchConfig::paper(),
            reserved_chunks: 1280,
            reserved_tasks_per_chunk: 8,
            trigger: TriggerPolicy::Dynamic,
            host_round_latency: SimTime::from_ns_ceil(500),
            dimm_link: None,
            seed: 0x5EED,
            audit: AuditLevel::default(),
        }
    }

    /// Table I with a different geometry (Figures 12 and 15).
    pub fn with_geometry(geometry: Geometry) -> Self {
        SystemConfig {
            geometry,
            ..Self::table1()
        }
    }

    /// Enables DIMM-Link-style cross-rank links at DIMM-Link's
    /// published 25.6 GB/s (≈ 88 bits per tick).
    pub fn with_dimm_link(mut self) -> Self {
        self.dimm_link = Some(88);
        self
    }

    /// Scales both `dataBorrowed` tables by `factor` (Figure 16a's ¼×,
    /// 1×, 4× metadata sweep).
    pub fn scale_metadata(mut self, factor: f64) -> Self {
        assert!(factor > 0.0, "metadata scale must be positive");
        self.unit_borrowed_entries = ((self.unit_borrowed_entries as f64 * factor) as usize).max(1);
        self.bridge_borrowed_entries =
            ((self.bridge_borrowed_entries as f64 * factor) as usize).max(1);
        self
    }

    /// The state-gathering period as a time.
    pub fn i_state(&self) -> SimTime {
        SimTime::from_core_cycles(self.i_state_cycles)
    }

    /// `I_min`: the time one full gather/scatter round across all
    /// children of a rank takes — bank positions are visited round-robin
    /// and each position moves `G_xfer` bytes per chip over the
    /// intra-rank data pins.
    pub fn i_min(&self) -> SimTime {
        // Per position, G_xfer bytes per chip over the chip's data pins,
        // all chips in parallel; a round has gather + scatter phases.
        let per_chip_bits =
            (self.geometry.intra_rank_data_bits() / self.geometry.chips_per_rank) as u64;
        let t = (self.g_xfer as u64 * 8).div_ceil(per_chip_bits);
        SimTime::from_ticks(2 * t * self.geometry.banks_per_chip as u64)
    }

    /// Sanity-checks the configuration.
    ///
    /// # Panics
    ///
    /// Panics on inconsistent parameters (zero `G_xfer`, `G_xfer` not
    /// dividing buffers, DQ multiplexing eating every pin).
    pub fn validate(&self) {
        assert!(self.g_xfer > 0, "G_xfer must be positive");
        assert!(
            self.steal_budget_gxfer > 0,
            "steal byte budget must be positive"
        );
        assert!(
            self.geometry.intra_rank_data_bits() > 0,
            "C/A multiplexing must leave data pins"
        );
        assert!(
            self.mailbox_bytes >= self.g_xfer as u64,
            "mailbox must hold at least one transfer"
        );
        assert!(
            self.borrowed_region_bytes >= self.g_xfer as u64,
            "borrowed region must hold at least one block"
        );
        assert!(self.i_state_cycles > 0, "I_state must be positive");
    }

    /// Maximum number of blocks the borrowed-data region can hold; the
    /// `dataBorrowed` table may be the tighter limit.
    pub fn borrowed_capacity_blocks(&self) -> usize {
        ((self.borrowed_region_bytes / self.g_xfer as u64) as usize).min(self.unit_borrowed_entries)
    }

    /// A cheap, stable 64-bit content fingerprint covering every
    /// outcome-affecting field — the sweep engine's cache key
    /// component for the configuration.
    ///
    /// Hashes the derived `Debug` rendering through the in-tree FNV-1a
    /// hasher: the rendering spells out every field (geometry, timing,
    /// energy, sketch, trigger, seed, …), so adding a field to any
    /// nested config struct automatically changes the fingerprint — a
    /// new knob can never alias a cached result from before it existed.
    pub fn fingerprint(&self) -> u64 {
        let mut h = ndpb_sim::Fnv1a64::new();
        h.write_str(&format!("{self:?}"));
        h.finish()
    }
}

impl Default for SystemConfig {
    fn default() -> Self {
        Self::table1()
    }
}

/// The in-advance scheduling threshold `W_th = 2 · G_xfer · S_exe /
/// S_xfer` (Section VI-C), in workload units, from the bridge's current
/// speed estimates.
pub fn w_threshold(
    g_xfer: u32,
    s_exe_cycles_per_workload: f64,
    s_xfer_bytes_per_cycle: f64,
) -> u64 {
    if s_xfer_bytes_per_cycle <= 0.0 || s_exe_cycles_per_workload <= 0.0 {
        return g_xfer as u64; // conservative fallback before estimates exist
    }
    // Transfer time of 2·G_xfer bytes, in cycles, converted to workload
    // units via the execution speed.
    let transfer_cycles = 2.0 * g_xfer as f64 / s_xfer_bytes_per_cycle;
    (transfer_cycles / s_exe_cycles_per_workload).ceil() as u64
}

/// Converts NDP core cycles to ticks (convenience for tests and apps).
pub fn cycles_to_ticks(cycles: u64) -> u64 {
    cycles * TICKS_PER_CORE_CYCLE
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_validates() {
        let c = SystemConfig::table1();
        c.validate();
        assert_eq!(c.g_xfer, 256);
        assert_eq!(c.i_state_cycles, 2000);
        assert_eq!(c.geometry.total_units(), 512);
    }

    #[test]
    fn i_min_scales_with_gxfer() {
        let mut c = SystemConfig::table1();
        let base = c.i_min();
        c.g_xfer = 1024;
        assert_eq!(c.i_min().ticks(), base.ticks() * 4);
    }

    #[test]
    fn i_min_table1_value() {
        // x8 chips: 256 B per chip at 8 bits/tick = 256 ticks per
        // position; 8 positions, gather+scatter = 4096 ticks.
        assert_eq!(SystemConfig::table1().i_min().ticks(), 4096);
    }

    #[test]
    fn metadata_scaling() {
        let c = SystemConfig::table1().scale_metadata(0.25);
        assert_eq!(c.unit_borrowed_entries, 256);
        assert_eq!(c.bridge_borrowed_entries, 16384);
        let c = SystemConfig::table1().scale_metadata(4.0);
        assert_eq!(c.unit_borrowed_entries, 4096);
    }

    #[test]
    fn borrowed_capacity_is_min_of_region_and_table() {
        let c = SystemConfig::table1();
        // Region holds 4096 blocks but the table only 1024.
        assert_eq!(c.borrowed_capacity_blocks(), 1024);
    }

    #[test]
    fn w_threshold_formula() {
        // S_exe = 10 cycles per workload unit, S_xfer = 1 byte/cycle:
        // 2·256/1 = 512 cycles of transfer = 51.2 → 52 workload units.
        assert_eq!(w_threshold(256, 10.0, 1.0), 52);
        // Degenerate estimates fall back to G_xfer.
        assert_eq!(w_threshold(256, 0.0, 1.0), 256);
    }

    #[test]
    #[should_panic(expected = "G_xfer must be positive")]
    fn zero_gxfer_fails_validation() {
        let mut c = SystemConfig::table1();
        c.g_xfer = 0;
        c.validate();
    }

    #[test]
    fn fingerprint_is_stable_and_field_sensitive() {
        assert_eq!(
            SystemConfig::table1().fingerprint(),
            SystemConfig::table1().fingerprint()
        );
        let base = SystemConfig::table1().fingerprint();
        let mut c = SystemConfig::table1();
        c.seed += 1;
        assert_ne!(c.fingerprint(), base, "seed must be part of the key");
        let mut c = SystemConfig::table1();
        c.g_xfer = 1024;
        assert_ne!(c.fingerprint(), base);
        let mut c = SystemConfig::table1();
        c.steal_budget_gxfer = 4;
        assert_ne!(
            c.fingerprint(),
            base,
            "the steal byte budget is a policy knob and must key the cache"
        );
        let mut c = SystemConfig::table1();
        c.trigger = TriggerPolicy::Fixed2IMin;
        assert_ne!(c.fingerprint(), base);
        assert_ne!(SystemConfig::table1().with_dimm_link().fingerprint(), base);
        let mut c = SystemConfig::table1();
        c.audit = if c.audit == AuditLevel::Off {
            AuditLevel::Full
        } else {
            AuditLevel::Off
        };
        assert_ne!(
            c.fingerprint(),
            base,
            "an audited sweep must not reuse unaudited cache entries"
        );
        assert_ne!(
            SystemConfig::with_geometry(ndpb_dram::Geometry::with_total_ranks(1)).fingerprint(),
            base
        );
    }

    #[test]
    fn split_dimm_geometry_validates() {
        let c = SystemConfig::with_geometry(ndpb_dram::Geometry::split_dimm_buffer());
        c.validate();
        assert!(c.i_min() > SystemConfig::table1().i_min());
    }
}
