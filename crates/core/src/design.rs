//! Design points (Table II and Section VII's extra baselines).

use std::fmt;

/// How cross-unit messages travel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CommPath {
    /// Baseline **C**: every message is gathered by the host CPU over
    /// the DDR channel and scattered back — the execution model of
    /// existing DRAM-bank NDP products.
    HostForward,
    /// NDPBridge: level-1 bridges handle intra-rank messages; the
    /// level-2 bridge (host runtime) forwards only cross-rank messages.
    Bridges,
    /// Baseline **R**: RowClone-style direct bank-to-bank copies within
    /// a DRAM chip; everything else falls back to host forwarding.
    RowClone,
}

/// Load-balancing policy knobs (Section VI; ablated in Figure 14a).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LbPolicy {
    /// Whether dynamic load balancing runs at all. Every balancing
    /// design counts in-flight scheduled workload (`toArrive`) when it
    /// looks for idle receivers: Section VII applies this workload
    /// correction to W and O alike.
    pub enabled: bool,
    /// `+Adv`: schedule *in advance* of queue exhaustion, using the
    /// `W_th` threshold, to hide transfer latency.
    pub in_advance: bool,
    /// `+Fine`: fine-grained stealing — move only ~`2·W_th` of workload
    /// per round instead of half the victim queue.
    pub fine_grained: bool,
    /// `+Hot`: select hot blocks (sketch + reserved queue) to reduce
    /// transfer traffic.
    pub hot_data: bool,
    /// `+Byte`: budget each steal batch by estimated wire bytes moved,
    /// amortized against the gather/scatter cost `W_th` already models
    /// (see `crate::steal::steal_byte_budget`). Steals that would blow
    /// the byte budget are deferred to a later round.
    pub byte_budget: bool,
    /// `+Lent`: prefer forwarding tasks whose blocks are *already
    /// lent out* — a task-only transfer straight to the current
    /// holder, with no gather/scatter at all — over moving fresh
    /// blocks. (Those tasks would be rerouted to the holder
    /// one-by-one on pop anyway; the steal round batches them.)
    pub prefer_lent: bool,
}

impl LbPolicy {
    /// No load balancing (designs C, B, R).
    pub const NONE: LbPolicy = LbPolicy {
        enabled: false,
        in_advance: false,
        fine_grained: false,
        hot_data: false,
        byte_budget: false,
        prefer_lent: false,
    };

    /// Traditional work stealing (design W).
    pub const WORK_STEALING: LbPolicy = LbPolicy {
        enabled: true,
        in_advance: false,
        fine_grained: false,
        hot_data: false,
        byte_budget: false,
        prefer_lent: false,
    };

    /// Full data-transfer-aware policy (design O).
    pub const DATA_AWARE: LbPolicy = LbPolicy {
        enabled: true,
        in_advance: true,
        fine_grained: true,
        hot_data: true,
        byte_budget: false,
        prefer_lent: false,
    };

    /// Gather-cost-aware stealing (design `W+GA`): traditional work
    /// stealing plus the byte budget and the lent-block preference.
    pub const GATHER_AWARE: LbPolicy = LbPolicy {
        byte_budget: true,
        prefer_lent: true,
        ..LbPolicy::WORK_STEALING
    };
}

/// A named design point from the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DesignPoint {
    /// Host-CPU forwarding, no load balancing.
    C,
    /// Hardware bridges, no load balancing.
    B,
    /// Bridges + traditional work stealing.
    W,
    /// Bridges + data-transfer-aware load balancing (NDPBridge).
    O,
    /// RowClone intra-chip transfers, host forwarding across chips.
    R,
    /// W plus in-advance scheduling only (Figure 14a `+Adv`).
    WAdv,
    /// W plus fine-grained stealing only (Figure 14a `+Fine`).
    WFine,
    /// W plus hot-data selection only (Figure 14a `+Hot`).
    WHot,
    /// W plus the steal byte budget only (`W+Byte`): steal-half still
    /// picks blindly, but each round defers steals past its byte cap.
    WByte,
    /// W plus the lent-block preference only (`W+Lent`): task-only
    /// forwards to current holders beat fresh block moves.
    WLent,
    /// Gather-cost-aware work stealing (`W+GA` = `W+Byte+Lent`): the
    /// ROADMAP item-1 policy closing the Fig 10 gather-traffic gap.
    WGather,
    /// The full design plus the gather-aware knobs (`O+GA`).
    OGather,
}

impl DesignPoint {
    /// The communication path of this design.
    pub fn comm_path(self) -> CommPath {
        match self {
            DesignPoint::C => CommPath::HostForward,
            DesignPoint::R => CommPath::RowClone,
            _ => CommPath::Bridges,
        }
    }

    /// The load-balancing policy of this design.
    pub fn lb_policy(self) -> LbPolicy {
        match self {
            DesignPoint::C | DesignPoint::B | DesignPoint::R => LbPolicy::NONE,
            DesignPoint::W => LbPolicy::WORK_STEALING,
            DesignPoint::O => LbPolicy::DATA_AWARE,
            DesignPoint::WAdv => LbPolicy {
                in_advance: true,
                ..LbPolicy::WORK_STEALING
            },
            DesignPoint::WFine => LbPolicy {
                fine_grained: true,
                ..LbPolicy::WORK_STEALING
            },
            DesignPoint::WHot => LbPolicy {
                hot_data: true,
                ..LbPolicy::WORK_STEALING
            },
            DesignPoint::WByte => LbPolicy {
                byte_budget: true,
                ..LbPolicy::WORK_STEALING
            },
            DesignPoint::WLent => LbPolicy {
                prefer_lent: true,
                ..LbPolicy::WORK_STEALING
            },
            DesignPoint::WGather => LbPolicy::GATHER_AWARE,
            DesignPoint::OGather => LbPolicy {
                byte_budget: true,
                prefer_lent: true,
                ..LbPolicy::DATA_AWARE
            },
        }
    }

    /// All four Table II rows, in the paper's order.
    pub fn table2() -> [DesignPoint; 4] {
        [
            DesignPoint::C,
            DesignPoint::B,
            DesignPoint::W,
            DesignPoint::O,
        ]
    }
}

impl fmt::Display for DesignPoint {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            DesignPoint::C => "C",
            DesignPoint::B => "B",
            DesignPoint::W => "W",
            DesignPoint::O => "O",
            DesignPoint::R => "R",
            DesignPoint::WAdv => "W+Adv",
            DesignPoint::WFine => "W+Fine",
            DesignPoint::WHot => "W+Hot",
            DesignPoint::WByte => "W+Byte",
            DesignPoint::WLent => "W+Lent",
            DesignPoint::WGather => "W+GA",
            DesignPoint::OGather => "O+GA",
        };
        f.write_str(s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table2_matches_paper() {
        let t = DesignPoint::table2();
        assert_eq!(t[0].comm_path(), CommPath::HostForward);
        assert!(!t[0].lb_policy().enabled);
        assert_eq!(t[1].comm_path(), CommPath::Bridges);
        assert!(!t[1].lb_policy().enabled);
        assert!(t[2].lb_policy().enabled);
        assert!(!t[2].lb_policy().hot_data);
        assert!(t[3].lb_policy().hot_data);
    }

    #[test]
    fn ablations_add_one_knob_each() {
        assert!(DesignPoint::WAdv.lb_policy().in_advance);
        assert!(!DesignPoint::WAdv.lb_policy().fine_grained);
        assert!(DesignPoint::WFine.lb_policy().fine_grained);
        assert!(!DesignPoint::WFine.lb_policy().hot_data);
        assert!(DesignPoint::WHot.lb_policy().hot_data);
        assert!(!DesignPoint::WHot.lb_policy().in_advance);
    }

    #[test]
    fn rowclone_is_its_own_path() {
        assert_eq!(DesignPoint::R.comm_path(), CommPath::RowClone);
        assert!(!DesignPoint::R.lb_policy().enabled);
    }

    #[test]
    fn display_names() {
        assert_eq!(DesignPoint::O.to_string(), "O");
        assert_eq!(DesignPoint::WHot.to_string(), "W+Hot");
        assert_eq!(DesignPoint::WGather.to_string(), "W+GA");
        assert_eq!(DesignPoint::OGather.to_string(), "O+GA");
    }

    #[test]
    fn gather_aware_knobs_compose() {
        // Single-knob ablations toggle exactly one new field over W.
        let byte = DesignPoint::WByte.lb_policy();
        assert!(byte.byte_budget && !byte.prefer_lent);
        let lent = DesignPoint::WLent.lb_policy();
        assert!(lent.prefer_lent && !lent.byte_budget);
        // W+GA is both; everything else stays W.
        let ga = DesignPoint::WGather.lb_policy();
        assert!(ga.byte_budget && ga.prefer_lent);
        assert_eq!(
            LbPolicy {
                byte_budget: false,
                prefer_lent: false,
                ..ga
            },
            LbPolicy::WORK_STEALING
        );
        // O+GA keeps O's four knobs and adds the two new ones.
        let oga = DesignPoint::OGather.lb_policy();
        assert!(oga.byte_budget && oga.prefer_lent && oga.hot_data && oga.in_advance);
        // Every baseline design leaves the new knobs off (golden runs
        // must stay byte-identical).
        for d in [
            DesignPoint::C,
            DesignPoint::B,
            DesignPoint::W,
            DesignPoint::O,
            DesignPoint::R,
            DesignPoint::WAdv,
            DesignPoint::WFine,
            DesignPoint::WHot,
        ] {
            let p = d.lb_policy();
            assert!(!p.byte_budget && !p.prefer_lent, "{d} grew a new knob");
        }
    }
}
