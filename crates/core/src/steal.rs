//! Byte-budgeted steal planning (gather-cost-aware load balancing).
//!
//! PR 3's traffic ledger attributed the measured W-vs-B gap to gather
//! traffic: naive steal-half moves ~22x B's gather bytes at Tiny
//! scale. The planner here makes the stealing policy charge itself for
//! those bytes. Each balancing round converts its workload budget into
//! a *byte* budget — the transfer volume the `W_th` derivation already
//! proves can hide behind execution — and then picks steal candidates
//! in preference order until either budget runs dry:
//!
//! 1. **task-only forwards** (tier 0): the candidate block is already
//!    lent to another unit of the rank, so only the task descriptors
//!    move, to that holder — no gather, no scatter;
//! 2. **sketch-hot blocks** (tier 1): HeavyGuardian says more work for
//!    this block keeps arriving, so the one-time gather amortizes over
//!    future tasks too;
//! 3. **everything else** (tier 2), densest workload-per-byte first.
//!
//! Within a tier candidates rank by workload-per-byte (exact integer
//! cross-multiplication, no floats), ties by queue position. The
//! functions here are pure so the property suite
//! (`tests/steal_policy.rs`) can drive them against a reference
//! planner on random states.

/// One steal candidate: a block grouped with all of its queued tasks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StealCandidate {
    /// Opaque block identity (the block address), for reporting.
    pub key: u64,
    /// Cumulative workload of the queued tasks targeting the block.
    pub workload: u64,
    /// Wire bytes of the task descriptors that would move.
    pub task_bytes: u64,
    /// Wire bytes of the data transfer; `0` means the block already
    /// sits at the receiver and only tasks need to travel.
    pub data_bytes: u64,
    /// Whether the sketch currently tracks the block as hot.
    pub hot: bool,
}

impl StealCandidate {
    /// Total wire bytes this steal would move.
    pub fn bytes(&self) -> u64 {
        self.data_bytes + self.task_bytes
    }

    /// Preference tier: task-only < hot < rest.
    fn tier(&self) -> u8 {
        if self.data_bytes == 0 {
            0
        } else if self.hot {
            1
        } else {
            2
        }
    }
}

/// Whether candidate `a` ranks strictly better than `b`: lower tier
/// first, then higher workload-per-byte (compared exactly via integer
/// cross-multiplication).
pub fn ranks_better(a: &StealCandidate, b: &StealCandidate) -> bool {
    if a.tier() != b.tier() {
        return a.tier() < b.tier();
    }
    u128::from(a.workload) * u128::from(b.bytes().max(1))
        > u128::from(b.workload) * u128::from(a.bytes().max(1))
}

/// Per-candidate amortization: the cost model a block move must beat
/// to be worth stealing at all.
///
/// `W_th` says executing `w_th` workload hides
/// [`STEAL_BUDGET_GXFER`]` · g_xfer` transferred bytes. A candidate
/// *pays for itself* when its own queued workload hides its own wire
/// bytes; a thinner candidate would stall the receiver longer than the
/// stolen work keeps it busy, which is
/// exactly the regime where W loses to B (Fig 10's inversion at small
/// scale). Task-only forwards always pay — no gather/scatter happens.
#[derive(Debug, Clone, Copy)]
pub struct AmortizeCfg {
    /// Gather/scatter transfer granularity (`SystemConfig::g_xfer`).
    pub g_xfer: u32,
    /// The rank's `W_th` workload threshold.
    pub w_th: u64,
}

impl AmortizeCfg {
    /// Whether stealing this candidate moves fewer bytes than its own
    /// workload can hide. Exact integer cross-multiplication:
    /// `bytes · w_th <= workload · STEAL_BUDGET_GXFER · g_xfer`.
    pub fn pays(&self, c: &StealCandidate) -> bool {
        if c.data_bytes == 0 {
            return true;
        }
        u128::from(c.bytes()) * u128::from(self.w_th.max(1))
            <= u128::from(c.workload) * u128::from(self.g_xfer) * u128::from(STEAL_BUDGET_GXFER)
    }
}

/// Giver overload gate, in `W_th` multiples (only read when
/// `LbPolicy::byte_budget` is on). A giver spends *data* bytes on block
/// moves only while its queued backlog is at least `STEAL_GATE_WTH ·
/// W_th`; shallower queues drain on their own before rebalancing pays,
/// and each block move costs a full gather-round sweep (`chips ·
/// G_xfer` of ledger traffic), so transient imbalance is left alone.
/// Task-only forwards ignore the gate. Sweeping 2..512 at Small scale:
/// gather reduction grows monotonically, makespan peaks near 256.
pub const STEAL_GATE_WTH: u64 = 256;

/// Steal byte budget, in `G_xfer` multiples per `W_th` of stolen
/// workload (only read when `LbPolicy::byte_budget` is on). 2 mirrors
/// the `W_th` derivation: one gather out plus one scatter back stays
/// latency-hidden per threshold of work.
pub const STEAL_BUDGET_GXFER: u32 = 2;

/// Converts a round's workload budget into its byte budget.
///
/// The `W_th` threshold is derived so that executing `W_th` workload
/// hides the transfer of `2·G_xfer` bytes (gather out + scatter back).
/// Inverting that: every `w_th` of stolen workload buys
/// [`STEAL_BUDGET_GXFER`]` · g_xfer` bytes of latency-hidden transfer
/// (2 covers the round trip). At least one round's worth is always
/// granted so a single steal can still happen.
pub fn steal_byte_budget(wl_budget: u64, w_th: u64, g_xfer: u32) -> u64 {
    let per_round = u64::from(g_xfer) * u64::from(STEAL_BUDGET_GXFER);
    let rounds = wl_budget.max(1).div_ceil(w_th.max(1));
    rounds.saturating_mul(per_round).max(per_round)
}

/// Plans a steal batch: returns indices into `cands` in pick order.
///
/// Greedy over the total preference order: candidates are visited from
/// best-ranked to worst (ties broken by input position, i.e. queue
/// order) and picked while workload remains below `wl_budget` and the
/// pick still fits `byte_budget`. A candidate too expensive for the
/// remaining bytes is *deferred* — skipped, not fatal — so cheaper
/// candidates further down the order can still move this round.
///
/// Task-only candidates (`data_bytes == 0`) are never charged against
/// the byte budget: their task mail would be paid by the per-task
/// reroute path anyway, so forwarding them eagerly moves no
/// *incremental* bytes. They fit even a zero budget.
pub fn plan_steal(cands: &[StealCandidate], wl_budget: u64, byte_budget: u64) -> Vec<usize> {
    let mut order: Vec<usize> = (0..cands.len()).collect();
    order.sort_by(|&i, &j| {
        if ranks_better(&cands[i], &cands[j]) {
            std::cmp::Ordering::Less
        } else if ranks_better(&cands[j], &cands[i]) {
            std::cmp::Ordering::Greater
        } else {
            i.cmp(&j)
        }
    });
    let mut picked = Vec::new();
    let mut wl = 0u64;
    let mut bytes = 0u64;
    for i in order {
        if wl >= wl_budget {
            break;
        }
        let c = &cands[i];
        if c.workload == 0 {
            continue;
        }
        if c.data_bytes == 0 {
            // Task-only: no incremental wire cost (see above).
            wl += c.workload;
            picked.push(i);
            continue;
        }
        match bytes.checked_add(c.bytes()) {
            Some(b) if b <= byte_budget => {
                bytes = b;
                wl += c.workload;
                picked.push(i);
            }
            _ => {} // deferred: does not fit the remaining byte budget
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(
        key: u64,
        workload: u64,
        task_bytes: u64,
        data_bytes: u64,
        hot: bool,
    ) -> StealCandidate {
        StealCandidate {
            key,
            workload,
            task_bytes,
            data_bytes,
            hot,
        }
    }

    #[test]
    fn byte_budget_inverts_w_threshold() {
        // One W_th of workload buys STEAL_BUDGET_GXFER * g_xfer bytes.
        assert_eq!(steal_byte_budget(52, 52, 256), 512);
        // Partial rounds round up.
        assert_eq!(steal_byte_budget(53, 52, 256), 1024);
        // Degenerate thresholds still grant one round's worth.
        assert_eq!(steal_byte_budget(0, 0, 256), 512);
    }

    #[test]
    fn amortization_gates_thin_blocks() {
        let am = AmortizeCfg {
            g_xfer: 256,
            w_th: 52,
        };
        // 346 wire bytes need >= ceil(346*52/512) = 36 workload.
        assert!(!am.pays(&cand(1, 35, 40, 306, false)));
        assert!(am.pays(&cand(2, 36, 40, 306, false)));
        // Task-only forwards always pay, however thin.
        assert!(am.pays(&cand(3, 1, 40, 0, false)));
        // Zero-workload block moves never pay.
        assert!(!am.pays(&cand(4, 0, 40, 306, true)));
    }

    #[test]
    fn tiers_order_task_only_then_hot_then_rest() {
        let task_only = cand(1, 10, 40, 0, false);
        let hot = cand(2, 1000, 40, 306, true);
        let cold = cand(3, 2000, 40, 306, false);
        assert!(ranks_better(&task_only, &hot));
        assert!(ranks_better(&hot, &cold));
        assert!(ranks_better(&task_only, &cold));
        assert!(!ranks_better(&cold, &task_only));
    }

    #[test]
    fn density_orders_within_a_tier() {
        let dense = cand(1, 100, 50, 306, false);
        let sparse = cand(2, 10, 50, 306, false);
        assert!(ranks_better(&dense, &sparse));
        assert!(!ranks_better(&sparse, &dense));
        // Equal density: neither strictly better (tie -> queue order).
        let a = cand(3, 10, 50, 306, false);
        let b = cand(4, 10, 50, 306, false);
        assert!(!ranks_better(&a, &b) && !ranks_better(&b, &a));
    }

    #[test]
    fn plan_respects_both_budgets() {
        let cands = vec![
            cand(1, 30, 40, 306, false),
            cand(2, 30, 40, 306, false),
            cand(3, 30, 40, 306, false),
        ];
        // Byte budget fits exactly two picks.
        let picks = plan_steal(&cands, u64::MAX, 2 * 346);
        assert_eq!(picks.len(), 2);
        // Workload budget stops after the first pick crosses it.
        let picks = plan_steal(&cands, 30, u64::MAX);
        assert_eq!(picks.len(), 1);
        // Zero byte budget moves nothing.
        assert!(plan_steal(&cands, u64::MAX, 0).is_empty());
    }

    #[test]
    fn oversized_candidate_is_deferred_not_fatal() {
        let cands = vec![
            cand(1, 1000, 40, 100_000, true), // hot but enormous
            cand(2, 10, 40, 306, false),
        ];
        let picks = plan_steal(&cands, u64::MAX, 400);
        assert_eq!(picks, vec![1], "the affordable candidate still moves");
    }

    #[test]
    fn task_only_candidates_bypass_the_byte_budget() {
        // Their task mail is paid by the reroute path regardless, so
        // even a zero byte budget forwards them.
        let cands = vec![cand(1, 10, 40, 0, false), cand(2, 10, 40, 0, false)];
        let picks = plan_steal(&cands, u64::MAX, 0);
        assert_eq!(picks.len(), 2);
        // ...but the workload budget still applies.
        let picks = plan_steal(&cands, 10, 0);
        assert_eq!(picks.len(), 1);
    }

    #[test]
    fn ties_break_by_queue_order() {
        let cands = vec![cand(9, 10, 50, 306, false), cand(7, 10, 50, 306, false)];
        let picks = plan_steal(&cands, u64::MAX, u64::MAX);
        assert_eq!(picks, vec![0, 1]);
    }
}
