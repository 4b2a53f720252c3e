//! Property suite for the gather-cost-aware steal planner
//! (`ndpb_core::steal`, DESIGN.md §10).
//!
//! The planner is pure, so it can be driven against seeded random
//! candidate sets and checked against a reference implementation:
//!
//! * the picked batch never exceeds the per-round byte budget (with
//!   task-only forwards exempt — their mail is paid by the reroute
//!   path regardless);
//! * picks match a reference planner that repeatedly scans for the
//!   best-ranked affordable candidate (greedy-by-sort == repeated
//!   argmax, because budgets only shrink);
//! * no picked candidate is ranked strictly worse than a skipped one
//!   that would still have fit both budgets at that point.

use ndpbridge::core::steal::{plan_steal, ranks_better, steal_byte_budget, StealCandidate};
use ndpbridge::sim::SimRng;

/// Random candidate set: a mix of task-only forwards (no data bytes),
/// sketch-hot blocks, and plain blocks, with workloads spanning from
/// trivial to far above `W_th`.
fn random_candidates(rng: &mut SimRng, n: usize) -> Vec<StealCandidate> {
    (0..n)
        .map(|i| {
            let task_only = rng.next_below(4) == 0;
            StealCandidate {
                key: i as u64,
                workload: rng.next_below(400),
                task_bytes: 8 + rng.next_below(120),
                data_bytes: if task_only { 0 } else { 306 },
                hot: rng.next_below(3) == 0,
            }
        })
        .collect()
}

/// Reference planner: repeatedly scan the whole candidate list for the
/// best-ranked candidate that still fits both budgets, pick it, and
/// repeat. Quadratic but obviously correct.
fn reference_plan(cands: &[StealCandidate], wl_budget: u64, byte_budget: u64) -> Vec<usize> {
    let mut picked = Vec::new();
    let mut taken = vec![false; cands.len()];
    let mut wl = 0u64;
    let mut bytes = 0u64;
    loop {
        if wl >= wl_budget {
            break;
        }
        let mut best: Option<usize> = None;
        for (i, c) in cands.iter().enumerate() {
            if taken[i] || c.workload == 0 {
                continue;
            }
            // Task-only candidates are byte-budget-exempt.
            if c.data_bytes != 0 && bytes.checked_add(c.bytes()).is_none_or(|b| b > byte_budget) {
                continue;
            }
            match best {
                None => best = Some(i),
                Some(b) => {
                    if ranks_better(c, &cands[b]) {
                        best = Some(i);
                    }
                }
            }
        }
        let Some(i) = best else { break };
        taken[i] = true;
        wl += cands[i].workload;
        if cands[i].data_bytes != 0 {
            bytes += cands[i].bytes();
        }
        picked.push(i);
    }
    picked
}

/// Total data-carrying bytes of a pick set (what the budget rations).
fn data_bytes_of(cands: &[StealCandidate], picks: &[usize]) -> u64 {
    picks
        .iter()
        .filter(|&&i| cands[i].data_bytes != 0)
        .map(|&i| cands[i].bytes())
        .sum()
}

#[test]
fn planner_never_exceeds_the_byte_budget() {
    let mut rng = SimRng::new(0xB0B);
    for trial in 0..200 {
        let n = 1 + rng.next_index(24);
        let cands = random_candidates(&mut rng, n);
        let wl_budget = 1 + rng.next_below(2000);
        let byte_budget = rng.next_below(4000);
        let picks = plan_steal(&cands, wl_budget, byte_budget);
        let spent = data_bytes_of(&cands, &picks);
        assert!(
            spent <= byte_budget,
            "trial {trial}: spent {spent} bytes over budget {byte_budget}"
        );
        // Picks are unique indices.
        let mut seen = picks.clone();
        seen.sort_unstable();
        seen.dedup();
        assert_eq!(seen.len(), picks.len(), "trial {trial}: duplicate picks");
    }
}

#[test]
fn planner_matches_the_reference_scan() {
    let mut rng = SimRng::new(0xCAFE);
    for trial in 0..200 {
        let n = 1 + rng.next_index(24);
        let cands = random_candidates(&mut rng, n);
        let wl_budget = 1 + rng.next_below(2000);
        let byte_budget = rng.next_below(4000);
        let fast = plan_steal(&cands, wl_budget, byte_budget);
        let slow = reference_plan(&cands, wl_budget, byte_budget);
        assert_eq!(
            fast, slow,
            "trial {trial}: planner diverged from the reference scan\ncands: {cands:?}\nwl_budget {wl_budget} byte_budget {byte_budget}"
        );
    }
}

#[test]
fn no_pick_is_ranked_strictly_worse_than_an_affordable_skip() {
    let mut rng = SimRng::new(0xDEAD);
    for trial in 0..200 {
        let n = 2 + rng.next_index(24);
        let cands = random_candidates(&mut rng, n);
        let wl_budget = 1 + rng.next_below(2000);
        let byte_budget = rng.next_below(4000);
        let picks = plan_steal(&cands, wl_budget, byte_budget);
        let picked: Vec<bool> = {
            let mut v = vec![false; cands.len()];
            for &i in &picks {
                v[i] = true;
            }
            v
        };
        // Replay the batch: at every pick, any *skipped* candidate that
        // ranks strictly better must have been unaffordable right then
        // (otherwise the planner chose a strictly worse task).
        let mut bytes = 0u64;
        for &i in &picks {
            for (j, other) in cands.iter().enumerate() {
                if picked[j] || other.workload == 0 {
                    continue;
                }
                if ranks_better(other, &cands[i]) {
                    let affordable = other.data_bytes == 0 || bytes + other.bytes() <= byte_budget;
                    assert!(
                        !affordable,
                        "trial {trial}: picked #{i} {:?} while affordable, strictly \
                         better #{j} {:?} was skipped",
                        cands[i], other
                    );
                }
            }
            if cands[i].data_bytes != 0 {
                bytes += cands[i].bytes();
            }
        }
    }
}

#[test]
fn byte_budget_scales_with_the_workload_budget() {
    // The W_th inversion: every W_th of stolen workload buys
    // STEAL_BUDGET_GXFER * g_xfer bytes, with a one-round floor.
    for w_th in [1u64, 13, 52, 500] {
        for wl in [0u64, 1, 51, 52, 53, 1000] {
            let b = steal_byte_budget(wl, w_th, 256);
            assert!(b >= 512, "one round is always granted");
            assert_eq!(b % 512, 0, "whole G_xfer rounds only");
            let rounds = wl.max(1).div_ceil(w_th.max(1));
            assert_eq!(b, (rounds * 512).max(512));
        }
    }
}
