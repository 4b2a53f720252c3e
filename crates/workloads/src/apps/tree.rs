//! Tree traversal (`tree`) — the paper's running example (Algorithm 1,
//! Figure 2).
//!
//! A forest of balanced binary search trees whose nodes are hash-
//! scattered across units: every step down a tree usually hops to
//! another unit, so `tree` is communication-heavy under the baseline.
//! Queries pick a tree with a Zipfian distribution (hot indexes) and a
//! uniform target inside it, so hot trees concentrate load on the
//! units that happen to host their nodes.

use ndpb_dram::Geometry;
use ndpb_sim::SimRng;
use ndpb_tasks::{Application, ExecCtx, Task, TaskArgs, TaskFnId, Timestamp};

use crate::apps::Sizes;
use crate::{Layout, Scale, Zipfian};

/// Cycles to compare keys and pick a child at one node.
const CYCLES_PER_NODE: u64 = 30;
/// Node record bytes (key, value, two child pointers).
const NODE_BYTES: u32 = 32;

/// Placement slots per chunk (64 KiB of `u32`s). Chunks this size fit
/// in heap that earlier points freed; one 4 MiB table (Tiny) is carved
/// above it and grows the heap (EXPERIMENTS.md "Peak memory: tree's
/// placement in chunks").
const CHUNK_SHIFT: u32 = 14;
const CHUNK: usize = 1 << CHUNK_SHIFT;

/// One chunk of the placement table. A fixed length lets indexing by
/// `i & (CHUNK - 1)` skip its bounds check.
type Chunk = Box<[u32; CHUNK]>;

/// How many steps ahead of its swap the shuffle draws each step's
/// random slot and prefetches it. Distances of 32–256 measured alike;
/// 8 and 16 hid less of the load (EXPERIMENTS.md "Set-up cost: tree's
/// shuffle draws ahead").
const DRAW_AHEAD: usize = 64;

/// The identity on `0..total`, Fisher–Yates shuffled exactly as
/// [`SimRng::shuffle`] shuffles a flat `Vec`: the same draws in the same
/// order, so the permutation and `rng`'s state afterwards are the same.
/// Slot `i` lives at `[i >> CHUNK_SHIFT][i & (CHUNK - 1)]`; the last
/// chunk's slots past `total` are never read.
fn shuffled_placement(total: usize, rng: &mut SimRng) -> Vec<Chunk> {
    let mut chunks: Vec<Chunk> = (0..total.div_ceil(CHUNK))
        .map(|c| {
            let base = (c * CHUNK) as u32;
            let slots: Vec<u32> = (base..base + CHUNK as u32).collect();
            slots.into_boxed_slice().try_into().expect("CHUNK slots")
        })
        .collect();
    // Swaps go through raw chunk pointers, with slot `i`'s chunk looked
    // up once per chunk: bounds-checked `chunks[c][o]` indexing, or a
    // lookup of `i`'s chunk per swap, made the shuffle 5–10% slower
    // (EXPERIMENTS.md "Peak memory: tree's placement in chunks").
    let ptrs: Vec<*mut u32> = chunks.iter_mut().map(|c| c.as_mut_ptr()).collect();
    // Step `k` draws `j = next_index(k + 1)` `DRAW_AHEAD` steps before
    // it swaps, and asks for slot `j`'s line then, so the swap's load of
    // the random slot no longer waits on memory. The draws depend on
    // nothing in the table, so they are the same calls in the same
    // order; only the swaps read the ring, and they run in step order.
    let mut draw = |k: usize| -> *mut u32 {
        let j = rng.next_index(k + 1);
        // SAFETY: `ptrs` holds `total.div_ceil(CHUNK)` chunks of `CHUNK`
        // slots, built above, and `j <= k < total`, so the pointer stays
        // inside its chunk.
        let slot_j = unsafe { ptrs.get_unchecked(j >> CHUNK_SHIFT).add(j & (CHUNK - 1)) };
        #[cfg(target_arch = "x86_64")]
        {
            use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
            // SAFETY: a prefetch reads nothing architecturally and
            // cannot fault; `slot_j` points into a live chunk anyway.
            unsafe { _mm_prefetch::<_MM_HINT_T0>(slot_j as *const i8) };
        }
        slot_j
    };
    // Step `k`'s slot waits in `ring[k % DRAW_AHEAD]` from its draw to
    // its swap; the first `DRAW_AHEAD` steps draw before any swap, and
    // each swap frees its entry for the step `DRAW_AHEAD` below it.
    let mut ring = [std::ptr::null_mut::<u32>(); DRAW_AHEAD];
    for k in (total.saturating_sub(DRAW_AHEAD).max(1)..total).rev() {
        ring[k % DRAW_AHEAD] = draw(k);
    }
    for (c, &chunk) in ptrs.iter().enumerate().rev() {
        let base = c << CHUNK_SHIFT;
        for i in (base.max(1)..total.min(base + CHUNK)).rev() {
            // SAFETY: step `i` was drawn, by the loop above or at step
            // `i + DRAW_AHEAD` of this one, so `ring[i % DRAW_AHEAD]`
            // holds its slot from `draw`, inside a chunk; `i - base <
            // CHUNK` keeps `i`'s pointer inside `chunk`. Nothing else
            // touches `chunks` while the pointers are in use, and
            // `ptr::swap` allows `i == j`.
            unsafe { std::ptr::swap(chunk.add(i - base), ring[i % DRAW_AHEAD]) };
            if i > DRAW_AHEAD {
                ring[i % DRAW_AHEAD] = draw(i - DRAW_AHEAD);
            }
        }
    }
    chunks
}

/// The `tree` workload: a forest of implicit balanced BSTs. Within a
/// tree, heap-node `i`'s children are `2i+1`/`2i+2`; placement of
/// (tree, node) pairs across units is a seeded pseudo-random
/// permutation.
#[derive(Debug)]
pub struct TreeTraversal {
    layout: Layout,
    /// Slot `tree * nodes_per_tree + node` holds the node's element,
    /// in chunks (see [`shuffled_placement`]).
    placement: Vec<Chunk>,
    trees: usize,
    nodes_per_tree: usize,
    /// Queries as (tree, target heap node).
    queries: Vec<(u32, u32)>,
    hits: u64,
    hops: u64,
}

impl TreeTraversal {
    /// Builds the forest and the Zipfian query stream.
    pub fn new(geometry: &Geometry, scale: Scale, seed: u64) -> Self {
        let s = Sizes::of(scale);
        // ~2 trees per unit; each tree deep enough for real traversals.
        let trees = (geometry.total_units() as usize * 2).max(8);
        let nodes_per_tree = ((s.elems_per_unit * 2).next_power_of_two() * 32 - 1).max(1023);
        let total = trees * nodes_per_tree;
        let mut rng = SimRng::new(seed);
        let placement = shuffled_placement(total, &mut rng);
        // θ=0.65 keeps hot indexes (units hosting hot-tree upper levels
        // are overloaded) without one tree's root serializing the run.
        let tree_zipf = Zipfian::new(trees as u64, 0.65);
        let node_zipf = Zipfian::new(nodes_per_tree as u64, 0.4);
        let queries: Vec<(u32, u32)> = (0..s.queries)
            .map(|_| {
                (
                    tree_zipf.sample(&mut rng) as u32,
                    node_zipf.sample(&mut rng) as u32,
                )
            })
            .collect();
        TreeTraversal {
            layout: Layout::new(geometry, total as u64, 64),
            placement,
            trees,
            nodes_per_tree,
            queries,
            hits: 0,
            hops: 0,
        }
    }

    fn addr_of_node(&self, tree: u32, heap_idx: u32) -> ndpb_dram::DataAddr {
        let i = tree as usize * self.nodes_per_tree + heap_idx as usize;
        let slot = self.placement[i >> CHUNK_SHIFT][i & (CHUNK - 1)];
        self.layout.addr_of(slot as u64)
    }

    /// Tree depth.
    pub fn depth(&self) -> u32 {
        (self.nodes_per_tree + 1).trailing_zeros()
    }

    /// Number of trees in the forest.
    pub fn trees(&self) -> usize {
        self.trees
    }

    /// Cross-unit hops taken so far.
    pub fn hops(&self) -> u64 {
        self.hops
    }
}

impl Application for TreeTraversal {
    fn name(&self) -> &str {
        "tree"
    }

    fn initial_tasks(&mut self) -> Vec<Task> {
        // Every query starts at its tree's root; args = (tree, current
        // node, target node).
        self.queries
            .iter()
            .map(|&(tree, target)| {
                Task::new(
                    TaskFnId(0),
                    Timestamp(0),
                    self.addr_of_node(tree, 0),
                    CYCLES_PER_NODE as u32,
                    TaskArgs::from_slice(&[tree as u64, 0, target as u64]),
                )
            })
            .collect()
    }

    fn execute(&mut self, task: &Task, ctx: &mut ExecCtx) {
        let tree = task.args.get(0) as u32;
        let cur = task.args.get(1) as u32;
        let target = task.args.get(2) as u32;
        ctx.compute(CYCLES_PER_NODE);
        ctx.read(task.data, NODE_BYTES);
        if cur == target {
            self.hits += 1;
            return;
        }
        // Descend toward `target`: find the child of `cur` on the
        // ancestor chain of `target` (repeated (i-1)/2 halving).
        let mut probe = target;
        let mut next = target;
        while probe != cur {
            next = probe;
            if probe == 0 {
                break;
            }
            probe = (probe - 1) / 2;
        }
        if probe != cur || next as usize >= self.nodes_per_tree {
            return; // not under cur — terminated miss
        }
        self.hops += 1;
        ctx.enqueue_task(
            TaskFnId(0),
            task.ts,
            self.addr_of_node(tree, next),
            CYCLES_PER_NODE as u32,
            TaskArgs::from_slice(&[tree as u64, next as u64, target as u64]),
        );
    }

    fn checksum(&self) -> u64 {
        self.hits
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_dram::UnitId;

    #[test]
    fn chunked_shuffle_matches_the_flat_shuffle() {
        let d = DRAW_AHEAD;
        for len in [
            0,
            1,
            2,
            d - 1,
            d,
            d + 1,
            CHUNK - 1,
            CHUNK,
            CHUNK + 1,
            CHUNK + d,
            3 * CHUNK + 5,
        ] {
            let mut flat_rng = SimRng::new(24301);
            let mut flat: Vec<u32> = (0..len as u32).collect();
            flat_rng.shuffle(&mut flat);
            let mut rng = SimRng::new(24301);
            let chunks = shuffled_placement(len, &mut rng);
            let slots: Vec<u32> = chunks.iter().flat_map(|c| c.iter().copied()).collect();
            assert_eq!(chunks.len(), len.div_ceil(CHUNK), "len {len}");
            assert!(slots[..len] == flat[..], "len {len}: permutations differ");
            assert_eq!(rng, flat_rng, "len {len}: generator states differ");
        }
    }

    #[test]
    fn every_query_eventually_hits() {
        let g = Geometry::with_total_ranks(1);
        let mut app = TreeTraversal::new(&g, Scale::Tiny, 7);
        let mut frontier = app.initial_tasks();
        let total = frontier.len() as u64;
        let mut steps = 0u64;
        while let Some(t) = frontier.pop() {
            let mut ctx = ExecCtx::new(UnitId(0));
            app.execute(&t, &mut ctx);
            frontier.extend(ctx.into_spawned());
            steps += 1;
            assert!(steps < 10_000_000, "runaway traversal");
        }
        assert_eq!(
            app.checksum(),
            total,
            "every query must terminate at its node"
        );
        assert!(app.hops() > total, "queries must descend multiple levels");
    }

    #[test]
    fn paths_cross_units() {
        let g = Geometry::table1();
        let mut app = TreeTraversal::new(&g, Scale::Tiny, 7);
        let tasks = app.initial_tasks();
        let mut crossings = 0;
        let mut total = 0;
        for t0 in tasks.iter().take(100) {
            let mut ctx = ExecCtx::new(UnitId(0));
            let first_unit = app.layout.unit_of(app.layout.element_of(t0.data));
            app.execute(t0, &mut ctx);
            if let Some(child) = ctx.spawned().first() {
                total += 1;
                let next_unit = app.layout.unit_of(app.layout.element_of(child.data));
                if next_unit != first_unit {
                    crossings += 1;
                }
            }
        }
        assert!(
            crossings * 10 > total * 8,
            "{crossings}/{total} hops cross units"
        );
    }

    #[test]
    fn queries_are_skewed_across_trees() {
        let g = Geometry::table1();
        let app = TreeTraversal::new(&g, Scale::Tiny, 7);
        let mut counts = vec![0u32; app.trees()];
        for &(t, _) in &app.queries {
            counts[t as usize] += 1;
        }
        let max = *counts.iter().max().unwrap();
        let avg = app.queries.len() as u32 / app.trees() as u32;
        assert!(max > 10 * avg.max(1), "max {max} vs avg {avg}");
    }

    #[test]
    fn depth_is_logarithmic() {
        let g = Geometry::with_total_ranks(1);
        let app = TreeTraversal::new(&g, Scale::Tiny, 7);
        assert!(app.depth() >= 9, "depth {}", app.depth());
    }

    #[test]
    fn deterministic() {
        let g = Geometry::table1();
        let mut a = TreeTraversal::new(&g, Scale::Tiny, 7);
        let mut b = TreeTraversal::new(&g, Scale::Tiny, 7);
        assert_eq!(a.initial_tasks(), b.initial_tasks());
    }
}
