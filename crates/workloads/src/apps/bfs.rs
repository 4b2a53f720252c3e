//! Breadth-first search (`bfs`), level-synchronous push-based.
//!
//! Each timestamp is one BFS level: a visited vertex pushes tasks to
//! all its neighbors at `ts+1`. Tasks on already-visited vertices are
//! cheap no-ops (the cost of the push model). R-MAT hubs make both the
//! communication and the per-unit load highly skewed.

use ndpb_dram::Geometry;
use ndpb_tasks::{Application, ExecCtx, Task, TaskArgs, TaskFnId, Timestamp};

use crate::apps::Sizes;
use crate::{Graph, Layout, Scale};

/// Cycles of fixed per-task work (visited check, level update).
const BASE_CYCLES: u64 = 20;
/// Cycles per pushed edge.
const CYCLES_PER_EDGE: u64 = 4;
/// Vertex record bytes.
const VERTEX_BYTES: u32 = 16;

/// The `bfs` workload.
#[derive(Debug)]
pub struct Bfs {
    graph: Graph,
    layout: Layout,
    level: Vec<u32>,
    source: u32,
}

impl Bfs {
    /// Builds an R-MAT graph and roots the search at its max-degree
    /// vertex (guaranteeing a large traversal).
    pub fn new(geometry: &Geometry, scale: Scale, seed: u64) -> Self {
        let s = Sizes::of(scale);
        let n = 1usize << s.graph_scale;
        let graph = Graph::rmat_with_locality(s.graph_scale, n * s.edge_factor, 0.4, seed);
        let source = (0..n as u32)
            .max_by_key(|&v| graph.degree(v))
            .expect("non-empty graph");
        Bfs {
            layout: Layout::new(geometry, n as u64, 64),
            level: vec![u32::MAX; n],
            graph,
            source,
        }
    }

    /// Vertices reached so far.
    pub fn visited(&self) -> usize {
        self.level.iter().filter(|&&l| l != u32::MAX).count()
    }
}

impl Application for Bfs {
    fn name(&self) -> &str {
        "bfs"
    }

    fn initial_tasks(&mut self) -> Vec<Task> {
        vec![Task::new(
            TaskFnId(0),
            Timestamp(0),
            self.layout.addr_of(self.source as u64),
            (BASE_CYCLES + self.graph.degree(self.source) as u64 * CYCLES_PER_EDGE) as u32,
            TaskArgs::one(self.source as u64),
        )]
    }

    fn execute(&mut self, task: &Task, ctx: &mut ExecCtx) {
        let v = task.args.get(0) as u32;
        ctx.compute(BASE_CYCLES);
        ctx.read(task.data, VERTEX_BYTES);
        if self.level[v as usize] <= task.ts.0 {
            return; // already visited at an earlier or equal level
        }
        self.level[v as usize] = task.ts.0;
        ctx.write(task.data, 8);
        let deg = self.graph.degree(v) as u64;
        ctx.compute(deg * CYCLES_PER_EDGE);
        ctx.read(task.data, (deg as u32 * 4).min(4096));
        for &u in self.graph.neighbors(v) {
            // Push to every neighbor: a unit cannot see another unit's
            // visited bits, so duplicate pushes are part of the model.
            ctx.enqueue_task(
                TaskFnId(0),
                task.ts.next(),
                self.layout.addr_of(u as u64),
                (BASE_CYCLES + self.graph.degree(u) as u64 * CYCLES_PER_EDGE) as u32,
                TaskArgs::one(u as u64),
            );
        }
    }

    fn checksum(&self) -> u64 {
        self.level
            .iter()
            .filter(|&&l| l != u32::MAX)
            .map(|&l| l as u64 + 1)
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_dram::UnitId;

    fn run_serial(app: &mut Bfs) {
        // Serially drain the task graph with a strict epoch barrier.
        let mut current = app.initial_tasks();
        let mut next: Vec<Task> = Vec::new();
        while !current.is_empty() {
            for t in current.drain(..) {
                let mut ctx = ExecCtx::new(UnitId(0));
                app.execute(&t, &mut ctx);
                next.extend(ctx.into_spawned());
            }
            std::mem::swap(&mut current, &mut next);
        }
    }

    #[test]
    fn reaches_most_of_the_giant_component() {
        let g = Geometry::with_total_ranks(1);
        let mut app = Bfs::new(&g, Scale::Tiny, 3);
        run_serial(&mut app);
        let n = app.graph.vertices();
        assert!(app.visited() > n / 4, "visited {} of {n}", app.visited());
        assert!(app.checksum() > 0);
    }

    #[test]
    fn source_is_level_zero() {
        let g = Geometry::with_total_ranks(1);
        let mut app = Bfs::new(&g, Scale::Tiny, 3);
        run_serial(&mut app);
        assert_eq!(app.level[app.source as usize], 0);
    }

    #[test]
    fn levels_are_consistent_with_edges() {
        let g = Geometry::with_total_ranks(1);
        let mut app = Bfs::new(&g, Scale::Tiny, 3);
        run_serial(&mut app);
        // For every edge (v,u) with v visited, level[u] <= level[v]+1.
        for v in 0..app.graph.vertices() as u32 {
            let lv = app.level[v as usize];
            if lv == u32::MAX {
                continue;
            }
            for &u in app.graph.neighbors(v) {
                assert!(
                    app.level[u as usize] <= lv + 1,
                    "edge ({v},{u}) violates BFS levels"
                );
            }
        }
    }
}
