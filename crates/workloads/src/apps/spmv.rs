//! Sparse matrix–vector multiplication (`spmv`).
//!
//! Rows are distributed contiguously across units and each unit holds
//! the vector entries its rows need (the paper's data interleaving
//! assumption), so the baseline needs no communication; the power-law
//! nnz distribution creates the load imbalance.

use ndpb_dram::Geometry;
use ndpb_tasks::{Application, ExecCtx, Task, TaskArgs, TaskFnId, Timestamp};

use crate::apps::Sizes;
use crate::{Layout, Scale, SparseMatrix};

/// Cycles per nonzero (multiply-accumulate + index handling).
const CYCLES_PER_NNZ: u64 = 8;
/// Bytes per nonzero (column index + value).
const BYTES_PER_NNZ: u32 = 12;

/// The `spmv` workload: one task per matrix row.
#[derive(Debug)]
pub struct Spmv {
    layout: Layout,
    matrix: SparseMatrix,
    macs: u64,
}

impl Spmv {
    /// Builds the matrix (`rows_per_unit` rows per unit, Zipf-skewed
    /// nnz) and the per-row task list.
    pub fn new(geometry: &Geometry, scale: Scale, seed: u64) -> Self {
        let s = Sizes::of(scale);
        let rows = geometry.total_units() as usize * s.spmv_rows_per_unit;
        let nnz = rows * s.spmv_nnz_per_row;
        // Cap the longest row at 32x the average nnz so a single
        // row-task cannot serialize the run.
        let cap = (32 * s.spmv_nnz_per_row) as u64;
        let matrix = SparseMatrix::power_law_capped(rows, rows, nnz, 0.95, cap, seed);
        Spmv {
            // A row element: its nonzeros, capped to a 256 B block for
            // migration (longer rows stream from the same bank region).
            layout: Layout::new(geometry, rows as u64, 256),
            matrix,
            macs: 0,
        }
    }

    /// The generated matrix.
    pub fn matrix(&self) -> &SparseMatrix {
        &self.matrix
    }
}

impl Application for Spmv {
    fn name(&self) -> &str {
        "spmv"
    }

    fn initial_tasks(&mut self) -> Vec<Task> {
        (0..self.matrix.rows())
            .map(|r| {
                let nnz = self.matrix.row_nnz(r).max(1) as u64;
                Task::new(
                    TaskFnId(0),
                    Timestamp(0),
                    self.layout.addr_of(r as u64),
                    (nnz * CYCLES_PER_NNZ) as u32,
                    TaskArgs::EMPTY,
                )
            })
            .collect()
    }

    fn execute(&mut self, task: &Task, ctx: &mut ExecCtx) {
        let r = self.layout.element_of(task.data) as usize;
        let nnz = self.matrix.row_nnz(r).max(1) as u64;
        ctx.compute(nnz * CYCLES_PER_NNZ);
        ctx.read(task.data, (nnz as u32 * BYTES_PER_NNZ).min(4096));
        ctx.write(task.data, 8); // result element
        self.macs += nnz;
    }

    fn checksum(&self) -> u64 {
        self.macs
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_dram::UnitId;

    #[test]
    fn one_task_per_row() {
        let g = Geometry::table1();
        let mut app = Spmv::new(&g, Scale::Tiny, 1);
        let tasks = app.initial_tasks();
        assert_eq!(tasks.len(), app.matrix.rows());
    }

    #[test]
    fn workload_tracks_nnz() {
        let g = Geometry::table1();
        let mut app = Spmv::new(&g, Scale::Tiny, 1);
        let tasks = app.initial_tasks();
        let heavy = tasks.iter().map(|t| t.est_workload).max().unwrap();
        let light = tasks.iter().map(|t| t.est_workload).min().unwrap();
        assert!(heavy > 10 * light, "nnz skew must show in estimates");
    }

    #[test]
    fn executing_all_rows_counts_all_macs() {
        let g = Geometry::with_total_ranks(1);
        let mut app = Spmv::new(&g, Scale::Tiny, 1);
        let tasks = app.initial_tasks();
        for t in &tasks {
            let mut ctx = ExecCtx::new(UnitId(0));
            app.execute(&t.clone(), &mut ctx);
            assert!(ctx.spawned().is_empty());
        }
        assert!(app.checksum() as usize >= app.matrix.nnz());
    }
}
