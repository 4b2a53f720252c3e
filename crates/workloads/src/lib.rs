//! Workloads: synthetic datasets and the paper's eight applications.
//!
//! Section VII evaluates linked-list traversal (`ll`), hash table
//! (`ht`), tree traversal (`tree`), SpMV (`spmv`), BFS (`bfs`), SSSP
//! (`sssp`), PageRank (`pr`) and weakly-connected components (`wcc`),
//! ported to the task-based message-passing model.
//!
//! The paper uses SNAP graphs, SuiteSparse matrices and Zipfian query
//! streams. Real datasets are unavailable offline, so we generate
//! seeded synthetic equivalents that preserve the properties the paper
//! relies on — degree skew (R-MAT), nnz skew (power-law rows) and
//! query skew (Zipf) — as documented in `DESIGN.md`.
//!
//! [`build_app`] is the factory the harness and examples use.

#![warn(missing_docs)]

pub mod apps;
pub mod graph;
pub mod layout;
pub mod matrix;
pub mod zipf;

pub use graph::Graph;
pub use layout::Layout;
pub use matrix::SparseMatrix;
pub use zipf::Zipfian;

use ndpb_dram::Geometry;
use ndpb_tasks::Application;

/// Workload scale presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// Seconds-fast sizes for unit/integration tests.
    Tiny,
    /// Default sizes for Criterion benches.
    Small,
    /// Paper-reproduction sizes for the `repro` harness.
    Full,
}

/// The eight applications, in the paper's order.
pub const APP_NAMES: [&str; 8] = ["ll", "ht", "tree", "spmv", "bfs", "sssp", "pr", "wcc"];

/// Additional workloads beyond the paper's evaluation: `stencil` is the
/// Section IV programming-model example (push-based multi-element
/// tasks) and doubles as a low-skew control.
pub const EXTRA_APP_NAMES: [&str; 1] = ["stencil"];

/// Whether `name` is one of [`APP_NAMES`] or [`EXTRA_APP_NAMES`], the
/// names [`build_app`] accepts.
pub fn known_app(name: &str) -> bool {
    APP_NAMES
        .iter()
        .chain(EXTRA_APP_NAMES.iter())
        .any(|&a| a == name)
}

/// Builds an application by name for the given geometry and scale.
///
/// # Panics
///
/// Panics on an unknown application name.
pub fn build_app(name: &str, geometry: &Geometry, scale: Scale, seed: u64) -> Box<dyn Application> {
    match name {
        "ll" => Box::new(apps::ll::LinkedList::new(geometry, scale, seed)),
        "ht" => Box::new(apps::ht::HashTable::new(geometry, scale, seed)),
        "tree" => Box::new(apps::tree::TreeTraversal::new(geometry, scale, seed)),
        "spmv" => Box::new(apps::spmv::Spmv::new(geometry, scale, seed)),
        "bfs" => Box::new(apps::bfs::Bfs::new(geometry, scale, seed)),
        "sssp" => Box::new(apps::sssp::Sssp::new(geometry, scale, seed)),
        "pr" => Box::new(apps::pr::PageRank::new(geometry, scale, seed)),
        "wcc" => Box::new(apps::wcc::Wcc::new(geometry, scale, seed)),
        "stencil" => Box::new(apps::stencil::Stencil::new(geometry, scale, seed)),
        other => panic!("unknown application {other:?}"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factory_builds_all_apps() {
        let g = Geometry::table1();
        for name in APP_NAMES.iter().chain(EXTRA_APP_NAMES.iter()).copied() {
            let mut app = build_app(name, &g, Scale::Tiny, 1);
            assert_eq!(app.name(), name);
            assert!(!app.initial_tasks().is_empty(), "{name}");
        }
    }

    #[test]
    #[should_panic(expected = "unknown application")]
    fn unknown_app_panics() {
        build_app("nope", &Geometry::table1(), Scale::Tiny, 1);
    }
}
