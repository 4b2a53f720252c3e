//! # ndpbridge
//!
//! A from-scratch Rust reproduction of **NDPBridge: Enabling Cross-Bank
//! Coordination in Near-DRAM-Bank Processing Architectures** (Tian, Li,
//! Jiang, Cai, Gao — ISCA 2024).
//!
//! DRAM-bank NDP systems (e.g. UPMEM) put a wimpy core next to every
//! DRAM bank, but banks cannot talk to each other and the thousands of
//! units suffer severe load imbalance. NDPBridge adds hierarchical
//! *bridges* along the DRAM hierarchy that gather/scatter messages
//! between per-bank mailboxes using standard DDR commands, and builds a
//! hierarchical, data-transfer-aware load balancer on top.
//!
//! This facade crate re-exports the whole workspace:
//!
//! * [`sim`] — discrete-event kernel (time, events, RNG, fingerprints);
//! * [`dram`] — DRAM geometry/timing/bank/bus/energy substrates;
//! * [`proto`] — message formats, mailboxes, bridge DDR commands;
//! * [`sketch`] — hot-data sketch + reserved queue;
//! * [`tasks`] — the task-based message-passing programming model;
//! * [`trace`] — event tracing (Chrome `trace_event` output) and the
//!   hierarchical metrics registry;
//! * [`core`] — the full system model, design points and baselines;
//! * [`workloads`] — synthetic datasets and the eight applications;
//! * [`bench`] — the reproduction harness: the parallel sweep engine
//!   with its content-addressed result cache, plus the table/figure
//!   aggregation helpers behind the `repro` binary.
//!
//! # Quickstart
//!
//! ```
//! use ndpbridge::core::{config::SystemConfig, design::DesignPoint, System};
//! use ndpbridge::dram::Geometry;
//! use ndpbridge::workloads::{build_app, Scale};
//!
//! // A small system: one rank, 64 NDP units.
//! let mut cfg = SystemConfig::with_geometry(Geometry::with_total_ranks(1));
//! cfg.seed = 7;
//! let app = build_app("tree", &cfg.geometry, Scale::Tiny, 7);
//! let result = System::new(cfg, DesignPoint::O, app).run();
//! assert!(result.tasks_executed > 0);
//! println!("{}", result.row());
//! ```

#![warn(missing_docs)]

pub use ndpb_bench as bench;
pub use ndpb_core as core;
pub use ndpb_dram as dram;
pub use ndpb_proto as proto;
pub use ndpb_sim as sim;
pub use ndpb_sketch as sketch;
pub use ndpb_tasks as tasks;
pub use ndpb_trace as trace;
pub use ndpb_workloads as workloads;
