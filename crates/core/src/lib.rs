//! The NDPBridge system model.
//!
//! This crate assembles the substrates ([`ndpb_dram`], [`ndpb_proto`],
//! [`ndpb_sketch`], [`ndpb_tasks`]) into the full system the paper
//! evaluates:
//!
//! * [`config::SystemConfig`] — Table I parameters and sweep knobs;
//! * [`design::DesignPoint`] — the evaluated designs C/B/W/O plus the
//!   RowClone baseline R and the Figure 14a ablations;
//! * [`unit::NdpUnit`] — per-bank core, controller, queues, metadata;
//! * [`bridge`] — level-1 rank bridges and the level-2 host bridge;
//! * [`system::System`] — the discrete-event simulation binding it all:
//!   task execution, gather/scatter rounds, dynamic triggering and
//!   hierarchical data-transfer-aware load balancing;
//! * [`hostonly::HostOnly`] — the non-NDP host baseline **H**;
//! * [`result::RunResult`] — per-run metrics matching the paper's
//!   figures (makespan, average unit time, wait fraction, traffic,
//!   energy breakdown).

#![warn(missing_docs)]

pub mod audit;
pub mod bridge;
pub mod config;
pub mod design;
pub mod epoch;
pub mod fasthash;
pub mod hostonly;
pub mod metadata;
pub mod pool;
pub mod result;
pub mod steal;
pub mod system;
pub mod unit;

pub use audit::{AuditLevel, Violation};
pub use config::{SystemConfig, TriggerPolicy};
pub use design::{CommPath, DesignPoint, LbPolicy};
pub use pool::BufPool;
pub use result::{ProfileStats, RunResult};
pub use system::System;
