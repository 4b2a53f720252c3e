//! Hot-data identification for data-transfer-aware load balancing.
//!
//! Section VI-C of the paper: stealing tasks bound to *hot* data blocks
//! moves more work per migrated byte. Each NDP unit tracks per-block
//! accumulated task workload with a simplified HeavyGuardian-style
//! sketch ([`HotSketch`]): a set-associative array of buckets whose
//! entries hold `(block address, workload)`. On a miss with a full
//! bucket, the minimum entry decays with probability `b^-workload`
//! (b = [`sketch::DECAY_BASE`] = 1.08) and is replaced when its counter
//! underflows.
//!
//! The tasks associated with sketched blocks are parked in an in-DRAM
//! *reserved queue* ([`ReservedQueue`]) organized as linked chunk lists
//! of `G_xfer` bytes (1280 chunks ≈ 10 000 tasks per unit), so that when
//! a block is chosen for migration its tasks leave with it.

#![warn(missing_docs)]

pub mod reserved;
pub mod sketch;

pub use reserved::ReservedQueue;
pub use sketch::{HotSketch, SketchConfig};
