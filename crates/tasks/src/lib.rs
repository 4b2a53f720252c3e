//! The NDPBridge task-based message-passing programming model.
//!
//! Section IV of the paper: an application is decomposed into *tasks*,
//! each operating on exactly one data element (a graph vertex, a tree
//! node, a matrix row, …). A task carries a function selector, a
//! timestamp for bulk-synchronous execution, the physical address of its
//! data element, an optional workload estimate, and a few extra
//! arguments. Tasks are *pushed* to the unit holding their data element
//! (`enqueue_task` in the paper's API); they never pull remote data.
//!
//! This crate defines:
//!
//! * [`Task`], [`TaskFnId`], [`Timestamp`], [`TaskArgs`] — the task
//!   record, with its wire size for message accounting;
//! * [`TaskId`] — the 4-byte handle queues and messages carry in place
//!   of a task stored once in the simulator's arena;
//! * [`ExecCtx`] — the execution context handed to a running task, which
//!   records its compute cycles, DRAM accesses and spawned child tasks
//!   (the simulator turns those into timing);
//! * [`Application`] — the trait every workload implements.

#![warn(missing_docs)]

pub mod app;
pub mod task;

pub use app::{Application, ExecCtx};
pub use task::{Task, TaskArgs, TaskFnId, TaskId, Timestamp};
