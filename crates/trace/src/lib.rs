//! Structured event tracing and metrics for the NDPBridge simulator.
//!
//! A simulation run is observed through two lenses. The metrics
//! registry counts every simulated event once, at its site, and
//! snapshots the whole table at each epoch barrier: it answers *how
//! much*, epoch by epoch. The event trace answers *when*: a mailbox
//! stall riding out a GATHER round, or a SCHEDULE migration landing just
//! before an epoch barrier.
//!
//! * [`event`] — typed [`TraceEvent`]s (bank activates, bus transfers,
//!   bridge GATHER/SCATTER/STATE-GATHER/SCHEDULE rounds, mailbox
//!   enqueue/full, task execution, migrations, epoch barriers), each
//!   stamped with a [`SimTime`](ndpb_sim::SimTime) and a [`ComponentId`].
//! * [`sink`] — the bounded [`RingRecorder`]. `ndpb-core`'s `System`
//!   is the only component that records: it knows every component's
//!   id, and with no recorder attached each record site costs one
//!   branch. The DRAM, bus and mailbox models stay trace-free.
//! * [`chrome`] — a hand-rolled (serde-free) Chrome `trace_event` JSON
//!   writer; the output opens directly in `chrome://tracing` or
//!   [Perfetto](https://ui.perfetto.dev).
//! * [`metrics`] — a hierarchical [`MetricsRegistry`], the single home
//!   of a run's counters, with per-epoch snapshotting for time-series
//!   output.
//!
//! The crate depends only on `ndpb-sim` (for `SimTime`); no external
//! dependencies, so the workspace builds fully offline.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod chrome;
pub mod event;
pub mod metrics;
pub mod sink;

pub use chrome::{chrome_trace_string, write_chrome_trace};
pub use event::{ComponentId, TraceEvent, TraceRecord};
pub use metrics::{MetricId, MetricsRegistry, MetricsReport, MetricsSnapshot, SharedMetrics};
pub use sink::RingRecorder;
