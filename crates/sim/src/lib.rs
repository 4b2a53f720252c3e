//! Discrete-event simulation kernel for the NDPBridge reproduction.
//!
//! This crate provides the substrate every other crate in the workspace is
//! built on:
//!
//! * [`SimTime`] — an integer simulation clock measured in *ticks*, where one
//!   tick is one DDR4-2400 half bus cycle (~0.4167 ns). An NDP core cycle at
//!   400 MHz is exactly [`TICKS_PER_CORE_CYCLE`] ticks, which keeps all
//!   timing arithmetic integral and deterministic.
//! * [`EventQueue`] — a generic priority queue of timestamped events with
//!   FIFO tie-breaking, the heart of the discrete-event engine. It is a
//!   two-tier timer wheel ([`events`]): [`WHEEL_SLOTS`] per-tick calendar
//!   buckets plus an overflow heap, which makes the common bounded-latency
//!   schedule/pop pattern `O(1)`.
//! * [`rng`] — a small, seedable SplitMix64/xoshiro RNG so simulations are
//!   reproducible without depending on `rand` in the hot path.
//! * [`fingerprint`] — a stable 64-bit FNV-1a hasher used to
//!   content-address sweep results (std's `DefaultHasher` is not stable
//!   across toolchains).
//! * [`fasthash`] — the fixed-seed multiply-rotate hasher behind the
//!   simulator's integer-keyed maps (`FastMap`, `FastSet`).
//!
//! # Example
//!
//! ```
//! use ndpb_sim::{EventQueue, SimTime};
//!
//! let mut q: EventQueue<&'static str> = EventQueue::new();
//! q.schedule(SimTime::from_ticks(10), "late");
//! q.schedule(SimTime::ZERO, "early");
//! let (t, ev) = q.pop().unwrap();
//! assert_eq!((t, ev), (SimTime::ZERO, "early"));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod events;
pub mod fasthash;
pub mod fingerprint;
pub mod rng;
pub mod time;

pub use events::{EventQueue, WHEEL_SLOTS};
pub use fingerprint::Fnv1a64;
pub use rng::SimRng;
pub use time::{SimTime, TICKS_PER_BUS_CYCLE, TICKS_PER_CORE_CYCLE};
