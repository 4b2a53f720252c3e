//! The one run loop both models share.
//!
//! [`System`](crate::System) and [`HostOnly`](crate::hostonly::HostOnly)
//! each implement [`Model`]: start-up, an event handler, conservation
//! laws and a result. [`run`] owns the rest: the batched `pop_run` loop,
//! the event watchdog, the phase profiler, the epoch and final audits,
//! and the check that the queue did not drain with tasks outstanding.

use std::time::Instant;

use ndpb_sim::EventQueue;

use crate::audit::{AuditLevel, Violation};
use crate::epoch::EpochTracker;
use crate::result::{ProfileStats, RunResult};

/// Hard event cap: a correctness watchdog against livelock, far above
/// anything a legitimate run needs.
const MAX_EVENTS: u64 = 2_000_000_000;

/// A simulation model [`run`] can drive.
pub(crate) trait Model {
    /// The event its queue carries.
    type Ev;
    /// Seeds the queue: the initial tasks and any periodic timers.
    fn start(&mut self);
    /// Handles one event, at the queue's current time.
    fn dispatch(&mut self, ev: Self::Ev);
    /// Sees each batch before its first event is dispatched.
    fn prefetch(&self, _batch: &[Self::Ev]) {}
    /// The conservation-law violations (see [`crate::audit`]), read
    /// between batches without changing any state.
    fn violations(&self) -> Vec<Violation>;
    /// The result of a drained run, less `events` and `profile`.
    fn finish(self) -> RunResult;
    fn queue(&mut self) -> &mut EventQueue<Self::Ev>;
    fn epochs(&self) -> &EpochTracker;
    fn audit_level(&self) -> AuditLevel;
    /// The profile armed by `set_profile`, if any.
    fn take_profile(&mut self) -> Option<ProfileStats>;
    /// "design on app", for failure messages.
    fn who(&self) -> String;
}

/// Runs `m` to completion and returns its result.
///
/// # Panics
///
/// Panics if the watchdog trips, if an audit finds a violation, or if
/// the queue drains with tasks outstanding.
pub(crate) fn run<M: Model>(mut m: M) -> RunResult {
    let mut profile = m.take_profile();
    m.start();
    let audit = m.audit_level();
    // Batched same-tick dispatch, byte-identical to single pops by the
    // `pop_run` contract (DESIGN.md §3c). The phase profiler is a
    // per-batch hook, so a profiled run takes this same loop.
    let mut batch = Vec::with_capacity(64);
    // Epoch audits run between batches: inside a handler the rest of
    // its batch is neither queued nor delivered, so the scan would miss
    // it. A batch closes at most one epoch (a task of the next epoch
    // cannot finish in the batch that opens it), so each barrier still
    // gets exactly one audit under its own label.
    let mut audited = m.epochs().current();
    loop {
        let t0 = profile.is_some().then(Instant::now);
        let popped = m.queue().pop_run(&mut batch).is_some();
        if let (Some(p), Some(t0)) = (profile.as_mut(), t0) {
            p.queue_ns += t0.elapsed().as_nanos() as u64;
        }
        if !popped {
            break;
        }
        assert!(
            m.queue().popped() < MAX_EVENTS,
            "event watchdog tripped: likely livelock in {}",
            m.who()
        );
        m.prefetch(&batch);
        let t1 = profile.as_mut().map(|p| {
            p.note_batch(batch.len());
            Instant::now()
        });
        for ev in batch.drain(..) {
            m.dispatch(ev);
        }
        if let (Some(p), Some(t1)) = (profile.as_mut(), t1) {
            p.dispatch_ns += t1.elapsed().as_nanos() as u64;
        }
        if audit.at_epochs() && m.epochs().current() != audited {
            audited = m.epochs().current();
            check(&m, &format!("epoch-{}", audited.0));
        }
    }
    assert!(
        m.epochs().all_done(),
        "simulation drained its event queue with {} tasks outstanding ({})",
        m.epochs().total_outstanding(),
        m.who()
    );
    let finalize_start = profile.is_some().then(Instant::now);
    if audit.at_end() {
        check(&m, "final");
    }
    let events = m.queue().popped();
    let mut result = m.finish();
    result.events = events;
    result.profile = profile.map(|mut p| {
        p.finalize_ns = finalize_start.map_or(0, |t| t.elapsed().as_nanos() as u64);
        p
    });
    result
}

/// Runs one audit scan and panics with the violation list if any law
/// fails.
fn check<M: Model>(m: &M, label: &str) {
    let violations = m.violations();
    if violations.is_empty() {
        return;
    }
    let mut msg = format!(
        "conservation audit failed at {label} ({}, {} violation(s)):",
        m.who(),
        violations.len()
    );
    for v in violations.iter().take(20) {
        msg.push_str("\n  ");
        msg.push_str(&v.to_string());
    }
    panic!("{msg}");
}
