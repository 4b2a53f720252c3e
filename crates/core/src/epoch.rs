//! Bulk-synchronous epoch tracking.
//!
//! Tasks carry a [`Timestamp`](ndpb_tasks::Timestamp); tasks of epoch
//! `t+1` may only run after every epoch-`t` task in the *whole system*
//! has completed (Section IV). The tracker counts outstanding tasks per
//! epoch — a task is outstanding from the moment it is spawned (even
//! while in a mailbox or on a bus) until its execution finishes — and
//! reports when the barrier opens.

use std::collections::VecDeque;

use ndpb_tasks::Timestamp;

/// Counts outstanding tasks per epoch and drives the global barrier.
///
/// Epochs are dense small integers and tasks may only be spawned into
/// the current epoch or later, so the counts live in a `VecDeque`
/// indexed from `current` (slot 0 = the current epoch) instead of an
/// ordered map: the tracker is touched several times per task, and the
/// deque turns each of those tree walks into an index.
#[derive(Debug, Clone, Default)]
pub struct EpochTracker {
    current: u32,
    /// `outstanding[i]` = tasks pending in epoch `current + i`. A zero
    /// count is the same as "no such epoch".
    outstanding: VecDeque<u64>,
    /// Sum of `outstanding` (kept incrementally).
    total: u64,
}

impl EpochTracker {
    /// A tracker positioned at epoch 0 with nothing outstanding.
    pub fn new() -> Self {
        Self::default()
    }

    /// The epoch currently allowed to execute.
    pub fn current(&self) -> Timestamp {
        Timestamp(self.current)
    }

    /// Whether a task with timestamp `ts` may execute now.
    pub fn is_ready(&self, ts: Timestamp) -> bool {
        ts.0 <= self.current
    }

    /// Registers a newly spawned task.
    ///
    /// # Panics
    ///
    /// Panics if the task belongs to an epoch that has already fully
    /// completed (time travel).
    pub fn spawned(&mut self, ts: Timestamp) {
        assert!(
            ts.0 >= self.current,
            "spawned task for closed epoch {} (current {})",
            ts.0,
            self.current
        );
        let idx = (ts.0 - self.current) as usize;
        if idx >= self.outstanding.len() {
            self.outstanding.resize(idx + 1, 0);
        }
        self.outstanding[idx] += 1;
        self.total += 1;
        // If nothing is pending at the current epoch (e.g. an
        // application seeds only later epochs), fast-forward to the
        // earliest pending epoch so the barrier can open.
        while self.outstanding[0] == 0 {
            self.outstanding.pop_front();
            self.current += 1;
        }
    }

    /// Registers a task completion. Returns `Some(new_epoch)` when this
    /// completion closes the current epoch and a later epoch (with
    /// pending tasks) opens; returns `None` otherwise.
    ///
    /// # Panics
    ///
    /// Panics on unbalanced completion.
    pub fn completed(&mut self, ts: Timestamp) -> Option<Timestamp> {
        let idx =
            ts.0.checked_sub(self.current)
                .map(|d| d as usize)
                .filter(|&i| i < self.outstanding.len() && self.outstanding[i] > 0)
                .unwrap_or_else(|| panic!("completion for unknown epoch {}", ts.0));
        self.outstanding[idx] -= 1;
        self.total -= 1;
        if idx == 0 && self.outstanding[0] == 0 && self.total > 0 {
            // Current epoch drained: jump to the next epoch that has
            // outstanding tasks.
            while self.outstanding[0] == 0 {
                self.outstanding.pop_front();
                self.current += 1;
            }
            return Some(Timestamp(self.current));
        }
        None
    }

    /// Total outstanding tasks across all epochs.
    pub fn total_outstanding(&self) -> u64 {
        self.total
    }

    /// Whether every task in every epoch has completed.
    pub fn all_done(&self) -> bool {
        self.total == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn starts_at_zero() {
        let t = EpochTracker::new();
        assert_eq!(t.current(), Timestamp(0));
        assert!(t.all_done());
        assert!(t.is_ready(Timestamp(0)));
        assert!(!t.is_ready(Timestamp(1)));
    }

    #[test]
    fn barrier_opens_when_epoch_drains() {
        let mut t = EpochTracker::new();
        t.spawned(Timestamp(0));
        t.spawned(Timestamp(0));
        t.spawned(Timestamp(1));
        assert_eq!(t.completed(Timestamp(0)), None);
        assert!(!t.is_ready(Timestamp(1)));
        let opened = t.completed(Timestamp(0));
        assert_eq!(opened, Some(Timestamp(1)));
        assert!(t.is_ready(Timestamp(1)));
        assert_eq!(t.total_outstanding(), 1);
    }

    #[test]
    fn skips_empty_epochs() {
        let mut t = EpochTracker::new();
        t.spawned(Timestamp(0));
        t.spawned(Timestamp(5));
        assert_eq!(t.completed(Timestamp(0)), Some(Timestamp(5)));
        assert_eq!(t.current(), Timestamp(5));
    }

    #[test]
    fn completes_everything() {
        let mut t = EpochTracker::new();
        t.spawned(Timestamp(0));
        t.spawned(Timestamp(1));
        t.completed(Timestamp(0));
        assert!(!t.all_done());
        t.completed(Timestamp(1));
        assert!(t.all_done());
    }

    #[test]
    fn future_spawns_do_not_open_barrier_early() {
        let mut t = EpochTracker::new();
        t.spawned(Timestamp(0));
        t.spawned(Timestamp(2));
        t.spawned(Timestamp(2));
        assert_eq!(t.completed(Timestamp(0)), Some(Timestamp(2)));
        // Still in epoch 2 until both drain.
        assert_eq!(t.completed(Timestamp(2)), None);
        assert_eq!(t.completed(Timestamp(2)), None);
        assert!(t.all_done());
    }

    #[test]
    #[should_panic(expected = "closed epoch")]
    fn spawning_into_past_panics() {
        let mut t = EpochTracker::new();
        t.spawned(Timestamp(0));
        t.spawned(Timestamp(1));
        t.completed(Timestamp(0)); // moves to epoch 1
        t.spawned(Timestamp(0));
    }

    #[test]
    #[should_panic(expected = "unknown epoch")]
    fn unbalanced_completion_panics() {
        let mut t = EpochTracker::new();
        t.completed(Timestamp(0));
    }
}
