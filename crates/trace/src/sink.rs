//! The bounded trace recorder the simulator deposits
//! [`TraceRecord`]s into.
//!
//! `ndpb-core`'s `System` holds an `Option<RingRecorder>` and is the
//! only caller of [`RingRecorder::record`]: with no recorder attached a
//! record site costs one `Option` branch.

use crate::event::TraceRecord;
use std::collections::VecDeque;

/// A bounded ring-buffer recorder: keeps the **most recent** `capacity`
/// records, counting (not storing) older overflow. Bounded so a traced
/// full-scale run cannot exhaust memory; the end of a run is where the
/// interesting tail (stragglers, final barriers) lives.
#[derive(Debug)]
pub struct RingRecorder {
    buf: VecDeque<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl RingRecorder {
    /// A recorder keeping at most `capacity` records (min 1).
    pub fn new(capacity: usize) -> Self {
        RingRecorder {
            buf: VecDeque::new(),
            capacity: capacity.max(1),
            dropped: 0,
        }
    }

    /// Deposits one record, evicting the oldest when full.
    pub fn record(&mut self, rec: TraceRecord) {
        if self.buf.len() == self.capacity {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(rec);
    }

    /// Drains everything held, oldest first.
    pub fn take_records(&mut self) -> Vec<TraceRecord> {
        self.buf.drain(..).collect()
    }

    /// How many records were evicted to stay within the bound.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{ComponentId, TraceEvent};
    use ndpb_sim::SimTime;

    fn rec(t: u64) -> TraceRecord {
        TraceRecord::instant(
            SimTime::from_ticks(t),
            ComponentId::Unit(0),
            TraceEvent::BankPrecharge,
        )
    }

    #[test]
    fn ring_keeps_most_recent_and_counts_drops() {
        let mut r = RingRecorder::new(3);
        for t in 0..10 {
            r.record(rec(t));
        }
        assert_eq!(r.dropped(), 7);
        let out = r.take_records();
        let ticks: Vec<u64> = out.iter().map(|x| x.at.ticks()).collect();
        assert_eq!(ticks, vec![7, 8, 9]);
        assert!(r.take_records().is_empty(), "taking drains the ring");
    }

    #[test]
    fn zero_capacity_clamps_to_one() {
        let mut r = RingRecorder::new(0);
        r.record(rec(1));
        r.record(rec(2));
        assert_eq!(r.take_records().len(), 1);
        assert_eq!(r.dropped(), 1);
    }
}
