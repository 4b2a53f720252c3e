//! Mailbox ring buffers.
//!
//! Each NDP unit statically reserves a *mailbox region* in its local DRAM
//! bank (1 MB in Table I) holding outgoing messages as a ring buffer; the
//! unit controller keeps the head/tail pointers. When the region is full
//! the next enqueue stalls the core (Section V-A). Level-1 bridges keep a
//! similar (128 kB SRAM) mailbox for messages headed to other ranks.

use std::collections::VecDeque;

use crate::message::Message;

/// A bounded FIFO of outgoing messages, accounted in wire bytes.
///
/// # Example
///
/// ```
/// use ndpb_proto::{Mailbox, Message, TaskMessage};
/// use ndpb_tasks::{Task, TaskArgs, TaskFnId, TaskId, Timestamp};
/// use ndpb_dram::DataAddr;
///
/// let mut mb = Mailbox::new(1 << 20);
/// let task = Task::new(TaskFnId(0), Timestamp(0), DataAddr(0), 1, TaskArgs::EMPTY);
/// let msg = Message::Task(TaskMessage::new(TaskId(0), &task), None);
/// assert!(mb.try_push(msg).is_none());
/// assert!(mb.bytes_used() > 0);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Mailbox {
    queue: VecDeque<Message>,
    capacity_bytes: u64,
    used_bytes: u64,
    /// High-water mark of used bytes, for buffer-sizing reports.
    peak_bytes: u64,
    /// Count of enqueues rejected because the region was full.
    stalls: u64,
    /// Set by the first rejected enqueue of a full episode, cleared when
    /// space frees (see [`full_latched`](Self::full_latched)).
    full_latched: bool,
}

impl Mailbox {
    /// Creates a mailbox of `capacity_bytes`.
    pub fn new(capacity_bytes: u64) -> Self {
        Mailbox {
            queue: VecDeque::new(),
            capacity_bytes,
            used_bytes: 0,
            peak_bytes: 0,
            stalls: 0,
            full_latched: false,
        }
    }

    /// Appends a message to the tail. If it does not fit, records a
    /// stall and hands the message back unchanged (the caller parks it
    /// and retries after the next gather); the mailbox is unchanged.
    pub fn try_push(&mut self, msg: Message) -> Option<Message> {
        let needed = msg.wire_bytes();
        if (needed as u64) > self.capacity_bytes - self.used_bytes {
            self.stalls += 1;
            self.full_latched = true;
            return Some(msg);
        }
        self.used_bytes += needed as u64;
        self.peak_bytes = self.peak_bytes.max(self.used_bytes);
        self.queue.push_back(msg);
        self.full_latched = false;
        None
    }

    /// Pops messages from the head until up to `budget_bytes` have been
    /// drained (at least one message if any is pending, matching the
    /// fixed `G_xfer` gather granularity which always moves a full slot).
    pub fn drain_up_to(&mut self, budget_bytes: u32) -> Vec<Message> {
        let mut out = Vec::new();
        self.drain_up_to_into(budget_bytes, &mut out);
        out
    }

    /// Like [`drain_up_to`](Self::drain_up_to), but appends into a
    /// caller-provided buffer so the hot gather path can recycle one
    /// allocation across rounds. Returns the number of messages drained.
    pub fn drain_up_to_into(&mut self, budget_bytes: u32, out: &mut Vec<Message>) -> usize {
        let start = out.len();
        let mut drained = 0u32;
        while let Some(front) = self.queue.front() {
            let sz = front.wire_bytes();
            if drained != 0 && drained + sz > budget_bytes {
                break;
            }
            drained += sz;
            self.used_bytes -= sz as u64;
            out.push(self.queue.pop_front().expect("front exists"));
            if drained >= budget_bytes {
                break;
            }
        }
        if drained != 0 {
            self.full_latched = false;
        }
        out.len() - start
    }

    /// Bytes currently queued (the paper's `L_mailbox`).
    pub fn bytes_used(&self) -> u64 {
        self.used_bytes
    }

    /// Peak bytes ever queued.
    pub fn peak_bytes(&self) -> u64 {
        self.peak_bytes
    }

    /// Capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity_bytes
    }

    /// Number of rejected enqueues.
    pub fn stalls(&self) -> u64 {
        self.stalls
    }

    /// Whether a full episode is open: an enqueue was rejected and no
    /// enqueue has succeeded, nor a drain freed space, since. A caller
    /// that notes stalls once per episode reads this *before* pushing.
    pub fn full_latched(&self) -> bool {
        self.full_latched
    }

    /// Number of queued messages.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// Whether the mailbox is empty.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Iterates over queued messages head-first (for tests/inspection).
    pub fn iter(&self) -> impl Iterator<Item = &Message> {
        self.queue.iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::message::{DataMessage, TaskMessage};
    use ndpb_dram::{BlockAddr, DataAddr, UnitId};
    use ndpb_tasks::{Task, TaskArgs, TaskFnId, TaskId, Timestamp};

    fn task_msg() -> Message {
        let task = Task::new(TaskFnId(0), Timestamp(0), DataAddr(0), 1, TaskArgs::EMPTY);
        Message::Task(TaskMessage::new(TaskId(0), &task), None)
    }

    fn data_msg(bytes: u32) -> Message {
        Message::Data(
            DataMessage {
                block: BlockAddr(0),
                bytes,
                workload: 1,
            },
            UnitId(0),
        )
    }

    #[test]
    fn push_and_drain_fifo() {
        let mut mb = Mailbox::new(4096);
        assert!(mb.try_push(task_msg()).is_none());
        assert!(mb.try_push(data_msg(64)).is_none());
        let all = mb.drain_up_to(4096);
        assert_eq!(all.len(), 2);
        assert!(all[0].is_task());
        assert!(all[1].is_data());
        assert!(mb.is_empty());
        assert_eq!(mb.bytes_used(), 0);
    }

    #[test]
    fn full_mailbox_rejects_and_counts_stall() {
        let sz = task_msg().wire_bytes() as u64;
        let mut mb = Mailbox::new(sz);
        assert!(mb.try_push(task_msg()).is_none());
        assert_eq!(mb.try_push(task_msg()), Some(task_msg()));
        assert_eq!(mb.capacity() - mb.bytes_used(), 0);
        assert_eq!(mb.stalls(), 1);
        assert_eq!(mb.len(), 1);
    }

    #[test]
    fn drain_respects_budget_but_moves_at_least_one() {
        let mut mb = Mailbox::new(1 << 20);
        for _ in 0..10 {
            assert!(mb.try_push(task_msg()).is_none());
        }
        let one_size = task_msg().wire_bytes();
        // A budget smaller than one message still drains one (the gather
        // slot always moves a full G_xfer window).
        let got = mb.drain_up_to(1);
        assert_eq!(got.len(), 1);
        // A budget of 3 messages drains exactly 3.
        let got = mb.drain_up_to(3 * one_size);
        assert_eq!(got.len(), 3);
        assert_eq!(mb.len(), 6);
    }

    #[test]
    fn peak_tracks_high_water() {
        let mut mb = Mailbox::new(1 << 20);
        assert!(mb.try_push(data_msg(256)).is_none());
        let peak = mb.bytes_used();
        mb.drain_up_to(u32::MAX);
        assert_eq!(mb.peak_bytes(), peak);
        assert_eq!(mb.bytes_used(), 0);
    }

    #[test]
    fn iter_sees_queue_order() {
        let mut mb = Mailbox::new(1 << 20);
        assert!(mb.try_push(task_msg()).is_none());
        assert!(mb.try_push(data_msg(8)).is_none());
        let kinds: Vec<bool> = mb.iter().map(|m| m.is_task()).collect();
        assert_eq!(kinds, vec![true, false]);
    }
}
