//! Message formats (Figure 5).

use ndpb_dram::{BlockAddr, UnitId};
use ndpb_tasks::Task;

/// Maximum size of one (sub-)message on the wire, including its header.
pub const MAX_MESSAGE_BYTES: u32 = 64;

/// Header bytes of every message: type + index fields (Figure 5).
pub const MESSAGE_HEADER_BYTES: u32 = 2;

/// A data message: one `G_xfer`-sized block being lent to another unit
/// for data-first load balancing. On the wire it is split into
/// `ceil(payload / (64 - header))` sub-messages.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DataMessage {
    /// The migrating block (identified by its *original* address; the
    /// receiver remaps it into its borrowed data region).
    pub block: BlockAddr,
    /// Payload bytes (normally `G_xfer`).
    pub bytes: u32,
    /// Cumulative workload of the tasks associated with this block, as
    /// reported by the giver's sketch; lets the bridge debit budgets.
    pub workload: u64,
}

/// Any message travelling between units and bridges through their
/// mailboxes.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A task pushed to the unit holding its data element.
    /// `Some(receiver)` marks tasks moved by load balancing toward that
    /// intended receiver, whose workload is tracked by the bridges'
    /// `toArrive` correction counters (Section VI-C) until first
    /// delivery; `None` for ordinary spawns and reroutes.
    Task(Task, Option<UnitId>),
    /// A block being lent for load balancing, with an explicit receiver
    /// chosen by the bridge (step ④ of Figure 6). `None` until the
    /// bridge assigns it.
    Data(DataMessage, Option<UnitId>),
}

impl Message {
    /// Total bytes this message occupies on the wire, including the
    /// headers of all sub-messages it is split into.
    pub fn wire_bytes(&self) -> u32 {
        match self {
            Message::Task(t, _) => t.wire_bytes().min(MAX_MESSAGE_BYTES),
            Message::Data(d, _) => {
                let payload_per_sub = MAX_MESSAGE_BYTES - MESSAGE_HEADER_BYTES - 8;
                let subs = d.bytes.div_ceil(payload_per_sub).max(1);
                d.bytes + subs * (MESSAGE_HEADER_BYTES + 8)
            }
        }
    }

    /// Whether this is a task message.
    pub fn is_task(&self) -> bool {
        matches!(self, Message::Task(..))
    }

    /// Whether this is a data (block-lending) message.
    pub fn is_data(&self) -> bool {
        matches!(self, Message::Data(..))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ndpb_dram::DataAddr;
    use ndpb_tasks::{TaskArgs, TaskFnId, Timestamp};

    fn task() -> Task {
        Task::new(
            TaskFnId(1),
            Timestamp(0),
            DataAddr(64),
            10,
            TaskArgs::one(5),
        )
    }

    #[test]
    fn task_message_fits_64_bytes() {
        let m = Message::Task(task(), None);
        assert!(m.wire_bytes() <= MAX_MESSAGE_BYTES);
        assert!(m.is_task());
        assert!(!m.is_data());
    }

    #[test]
    fn data_message_counts_sub_headers() {
        let m = Message::Data(
            DataMessage {
                block: BlockAddr(1),
                bytes: 256,
                workload: 40,
            },
            None,
        );
        // 256 B payload at 54 B per sub-message = 5 subs, each with a
        // 10 B header+address overhead.
        assert_eq!(m.wire_bytes(), 256 + 5 * 10);
    }

    #[test]
    fn small_data_message_single_sub() {
        let m = Message::Data(
            DataMessage {
                block: BlockAddr(0),
                bytes: 16,
                workload: 1,
            },
            Some(UnitId(3)),
        );
        assert_eq!(m.wire_bytes(), 16 + 10);
    }
}
