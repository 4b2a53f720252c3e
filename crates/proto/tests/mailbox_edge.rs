//! Mailbox edge cases: ring wrap-around accounting, enqueue-on-full
//! backpressure, and the full-episode latch behind the once-per-stall
//! `mailbox-full` trace event.

use ndpb_dram::{BlockAddr, DataAddr, UnitId};
use ndpb_proto::{DataMessage, Mailbox, Message, TaskMessage};
use ndpb_tasks::{Task, TaskArgs, TaskFnId, TaskId, Timestamp};

fn task_msg() -> Message {
    let task = Task::new(TaskFnId(0), Timestamp(0), DataAddr(0), 1, TaskArgs::EMPTY);
    Message::Task(TaskMessage::new(TaskId(0), &task), None)
}

fn data_msg(bytes: u32, block: u64) -> Message {
    Message::Data(
        DataMessage {
            block: BlockAddr(block),
            bytes,
            workload: 1,
        },
        UnitId(0),
    )
}

/// The ring's byte accounting must survive many fill/drain cycles: after
/// wrapping the region hundreds of times, `bytes_used` still equals the
/// sum of the queued messages' wire sizes, the peak never exceeds the
/// capacity, and FIFO order is preserved across the wrap point.
#[test]
fn wraparound_keeps_accounting_and_fifo_order() {
    let msg_sz = task_msg().wire_bytes() as u64;
    // Room for exactly four task messages: every refill wraps the ring.
    let mut mb = Mailbox::new(4 * msg_sz);
    let mut next_block = 0u64;
    let mut expect_front = 0u64;
    // Seed with data messages of the same wire size as a task message so
    // the block addresses give us a sequence number to check order with.
    let data_payload = task_msg().wire_bytes() - (data_msg(0, 0).wire_bytes());
    for _round in 0..300 {
        while mb.bytes_used() + msg_sz <= mb.capacity() {
            assert!(mb.try_push(data_msg(data_payload, next_block)).is_none());
            next_block += 1;
        }
        assert_eq!(mb.bytes_used(), mb.len() as u64 * msg_sz);
        assert!(mb.peak_bytes() <= mb.capacity());
        // Drain half (two messages) and check they come out in order.
        for got in mb.drain_up_to(2 * msg_sz as u32) {
            match got {
                Message::Data(d, _) => assert_eq!(d.block.0, expect_front),
                other => panic!("unexpected message {other:?}"),
            }
            expect_front += 1;
        }
        assert_eq!(mb.bytes_used(), mb.len() as u64 * msg_sz);
    }
    // The ring wrapped many times: far more messages flowed through than
    // ever fit at once.
    assert!(next_block > 500);
    assert_eq!(mb.peak_bytes(), mb.capacity());
}

/// A full mailbox must exert backpressure without losing anything: the
/// rejected message is handed back intact, the queue is untouched, the
/// stall is counted, and the retry succeeds once a drain frees space.
#[test]
fn enqueue_on_full_backpressure_preserves_state() {
    let msg_sz = task_msg().wire_bytes() as u64;
    // Capacity sized so the two seed messages fill the region exactly.
    let mut mb = Mailbox::new(data_msg(0, 10).wire_bytes() as u64 + msg_sz);
    assert!(mb.try_push(data_msg(0, 10)).is_none());
    assert!(mb.try_push(task_msg()).is_none());
    let used_before = mb.bytes_used();
    assert_eq!(used_before, mb.capacity());

    // `try_push` hands the message back unchanged...
    let bounced = mb
        .try_push(data_msg(0, 99))
        .expect("mailbox should be full");
    match bounced {
        Message::Data(d, _) => assert_eq!(d.block.0, 99),
        other => panic!("bounced message mutated: {other:?}"),
    }
    // ...and the mailbox is exactly as it was.
    assert_eq!(mb.bytes_used(), used_before);
    assert_eq!(mb.len(), 2);
    assert_eq!(mb.stalls(), 1);

    // A retry while still full bounces again and counts another stall.
    assert_eq!(mb.try_push(task_msg()), Some(task_msg()));
    assert_eq!(mb.capacity() - mb.bytes_used(), 0);
    assert_eq!(mb.stalls(), 2);

    // After a drain frees space the retry goes through.
    assert_eq!(mb.drain_up_to(u32::MAX).len(), 2);
    assert!(mb.try_push(task_msg()).is_none(), "space was freed");
    assert_eq!(mb.len(), 1);
}

/// The latch opens on the first rejection of a full episode and stays
/// open across retries while still full; only freed space closes it, so
/// a caller that reads it before pushing sees each episode's first
/// rejection exactly once.
#[test]
fn full_latch_holds_for_one_stall_episode() {
    let msg_sz = task_msg().wire_bytes() as u64;
    let mut mb = Mailbox::new(msg_sz);
    assert!(!mb.full_latched());
    assert!(mb.try_push(task_msg()).is_none());
    assert!(!mb.full_latched(), "a successful push leaves it closed");

    assert!(mb.try_push(task_msg()).is_some());
    assert!(mb.full_latched(), "the first rejection opens the episode");
    for _ in 0..2 {
        assert!(mb.try_push(task_msg()).is_some());
        assert!(mb.full_latched(), "a retry while full stays in the episode");
    }
    assert_eq!(mb.stalls(), 3, "every retry still counts as a stall");

    // Draining ends the episode; the next rejection opens a new one.
    assert_eq!(mb.drain_up_to(u32::MAX).len(), 1);
    assert!(!mb.full_latched());
    assert!(mb.try_push(task_msg()).is_none());
    assert!(mb.try_push(task_msg()).is_some());
    assert!(mb.full_latched());
}

/// A successful enqueue also closes the latch, even without a drain in
/// between: a rejected large message followed by a small one that fits
/// ends the episode, so the next rejection opens a new one.
#[test]
fn successful_push_rearms_full_latch() {
    let msg_sz = task_msg().wire_bytes() as u64;
    let mut mb = Mailbox::new(2 * msg_sz);
    assert!(mb.try_push(task_msg()).is_none());
    assert!(mb.try_push(data_msg(4 * msg_sz as u32, 1)).is_some());
    assert!(mb.full_latched());
    assert!(mb.try_push(task_msg()).is_none(), "the small message fits");
    assert!(!mb.full_latched(), "a successful push ends the episode");
    assert!(mb.try_push(task_msg()).is_some());
    assert!(mb.full_latched(), "a new episode opens");
}
