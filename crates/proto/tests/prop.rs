//! Randomized tests for mailboxes and message accounting, driven by the
//! in-repo deterministic `SimRng`.

use ndpb_dram::{BlockAddr, DataAddr};
use ndpb_proto::message::DataMessage;
use ndpb_proto::{Mailbox, Message};
use ndpb_sim::SimRng;
use ndpb_tasks::{Task, TaskArgs, TaskFnId, Timestamp};

const CASES: usize = 64;

fn arb_message(rng: &mut SimRng) -> Message {
    if rng.chance(0.5) {
        Message::Task(
            Task::new(
                TaskFnId(rng.next_below(8) as u16),
                Timestamp(rng.next_below(4) as u32),
                DataAddr(rng.next_below(1 << 30)),
                rng.next_below(1000) as u32,
                TaskArgs::one(7),
            ),
            None,
        )
    } else {
        Message::Data(
            DataMessage {
                block: BlockAddr(rng.next_below(1000)),
                bytes: 1 + rng.next_below(1023) as u32,
                workload: rng.next_below(100),
            },
            None,
        )
    }
}

fn arb_messages(rng: &mut SimRng, max: usize) -> Vec<Message> {
    let n = 1 + rng.next_index(max - 1);
    (0..n).map(|_| arb_message(rng)).collect()
}

/// Byte accounting is conserved: used = pushed − drained, and never
/// exceeds capacity.
#[test]
fn mailbox_conserves_bytes() {
    let mut rng = SimRng::new(0x9070_0001);
    for _ in 0..CASES {
        let msgs = arb_messages(&mut rng, 100);
        let n_budgets = 1 + rng.next_index(49);
        let budgets: Vec<u32> = (0..n_budgets)
            .map(|_| 1 + rng.next_below(2047) as u32)
            .collect();
        let mut mb = Mailbox::new(64 << 10);
        let mut pushed = 0u64;
        let mut accepted = 0u64;
        for m in msgs {
            let sz = m.wire_bytes() as u64;
            if mb.try_push(m).is_none() {
                pushed += sz;
                accepted += 1;
            }
            assert!(mb.bytes_used() <= mb.capacity());
        }
        let mut drained_bytes = 0u64;
        let mut drained = 0u64;
        for b in budgets {
            for m in mb.drain_up_to(b) {
                drained_bytes += m.wire_bytes() as u64;
                drained += 1;
            }
        }
        assert_eq!(mb.bytes_used(), pushed - drained_bytes);
        assert_eq!(mb.len() as u64, accepted - drained);
    }
}

/// Drain order equals push order (FIFO), regardless of budgets.
#[test]
fn mailbox_is_fifo() {
    let mut rng = SimRng::new(0x9070_0002);
    for _ in 0..CASES {
        let msgs = arb_messages(&mut rng, 60);
        let budget = 1 + rng.next_below(511) as u32;
        let mut mb = Mailbox::new(1 << 20);
        for m in &msgs {
            assert!(mb.try_push(m.clone()).is_none());
        }
        let mut out = Vec::new();
        while !mb.is_empty() {
            out.extend(mb.drain_up_to(budget));
        }
        assert_eq!(out, msgs);
    }
}

/// try_push never loses a message: it is either queued or returned.
#[test]
fn try_push_never_drops() {
    let mut rng = SimRng::new(0x9070_0003);
    for _ in 0..CASES {
        let msgs = arb_messages(&mut rng, 100);
        let mut mb = Mailbox::new(512);
        let mut kept = 0usize;
        let mut returned = 0usize;
        for m in msgs.clone() {
            match mb.try_push(m.clone()) {
                None => kept += 1,
                Some(back) => {
                    assert_eq!(back, m);
                    returned += 1;
                }
            }
        }
        assert_eq!(kept + returned, msgs.len());
        assert_eq!(mb.len(), kept);
    }
}

/// FIFO order and byte conservation hold under random *interleavings*
/// of enqueue and dequeue against a small (frequently wrapping, often
/// full) ring: every accepted message comes out exactly once, in
/// acceptance order, and `bytes_used` always equals the sum of the
/// queued messages' wire sizes.
#[test]
fn interleaved_enqueue_dequeue_is_fifo_and_conserving() {
    let mut rng = SimRng::new(0x9070_0005);
    for case in 0..CASES {
        // Small capacity so backpressure and wraparound both occur.
        let mut mb = Mailbox::new(256 + rng.next_below(768));
        let mut accepted: std::collections::VecDeque<Message> = std::collections::VecDeque::new();
        let mut stalls = 0u64;
        for _step in 0..400 {
            if rng.chance(0.6) {
                let m = arb_message(&mut rng);
                let sz = m.wire_bytes() as u64;
                match mb.try_push(m.clone()) {
                    None => accepted.push_back(m),
                    Some(back) => {
                        assert_eq!(back, m, "rejected message must come back intact");
                        assert!(sz > mb.capacity() - mb.bytes_used());
                        stalls += 1;
                    }
                }
            } else {
                let budget = 1 + rng.next_below(511) as u32;
                for got in mb.drain_up_to(budget) {
                    let expect = accepted.pop_front().expect("drained more than accepted");
                    assert_eq!(got, expect, "case {case}: FIFO violated");
                }
            }
            let queued: u64 = mb.iter().map(|m| m.wire_bytes() as u64).sum();
            assert_eq!(mb.bytes_used(), queued);
            assert_eq!(mb.len(), accepted.len());
            assert!(mb.bytes_used() <= mb.capacity());
        }
        assert_eq!(mb.stalls(), stalls);
        // Final drain returns the exact remainder in order.
        while !mb.is_empty() {
            for got in mb.drain_up_to(u32::MAX) {
                assert_eq!(got, accepted.pop_front().expect("remainder"));
            }
        }
        assert!(accepted.is_empty());
    }
}

/// Wire sizes respect the 64 B sub-message format: task messages fit
/// one message, data messages cost payload plus per-sub-message
/// headers.
#[test]
fn wire_bytes_bounds() {
    let mut rng = SimRng::new(0x9070_0004);
    for _ in 0..512 {
        let m = arb_message(&mut rng);
        let sz = m.wire_bytes();
        match &m {
            Message::Task(..) => assert!(sz <= 64),
            Message::Data(d, _) => {
                assert!(sz > d.bytes);
                // Overhead is bounded by one header per 54-byte chunk.
                let subs = d.bytes.div_ceil(54).max(1);
                assert!(sz <= d.bytes + subs * 10);
            }
        }
    }
}
