//! Communication protocol structures for NDPBridge.
//!
//! Section V-B of the paper defines three message types — *task*,
//! *data* and *state* messages (Figure 5), each at most 64 bytes with
//! larger payloads split into indexed sub-messages — and four bridge
//! commands (STATE-GATHER, GATHER, SCATTER, SCHEDULE) forged from
//! standard DDR commands on reserved row/column addresses.
//!
//! This crate models the messages that travel through mailboxes — task
//! and data messages, with their wire sizes ([`message`]) — and the
//! per-unit and per-bridge mailbox ring buffers ([`mailbox`]). State
//! never queues behind mail: `ndpb_core`'s STATE-GATHER reads each
//! child's status into a `bridge::ChildState` and charges a fixed
//! 64 B per child on the rank bus. Each bridge command is likewise
//! modelled in `ndpb_core::System` as a reservation on the bus it
//! occupies.

#![warn(missing_docs)]

pub mod mailbox;
pub mod message;

pub use mailbox::Mailbox;
pub use message::{DataMessage, Message, TaskMessage, MAX_MESSAGE_BYTES};
