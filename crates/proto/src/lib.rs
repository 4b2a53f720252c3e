//! Communication protocol structures for NDPBridge.
//!
//! Section V-B of the paper defines three message types — *task*,
//! *data* and *state* messages (Figure 5), each at most 64 bytes with
//! larger payloads split into indexed sub-messages — and four bridge
//! commands forged from standard DDR commands on reserved row/column
//! addresses:
//!
//! | Command | DDR encoding | Purpose |
//! |---|---|---|
//! | `STATE-GATHER` | ACTIVATE to `R_ROW` | collect a child's state message |
//! | `GATHER` | READ to `R_COL` | drain `G_xfer` bytes from a child's mailbox |
//! | `SCATTER` | WRITE to `R_COL` | deliver `G_xfer` bytes of messages to a child |
//! | `SCHEDULE` | ACTIVATE with budget in the row address | start load balancing at a giver |
//!
//! This crate models those wire formats ([`message`]), the per-unit and
//! per-bridge mailbox ring buffers ([`mailbox`]), and the command
//! encodings with their C/A timing cost ([`commands`]).

#![warn(missing_docs)]

pub mod commands;
pub mod mailbox;
pub mod message;

pub use commands::BridgeCommand;
pub use mailbox::Mailbox;
pub use message::{DataMessage, Message, StateMessage, MAX_MESSAGE_BYTES};
