//! The input-buffered InfiniBand switch model.
//!
//! This is both the stand-in for the paper's Mellanox SX6012 (the
//! `hardware` profile: calibrated pipeline latency, µarch jitter,
//! arbitration scan costs) and the reimplementation of the Mellanox IB
//! OMNeT++ simulator the paper uses for scheduling-policy studies (the
//! `omnet_simulator` profile: no jitter, 32 KB input buffers).
//!
//! ## Architecture
//!
//! The switch is **input-buffered**: every ingress port has one FIFO per
//! virtual lane ([`VlBuffer`]), sized by the credit advertisement made to
//! the upstream sender. Packets are admitted on arrival to the FIFO of the
//! VL they carry (credits guarantee space — a violation is a protocol bug
//! and is counted), become *eligible* after the ingress pipeline latency
//! plus per-packet µarch jitter, and wait for the output arbiter of their
//! destination port. The injecting RNIC stamped that VL from the fabric's
//! SL2VL table; the switch maps no SL itself.
//!
//! Each egress port runs a two-level arbiter:
//!
//! 1. **VL arbitration** ([`VlArbiter`]) — IB-spec high/low priority tables
//!    with weights and the *Limit of High Priority* budget.
//! 2. **Packet scheduling** within the chosen VL — FCFS (oldest arrival at
//!    this switch wins; the policy the paper concludes the SX6012 uses) or
//!    round-robin across ingress ports.
//!
//! Dequeuing a packet frees input-buffer space and returns a credit to the
//! upstream device; egress transmission obeys the *downstream* credit
//! ledger ([`CreditLedger`]), giving hop-by-hop lossless flow control.
//!
//! The device is a pure state machine: methods take the current time and
//! return [`SwitchAction`]s; the fabric crate owns event delivery. This
//! keeps the switch unit-testable without a simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arbiter;
mod buffer;
mod credits;
mod device;
mod tables;
mod vlarb;

pub use arbiter::PacketScheduler;
pub use buffer::{BufEntry, VlBuffer, VlBufferArray};
pub use credits::{CreditLedger, CreditMatrix};
pub use device::{Switch, SwitchAction, SwitchStats};
pub use tables::ForwardingTable;
pub use vlarb::VlArbiter;
