//! The RNIC device model (ConnectX-4 class).
//!
//! Models the complete execution paths of Fig. 1 of the paper with
//! calibrated timing:
//!
//! * **Post path** — MMIO doorbell → serial WQE engine (the ~7–8 Mpps
//!   message-rate cap that makes small-payload bandwidth collapse in
//!   Fig. 5) → payload DMA read over PCIe (skipped for inlined small
//!   payloads) → packetization at the path MTU → per-VL injection queues,
//!   each packet stamped with the VL the fabric's SL2VL table maps its SL
//!   to.
//! * **Wire TX** — serializes packets at the link data rate, subject to
//!   hop-by-hop credits toward the attached peer; ACKs jump the data queue.
//! * **RX path** — serial receive engine, verb-dependent behaviour:
//!   RC SEND generates the ACK *immediately on receipt* (before the payload
//!   DMA — the property RPerf exploits); RC WRITE acknowledges only after
//!   the remote DMA write completes (the bias QPerf suffers from); READ
//!   turns the request around through a responder-side DMA read. The
//!   receive buffer's credit goes back on the VL the packet carries.
//! * **Loopback** — a message to self traverses the same post path, then an
//!   internal datapath slightly faster than the line, never touching the
//!   wire: RPerf's measurement of local-side overhead.
//!
//! Like the switch, the device is a pure state machine returning
//! [`RnicAction`]s; the fabric schedules them.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod device;
mod txq;

pub use device::{Rnic, RnicAction, RnicStats};
pub use txq::TxQueue;
