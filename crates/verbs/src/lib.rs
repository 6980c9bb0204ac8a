//! The RDMA verbs layer: the software-visible abstractions of an
//! InfiniBand channel adapter.
//!
//! This crate mirrors the subset of `libibverbs` the paper's tools exercise:
//!
//! * [`SendWr`] / [`RecvWr`] — work requests, with the verb/transport
//!   validity matrix of Section II (UD supports only two-sided verbs; RC
//!   supports SEND/RECV, WRITE and READ).
//! * [`QueuePair`] — per-QP send and receive queues.
//! * [`InFlight`] — the requester's in-flight messages, one dense table
//!   per RNIC: it mints message ids and resolves each completion once.
//! * [`Cqe`] — a completion entry; the fabric delivers each to its
//!   application as an event.
//!
//! What completes when — the execution paths of Fig. 1 of the paper (UD
//! SEND on wire exit, RC SEND and WRITE on the ACK, READ once the response
//! data lands) — lives in `rperf-rnic`, with its timing; this crate
//! validates work requests and keeps the queues, so those rules are
//! testable without a simulator.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod cq;
mod error;
mod inflight;
mod qp;
mod wr;

pub use cq::{Cqe, CqeOpcode};
pub use error::VerbsError;
pub use inflight::InFlight;
pub use qp::QueuePair;
pub use wr::{RecvWr, SendWr, WrId};
