//! Completion queue entries.

use rperf_model::QpNum;
use rperf_sim::SimTime;

use crate::wr::WrId;

/// What operation a completion reports.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CqeOpcode {
    /// A SEND work request completed (rules per transport, Fig. 1c/1d).
    Send,
    /// A WRITE work request completed (remote DMA acknowledged, Fig. 1b).
    Write,
    /// A READ work request completed (data landed locally, Fig. 1a).
    Read,
    /// An incoming SEND consumed a pre-posted RECV.
    Recv,
}

/// A completion queue entry, DMA-written by the RNIC and delivered to the
/// application that owns the queue pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Cqe {
    /// The identifier of the completed work request.
    pub wr_id: WrId,
    /// The queue pair the work request belonged to.
    pub qp: QpNum,
    /// Operation type.
    pub opcode: CqeOpcode,
    /// Bytes transferred.
    pub bytes: u64,
    /// Simulated instant at which the CQE became visible in host memory
    /// (i.e. after the RNIC's completion DMA write).
    pub visible_at: SimTime,
}
