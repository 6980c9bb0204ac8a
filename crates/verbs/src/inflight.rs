//! The requester's in-flight messages: one dense table per RNIC.

use std::collections::VecDeque;

use rperf_model::{MsgId, NodeId, QpNum};

use crate::wr::SendWr;

/// Message ids are `node << SEQ_BITS | seq`.
const SEQ_BITS: u32 = 40;

/// The sequence-number bits of a message id.
const SEQ_MASK: u64 = (1 << SEQ_BITS) - 1;

/// The messages one RNIC has launched and not yet completed, indexed by
/// message sequence number.
///
/// [`InFlight::open`] mints the RNIC's message ids in order — `node << 40
/// | seq`, `seq` counting from 0 — and records the queue pair and work
/// request behind each; [`InFlight::close`] resolves the message's
/// completion (an ACK, a READ response, a UD wire exit or a loopback
/// turnaround) exactly once. The slots form a ring from the oldest open
/// message to the newest: closing the oldest drops it, and every closed
/// slot behind it, from the front, so the table spans only the messages
/// still in flight and each open or close costs an index, not a tree
/// walk or an allocation, once the ring has grown to the RNIC's window.
///
/// An id minted by another node's table always misses, so a data packet
/// that carries a peer's message id is never mistaken for a READ
/// response to one of this RNIC's requests.
///
/// # Examples
///
/// ```
/// use rperf_model::{NodeId, QpNum, Verb};
/// use rperf_verbs::{InFlight, SendWr, WrId};
///
/// let mut table = InFlight::new(NodeId::new(2));
/// let a = table.open(QpNum::new(1), SendWr::new(WrId(7), Verb::Send, 64));
/// let b = table.open(QpNum::new(1), SendWr::new(WrId(8), Verb::Send, 64));
/// assert_eq!(a.raw(), 2 << 40);
/// assert_eq!(b.raw(), (2 << 40) | 1);
/// assert_eq!(table.close(b).map(|(_, wr)| wr.wr_id), Some(WrId(8)));
/// assert!(table.close(b).is_none(), "a message closes once");
/// assert_eq!(table.len(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct InFlight {
    /// `node << 40`: the high bits of every id this table mints.
    node_bits: u64,
    /// Sequence number of `slots[0]`; `front + slots.len()` is the next
    /// id's.
    front: u64,
    /// One slot per sequence number from `front` on, `None` once closed.
    /// Invariant: the front slot, if any, is open.
    slots: VecDeque<Option<(QpNum, SendWr)>>,
}

impl InFlight {
    /// An empty table for the RNIC of `node`.
    pub fn new(node: NodeId) -> Self {
        InFlight {
            node_bits: u64::from(node.raw()) << SEQ_BITS,
            front: 0,
            slots: VecDeque::new(),
        }
    }

    /// Opens the next message, launched by work request `wr` on queue
    /// pair `qp`, and returns its id.
    #[inline]
    pub fn open(&mut self, qp: QpNum, wr: SendWr) -> MsgId {
        let seq = self.front + self.slots.len() as u64;
        self.slots.push_back(Some((qp, wr)));
        MsgId::new(self.node_bits | seq)
    }

    /// Closes message `msg`, returning the queue pair and work request
    /// it was opened with; `None` if this table never opened it or it is
    /// already closed (a duplicate or misrouted completion).
    #[inline]
    pub fn close(&mut self, msg: MsgId) -> Option<(QpNum, SendWr)> {
        let i = self.index(msg)?;
        let done = self.slots[i].take()?;
        while let Some(None) = self.slots.front() {
            self.slots.pop_front();
            self.front += 1;
        }
        Some(done)
    }

    /// Whether `msg` is open in this table.
    #[inline]
    pub fn contains(&self, msg: MsgId) -> bool {
        self.index(msg).is_some_and(|i| self.slots[i].is_some())
    }

    /// Open messages. Counts the ring's open slots (diagnostics, tests).
    pub fn len(&self) -> usize {
        self.slots.iter().filter(|slot| slot.is_some()).count()
    }

    /// `true` if no message is open.
    pub fn is_empty(&self) -> bool {
        // The front slot is open whenever the ring holds any.
        self.slots.is_empty()
    }

    /// Slots the ring holds: from the oldest open message to the newest
    /// message opened, closed ones between them included. Zero once
    /// every message is closed.
    pub fn span(&self) -> usize {
        self.slots.len()
    }

    /// The ring index of `msg`, if it is one of this node's ids within
    /// the ring.
    #[inline]
    fn index(&self, msg: MsgId) -> Option<usize> {
        let raw = msg.raw();
        if raw & !SEQ_MASK != self.node_bits {
            return None;
        }
        let i = (raw & SEQ_MASK).checked_sub(self.front)?;
        (i < self.slots.len() as u64).then_some(i as usize)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wr::WrId;
    use rperf_model::Verb;

    fn wr(id: u64) -> SendWr {
        SendWr::new(WrId(id), Verb::Send, 64)
    }

    #[test]
    fn in_flight_lifecycle() {
        let mut table = InFlight::new(NodeId::new(1));
        let msg = table.open(QpNum::new(4), wr(9));
        assert_eq!(table.len(), 1);
        let (qp, done) = table.close(msg).unwrap();
        assert_eq!(qp, QpNum::new(4));
        assert_eq!(done.wr_id, WrId(9));
        assert_eq!(table.len(), 0);
        assert!(table.is_empty());
        assert_eq!(table.span(), 0);
    }

    #[test]
    fn duplicate_ack_is_refused() {
        let mut table = InFlight::new(NodeId::new(1));
        let msg = table.open(QpNum::new(1), wr(1));
        table.close(msg).unwrap();
        assert!(table.close(msg).is_none());
        assert!(!table.contains(msg));
    }
}
