//! Per-VL injection queues with ACK priority.

use std::collections::VecDeque;

use rperf_model::{PacketRef, VirtualLane};

/// One queued packet: a slab handle plus the metadata the injection scan
/// needs (lane and wire size), cached at enqueue so credit checks never
/// touch the packet slab.
#[derive(Debug, Clone, Copy)]
struct TxEntry {
    packet: PacketRef,
    vl: VirtualLane,
    wire: u64,
}

/// The RNIC's wire-injection stage: a high-priority ACK queue plus one
/// FIFO per lane for data packets (the fabric's lane count, not the
/// port's configured VLs).
///
/// ACKs are tiny and latency-critical for the requester's completion path,
/// so real RNICs inject them ahead of queued data; the model does the same.
/// Data VLs are served round-robin among those with queued packets (a
/// single node rarely drives more than one VL, but the pretend-LSG
/// experiments make a node carry both SL0 and SL1 flows).
///
/// Packets live in the fabric's `PacketSlab`; the queues hold copyable
/// handles with the VL and wire size resolved at enqueue time.
///
/// # Examples
///
/// ```
/// use rperf_rnic::TxQueue;
///
/// let q = TxQueue::new(1);
/// assert!(q.is_empty());
/// assert_eq!(q.len(), 0);
/// ```
#[derive(Debug, Clone)]
pub struct TxQueue {
    acks: VecDeque<TxEntry>,
    data: Vec<VecDeque<TxEntry>>,
    cursor: usize,
}

impl TxQueue {
    /// Creates queues for `lanes` virtual lanes.
    pub fn new(lanes: u8) -> Self {
        TxQueue {
            acks: VecDeque::new(),
            data: vec![VecDeque::new(); usize::from(lanes)],
            cursor: 0,
        }
    }

    /// Queues an ACK/control packet (highest priority). `vl` is the lane
    /// its flow's service level maps to; `wire` its full wire size.
    pub fn push_ack(&mut self, packet: PacketRef, vl: VirtualLane, wire: u64) {
        self.acks.push_back(TxEntry { packet, vl, wire });
    }

    /// Queues a data packet on its virtual lane.
    ///
    /// # Panics
    ///
    /// Panics if `vl` is beyond the lane count.
    pub fn push_data(&mut self, vl: VirtualLane, packet: PacketRef, wire: u64) {
        self.data[vl.index()].push_back(TxEntry { packet, vl, wire });
    }

    /// Total queued packets.
    pub fn len(&self) -> usize {
        self.acks.len() + self.data.iter().map(|q| q.len()).sum::<usize>()
    }

    /// `true` if nothing is queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Picks the next packet to inject: the oldest ACK if any, otherwise a
    /// round-robin scan of data VLs.
    ///
    /// `credit_ok(vl, wire_bytes)` consults the caller's credit ledger.
    /// Returns the packet handle, its VL and its wire size.
    pub fn pop_next<F>(&mut self, mut credit_ok: F) -> Option<(PacketRef, VirtualLane, u64)>
    where
        F: FnMut(VirtualLane, u64) -> bool,
    {
        // TxEntry is Copy: peek by value, then dequeue only on success.
        if let Some(e) = self.acks.front().copied() {
            if credit_ok(e.vl, e.wire) {
                self.acks.pop_front();
                return Some((e.packet, e.vl, e.wire));
            }
        }
        let lanes = self.data.len();
        for step in 0..lanes {
            let i = (self.cursor + step) % lanes;
            if let Some(e) = self.data[i].front().copied() {
                if credit_ok(e.vl, e.wire) {
                    self.data[i].pop_front();
                    self.cursor = (i + 1) % lanes;
                    return Some((e.packet, e.vl, e.wire));
                }
            }
        }
        None
    }

    /// Queued data packets on one lane (0 beyond the lanes).
    pub fn data_depth(&self, vl: VirtualLane) -> usize {
        self.data.get(vl.index()).map_or(0, VecDeque::len)
    }

    /// Queued ACKs.
    pub fn ack_depth(&self) -> usize {
        self.acks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rperf_model::arena::PacketSlab;
    use rperf_model::ids::PacketId;
    use rperf_model::{
        FlowId, Lid, MsgId, Packet, PacketKind, QpNum, ServiceLevel, Transport, Verb,
    };
    use rperf_sim::SimTime;

    fn pkt(id: u64, kind: PacketKind) -> Packet {
        Packet {
            id: PacketId::new(id),
            flow: FlowId::new(0),
            msg: MsgId::new(id),
            src: Lid::new(1),
            dst: Lid::new(2),
            dst_qp: QpNum::new(0),
            sl: ServiceLevel::new(0),
            kind,
            payload: 64,
            overhead: 52,
            injected_at: SimTime::ZERO,
        }
    }

    fn data(id: u64) -> Packet {
        pkt(
            id,
            PacketKind::Data {
                verb: Verb::Send,
                transport: Transport::Rc,
                index: 0,
                last: true,
            },
        )
    }

    fn push_data(q: &mut TxQueue, slab: &mut PacketSlab, vl: u8, p: Packet) {
        let wire = p.wire_size();
        let h = slab.alloc(p);
        q.push_data(VirtualLane::new(vl), h, wire);
    }

    fn push_ack(q: &mut TxQueue, slab: &mut PacketSlab, p: Packet) {
        let wire = p.wire_size();
        let h = slab.alloc(p);
        q.push_ack(h, VirtualLane::new(0), wire);
    }

    #[test]
    fn acks_jump_the_data_queue() {
        let mut slab = PacketSlab::new();
        let mut q = TxQueue::new(2);
        push_data(&mut q, &mut slab, 0, data(1));
        push_ack(&mut q, &mut slab, pkt(2, PacketKind::Ack));
        let (h, vl, _) = q.pop_next(|_, _| true).unwrap();
        assert_eq!(slab.get(h).id, PacketId::new(2));
        assert_eq!(vl, VirtualLane::new(0));
    }

    #[test]
    fn data_round_robin_across_vls() {
        let mut slab = PacketSlab::new();
        let mut q = TxQueue::new(2);
        for i in 0..2 {
            push_data(&mut q, &mut slab, 0, data(i));
            push_data(&mut q, &mut slab, 1, data(10 + i));
        }
        let mut order = Vec::new();
        while let Some((h, _, _)) = q.pop_next(|_, _| true) {
            order.push(slab.get(h).id.raw());
        }
        assert_eq!(order, vec![0, 10, 1, 11]);
    }

    #[test]
    fn credits_can_veto_a_lane() {
        let mut slab = PacketSlab::new();
        let mut q = TxQueue::new(2);
        push_data(&mut q, &mut slab, 0, data(1));
        push_data(&mut q, &mut slab, 1, data(2));
        // Only VL1 has credits.
        let (h, vl, _) = q.pop_next(|vl, _| vl == VirtualLane::new(1)).unwrap();
        assert_eq!(slab.get(h).id, PacketId::new(2));
        assert_eq!(vl, VirtualLane::new(1));
        // VL0 still blocked: nothing to pop.
        assert!(q.pop_next(|vl, _| vl == VirtualLane::new(1)).is_none());
        assert_eq!(q.data_depth(VirtualLane::new(0)), 1);
    }

    #[test]
    fn blocked_ack_blocks_nothing_else_on_other_lane() {
        // An ACK on a credit-starved VL0 must not stop VL1 data.
        let mut slab = PacketSlab::new();
        let mut q = TxQueue::new(2);
        push_ack(&mut q, &mut slab, pkt(1, PacketKind::Ack));
        push_data(&mut q, &mut slab, 1, data(2));
        let (h, _, _) = q.pop_next(|vl, _| vl == VirtualLane::new(1)).unwrap();
        assert_eq!(slab.get(h).id, PacketId::new(2));
        assert_eq!(q.ack_depth(), 1);
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q = TxQueue::new(1);
        assert!(q.pop_next(|_, _| true).is_none());
        assert!(q.is_empty());
    }

    #[test]
    fn depth_queries() {
        let mut slab = PacketSlab::new();
        let mut q = TxQueue::new(2);
        push_ack(&mut q, &mut slab, pkt(1, PacketKind::Ack));
        push_data(&mut q, &mut slab, 1, data(2));
        assert_eq!(q.ack_depth(), 1);
        assert_eq!(q.data_depth(VirtualLane::new(1)), 1);
        assert_eq!(q.data_depth(VirtualLane::new(0)), 0);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn depth_beyond_the_lanes_is_zero() {
        let mut slab = PacketSlab::new();
        let mut q = TxQueue::new(1);
        push_data(&mut q, &mut slab, 0, data(1));
        assert_eq!(q.data_depth(VirtualLane::new(0)), 1);
        assert_eq!(q.data_depth(VirtualLane::new(1)), 0);
        assert_eq!(q.data_depth(VirtualLane::new(15)), 0);
    }

    #[test]
    fn pop_reports_cached_wire_size() {
        let mut slab = PacketSlab::new();
        let mut q = TxQueue::new(1);
        let p = data(1);
        let expect = p.wire_size();
        push_data(&mut q, &mut slab, 0, p);
        let (h, _, wire) = q.pop_next(|_, _| true).unwrap();
        assert_eq!(wire, expect);
        assert_eq!(slab.get(h).wire_size(), expect);
    }
}
