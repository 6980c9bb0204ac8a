//! Per-VL injection queues with ACK priority.

use std::collections::VecDeque;

use rperf_model::{PacketRef, VirtualLane};
use rperf_sim::SimTime;

/// One queued packet: a slab handle plus the metadata the injection scan
/// needs (lane and wire size), cached at enqueue so credit checks never
/// touch the packet slab. Queues hold it beside its ready time.
#[derive(Debug, Clone, Copy)]
struct TxEntry {
    packet: PacketRef,
    vl: VirtualLane,
    wire: u64,
}

/// Queues `entry` behind the last entry of `q` that is ready no later, so
/// `q` stays in ready order with ties in push order. The RNIC's send and
/// ACK horizons are monotone, so the scan mostly stops at the back; READ
/// responses, timed by the responder's DMA, can land earlier in a lane.
fn insert(q: &mut VecDeque<(SimTime, TxEntry)>, ready: SimTime, entry: TxEntry) {
    let at = q.iter().rposition(|e| e.0 <= ready).map_or(0, |i| i + 1);
    q.insert(at, (ready, entry));
}

/// Where [`TxQueue::pop_next`] takes its packet from.
#[derive(Debug, Clone, Copy)]
enum Head {
    Ack,
    Lane(usize),
}

/// The RNIC's wire-injection stage: a high-priority ACK queue plus one
/// queue per lane for data packets (the fabric's lane count, not the
/// port's configured VLs).
///
/// ACKs are tiny and latency-critical for the requester's completion path,
/// so real RNICs inject them ahead of queued data; the model does the same.
/// Data VLs are served round-robin among those with a ready packet (a
/// single node rarely drives more than one VL, but the pretend-LSG
/// experiments make a node carry both SL0 and SL1 flows).
///
/// A packet is queued when it is scheduled, with the instant it becomes
/// injectable (its payload DMA done, its ACK generated). Each queue is
/// kept in ready order, ties in push order, and offers its head only once
/// that instant has come. When each entry is pushed no later than its
/// ready time, as the RNIC pushes them, a queue pops its entries in the
/// order they became ready.
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
    acks: VecDeque<(SimTime, TxEntry)>,
    data: Vec<VecDeque<(SimTime, TxEntry)>>,
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

    /// Queues an ACK/control packet (highest priority), injectable from
    /// `ready`. `vl` is the lane its flow's service level maps to; `wire`
    /// its full wire size.
    pub fn push_ack(&mut self, ready: SimTime, packet: PacketRef, vl: VirtualLane, wire: u64) {
        insert(&mut self.acks, ready, TxEntry { packet, vl, wire });
    }

    /// Queues a data packet on its virtual lane, injectable from `ready`.
    ///
    /// # Panics
    ///
    /// Panics if `vl` is beyond the lane count.
    pub fn push_data(&mut self, ready: SimTime, packet: PacketRef, vl: VirtualLane, wire: u64) {
        insert(
            &mut self.data[vl.index()],
            ready,
            TxEntry { packet, vl, wire },
        );
    }

    /// Total queued packets, ready or not.
    pub fn len(&self) -> usize {
        self.acks.len() + self.data.iter().map(|q| q.len()).sum::<usize>()
    }

    /// `true` if nothing is queued, ready or not.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Picks the next packet to inject at `now`: the oldest ready ACK if
    /// any, otherwise a round-robin scan of the data VLs' ready heads.
    ///
    /// `credit_ok(vl, wire_bytes)` consults the caller's credit ledger.
    /// Returns the packet handle, its VL and its wire size.
    pub fn pop_next<F>(
        &mut self,
        now: SimTime,
        credit_ok: F,
    ) -> Option<(PacketRef, VirtualLane, u64)>
    where
        F: FnMut(VirtualLane, u64) -> bool,
    {
        let (_, e) = match self.next_head(now, credit_ok)? {
            Head::Ack => self.acks.pop_front(),
            Head::Lane(i) => {
                self.cursor = (i + 1) % self.data.len();
                self.data[i].pop_front()
            }
        }?;
        Some((e.packet, e.vl, e.wire))
    }

    /// `true` if [`TxQueue::pop_next`] at `at` would offer a packet under
    /// `credit_ok`, with no entry pushed or credit changed in between.
    pub fn has_ready<F>(&self, at: SimTime, credit_ok: F) -> bool
    where
        F: FnMut(VirtualLane, u64) -> bool,
    {
        self.next_head(at, credit_ok).is_some()
    }

    /// The queue [`TxQueue::pop_next`] would pop at `now`.
    fn next_head<F>(&self, now: SimTime, mut credit_ok: F) -> Option<Head>
    where
        F: FnMut(VirtualLane, u64) -> bool,
    {
        let sendable = |q: &VecDeque<(SimTime, TxEntry)>, credit_ok: &mut F| {
            q.front()
                .is_some_and(|&(ready, e)| ready <= now && credit_ok(e.vl, e.wire))
        };
        if sendable(&self.acks, &mut credit_ok) {
            return Some(Head::Ack);
        }
        let lanes = self.data.len();
        (0..lanes)
            .map(|step| (self.cursor + step) % lanes)
            .find(|&i| sendable(&self.data[i], &mut credit_ok))
            .map(Head::Lane)
    }

    /// Queued data packets on one lane, ready or not (0 beyond the lanes).
    pub fn data_depth(&self, vl: VirtualLane) -> usize {
        self.data.get(vl.index()).map_or(0, VecDeque::len)
    }

    /// Queued ACKs, ready or not.
    pub fn ack_depth(&self) -> usize {
        self.acks.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rperf_model::arena::PacketSlab;
    use rperf_model::ids::PacketId;
    use rperf_model::{
        FlowId, Lid, MsgId, Packet, PacketKind, QpNum, ServiceLevel, Transport, Verb,
    };
    use rperf_sim::SimDuration;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    type Popped = (PacketRef, VirtualLane, u64);

    /// The injection stage the ready-ordered queues replaced, kept as
    /// their oracle: every push is a timer in an `(at, seq)` min-heap,
    /// drained into a plain ACK FIFO and per-lane FIFOs before each pop.
    struct TimerHeapQueue {
        timers: BinaryHeap<Reverse<(SimTime, usize)>>,
        /// Pushed packets by push order: whether an ACK, then what a pop
        /// returns.
        pushed: Vec<(bool, Popped)>,
        acks: VecDeque<Popped>,
        data: Vec<VecDeque<Popped>>,
        cursor: usize,
    }

    impl TimerHeapQueue {
        fn new(lanes: u8) -> Self {
            TimerHeapQueue {
                timers: BinaryHeap::new(),
                pushed: Vec::new(),
                acks: VecDeque::new(),
                data: vec![VecDeque::new(); usize::from(lanes)],
                cursor: 0,
            }
        }

        fn push(&mut self, at: SimTime, ack: bool, packet: PacketRef, vl: VirtualLane, wire: u64) {
            self.timers.push(Reverse((at, self.pushed.len())));
            self.pushed.push((ack, (packet, vl, wire)));
        }

        fn pop_next(
            &mut self,
            now: SimTime,
            credit_ok: impl Fn(VirtualLane, u64) -> bool,
        ) -> Option<Popped> {
            while let Some(&Reverse((at, seq))) = self.timers.peek() {
                if at > now {
                    break;
                }
                self.timers.pop();
                let (ack, entry) = self.pushed[seq];
                if ack {
                    self.acks.push_back(entry);
                } else {
                    self.data[entry.1.index()].push_back(entry);
                }
            }
            if let Some(&e) = self.acks.front() {
                if credit_ok(e.1, e.2) {
                    self.acks.pop_front();
                    return Some(e);
                }
            }
            let lanes = self.data.len();
            for step in 0..lanes {
                let i = (self.cursor + step) % lanes;
                if let Some(&e) = self.data[i].front() {
                    if credit_ok(e.1, e.2) {
                        self.data[i].pop_front();
                        self.cursor = (i + 1) % lanes;
                        return Some(e);
                    }
                }
            }
            None
        }
    }

    fn pkt(id: u64, kind: PacketKind) -> Packet {
        Packet {
            id: PacketId::new(id),
            flow: FlowId::new(0),
            msg: MsgId::new(id),
            src: Lid::new(1),
            dst: Lid::new(2),
            dst_qp: QpNum::new(0),
            sl: ServiceLevel::new(0),
            vl: VirtualLane::new(0),
            kind,
            payload: 64,
            overhead: 52,
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

    fn push_data_at(q: &mut TxQueue, slab: &mut PacketSlab, ready_ns: u64, vl: u8, p: Packet) {
        let wire = p.wire_size();
        let h = slab.alloc(p);
        q.push_data(SimTime::from_ns(ready_ns), h, VirtualLane::new(vl), wire);
    }

    fn push_ack_at(q: &mut TxQueue, slab: &mut PacketSlab, ready_ns: u64, p: Packet) {
        let wire = p.wire_size();
        let h = slab.alloc(p);
        q.push_ack(SimTime::from_ns(ready_ns), h, VirtualLane::new(0), wire);
    }

    fn push_data(q: &mut TxQueue, slab: &mut PacketSlab, vl: u8, p: Packet) {
        push_data_at(q, slab, 0, vl, p);
    }

    fn push_ack(q: &mut TxQueue, slab: &mut PacketSlab, p: Packet) {
        push_ack_at(q, slab, 0, p);
    }

    /// The id of the packet `pop_next` offers at `now_ns` with every
    /// credit available.
    fn pop_id(q: &mut TxQueue, slab: &PacketSlab, now_ns: u64) -> Option<u64> {
        q.pop_next(SimTime::from_ns(now_ns), |_, _| true)
            .map(|(h, _, _)| slab.get(h).id.raw())
    }

    #[test]
    fn acks_jump_the_data_queue() {
        let mut slab = PacketSlab::new();
        let mut q = TxQueue::new(2);
        push_data(&mut q, &mut slab, 0, data(1));
        push_ack(&mut q, &mut slab, pkt(2, PacketKind::Ack));
        let (h, vl, _) = q.pop_next(SimTime::ZERO, |_, _| true).unwrap();
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
        while let Some(id) = pop_id(&mut q, &slab, 0) {
            order.push(id);
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
        let vl1 = |vl, _| vl == VirtualLane::new(1);
        let (h, vl, _) = q.pop_next(SimTime::ZERO, vl1).unwrap();
        assert_eq!(slab.get(h).id, PacketId::new(2));
        assert_eq!(vl, VirtualLane::new(1));
        // VL0 still blocked: nothing to pop.
        assert!(q.pop_next(SimTime::ZERO, vl1).is_none());
        assert_eq!(q.data_depth(VirtualLane::new(0)), 1);
    }

    #[test]
    fn blocked_ack_blocks_nothing_else_on_other_lane() {
        // An ACK on a credit-starved VL0 must not stop VL1 data.
        let mut slab = PacketSlab::new();
        let mut q = TxQueue::new(2);
        push_ack(&mut q, &mut slab, pkt(1, PacketKind::Ack));
        push_data(&mut q, &mut slab, 1, data(2));
        let (h, _, _) = q
            .pop_next(SimTime::ZERO, |vl, _| vl == VirtualLane::new(1))
            .unwrap();
        assert_eq!(slab.get(h).id, PacketId::new(2));
        assert_eq!(q.ack_depth(), 1);
    }

    #[test]
    fn unready_head_blocks_neither_acks_nor_another_lane() {
        let mut slab = PacketSlab::new();
        let mut q = TxQueue::new(2);
        push_data_at(&mut q, &mut slab, 100, 0, data(1));
        push_ack_at(&mut q, &mut slab, 50, pkt(2, PacketKind::Ack));
        push_data_at(&mut q, &mut slab, 0, 1, data(3));
        // The ACK and VL0 wait for their ready times; VL1's head goes.
        assert_eq!(pop_id(&mut q, &slab, 0), Some(3));
        assert_eq!(pop_id(&mut q, &slab, 49), None);
        // A ready ACK goes while VL0's head still waits.
        assert_eq!(pop_id(&mut q, &slab, 50), Some(2));
        assert_eq!(pop_id(&mut q, &slab, 99), None);
        assert_eq!(pop_id(&mut q, &slab, 100), Some(1));
        assert!(q.is_empty());
    }

    #[test]
    fn entry_pushed_later_but_ready_earlier_leaves_first() {
        // A READ response can be ready before the data queued ahead of it.
        let mut slab = PacketSlab::new();
        let mut q = TxQueue::new(1);
        push_data_at(&mut q, &mut slab, 500, 0, data(1));
        push_data_at(&mut q, &mut slab, 200, 0, data(2));
        push_data_at(&mut q, &mut slab, 200, 0, data(3));
        assert_eq!(q.data_depth(VirtualLane::new(0)), 3, "ready or not");
        assert_eq!(pop_id(&mut q, &slab, 200), Some(2));
        assert_eq!(pop_id(&mut q, &slab, 200), Some(3), "ties in push order");
        assert_eq!(pop_id(&mut q, &slab, 499), None);
        assert_eq!(pop_id(&mut q, &slab, 500), Some(1));
    }

    #[test]
    fn empty_pop_is_none() {
        let mut q = TxQueue::new(1);
        assert!(q.pop_next(SimTime::ZERO, |_, _| true).is_none());
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
        let (h, _, wire) = q.pop_next(SimTime::ZERO, |_, _| true).unwrap();
        assert_eq!(wire, expect);
        assert_eq!(slab.get(h).wire_size(), expect);
    }

    proptest! {
        /// Differential: fed the same ACK and data pushes (each ready at or
        /// after the instant it is pushed, often before its queue's last
        /// entry, as READ responses are) and the same pops at
        /// non-decreasing instants under a per-lane credit mask, the
        /// ready-ordered queues pop what the timer heap drained into
        /// FIFOs pops, in the same order, and `has_ready` says beforehand
        /// whether a pop will return a packet.
        #[test]
        fn matches_the_timer_heap_oracle(
            lanes in 1u8..3,
            ops in prop::collection::vec((0u8..6, 0u64..8, 0u8..4), 1..300),
        ) {
            let mut slab = PacketSlab::new();
            let mut q = TxQueue::new(lanes);
            let mut oracle = TimerHeapQueue::new(lanes);
            let mut now = SimTime::ZERO;
            let step = SimDuration::from_ns(100);
            for (i, (op, x, mask)) in ops.into_iter().enumerate() {
                let vl = VirtualLane::new(mask % lanes);
                let ready = now + step * x;
                match op {
                    // Advance 0-300 ns, then pop under a credit mask.
                    0 | 1 => {
                        now += step * (x % 4);
                        let credit_ok = |vl: VirtualLane, _| mask >> vl.raw() & 1 == 1;
                        let ready = q.has_ready(now, credit_ok);
                        let ours = q.pop_next(now, credit_ok);
                        prop_assert_eq!(ready, ours.is_some(), "op {}", i);
                        prop_assert_eq!(ours, oracle.pop_next(now, credit_ok), "op {}", i);
                    }
                    2 => {
                        let p = pkt(i as u64, PacketKind::Ack);
                        let wire = p.wire_size();
                        let h = slab.alloc(p);
                        q.push_ack(ready, h, vl, wire);
                        oracle.push(ready, true, h, vl, wire);
                    }
                    _ => {
                        let p = data(i as u64);
                        let wire = p.wire_size() + x;
                        let h = slab.alloc(p);
                        q.push_data(ready, h, vl, wire);
                        oracle.push(ready, false, h, vl, wire);
                    }
                }
            }
            // Everything left leaves in the same order once it is ready.
            let end = now + step * 8;
            loop {
                let ours = q.pop_next(end, |_, _| true);
                prop_assert_eq!(ours, oracle.pop_next(end, |_, _| true));
                if ours.is_none() {
                    break;
                }
            }
            prop_assert!(q.is_empty());
        }
    }
}
