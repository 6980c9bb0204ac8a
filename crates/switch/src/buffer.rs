//! Per-(ingress port, VL) input buffers.

use std::collections::VecDeque;

use rperf_model::{PacketRef, PortId, VirtualLane};
use rperf_sim::SimTime;

/// One buffered packet with its switch-local metadata.
///
/// The packet itself lives in the fabric's `PacketSlab`; the buffer holds a
/// copyable handle plus everything the arbitration scan needs — egress port
/// (resolved once at admission) and wire size — so per-round head scans
/// never touch the slab.
#[derive(Debug, Clone, Copy)]
pub struct BufEntry {
    /// Handle to the buffered packet.
    pub packet: PacketRef,
    /// The egress port the forwarding table resolved at admission.
    pub egress: PortId,
    /// Wire size (payload + overhead) in bytes.
    pub wire: u64,
    /// When the packet arrived at *this* switch — the FCFS key.
    pub arrival: SimTime,
    /// When the packet clears the ingress pipeline and may be arbitrated.
    pub eligible_at: SimTime,
}

/// A credit-advertised FIFO for one (ingress port, virtual lane) pair.
///
/// Capacity is in wire bytes; occupancy never exceeds the advertisement
/// because the upstream sender spends a credit before transmitting. An
/// over-admission is counted (it indicates a flow-control bug upstream)
/// but still accepted, because IB links are lossless and dropping would
/// corrupt the protocol state machines above.
///
/// # Examples
///
/// ```
/// use rperf_switch::VlBuffer;
///
/// let buf = VlBuffer::new(32 * 1024);
/// assert_eq!(buf.capacity(), 32 * 1024);
/// assert_eq!(buf.free(), 32 * 1024);
/// assert!(buf.is_empty());
/// ```
#[derive(Debug, Clone)]
pub struct VlBuffer {
    queue: VecDeque<BufEntry>,
    capacity: u64,
    occupied: u64,
    max_occupied: u64,
    violations: u64,
}

impl VlBuffer {
    /// Creates an empty buffer advertising `capacity` bytes.
    pub fn new(capacity: u64) -> Self {
        VlBuffer {
            queue: VecDeque::new(),
            capacity,
            occupied: 0,
            max_occupied: 0,
            violations: 0,
        }
    }

    /// Advertised capacity in bytes.
    pub fn capacity(&self) -> u64 {
        self.capacity
    }

    /// Bytes currently buffered.
    pub fn occupied(&self) -> u64 {
        self.occupied
    }

    /// Bytes of remaining space.
    pub fn free(&self) -> u64 {
        self.capacity.saturating_sub(self.occupied)
    }

    /// Packets currently buffered.
    pub fn len(&self) -> usize {
        self.queue.len()
    }

    /// `true` if no packets are buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// High-water mark of occupancy.
    pub fn max_occupied(&self) -> u64 {
        self.max_occupied
    }

    /// Number of admissions that exceeded the advertised capacity.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Admits a packet (upstream spent a credit for it).
    pub fn push(&mut self, entry: BufEntry) {
        if self.occupied + entry.wire > self.capacity {
            self.violations += 1;
        }
        self.occupied += entry.wire;
        self.max_occupied = self.max_occupied.max(self.occupied);
        self.queue.push_back(entry);
    }

    /// The head packet, if any.
    pub fn head(&self) -> Option<&BufEntry> {
        self.queue.front()
    }

    /// Removes and returns the head packet, freeing its bytes.
    pub fn pop(&mut self) -> Option<BufEntry> {
        let entry = self.queue.pop_front()?;
        self.occupied -= entry.wire;
        Some(entry)
    }
}

/// Struct-of-arrays input-buffer bank for a whole switch: one FIFO per
/// (ingress port, virtual lane) slot, with the head-of-queue metadata the
/// arbitration scan reads (egress, eligibility, wire size, arrival) mirrored
/// into flat per-field arrays.
///
/// [`VlBuffer`] keeps each queue's packets together (array-of-structs); an
/// arbitration round touching 100+ heads pays one pointer chase per slot.
/// This layout instead walks four contiguous arrays plus a non-empty bitset,
/// so a round over the whole switch is a handful of cache lines. Slots are
/// port-major (`slot = port·lanes + vl`), matching the scan order the
/// scheduling policies were calibrated against.
///
/// Semantics (admission counting, violation accounting, FIFO order) are
/// identical to a `ports × lanes` matrix of [`VlBuffer`]s — the AoS-vs-SoA
/// microbench races the two on the same workload.
///
/// # Examples
///
/// ```
/// use rperf_model::{PortId, VirtualLane};
/// use rperf_switch::VlBufferArray;
///
/// let bank = VlBufferArray::new(12, 2, 32 * 1024);
/// assert_eq!(bank.slots(), 12 * 2);
/// assert!(bank.head(PortId::new(3), VirtualLane::new(0)).is_none());
/// assert_eq!(bank.occupancy(PortId::new(3), VirtualLane::new(7)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct VlBufferArray {
    lanes: usize,
    capacity: u64,
    /// FIFO bodies, port-major. Only push/pop touch these; scans don't.
    queues: Vec<VecDeque<BufEntry>>,
    /// Head packet's egress port (raw), [`VlBufferArray::EMPTY`] if none.
    head_egress: Vec<u8>,
    /// Head packet's eligibility instant (undefined while slot empty).
    head_eligible: Vec<SimTime>,
    /// Head packet's wire size in bytes (undefined while slot empty).
    head_wire: Vec<u64>,
    /// Head packet's arrival instant — the FCFS key (undefined while empty).
    head_arrival: Vec<SimTime>,
    occupied: Vec<u64>,
    violations: u64,
    /// Bit `slot % 64` of word `slot / 64` set ⇔ the slot's queue is
    /// non-empty. Scans iterate set bits in ascending slot order.
    nonempty: Vec<u64>,
}

impl VlBufferArray {
    /// Sentinel in the `head_egress` array marking an empty slot.
    pub const EMPTY: u8 = u8::MAX;

    /// Creates a bank of `ports × lanes` empty buffers, each advertising
    /// `capacity` bytes.
    pub fn new(ports: u8, lanes: u8, capacity: u64) -> Self {
        let slots = ports as usize * lanes as usize;
        VlBufferArray {
            lanes: lanes as usize,
            capacity,
            queues: vec![VecDeque::new(); slots],
            head_egress: vec![Self::EMPTY; slots],
            head_eligible: vec![SimTime::ZERO; slots],
            head_wire: vec![0; slots],
            head_arrival: vec![SimTime::ZERO; slots],
            occupied: vec![0; slots],
            violations: 0,
            nonempty: vec![0; slots.div_ceil(64)],
        }
    }

    /// Number of (port, VL) slots.
    pub fn slots(&self) -> usize {
        self.queues.len()
    }

    /// Virtual lanes per port (the slot-index stride).
    #[inline]
    pub fn lanes(&self) -> usize {
        self.lanes
    }

    /// Flat slot index of a (port, VL) pair; `vl` must be one of the lanes.
    #[inline]
    pub fn slot_of(&self, port: PortId, vl: VirtualLane) -> usize {
        debug_assert!(vl.index() < self.lanes, "{vl} beyond {} lanes", self.lanes);
        port.index() * self.lanes + vl.index()
    }

    /// The non-empty bitset, one bit per slot in ascending slot order.
    #[inline]
    pub fn nonempty_words(&self) -> &[u64] {
        &self.nonempty
    }

    /// Head packet's egress port (raw `u8`) at `slot`, or
    /// [`VlBufferArray::EMPTY`].
    #[inline]
    pub fn head_egress_raw(&self, slot: usize) -> u8 {
        self.head_egress[slot]
    }

    /// Head packet's eligibility instant at `slot` (meaningless if empty).
    #[inline]
    pub fn head_eligible(&self, slot: usize) -> SimTime {
        self.head_eligible[slot]
    }

    /// Head packet's wire size at `slot` (meaningless if empty).
    #[inline]
    pub fn head_wire(&self, slot: usize) -> u64 {
        self.head_wire[slot]
    }

    /// Head packet's arrival instant at `slot` (meaningless if empty).
    #[inline]
    pub fn head_arrival(&self, slot: usize) -> SimTime {
        self.head_arrival[slot]
    }

    /// Admits a packet on (`port`, `vl`); the upstream spent a credit.
    /// Over-capacity admissions are counted but accepted, as in
    /// [`VlBuffer::push`].
    pub fn push(&mut self, port: PortId, vl: VirtualLane, entry: BufEntry) {
        let slot = self.slot_of(port, vl);
        if self.occupied[slot] + entry.wire > self.capacity {
            self.violations += 1;
        }
        self.occupied[slot] += entry.wire;
        if self.queues[slot].is_empty() {
            self.set_head(slot, &entry);
            self.nonempty[slot / 64] |= 1u64 << (slot % 64);
        }
        self.queues[slot].push_back(entry);
    }

    /// Removes and returns the head packet of (`port`, `vl`), freeing its
    /// bytes and refreshing the slot's head metadata.
    pub fn pop(&mut self, port: PortId, vl: VirtualLane) -> Option<BufEntry> {
        let slot = self.slot_of(port, vl);
        let entry = self.queues[slot].pop_front()?;
        self.occupied[slot] -= entry.wire;
        match self.queues[slot].front().copied() {
            Some(next) => self.set_head(slot, &next),
            None => {
                self.head_egress[slot] = Self::EMPTY;
                self.nonempty[slot / 64] &= !(1u64 << (slot % 64));
            }
        }
        Some(entry)
    }

    /// The head packet of (`port`, `vl`), if any (none beyond the lanes).
    pub fn head(&self, port: PortId, vl: VirtualLane) -> Option<BufEntry> {
        if vl.index() >= self.lanes {
            return None;
        }
        self.queues[self.slot_of(port, vl)].front().copied()
    }

    /// Bytes currently buffered on (`port`, `vl`); 0 beyond the lanes.
    pub fn occupancy(&self, port: PortId, vl: VirtualLane) -> u64 {
        if vl.index() >= self.lanes {
            return 0;
        }
        self.occupied[self.slot_of(port, vl)]
    }

    /// Total bytes buffered across all slots.
    pub fn total_occupied(&self) -> u64 {
        self.occupied.iter().sum()
    }

    /// Total admissions that exceeded an advertised capacity.
    pub fn violations(&self) -> u64 {
        self.violations
    }

    #[inline]
    fn set_head(&mut self, slot: usize, entry: &BufEntry) {
        self.head_egress[slot] = entry.egress.raw();
        self.head_eligible[slot] = entry.eligible_at;
        self.head_wire[slot] = entry.wire;
        self.head_arrival[slot] = entry.arrival;
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

    fn entry(slab: &mut PacketSlab, bytes: u64, t_ns: u64) -> BufEntry {
        let packet = slab.alloc(Packet {
            id: PacketId::new(0),
            flow: FlowId::new(0),
            msg: MsgId::new(0),
            src: Lid::new(1),
            dst: Lid::new(2),
            dst_qp: QpNum::new(0),
            sl: ServiceLevel::new(0),
            vl: VirtualLane::new(0),
            kind: PacketKind::Data {
                verb: Verb::Send,
                transport: Transport::Rc,
                index: 0,
                last: true,
            },
            payload: bytes - 52,
            overhead: 52,
            injected_at: SimTime::ZERO,
        });
        BufEntry {
            packet,
            egress: PortId::new(0),
            wire: bytes,
            arrival: SimTime::from_ns(t_ns),
            eligible_at: SimTime::from_ns(t_ns + 200),
        }
    }

    #[test]
    fn occupancy_tracks_push_pop() {
        let mut slab = PacketSlab::new();
        let mut b = VlBuffer::new(10_000);
        b.push(entry(&mut slab, 4148, 0));
        b.push(entry(&mut slab, 4148, 1));
        assert_eq!(b.occupied(), 8296);
        assert_eq!(b.free(), 1704);
        assert_eq!(b.len(), 2);
        b.pop();
        assert_eq!(b.occupied(), 4148);
        assert_eq!(b.max_occupied(), 8296);
    }

    #[test]
    fn fifo_order_preserved() {
        let mut slab = PacketSlab::new();
        let mut b = VlBuffer::new(100_000);
        for i in 0..5 {
            b.push(entry(&mut slab, 100, i));
        }
        for i in 0..5 {
            assert_eq!(b.pop().unwrap().arrival, SimTime::from_ns(i));
        }
        assert!(b.pop().is_none());
    }

    #[test]
    fn violation_counted_but_admitted() {
        let mut slab = PacketSlab::new();
        let mut b = VlBuffer::new(4_000);
        b.push(entry(&mut slab, 4148, 0));
        assert_eq!(b.violations(), 1);
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn exact_fit_is_not_a_violation() {
        let mut slab = PacketSlab::new();
        let mut b = VlBuffer::new(4148);
        b.push(entry(&mut slab, 4148, 0));
        assert_eq!(b.violations(), 0);
        assert_eq!(b.free(), 0);
    }

    #[test]
    fn head_peeks_without_removal() {
        let mut slab = PacketSlab::new();
        let mut b = VlBuffer::new(100_000);
        b.push(entry(&mut slab, 100, 7));
        assert_eq!(b.head().unwrap().arrival, SimTime::from_ns(7));
        assert_eq!(b.len(), 1);
    }

    #[test]
    fn soa_bank_tracks_heads_and_bitset() {
        let mut slab = PacketSlab::new();
        let mut bank = VlBufferArray::new(4, 3, 10_000);
        let (p, v) = (PortId::new(2), VirtualLane::new(1));
        let slot = bank.slot_of(p, v);
        assert_eq!(slot, 2 * 3 + 1);
        assert_eq!(bank.head_egress_raw(slot), VlBufferArray::EMPTY);

        let mut e1 = entry(&mut slab, 4148, 5);
        e1.egress = PortId::new(3);
        let mut e2 = entry(&mut slab, 148, 9);
        e2.egress = PortId::new(1);
        bank.push(p, v, e1);
        bank.push(p, v, e2);

        assert_eq!(bank.nonempty_words()[0], 1u64 << slot);
        assert_eq!(bank.head_egress_raw(slot), 3);
        assert_eq!(bank.head_wire(slot), 4148);
        assert_eq!(bank.head_arrival(slot), SimTime::from_ns(5));
        assert_eq!(bank.head_eligible(slot), SimTime::from_ns(205));
        assert_eq!(bank.occupancy(p, v), 4148 + 148);

        // Popping refreshes the head mirror to the next packet…
        let popped = bank.pop(p, v).unwrap();
        assert_eq!(popped.wire, 4148);
        assert_eq!(bank.head_egress_raw(slot), 1);
        assert_eq!(bank.head_wire(slot), 148);
        // …and emptying the slot clears the bitset and sentinel.
        bank.pop(p, v).unwrap();
        assert_eq!(bank.head_egress_raw(slot), VlBufferArray::EMPTY);
        assert_eq!(bank.nonempty_words()[0], 0);
        assert!(bank.pop(p, v).is_none());
        assert_eq!(bank.total_occupied(), 0);
    }

    #[test]
    fn soa_bank_matches_aos_matrix() {
        // Differential: the SoA bank must agree with a ports × lanes matrix
        // of VlBuffers on occupancy, violations, heads and pop order under
        // a deterministic mixed workload.
        let (ports, vls) = (4u8, 3u8);
        let mut slab = PacketSlab::new();
        let mut bank = VlBufferArray::new(ports, vls, 9_000);
        let mut matrix: Vec<Vec<VlBuffer>> = (0..ports)
            .map(|_| (0..vls).map(|_| VlBuffer::new(9_000)).collect())
            .collect();
        let mut x = 11u64;
        for i in 0..200u64 {
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let p = ((x >> 32) % u64::from(ports)) as u8;
            let v = ((x >> 40) % u64::from(vls)) as u8;
            let (port, vl) = (PortId::new(p), VirtualLane::new(v));
            if x.is_multiple_of(3) {
                let a = bank.pop(port, vl).map(|e| (e.wire, e.arrival));
                let b = matrix[port.index()][vl.index()]
                    .pop()
                    .map(|e| (e.wire, e.arrival));
                assert_eq!(a, b, "pop mismatch at step {i}");
            } else {
                let mut e = entry(&mut slab, 100 + (x % 5_000), i);
                e.egress = PortId::new(((x >> 48) % u64::from(ports)) as u8);
                bank.push(port, vl, e);
                matrix[port.index()][vl.index()].push(e);
            }
            let a = bank.head(port, vl).map(|e| (e.wire, e.arrival, e.egress));
            let b = matrix[port.index()][vl.index()]
                .head()
                .map(|e| (e.wire, e.arrival, e.egress));
            assert_eq!(a, b, "head mismatch at step {i}");
            assert_eq!(
                bank.occupancy(port, vl),
                matrix[port.index()][vl.index()].occupied()
            );
        }
        let aos_violations: u64 = matrix.iter().flatten().map(|b| b.violations()).sum();
        assert_eq!(bank.violations(), aos_violations);
        let aos_total: u64 = matrix.iter().flatten().map(|b| b.occupied()).sum();
        assert_eq!(bank.total_occupied(), aos_total);
    }
}
