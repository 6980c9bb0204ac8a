//! Generational slab arena for in-flight [`Packet`]s.
//!
//! Every figure replays millions of packets through the event loop; moving
//! an 11-field [`Packet`] through every `FabricEvent`, switch ingress queue
//! and VL-arbitration step made event payloads ~100 bytes. With the arena, a
//! packet is allocated exactly once at injection (source RNIC), flows
//! through the fabric as a copyable 8-byte [`PacketRef`] handle, and is
//! freed when the destination RNIC consumes it. Generation counters catch
//! stale handles (use-after-free) immediately instead of silently reading a
//! recycled slot.
//!
//! The slab is deterministic: slots are recycled LIFO, so identical
//! schedule/free sequences — which the engine's FIFO tie-breaking guarantees
//! — produce identical handle values run over run.

use crate::wire::Packet;

/// A copyable handle to a [`Packet`] owned by a [`PacketSlab`].
///
/// Cheap to copy through event payloads and per-VL queues. The `gen` field
/// must match the slab slot's current generation; a mismatch means the
/// packet was already freed (or the handle belongs to a different slab) and
/// every accessor panics rather than returning stale data.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef {
    index: u32,
    generation: u32,
}

#[derive(Debug)]
struct Slot {
    generation: u32,
    packet: Option<Packet>,
}

/// A generational slab of in-flight packets.
///
/// # Examples
///
/// ```
/// use rperf_model::arena::PacketSlab;
/// # use rperf_model::wire::{Packet, PacketKind};
/// # use rperf_model::ids::{FlowId, Lid, MsgId, PacketId, QpNum, ServiceLevel, VirtualLane};
/// # fn mk() -> Packet {
/// #     Packet { id: PacketId::new(1), flow: FlowId::new(0), msg: MsgId::new(0),
/// #         src: Lid::new(1), dst: Lid::new(2), dst_qp: QpNum::new(7),
/// #         sl: ServiceLevel::new(0), vl: VirtualLane::new(0), kind: PacketKind::Ack, payload: 0,
/// #         overhead: 36 }
/// # }
/// let mut slab = PacketSlab::new();
/// let h = slab.alloc(mk());
/// assert_eq!(slab.get(h).wire_size(), 36);
/// assert_eq!(slab.live(), 1);
/// let p = slab.free(h);
/// assert_eq!(p.overhead, 36);
/// assert_eq!(slab.live(), 0);
/// assert_eq!(slab.high_water(), 1);
/// ```
#[derive(Debug, Default)]
pub struct PacketSlab {
    slots: Vec<Slot>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
    allocated: u64,
}

impl PacketSlab {
    /// An empty slab.
    pub fn new() -> Self {
        Self::default()
    }

    /// An empty slab pre-sized for `capacity` concurrently live packets.
    pub fn with_capacity(capacity: usize) -> Self {
        PacketSlab {
            slots: Vec::with_capacity(capacity),
            free: Vec::with_capacity(capacity),
            live: 0,
            high_water: 0,
            allocated: 0,
        }
    }

    /// Packet conservation: every slot is either live or on the free list.
    /// Checked in debug builds only.
    fn check_conservation(&self) {
        debug_assert_eq!(
            self.live + self.free.len(),
            self.slots.len(),
            "packet conservation violated (live {} + free {} != slots {})",
            self.live,
            self.free.len(),
            self.slots.len()
        );
    }

    /// Moves `packet` into the slab, returning its handle.
    pub fn alloc(&mut self, packet: Packet) -> PacketRef {
        self.live += 1;
        self.high_water = self.high_water.max(self.live);
        self.allocated += 1;
        let handle = match self.free.pop() {
            Some(index) => {
                let slot = &mut self.slots[index as usize];
                debug_assert!(slot.packet.is_none());
                slot.packet = Some(packet);
                PacketRef {
                    index,
                    generation: slot.generation,
                }
            }
            None => {
                let index = u32::try_from(self.slots.len()).expect("packet slab overflow");
                self.slots.push(Slot {
                    generation: 0,
                    packet: Some(packet),
                });
                PacketRef {
                    index,
                    generation: 0,
                }
            }
        };
        self.check_conservation();
        handle
    }

    /// The packet behind `handle`.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is stale (its packet was already freed).
    #[inline]
    pub fn get(&self, handle: PacketRef) -> &Packet {
        let slot = &self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "stale PacketRef: slot {} was recycled",
            handle.index
        );
        slot.packet.as_ref().expect("stale PacketRef: slot freed")
    }

    /// Removes the packet behind `handle` from the slab and returns it,
    /// bumping the slot's generation so surviving copies of the handle are
    /// detected as stale.
    ///
    /// # Panics
    ///
    /// Panics if `handle` is stale (double free).
    pub fn free(&mut self, handle: PacketRef) -> Packet {
        let slot = &mut self.slots[handle.index as usize];
        assert_eq!(
            slot.generation, handle.generation,
            "double free: slot {} was already recycled",
            handle.index
        );
        let packet = slot.packet.take().expect("double free: slot empty");
        slot.generation = slot.generation.wrapping_add(1);
        self.free.push(handle.index);
        self.live -= 1;
        self.check_conservation();
        packet
    }

    /// Number of packets currently live in the slab.
    #[inline]
    pub fn live(&self) -> usize {
        self.live
    }

    /// `true` if no packets are live.
    pub fn is_empty(&self) -> bool {
        self.live == 0
    }

    /// The maximum number of simultaneously live packets ever observed.
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Total packets ever allocated.
    pub fn allocated(&self) -> u64 {
        self.allocated
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{FlowId, Lid, MsgId, PacketId, QpNum, ServiceLevel, VirtualLane};
    use crate::wire::PacketKind;

    fn mk(id: u64) -> Packet {
        Packet {
            id: PacketId::new(id),
            flow: FlowId::new(0),
            msg: MsgId::new(0),
            src: Lid::new(1),
            dst: Lid::new(2),
            dst_qp: QpNum::new(7),
            sl: ServiceLevel::new(0),
            vl: VirtualLane::new(0),
            kind: PacketKind::Ack,
            payload: 0,
            overhead: 36,
        }
    }

    #[test]
    fn alloc_get_free_roundtrip() {
        let mut slab = PacketSlab::with_capacity(4);
        let a = slab.alloc(mk(1));
        let b = slab.alloc(mk(2));
        assert_eq!(slab.get(a).id, PacketId::new(1));
        assert_eq!(slab.get(b).id, PacketId::new(2));
        assert_eq!(slab.live(), 2);
        assert_eq!(slab.free(a).id, PacketId::new(1));
        assert_eq!(slab.free(b).id, PacketId::new(2));
        assert!(slab.is_empty());
        assert_eq!(slab.high_water(), 2);
        assert_eq!(slab.allocated(), 2);
    }

    #[test]
    fn slots_are_recycled_lifo_with_new_generation() {
        let mut slab = PacketSlab::new();
        let a = slab.alloc(mk(1));
        slab.free(a);
        let b = slab.alloc(mk(2));
        // Same slot, different generation.
        assert_ne!(a, b);
        assert_eq!(slab.get(b).id, PacketId::new(2));
        assert_eq!(slab.high_water(), 1);
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn stale_get_panics() {
        let mut slab = PacketSlab::new();
        let a = slab.alloc(mk(1));
        slab.free(a);
        slab.alloc(mk(2));
        slab.get(a);
    }

    #[test]
    #[should_panic(expected = "double free")]
    fn double_free_panics() {
        let mut slab = PacketSlab::new();
        let a = slab.alloc(mk(1));
        slab.free(a);
        slab.alloc(mk(2)); // recycle the slot
        slab.free(a);
    }

    #[test]
    fn handles_are_deterministic() {
        let run = || {
            let mut slab = PacketSlab::new();
            let a = slab.alloc(mk(1));
            let b = slab.alloc(mk(2));
            slab.free(a);
            let c = slab.alloc(mk(3));
            slab.free(b);
            slab.free(c);
            (a, b, c)
        };
        assert_eq!(run(), run());
    }
}
