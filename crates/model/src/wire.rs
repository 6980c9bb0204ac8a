//! IB wire formats: verbs, transports, header sizes and the [`Packet`]
//! unit that flows through the simulated fabric.

use rperf_sim::SimTime;

use crate::ids::{FlowId, Lid, MsgId, PacketId, QpNum, ServiceLevel, VirtualLane};

/// The RDMA operation type ("verb") of a message.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// Two-sided SEND: the remote host must have pre-posted a RECV.
    Send,
    /// One-sided RDMA WRITE into a remote memory region.
    Write,
    /// One-sided RDMA READ from a remote memory region.
    Read,
}

impl Verb {
    /// `true` for one-sided verbs (WRITE, READ).
    pub fn is_one_sided(self) -> bool {
        matches!(self, Verb::Write | Verb::Read)
    }
}

/// The RDMA transport type.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Transport {
    /// Reliable Connection: acknowledged, supports all verbs.
    Rc,
    /// Unreliable Datagram: no ACKs, SEND/RECV only.
    Ud,
}

/// IB header field sizes in bytes.
///
/// These follow the InfiniBand Architecture Specification volume 1; the
/// paper quotes "up to 52 B" of per-packet header, which corresponds to the
/// local-route header stack plus link-level overhead modelled by
/// [`HeaderModel::link_overhead`].
pub mod header {
    /// Local Route Header.
    pub const LRH: u64 = 8;
    /// Base Transport Header.
    pub const BTH: u64 = 12;
    /// Datagram Extended Transport Header (UD only).
    pub const DETH: u64 = 8;
    /// RDMA Extended Transport Header (first packet of WRITE/READ).
    pub const RETH: u64 = 16;
    /// ACK Extended Transport Header.
    pub const AETH: u64 = 4;
    /// Invariant CRC.
    pub const ICRC: u64 = 4;
    /// Variant CRC.
    pub const VCRC: u64 = 2;
}

/// Computes per-packet wire overhead for the various packet types.
///
/// The paper notes IB headers "can be up to 52 B" — that bound includes
/// the optional 40-byte GRH, which LID-routed rack traffic does not carry.
/// The local header stack is LRH+BTH+ICRC+VCRC = 26 B; the model adds a
/// small per-packet link-level pad (symbol/flow-control amortization).
/// Keeping small-packet overhead realistic matters: the paper's Fig. 9
/// pushes 70 % of link capacity with 128-byte messages, which is only
/// possible with the thin header stack.
///
/// # Examples
///
/// ```
/// use rperf_model::wire::{HeaderModel, Transport, Verb};
///
/// let h = HeaderModel::default();
/// // RC SEND data packet: LRH+BTH+ICRC+VCRC plus link overhead.
/// assert_eq!(h.data_overhead(Verb::Send, Transport::Rc, true), 32);
/// // ACK: LRH+BTH+AETH+ICRC+VCRC plus link overhead.
/// assert_eq!(h.ack_overhead(), 36);
/// ```
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HeaderModel {
    /// Extra per-packet link-level bytes (symbol overhead, flow-control
    /// amortization expressed in byte-times).
    pub link_overhead: u64,
}

impl Default for HeaderModel {
    fn default() -> Self {
        HeaderModel { link_overhead: 6 }
    }
}

impl HeaderModel {
    /// Overhead of a data packet of the given verb/transport. `first` marks
    /// the first packet of a message (which carries the RETH for one-sided
    /// verbs).
    pub fn data_overhead(&self, verb: Verb, transport: Transport, first: bool) -> u64 {
        let mut oh = header::LRH + header::BTH + header::ICRC + header::VCRC + self.link_overhead;
        if transport == Transport::Ud {
            oh += header::DETH;
        }
        if first && verb.is_one_sided() {
            oh += header::RETH;
        }
        oh
    }

    /// Overhead (= full wire size) of an ACK packet.
    pub fn ack_overhead(&self) -> u64 {
        header::LRH + header::BTH + header::AETH + header::ICRC + header::VCRC + self.link_overhead
    }

    /// Overhead (= full wire size) of a READ request packet.
    pub fn read_request_overhead(&self) -> u64 {
        header::LRH + header::BTH + header::RETH + header::ICRC + header::VCRC + self.link_overhead
    }
}

/// What a packet is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PacketKind {
    /// A data-bearing packet (SEND / WRITE payload, or READ response data).
    Data {
        /// The verb of the parent message.
        verb: Verb,
        /// The transport of the parent message.
        transport: Transport,
        /// Zero-based index of this packet within the message.
        index: u32,
        /// `true` if this is the last packet of the message.
        last: bool,
    },
    /// A transport-level acknowledgment (RC only).
    Ack,
    /// A READ request travelling requester → responder.
    ReadRequest {
        /// Bytes requested.
        bytes: u64,
    },
}

impl PacketKind {
    /// `true` for data packets.
    pub fn is_data(self) -> bool {
        matches!(self, PacketKind::Data { .. })
    }

    /// `true` if this packet completes a message at the receiver.
    pub fn is_last_data(self) -> bool {
        matches!(self, PacketKind::Data { last: true, .. })
    }
}

/// One packet on the wire.
///
/// Packets are passive data (fields public): device models consume and
/// produce them, and never share them — each packet has exactly one owner
/// at any simulated instant, mirroring a real buffer occupancy.
#[derive(Debug, Clone, PartialEq)]
pub struct Packet {
    /// Unique packet id (for tracing).
    pub id: PacketId,
    /// The flow this packet belongs to.
    pub flow: FlowId,
    /// The message this packet belongs to.
    pub msg: MsgId,
    /// Source end-port LID.
    pub src: Lid,
    /// Destination end-port LID.
    pub dst: Lid,
    /// Destination queue pair (for delivery bookkeeping).
    pub dst_qp: QpNum,
    /// Service level carried in the header.
    pub sl: ServiceLevel,
    /// Virtual lane the injecting RNIC chose from the fabric's SL2VL table.
    /// Every hop buffers the packet on this lane and returns its credit on
    /// it: the lane the sender spent is the lane that gets it back.
    pub vl: VirtualLane,
    /// Packet type.
    pub kind: PacketKind,
    /// Payload bytes in this packet (0 for ACK / ReadRequest).
    pub payload: u64,
    /// Header + link overhead bytes.
    pub overhead: u64,
    /// When the first bit left the source RNIC.
    pub injected_at: SimTime,
}

impl Packet {
    /// Total bytes this packet occupies on a link and in switch buffers.
    pub fn wire_size(&self) -> u64 {
        self.payload + self.overhead
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn packet(kind: PacketKind, payload: u64, overhead: u64) -> Packet {
        Packet {
            id: PacketId::new(1),
            flow: FlowId::new(0),
            msg: MsgId::new(0),
            src: Lid::new(1),
            dst: Lid::new(2),
            dst_qp: QpNum::new(7),
            sl: ServiceLevel::new(0),
            vl: VirtualLane::new(0),
            kind,
            payload,
            overhead,
            injected_at: SimTime::ZERO,
        }
    }

    #[test]
    fn wire_size_sums_payload_and_overhead() {
        let p = packet(
            PacketKind::Data {
                verb: Verb::Send,
                transport: Transport::Rc,
                index: 0,
                last: true,
            },
            4096,
            52,
        );
        assert_eq!(p.wire_size(), 4148);
        assert!(p.kind.is_data());
        assert!(p.kind.is_last_data());
    }

    #[test]
    fn header_model_overheads() {
        let h = HeaderModel::default();
        // UD SEND carries the DETH.
        assert_eq!(
            h.data_overhead(Verb::Send, Transport::Ud, true),
            32 + header::DETH
        );
        // WRITE first packet carries the RETH; later packets do not.
        assert_eq!(
            h.data_overhead(Verb::Write, Transport::Rc, true),
            32 + header::RETH
        );
        assert_eq!(h.data_overhead(Verb::Write, Transport::Rc, false), 32);
        assert_eq!(h.read_request_overhead(), 48);
    }

    #[test]
    fn ack_is_not_data() {
        assert!(!PacketKind::Ack.is_data());
        assert!(!PacketKind::Ack.is_last_data());
        assert!(!PacketKind::ReadRequest { bytes: 64 }.is_data());
    }

    #[test]
    fn non_last_data_does_not_complete() {
        let k = PacketKind::Data {
            verb: Verb::Send,
            transport: Transport::Rc,
            index: 0,
            last: false,
        };
        assert!(k.is_data());
        assert!(!k.is_last_data());
    }

    #[test]
    fn one_sided_classification() {
        assert!(Verb::Write.is_one_sided());
        assert!(Verb::Read.is_one_sided());
        assert!(!Verb::Send.is_one_sided());
    }
}
