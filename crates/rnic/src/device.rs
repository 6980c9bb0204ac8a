//! The RNIC device state machine.

use std::collections::BTreeMap;
use std::sync::Arc;

use rperf_model::arena::{PacketRef, PacketSlab};
use rperf_model::config::{LinkConfig, RnicConfig, Sl2VlTable};
use rperf_model::ids::PacketId;
use rperf_model::{
    FlowId, Lid, LinkRate, MsgId, NodeId, Packet, PacketKind, QpNum, Transport, Verb, VirtualLane,
};
use rperf_sim::{SimDuration, SimRng, SimTime};
use rperf_switch::CreditLedger;
use rperf_verbs::{Cqe, CqeOpcode, InFlight, QueuePair, RecvWr, SendWr, VerbsError, WrId};

use crate::txq::TxQueue;

/// An externally visible effect produced by the RNIC state machine.
#[derive(Debug, Clone)]
pub enum RnicAction {
    /// Ask to be woken (via [`Rnic::wake`]) at `at`.
    Wake {
        /// The wake-up instant.
        at: SimTime,
    },
    /// The wake after a transmit, asked for when nothing queued could use
    /// the wire when it frees at `at`: the fabric keys it as it would a
    /// [`RnicAction::Wake`] but holds it unscheduled until a
    /// [`RnicAction::ReleaseWake`]. A newer hold replaces it.
    HoldWake {
        /// The instant the wire frees.
        at: SimTime,
    },
    /// A packet or a credit may let the held wake send: the fabric
    /// schedules it under its key if that still pops after the event being
    /// handled, and discards it otherwise.
    ReleaseWake,
    /// Begin transmitting `packet` on the port now; the last bit leaves
    /// `serialize` from now. The packet stays in the fabric's slab until
    /// the destination RNIC consumes it.
    Transmit {
        /// Handle to the packet in the fabric's slab.
        packet: PacketRef,
        /// Wire serialization time.
        serialize: SimDuration,
    },
    /// Return receive-buffer credits to the upstream peer, effective
    /// `after` from now (when the RX engine frees the buffer).
    ReturnCredit {
        /// The virtual lane.
        vl: VirtualLane,
        /// Freed bytes.
        bytes: u64,
        /// Delay until the buffer is actually freed.
        after: SimDuration,
    },
    /// A completion becomes visible to host software at `cqe.visible_at`
    /// (may be in the future: the completion DMA write is in flight).
    Complete {
        /// The completion entry.
        cqe: Cqe,
    },
}

/// Aggregate RNIC counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RnicStats {
    /// Data/control packets transmitted on the wire.
    pub tx_packets: u64,
    /// Wire bytes transmitted.
    pub tx_wire_bytes: u64,
    /// Payload bytes transmitted.
    pub tx_payload_bytes: u64,
    /// Packets received.
    pub rx_packets: u64,
    /// Payload bytes received.
    pub rx_payload_bytes: u64,
    /// ACKs generated.
    pub acks_sent: u64,
    /// ACKs consumed.
    pub acks_received: u64,
    /// Incoming SENDs that found an empty receive queue and were satisfied
    /// by an auto-posted buffer (the paper's tools keep RQs charged; this
    /// counter should stay 0 when applications pre-post properly).
    pub recv_autofills: u64,
    /// Loopback messages completed.
    pub loopbacks: u64,
}

/// The RNIC device.
///
/// Pure state machine driven by five entry points: [`Rnic::post_send`] /
/// [`Rnic::post_send_batch`] (host side), [`Rnic::packet_arrival`] /
/// [`Rnic::credit_from_peer`] (wire side) and [`Rnic::wake`] (self-
/// scheduled). See the crate docs for the modelled pipelines.
///
/// Outbound packets are allocated into the caller's [`PacketSlab`] at
/// injection and travel the fabric as [`PacketRef`] handles; inbound
/// packets are consumed out of the slab on arrival.
#[derive(Debug)]
pub struct Rnic {
    node: NodeId,
    lid: Lid,
    cfg: Arc<RnicConfig>,
    /// The fabric's SL2VL table: every packet this RNIC injects carries
    /// the VL it maps the packet's SL to.
    sl2vl: Sl2VlTable,
    data_rate: LinkRate,
    loop_rate: LinkRate,
    pcie_rate: LinkRate,
    rng: SimRng,
    /// QP table. Numbers are handed out densely from 1 by
    /// [`Rnic::create_qp`], so QP `n` lives at index `n - 1` and the hot
    /// per-packet and per-WR lookups cost an array index instead of a
    /// tree walk.
    qps: Vec<QueuePair>,
    /// The messages this RNIC's requesters have launched and not yet
    /// completed; it also mints their ids.
    in_flight: InFlight,
    next_pkt: u64,
    /// WQE engine busy horizon (the message-rate cap).
    engine_free: SimTime,
    /// Wire (SerDes) busy horizon.
    wire_free: SimTime,
    /// RX engine busy horizon.
    rx_free: SimTime,
    /// Monotone data-packet readiness horizon: a later WQE's packets may
    /// never reach the wire before an earlier WQE's (IB preserves order on
    /// a connection even when a small inline message skips the payload DMA
    /// a larger predecessor is still waiting on).
    tx_ready_horizon: SimTime,
    /// Monotone responder-delivery horizon: receive completions surface in
    /// arrival order even when a small message's payload DMA finishes
    /// before a larger predecessor's.
    rx_deliver_horizon: SimTime,
    /// Monotone ACK-generation horizon: IB acknowledgments are cumulative
    /// and ordered; per-packet processing jitter must not reorder them.
    ack_horizon: SimTime,
    /// Outbound packets from the moment they are scheduled until they are
    /// injected, each with the instant it becomes injectable.
    txq: TxQueue,
    /// The last transmit's wake at `wire_free` went out as a
    /// [`RnicAction::HoldWake`] and no release has been asked for since.
    wake_held: bool,
    /// Credits held toward the downstream peer (switch ingress buffer or a
    /// directly attached RNIC's receive buffer), one per lane.
    peer_credits: CreditLedger,
    /// Payload bytes accumulated per incoming message.
    rx_accum: BTreeMap<u64, u64>,
    stats: RnicStats,
}

impl Rnic {
    /// Builds an RNIC for `node` with address `lid` that stamps every
    /// packet it injects with the VL the fabric's `sl2vl` table maps its SL
    /// to; its injection queues and credit ledgers hold the table's lanes.
    /// Accepts the device configuration by value or pre-shared in an
    /// [`Arc`] — a fabric hands every node the same allocation.
    pub fn new(
        node: NodeId,
        lid: Lid,
        cfg: impl Into<Arc<RnicConfig>>,
        sl2vl: Sl2VlTable,
        link: &LinkConfig,
        rng: SimRng,
    ) -> Self {
        let cfg = cfg.into();
        let lanes = sl2vl.lanes();
        let data_rate = link.data_rate();
        Rnic {
            sl2vl,
            loop_rate: data_rate.scaled(cfg.loopback_factor),
            pcie_rate: cfg.pcie_rate,
            data_rate,
            node,
            lid,
            rng,
            qps: Vec::new(),
            in_flight: InFlight::new(node),
            next_pkt: 0,
            engine_free: SimTime::ZERO,
            wire_free: SimTime::ZERO,
            rx_free: SimTime::ZERO,
            tx_ready_horizon: SimTime::ZERO,
            rx_deliver_horizon: SimTime::ZERO,
            ack_horizon: SimTime::ZERO,
            txq: TxQueue::new(lanes),
            wake_held: false,
            peer_credits: CreditLedger::unlimited(lanes),
            rx_accum: BTreeMap::new(),
            stats: RnicStats::default(),
            cfg,
        }
    }

    /// The node this RNIC belongs to.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// The port's LID.
    pub fn lid(&self) -> Lid {
        self.lid
    }

    /// The device configuration.
    pub fn config(&self) -> &RnicConfig {
        &self.cfg
    }

    /// Aggregate counters.
    pub fn stats(&self) -> RnicStats {
        self.stats
    }

    /// Lanes the RNIC was built with: the fabric's lane count, one past
    /// the highest VL its SL2VL table maps to.
    pub fn lanes(&self) -> u8 {
        self.peer_credits.lanes()
    }

    /// Installs the credit grant advertised by the attached peer.
    ///
    /// # Panics
    ///
    /// Panics if the ledger's lane count differs from the RNIC's: both
    /// ends of a link must size their credits by the fabric's one count.
    pub fn set_peer_credits(&mut self, ledger: CreditLedger) {
        assert_eq!(
            ledger.lanes(),
            self.lanes(),
            "a {}-lane ledger on a {}-lane RNIC",
            ledger.lanes(),
            self.lanes()
        );
        self.peer_credits = ledger;
    }

    /// The receive-buffer grant this RNIC advertises to its peer, one per
    /// lane.
    pub fn advertised_credits(&self) -> CreditLedger {
        CreditLedger::new(self.lanes(), self.cfg.rx_buffer_bytes)
    }

    /// Creates a queue pair.
    pub fn create_qp(&mut self, transport: Transport) -> QpNum {
        let num = QpNum::new(self.qps.len() as u32 + 1);
        self.qps.push(QueuePair::new(num, transport));
        num
    }

    /// Looks up QP number `raw` (0 is the "no QP" sentinel and misses).
    #[inline]
    fn qp_slot(&self, raw: u32) -> Option<&QueuePair> {
        self.qps.get(raw.wrapping_sub(1) as usize)
    }

    #[inline]
    fn qp_slot_mut(&mut self, raw: u32) -> Option<&mut QueuePair> {
        self.qps.get_mut(raw.wrapping_sub(1) as usize)
    }

    /// Read access to a queue pair (diagnostics, tests).
    ///
    /// # Panics
    ///
    /// Panics if the QP does not exist.
    pub fn qp(&self, num: QpNum) -> &QueuePair {
        self.qp_slot(num.raw()).expect("unknown QP")
    }

    /// Pre-posts a receive buffer. Posting to an unknown QP is a harness
    /// bug: debug builds assert, release builds drop the buffer (the
    /// receive side then reports an autofill instead of corrupting state).
    pub fn post_recv(&mut self, qp: QpNum, wr: RecvWr) {
        let Some(qp) = self.qp_slot_mut(qp.raw()) else {
            debug_assert!(false, "post_recv on unknown QP");
            return;
        };
        qp.post_recv(wr);
    }

    fn alloc_pkt(&mut self) -> PacketId {
        let id = ((self.node.raw() as u64) << 40) | self.next_pkt;
        self.next_pkt += 1;
        PacketId::new(id)
    }

    fn pcie_time(&self, bytes: u64) -> SimDuration {
        self.pcie_rate.serialize_time(bytes)
    }

    /// Allocates an outbound packet into the slab and queues it to be
    /// injected from `ready` on, asking for a wake then. Every caller's
    /// `ready` is no earlier than its own instant, which keeps each queue
    /// in the order its packets become ready (see [`TxQueue`]).
    ///
    /// A packet ready by the time the wire frees may be what the held
    /// post-transmit wake sends, so it releases that wake. Its own wake is
    /// asked for only if the wire is free by then: one earlier would pop
    /// while the wire is busy and do nothing, and the wake at `wire_free`
    /// (queued, held until it can send, or just released) comes first.
    fn schedule_tx(
        &mut self,
        ready: SimTime,
        packet: Packet,
        slab: &mut PacketSlab,
        out: &mut Vec<RnicAction>,
    ) {
        let (vl, wire) = (packet.vl, packet.wire_size());
        let ack = matches!(packet.kind, PacketKind::Ack);
        let handle = slab.alloc(packet);
        if ack {
            self.txq.push_ack(ready, handle, vl, wire);
        } else {
            self.txq.push_data(ready, handle, vl, wire);
        }
        self.release_if_sendable(out);
        if ready >= self.wire_free {
            out.push(RnicAction::Wake { at: ready });
        }
    }

    /// `true` if [`TxQueue::pop_next`] at `at` would offer a packet with
    /// the credits held now.
    fn sendable_at(&self, at: SimTime) -> bool {
        let credits = &self.peer_credits;
        self.txq
            .has_ready(at, |vl, bytes| credits.can_send(vl, bytes))
    }

    /// Releases the held post-transmit wake once it has a packet to send
    /// when the wire frees: one ready by then, with the credits held now.
    fn release_if_sendable(&mut self, out: &mut Vec<RnicAction>) {
        if self.wake_held && self.sendable_at(self.wire_free) {
            self.wake_held = false;
            out.push(RnicAction::ReleaseWake);
        }
    }

    /// Posts one send work request (one doorbell): a batch of one.
    ///
    /// # Errors
    ///
    /// As [`Rnic::post_send_batch`].
    pub fn post_send(
        &mut self,
        now: SimTime,
        qp_num: QpNum,
        wr: SendWr,
        slab: &mut PacketSlab,
        out: &mut Vec<RnicAction>,
    ) -> Result<(), VerbsError> {
        self.post_send_batch(now, qp_num, std::slice::from_ref(&wr), slab, out)
    }

    /// Posts a batch of send work requests with a single doorbell —
    /// the batching optimization the paper's BSGs (Section VIII-A) and the
    /// pretend-LSG (Section VIII-C) use. Every WR is checked, then each is
    /// launched in slice order. Resulting actions are appended to `out`.
    ///
    /// # Errors
    ///
    /// If a WR fails the verbs-layer checks, its error is returned and no
    /// WR is launched. Posting on an unknown QP is a harness bug: debug
    /// builds assert, release builds drop the batch and append no actions.
    pub fn post_send_batch(
        &mut self,
        now: SimTime,
        qp_num: QpNum,
        wrs: &[SendWr],
        slab: &mut PacketSlab,
        out: &mut Vec<RnicAction>,
    ) -> Result<(), VerbsError> {
        let Some(qp) = self.qp_slot(qp_num.raw()) else {
            debug_assert!(false, "post_send_batch on unknown QP");
            return Ok(());
        };
        wrs.iter().try_for_each(|wr| qp.check_send(wr))?;
        let transport = qp.transport();
        let wqe_at = now + self.cfg.mmio_post;
        for &wr in wrs {
            self.launch_wr(wqe_at, qp_num, transport, wr, slab, out);
        }
        Ok(())
    }

    /// Runs one WR through the engine/DMA pipeline.
    fn launch_wr(
        &mut self,
        wqe_at: SimTime,
        qp_num: QpNum,
        transport: Transport,
        wr: SendWr,
        slab: &mut PacketSlab,
        out: &mut Vec<RnicAction>,
    ) {
        let n_packets = if wr.verb == Verb::Read {
            1 // the READ request itself is a single header-only packet
        } else {
            self.cfg.packets_for(wr.payload)
        };
        let engine_start = wqe_at.max(self.engine_free);
        let engine_done = engine_start + self.cfg.engine_time(n_packets);
        self.engine_free = engine_done;

        let msg = self.in_flight.open(qp_num, wr);

        if wr.loopback {
            self.launch_loopback(engine_done, qp_num, transport, msg, wr, out);
            return;
        }

        let flow = FlowId::new(self.lid.raw() as u32);
        let vl = self.sl2vl.vl_for(wr.sl);
        let inline = wr.payload <= self.cfg.inline_threshold && wr.verb != Verb::Read;
        // Inlined payloads and READ requests (no local payload) skip the
        // DMA fetch.
        let dma_base = if inline || wr.verb == Verb::Read {
            SimDuration::ZERO
        } else {
            self.cfg.dma_read_latency
        };

        if wr.verb == Verb::Read {
            let ready = engine_done.max(self.tx_ready_horizon);
            self.tx_ready_horizon = ready;
            let packet = Packet {
                id: self.alloc_pkt(),
                flow,
                msg,
                src: self.lid,
                dst: wr.remote,
                dst_qp: wr.remote_qp,
                sl: wr.sl,
                vl,
                kind: PacketKind::ReadRequest { bytes: wr.payload },
                payload: 0,
                overhead: self.cfg.headers.read_request_overhead(),
            };
            self.schedule_tx(ready, packet, slab, out);
            return;
        }

        let mut remaining = wr.payload;
        let mut cumulative = 0u64;
        for i in 0..n_packets {
            let chunk = remaining.min(self.cfg.mtu);
            remaining -= chunk;
            cumulative += chunk;
            let first = i == 0;
            let last = i + 1 == n_packets;
            let ready = (engine_done
                + if inline {
                    SimDuration::ZERO
                } else {
                    dma_base + self.pcie_time(cumulative)
                })
            .max(self.tx_ready_horizon);
            self.tx_ready_horizon = ready;
            let packet = Packet {
                id: self.alloc_pkt(),
                flow,
                msg,
                src: self.lid,
                dst: wr.remote,
                dst_qp: wr.remote_qp,
                sl: wr.sl,
                vl,
                kind: PacketKind::Data {
                    verb: wr.verb,
                    transport,
                    index: i as u32,
                    last,
                },
                payload: chunk,
                overhead: self.cfg.headers.data_overhead(wr.verb, transport, first),
            };
            self.schedule_tx(ready, packet, slab, out);
        }
    }

    /// Runs a loopback message: internal datapath, no wire, RC-style
    /// completion via the internal turnaround.
    fn launch_loopback(
        &mut self,
        engine_done: SimTime,
        qp_num: QpNum,
        transport: Transport,
        msg: MsgId,
        wr: SendWr,
        out: &mut Vec<RnicAction>,
    ) {
        let inline = wr.payload <= self.cfg.inline_threshold;
        let dma = if inline {
            SimDuration::ZERO
        } else {
            self.cfg.dma_read_latency + self.pcie_time(wr.payload)
        };
        let n_packets = self.cfg.packets_for(wr.payload);
        let oh_first = self.cfg.headers.data_overhead(wr.verb, transport, true);
        let oh_rest = self.cfg.headers.data_overhead(wr.verb, transport, false);
        let wire_bytes = wr.payload + oh_first + oh_rest * (n_packets - 1);
        let s_loop = self.loop_rate.serialize_time(wire_bytes);
        let delivered = engine_done + dma + s_loop;

        // Requester completion: internal turnaround plays the ACK's role.
        let visible = delivered + self.cfg.loopback_turnaround + self.cfg.dma_write_latency;
        if self.in_flight.close(msg).is_none() {
            debug_assert!(false, "loopback message was never opened");
            return;
        }
        self.stats.loopbacks += 1;
        if wr.signaled {
            out.push(RnicAction::Complete {
                cqe: Cqe {
                    wr_id: wr.wr_id,
                    qp: qp_num,
                    opcode: opcode_of(wr.verb),
                    bytes: wr.payload,
                    visible_at: visible,
                },
            });
        }

        // Receive side of the self-addressed SEND: consume a RECV and
        // deliver a Recv completion once the payload DMA lands. The
        // loopback path bypasses the SerDes and wire parser, so it does
        // not contend with the wire RX engine.
        if wr.verb == Verb::Send {
            let rx_done = delivered + self.cfg.rx_per_packet;
            let landed = rx_done + self.cfg.dma_write_latency + self.pcie_time(wr.payload);
            let recv_wr = self.take_recv(qp_num, wr.payload);
            out.push(RnicAction::Complete {
                cqe: Cqe {
                    wr_id: recv_wr.wr_id,
                    qp: qp_num,
                    opcode: CqeOpcode::Recv,
                    bytes: wr.payload,
                    visible_at: landed,
                },
            });
        }
    }

    fn take_recv(&mut self, qp_num: QpNum, bytes: u64) -> RecvWr {
        let posted = match self.qp_slot_mut(qp_num.raw()) {
            Some(qp) => qp.consume_recv().ok(),
            None => {
                debug_assert!(false, "take_recv on unknown QP");
                None
            }
        };
        posted.unwrap_or_else(|| {
            self.stats.recv_autofills += 1;
            RecvWr::new(WrId(u64::MAX), bytes)
        })
    }

    /// A self-scheduled wake-up: if the wire is free, injects the next
    /// packet that is ready and has credits, appending actions to `out`.
    ///
    /// A transmit asks for a wake when the wire frees. It is a
    /// [`RnicAction::HoldWake`] when no queued packet is ready by then with
    /// the credits held now: only a packet scheduled or a credit returned
    /// before then can give it work, and either releases it once it does.
    pub fn wake(&mut self, now: SimTime, slab: &PacketSlab, out: &mut Vec<RnicAction>) {
        // A busy wire needs no wake of its own: the transmit that set
        // `wire_free` asked for the one wake its busy period needs, and
        // that wake pops before any later-emitted wake at the same
        // instant.
        if self.wire_free > now {
            return;
        }
        let credits = &mut self.peer_credits;
        let picked = self
            .txq
            .pop_next(now, |vl, bytes| credits.can_send(vl, bytes));
        let Some((packet, vl, size)) = picked else {
            return;
        };
        let consumed = self.peer_credits.consume(vl, size);
        debug_assert!(consumed, "pop_next filtered by credits");
        let serialize = self.data_rate.serialize_time(size);
        let wire_done = now + serialize;
        self.wire_free = wire_done + self.cfg.tx_ipg;
        // One slab read per transmitted packet (stats + the UD completion
        // check); arbitration and credit gating above never touch it.
        let (payload, kind, msg) = {
            let p = slab.get(packet);
            (p.payload, p.kind, p.msg)
        };
        self.stats.tx_packets += 1;
        self.stats.tx_wire_bytes += size;
        self.stats.tx_payload_bytes += payload;
        if matches!(kind, PacketKind::Ack) {
            self.stats.acks_sent += 1;
        }

        // UD SENDs complete when the last packet exits the wire (Fig. 1c).
        if let PacketKind::Data {
            transport: Transport::Ud,
            last: true,
            ..
        } = kind
        {
            self.complete_requester(msg, wire_done, out);
        }

        out.push(RnicAction::Transmit { packet, serialize });
        let at = self.wire_free;
        self.wake_held = !self.sendable_at(at);
        out.push(if self.wake_held {
            RnicAction::HoldWake { at }
        } else {
            RnicAction::Wake { at }
        });
    }

    fn complete_requester(&mut self, msg: MsgId, base: SimTime, out: &mut Vec<RnicAction>) {
        let Some((qp, wr)) = self.in_flight.close(msg) else {
            return;
        };
        if wr.signaled {
            out.push(RnicAction::Complete {
                cqe: Cqe {
                    wr_id: wr.wr_id,
                    qp,
                    opcode: opcode_of(wr.verb),
                    bytes: wr.payload,
                    visible_at: base + self.cfg.dma_write_latency,
                },
            });
        }
    }

    /// Credits returned by the attached peer; appends actions to `out`.
    /// While the wire is busy they can only help the wake at `wire_free`,
    /// so they release it if it is held and now has a packet to send.
    pub fn credit_from_peer(
        &mut self,
        now: SimTime,
        vl: VirtualLane,
        bytes: u64,
        slab: &PacketSlab,
        out: &mut Vec<RnicAction>,
    ) {
        self.peer_credits.replenish(vl, bytes);
        if self.wire_free > now {
            self.release_if_sendable(out);
            return;
        }
        self.wake(now, slab, out);
    }

    /// A packet's last bit arrived from the wire at `now`. The RNIC is the
    /// packet's final consumer: the handle is freed out of the slab here.
    /// Resulting actions are appended to `out`.
    pub fn packet_arrival(
        &mut self,
        now: SimTime,
        packet: PacketRef,
        slab: &mut PacketSlab,
        out: &mut Vec<RnicAction>,
    ) {
        let packet = slab.free(packet);
        let rx_jitter = match &self.cfg.rx_jitter {
            Some(j) => j.sample(&mut self.rng),
            None => SimDuration::ZERO,
        };
        let rx_done = now.max(self.rx_free) + self.cfg.rx_per_packet + rx_jitter;
        self.rx_free = rx_done;
        self.stats.rx_packets += 1;
        self.stats.rx_payload_bytes += packet.payload;

        // Free the receive buffer once the engine is done with the packet;
        // the credit goes back on the lane the sender spent.
        out.push(RnicAction::ReturnCredit {
            vl: packet.vl,
            bytes: packet.wire_size(),
            after: rx_done - now,
        });

        match packet.kind {
            PacketKind::Ack => {
                self.stats.acks_received += 1;
                let done_at = rx_done + self.cfg.ack_rx;
                self.complete_requester(packet.msg, done_at, out);
            }
            PacketKind::ReadRequest { bytes } => {
                self.respond_to_read(rx_done, &packet, bytes, slab, out);
            }
            PacketKind::Data {
                verb,
                transport,
                index,
                last,
            } => {
                if !last {
                    *self.rx_accum.entry(packet.msg.raw()).or_insert(0) += packet.payload;
                    return;
                }
                // Single-packet messages (the common case) never touch the
                // accumulator map.
                let total = if index == 0 {
                    packet.payload
                } else {
                    packet.payload + self.rx_accum.remove(&packet.msg.raw()).unwrap_or(0)
                };
                if self.in_flight.contains(packet.msg) {
                    // READ response data landing at the requester (Fig. 1a):
                    // complete once the payload DMA write finishes.
                    let landed = rx_done + self.cfg.dma_write_latency + self.pcie_time(total);
                    self.complete_requester(packet.msg, landed, out);
                    return;
                }
                self.deliver_to_responder(rx_done, &packet, verb, transport, total, slab, out);
            }
        }
    }

    fn respond_to_read(
        &mut self,
        rx_done: SimTime,
        request: &Packet,
        bytes: u64,
        slab: &mut PacketSlab,
        out: &mut Vec<RnicAction>,
    ) {
        // Responder-side DMA read, then hardware-generated response data
        // (no WQE engine involvement — one-sided semantics, Fig. 1a).
        let n_packets = self.cfg.packets_for(bytes);
        let vl = self.sl2vl.vl_for(request.sl);
        let mut remaining = bytes;
        let mut cumulative = 0u64;
        for i in 0..n_packets {
            let chunk = remaining.min(self.cfg.mtu);
            remaining -= chunk;
            cumulative += chunk;
            let ready = rx_done + self.cfg.dma_read_latency + self.pcie_time(cumulative);
            let response = Packet {
                id: self.alloc_pkt(),
                flow: request.flow,
                msg: request.msg,
                src: self.lid,
                dst: request.src,
                dst_qp: QpNum::new(0),
                sl: request.sl,
                vl,
                kind: PacketKind::Data {
                    verb: Verb::Read,
                    transport: Transport::Rc,
                    index: i as u32,
                    last: i + 1 == n_packets,
                },
                payload: chunk,
                overhead: self
                    .cfg
                    .headers
                    .data_overhead(Verb::Read, Transport::Rc, i == 0),
            };
            self.schedule_tx(ready, response, slab, out);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn deliver_to_responder(
        &mut self,
        rx_done: SimTime,
        packet: &Packet,
        verb: Verb,
        transport: Transport,
        total: u64,
        slab: &mut PacketSlab,
        out: &mut Vec<RnicAction>,
    ) {
        let dma_done = (rx_done + self.cfg.dma_write_latency + self.pcie_time(total))
            .max(self.rx_deliver_horizon);
        self.rx_deliver_horizon = dma_done;

        if transport == Transport::Rc {
            // SEND is acknowledged immediately on receipt — before the
            // payload DMA (Fig. 1d, the property RPerf exploits). WRITE
            // acknowledges only after the remote DMA write (Fig. 1b, the
            // delay QPerf cannot subtract).
            let ack_jitter = match &self.cfg.rx_jitter {
                Some(j) => j.sample(&mut self.rng),
                None => SimDuration::ZERO,
            };
            let ack_at = match verb {
                Verb::Send => rx_done + self.cfg.ack_turnaround + ack_jitter,
                _ => dma_done + self.cfg.ack_turnaround + ack_jitter,
            }
            .max(self.ack_horizon);
            self.ack_horizon = ack_at;
            let ack = Packet {
                id: self.alloc_pkt(),
                flow: packet.flow,
                msg: packet.msg,
                src: self.lid,
                dst: packet.src,
                dst_qp: QpNum::new(0),
                sl: packet.sl,
                vl: self.sl2vl.vl_for(packet.sl),
                kind: PacketKind::Ack,
                payload: 0,
                overhead: self.cfg.headers.ack_overhead(),
            };
            self.schedule_tx(ack_at, ack, slab, out);
        }

        if verb == Verb::Send {
            // Two-sided delivery: consume a pre-posted RECV, complete once
            // the payload lands in host memory.
            let qp_num = packet.dst_qp;
            if self.qp_slot(qp_num.raw()).is_some() {
                let recv_wr = self.take_recv(qp_num, total);
                out.push(RnicAction::Complete {
                    cqe: Cqe {
                        wr_id: recv_wr.wr_id,
                        qp: qp_num,
                        opcode: CqeOpcode::Recv,
                        bytes: total,
                        visible_at: dma_done,
                    },
                });
            } else {
                self.stats.recv_autofills += 1;
                out.push(RnicAction::Complete {
                    cqe: Cqe {
                        wr_id: WrId(u64::MAX),
                        qp: qp_num,
                        opcode: CqeOpcode::Recv,
                        bytes: total,
                        visible_at: dma_done,
                    },
                });
            }
        }
    }
}

fn opcode_of(verb: Verb) -> CqeOpcode {
    match verb {
        Verb::Send => CqeOpcode::Send,
        Verb::Write => CqeOpcode::Write,
        Verb::Read => CqeOpcode::Read,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rperf_model::{ClusterConfig, ServiceLevel};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A tiny pump that feeds an RNIC its own wakes and collects the
    /// externally visible actions. Owns the packet slab, playing the
    /// fabric's role: transmitted packets are consumed out of the slab
    /// immediately (the "wire" here is the test itself).
    struct Pump {
        rnic: Rnic,
        slab: PacketSlab,
        wakes: BinaryHeap<Reverse<u64>>,
        /// The held post-transmit wake, as the fabric keeps it.
        held: Option<u64>,
        transmitted: Vec<(SimTime, Packet, SimDuration)>,
        completions: Vec<Cqe>,
        credits_returned: Vec<(SimTime, VirtualLane, u64)>,
    }

    impl Pump {
        fn new(node: u16) -> Self {
            Self::with_sl2vl(node, Sl2VlTable::all_to_vl0())
        }

        fn with_sl2vl(node: u16, sl2vl: Sl2VlTable) -> Self {
            let cfg = ClusterConfig::omnet_simulator();
            Pump {
                rnic: Rnic::new(
                    NodeId::new(node),
                    Lid::new(node),
                    cfg.rnic.clone(),
                    sl2vl,
                    &cfg.link,
                    SimRng::new(node as u64),
                ),
                slab: PacketSlab::new(),
                wakes: BinaryHeap::new(),
                held: None,
                transmitted: Vec::new(),
                completions: Vec::new(),
                credits_returned: Vec::new(),
            }
        }

        fn absorb(&mut self, now: SimTime, actions: Vec<RnicAction>) {
            for a in actions {
                match a {
                    RnicAction::Wake { at } => self.wakes.push(Reverse(at.as_ps())),
                    RnicAction::HoldWake { at } => self.held = Some(at.as_ps()),
                    RnicAction::ReleaseWake => {
                        if let Some(at) = self.held.take().filter(|&at| at >= now.as_ps()) {
                            self.wakes.push(Reverse(at));
                        }
                    }
                    RnicAction::Transmit { packet, serialize } => {
                        let pkt = self.slab.free(packet);
                        self.transmitted.push((now, pkt, serialize))
                    }
                    RnicAction::Complete { cqe } => self.completions.push(cqe),
                    RnicAction::ReturnCredit { vl, bytes, after } => {
                        self.credits_returned.push((now + after, vl, bytes))
                    }
                }
            }
        }

        /// Posts a send WR, feeding the resulting actions back in.
        fn post(&mut self, now: SimTime, qp: QpNum, wr: SendWr) -> Result<(), VerbsError> {
            let mut actions = Vec::new();
            self.rnic
                .post_send(now, qp, wr, &mut self.slab, &mut actions)?;
            self.absorb(now, actions);
            Ok(())
        }

        /// Delivers a packet from the wire (allocating it into this pump's
        /// slab, as the fabric would have it resident there).
        fn deliver(&mut self, now: SimTime, packet: Packet) {
            let handle = self.slab.alloc(packet);
            let mut actions = Vec::new();
            self.rnic
                .packet_arrival(now, handle, &mut self.slab, &mut actions);
            self.absorb(now, actions);
        }

        /// Runs wakes until quiescent; returns the last processed time.
        fn run(&mut self) -> SimTime {
            let mut last = SimTime::ZERO;
            let mut guard = 0;
            while let Some(Reverse(ps)) = self.wakes.pop() {
                guard += 1;
                assert!(guard < 100_000, "wake storm");
                let t = SimTime::from_ps(ps);
                last = t;
                let mut actions = Vec::new();
                self.rnic.wake(t, &self.slab, &mut actions);
                self.absorb(t, actions);
            }
            last
        }
    }

    fn send_wr(id: u64, payload: u64, dst: u16) -> SendWr {
        SendWr::new(WrId(id), Verb::Send, payload).to(Lid::new(dst), QpNum::new(1))
    }

    #[test]
    fn inline_send_timing() {
        let mut p = Pump::new(1);
        let qp = p.rnic.create_qp(Transport::Rc);
        let t0 = SimTime::from_ns(1000);
        p.post(t0, qp, send_wr(1, 64, 2)).unwrap();
        p.run();
        assert_eq!(p.transmitted.len(), 1);
        let (at, packet, _) = &p.transmitted[0];
        let cfg = p.rnic.config();
        // Inline 64 B: no DMA read; ready at post + mmio + engine.
        let expected = t0 + cfg.mmio_post + cfg.engine_time(1);
        assert_eq!(*at, expected, "got {at}, expected {expected}");
        assert_eq!(packet.payload, 64);
        assert!(packet.kind.is_last_data());
        assert!(p.slab.is_empty(), "transmitted packets leave the slab");
    }

    #[test]
    fn large_send_pays_dma_read() {
        let mut p = Pump::new(1);
        let qp = p.rnic.create_qp(Transport::Rc);
        let t0 = SimTime::ZERO;
        p.post(t0, qp, send_wr(1, 4096, 2)).unwrap();
        p.run();
        let (at, _, _) = &p.transmitted[0];
        let cfg = p.rnic.config();
        let expected = t0
            + cfg.mmio_post
            + cfg.engine_time(1)
            + cfg.dma_read_latency
            + cfg.pcie_rate.serialize_time(4096);
        assert_eq!(*at, expected);
    }

    #[test]
    fn multi_packet_message_respects_mtu() {
        let mut p = Pump::new(1);
        let qp = p.rnic.create_qp(Transport::Rc);
        p.post(SimTime::ZERO, qp, send_wr(1, 10_000, 2)).unwrap();
        p.run();
        assert_eq!(p.transmitted.len(), 3);
        let payloads: Vec<u64> = p.transmitted.iter().map(|(_, pk, _)| pk.payload).collect();
        assert_eq!(payloads, vec![4096, 4096, 1808]);
        let lasts: Vec<bool> = p
            .transmitted
            .iter()
            .map(|(_, pk, _)| pk.kind.is_last_data())
            .collect();
        assert_eq!(lasts, vec![false, false, true]);
    }

    #[test]
    fn engine_caps_message_rate() {
        let mut p = Pump::new(1);
        let qp = p.rnic.create_qp(Transport::Rc);
        let wrs: Vec<SendWr> = (0..50).map(|i| send_wr(i, 64, 2)).collect();
        let mut actions = Vec::new();
        p.rnic
            .post_send_batch(SimTime::ZERO, qp, &wrs, &mut p.slab, &mut actions)
            .unwrap();
        p.absorb(SimTime::ZERO, actions);
        p.run();
        assert_eq!(p.transmitted.len(), 50);
        let cfg_engine = p.rnic.config().engine_time(1);
        for pair in p.transmitted.windows(2) {
            let gap = pair[1].0 - pair[0].0;
            assert!(
                gap >= cfg_engine,
                "messages must be engine-spaced: gap {gap} < {cfg_engine}"
            );
        }
    }

    #[test]
    fn rc_send_ack_roundtrip_completes() {
        let mut a = Pump::new(1);
        let mut b = Pump::new(2);
        let qp_a = a.rnic.create_qp(Transport::Rc);
        let qp_b = b.rnic.create_qp(Transport::Rc);
        b.rnic.post_recv(qp_b, RecvWr::new(WrId(100), 4096));

        let t0 = SimTime::ZERO;
        let wr = SendWr::new(WrId(1), Verb::Send, 64).to(Lid::new(2), qp_b);
        a.post(t0, qp_a, wr).unwrap();
        a.run();
        let (tx_at, packet, ser) = a.transmitted[0].clone();
        // Deliver last bit to B.
        let arrival = tx_at + ser + SimDuration::from_ns(5);
        b.deliver(arrival, packet);
        b.run();
        // B produced a Recv completion and an ACK on the wire.
        assert!(b
            .completions
            .iter()
            .any(|c| c.opcode == CqeOpcode::Recv && c.wr_id == WrId(100) && c.bytes == 64));
        let (ack_at, ack, ack_ser) = b
            .transmitted
            .iter()
            .find(|(_, pk, _)| matches!(pk.kind, PacketKind::Ack))
            .cloned()
            .expect("B must emit an ACK");
        // SEND: ACK generated before the payload DMA would finish.
        let recv_visible = b.completions[0].visible_at;
        assert!(
            ack_at < recv_visible,
            "RC SEND ACK ({ack_at}) must precede payload delivery ({recv_visible})"
        );

        // Return the ACK to A: the send WR completes.
        let ack_arrival = ack_at + ack_ser + SimDuration::from_ns(5);
        a.deliver(ack_arrival, ack);
        a.run();
        assert!(a
            .completions
            .iter()
            .any(|c| c.opcode == CqeOpcode::Send && c.wr_id == WrId(1)));
        assert!(a.rnic.in_flight.is_empty());
        assert_eq!(a.rnic.in_flight.span(), 0);
        assert!(a.slab.is_empty() && b.slab.is_empty(), "no leaked handles");
    }

    #[test]
    fn only_multi_packet_messages_accumulate_at_the_receiver() {
        let mut a = Pump::new(1);
        let mut b = Pump::new(2);
        let qp_a = a.rnic.create_qp(Transport::Rc);
        let qp_b = b.rnic.create_qp(Transport::Rc);
        for id in [100, 101] {
            b.rnic.post_recv(qp_b, RecvWr::new(WrId(id), 16_384));
        }
        for (id, bytes) in [(1, 10_000), (2, 64)] {
            let wr = SendWr::new(WrId(id), Verb::Send, bytes).to(Lid::new(2), qp_b);
            a.post(SimTime::ZERO, qp_a, wr).unwrap();
        }
        a.run();
        // Three packets of the 10,000 B message, then the 64 B one: the
        // map holds a message only until its last packet lands.
        let held: Vec<usize> = std::mem::take(&mut a.transmitted)
            .into_iter()
            .map(|(tx_at, packet, ser)| {
                b.deliver(tx_at + ser, packet);
                b.rnic.rx_accum.len()
            })
            .collect();
        assert_eq!(held, [1, 1, 0, 0]);
        b.run();
        let received: Vec<u64> = b
            .completions
            .iter()
            .filter(|c| c.opcode == CqeOpcode::Recv)
            .map(|c| c.bytes)
            .collect();
        assert_eq!(received, [10_000, 64]);
    }

    #[test]
    fn write_ack_waits_for_remote_dma() {
        let mut b = Pump::new(2);
        b.rnic.create_qp(Transport::Rc);
        // Hand-craft an incoming WRITE data packet.
        let packet = Packet {
            id: PacketId::new(1),
            flow: FlowId::new(0),
            msg: MsgId::new((9u64 << 40) | 1),
            src: Lid::new(1),
            dst: Lid::new(2),
            dst_qp: QpNum::new(1),
            sl: ServiceLevel::new(0),
            vl: VirtualLane::new(0),
            kind: PacketKind::Data {
                verb: Verb::Write,
                transport: Transport::Rc,
                index: 0,
                last: true,
            },
            payload: 4096,
            overhead: 68,
        };
        let t = SimTime::from_ns(100);
        b.deliver(t, packet.clone());
        b.run();
        let (write_ack_at, _, _) = b
            .transmitted
            .iter()
            .find(|(_, pk, _)| matches!(pk.kind, PacketKind::Ack))
            .cloned()
            .unwrap();

        // Same thing as a SEND: the ACK comes much sooner.
        let mut b2 = Pump::new(3);
        let qp = b2.rnic.create_qp(Transport::Rc);
        b2.rnic.post_recv(qp, RecvWr::new(WrId(0), 4096));
        let mut send_packet = packet;
        send_packet.kind = PacketKind::Data {
            verb: Verb::Send,
            transport: Transport::Rc,
            index: 0,
            last: true,
        };
        send_packet.dst = Lid::new(3);
        b2.deliver(t, send_packet);
        b2.run();
        let (send_ack_at, _, _) = b2
            .transmitted
            .iter()
            .find(|(_, pk, _)| matches!(pk.kind, PacketKind::Ack))
            .cloned()
            .unwrap();

        assert!(
            write_ack_at > send_ack_at,
            "WRITE ACK ({write_ack_at}) must lag SEND ACK ({send_ack_at}) by the remote DMA"
        );
        let gap = write_ack_at - send_ack_at;
        let cfg = b2.rnic.config();
        let dma = cfg.dma_write_latency + cfg.pcie_rate.serialize_time(4096);
        assert!(
            gap >= dma,
            "gap {gap} must cover the remote DMA write {dma}"
        );
    }

    #[test]
    fn ud_send_completes_on_wire_exit_without_ack() {
        let mut p = Pump::new(1);
        let qp = p.rnic.create_qp(Transport::Ud);
        let t0 = SimTime::ZERO;
        p.post(t0, qp, send_wr(1, 64, 2)).unwrap();
        p.run();
        // Completion exists even though no ACK ever arrived.
        let cqe = p
            .completions
            .iter()
            .find(|c| c.opcode == CqeOpcode::Send)
            .expect("UD completes on wire exit");
        let (tx_at, _, ser) = &p.transmitted[0];
        assert_eq!(
            cqe.visible_at,
            *tx_at + *ser + p.rnic.config().dma_write_latency
        );
    }

    #[test]
    fn read_roundtrip() {
        let mut a = Pump::new(1);
        let mut b = Pump::new(2);
        let qp_a = a.rnic.create_qp(Transport::Rc);
        b.rnic.create_qp(Transport::Rc);

        let wr = SendWr::new(WrId(1), Verb::Read, 4096).to(Lid::new(2), QpNum::new(1));
        a.post(SimTime::ZERO, qp_a, wr).unwrap();
        a.run();
        let (t, request, ser) = a.transmitted[0].clone();
        assert!(matches!(
            request.kind,
            PacketKind::ReadRequest { bytes: 4096 }
        ));
        assert_eq!(request.payload, 0);

        // Responder turns the request into response data.
        let arrival = t + ser + SimDuration::from_ns(5);
        b.deliver(arrival, request);
        b.run();
        let (rt, response, rser) = b.transmitted[0].clone();
        assert_eq!(response.payload, 4096);

        // Requester completes once the data lands.
        let back = rt + rser + SimDuration::from_ns(5);
        a.deliver(back, response);
        a.run();
        let cqe = a
            .completions
            .iter()
            .find(|c| c.opcode == CqeOpcode::Read)
            .expect("READ completion");
        assert!(cqe.visible_at > back, "completion waits for local DMA");
        assert_eq!(cqe.bytes, 4096);
    }

    #[test]
    fn loopback_never_touches_the_wire() {
        let mut p = Pump::new(1);
        let qp = p.rnic.create_qp(Transport::Rc);
        p.rnic.post_recv(qp, RecvWr::new(WrId(50), 64));
        let wr = send_wr(1, 64, 1).via_loopback();
        p.post(SimTime::ZERO, qp, wr).unwrap();
        p.run();
        assert!(p.transmitted.is_empty(), "loopback must not transmit");
        assert!(p.slab.is_empty(), "loopback allocates no wire packets");
        assert!(p
            .completions
            .iter()
            .any(|c| c.opcode == CqeOpcode::Send && c.wr_id == WrId(1)));
        assert!(p
            .completions
            .iter()
            .any(|c| c.opcode == CqeOpcode::Recv && c.wr_id == WrId(50)));
        assert_eq!(p.rnic.stats().loopbacks, 1);
    }

    #[test]
    fn loopback_is_faster_than_wire_for_same_payload() {
        // The loopback completion (local-side cost) must come sooner than a
        // wire RTT would: this is the margin RPerf's subtraction measures.
        let mut p = Pump::new(1);
        let qp = p.rnic.create_qp(Transport::Rc);
        p.post(SimTime::ZERO, qp, send_wr(1, 4096, 1).via_loopback())
            .unwrap();
        p.run();
        let send_cqe = p
            .completions
            .iter()
            .find(|c| c.opcode == CqeOpcode::Send)
            .unwrap();
        let cfg = p.rnic.config();
        let wire_one_way = ClusterConfig::omnet_simulator()
            .link
            .data_rate()
            .serialize_time(4148);
        // Loopback serialization is strictly faster than the wire's.
        let loop_ser = ClusterConfig::omnet_simulator()
            .link
            .data_rate()
            .scaled(cfg.loopback_factor)
            .serialize_time(4148);
        assert!(loop_ser < wire_one_way);
        assert!(send_cqe.visible_at > SimTime::ZERO);
    }

    #[test]
    fn credits_block_wire_until_replenished() {
        let mut p = Pump::new(1);
        let lanes = p.rnic.lanes();
        p.rnic.set_peer_credits(CreditLedger::new(lanes, 4_148));
        let qp = p.rnic.create_qp(Transport::Rc);
        let wrs = vec![send_wr(1, 4096, 2), send_wr(2, 4096, 2)];
        let mut actions = Vec::new();
        p.rnic
            .post_send_batch(SimTime::ZERO, qp, &wrs, &mut p.slab, &mut actions)
            .unwrap();
        p.absorb(SimTime::ZERO, actions);
        p.run();
        assert_eq!(p.transmitted.len(), 1, "only one credit grant available");

        let t = SimTime::from_us(100);
        let mut actions = Vec::new();
        p.rnic
            .credit_from_peer(t, VirtualLane::new(0), 4_148, &p.slab, &mut actions);
        p.absorb(t, actions);
        p.run();
        assert_eq!(p.transmitted.len(), 2);
        assert!(p.slab.is_empty(), "both packets consumed off the slab");
    }

    #[test]
    fn rx_returns_credits_after_engine() {
        let mut p = Pump::new(2);
        p.rnic.create_qp(Transport::Rc);
        let packet = Packet {
            id: PacketId::new(1),
            flow: FlowId::new(0),
            msg: MsgId::new((9u64 << 40) | 7),
            src: Lid::new(1),
            dst: Lid::new(2),
            dst_qp: QpNum::new(1),
            sl: ServiceLevel::new(0),
            vl: VirtualLane::new(0),
            kind: PacketKind::Data {
                verb: Verb::Send,
                transport: Transport::Rc,
                index: 0,
                last: true,
            },
            payload: 64,
            overhead: 52,
        };
        let t = SimTime::from_ns(10);
        p.deliver(t, packet);
        assert_eq!(p.credits_returned.len(), 1);
        let (when, vl, bytes) = p.credits_returned[0];
        assert_eq!(vl, VirtualLane::new(0));
        assert_eq!(bytes, 116);
        assert!(when >= t + p.rnic.config().rx_per_packet);
    }

    #[test]
    fn credit_returns_on_the_vl_the_packet_carries() {
        // The table maps SL0 to VL0, but the sender spent a VL2 credit.
        let table = Sl2VlTable::all_to_vl0().with(ServiceLevel::new(2), VirtualLane::new(2));
        let mut p = Pump::with_sl2vl(2, table);
        let qp = p.rnic.create_qp(Transport::Rc);
        p.rnic.post_recv(qp, RecvWr::new(WrId(0), 4096));
        let packet = Packet {
            id: PacketId::new(1),
            flow: FlowId::new(0),
            msg: MsgId::new((9u64 << 40) | 3),
            src: Lid::new(1),
            dst: Lid::new(2),
            dst_qp: qp,
            sl: ServiceLevel::new(0),
            vl: VirtualLane::new(2),
            kind: PacketKind::Data {
                verb: Verb::Send,
                transport: Transport::Rc,
                index: 0,
                last: true,
            },
            payload: 4096,
            overhead: 52,
        };
        p.deliver(SimTime::from_ns(10), packet);
        let lanes: Vec<VirtualLane> = p.credits_returned.iter().map(|c| c.1).collect();
        assert_eq!(lanes, vec![VirtualLane::new(2)]);
        // The ACK this RNIC injects is stamped from the table: SL0 → VL0.
        p.run();
        let (_, ack, _) = &p.transmitted[0];
        assert!(matches!(ack.kind, PacketKind::Ack));
        assert_eq!(ack.vl, VirtualLane::new(0));
    }

    #[test]
    fn injected_packets_carry_the_tables_vl_for_their_sl() {
        let table = Sl2VlTable::all_to_vl0().with(ServiceLevel::new(1), VirtualLane::new(1));
        let mut p = Pump::with_sl2vl(1, table);
        assert_eq!(p.rnic.lanes(), 2);
        let qp = p.rnic.create_qp(Transport::Rc);
        for (id, sl) in [(1, 1), (2, 0)] {
            let wr = send_wr(id, 10_000, 2).with_sl(ServiceLevel::new(sl));
            p.post(SimTime::ZERO, qp, wr).unwrap();
        }
        let read = SendWr::new(WrId(3), Verb::Read, 64)
            .to(Lid::new(2), QpNum::new(1))
            .with_sl(ServiceLevel::new(1));
        p.post(SimTime::ZERO, qp, read).unwrap();
        p.run();
        assert_eq!(p.transmitted.len(), 7);
        for (_, packet, _) in &p.transmitted {
            assert_eq!(packet.vl.raw(), packet.sl.raw(), "{packet:?}");
        }
    }

    #[test]
    fn invalid_wr_rejected_without_side_effects() {
        let mut p = Pump::new(1);
        let qp = p.rnic.create_qp(Transport::Ud);
        let bad = SendWr::new(WrId(1), Verb::Write, 64).to(Lid::new(2), QpNum::new(1));
        let err = p.post(SimTime::ZERO, qp, bad).unwrap_err();
        assert!(matches!(err, VerbsError::InvalidVerbForTransport { .. }));
        p.run();
        assert!(p.transmitted.is_empty());
        assert!(p.slab.is_empty());
        assert!(p.rnic.in_flight.is_empty());
    }

    #[test]
    fn rejected_batch_leaves_no_wr_behind() {
        let mut p = Pump::new(1);
        let qp = p.rnic.create_qp(Transport::Ud);
        let write = SendWr::new(WrId(11), Verb::Write, 64).to(Lid::new(2), QpNum::new(1));
        let batch = [send_wr(10, 64, 2), write];
        let mut actions = Vec::new();
        let err = p
            .rnic
            .post_send_batch(SimTime::ZERO, qp, &batch, &mut p.slab, &mut actions)
            .unwrap_err();
        assert!(matches!(err, VerbsError::InvalidVerbForTransport { .. }));
        assert!(actions.is_empty(), "a rejected batch appends no action");
        assert!(p.slab.is_empty());
        // The valid SEND ahead of the rejected WRITE was not launched and
        // does not ride out with the next post.
        p.post(SimTime::from_ns(10), qp, send_wr(20, 64, 2))
            .unwrap();
        p.run();
        let completed: Vec<WrId> = p.completions.iter().map(|c| c.wr_id).collect();
        assert_eq!(completed, [WrId(20)]);
        assert_eq!(p.transmitted.len(), 1);
    }
}
