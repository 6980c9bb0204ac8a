//! The switch device: ports, buffers, arbiters and credit plumbing.

use std::sync::Arc;

use rperf_model::arena::{PacketRef, PacketSlab};
use rperf_model::config::SwitchConfig;
use rperf_model::{Lid, LinkRate, PortId, VirtualLane};
use rperf_sim::{SimDuration, SimRng, SimTime};

use crate::arbiter::PacketScheduler;
use crate::buffer::{BufEntry, VlBufferArray};
use crate::credits::{CreditLedger, CreditMatrix};
use crate::tables::ForwardingTable;
use crate::vlarb::VlArbiter;

/// An externally visible effect produced by the switch state machine.
///
/// The fabric layer turns these into scheduled events: packet deliveries to
/// the downstream peer, credit returns to the upstream peer, and wake-ups
/// for the switch itself. Packets travel as [`PacketRef`] handles into the
/// fabric-owned `PacketSlab`; the switch never copies packet bodies.
#[derive(Debug, Clone, Copy)]
pub enum SwitchAction {
    /// Begin transmitting `packet` on `egress`: the first bit leaves
    /// `start_after` from now (arbitration overhead) and the last bit
    /// `start_after + serialize` from now.
    Transmit {
        /// Egress port.
        egress: PortId,
        /// Handle to the packet being forwarded.
        packet: PacketRef,
        /// Arbitration/scan delay before the first bit.
        start_after: SimDuration,
        /// Wire serialization time of the whole packet.
        serialize: SimDuration,
    },
    /// Return `bytes` of VL credits to the device upstream of `ingress`
    /// (buffer space was freed by a dequeue).
    ReturnCredit {
        /// The ingress port whose buffer freed space.
        ingress: PortId,
        /// The virtual lane.
        vl: VirtualLane,
        /// Freed bytes.
        bytes: u64,
    },
    /// Ask to be woken (via [`Switch::egress_wake`]) for `egress` at `at` —
    /// a buffered packet becomes eligible or the port frees up then.
    Wake {
        /// The egress port to re-arbitrate.
        egress: PortId,
        /// The wake-up instant.
        at: SimTime,
    },
    /// The wake for the instant `egress` frees after a dispatch, asked for
    /// when no other buffered head is bound for the port: the fabric keys
    /// it as it would a [`SwitchAction::Wake`] but holds it unscheduled
    /// until a [`SwitchAction::ReleaseWake`] for the port. A newer hold on
    /// the port replaces it.
    HoldWake {
        /// The egress port.
        egress: PortId,
        /// The instant the port frees.
        at: SimTime,
    },
    /// A head bound for `egress` arrived or was exposed in time for the
    /// port's held wake: the fabric schedules that wake under its key if
    /// it still pops after the event being handled, and discards it
    /// otherwise.
    ReleaseWake {
        /// The egress port.
        egress: PortId,
    },
}

/// Aggregate switch counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchStats {
    /// Data + control packets forwarded.
    pub forwarded_packets: u64,
    /// Wire bytes forwarded.
    pub forwarded_bytes: u64,
    /// Dispatch attempts that found candidates blocked only by missing
    /// downstream credits.
    pub credit_stalls: u64,
    /// Admissions that exceeded an advertised input buffer (protocol
    /// violations by the upstream device).
    pub buffer_violations: u64,
}

/// An input-buffered, credit-flow-controlled IB switch.
///
/// See the crate docs for the architecture. The switch is driven by three
/// entry points — [`Switch::packet_arrival`], [`Switch::egress_wake`] and
/// [`Switch::credit_from_downstream`] — each appending the actions the
/// fabric must schedule to a caller-owned buffer. Only
/// [`Switch::packet_arrival`] reads the packet slab: the route, wire size
/// and VL are resolved once at admission and cached in the buffer entry, so
/// arbitration rounds are handle-only scans over the struct-of-arrays
/// head-metadata bank ([`VlBufferArray`]).
#[derive(Debug)]
pub struct Switch {
    cfg: Arc<SwitchConfig>,
    data_rate: LinkRate,
    /// Input buffers: struct-of-arrays bank, slots port-major.
    buffers: VlBufferArray,
    /// Credits held toward the peer downstream of each egress port,
    /// flattened `egress × lane`.
    down_credits: CreditMatrix,
    vlarbs: Vec<VlArbiter>,
    scheds: Vec<PacketScheduler>,
    busy_until: Vec<SimTime>,
    /// Per egress: the last dispatch's wake at `busy_until` went out as a
    /// [`SwitchAction::HoldWake`] and no release has been asked for since.
    wake_held: Vec<bool>,
    fwd: ForwardingTable,
    rng: SimRng,
    stats: SwitchStats,
    /// Candidate VLs of the current arbitration round, in first-appearance
    /// (slot) order. Scratch reused across rounds; cleared lazily at the
    /// start of the next round so every exit path stays cheap.
    cand_vls: Vec<VirtualLane>,
    /// Per-lane candidate `(ingress, arrival)` lists, indexed by VL, each
    /// grown on first use. Only the lists named in `cand_vls` are
    /// populated.
    cand_lists: Vec<Vec<(PortId, SimTime)>>,
}

impl Switch {
    /// Builds a switch from its configuration, the fabric's lane count
    /// and the attached link's data rate. Every VL-indexed structure —
    /// input buffers, downstream credits, arbitration scratch — holds
    /// `lanes` lanes: one past the highest VL the fabric's SL2VL table
    /// maps to, so every VL a packet can carry has one. Downstream
    /// credit ledgers default to one input-buffer grant per lane
    /// (symmetric switches); override per port with
    /// [`Switch::set_downstream_credits`] for host-facing ports.
    ///
    /// The configuration is taken as (or promoted to) an [`Arc`], so a
    /// fabric instantiating many identical switches shares one allocation
    /// — the VL arbitration tables included.
    pub fn new(
        cfg: impl Into<Arc<SwitchConfig>>,
        lanes: u8,
        data_rate: LinkRate,
        rng: SimRng,
    ) -> Self {
        let cfg = cfg.into();
        let ports = cfg.ports as usize;
        Switch {
            data_rate,
            buffers: VlBufferArray::new(cfg.ports, lanes, cfg.input_buffer_bytes),
            down_credits: CreditMatrix::new(cfg.ports, lanes, cfg.input_buffer_bytes),
            vlarbs: vec![VlArbiter::new(&cfg.vlarb); ports],
            scheds: vec![PacketScheduler::new(cfg.policy, cfg.ports); ports],
            busy_until: vec![SimTime::ZERO; ports],
            wake_held: vec![false; ports],
            fwd: ForwardingTable::new(),
            rng,
            stats: SwitchStats::default(),
            cand_vls: Vec::new(),
            cand_lists: vec![Vec::new(); usize::from(lanes)],
            cfg,
        }
    }

    /// Number of ports.
    pub fn ports(&self) -> u8 {
        self.cfg.ports
    }

    /// Lanes per port: the fabric's lane count the switch was built with.
    pub fn lanes(&self) -> u8 {
        self.down_credits.lanes()
    }

    /// The switch configuration.
    pub fn config(&self) -> &SwitchConfig {
        &self.cfg
    }

    /// Programs the forwarding table: traffic for `lid` leaves via `port`.
    pub fn set_route(&mut self, lid: Lid, port: PortId) {
        self.fwd.set(lid, port);
    }

    /// Replaces the whole forwarding table (a subnet manager programming
    /// every LID at once).
    pub fn set_forwarding(&mut self, table: ForwardingTable) {
        self.fwd = table;
    }

    /// The programmed forwarding table (read-only; debug dumps).
    pub fn forwarding(&self) -> &ForwardingTable {
        &self.fwd
    }

    /// Replaces the credit ledger toward the peer on `port` (call when the
    /// peer's advertisement differs from switch-buffer symmetry, e.g. a
    /// host RNIC).
    ///
    /// # Panics
    ///
    /// Panics if the ledger's lane count differs from the switch's.
    pub fn set_downstream_credits(&mut self, port: PortId, ledger: CreditLedger) {
        self.down_credits.set_port(port, &ledger);
    }

    /// Aggregate counters.
    pub fn stats(&self) -> SwitchStats {
        let mut s = self.stats;
        s.buffer_violations = self.buffers.violations();
        s
    }

    /// Bytes buffered on one (ingress, VL) pair; 0 beyond the lanes.
    pub fn occupancy(&self, ingress: PortId, vl: VirtualLane) -> u64 {
        self.buffers.occupancy(ingress, vl)
    }

    /// Total bytes buffered switch-wide.
    pub fn total_buffered(&self) -> u64 {
        self.buffers.total_occupied()
    }

    /// `true` if the egress port is mid-transmission at `now`.
    pub fn egress_busy(&self, egress: PortId, now: SimTime) -> bool {
        self.busy_until[egress.index()] > now
    }

    /// A packet's first bit has arrived on `ingress` at `now`.
    ///
    /// The packet is admitted to the input buffer of the VL it carries (the
    /// upstream sender spent a credit on that lane for it, and the credit
    /// goes back on it at dispatch) and becomes eligible for arbitration after
    /// the ingress pipeline latency plus per-packet jitter (cut-through:
    /// eligibility does not wait for the last bit; at equal port rates the
    /// egress can never underrun).
    ///
    /// Resulting actions are appended to `out` (an out-parameter so the
    /// fabric's dispatch loop reuses one buffer instead of allocating a
    /// `Vec` per event).
    ///
    /// # Panics
    ///
    /// Panics if the destination LID has no forwarding entry (a fabric
    /// wiring bug).
    pub fn packet_arrival(
        &mut self,
        now: SimTime,
        ingress: PortId,
        packet: PacketRef,
        slab: &PacketSlab,
        out: &mut Vec<SwitchAction>,
    ) {
        let p = slab.get(packet);
        let egress = self
            .fwd
            .route(p.dst)
            .unwrap_or_else(|| panic!("no route for {} in switch forwarding table", p.dst));
        let vl = p.vl;
        let wire = p.wire_size();
        let jitter = match &self.cfg.jitter {
            Some(j) => j.sample(&mut self.rng),
            None => SimDuration::ZERO,
        };
        let eligible_at = now + self.cfg.pipeline_latency + jitter;
        self.buffers.push(
            ingress,
            vl,
            BufEntry {
                packet,
                egress,
                wire,
                arrival: now,
                eligible_at,
            },
        );
        let busy_until = self.busy_until[egress.index()];
        if busy_until <= now && eligible_at <= now {
            self.try_dispatch(now, egress, out);
        } else {
            self.request_wake(now, egress, eligible_at.max(busy_until), out);
        }
    }

    /// Asks for a wake at `at` for a head that arrived at, or was exposed
    /// for, `egress`.
    ///
    /// A wake no later than the port's `busy_until` is covered by the
    /// dispatch wake at `busy_until`, which pops first (it was keyed at
    /// the dispatch) and may now find this head: that wake is released if
    /// held, and while the port transmits this one is dropped unkeyed — it
    /// would pop behind the dispatch wake and find the port busy again or
    /// nothing new to send.
    fn request_wake(
        &mut self,
        now: SimTime,
        egress: PortId,
        at: SimTime,
        out: &mut Vec<SwitchAction>,
    ) {
        let e = egress.index();
        let busy_until = self.busy_until[e];
        if at > busy_until {
            out.push(SwitchAction::Wake { egress, at });
            return;
        }
        if self.wake_held[e] {
            self.wake_held[e] = false;
            out.push(SwitchAction::ReleaseWake { egress });
        }
        if busy_until <= now {
            out.push(SwitchAction::Wake { egress, at });
        }
    }

    /// A previously requested wake-up for `egress` fired; appends resulting
    /// actions to `out`.
    pub fn egress_wake(&mut self, now: SimTime, egress: PortId, out: &mut Vec<SwitchAction>) {
        self.try_dispatch(now, egress, out);
    }

    /// The peer downstream of `egress` freed `bytes` of VL buffer; appends
    /// resulting actions to `out`.
    pub fn credit_from_downstream(
        &mut self,
        now: SimTime,
        egress: PortId,
        vl: VirtualLane,
        bytes: u64,
        out: &mut Vec<SwitchAction>,
    ) {
        self.down_credits.replenish(egress, vl, bytes);
        self.try_dispatch(now, egress, out);
    }

    /// Runs one arbitration round for `egress`; dispatches at most one
    /// packet (the port is then busy until its serialization completes).
    /// Operates purely on the buffer bank's head-metadata arrays — no slab
    /// access and no per-round allocation (candidate lists are scratch
    /// reused across rounds).
    fn try_dispatch(&mut self, now: SimTime, egress: PortId, out: &mut Vec<SwitchAction>) {
        let e = egress.index();
        if self.busy_until[e] > now {
            // Mid-transmission; the Wake issued at dispatch covers us.
            return;
        }

        // Clear the previous round's scratch (lazily, so every exit path
        // below is free), then gather head-of-buffer candidates destined to
        // this egress by walking the non-empty slots of the SoA bank in
        // ascending slot order — identical to the historical port-major
        // `for port { for vl }` scan.
        for vl in self.cand_vls.drain(..) {
            self.cand_lists[vl.index()].clear();
        }
        let egress_raw = egress.raw();
        let mut scanned: u64 = 0;
        let mut earliest_future: Option<SimTime> = None;
        let mut credit_blocked = false;
        {
            let Switch {
                buffers,
                down_credits,
                cand_vls,
                cand_lists,
                ..
            } = self;
            let lanes = buffers.lanes();
            for (w, &word) in buffers.nonempty_words().iter().enumerate() {
                let mut word = word;
                while word != 0 {
                    let slot = w * 64 + word.trailing_zeros() as usize;
                    word &= word - 1;
                    if buffers.head_egress_raw(slot) != egress_raw {
                        continue;
                    }
                    scanned += 1;
                    let eligible_at = buffers.head_eligible(slot);
                    if eligible_at > now {
                        earliest_future = Some(match earliest_future {
                            Some(t) => t.min(eligible_at),
                            None => eligible_at,
                        });
                        continue;
                    }
                    let vl = VirtualLane::new((slot % lanes) as u8);
                    if !down_credits.can_send(egress, vl, buffers.head_wire(slot)) {
                        credit_blocked = true;
                        continue;
                    }
                    let list = &mut cand_lists[vl.index()];
                    if list.is_empty() {
                        cand_vls.push(vl);
                    }
                    list.push((
                        PortId::new((slot / lanes) as u8),
                        buffers.head_arrival(slot),
                    ));
                }
            }
        }

        let Some(vl) = self.vlarbs[e].choose(&self.cfg.vlarb, &self.cand_vls) else {
            if credit_blocked {
                self.stats.credit_stalls += 1;
            }
            if let Some(at) = earliest_future {
                out.push(SwitchAction::Wake { egress, at });
            }
            return;
        };
        // The chosen VL came from the candidate set, the scheduler picks
        // among non-empty candidates, and the candidate head is still
        // buffered: all three lookups are infallible by construction, but
        // a panic here would abort a whole sweep, so degrade to skipping
        // this dispatch under debug_assert cover instead.
        let candidates = &self.cand_lists[vl.index()];
        if candidates.is_empty() {
            debug_assert!(false, "chosen VL {vl} missing from the candidate set");
            return;
        }
        let Some(ingress) = self.scheds[e].pick(candidates) else {
            debug_assert!(false, "scheduler declined non-empty candidates");
            return;
        };
        let Some(entry) = self.buffers.pop(ingress, vl) else {
            debug_assert!(false, "candidate head vanished from {ingress:?}/{vl}");
            return;
        };
        let size = entry.wire;
        let consumed = self.down_credits.consume(egress, vl, size);
        debug_assert!(consumed, "candidate was filtered by credit availability");
        self.vlarbs[e].account(&self.cfg.vlarb, vl, size);
        self.scheds[e].account(ingress, size);

        let serialize = self.data_rate.serialize_time(size);
        // Arbitration scan: linear in the number of *contending* heads
        // beyond the first, but a pipelined arbiter never spends more than
        // a small fraction of a packet time deciding.
        let scan = (self.cfg.arb_scan_per_port * scanned.saturating_sub(1))
            .min(SimDuration::from_ps(serialize.as_ps() / 10));
        self.busy_until[e] = now + scan + serialize;
        self.stats.forwarded_packets += 1;
        self.stats.forwarded_bytes += size;

        out.push(SwitchAction::ReturnCredit {
            ingress,
            vl,
            bytes: size,
        });
        out.push(SwitchAction::Transmit {
            egress,
            packet: entry.packet,
            start_after: scan,
            serialize,
        });

        // The port frees at `busy_until`. When this packet was the only
        // head bound for it and the FIFO's next head leaves elsewhere, the
        // wake then finds nothing to send unless a head arrives or is
        // exposed first, and each such head asks for a wake that releases
        // it.
        let next = self
            .buffers
            .head(ingress, vl)
            .map(|h| (h.egress, h.eligible_at));
        let at = self.busy_until[e];
        self.wake_held[e] = scanned <= 1 && next.is_none_or(|(to, _)| to != egress);
        out.push(if self.wake_held[e] {
            SwitchAction::HoldWake { egress, at }
        } else {
            SwitchAction::Wake { egress, at }
        });

        // The dequeue may expose a head packet bound for a *different*
        // egress whose arbiter has no pending wake (its arrival wake fired
        // while this packet blocked the FIFO). Chain a wake so progress on
        // one output port can never strand traffic for another.
        if let Some((to, eligible_at)) = next {
            if to != egress {
                self.request_wake(now, to, now.max(eligible_at), out);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rperf_model::config::{ClusterConfig, SchedPolicy, VlArbEntry};
    use rperf_model::ids::PacketId;
    use rperf_model::{FlowId, MsgId, Packet, PacketKind, QpNum, ServiceLevel, Transport, Verb};

    fn test_switch(policy: SchedPolicy) -> Switch {
        let mut cfg = ClusterConfig::omnet_simulator().switch;
        cfg.policy = policy;
        routed_switch(cfg, 1)
    }

    fn routed_switch(cfg: SwitchConfig, lanes: u8) -> Switch {
        let rate = ClusterConfig::omnet_simulator().link.data_rate();
        let mut sw = Switch::new(cfg, lanes, rate, SimRng::new(1));
        for lid in 0..7u16 {
            sw.set_route(Lid::new(lid), PortId::new(lid as u8));
        }
        sw
    }

    /// A packet on SL `lane`, stamped with VL `lane` (the mapping of the
    /// dedicated-SL table for SL0 and SL1).
    fn pkt(id: u64, dst: u16, payload: u64, lane: u8) -> Packet {
        Packet {
            id: PacketId::new(id),
            flow: FlowId::new(0),
            msg: MsgId::new(id),
            src: Lid::new(6),
            dst: Lid::new(dst),
            dst_qp: QpNum::new(0),
            sl: ServiceLevel::new(lane),
            vl: VirtualLane::new(lane),
            kind: PacketKind::Data {
                verb: Verb::Send,
                transport: Transport::Rc,
                index: 0,
                last: true,
            },
            payload,
            overhead: 52,
        }
    }

    fn arrive(
        sw: &mut Switch,
        slab: &mut PacketSlab,
        now: SimTime,
        ingress: PortId,
        packet: Packet,
    ) -> Vec<SwitchAction> {
        let handle = slab.alloc(packet);
        let mut out = Vec::new();
        sw.packet_arrival(now, ingress, handle, slab, &mut out);
        out
    }

    fn wake(sw: &mut Switch, now: SimTime, egress: PortId) -> Vec<SwitchAction> {
        let mut out = Vec::new();
        sw.egress_wake(now, egress, &mut out);
        out
    }

    /// The instant of the first wake asked for, held or not.
    fn wake_of(actions: &[SwitchAction]) -> SimTime {
        actions
            .iter()
            .find_map(|a| match a {
                SwitchAction::Wake { at, .. } | SwitchAction::HoldWake { at, .. } => Some(*at),
                _ => None,
            })
            .expect("expected a wake action")
    }

    fn transmit_id(actions: &[SwitchAction], slab: &PacketSlab) -> Option<PacketId> {
        actions.iter().find_map(|a| match a {
            SwitchAction::Transmit { packet, .. } => Some(slab.get(*packet).id),
            _ => None,
        })
    }

    #[test]
    fn zero_load_forwarding_timing() {
        let mut slab = PacketSlab::new();
        let mut sw = test_switch(SchedPolicy::Fcfs);
        let t0 = SimTime::from_ns(100);
        let actions = arrive(&mut sw, &mut slab, t0, PortId::new(1), pkt(1, 0, 64, 0));
        // Not yet eligible: a wake at t0 + pipeline (no jitter in the
        // simulator profile).
        let at = wake_of(&actions);
        assert_eq!(at, t0 + sw.config().pipeline_latency);

        let actions = wake(&mut sw, at, PortId::new(0));
        let transmit = actions
            .iter()
            .find_map(|a| match a {
                SwitchAction::Transmit {
                    egress,
                    packet,
                    start_after,
                    serialize,
                } => Some((*egress, *packet, *start_after, *serialize)),
                _ => None,
            })
            .expect("expected a transmit");
        assert_eq!(transmit.0, PortId::new(0));
        assert_eq!(slab.get(transmit.1).id, PacketId::new(1));
        // Simulator profile has no arbitration scan cost.
        assert_eq!(transmit.2, SimDuration::ZERO);
        assert!(transmit.3 > SimDuration::ZERO);
        assert_eq!(sw.stats().forwarded_packets, 1);
    }

    #[test]
    fn credit_returned_on_dispatch() {
        let mut slab = PacketSlab::new();
        let mut sw = test_switch(SchedPolicy::Fcfs);
        let t0 = SimTime::from_ns(0);
        let a = arrive(&mut sw, &mut slab, t0, PortId::new(1), pkt(1, 0, 4096, 0));
        let at = wake_of(&a);
        let actions = wake(&mut sw, at, PortId::new(0));
        let credit = actions.iter().find_map(|a| match a {
            SwitchAction::ReturnCredit { ingress, vl, bytes } => Some((*ingress, *vl, *bytes)),
            _ => None,
        });
        assert_eq!(credit, Some((PortId::new(1), VirtualLane::new(0), 4148)));
    }

    #[test]
    fn fcfs_orders_across_ingress_ports() {
        let mut slab = PacketSlab::new();
        let mut sw = test_switch(SchedPolicy::Fcfs);
        // Two packets from different ports, second-arrived on lower port id.
        arrive(
            &mut sw,
            &mut slab,
            SimTime::from_ns(10),
            PortId::new(3),
            pkt(1, 0, 64, 0),
        );
        let a = arrive(
            &mut sw,
            &mut slab,
            SimTime::from_ns(20),
            PortId::new(2),
            pkt(2, 0, 64, 0),
        );
        let at = wake_of(&a).max(SimTime::from_ns(10) + sw.config().pipeline_latency);
        let first = wake(&mut sw, at, PortId::new(0));
        let got = transmit_id(&first, &slab).unwrap();
        assert_eq!(got, PacketId::new(1), "older arrival must win under FCFS");
    }

    #[test]
    fn rr_alternates_between_ports() {
        let mut slab = PacketSlab::new();
        let mut sw = test_switch(SchedPolicy::RoundRobin);
        let t = SimTime::from_ns(0);
        // Queue two packets per port.
        for (port, base) in [(1u8, 10u64), (2, 20)] {
            for k in 0..2 {
                arrive(
                    &mut sw,
                    &mut slab,
                    SimTime::from_ns(base + k),
                    PortId::new(port),
                    pkt(u64::from(port) * 10 + k, 0, 64, 0),
                );
            }
        }
        let mut now = t + sw.config().pipeline_latency + SimDuration::from_ns(30);
        let mut order = Vec::new();
        for _ in 0..4 {
            let actions = wake(&mut sw, now, PortId::new(0));
            for a in &actions {
                if let SwitchAction::Transmit { packet, .. } = a {
                    order.push(slab.get(*packet).id.raw() / 10);
                }
            }
            now = wake_of(&actions).max(now + SimDuration::from_ns(1));
        }
        assert_eq!(order, vec![1, 2, 1, 2], "RR must alternate ports");
    }

    #[test]
    fn dispatch_blocked_without_credits_resumes_on_replenish() {
        let mut slab = PacketSlab::new();
        let mut sw = test_switch(SchedPolicy::Fcfs);
        // Downstream grants exactly one 4148 B packet of credit on VL0, in
        // a ledger of the switch's own lane count.
        sw.set_downstream_credits(PortId::new(0), CreditLedger::new(sw.lanes(), 4_148));
        arrive(
            &mut sw,
            &mut slab,
            SimTime::ZERO,
            PortId::new(1),
            pkt(1, 0, 4096, 0),
        );
        let a = arrive(
            &mut sw,
            &mut slab,
            SimTime::ZERO,
            PortId::new(2),
            pkt(2, 0, 4096, 0),
        );
        let at = wake_of(&a);
        // First packet dispatches and consumes the whole grant.
        let first = wake(&mut sw, at, PortId::new(0));
        let busy_until = wake_of(&first);
        assert_eq!(transmit_id(&first, &slab), Some(PacketId::new(1)));

        // Port free again, but the second packet has no credits.
        let actions = wake(&mut sw, busy_until, PortId::new(0));
        assert!(
            actions.is_empty(),
            "second packet must stall without credits: {actions:?}"
        );
        assert_eq!(sw.stats().credit_stalls, 1);
        assert_eq!(sw.total_buffered(), 4148);

        // Credits return from downstream: dispatch proceeds.
        let mut actions = Vec::new();
        sw.credit_from_downstream(
            busy_until + SimDuration::from_ns(10),
            PortId::new(0),
            VirtualLane::new(0),
            4_148,
            &mut actions,
        );
        assert_eq!(
            transmit_id(&actions, &slab),
            Some(PacketId::new(2)),
            "{actions:?}"
        );
        assert_eq!(sw.total_buffered(), 0);
    }

    #[test]
    fn high_priority_vl_preempts_queued_low() {
        let mut slab = PacketSlab::new();
        let mut cfg = ClusterConfig::omnet_simulator().with_dedicated_sl().switch;
        cfg.policy = SchedPolicy::Fcfs;
        let rate = ClusterConfig::omnet_simulator().link.data_rate();
        let mut sw = Switch::new(cfg, 2, rate, SimRng::new(2));
        sw.set_route(Lid::new(0), PortId::new(0));

        // Older low-priority packet and newer high-priority packet, both
        // eligible.
        arrive(
            &mut sw,
            &mut slab,
            SimTime::from_ns(0),
            PortId::new(1),
            pkt(1, 0, 4096, 0),
        );
        arrive(
            &mut sw,
            &mut slab,
            SimTime::from_ns(50),
            PortId::new(2),
            pkt(2, 0, 64, 1),
        );
        let now = SimTime::from_ns(300);
        let actions = wake(&mut sw, now, PortId::new(0));
        let got = transmit_id(&actions, &slab).unwrap();
        assert_eq!(
            got,
            PacketId::new(2),
            "high-priority VL1 must be served before VL0 despite FCFS age"
        );
    }

    #[test]
    fn busy_egress_defers_dispatch() {
        let mut slab = PacketSlab::new();
        let mut sw = test_switch(SchedPolicy::Fcfs);
        arrive(
            &mut sw,
            &mut slab,
            SimTime::ZERO,
            PortId::new(1),
            pkt(1, 0, 4096, 0),
        );
        let at = SimTime::ZERO + sw.config().pipeline_latency;
        let first = wake(&mut sw, at, PortId::new(0));
        let busy_until = wake_of(&first);
        // Second packet eligible while port busy.
        arrive(&mut sw, &mut slab, at, PortId::new(2), pkt(2, 0, 64, 0));
        let mid = at + SimDuration::from_ns(250);
        assert!(sw.egress_busy(PortId::new(0), mid));
        let none = wake(&mut sw, mid, PortId::new(0));
        assert!(none.is_empty(), "{none:?}");
        // At busy_until the port frees and forwards the second packet.
        let actions = wake(&mut sw, busy_until, PortId::new(0));
        assert_eq!(transmit_id(&actions, &slab), Some(PacketId::new(2)));
    }

    #[test]
    #[should_panic(expected = "no route")]
    fn unrouted_destination_panics() {
        let mut slab = PacketSlab::new();
        let mut sw = test_switch(SchedPolicy::Fcfs);
        arrive(
            &mut sw,
            &mut slab,
            SimTime::ZERO,
            PortId::new(0),
            pkt(1, 600, 64, 0),
        );
    }

    #[test]
    fn occupancy_queries() {
        let mut slab = PacketSlab::new();
        let mut sw = test_switch(SchedPolicy::Fcfs);
        arrive(
            &mut sw,
            &mut slab,
            SimTime::ZERO,
            PortId::new(1),
            pkt(1, 0, 4096, 0),
        );
        assert_eq!(sw.occupancy(PortId::new(1), VirtualLane::new(0)), 4148);
        assert_eq!(sw.occupancy(PortId::new(2), VirtualLane::new(0)), 0);
        assert_eq!(sw.total_buffered(), 4148);
    }

    #[test]
    fn occupancy_beyond_the_lanes_is_zero() {
        let mut slab = PacketSlab::new();
        let mut sw = test_switch(SchedPolicy::Fcfs);
        // One lane per port: (port 0, VL5) would alias (port 5, VL0) in
        // the flat slot layout.
        arrive(
            &mut sw,
            &mut slab,
            SimTime::ZERO,
            PortId::new(5),
            pkt(1, 0, 4096, 0),
        );
        assert_eq!(sw.occupancy(PortId::new(5), VirtualLane::new(0)), 4148);
        assert_eq!(sw.occupancy(PortId::new(0), VirtualLane::new(5)), 0);
        assert_eq!(sw.occupancy(PortId::new(5), VirtualLane::new(15)), 0);
    }

    #[test]
    fn a_packet_is_buffered_and_credited_on_the_vl_it_carries() {
        let mut slab = PacketSlab::new();
        let (vl0, vl2) = (VirtualLane::new(0), VirtualLane::new(2));
        let mut cfg = ClusterConfig::omnet_simulator().switch;
        cfg.vlarb.low.push(VlArbEntry {
            vl: vl2,
            weight: 64,
        });
        let mut sw = routed_switch(cfg, 3);
        // SL0, which every table here maps to VL0, carried on VL2.
        let mut p = pkt(1, 0, 4096, 0);
        p.vl = vl2;
        let a = arrive(&mut sw, &mut slab, SimTime::ZERO, PortId::new(1), p);
        assert_eq!(sw.occupancy(PortId::new(1), vl2), 4148);
        assert_eq!(sw.occupancy(PortId::new(1), vl0), 0);
        let actions = wake(&mut sw, wake_of(&a), PortId::new(0));
        assert_eq!(transmit_id(&actions, &slab), Some(PacketId::new(1)));
        let credit = actions.iter().find_map(|a| match a {
            SwitchAction::ReturnCredit { ingress, vl, bytes } => Some((*ingress, *vl, *bytes)),
            _ => None,
        });
        assert_eq!(credit, Some((PortId::new(1), vl2, 4148)));
    }
}
