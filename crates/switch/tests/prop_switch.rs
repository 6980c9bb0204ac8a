//! Property tests for the switch: flow-control conservation, buffer
//! bounds, work conservation and scheduling-policy contracts.

use proptest::prelude::*;
use rperf_model::arena::PacketSlab;
use rperf_model::config::{ClusterConfig, SchedPolicy};
use rperf_model::ids::PacketId;
use rperf_model::{
    FlowId, Lid, MsgId, Packet, PacketKind, PortId, QpNum, ServiceLevel, Transport, Verb,
    VirtualLane,
};
use rperf_sim::{SimRng, SimTime};
use rperf_switch::{CreditLedger, Switch, SwitchAction};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

fn packet(id: u64, dst: u16, payload: u64) -> Packet {
    Packet {
        id: PacketId::new(id),
        flow: FlowId::new(0),
        msg: MsgId::new(id),
        src: Lid::new(99),
        dst: Lid::new(dst),
        dst_qp: QpNum::new(1),
        sl: ServiceLevel::new(0),
        vl: VirtualLane::new(0),
        kind: PacketKind::Data {
            verb: Verb::Send,
            transport: Transport::Rc,
            index: 0,
            last: true,
        },
        payload,
        overhead: 32,
    }
}

/// A harness that plays upstream + downstream for a switch, honoring
/// credits exactly like the fabric does.
struct Harness {
    sw: Switch,
    slab: PacketSlab,
    /// Credits each upstream port holds toward the switch, per VL.
    up_credits: Vec<CreditLedger>,
    wakes: BinaryHeap<Reverse<(u64, u8)>>,
    /// Per egress, the held wake, as the fabric keeps it.
    held: Vec<Option<u64>>,
    forwarded: Vec<(SimTime, Packet)>,
}

impl Harness {
    fn new(policy: SchedPolicy) -> Self {
        let cfg = {
            let mut c = ClusterConfig::omnet_simulator().switch;
            c.policy = policy;
            c
        };
        let buffer = cfg.input_buffer_bytes;
        let lanes = ClusterConfig::omnet_simulator().sl2vl.lanes();
        let ports = cfg.ports;
        let mut sw = Switch::new(
            cfg,
            lanes,
            ClusterConfig::omnet_simulator().link.data_rate(),
            SimRng::new(7),
        );
        for lid in 0..12u16 {
            sw.set_route(Lid::new(lid), PortId::new(lid as u8));
        }
        Harness {
            sw,
            slab: PacketSlab::new(),
            up_credits: (0..ports)
                .map(|_| CreditLedger::new(lanes, buffer))
                .collect(),
            wakes: BinaryHeap::new(),
            held: vec![None; usize::from(ports)],
            forwarded: Vec::new(),
        }
    }

    fn absorb(&mut self, now: SimTime, actions: Vec<SwitchAction>) {
        let mut downstream_frees = Vec::new();
        for a in actions {
            match a {
                SwitchAction::Wake { egress, at } => {
                    self.wakes.push(Reverse((at.as_ps(), egress.raw())));
                }
                SwitchAction::HoldWake { egress, at } => {
                    self.held[egress.index()] = Some(at.as_ps());
                }
                SwitchAction::ReleaseWake { egress } => {
                    let held = self.held[egress.index()].take();
                    if let Some(at) = held.filter(|&at| at >= now.as_ps()) {
                        self.wakes.push(Reverse((at, egress.raw())));
                    }
                }
                SwitchAction::Transmit { egress, packet, .. } => {
                    // The (synthetic, infinitely fast) downstream peer frees
                    // its buffer as soon as the packet lands and consumes
                    // the packet out of the slab.
                    let pkt = self.slab.free(packet);
                    downstream_frees.push((egress, pkt.wire_size()));
                    self.forwarded.push((now, pkt));
                }
                SwitchAction::ReturnCredit { ingress, vl, bytes } => {
                    self.up_credits[ingress.index()].replenish(vl, bytes);
                }
            }
        }
        for (egress, bytes) in downstream_frees {
            let mut more = Vec::new();
            self.sw
                .credit_from_downstream(now, egress, VirtualLane::new(0), bytes, &mut more);
            self.absorb(now, more);
        }
    }

    /// Injects a packet if the upstream port holds credits; returns
    /// whether it was sent.
    fn inject(&mut self, now: SimTime, port: u8, pkt: Packet) -> bool {
        let vl = VirtualLane::new(0);
        let size = pkt.wire_size();
        if !self.up_credits[port as usize].consume(vl, size) {
            return false;
        }
        let handle = self.slab.alloc(pkt);
        let mut actions = Vec::new();
        self.sw
            .packet_arrival(now, PortId::new(port), handle, &self.slab, &mut actions);
        self.absorb(now, actions);
        true
    }

    /// Runs all pending wakes.
    fn drain(&mut self) -> SimTime {
        let mut last = SimTime::ZERO;
        let mut guard = 0;
        while let Some(Reverse((ps, egress))) = self.wakes.pop() {
            guard += 1;
            assert!(guard < 1_000_000, "wake storm");
            let t = SimTime::from_ps(ps);
            last = t;
            let mut actions = Vec::new();
            self.sw.egress_wake(t, PortId::new(egress), &mut actions);
            self.absorb(t, actions);
        }
        last
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Lossless property: with credit-honoring upstreams, every injected
    /// packet is eventually forwarded exactly once, in any arrival order,
    /// and no buffer ever over-admits.
    #[test]
    fn work_conservation_and_no_violations(
        arrivals in prop::collection::vec(
            (0u8..6, 1u16..4, 1u64..4096, 0u64..5_000), 1..120),
        policy in prop::sample::select(vec![SchedPolicy::Fcfs, SchedPolicy::RoundRobin]),
    ) {
        let mut h = Harness::new(policy);
        let mut sent = 0usize;
        let mut arrivals = arrivals;
        // Sort by injection time to respect simulation causality.
        arrivals.sort_by_key(|&(_, _, _, t)| t);
        let mut id = 0;
        for (port, dst_raw, payload, t_ns) in arrivals {
            // Never send a packet to its own ingress port.
            let dst = if u16::from(port) == dst_raw % 12 { (dst_raw % 12) + 1 } else { dst_raw % 12 };
            id += 1;
            if h.inject(SimTime::from_ns(t_ns), port, packet(id, dst, payload)) {
                sent += 1;
            }
            h.drain();
        }
        h.drain();
        prop_assert_eq!(h.forwarded.len(), sent, "every admitted packet forwards");
        prop_assert_eq!(h.sw.stats().buffer_violations, 0);
        prop_assert_eq!(h.sw.total_buffered(), 0, "switch drains completely");
        prop_assert!(h.slab.is_empty(), "no packet handles may leak");
        // No duplicates.
        let mut ids: Vec<u64> = h.forwarded.iter().map(|(_, p)| p.id.raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        prop_assert_eq!(ids.len(), sent);
    }

    /// Credit conservation: at quiescence every upstream ledger is full
    /// again (credits consumed == credits returned).
    #[test]
    fn credits_conserved(
        arrivals in prop::collection::vec((0u8..6, 1u64..4096), 1..80),
    ) {
        let mut h = Harness::new(SchedPolicy::Fcfs);
        let mut id = 0;
        for (port, payload) in arrivals {
            id += 1;
            // All to port 7 (an otherwise idle egress).
            h.inject(SimTime::from_ns(id * 10), port, packet(id, 7, payload));
            h.drain();
        }
        h.drain();
        let full = ClusterConfig::omnet_simulator().switch.input_buffer_bytes;
        for ledger in &h.up_credits {
            prop_assert_eq!(ledger.available(VirtualLane::new(0)), full);
        }
    }

    /// FCFS contract: for a single egress, forwarding order equals
    /// arrival order.
    #[test]
    fn fcfs_forwards_in_arrival_order(
        ports in prop::collection::vec(0u8..6, 2..40),
    ) {
        let mut h = Harness::new(SchedPolicy::Fcfs);
        let mut injected = Vec::new();
        for (i, &port) in ports.iter().enumerate() {
            let id = i as u64 + 1;
            // Distinct, increasing arrival times; single destination 7.
            if h.inject(SimTime::from_ns(id * 50), port, packet(id, 7, 256)) {
                injected.push(id);
            }
        }
        h.drain();
        let order: Vec<u64> = h.forwarded.iter().map(|(_, p)| p.id.raw()).collect();
        prop_assert_eq!(order, injected, "FCFS must preserve arrival order");
    }
}
