//! Property tests for the RNIC device: payload conservation,
//! packetization, wire ordering and engine pacing.

use proptest::prelude::*;
use rperf_model::arena::PacketSlab;
use rperf_model::{ClusterConfig, Lid, NodeId, Packet, QpNum, Transport, Verb};
use rperf_rnic::{Rnic, RnicAction};
use rperf_sim::{SimDuration, SimRng, SimTime};
use rperf_verbs::{SendWr, WrId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Delivers every wake the RNIC asks for, in time order, until none is
/// left. Returns the transmitted packets with their start times and
/// serialization delays, plus the number of wakes delivered.
fn pump(
    rnic: &mut Rnic,
    slab: &mut PacketSlab,
    first: Vec<RnicAction>,
) -> (Vec<(SimTime, Packet, SimDuration)>, usize) {
    let mut wakes: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let mut transmitted = Vec::new();
    let absorb = |actions: Vec<RnicAction>,
                  now: SimTime,
                  slab: &mut PacketSlab,
                  wakes: &mut BinaryHeap<Reverse<u64>>,
                  out: &mut Vec<(SimTime, Packet, SimDuration)>| {
        for a in actions {
            match a {
                RnicAction::Wake { at } => wakes.push(Reverse(at.as_ps())),
                RnicAction::Transmit { packet, serialize } => {
                    out.push((now, slab.free(packet), serialize))
                }
                _ => {}
            }
        }
    };
    absorb(first, SimTime::ZERO, slab, &mut wakes, &mut transmitted);
    let mut delivered = 0;
    while let Some(Reverse(ps)) = wakes.pop() {
        delivered += 1;
        assert!(delivered < 200_000, "wake storm");
        let t = SimTime::from_ps(ps);
        let mut actions = Vec::new();
        rnic.wake(t, slab, &mut actions);
        absorb(actions, t, slab, &mut wakes, &mut transmitted);
    }
    (transmitted, delivered)
}

fn rnic_under_test() -> Rnic {
    let cfg = ClusterConfig::omnet_simulator();
    let lanes = cfg.rnic.sl2vl.lanes();
    Rnic::new(
        NodeId::new(1),
        Lid::new(1),
        cfg.rnic,
        lanes,
        &cfg.link,
        SimRng::new(3),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Packetization conserves payload exactly, respects the MTU, and
    /// marks exactly one `last` packet per message.
    #[test]
    fn packetization_conserves_payload(payloads in prop::collection::vec(1u64..100_000, 1..20)) {
        let mut rnic = rnic_under_test();
        let mut slab = PacketSlab::new();
        let qp = rnic.create_qp(Transport::Rc);
        let total: u64 = payloads.iter().sum();
        let n_msgs = payloads.len();
        let wrs: Vec<SendWr> = payloads
            .iter()
            .enumerate()
            .map(|(i, &p)| SendWr::new(WrId(i as u64), Verb::Send, p).to(Lid::new(2), QpNum::new(1)))
            .collect();
        let mut actions = Vec::new();
        rnic.post_send_batch(SimTime::ZERO, qp, wrs, &mut slab, &mut actions)
            .unwrap();
        let (transmitted, _) = pump(&mut rnic, &mut slab, actions);
        prop_assert!(slab.is_empty(), "every injected packet leaves the slab");

        let mtu = rnic.config().mtu;
        let sent: u64 = transmitted.iter().map(|(_, p, _)| p.payload).sum();
        prop_assert_eq!(sent, total, "payload conservation");
        let lasts = transmitted
            .iter()
            .filter(|(_, p, _)| p.kind.is_last_data())
            .count();
        prop_assert_eq!(lasts, n_msgs, "one last packet per message");
        for (_, p, _) in &transmitted {
            prop_assert!(p.payload <= mtu, "MTU respected");
        }
    }

    /// Wire transmissions never overlap: each packet starts at or after
    /// the previous serialization (plus inter-packet gap) finished, and
    /// messages leave in posted order. The RNIC needs at most two wakes
    /// per packet: one when its injection timer matures and one when the
    /// wire frees after the packet ahead of it.
    #[test]
    fn wire_is_serial_and_ordered(payloads in prop::collection::vec(1u64..8_192, 2..30)) {
        let mut rnic = rnic_under_test();
        let mut slab = PacketSlab::new();
        let qp = rnic.create_qp(Transport::Rc);
        let wrs: Vec<SendWr> = payloads
            .iter()
            .enumerate()
            .map(|(i, &p)| SendWr::new(WrId(i as u64), Verb::Send, p).to(Lid::new(2), QpNum::new(1)))
            .collect();
        let mut actions = Vec::new();
        rnic.post_send_batch(SimTime::ZERO, qp, wrs, &mut slab, &mut actions)
            .unwrap();
        let (transmitted, wakes) = pump(&mut rnic, &mut slab, actions);
        prop_assert!(
            wakes <= 2 * transmitted.len(),
            "{wakes} wakes for {} packets: a wake storm",
            transmitted.len()
        );

        for pair in transmitted.windows(2) {
            let (t0, _, s0) = &pair[0];
            let (t1, _, _) = &pair[1];
            prop_assert!(*t1 >= *t0 + *s0, "wire transmissions overlap");
        }
        // Message ids (allocation order == posting order) must be
        // non-decreasing on the wire.
        let msg_order: Vec<u64> = transmitted.iter().map(|(_, p, _)| p.msg.raw()).collect();
        let mut sorted = msg_order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(msg_order, sorted, "per-connection order violated");
    }

    /// The engine paces single-packet messages at no more than the
    /// configured message rate.
    #[test]
    fn engine_rate_cap_holds(count in 2usize..100) {
        let mut rnic = rnic_under_test();
        let mut slab = PacketSlab::new();
        let qp = rnic.create_qp(Transport::Rc);
        let wrs: Vec<SendWr> = (0..count)
            .map(|i| SendWr::new(WrId(i as u64), Verb::Send, 64).to(Lid::new(2), QpNum::new(1)))
            .collect();
        let mut actions = Vec::new();
        rnic.post_send_batch(SimTime::ZERO, qp, wrs, &mut slab, &mut actions)
            .unwrap();
        let (transmitted, _) = pump(&mut rnic, &mut slab, actions);
        prop_assert_eq!(transmitted.len(), count);
        let engine = rnic.config().engine_time(1);
        let span = transmitted.last().unwrap().0 - transmitted.first().unwrap().0;
        prop_assert!(
            span >= engine * (count as u64 - 1),
            "{count} messages in {span} beats the engine cap"
        );
    }

    /// Loopback probes never reach the wire regardless of payload.
    #[test]
    fn loopback_stays_internal(payload in 1u64..1_000_000) {
        let mut rnic = rnic_under_test();
        let mut slab = PacketSlab::new();
        let qp = rnic.create_qp(Transport::Rc);
        let wr = SendWr::new(WrId(0), Verb::Send, payload)
            .to(Lid::new(1), qp)
            .via_loopback();
        let mut actions = Vec::new();
        rnic.post_send(SimTime::ZERO, qp, wr, &mut slab, &mut actions)
            .unwrap();
        let (transmitted, _) = pump(&mut rnic, &mut slab, actions);
        prop_assert!(transmitted.is_empty());
        prop_assert!(slab.is_empty());
        prop_assert_eq!(rnic.stats().loopbacks, 1);
    }
}
