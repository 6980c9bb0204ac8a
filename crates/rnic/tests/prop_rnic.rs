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

/// What a pumped RNIC did: the packets it put on the wire (start time,
/// packet, serialization delay), the WR ids its completions carried in
/// the order it emitted them, and the number of wakes delivered.
#[derive(Default)]
struct Pumped {
    transmitted: Vec<(SimTime, Packet, SimDuration)>,
    completed: Vec<WrId>,
    wakes: usize,
}

/// Delivers every wake the RNIC asks for, in time order, until none is
/// left, starting from the actions of its posts at time zero.
fn pump(rnic: &mut Rnic, slab: &mut PacketSlab, first: Vec<RnicAction>) -> Pumped {
    let mut wakes: BinaryHeap<Reverse<u64>> = BinaryHeap::new();
    let mut done = Pumped::default();
    let mut actions = first;
    let mut now = SimTime::ZERO;
    loop {
        for a in actions.drain(..) {
            match a {
                RnicAction::Wake { at } => wakes.push(Reverse(at.as_ps())),
                RnicAction::Transmit { packet, serialize } => {
                    done.transmitted.push((now, slab.free(packet), serialize))
                }
                RnicAction::Complete { cqe } => done.completed.push(cqe.wr_id),
                RnicAction::ReturnCredit { .. } => {}
            }
        }
        let Some(Reverse(ps)) = wakes.pop() else {
            return done;
        };
        done.wakes += 1;
        assert!(done.wakes < 200_000, "wake storm");
        now = SimTime::from_ps(ps);
        rnic.wake(now, slab, &mut actions);
    }
}

fn rnic_under_test() -> Rnic {
    let cfg = ClusterConfig::omnet_simulator();
    Rnic::new(
        NodeId::new(1),
        Lid::new(1),
        cfg.rnic,
        cfg.sl2vl,
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
        rnic.post_send_batch(SimTime::ZERO, qp, &wrs, &mut slab, &mut actions)
            .unwrap();
        let transmitted = pump(&mut rnic, &mut slab, actions).transmitted;
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
    /// work requests reach the wire in the order they were posted,
    /// whether one per doorbell or in batches: on a UD QP, whose sends
    /// complete on wire exit, the completions carry the WR ids in post
    /// order. The RNIC needs at most two wakes per packet: one at the
    /// instant the packet becomes ready and one when the wire frees
    /// after the packet ahead of it.
    #[test]
    fn wire_is_serial_and_ordered(
        wrs in prop::collection::vec((1u64..8_192, any::<bool>()), 2..30),
    ) {
        let mut rnic = rnic_under_test();
        let mut slab = PacketSlab::new();
        let qp = rnic.create_qp(Transport::Ud);
        let mut actions = Vec::new();
        // A WR whose flag is set rings the doorbell for it and every
        // unposted WR before it: a group of one is a single post.
        let mut doorbell = Vec::new();
        for (i, &(payload, ring)) in wrs.iter().enumerate() {
            doorbell.push(SendWr::new(WrId(i as u64), Verb::Send, payload).to(Lid::new(2), QpNum::new(1)));
            if ring || i + 1 == wrs.len() {
                match doorbell.as_slice() {
                    &[wr] => rnic.post_send(SimTime::ZERO, qp, wr, &mut slab, &mut actions),
                    batch => rnic.post_send_batch(SimTime::ZERO, qp, batch, &mut slab, &mut actions),
                }
                .unwrap();
                doorbell.clear();
            }
        }
        let done = pump(&mut rnic, &mut slab, actions);
        prop_assert!(
            done.wakes <= 2 * done.transmitted.len(),
            "{} wakes for {} packets: a wake storm",
            done.wakes,
            done.transmitted.len()
        );

        for pair in done.transmitted.windows(2) {
            let (t0, _, s0) = &pair[0];
            let (t1, _, _) = &pair[1];
            prop_assert!(*t1 >= *t0 + *s0, "wire transmissions overlap");
        }
        // Message ids (allocation order == posting order) must be
        // non-decreasing on the wire.
        let msg_order: Vec<u64> = done.transmitted.iter().map(|(_, p, _)| p.msg.raw()).collect();
        let mut sorted = msg_order.clone();
        sorted.sort_unstable();
        prop_assert_eq!(msg_order, sorted, "per-connection order violated");
        let posted: Vec<WrId> = (0..wrs.len() as u64).map(WrId).collect();
        prop_assert_eq!(done.completed, posted, "WRs left the wire out of post order");
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
        rnic.post_send_batch(SimTime::ZERO, qp, &wrs, &mut slab, &mut actions)
            .unwrap();
        let transmitted = pump(&mut rnic, &mut slab, actions).transmitted;
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
        let transmitted = pump(&mut rnic, &mut slab, actions).transmitted;
        prop_assert!(transmitted.is_empty());
        prop_assert!(slab.is_empty());
        prop_assert_eq!(rnic.stats().loopbacks, 1);
    }
}
