//! End-to-end property tests: payload conservation, ordering and
//! determinism across the assembled fabric.

use std::any::Any;

use proptest::prelude::*;
use rperf_fabric::{App, Ctx, Fabric, Sim};
use rperf_model::{ClusterConfig, QpNum, Transport, Verb};
use rperf_sim::SimTime;
use rperf_verbs::{Cqe, CqeOpcode, RecvWr, SendWr, WrId};

/// Sends a fixed script of messages, recording completions.
struct ScriptedSender {
    target: usize,
    payloads: Vec<u64>,
    sent_bytes: u64,
    completions: Vec<(u64, SimTime)>,
    qp: Option<QpNum>,
}

impl App for ScriptedSender {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let qp = ctx.create_qp(Transport::Rc);
        self.qp = Some(qp);
        let wrs: Vec<SendWr> = self
            .payloads
            .iter()
            .enumerate()
            .map(|(i, &p)| {
                self.sent_bytes += p;
                SendWr::new(WrId(i as u64), Verb::Send, p)
                    .to(ctx.lid_of(self.target), QpNum::new(1))
            })
            .collect();
        ctx.post_send_batch(qp, &wrs).unwrap();
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
        if cqe.opcode == CqeOpcode::Send {
            self.completions.push((cqe.wr_id.0, ctx.now()));
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Collects deliveries.
struct Collector {
    recvs: Vec<(u64, SimTime)>,
    bytes: u64,
}

impl App for Collector {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let qp = ctx.create_qp(Transport::Rc);
        for i in 0..8192 {
            ctx.post_recv(qp, RecvWr::new(WrId(i), 1 << 22));
        }
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
        if cqe.opcode == CqeOpcode::Recv {
            self.recvs.push((cqe.bytes, ctx.now()));
            self.bytes += cqe.bytes;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

type Stamped = Vec<(u64, SimTime)>;

/// Returns (send completions, delivered bytes, deliveries).
fn run_script(payloads: Vec<u64>, through_switch: bool, seed: u64) -> (Stamped, u64, Stamped) {
    let cfg = ClusterConfig::hardware();
    let fabric = if through_switch {
        Fabric::single_switch(cfg, 2, seed)
    } else {
        Fabric::direct_pair(cfg, seed)
    };
    let mut sim = Sim::new(fabric);
    sim.add_app(
        0,
        Box::new(ScriptedSender {
            target: 1,
            payloads,
            sent_bytes: 0,
            completions: Vec::new(),
            qp: None,
        }),
    );
    sim.add_app(
        1,
        Box::new(Collector {
            recvs: Vec::new(),
            bytes: 0,
        }),
    );
    sim.start();
    sim.run_to_quiescence();
    let sender = sim.app_as::<ScriptedSender>(0);
    let sink = sim.app_as::<Collector>(1);
    (sender.completions.clone(), sink.bytes, sink.recvs.clone())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Payload conservation: every byte posted is delivered exactly once,
    /// every message completes, through the switch or back-to-back.
    #[test]
    fn bytes_conserved_end_to_end(
        payloads in prop::collection::vec(1u64..20_000, 1..60),
        through_switch in any::<bool>(),
    ) {
        let total: u64 = payloads.iter().sum();
        let n = payloads.len();
        let (completions, delivered, recvs) = run_script(payloads, through_switch, 11);
        prop_assert_eq!(completions.len(), n, "every send completes");
        prop_assert_eq!(recvs.len(), n, "every message delivers");
        prop_assert_eq!(delivered, total, "byte conservation");
    }

    /// Same-QP ordering: RC completions and deliveries arrive in posted
    /// order (IB's in-order guarantee on a connection).
    #[test]
    fn in_order_delivery(payloads in prop::collection::vec(1u64..10_000, 2..40)) {
        let expected: Vec<u64> = payloads.clone();
        let (completions, _, recvs) = run_script(payloads, true, 13);
        let wr_order: Vec<u64> = completions.iter().map(|&(id, _)| id).collect();
        let sorted: Vec<u64> = (0..wr_order.len() as u64).collect();
        prop_assert_eq!(wr_order, sorted, "completions in posted order");
        let recv_sizes: Vec<u64> = recvs.iter().map(|&(b, _)| b).collect();
        prop_assert_eq!(recv_sizes, expected, "deliveries in posted order");
    }

    /// Determinism: identical seeds give identical event timings.
    #[test]
    fn deterministic_timings(payloads in prop::collection::vec(1u64..10_000, 1..20)) {
        let a = run_script(payloads.clone(), true, 17);
        let b = run_script(payloads, true, 17);
        prop_assert_eq!(a.0, b.0);
        prop_assert_eq!(a.2, b.2);
    }
}
