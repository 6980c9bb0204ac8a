//! Link delivery through the full fabric: the dispatch layer's number.
//!
//! A converged-traffic workload (8 senders incast to one sink through a
//! single switch — the regime of Figs. 11-12) runs to quiescence, so
//! the time is the run loop, keyed scheduling, dispatch and the device
//! handlers together.

use std::any::Any;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rperf_fabric::{App, Ctx, Fabric, Sim};
use rperf_model::{ClusterConfig, QpNum, Transport, Verb};
use rperf_verbs::{Cqe, CqeOpcode, RecvWr, SendWr, WrId};

const SENDERS: usize = 8;
const MESSAGES: u64 = 150;

/// Posts a window of sends and re-posts on each completion.
struct Blaster {
    target: usize,
    remaining: u64,
    qp: Option<QpNum>,
}

impl App for Blaster {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let qp = ctx.create_qp(Transport::Rc);
        self.qp = Some(qp);
        let wrs: Vec<SendWr> = (0..16)
            .map(|i| {
                SendWr::new(WrId(i), Verb::Send, 4096).to(ctx.lid_of(self.target), QpNum::new(1))
            })
            .collect();
        self.remaining -= wrs.len() as u64;
        ctx.post_send_batch(qp, &wrs).unwrap();
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
        if cqe.opcode == CqeOpcode::Send && self.remaining > 0 {
            self.remaining -= 1;
            let wr =
                SendWr::new(cqe.wr_id, Verb::Send, 4096).to(ctx.lid_of(self.target), QpNum::new(1));
            ctx.post_send(self.qp.unwrap(), wr).unwrap();
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

struct Sink {
    recvs: u64,
}

impl App for Sink {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let qp = ctx.create_qp(Transport::Rc);
        for i in 0..4096 {
            ctx.post_recv(qp, RecvWr::new(WrId(i), 1 << 20));
        }
    }

    fn on_cqe(&mut self, _ctx: &mut Ctx<'_>, cqe: Cqe) {
        if cqe.opcode == CqeOpcode::Recv {
            self.recvs += 1;
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

fn build_sim() -> Sim {
    let cfg = ClusterConfig::omnet_simulator();
    let mut sim = Sim::new(Fabric::single_switch(cfg, SENDERS + 1, 3));
    for s in 0..SENDERS {
        sim.add_app(
            s,
            Box::new(Blaster {
                target: SENDERS,
                remaining: MESSAGES,
                qp: None,
            }),
        );
    }
    sim.add_app(SENDERS, Box::new(Sink { recvs: 0 }));
    sim
}

fn run_incast() -> u64 {
    let mut sim = build_sim();
    sim.start();
    sim.run_to_quiescence();
    let recvs = sim.app_as::<Sink>(SENDERS).recvs;
    assert_eq!(recvs, SENDERS as u64 * MESSAGES);
    sim.events_processed()
}

fn bench_delivery(c: &mut Criterion) {
    c.bench_function("link_delivery/incast8", |b| {
        b.iter(|| black_box(run_incast()))
    });
}

criterion_group!(benches, bench_delivery);
criterion_main!(benches);
