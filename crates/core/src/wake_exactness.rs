//! The events that do work are pinned across changes to how wakes are
//! scheduled: every tracer record (switch ingress, host arrival,
//! completion, each with its instant) of four runs that exercise the
//! wake protocol's edges is digested and compared with a committed
//! digest. A wake scheduled, held or dropped wrongly moves a packet or a
//! completion, and the digest with it.

use rperf_fabric::{App, Ctx, Fabric, Sim, TraceEvent, TraceRecord};
use rperf_model::{ClusterConfig, QpNum, Transport, Verb};
use rperf_sim::{SimDuration, SimTime};
use rperf_verbs::{Cqe, CqeOpcode, RecvWr, SendWr, WrId};
use std::any::Any;

use crate::executor::{build, profile_config};
use crate::scenario::specs;
use crate::spec::{QosMode, ScenarioSpec};

/// FNV-1a-64 over every record's instant and fields, in trace order.
fn digest(records: &[TraceRecord]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut eat = |word: u64| {
        for b in word.to_le_bytes() {
            h ^= u64::from(b);
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for r in records {
        eat(r.at.as_ps());
        let fields = match r.event {
            TraceEvent::SwitchIngress {
                switch,
                ingress,
                packet,
                payload,
            } => [
                0,
                switch as u64,
                u64::from(ingress.raw()),
                packet.raw(),
                payload,
            ],
            TraceEvent::HostArrival {
                node,
                packet,
                payload,
            } => [1, node as u64, packet.raw(), payload, 0],
            TraceEvent::Completion { node, wr_id } => [2, node as u64, wr_id, 0, 0],
        };
        fields.into_iter().for_each(&mut eat);
    }
    h
}

/// Runs `sim` to `end` with every record traced; returns the record
/// count and digest.
fn traced(sim: &mut Sim, end: SimTime) -> (usize, u64) {
    sim.enable_trace(usize::MAX);
    sim.start();
    sim.run_until(end);
    let trace = sim.trace().expect("tracing was enabled");
    assert_eq!(trace.dropped(), 0);
    (trace.records().len(), digest(trace.records()))
}

/// `spec`'s seed-1 run over a 300 µs window.
fn spec_trace(spec: ScenarioSpec) -> (usize, u64) {
    let spec = spec.with_duration(SimDuration::from_us(300));
    let (mut sim, end) = build(&spec, profile_config(&spec), 1);
    traced(&mut sim, end)
}

/// Asserts a run's record count and digest.
fn assert_pinned(name: &str, (records, got): (usize, u64), want: (usize, u64)) {
    assert_eq!(
        (records, got),
        want,
        "{name}: {records} records digesting to {got:#018x}"
    );
}

/// Fig. 12's gamed setup: four BSGs, a pretend LSG and the RPerf LSG on
/// a dedicated SL. The sink's RNIC acknowledges on both VLs, so its
/// wakes, credits and ACKs of two lanes meet at the same instants.
#[test]
fn two_vl_rnics_under_a_pretend_lsg() {
    let spec = specs::converged(4, 4096, 1, true, QosMode::DedicatedSlWithPretend);
    assert_pinned(
        "fig12 gamed",
        spec_trace(spec),
        (35876, 0xfb02_226b_9aba_bb99),
    );
}

/// Fig. 7 at five BSGs: the senders are credit-blocked by the switch's
/// full input buffers, so credits, not wakes, start most transmits.
#[test]
fn credit_blocked_senders_at_five_bsgs() {
    let spec = specs::converged(5, 4096, 1, true, QosMode::SharedSl);
    assert_pinned(
        "fig7 at 5 BSGs",
        spec_trace(spec),
        (4749, 0x2400_e6fe_3939_e84f),
    );
}

/// The 5-hop Clos victim under four BSGs: chained wakes for heads that
/// a dispatch exposes, at switches whose egresses stall on credits.
#[test]
fn five_hop_clos_victim_under_four_bsgs() {
    assert_pinned(
        "clos victim",
        spec_trace(specs::clos_victim(5, 4)),
        (10428, 0xb9ea_312c_cdbe_65c4),
    );
}

/// One cycle of requests a [`Mixer`] posts: verb, on the UD QP, bytes.
const MIX: [(Verb, bool, u64); 6] = [
    (Verb::Read, false, 4096),
    (Verb::Write, false, 10_000),
    (Verb::Send, false, 64),
    (Verb::Send, true, 2048),
    (Verb::Read, false, 64),
    (Verb::Write, false, 256),
];

/// Keeps `window` requests in flight, cycling through [`MIX`] and the
/// two servers: READ responses, multi-packet WRITEs, RC and UD SENDs.
/// Every node creates its RC QP first (QP 1), then its UD QP (QP 2).
struct Mixer {
    servers: [usize; 2],
    window: u64,
    next: u64,
    /// Posts the RNIC refused (none: every mix verb is valid on its QP).
    rejected: u64,
}

impl Mixer {
    fn post(&mut self, ctx: &mut Ctx<'_>) {
        let i = self.next;
        self.next += 1;
        let (verb, on_ud, bytes) = MIX[i as usize % MIX.len()];
        let server = self.servers[(i / 3) as usize % 2];
        let qp = QpNum::new(if on_ud { 2 } else { 1 });
        let wr = SendWr::new(WrId(i), verb, bytes).to(ctx.lid_of(server), qp);
        if ctx.post_send(qp, wr).is_err() {
            self.rejected += 1;
        }
    }
}

impl App for Mixer {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        ctx.create_qp(Transport::Rc);
        ctx.create_qp(Transport::Ud);
        for _ in 0..self.window {
            self.post(ctx);
        }
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
        if cqe.opcode != CqeOpcode::Recv {
            self.post(ctx);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Receives on both QPs.
struct Server;

impl App for Server {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        for transport in [Transport::Rc, Transport::Ud] {
            let qp = ctx.create_qp(transport);
            for i in 0..4096 {
                ctx.post_recv(qp, RecvWr::new(WrId(i), 16 << 10));
            }
        }
    }

    fn on_cqe(&mut self, _: &mut Ctx<'_>, _: Cqe) {}

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// Three mixers against two servers on the hardware profile's switch
/// (jitter and arbitration-scan costs on): READ responses land in the
/// middle of a lane's queue, WRITE ACKs wait on remote DMA, and UD SENDs
/// complete on wire exit, all converging on two egresses.
#[test]
fn read_write_ud_mix() {
    let fabric = Fabric::single_switch(ClusterConfig::hardware(), 5, 11);
    let mut sim = Sim::new(fabric);
    for (node, window) in [(0, 8), (1, 16), (2, 4)] {
        let mixer = Mixer {
            servers: [3, 4],
            window,
            next: node as u64 * 7,
            rejected: 0,
        };
        sim.add_app(node, Box::new(mixer));
    }
    sim.add_app(3, Box::new(Server));
    sim.add_app(4, Box::new(Server));
    let pinned = traced(&mut sim, SimTime::from_us(300));
    for node in 0..3 {
        assert_eq!(sim.app_as::<Mixer>(node).rejected, 0);
    }
    assert_pinned("read/write/UD mix", pinned, (6515, 0xcfaa_1303_5061_96eb));
}
