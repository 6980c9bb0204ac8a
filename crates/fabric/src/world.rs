//! The application layer: the event vocabulary, the [`App`] trait and
//! the process-wide run counters. The engine that dispatches events, and
//! the [`Ctx`] it hands apps, live in [`crate::sim`].

use std::any::Any;
use std::sync::atomic::{AtomicU64, Ordering};

use rperf_model::{PacketRef, PortId, VirtualLane};
use rperf_verbs::Cqe;

use crate::Ctx;

/// An event flowing through the assembled fabric.
///
/// Packet events carry [`PacketRef`] handles into the simulation's
/// [`rperf_model::PacketSlab`]; the packet body is allocated once at
/// injection and never copied per hop.
///
/// The enum sits inside every event-queue entry, so every variant fits
/// in 16 bytes (asserted below): node and switch indices are `u32` rather
/// than `usize`, and a completion travels as a `u32` slot in the
/// simulation's CQE slab instead of as a 32-byte [`Cqe`]. That makes each
/// entry 40 bytes.
#[derive(Debug, Clone)]
pub(crate) enum FabricEvent {
    /// An RNIC's self-scheduled wake-up.
    RnicWake(u32),
    /// A packet's last bit reaches an RNIC.
    RnicPacket {
        /// Destination node.
        node: u32,
        /// The packet.
        packet: PacketRef,
    },
    /// Flow-control credits reach an RNIC.
    RnicCredit {
        /// The node.
        node: u32,
        /// Virtual lane.
        vl: VirtualLane,
        /// Returned bytes.
        bytes: u64,
    },
    /// A packet's first bit reaches a switch ingress (cut-through).
    SwitchPacket {
        /// The switch.
        switch: u32,
        /// Ingress port.
        ingress: PortId,
        /// The packet.
        packet: PacketRef,
    },
    /// A switch egress wake-up.
    SwitchWake {
        /// The switch.
        switch: u32,
        /// Egress port to re-arbitrate.
        egress: PortId,
    },
    /// Credits return to a switch egress from its downstream peer.
    SwitchCredit {
        /// The switch.
        switch: u32,
        /// The egress port the credits apply to.
        egress: PortId,
        /// Virtual lane.
        vl: VirtualLane,
        /// Returned bytes.
        bytes: u64,
    },
    /// A completion becomes visible to the application on `node`.
    AppCqe {
        /// The node.
        node: u32,
        /// The completion's slot in the simulation's CQE slab, freed when
        /// the event is handled.
        slot: u32,
    },
    /// An application timer fires.
    AppTimer {
        /// The node whose app set the timer.
        node: u32,
        /// Opaque token chosen by the app.
        token: u64,
    },
}

const _: () = assert!(std::mem::size_of::<FabricEvent>() == 16);
const _: () = assert!(rperf_sim::EventQueue::<FabricEvent>::ENTRY_BYTES == 40);

/// Number of [`FabricEvent`] kinds; see [`KIND_NAMES`].
pub(crate) const KINDS: usize = 8;

/// Display names of the event kinds, index-aligned with
/// [`crate::Sim::events_by_kind`] and the counters `Sim::handle_one`
/// bumps in its dispatch arms.
pub const KIND_NAMES: [&str; KINDS] = [
    "switch_packet",
    "switch_wake",
    "rnic_packet",
    "rnic_wake",
    "switch_credit",
    "rnic_credit",
    "app_cqe",
    "app_timer",
];

/// The application interface: measurement tools and traffic generators
/// implement this and are attached to nodes with [`crate::Sim::add_app`].
pub trait App {
    /// Called once when the simulation starts.
    fn start(&mut self, ctx: &mut Ctx<'_>);

    /// Called when a completion becomes visible on this node.
    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe);

    /// Called when a timer set via [`Ctx::set_timer`] fires.
    fn on_timer(&mut self, _ctx: &mut Ctx<'_>, _token: u64) {}

    /// Downcasting hook for result extraction after a run.
    fn as_any(&self) -> &dyn Any;
}

/// Process-wide count of events handled by every [`crate::Sim`] on any
/// thread, per kind ([`KIND_NAMES`] order).
///
/// Parallel sweeps (`rperf-runner`) run many `Sim`s concurrently; the
/// relaxed atomic adds commute, so the counts are deterministic even
/// though the interleaving is not. The bench report records them per
/// figure as a deterministic regression signal next to wall time.
static EVENTS_BY_KIND: [AtomicU64; KINDS] = [const { AtomicU64::new(0) }; KINDS];

/// Process-wide high-water mark of live packets in any [`crate::Sim`]'s
/// slabs.
///
/// Updated (with a relaxed `fetch_max`) at the end of every run call; the
/// bench report records it as a peak-memory proxy for the packet arena.
static SLAB_HIGH_WATER: AtomicU64 = AtomicU64::new(0);

/// Process-wide count of packet handles still live when a simulation
/// drained its event queues — every count here is a leak: with no events
/// left, no packet can still be in flight.
static PACKETS_LEAKED: AtomicU64 = AtomicU64::new(0);

/// Events processed by all simulations in this process so far, per kind
/// ([`KIND_NAMES`] order).
///
/// Snapshot before and after a workload and subtract to attribute events
/// to it (valid also when the workload runs on worker threads).
pub fn events_by_kind_total() -> [u64; KINDS] {
    EVENTS_BY_KIND.each_ref().map(|n| n.load(Ordering::Relaxed))
}

/// Total events processed by all simulations in this process so far:
/// the sum of [`events_by_kind_total`].
///
/// A shim: only the repository benchmark reads it, and it goes once
/// per-run statistics travel on `ScenarioOutcome`.
pub fn events_processed_total() -> u64 {
    events_by_kind_total().iter().sum()
}

/// Highest number of simultaneously live packets observed in any
/// simulation's slab in this process.
///
/// A shim kept for the repository benchmark (and `report`) until
/// per-run statistics travel on `ScenarioOutcome`.
pub fn slab_high_water_total() -> u64 {
    SLAB_HIGH_WATER.load(Ordering::Relaxed)
}

/// Total packet handles found still allocated at quiescence across all
/// simulations in this process (must stay 0; anything else is a leak in
/// the device models).
///
/// A shim kept for the repository benchmark (and `report`) until
/// per-run statistics travel on `ScenarioOutcome`.
pub fn packets_leaked_total() -> u64 {
    PACKETS_LEAKED.load(Ordering::Relaxed)
}

/// Adds one run's per-kind event counts to the process-wide counters.
pub(crate) fn note_events(by_kind: [u64; KINDS]) {
    for (total, n) in EVENTS_BY_KIND.iter().zip(by_kind) {
        total.fetch_add(n, Ordering::Relaxed);
    }
}

/// Raises the process-wide slab high-water mark.
pub(crate) fn note_slab_high_water(n: u64) {
    SLAB_HIGH_WATER.fetch_max(n, Ordering::Relaxed);
}

/// Adds packet handles found live at quiescence to the leak counter.
pub(crate) fn note_leaks(n: u64) {
    PACKETS_LEAKED.fetch_add(n, Ordering::Relaxed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Fabric, Sim};
    use rperf_model::config::VlArbEntry;
    use rperf_model::{ClusterConfig, PortId, QpNum, ServiceLevel, Transport, Verb};
    use rperf_sim::{SimDuration, SimTime};
    use rperf_verbs::{CqeOpcode, RecvWr, SendWr, WrId};

    /// Posts `count` RC SENDs with one doorbell at start; records when
    /// the last one completed.
    struct OneShot {
        target: usize,
        payload: u64,
        count: u64,
        sl: ServiceLevel,
        completed: u64,
        send_done: Option<SimTime>,
    }

    impl OneShot {
        fn new(target: usize, payload: u64) -> Self {
            OneShot {
                target,
                payload,
                count: 1,
                sl: ServiceLevel::new(0),
                completed: 0,
                send_done: None,
            }
        }
    }

    impl App for OneShot {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            let qp = ctx.create_qp(Transport::Rc);
            let dst = ctx.lid_of(self.target);
            let wrs: Vec<SendWr> = (0..self.count)
                .map(|i| {
                    SendWr::new(WrId(i), Verb::Send, self.payload)
                        .to(dst, QpNum::new(1))
                        .with_sl(self.sl)
                })
                .collect();
            ctx.post_send_batch(qp, &wrs).unwrap();
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
            if cqe.opcode == CqeOpcode::Send {
                self.completed += 1;
                self.send_done = Some(ctx.now());
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    /// Counts received messages and bytes.
    struct Sink {
        recvs: u64,
        bytes: u64,
        last_at: SimTime,
    }

    impl Sink {
        fn new() -> Self {
            Sink {
                recvs: 0,
                bytes: 0,
                last_at: SimTime::ZERO,
            }
        }
    }

    impl App for Sink {
        fn start(&mut self, ctx: &mut Ctx<'_>) {
            let qp = ctx.create_qp(Transport::Rc);
            for i in 0..1024 {
                ctx.post_recv(qp, RecvWr::new(WrId(i), 1 << 20));
            }
        }

        fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
            if cqe.opcode == CqeOpcode::Recv {
                self.recvs += 1;
                self.bytes += cqe.bytes;
                self.last_at = ctx.now();
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
    }

    fn run_pair(through_switch: bool, payload: u64) -> (SimTime, u64) {
        let cfg = ClusterConfig::omnet_simulator();
        let fabric = if through_switch {
            Fabric::single_switch(cfg, 2, 7)
        } else {
            Fabric::direct_pair(cfg, 7)
        };
        let mut sim = Sim::new(fabric);
        sim.add_app(0, Box::new(OneShot::new(1, payload)));
        sim.add_app(1, Box::new(Sink::new()));
        sim.start();
        sim.run_to_quiescence();
        let sender = sim.app_as::<OneShot>(0);
        let sink = sim.app_as::<Sink>(1);
        assert_eq!(sink.recvs, 1);
        assert_eq!(sink.bytes, payload);
        (sender.send_done.expect("send completed"), sink.bytes)
    }

    #[test]
    fn end_to_end_send_completes_direct() {
        let (done, bytes) = run_pair(false, 64);
        assert_eq!(bytes, 64);
        // Sanity: completes within a few microseconds.
        assert!(done < SimTime::from_us(5), "done at {done}");
        assert!(done > SimTime::ZERO);
    }

    #[test]
    fn switch_adds_latency() {
        let (direct, _) = run_pair(false, 64);
        let (switched, _) = run_pair(true, 64);
        let delta = switched - direct;
        // One switch traversal per direction: roughly 2 × (pipeline + prop).
        assert!(
            delta > SimDuration::from_ns(300),
            "switch should add ≥ 300 ns to the RTT, added {delta}"
        );
        assert!(
            delta < SimDuration::from_ns(800),
            "switch delta implausibly large: {delta}"
        );
    }

    /// The fabric's one table maps SL2 to VL2: the sender stamps a 30 ×
    /// 4 KB SEND burst with VL2, the switch buffers it there (never on
    /// VL0) and both receivers return every credit on VL2, so all 30
    /// messages arrive. A credit returned on any other lane leaks VL2's
    /// grant, and the link stalls once the switch's VL2 buffer is spent
    /// (after 7 of these messages).
    #[test]
    fn a_burst_on_a_mapped_lane_is_buffered_and_credited_on_it() {
        let mut cfg = ClusterConfig::omnet_simulator();
        let (sl2, vl2) = (ServiceLevel::new(2), VirtualLane::new(2));
        cfg.sl2vl = cfg.sl2vl.with(sl2, vl2);
        cfg.switch.vlarb.low.push(VlArbEntry {
            vl: vl2,
            weight: 64,
        });
        let fabric = Fabric::single_switch(cfg, 2, 7);
        assert_eq!(fabric.lanes(), 3);
        assert_eq!(fabric.switch(0).lanes(), 3);
        assert!((0..2).all(|i| fabric.rnic(i).lanes() == 3));

        let mut sim = Sim::new(fabric);
        let mut sender = OneShot::new(1, 4096);
        sender.count = 30;
        sender.sl = sl2;
        sim.add_app(0, Box::new(sender));
        sim.add_app(1, Box::new(Sink::new()));
        sim.start();
        // Step through the burst's stay in the switch's input buffer.
        let ingress = PortId::new(0);
        let mut seen_on_vl2 = false;
        let mut t = SimTime::ZERO;
        while t < SimTime::from_us(200) {
            t += SimDuration::from_ns(50);
            sim.run_until(t);
            seen_on_vl2 |= sim.switch(0).occupancy(ingress, vl2) > 0;
            assert_eq!(sim.switch(0).occupancy(ingress, VirtualLane::new(0)), 0);
        }
        assert!(seen_on_vl2, "the burst never sat on the switch's VL2");
        assert_eq!(sim.app_as::<Sink>(1).recvs, 30);
        assert_eq!(sim.app_as::<OneShot>(0).completed, 30);
    }

    #[test]
    fn deterministic_end_to_end() {
        let (a, _) = run_pair(true, 4096);
        let (b, _) = run_pair(true, 4096);
        assert_eq!(a, b, "same seed must give identical timing");
    }

    #[test]
    fn timers_fire_in_order() {
        struct TimerApp {
            fired: Vec<u64>,
        }
        impl App for TimerApp {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                ctx.set_timer(SimDuration::from_ns(300), 3);
                ctx.set_timer(SimDuration::from_ns(100), 1);
                ctx.set_timer(SimDuration::from_ns(200), 2);
            }
            fn on_cqe(&mut self, _: &mut Ctx<'_>, _: Cqe) {}
            fn on_timer(&mut self, _: &mut Ctx<'_>, token: u64) {
                self.fired.push(token);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let mut sim = Sim::new(Fabric::direct_pair(ClusterConfig::omnet_simulator(), 1));
        sim.add_app(0, Box::new(TimerApp { fired: vec![] }));
        sim.start();
        sim.run_to_quiescence();
        assert_eq!(sim.app_as::<TimerApp>(0).fired, vec![1, 2, 3]);
    }

    #[test]
    fn bulk_transfer_through_switch_reaches_wire_rate() {
        // 200 × 4096 B messages: the sink's goodput should be close to the
        // wire-limited prediction.
        struct Blaster {
            target: usize,
            outstanding: u64,
            remaining: u64,
            qp: Option<QpNum>,
        }
        impl App for Blaster {
            fn start(&mut self, ctx: &mut Ctx<'_>) {
                let qp = ctx.create_qp(Transport::Rc);
                self.qp = Some(qp);
                let wrs: Vec<SendWr> = (0..self.outstanding)
                    .map(|i| {
                        SendWr::new(WrId(i), Verb::Send, 4096)
                            .to(ctx.lid_of(self.target), QpNum::new(1))
                    })
                    .collect();
                self.remaining -= self.outstanding;
                ctx.post_send_batch(qp, &wrs).unwrap();
            }
            fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
                if cqe.opcode == CqeOpcode::Send && self.remaining > 0 {
                    self.remaining -= 1;
                    let wr = SendWr::new(cqe.wr_id, Verb::Send, 4096)
                        .to(ctx.lid_of(self.target), QpNum::new(1));
                    ctx.post_send(self.qp.unwrap(), wr).unwrap();
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
        }
        let cfg = ClusterConfig::omnet_simulator();
        let expected = rperf_model::analytic::wire_limited_goodput_gbps(&cfg, 4096);
        let mut sim = Sim::new(Fabric::single_switch(cfg, 2, 3));
        sim.add_app(
            0,
            Box::new(Blaster {
                target: 1,
                outstanding: 32,
                remaining: 200,
                qp: None,
            }),
        );
        sim.add_app(1, Box::new(Sink::new()));
        sim.start();
        sim.run_to_quiescence();
        let sink = sim.app_as::<Sink>(1);
        assert_eq!(sink.recvs, 200);
        let elapsed = sink.last_at - SimTime::ZERO;
        let gbps = sink.bytes as f64 * 8.0 / elapsed.as_secs_f64() / 1e9;
        assert!(
            gbps > expected * 0.85,
            "goodput {gbps:.1} Gbps too far below wire limit {expected:.1}"
        );
        assert!(
            gbps <= expected * 1.02,
            "goodput {gbps:.1} above wire limit"
        );
    }
}
