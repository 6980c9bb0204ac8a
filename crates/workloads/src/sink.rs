//! The destination server.

use std::any::Any;

use rperf_fabric::{App, Ctx};
use rperf_model::Transport;
use rperf_sim::SimTime;
use rperf_stats::BandwidthMeter;
use rperf_verbs::{Cqe, CqeOpcode, RecvWr, WrId};

/// The receive side of every experiment: keeps the receive queue charged
/// and meters deliveries.
///
/// All generators address QP 1 on the destination, which is the first QP
/// the sink creates.
#[derive(Debug)]
pub struct Sink {
    recvs: u64,
    meter: BandwidthMeter,
    last_at: SimTime,
    qp: Option<rperf_model::QpNum>,
    next_wr: u64,
}

impl Sink {
    /// Creates a sink.
    pub fn new() -> Self {
        Sink {
            recvs: 0,
            meter: BandwidthMeter::new(),
            last_at: SimTime::ZERO,
            qp: None,
            next_wr: 0,
        }
    }

    /// Messages delivered.
    pub fn recvs(&self) -> u64 {
        self.recvs
    }

    /// The delivery meter (windowed from t = 0; deliveries are usually
    /// accounted at the sources instead).
    pub fn meter(&self) -> &BandwidthMeter {
        &self.meter
    }

    /// Time of the last delivery.
    pub fn last_at(&self) -> SimTime {
        self.last_at
    }
}

impl Default for Sink {
    fn default() -> Self {
        Self::new()
    }
}

impl App for Sink {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        let qp = ctx.create_qp(Transport::Rc);
        self.qp = Some(qp);
        for _ in 0..4096 {
            let id = self.next_wr;
            self.next_wr += 1;
            ctx.post_recv(qp, RecvWr::new(WrId(id), 1 << 20));
        }
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
        if cqe.opcode != CqeOpcode::Recv {
            return;
        }
        self.recvs += 1;
        self.last_at = ctx.now();
        self.meter.record(ctx.now().as_ps(), cqe.bytes);
        // Replenish the consumed buffer.
        let Some(qp) = self.qp else {
            debug_assert!(false, "CQE before start");
            return;
        };
        let id = self.next_wr;
        self.next_wr += 1;
        ctx.post_recv(qp, RecvWr::new(WrId(id), 1 << 20));
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Bsg, BsgConfig};
    use rperf_fabric::{Fabric, Sim};
    use rperf_model::ClusterConfig;
    use rperf_sim::SimDuration;

    #[test]
    fn sink_never_runs_out_of_recvs() {
        let cfg = ClusterConfig::omnet_simulator();
        let mut sim = Sim::new(Fabric::single_switch(cfg, 2, 31));
        sim.add_app(
            0,
            Box::new(Bsg::new(
                BsgConfig::new(1, 4096).with_warmup(SimDuration::ZERO),
            )),
        );
        sim.add_app(1, Box::new(Sink::new()));
        sim.start();
        sim.run_until(SimTime::from_us(3000));
        let sink = sim.app_as::<Sink>(1);
        assert!(sink.recvs() > 1000);
        // No auto-filled receives: the sink kept up.
        assert_eq!(sim.rnic(1).stats().recv_autofills, 0);
    }
}
