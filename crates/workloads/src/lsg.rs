//! The latency-sensitive generator skeleton (application-level view).

use std::any::Any;

use rperf_fabric::{App, Ctx};
use rperf_model::{QpNum, ServiceLevel, Transport, Verb};
use rperf_sim::{SimDuration, SimTime};
use rperf_stats::LatencyHistogram;
use rperf_verbs::{Cqe, CqeOpcode, SendWr, WrId};

/// Configuration of a [`ClosedLoopPing`] (and of the RPerf LSG built on
/// the same pattern in the `rperf` crate).
#[derive(Debug, Clone)]
pub struct LsgConfig {
    /// Destination node index.
    pub target: usize,
    /// Payload bytes (the paper's LSG uses 64 B).
    pub payload: u64,
    /// Service level of the flow.
    pub sl: ServiceLevel,
    /// Samples before this instant are discarded (warm-up).
    pub warmup: SimDuration,
}

impl LsgConfig {
    /// The paper's LSG: 64-byte messages, SL0, 100 µs warm-up, each
    /// message posted as the previous one completes.
    pub fn new(target: usize) -> Self {
        LsgConfig {
            target,
            payload: 64,
            sl: ServiceLevel::new(0),
            warmup: SimDuration::from_us(100),
        }
    }

    /// Sets the payload size (builder style).
    pub fn with_payload(mut self, payload: u64) -> Self {
        self.payload = payload;
        self
    }

    /// Sets the service level (builder style).
    pub fn with_sl(mut self, sl: ServiceLevel) -> Self {
        self.sl = sl;
        self
    }

    /// Sets the warm-up horizon (builder style).
    pub fn with_warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }
}

/// A closed-loop latency prober: one outstanding RC SEND at a time,
/// recording post-to-completion times at application level.
///
/// This measures what a naive tool would (including every local-side
/// overhead); the RPerf app in the `rperf` crate applies the paper's
/// loopback-subtraction methodology on top of the same traffic pattern.
#[derive(Debug)]
pub struct ClosedLoopPing {
    cfg: LsgConfig,
    qp: Option<QpNum>,
    iter: u64,
    posted_at: SimTime,
    hist: LatencyHistogram,
}

impl ClosedLoopPing {
    /// Creates the prober.
    pub fn new(cfg: LsgConfig) -> Self {
        ClosedLoopPing {
            cfg,
            qp: None,
            iter: 0,
            posted_at: SimTime::ZERO,
            hist: LatencyHistogram::new(),
        }
    }

    /// The recorded post-to-completion histogram (picoseconds).
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }

    /// Completed iterations (including warm-up).
    pub fn iterations(&self) -> u64 {
        self.iter
    }

    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        let Some(qp) = self.qp else {
            debug_assert!(false, "fire before start");
            return;
        };
        self.posted_at = ctx.now();
        let wr = SendWr::new(WrId(self.iter), Verb::Send, self.cfg.payload)
            .to(ctx.lid_of(self.cfg.target), QpNum::new(1))
            .with_sl(self.cfg.sl);
        if ctx.post_send(qp, wr).is_err() {
            debug_assert!(false, "invalid LSG work request");
        }
    }
}

impl App for ClosedLoopPing {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.qp = Some(ctx.create_qp(Transport::Rc));
        self.fire(ctx);
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
        if cqe.opcode != CqeOpcode::Send {
            return;
        }
        self.iter += 1;
        let now = ctx.now();
        if now >= SimTime::ZERO + self.cfg.warmup {
            self.hist.record((now - self.posted_at).as_ps());
        }
        self.fire(ctx);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Sink;
    use rperf_fabric::{Fabric, Sim};
    use rperf_model::ClusterConfig;

    #[test]
    fn closed_loop_measures_stable_zero_load_latency() {
        let cfg = ClusterConfig::omnet_simulator();
        let mut sim = Sim::new(Fabric::single_switch(cfg, 2, 21));
        sim.add_app(
            0,
            Box::new(ClosedLoopPing::new(
                LsgConfig::new(1).with_warmup(SimDuration::from_us(20)),
            )),
        );
        sim.add_app(1, Box::new(Sink::new()));
        sim.start();
        sim.run_until(SimTime::from_us(500));
        let lsg = sim.app_as::<ClosedLoopPing>(0);
        assert!(lsg.iterations() > 100);
        let h = lsg.histogram();
        // Application-level latency includes posting overheads; expect a
        // couple of microseconds at zero load, and a tight distribution in
        // the deterministic simulator profile.
        let p50 = h.percentile(50.0);
        assert!(
            (500_000..4_000_000).contains(&p50),
            "p50 {p50} ps out of the expected zero-load band"
        );
        let spread = h.percentile(99.9) - h.percentile(50.0);
        assert!(
            spread < 200_000,
            "deterministic profile should be tight, spread {spread} ps"
        );
    }
}
