//! The RPerf measurement application.

use std::any::Any;

use rperf_fabric::{App, Ctx};
use rperf_host::{SoftwareModel, Tsc};
use rperf_model::{QpNum, ServiceLevel, Transport, Verb};
use rperf_sim::{SimDuration, SimRng, SimTime};
use rperf_stats::{LatencyHistogram, LatencySummary};
use rperf_verbs::{Cqe, CqeOpcode, RecvWr, SendWr, WrId};

/// Configuration of an [`RPerf`] instance.
#[derive(Debug, Clone)]
pub struct RPerfConfig {
    /// Destination node index.
    pub target: usize,
    /// Payload bytes per probe (the paper sweeps 64–4096).
    pub payload: u64,
    /// Service level of the probe flow.
    pub sl: ServiceLevel,
    /// Samples before this instant are discarded.
    pub warmup: SimDuration,
    /// Spin-loop iteration time of the completion poll. RPerf pins a
    /// thread and spins tightly, so this is a few nanoseconds — one of the
    /// reasons it resolves sub-100 ns RTTs.
    pub poll_period: SimDuration,
    /// Noise-stream seed (forked per instance).
    pub seed: u64,
}

impl RPerfConfig {
    /// The paper's default probe: 64-byte messages, SL0, 100 µs warm-up,
    /// tight poll loop.
    pub fn new(target: usize) -> Self {
        RPerfConfig {
            target,
            payload: 64,
            sl: ServiceLevel::new(0),
            warmup: SimDuration::from_us(100),
            poll_period: SimDuration::from_ns(6),
            seed: 0x5eed,
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

    /// Sets the noise seed (builder style).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

/// The measurement outcome of an RPerf run.
#[derive(Debug, Clone)]
pub struct RPerfReport {
    /// The RTT distribution (picoseconds), per Eq. 1.
    pub summary: LatencySummary,
    /// Completed probe iterations (including warm-up).
    pub iterations: u64,
    /// Probes where the loopback completed *after* the over-the-wire ACK
    /// (clock-resolution inversions; recorded as zero RTT).
    pub inversions: u64,
}

/// The RPerf measurement tool as an application (Section IV).
///
/// Each iteration posts a pair of SENDs — over-the-wire then loopback —
/// records `T_L` (loopback completion) and `T_W` (wire ACK completion)
/// from the host TSC, and computes `RTT = T_W − T_L`. Closed loop: the
/// next pair is posted once the current wire probe completes.
#[derive(Debug)]
pub struct RPerf {
    cfg: RPerfConfig,
    sw: Option<SoftwareModel>,
    qp: Option<QpNum>,
    iter: u64,
    t_posted: SimTime,
    t_l: Option<Tsc>,
    t_w: Option<Tsc>,
    hist: LatencyHistogram,
    inversions: u64,
}

const WIRE: u64 = 0;
const LOOP: u64 = 1;

impl RPerf {
    /// Creates an instance.
    pub fn new(cfg: RPerfConfig) -> Self {
        RPerf {
            cfg,
            sw: None,
            qp: None,
            iter: 0,
            t_posted: SimTime::ZERO,
            t_l: None,
            t_w: None,
            hist: LatencyHistogram::new(),
            inversions: 0,
        }
    }

    /// The measurement report so far.
    pub fn report(&self) -> RPerfReport {
        RPerfReport {
            summary: LatencySummary::from_histogram(&self.hist),
            iterations: self.iter,
            inversions: self.inversions,
        }
    }

    /// The raw RTT histogram (picoseconds).
    pub fn histogram(&self) -> &LatencyHistogram {
        &self.hist
    }

    fn fire(&mut self, ctx: &mut Ctx<'_>) {
        let Some(qp) = self.qp else {
            debug_assert!(false, "fire before start");
            return;
        };
        // A receive buffer for the loopback SEND's delivery to self.
        ctx.post_recv(qp, RecvWr::new(WrId(u64::MAX - 1), 1 << 20));
        self.t_posted = ctx.now();
        self.t_l = None;
        self.t_w = None;
        let wire = SendWr::new(WrId(self.iter * 2 + WIRE), Verb::Send, self.cfg.payload)
            .to(ctx.lid_of(self.cfg.target), QpNum::new(1))
            .with_sl(self.cfg.sl);
        let own_lid = ctx.lid_of(ctx.node());
        let lback = SendWr::new(WrId(self.iter * 2 + LOOP), Verb::Send, self.cfg.payload)
            .to(own_lid, qp)
            .with_sl(self.cfg.sl)
            .via_loopback();
        // One doorbell for the pair: over-the-wire first, loopback second,
        // exactly as Section IV describes.
        if ctx.post_send_batch(qp, &[wire, lback]).is_err() {
            debug_assert!(false, "invalid RPerf probes");
        }
    }

    fn timestamp(&mut self, ctx: &Ctx<'_>) -> Tsc {
        let Some(sw) = self.sw.as_mut() else {
            debug_assert!(false, "timestamp before start");
            return ctx.clock().read(ctx.now());
        };
        let detect = sw.poll_detect(self.cfg.poll_period);
        ctx.clock().read(ctx.now() + detect)
    }

    fn maybe_complete_iteration(&mut self, ctx: &mut Ctx<'_>) {
        let (Some(t_l), Some(t_w)) = (self.t_l, self.t_w) else {
            return;
        };
        self.iter += 1;
        if ctx.now() >= SimTime::ZERO + self.cfg.warmup {
            if t_w >= t_l {
                let cycles = t_w.cycles_since(t_l);
                self.hist.record(ctx.clock().to_duration(cycles).as_ps());
            } else {
                self.inversions += 1;
                self.hist.record(0);
            }
        }
        self.fire(ctx);
    }
}

impl App for RPerf {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.sw = Some(SoftwareModel::new(
            ctx.config().host,
            SimRng::new(self.cfg.seed),
        ));
        self.qp = Some(ctx.create_qp(Transport::Rc));
        self.fire(ctx);
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
        match cqe.opcode {
            CqeOpcode::Send => {
                let ts = self.timestamp(ctx);
                if cqe.wr_id.raw() % 2 == LOOP {
                    self.t_l = Some(ts);
                } else {
                    self.t_w = Some(ts);
                }
                self.maybe_complete_iteration(ctx);
            }
            // The loopback's delivery to self; not part of the measurement.
            CqeOpcode::Recv => {}
            _ => {}
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rperf_fabric::{Fabric, Sim};
    use rperf_model::analytic::rperf_zero_load_rtt_estimate;
    use rperf_model::ClusterConfig;
    use rperf_workloads::Sink;

    fn run_rperf(through_switch: bool, payload: u64) -> RPerfReport {
        let cfg = ClusterConfig::hardware();
        let fabric = if through_switch {
            Fabric::single_switch(cfg, 2, 5)
        } else {
            Fabric::direct_pair(cfg, 5)
        };
        let mut sim = Sim::new(fabric);
        sim.add_app(
            0,
            Box::new(RPerf::new(
                RPerfConfig::new(1)
                    .with_payload(payload)
                    .with_warmup(SimDuration::from_us(50)),
            )),
        );
        sim.add_app(1, Box::new(Sink::new()));
        sim.start();
        sim.run_until(SimTime::from_us(2_000));
        sim.app_as::<RPerf>(0).report()
    }

    #[test]
    fn zero_load_rtt_matches_analytic_oracle_no_switch() {
        let report = run_rperf(false, 64);
        assert!(report.iterations > 500, "{} iterations", report.iterations);
        let est = rperf_zero_load_rtt_estimate(&ClusterConfig::hardware(), 64, false);
        let p50 = report.summary.p50_ns();
        // The simulation includes noise the closed-form oracle ignores;
        // agree within ±25 ns.
        assert!(
            (p50 - est.as_ns_f64()).abs() < 25.0,
            "p50 {p50:.1} ns vs oracle {:.1} ns",
            est.as_ns_f64()
        );
        // Paper band: ~20 ns median at 64 B back-to-back.
        assert!(p50 < 80.0, "median back-to-back RTT too high: {p50:.1} ns");
    }

    #[test]
    fn zero_load_rtt_through_switch_in_paper_band() {
        let report = run_rperf(true, 64);
        let p50 = report.summary.p50_ns();
        let p999 = report.summary.p999_ns();
        // Paper: 432 ns median, 625 ns tail at 64 B.
        assert!(
            (350.0..550.0).contains(&p50),
            "switch median {p50:.1} ns outside paper band"
        );
        assert!(
            p999 > p50 + 100.0,
            "switch must add a visible tail: p50 {p50:.1}, p99.9 {p999:.1}"
        );
        assert!(p999 < p50 + 400.0, "tail implausibly heavy: {p999:.1}");
    }

    #[test]
    fn payload_growth_is_mild() {
        // The whole point of loopback subtraction: payload serialization
        // mostly cancels, so RTT grows far sublinearly with payload.
        let small = run_rperf(false, 64).summary.p50_ns();
        let large = run_rperf(false, 4096).summary.p50_ns();
        assert!(large > small, "4 KB should be slightly slower");
        assert!(
            large - small < 150.0,
            "64→4096 B delta should be tens of ns, got {:.1}",
            large - small
        );
    }

    #[test]
    fn inversions_are_rare() {
        let report = run_rperf(false, 64);
        let rate = report.inversions as f64 / report.iterations as f64;
        assert!(rate < 0.05, "inversion rate {rate}");
    }
}
