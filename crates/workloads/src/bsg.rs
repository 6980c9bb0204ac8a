//! The bandwidth-sensitive generator.

use std::any::Any;

use rperf_fabric::{App, Ctx};
use rperf_model::{QpNum, ServiceLevel, Transport, Verb};
use rperf_sim::SimDuration;
use rperf_stats::BandwidthMeter;
use rperf_verbs::{Cqe, CqeOpcode, SendWr, WrId};

/// Configuration of a [`Bsg`].
#[derive(Debug, Clone)]
pub struct BsgConfig {
    /// Destination node index.
    pub target: usize,
    /// Payload bytes per message.
    pub payload: u64,
    /// Messages kept in flight (open-loop window).
    pub window: usize,
    /// Messages per doorbell. 1 disables batching; the paper's
    /// small-payload experiments (Section VIII-A) and the pretend LSG use
    /// larger batches.
    pub batch: usize,
    /// Service level of the flow.
    pub sl: ServiceLevel,
    /// Completions before this instant are excluded from the bandwidth
    /// accounting (warm-up).
    pub warmup: SimDuration,
}

impl BsgConfig {
    /// A conventional bulk flow: `payload`-byte messages to `target`,
    /// window 128, no batching, SL0, 100 µs warm-up.
    pub fn new(target: usize, payload: u64) -> Self {
        BsgConfig {
            target,
            payload,
            window: 128,
            batch: 1,
            sl: ServiceLevel::new(0),
            warmup: SimDuration::from_us(100),
        }
    }

    /// Sets the doorbell batch size (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `batch` is zero.
    pub fn with_batch(mut self, batch: usize) -> Self {
        assert!(batch > 0, "batch must be at least 1");
        self.batch = batch;
        self
    }

    /// Sets the service level (builder style).
    pub fn with_sl(mut self, sl: ServiceLevel) -> Self {
        self.sl = sl;
        self
    }

    /// Sets the in-flight window (builder style).
    ///
    /// # Panics
    ///
    /// Panics if `window` is zero.
    pub fn with_window(mut self, window: usize) -> Self {
        assert!(window > 0, "window must be at least 1");
        self.window = window;
        self
    }

    /// Sets the warm-up horizon (builder style).
    pub fn with_warmup(mut self, warmup: SimDuration) -> Self {
        self.warmup = warmup;
        self
    }
}

/// The bandwidth-sensitive generator: keeps `window` RC SENDs in flight
/// and accounts every acknowledged message after warm-up.
///
/// Goodput is measured at the *source* from completions — in steady state
/// this equals delivery at the destination (RC completions are
/// acknowledgment-driven).
#[derive(Debug)]
pub struct Bsg {
    cfg: BsgConfig,
    qp: Option<QpNum>,
    next_wr: u64,
    pending_repost: usize,
    meter: BandwidthMeter,
    completed: u64,
}

impl Bsg {
    /// Creates a generator from its configuration.
    pub fn new(cfg: BsgConfig) -> Self {
        Bsg {
            cfg,
            qp: None,
            next_wr: 0,
            pending_repost: 0,
            meter: BandwidthMeter::new(),
            completed: 0,
        }
    }

    /// The bandwidth meter (windowed at the configured warm-up).
    pub fn meter(&self) -> &BandwidthMeter {
        &self.meter
    }

    /// Acknowledged messages since the run started (including warm-up).
    pub fn completed(&self) -> u64 {
        self.completed
    }

    /// Goodput in Gbps over `[warmup, end_ps]`.
    pub fn gbps_until(&self, end_ps: u64) -> f64 {
        self.meter.gbps_until(end_ps)
    }

    fn make_wr(&mut self, ctx: &Ctx<'_>) -> SendWr {
        let id = self.next_wr;
        self.next_wr += 1;
        SendWr::new(WrId(id), Verb::Send, self.cfg.payload)
            .to(ctx.lid_of(self.cfg.target), QpNum::new(1))
            .with_sl(self.cfg.sl)
    }

    fn post_batch(&mut self, ctx: &mut Ctx<'_>, count: usize) {
        let Some(qp) = self.qp else {
            debug_assert!(false, "post_batch before start");
            return;
        };
        let wrs: Vec<SendWr> = (0..count).map(|_| self.make_wr(ctx)).collect();
        if ctx.post_send_batch(qp, wrs).is_err() {
            debug_assert!(false, "invalid BSG work requests");
        }
    }
}

impl App for Bsg {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.qp = Some(ctx.create_qp(Transport::Rc));
        self.meter.open_window(self.cfg.warmup.as_ps());
        // Fill the window in batch-sized doorbells.
        let mut remaining = self.cfg.window;
        while remaining > 0 {
            let n = remaining.min(self.cfg.batch);
            self.post_batch(ctx, n);
            remaining -= n;
        }
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
        if cqe.opcode != CqeOpcode::Send {
            return;
        }
        self.completed += 1;
        self.meter.record(ctx.now().as_ps(), cqe.bytes);
        // Batching: accumulate completions, repost one doorbell per batch.
        self.pending_repost += 1;
        if self.pending_repost >= self.cfg.batch {
            let n = self.pending_repost;
            self.pending_repost = 0;
            self.post_batch(ctx, n);
        }
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

/// A bandwidth hog masquerading as latency-sensitive traffic
/// (Section VIII-C "Gaming the dedicated SL/VL setup"): bulk data
/// segmented into 256-byte messages on the latency SL, posted in large
/// batched bursts to maximize throughput.
#[derive(Debug)]
pub struct PretendLsg {
    inner: Bsg,
}

impl PretendLsg {
    /// Creates the adversary: `payload`-byte messages (the paper uses
    /// 256 B — small enough to qualify for the latency SL) on `sl`, batch
    /// 64, a deep window.
    pub fn new(target: usize, payload: u64, sl: ServiceLevel, warmup: SimDuration) -> Self {
        PretendLsg {
            inner: Bsg::new(
                BsgConfig::new(target, payload)
                    .with_sl(sl)
                    .with_batch(32)
                    .with_window(512)
                    .with_warmup(warmup),
            ),
        }
    }

    /// The underlying generator (for metering).
    pub fn bsg(&self) -> &Bsg {
        &self.inner
    }
}

impl App for PretendLsg {
    fn start(&mut self, ctx: &mut Ctx<'_>) {
        self.inner.start(ctx);
    }

    fn on_cqe(&mut self, ctx: &mut Ctx<'_>, cqe: Cqe) {
        self.inner.on_cqe(ctx, cqe);
    }

    fn as_any(&self) -> &dyn Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rperf_fabric::{Fabric, Sim};
    use rperf_model::analytic::wire_limited_goodput_gbps;
    use rperf_model::ClusterConfig;
    use rperf_sim::SimTime;

    use crate::Sink;

    /// A wake-storm-free BSG needs about 20 events per completed message
    /// (injection and wire wakes, switch hops, credits, the ACK's return);
    /// a wake that re-arms itself while the wire is busy costs thousands.
    const MAX_EVENTS_PER_COMPLETION: u64 = 32;

    /// Runs one BSG for `ms` milliseconds; returns its goodput, its
    /// completed messages and the events the simulation processed.
    fn run_bsg(payload: u64, ms: u64) -> (f64, u64, u64) {
        let cfg = ClusterConfig::omnet_simulator();
        let mut sim = Sim::new(Fabric::single_switch(cfg, 2, 11));
        let warmup = SimDuration::from_us(50);
        sim.add_app(
            0,
            Box::new(Bsg::new(BsgConfig::new(1, payload).with_warmup(warmup))),
        );
        sim.add_app(1, Box::new(Sink::new()));
        sim.start();
        let end = SimTime::ZERO + SimDuration::from_us(ms * 1000);
        sim.run_until(end);
        let events = sim.events_processed();
        let bsg = sim.app_as::<Bsg>(0);
        (bsg.gbps_until(end.as_ps()), bsg.completed(), events)
    }

    #[test]
    fn large_payload_reaches_wire_limit() {
        let cfg = ClusterConfig::omnet_simulator();
        let expected = wire_limited_goodput_gbps(&cfg, 4096);
        let (gbps, done, events) = run_bsg(4096, 2);
        assert!(done > 1000);
        assert!(
            (gbps - expected).abs() / expected < 0.06,
            "goodput {gbps:.2} vs wire limit {expected:.2}"
        );
        assert!(
            events <= MAX_EVENTS_PER_COMPLETION * done,
            "{events} events for {done} completions: a wake storm"
        );
    }

    #[test]
    fn small_payload_is_message_rate_limited() {
        let cfg = ClusterConfig::omnet_simulator();
        let rate_limit = rperf_model::analytic::rate_limited_goodput_gbps(&cfg, 64);
        let (gbps, done, events) = run_bsg(64, 2);
        assert!(
            (gbps - rate_limit).abs() / rate_limit < 0.10,
            "goodput {gbps:.2} vs engine limit {rate_limit:.2}"
        );
        // The headline observation of Fig. 5: tiny fraction of the link.
        assert!(gbps < 6.0, "64 B flows must not exceed a few Gbps: {gbps}");
        assert!(
            events <= MAX_EVENTS_PER_COMPLETION * done,
            "{events} events for {done} completions: a wake storm"
        );
    }

    #[test]
    fn batching_posts_in_bursts() {
        let cfg = ClusterConfig::omnet_simulator();
        let mut sim = Sim::new(Fabric::single_switch(cfg, 2, 13));
        sim.add_app(
            0,
            Box::new(Bsg::new(
                BsgConfig::new(1, 256)
                    .with_batch(32)
                    .with_window(64)
                    .with_warmup(SimDuration::ZERO),
            )),
        );
        sim.add_app(1, Box::new(Sink::new()));
        sim.start();
        sim.run_until(SimTime::from_us(500));
        let bsg = sim.app_as::<Bsg>(0);
        assert!(
            bsg.completed() > 100,
            "only {} completions",
            bsg.completed()
        );
    }

    #[test]
    fn pretend_lsg_uses_the_configured_sl() {
        let pretend = PretendLsg::new(1, 256, ServiceLevel::new(1), SimDuration::ZERO);
        assert_eq!(pretend.bsg().cfg.sl, ServiceLevel::new(1));
        assert_eq!(pretend.bsg().cfg.batch, 32);
    }

    #[test]
    #[should_panic(expected = "batch")]
    fn zero_batch_rejected() {
        let _ = BsgConfig::new(1, 64).with_batch(0);
    }
}
