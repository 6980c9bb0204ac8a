//! Ablation studies for the design choices DESIGN.md calls out.
//!
//! Each ablation switches one modelled mechanism off (or sweeps it) and
//! shows which published observation disappears — evidence that the model
//! attributes effects to the right causes. Ablations 1–3 run the paper's
//! spec tables on a mutated hardware configuration; ablation 4 sweeps one
//! node's WQE-engine speed, which the scenario IR does not express, so it
//! builds its fabric by hand.
//!
//! Usage: `cargo run --release -p rperf-bench --bin ablations [--quick]`

#![forbid(unsafe_code)]

use rperf::scenario::{converged_outcome, specs};
use rperf::{execute_with_config, QosMode, ScenarioOutcome, ScenarioSpec};
use rperf_bench::Effort;
use rperf_model::ClusterConfig;
use rperf_sim::SimDuration;

/// Runs `table` on `cfg` with seed 1, over a `base_ms` window scaled by
/// the effort.
fn run(effort: &Effort, table: ScenarioSpec, cfg: ClusterConfig, base_ms: f64) -> ScenarioOutcome {
    execute_with_config(&table.with_duration(effort.window(base_ms)), cfg, 1)
}

/// `n_bsgs` shared-SL 4096 B BSGs into one destination, with or
/// without the LSG.
fn shared(n_bsgs: usize, with_lsg: bool) -> ScenarioSpec {
    specs::converged(n_bsgs, 4096, 1, with_lsg, QosMode::SharedSl)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    rperf_bench::reject_unknown_flags(&args, &[]);
    let effort = Effort::from_args(&args);

    println!("# Ablations\n");

    // 1. Switch µarch jitter → the zero-load tail of Fig. 4.
    {
        let with = ClusterConfig::hardware();
        let mut without = ClusterConfig::hardware();
        without.switch.jitter = None;
        let rtt = |cfg| {
            run(&effort, specs::one_to_one_rperf(true, 64), cfg, 8.0)
                .rperf(0)
                .expect("rperf on node 0")
                .summary
        };
        let (s_with, s_without) = (rtt(with), rtt(without));
        println!("## Switch µarch jitter (zero-load tail)\n");
        println!("| jitter | p50 (ns) | p99.9 (ns) | tail − median |");
        println!("|---|---|---|---|");
        for (name, s) in [("on", &s_with), ("off", &s_without)] {
            println!(
                "| {name} | {:.0} | {:.0} | {:.0} |",
                s.p50_ns(),
                s.p999_ns(),
                s.p999_ns() - s.p50_ns()
            );
        }
        println!("\nWithout the jitter model the switch shows the simulator's");
        println!("flat distribution — the paper's ~200 ns hardware tail is a");
        println!("µarch property, not a queueing one.\n");
    }

    // 2. Arbitration scan cost → the Fig. 7b bandwidth droop.
    {
        println!("## Arbitration scan cost (converged bandwidth droop)\n");
        println!("| scan/port | total Gbps @1 BSG | @5 BSGs | droop |");
        println!("|---|---|---|---|");
        for scan_ns in [0u64, 10, 20] {
            let mut cfg = ClusterConfig::hardware();
            cfg.switch.arb_scan_per_port = SimDuration::from_ns(scan_ns);
            let one = converged_outcome(&run(&effort, shared(1, false), cfg.clone(), 20.0));
            let five = converged_outcome(&run(&effort, shared(5, false), cfg, 20.0));
            println!(
                "| {scan_ns} ns | {:.1} | {:.1} | {:.1} |",
                one.total_gbps,
                five.total_gbps,
                one.total_gbps - five.total_gbps
            );
        }
        println!("\nThe droop scales with the per-port scan cost; with a free");
        println!("arbiter the total is flat in the number of sources.\n");
    }

    // 3. Input-buffer size → Eq. 2's slope.
    {
        println!("## Input-buffer size (Eq. 2: W_t = N·Buf/BW)\n");
        println!("| buffer | LSG p50 @5 BSGs (µs) | predicted N·Buf/BW + base (µs) |");
        println!("|---|---|---|");
        for kib in [16u64, 32, 64] {
            let mut cfg = ClusterConfig::hardware();
            cfg.switch.input_buffer_bytes = kib * 1024;
            let rate = cfg.link.data_rate();
            let out = converged_outcome(&run(&effort, shared(5, true), cfg, 30.0));
            let w = rperf_model::analytic::fcfs_waiting_time(5, kib * 1024, rate);
            println!(
                "| {kib} KiB | {:.1} | {:.1} |",
                out.lsg.unwrap().summary.p50_us(),
                w.as_us_f64() + 0.43
            );
        }
        println!("\nThe LSG's latency tracks the credit advertisement linearly,");
        println!("as Eq. 2 predicts — the mechanism behind Figs. 7a/8/10.\n");
    }

    // 4. Pretender posting rate → the gaming attack threshold.
    {
        println!("## Pretender posting rate (gaming attack threshold)\n");
        println!("| WQE engine | pretend demand | real-LSG p50 (µs) | pretend Gbps |");
        println!("|---|---|---|---|");
        // The high-priority lane has finite arbitration capacity (the
        // Limit-of-High-Priority alternation). A pretender below that
        // capacity steals bandwidth but leaves the real LSG intact; once
        // its posting rate crosses the lane capacity, the lane backlogs
        // and the real LSG pays double-digit microseconds.
        for engine_ns in [110u64, 80, 65, 50] {
            let (lsg_us, gbps) = converged_with_pretend_engine(&effort, engine_ns);
            let demand = 256.0 * 8.0 / (engine_ns + 25) as f64; // Gbps
            println!("| {engine_ns} ns | {demand:.1} Gbps | {lsg_us:.1} | {gbps:.1} |");
        }
        println!("\nThe attack has a threshold: the real LSG is only harmed");
        println!("once the pretender saturates the latency lane's arbitration");
        println!("share — below that, QoS still protects it (at the cost of");
        println!("bandwidth fairness, which degrades immediately).\n");
    }
}

/// Runs the gaming scenario with a given pretender WQE-engine speed;
/// returns (real LSG p50 µs, pretend goodput Gbps).
fn converged_with_pretend_engine(effort: &Effort, engine_ns: u64) -> (f64, f64) {
    use rperf::{RPerf, RPerfConfig};
    use rperf_fabric::{FabricBuilder, Sim, Topology};
    use rperf_model::ServiceLevel;
    use rperf_workloads::{Bsg, BsgConfig, Sink};

    let cfg = ClusterConfig::hardware().with_dedicated_sl();
    let warmup = SimDuration::from_us(200);
    let duration = effort.window(30.0);
    let mut hot = cfg.rnic.clone();
    hot.wqe_engine = SimDuration::from_ns(engine_ns);
    let fabric = FabricBuilder::new(cfg, 1)
        .with_rnic_override(4, hot)
        .build(&Topology::SingleSwitch { hosts: 7 });
    let mut sim = Sim::new(fabric);
    for b in 0..4 {
        sim.add_app(
            b,
            Box::new(Bsg::new(BsgConfig::new(6, 4096).with_warmup(warmup))),
        );
    }
    // The pretender: 256 B on the latency SL with the swept burst size.
    sim.add_app(
        4,
        Box::new(Bsg::new(
            BsgConfig::new(6, 256)
                .with_sl(ServiceLevel::new(1))
                .with_batch(32)
                .with_window(512)
                .with_warmup(warmup),
        )),
    );
    sim.add_app(
        5,
        Box::new(RPerf::new(
            RPerfConfig::new(6)
                .with_sl(ServiceLevel::new(1))
                .with_warmup(warmup),
        )),
    );
    sim.add_app(6, Box::new(Sink::new()));
    sim.start();
    let end = rperf_sim::SimTime::ZERO + warmup + duration;
    sim.run_until(end);
    let lsg = sim.app_as::<RPerf>(5).report().summary.p50_us();
    let pretend = sim.app_as::<Bsg>(4).gbps_until(end.as_ps());
    (lsg, pretend)
}
