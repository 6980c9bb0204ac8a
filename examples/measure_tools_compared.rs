//! Why RPerf exists: the same fabric measured by three tools
//! (Figs. 4 and 6 side by side).
//!
//! Runs RPerf, a perftest-style software ping-pong, and a qperf-style
//! post-poll WRITE against an identical two-host rack, at 64 B and 4096 B.
//! The baselines report microseconds where the switch itself costs
//! nanoseconds — each for a different structural reason.
//!
//! Run with: `cargo run --release --example measure_tools_compared`

use rperf::scenario::specs;
use rperf::{execute, ScenarioSpec};
use rperf_sim::SimDuration;

fn main() {
    // Every tool on the hardware profile, seed 5, a 5 ms window.
    let run = |table: ScenarioSpec| execute(&table.with_duration(SimDuration::from_ms(5)), 5);

    println!(
        "{:<10} {:>16} {:>16} {:>16}",
        "payload", "RPerf p50", "Perftest p50", "QPerf avg"
    );
    for payload in [64u64, 4096] {
        let rp = run(specs::one_to_one_rperf(true, payload))
            .rperf(0)
            .expect("rperf on node 0")
            .summary;
        let pf = *run(specs::one_to_one_perftest(payload))
            .latency(0)
            .expect("perftest client on node 0");
        let qp = *run(specs::one_to_one_qperf(payload))
            .qperf(0)
            .expect("qperf client on node 0");
        println!(
            "{:<10} {:>13.3} µs {:>13.3} µs {:>13.3} µs",
            format!("{payload} B"),
            rp.p50_us(),
            pf.p50_us(),
            qp.avg_us
        );
    }
    println!();
    println!(
        "Why they differ (paper Section III):\n\
         * Perftest's pong is generated in software, so the measurement\n\
           includes remote-side software and both hosts' PCIe transactions.\n\
         * QPerf removes the remote software but its WRITE is acknowledged\n\
           only after the remote payload DMA, and its timestamping is heavy.\n\
         * RPerf's RC SEND is ACKed by the remote NIC before any remote\n\
           PCIe work, and the paired loopback SEND measures — and cancels —\n\
           every local-side cost (Eq. 1: RTT = T_W − T_L)."
    );
}
