//! InfiniBand QoS: dedicated service levels protect latency — until
//! someone games them (Figs. 12–13).
//!
//! Runs the four setups of the paper's Section VIII-C:
//!   1. no bulk traffic (baseline),
//!   2. everything sharing SL0/VL0,
//!   3. the latency flow on a dedicated high-priority SL1/VL1,
//!   4. the same, plus a bandwidth hog *pretending* to be latency-
//!      sensitive by bursting small messages on SL1.
//!
//! Run with: `cargo run --release --example qos_isolation`

use rperf::scenario::{converged_outcome, specs};
use rperf::{execute, QosMode};
use rperf_sim::SimDuration;

fn main() {
    let setups: [(&str, usize, QosMode); 4] = [
        ("no BSGs (baseline)", 0, QosMode::SharedSl),
        ("shared SL", 5, QosMode::SharedSl),
        ("dedicated SL", 5, QosMode::DedicatedSl),
        (
            "dedicated SL + pretend LSG",
            4,
            QosMode::DedicatedSlWithPretend,
        ),
    ];

    println!(
        "{:<28} {:>10} {:>10} {:>12}",
        "setup", "p50 (µs)", "p99.9", "total Gbps"
    );
    for (name, bsgs, qos) in setups {
        let table =
            specs::converged(bsgs, 4096, 1, true, qos).with_duration(SimDuration::from_ms(8));
        let out = converged_outcome(&execute(&table, 3));
        let lsg = out.lsg.expect("LSG attached").summary;
        println!(
            "{:<28} {:>10.2} {:>10.2} {:>12.1}",
            name,
            lsg.p50_us(),
            lsg.p999_us(),
            out.total_gbps
        );
        if let Some(pretend) = out.pretend_gbps {
            let honest_avg: f64 =
                out.per_bsg_gbps.iter().sum::<f64>() / out.per_bsg_gbps.len() as f64;
            println!(
                "{:<28} pretender gets {pretend:.1} Gbps vs {honest_avg:.1} per honest \
                 BSG ({:.1}× an honest share)",
                "",
                pretend / honest_avg
            );
        }
    }
    println!();
    println!(
        "Take-aways (paper Section VIII-C): a dedicated SL/VL restores the\n\
         latency flow to near-baseline without costing bulk bandwidth — but\n\
         a flow that mislabels itself latency-sensitive both hurts the real\n\
         latency flow and grabs ~3× an honest bandwidth share."
    );
}
