//! Converged traffic: the paper's headline result (Fig. 7).
//!
//! A rack where bulk flows and a latency-sensitive flow share one
//! destination. Sweeps the number of 4096-byte bandwidth generators from
//! 0 to 5 and prints what happens to the latency-sensitive flow and to
//! aggregate throughput: you can have latency or bandwidth — not both.
//!
//! Run with: `cargo run --release --example converged_traffic`

use rperf::scenario::{converged_outcome, specs};
use rperf::{execute, QosMode};
use rperf_sim::SimDuration;

fn main() {
    println!("| BSGs | LSG p50 (µs) | LSG p99.9 (µs) | total BSG Gbps |");
    println!("|------|--------------|----------------|----------------|");
    let mut previous_p50 = None;
    for n_bsgs in 0..=5 {
        let table = specs::converged(n_bsgs, 4096, 1, true, QosMode::SharedSl)
            .with_duration(SimDuration::from_ms(8));
        let out = converged_outcome(&execute(&table, 7));
        let lsg = out.lsg.expect("LSG attached").summary;
        println!(
            "| {n_bsgs}    | {:12.2} | {:14.2} | {:14.1} |",
            lsg.p50_us(),
            lsg.p999_us(),
            out.total_gbps
        );
        if let Some(prev) = previous_p50 {
            let delta: f64 = lsg.p50_us() - prev;
            if delta > 2.0 {
                // Eq. 2 of the paper: one more full input buffer ahead of
                // every latency-sensitive packet.
                eprintln!(
                    "  (+{delta:.1} µs — FCFS makes the LSG wait behind \
                     another full input buffer)"
                );
            }
        }
        previous_p50 = Some(lsg.p50_us());
    }
    println!();
    println!(
        "Take-away (paper Section VII): LSG latency grows ~linearly with\n\
         the number of bandwidth flows while their aggregate bandwidth\n\
         stays high — the switch provides no latency isolation."
    );
}
