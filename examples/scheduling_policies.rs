//! In-switch packet scheduling: FCFS vs Round-Robin, single- and
//! multi-hop (Figs. 10–11).
//!
//! Uses the `omnet_simulator` device profile (the paper's IB OMNeT++
//! model: no µarch jitter, 32 KB input buffers) to compare the two
//! readily available scheduling policies. RR looks like the fix — until a
//! second switch hop introduces head-of-line blocking on the trunk.
//!
//! Run with: `cargo run --release --example scheduling_policies`

use rperf::scenario::{converged_outcome, specs, ConvergedOutcome};
use rperf::{execute, DeviceProfile, QosMode, ScenarioSpec};
use rperf_model::config::SchedPolicy;
use rperf_sim::SimDuration;

fn main() {
    // Every run on the OMNeT profile, seed 11, an 8 ms window.
    let run = |table: ScenarioSpec| -> ConvergedOutcome {
        let spec = table
            .with_profile(DeviceProfile::OmnetSimulator)
            .with_duration(SimDuration::from_ms(8));
        converged_outcome(&execute(&spec, 11))
    };

    println!("Single hop (5 × 4096 B BSGs + 1 LSG → one destination):");
    println!("  {:<14} {:>10} {:>10}", "policy", "p50 (µs)", "p99.9");
    for (name, policy) in [
        ("FCFS", SchedPolicy::Fcfs),
        ("Round-Robin", SchedPolicy::RoundRobin),
    ] {
        let out = run(specs::converged(5, 4096, 1, true, QosMode::SharedSl).with_policy(policy));
        let lsg = out.lsg.expect("LSG attached").summary;
        println!(
            "  {:<14} {:>10.2} {:>10.2}",
            name,
            lsg.p50_us(),
            lsg.p999_us()
        );
    }

    println!();
    println!("Two hops (2 BSGs + LSG upstream, 3 BSGs downstream):");
    println!("  {:<14} {:>10} {:>10}", "policy", "p50 (µs)", "p99.9");
    for (name, policy) in [
        ("FCFS", SchedPolicy::Fcfs),
        ("Round-Robin", SchedPolicy::RoundRobin),
    ] {
        let out = run(specs::multihop(policy));
        let lsg = out.lsg.expect("LSG attached").summary;
        println!(
            "  {:<14} {:>10.2} {:>10.2}",
            name,
            lsg.p50_us(),
            lsg.p999_us()
        );
    }

    println!();
    println!(
        "Take-aways (paper Section VIII-B): RR bounds the single-hop wait to\n\
         about one packet per contending port, but once the latency flow\n\
         shares the inter-switch trunk it queues in the same input buffer as\n\
         the bulk flows — head-of-line blocking that no output-side policy\n\
         can undo."
    );
}
