//! Extension experiments beyond the paper: the proportionally fair
//! scheduler the paper sketches but could not test.
//!
//! Section VIII-B: "We consider a policy to be fair if the time each flow
//! spends in the switch is proportional to the size of the flow." The
//! paper's switch offers only FCFS and RR; `SchedPolicy::FairShare`
//! implements the sketched policy as byte-deficit fairness across ingress
//! ports. This binary reruns Figs. 10 and 11 with all three policies.
//! Every experiment is a spec table run on the OMNeT profile.
//!
//! Usage: `cargo run --release -p rperf-bench --bin extensions [--quick]`

#![forbid(unsafe_code)]

use rperf::scenario::{converged_outcome, specs};
use rperf::{execute, DeviceProfile, QosMode, Role, ScenarioOutcome, ScenarioSpec, SlSpec};
use rperf_bench::Effort;
use rperf_fabric::Topology;
use rperf_model::config::SchedPolicy;

const POLICIES: [(&str, SchedPolicy); 3] = [
    ("FCFS", SchedPolicy::Fcfs),
    ("RR", SchedPolicy::RoundRobin),
    ("FairShare", SchedPolicy::FairShare),
];

/// Runs `table` on the OMNeT profile with `seed`, over a `base_ms`
/// window scaled by the effort.
fn run(effort: &Effort, table: ScenarioSpec, base_ms: f64, seed: u64) -> ScenarioOutcome {
    let spec = table
        .with_profile(DeviceProfile::OmnetSimulator)
        .with_duration(effort.window(base_ms));
    execute(&spec, seed)
}

/// Asymmetric bulk demand on one switch: two 4096 B flows (nodes 0, 1)
/// and one 512 B flow batched by 8 (node 2) into node 3.
fn asymmetric_bulk() -> ScenarioSpec {
    let bsg = |payload, batch| Role::Bsg {
        target: 3,
        payload,
        window: 128,
        batch,
        sl: SlSpec::Auto,
    };
    ScenarioSpec::new("asymmetric-bulk", Topology::SingleSwitch { hosts: 4 })
        .with_role(0, bsg(4096, 1))
        .with_role(1, bsg(4096, 1))
        .with_role(2, bsg(512, 8))
        .with_role(3, Role::Sink)
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let effort = Effort::from_args(&args);

    println!("# Extension: proportionally fair packet scheduling\n");

    println!("## Single hop — Fig. 10 with a third policy (LSG RTT, µs)\n");
    println!("| BSGs | FCFS p50 | RR p50 | FairShare p50 |");
    println!("|---|---|---|---|");
    for n in 0..=5usize {
        let mut row = format!("| {n} |");
        for (_, policy) in POLICIES {
            let p50 = effort.average(|seed| {
                let table =
                    specs::converged(n, 4096, 1, true, QosMode::SharedSl).with_policy(policy);
                converged_outcome(&run(&effort, table, 30.0, seed))
                    .lsg
                    .expect("LSG present")
                    .summary
                    .p50_us()
            });
            row.push_str(&format!(" {p50:.2} |"));
        }
        println!("{row}");
    }
    println!();
    println!(
        "FairShare serves the byte-starved LSG port first, so the probe\n\
         waits only for the in-flight packet — tighter than RR's one-per-\n\
         port bound, exactly the proportional-fairness the paper sketches.\n"
    );

    println!("## Two hops — Fig. 11 with a third policy (LSG RTT, µs)\n");
    println!("| policy | p50 | p99.9 |");
    println!("|---|---|---|");
    for (name, policy) in POLICIES {
        let mut p50_sum = 0.0;
        let mut p999_sum = 0.0;
        for &seed in &effort.seeds {
            let out = converged_outcome(&run(&effort, specs::multihop(policy), 30.0, seed));
            let lsg = out.lsg.expect("LSG present").summary;
            p50_sum += lsg.p50_us();
            p999_sum += lsg.p999_us();
        }
        let k = effort.seeds.len() as f64;
        println!("| {name} | {:.2} | {:.2} |", p50_sum / k, p999_sum / k);
    }
    println!();
    println!(
        "No output-side policy survives the trunk: once the latency flow\n\
         shares an input FIFO with bulk flows, fairness at the arbiter is\n\
         irrelevant — the packets ahead of it are already committed. The\n\
         paper's conclusion stands: isolation needs per-class lanes\n\
         (SL/VL), not smarter scheduling.\n"
    );

    println!("## Bandwidth fairness under asymmetric demand (extension)\n");
    // Two 4096 B bulk flows vs one 512 B bulk flow: FairShare should give
    // byte-equal shares; RR gives packet-equal shares (biased by size).
    println!("| policy | 4096 B flow | 4096 B flow | 512 B flow |");
    println!("|---|---|---|---|");
    for (name, policy) in POLICIES {
        let table = asymmetric_bulk().with_policy(policy);
        let out = run(&effort, table, 30.0, effort.seeds[0]);
        let g: Vec<f64> = (0..3)
            .map(|n| out.gbps(n).expect("bsg on nodes 0-2"))
            .collect();
        println!("| {name} | {:.1} | {:.1} | {:.1} |", g[0], g[1], g[2]);
    }
    println!();
    println!(
        "RR equalizes packet slots, so the 512 B flow gets an eighth of a\n\
         4096 B flow's bytes; FairShare equalizes bytes across ports."
    );

    println!("\n## Latency vs hop count (switch-chain extension)\n");
    println!("| switches in path | zero-load p50 (µs) | p50 with 3 tail BSGs (µs) |");
    println!("|---|---|---|");
    for n_switches in 1..=4usize {
        let chain_p50 = |bsgs_at_tail, base_ms, seed| {
            let table = specs::chain_latency(n_switches, bsgs_at_tail);
            run(&effort, table, base_ms, seed)
                .rperf(0)
                .expect("rperf on node 0")
                .summary
                .p50_us()
        };
        let quiet = effort.average(|seed| chain_p50(0, 10.0, seed));
        let loaded = effort.average(|seed| chain_p50(3, 20.0, seed));
        println!("| {n_switches} | {quiet:.2} | {loaded:.2} |");
    }
    println!();
    println!(
        "Each switch adds ~0.4 µs of pipeline RTT at zero load, but once\n\
         the destination is congested the path length is noise: the last\n\
         hop's buffers dominate end-to-end latency."
    );
}
