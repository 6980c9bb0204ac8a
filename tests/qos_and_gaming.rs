//! Cross-crate integration tests: QoS isolation and the gaming attack
//! (Section VIII-C), multi-hop head-of-line blocking (Section VIII-B),
//! and measurement-tool bias ordering (Sections III/IV).

use rperf::scenario::{converged_outcome, specs, ConvergedOutcome};
use rperf::{execute, DeviceProfile, QosMode, ScenarioOutcome, ScenarioSpec};
use rperf_model::config::SchedPolicy;
use rperf_sim::SimDuration;

/// Runs `table` over a 6 ms window.
fn run(table: ScenarioSpec, seed: u64) -> ScenarioOutcome {
    execute(&table.with_duration(SimDuration::from_ms(6)), seed)
}

/// `n_bsgs` 4096 B BSGs plus the LSG into one destination under `qos`,
/// on the hardware profile.
fn converged(n_bsgs: usize, qos: QosMode, seed: u64) -> ConvergedOutcome {
    converged_outcome(&run(specs::converged(n_bsgs, 4096, 1, true, qos), seed))
}

/// The multi-hop setup of Fig. 11 on the OMNeT profile.
fn multihop(policy: SchedPolicy, seed: u64) -> ConvergedOutcome {
    let table = specs::multihop(policy).with_profile(DeviceProfile::OmnetSimulator);
    converged_outcome(&run(table, seed))
}

#[test]
fn dedicated_sl_restores_latency_without_bandwidth_cost() {
    // Paper Fig. 12: 20.2 µs shared → 0.7 µs dedicated (~29×), with
    // unchanged aggregate bandwidth.
    let shared = converged(5, QosMode::SharedSl, 1);
    let dedicated = converged(5, QosMode::DedicatedSl, 1);
    let shared_p50 = shared.lsg.unwrap().summary.p50_us();
    let ded = dedicated.lsg.unwrap();
    assert!(
        shared_p50 / ded.summary.p50_us() > 10.0,
        "isolation factor too small: {shared_p50:.1} vs {:.2}",
        ded.summary.p50_us()
    );
    assert!(
        ded.summary.p50_us() < 1.5,
        "dedicated-SL latency should be near baseline: {:.2} µs",
        ded.summary.p50_us()
    );
    assert!(
        (dedicated.total_gbps - shared.total_gbps).abs() / shared.total_gbps < 0.1,
        "QoS must not cost bandwidth: {:.1} vs {:.1}",
        dedicated.total_gbps,
        shared.total_gbps
    );
}

#[test]
fn pretend_lsg_hurts_the_real_lsg_and_grabs_bandwidth() {
    // Paper Fig. 12 (last bar) and Fig. 13.
    let gamed = converged(4, QosMode::DedicatedSlWithPretend, 2);
    let honest = converged(5, QosMode::DedicatedSl, 2);
    let gamed_lsg = gamed.lsg.unwrap().summary.p50_us();
    let honest_lsg = honest.lsg.unwrap().summary.p50_us();
    assert!(
        gamed_lsg > honest_lsg * 5.0,
        "the pretender must hurt the real LSG: {gamed_lsg:.1} vs {honest_lsg:.2} µs"
    );

    let pretend = gamed.pretend_gbps.expect("gaming run");
    let honest_share = gamed.per_bsg_gbps.iter().sum::<f64>() / gamed.per_bsg_gbps.len() as f64;
    let ratio = pretend / honest_share;
    assert!(
        (2.0..5.0).contains(&ratio),
        "paper: ~3× an honest share; got {ratio:.1}× ({pretend:.1} vs {honest_share:.1})"
    );
}

#[test]
fn gamed_total_bandwidth_is_comparable_to_shared() {
    // Paper Fig. 13: totals 48.7 (gamed) vs 48.4 (shared).
    let gamed = converged(4, QosMode::DedicatedSlWithPretend, 3);
    let shared = converged(5, QosMode::SharedSl, 3);
    assert!(
        (gamed.total_gbps - shared.total_gbps).abs() / shared.total_gbps < 0.15,
        "totals should be comparable: {:.1} vs {:.1}",
        gamed.total_gbps,
        shared.total_gbps
    );
}

#[test]
fn rr_fails_to_isolate_across_two_hops() {
    // Paper Fig. 11: multi-hop RR is an order of magnitude worse than
    // single-hop RR — head-of-line blocking on the trunk.
    let single_rr = specs::converged(5, 4096, 1, true, QosMode::SharedSl)
        .with_profile(DeviceProfile::OmnetSimulator)
        .with_policy(SchedPolicy::RoundRobin);
    let single_rr = converged_outcome(&run(single_rr, 4));
    let multi_rr = multihop(SchedPolicy::RoundRobin, 4);
    let single = single_rr.lsg.unwrap().summary.p50_us();
    let multi = multi_rr.lsg.unwrap().summary.p50_us();
    assert!(
        multi > single * 4.0,
        "two hops must defeat RR: single {single:.1} µs vs multi {multi:.1} µs"
    );
    assert!(
        (10.0..30.0).contains(&multi),
        "multi-hop RR latency {multi:.1} µs outside the paper's magnitude"
    );
}

#[test]
fn multihop_fcfs_is_at_least_as_bad_as_rr() {
    let fcfs = multihop(SchedPolicy::Fcfs, 5);
    let rr = multihop(SchedPolicy::RoundRobin, 5);
    let f = fcfs.lsg.unwrap().summary.p50_us();
    let r = rr.lsg.unwrap().summary.p50_us();
    assert!(f >= r * 0.9, "FCFS {f:.1} µs vs RR {r:.1} µs");
}

#[test]
fn tool_bias_ordering_matches_the_paper() {
    // Section III/IV: RPerf ≪ Perftest and QPerf; QPerf's WRITE pays the
    // remote DMA that RPerf's SEND does not.
    for payload in [64u64, 4096] {
        let rp = run(specs::one_to_one_rperf(true, payload), 6)
            .rperf(0)
            .expect("rperf on node 0")
            .summary
            .p50_us();
        let pf = run(specs::one_to_one_perftest(payload), 6)
            .latency(0)
            .expect("perftest client on node 0")
            .p50_us();
        let qp = run(specs::one_to_one_qperf(payload), 6)
            .qperf(0)
            .expect("qperf client on node 0")
            .avg_us;
        assert!(
            pf > rp * 3.0,
            "{payload} B: perftest {pf:.2} µs must dwarf RPerf {rp:.2} µs"
        );
        assert!(
            qp > rp * 3.0,
            "{payload} B: qperf {qp:.2} µs must dwarf RPerf {rp:.2} µs"
        );
    }
}

#[test]
fn deterministic_across_identical_runs() {
    let a = converged(3, QosMode::SharedSl, 9);
    let b = converged(3, QosMode::SharedSl, 9);
    assert_eq!(
        a.lsg.unwrap().summary.p50_ps,
        b.lsg.unwrap().summary.p50_ps,
        "identical seeds must give identical distributions"
    );
    assert_eq!(a.per_bsg_gbps, b.per_bsg_gbps);
}
