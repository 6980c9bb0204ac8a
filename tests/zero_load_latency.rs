//! Cross-crate integration tests: zero-load latency properties
//! (Fig. 4 and the Section VI take-aways).

use rperf::scenario::specs;
use rperf::{execute, RPerfReport};
use rperf_model::analytic::rperf_zero_load_rtt_estimate;
use rperf_model::ClusterConfig;
use rperf_sim::SimDuration;

/// RPerf's one-to-one report over a 2 ms window on the hardware profile.
fn one_to_one_rperf(seed: u64, through_switch: bool, payload: u64) -> RPerfReport {
    let table = specs::one_to_one_rperf(through_switch, payload);
    execute(&table.with_duration(SimDuration::from_ms(2)), seed)
        .rperf(0)
        .expect("rperf on node 0")
        .clone()
}

#[test]
fn back_to_back_rtt_is_well_under_100ns_for_all_payloads() {
    // Paper take-away 1 of Section VI-A.
    for payload in [64u64, 256, 1024, 4096] {
        let report = one_to_one_rperf(1, false, payload);
        assert!(report.iterations > 300);
        let p50 = report.summary.p50_ns();
        assert!(
            p50 < 100.0,
            "back-to-back p50 at {payload} B should be < 100 ns, got {p50:.1}"
        );
    }
}

#[test]
fn payload_size_has_small_effect_on_rtt() {
    // Paper: "the RTT is very low and payload size has a small effect".
    let small = one_to_one_rperf(2, false, 64).summary.p50_ns();
    let large = one_to_one_rperf(2, false, 4096).summary.p50_ns();
    assert!(large > small);
    assert!(
        large - small < 100.0,
        "64→4096 B delta {:.1} ns",
        large - small
    );
}

#[test]
fn switch_rtt_close_to_datasheet_and_tail_heavy() {
    // Paper take-aways of Section VI-B: median ≈ the spec's 400 ns RTT;
    // tail ≈ median + ~45 %.
    let report = one_to_one_rperf(3, true, 64);
    let p50 = report.summary.p50_ns();
    let p999 = report.summary.p999_ns();
    assert!(
        (380.0..520.0).contains(&p50),
        "switch median {p50:.0} ns not near the 400 ns spec RTT"
    );
    let tail_ratio = p999 / p50;
    assert!(
        (1.2..1.9).contains(&tail_ratio),
        "switch tail/median ratio {tail_ratio:.2} outside the paper's ~1.45"
    );
}

#[test]
fn switch_delta_is_roughly_payload_independent() {
    // Cut-through forwarding: the switch adds a near-constant RTT delta
    // (paper: 412 ns at 64 B, 422 ns at 4096 B).
    let mut deltas = Vec::new();
    for payload in [64u64, 1024, 4096] {
        let without = one_to_one_rperf(4, false, payload).summary.p50_ns();
        let with = one_to_one_rperf(4, true, payload).summary.p50_ns();
        deltas.push(with - without);
    }
    let min = deltas.iter().cloned().fold(f64::MAX, f64::min);
    let max = deltas.iter().cloned().fold(0.0, f64::max);
    assert!(
        max - min < 60.0,
        "switch delta should be near-constant across payloads: {deltas:?}"
    );
    assert!((350.0..500.0).contains(&min), "deltas {deltas:?}");
}

#[test]
fn simulation_matches_analytic_oracle_within_noise() {
    for (through, payload) in [(false, 64u64), (false, 4096), (true, 64), (true, 4096)] {
        let est =
            rperf_zero_load_rtt_estimate(&ClusterConfig::hardware(), payload, through).as_ns_f64();
        let got = one_to_one_rperf(5, through, payload).summary.p50_ns();
        assert!(
            (got - est).abs() < 30.0,
            "payload {payload}, switch {through}: simulated {got:.1} ns vs \
             oracle {est:.1} ns"
        );
    }
}

#[test]
fn three_seeds_agree_like_the_papers_three_runs() {
    // The paper reports negligible run-to-run error; our three seeds
    // should agree within a few ns at zero load.
    let p50s: Vec<f64> = [1u64, 2, 3]
        .iter()
        .map(|&s| one_to_one_rperf(s, true, 64).summary.p50_ns())
        .collect();
    let min = p50s.iter().cloned().fold(f64::MAX, f64::min);
    let max = p50s.iter().cloned().fold(0.0, f64::max);
    assert!(max - min < 15.0, "seed spread too wide: {p50s:?}");
}
