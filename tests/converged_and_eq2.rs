//! Cross-crate integration tests: converged traffic and Eq. 2
//! (Sections VII and VIII-B).

use rperf::scenario::{converged_outcome, specs, ConvergedOutcome};
use rperf::{execute, DeviceProfile, QosMode, ScenarioSpec};
use rperf_model::analytic::fcfs_waiting_time;
use rperf_model::config::SchedPolicy;
use rperf_model::ClusterConfig;
use rperf_sim::SimDuration;

const OMNET: DeviceProfile = DeviceProfile::OmnetSimulator;

/// `n_bsgs` shared-SL 4096 B BSGs into one destination, with or
/// without the LSG.
fn table(n_bsgs: usize, with_lsg: bool) -> ScenarioSpec {
    specs::converged(n_bsgs, 4096, 1, with_lsg, QosMode::SharedSl)
}

/// Runs `table` over a 6 ms window.
fn run(table: ScenarioSpec, seed: u64) -> ConvergedOutcome {
    converged_outcome(&execute(
        &table.with_duration(SimDuration::from_ms(6)),
        seed,
    ))
}

#[test]
fn lsg_latency_grows_linearly_with_bsgs() {
    // Paper Fig. 7a: each added BSG costs the LSG another input buffer's
    // worth of FCFS waiting.
    let mut p50s = Vec::new();
    for n in 0..=5usize {
        let out = run(table(n, true), 1);
        p50s.push(out.lsg.unwrap().summary.p50_us());
    }
    // Zero-load baseline is sub-microsecond.
    assert!(p50s[0] < 1.0, "baseline {:.2} µs", p50s[0]);
    // One BSG cannot saturate its own link's worth of egress: still fast.
    assert!(p50s[1] < 2.0, "1 BSG should barely hurt: {:.2} µs", p50s[1]);
    // From 2 on: one buffer per BSG, within the paper's 4.8–6.1 µs band.
    for n in 3..=5 {
        let delta = p50s[n] - p50s[n - 1];
        assert!(
            (3.5..7.5).contains(&delta),
            "per-BSG increment at n={n} is {delta:.2} µs (series {p50s:?})"
        );
    }
    assert!(
        (18.0..32.0).contains(&p50s[5]),
        "5-BSG latency {:.1} µs outside the paper's magnitude",
        p50s[5]
    );
}

#[test]
fn eq2_predicts_the_waiting_slope() {
    // The measured per-BSG increment should match Eq. 2 with the
    // configured buffer size.
    let cfg = ClusterConfig::hardware();
    let tau = fcfs_waiting_time(1, cfg.switch.input_buffer_bytes, cfg.link.data_rate());
    let two = run(table(2, true), 2);
    let four = run(table(4, true), 2);
    let slope = (four.lsg.unwrap().summary.p50_us() - two.lsg.unwrap().summary.p50_us()) / 2.0;
    let predicted = tau.as_us_f64();
    assert!(
        (slope - predicted).abs() / predicted < 0.25,
        "measured slope {slope:.2} µs/BSG vs Eq. 2's {predicted:.2}"
    );
}

#[test]
fn total_bandwidth_stays_high_but_droops() {
    // Paper Fig. 7b: 52.2 → 48.4 Gbps from 1 → 5 BSGs.
    let one = run(table(1, false), 3);
    let five = run(table(5, false), 3);
    assert!(one.total_gbps > 50.0, "1 BSG total {:.1}", one.total_gbps);
    assert!(five.total_gbps > 45.0, "5 BSG total {:.1}", five.total_gbps);
    assert!(
        one.total_gbps - five.total_gbps > 1.0,
        "converging flows should droop aggregate bandwidth: {:.1} vs {:.1}",
        one.total_gbps,
        five.total_gbps
    );
}

#[test]
fn bandwidth_is_shared_fairly_among_equals() {
    let out = run(table(5, false), 4);
    let min = out.per_bsg_gbps.iter().cloned().fold(f64::MAX, f64::min);
    let max = out.per_bsg_gbps.iter().cloned().fold(0.0, f64::max);
    assert!(
        max / min < 1.15,
        "equal flows should share equally: {:?}",
        out.per_bsg_gbps
    );
}

#[test]
fn simulator_profile_fcfs_matches_hardware_trend() {
    // Paper Section VIII-B: "With the FCFS policy, the simulator …
    // behaves similar to the real switch."
    let hw = run(table(5, true), 5);
    let sim = run(table(5, true).with_profile(OMNET), 5);
    let hw_p50 = hw.lsg.unwrap().summary.p50_us();
    let sim_p50 = sim.lsg.unwrap().summary.p50_us();
    // Same mechanism, slightly smaller buffers in the simulator profile.
    assert!(
        (sim_p50 - hw_p50).abs() / hw_p50 < 0.35,
        "hardware {hw_p50:.1} µs vs simulator {sim_p50:.1} µs"
    );
}

#[test]
fn simulator_profile_has_no_tail() {
    // Paper: "unlike the real switch, simulator does not introduce
    // significant tail RTT" (no µarch model).
    let sim = run(table(5, true).with_profile(OMNET), 6);
    let s = sim.lsg.unwrap().summary;
    let spread = s.p999_us() - s.p50_us();
    assert!(
        spread < 1.0,
        "simulator profile spread should be ~0.1 µs, got {spread:.2}"
    );

    let hw = run(table(0, true), 6);
    let s = hw.lsg.unwrap().summary;
    assert!(
        s.p999_us() - s.p50_us() > 0.1,
        "hardware profile must show a zero-load tail"
    );
}

#[test]
fn round_robin_protects_single_hop_latency() {
    // Paper Fig. 10: RR bounds the LSG's wait to ~one packet per port.
    let omnet = || table(5, true).with_profile(OMNET);
    let fcfs = run(omnet().with_policy(SchedPolicy::Fcfs), 7);
    let rr = run(omnet().with_policy(SchedPolicy::RoundRobin), 7);
    let fcfs_p50 = fcfs.lsg.unwrap().summary.p50_us();
    let rr_p50 = rr.lsg.unwrap().summary.p50_us();
    assert!(
        fcfs_p50 / rr_p50 > 4.0,
        "RR should slash converged latency: FCFS {fcfs_p50:.1} vs RR {rr_p50:.1}"
    );
    assert!(rr_p50 < 4.0, "RR latency {rr_p50:.1} µs (paper: ~2.5)");
}
