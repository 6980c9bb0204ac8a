//! Fixed inputs that once broke the engine, and the committed example
//! scenarios, pinned by the FNV-1a-64 digest of their outcome JSON
//! (`ScenarioOutcome::to_json`), the way `routing_digest.rs` pins
//! routes: a change that moves any event of these runs shows here.

use rperf::scenario::specs;
use rperf::{execute, QosMode, Role, ScenarioSpec, SlSpec};
use rperf_fabric::Topology;
use rperf_sim::SimDuration;
use rperf_subnet::FatTreeParams;

fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Asserts the outcome JSON's digest.
fn assert_digest(name: &str, json: &str, digest: u64) {
    assert_eq!(
        fnv1a_64(json.as_bytes()),
        digest,
        "{name}: outcome digest {:016x} for {json}",
        fnv1a_64(json.as_bytes())
    );
}

/// A fixed input that once diverged: five 64 B BSGs posting in batches
/// of 16 against an RPerf LSG. Its same-instant ties (wakes, credits and
/// packets emitted by different devices in one picosecond) are where an
/// engine that popped ties in insertion order and one that popped them
/// by emission key disagreed.
#[test]
fn batched_small_payload_incast_is_pinned() {
    let spec = specs::converged(5, 64, 16, true, QosMode::SharedSl)
        .with_window(SimDuration::from_us(10), SimDuration::from_us(20));
    let json = execute(&spec, 1).to_json();
    assert_digest("batched incast", &json, 0x244f_e2df_d7d6_ba81);
}

/// One RNIC emitting 4096 events in one instant: a BSG with a window of
/// 128 messages of 128 KiB queues 32 packets per message, and a wake for
/// each, at t = 0. Every emission needs its own ordering key.
#[test]
fn four_thousand_packet_burst_runs_and_is_pinned() {
    let bsg = Role::Bsg {
        target: 1,
        payload: 128 << 10,
        window: 128,
        batch: 1,
        sl: SlSpec::Auto,
    };
    let spec = ScenarioSpec::new("burst", Topology::SingleSwitch { hosts: 2 })
        .with_role(0, bsg)
        .with_role(1, Role::Sink)
        .with_window(SimDuration::ZERO, SimDuration::from_us(100));
    spec.validate().expect("the burst spec is valid");
    let json = execute(&spec, 1).to_json();
    assert!(!json.contains("\"recvs\":0"), "no message arrived: {json}");
    assert_digest("burst", &json, 0x3f51_a0eb_7fc0_7480);
}

/// A fat tree of more than 4096 devices (k = 24, three tiers: 3456
/// hosts and 720 switches) validates and runs.
#[test]
fn fat_tree_beyond_4096_devices_runs_and_is_pinned() {
    let topology = Topology::FatTree(FatTreeParams::new(24, 3, 1));
    let hosts = topology.hosts();
    let spec = ScenarioSpec::new("big_clos", topology)
        .with_role(
            0,
            Role::Lsg {
                target: hosts - 1,
                payload: 64,
                sl: SlSpec::Auto,
            },
        )
        .with_role(hosts - 1, Role::Sink)
        .with_window(SimDuration::from_us(1), SimDuration::from_us(10));
    assert_eq!(hosts + spec.topology.switches(), 4176);
    spec.validate().expect("a k = 24 fat tree is valid");
    let json = execute(&spec, 1).to_json();
    assert!(!json.contains("\"count\":0"), "no probe completed: {json}");
    assert_digest("big_clos", &json, 0x87fc_cdcb_7aef_d09b);
}

/// The committed example scenario files — every spec feature users see in
/// `examples/scenarios/` — end to end. The measurement window is
/// shortened so the incast congestion still builds up without turning
/// the test into a benchmark.
#[test]
fn example_scenarios_are_pinned() {
    for (name, digest) in [
        ("incast_8.scn", 0x5ef6_b582_622a_aae2),
        ("chain_gaming.scn", 0xbb47_8b09_28fc_b17f),
    ] {
        let path = format!(
            "{}/../../examples/scenarios/{name}",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let spec = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("parsing {path}: {e}"))
            .with_window(SimDuration::from_us(50), SimDuration::from_us(300));
        assert_digest(name, &execute(&spec, 1).to_json(), digest);
    }
}
