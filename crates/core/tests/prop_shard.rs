//! Differential property test for sharded execution: for *any* valid
//! scenario the generator can produce — random topology, role matrix,
//! device profile, scheduling policy, QoS mode, and measurement window —
//! executing on a partitioned fabric must reproduce the one-shard run
//! byte for byte (`ScenarioOutcome::to_json`), for every shard count.
//! Sharding is an execution strategy, not part of scenario identity;
//! this is the contract that lets the CLI, the bench harness, and
//! rperf-serve pick `shards` freely without invalidating results.

use proptest::prelude::*;
use rperf::scenario::specs;
use rperf::{execute, DeviceProfile, QosMode, Role, ScenarioSpec, SlSpec};
use rperf_fabric::Topology;
use rperf_model::config::SchedPolicy;
use rperf_sim::SimDuration;
use rperf_subnet::{FatTreeParams, TopologySpec};

/// splitmix64: turns one sampled u64 into an arbitrary number of
/// independent per-node draws without pulling in collection strategies.
fn mix(x: u64) -> u64 {
    let mut z = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

fn sl_for(bits: u64) -> SlSpec {
    if bits.is_multiple_of(3) {
        SlSpec::Auto
    } else {
        SlSpec::Fixed(((bits >> 2) % 16) as u8)
    }
}

/// A sender role aimed at `target`, drawn from every role kind.
fn role_for(bits: u64, target: usize) -> Role {
    let payload = 1 + (bits >> 8) % 4096;
    match bits % 6 {
        0 => Role::RPerf {
            target,
            payload,
            sl: sl_for(bits >> 3),
            seed_salt: mix(bits) & 0xFFFF,
        },
        1 => Role::Lsg {
            target,
            payload,
            sl: sl_for(bits >> 3),
        },
        2 => Role::Bsg {
            target,
            payload,
            window: 1 + ((bits >> 4) % 128) as usize,
            batch: 1 + ((bits >> 13) % 8) as usize,
            sl: sl_for(bits >> 3),
        },
        3 => Role::PretendLsg {
            target,
            chunk: 1 + (bits >> 8) % 2048,
            sl: sl_for(bits >> 3),
        },
        4 => Role::Perftest {
            peer: target,
            payload,
        },
        _ => Role::Qperf {
            peer: target,
            payload,
        },
    }
}

/// Topologies spanning one to three switches plus the switchless pair,
/// so the partitioner sees every device-graph shape we ship.
fn topology_for(pick: u8, size: usize) -> Topology {
    match pick % 5 {
        0 => Topology::DirectPair,
        1 => Topology::SingleSwitch { hosts: 2 + size },
        2 => Topology::TwoSwitch {
            upstream: 1 + size / 2,
            downstream: 1 + size,
        },
        3 => Topology::Spec(TopologySpec::chain(3, &[1, size, 1])),
        _ => Topology::Spec(TopologySpec::star(2, 1 + size)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generated scenario produces identical JSON under shards = 1,
    /// a mid shard count, and a shard count larger than the device count
    /// (which clamps — the degenerate partitions must behave too).
    #[test]
    fn sharded_outcome_matches_one_shard_for_any_scenario(
        topo_pick in 0u8..5,
        size in 0usize..4,
        knobs in any::<u64>(),
        duration_us in 2u64..20,
        seed in 1u64..1000,
        mid_shards in 2usize..5,
    ) {
        let topology = topology_for(topo_pick, size);
        let hosts = topology.hosts();
        let sink = hosts - 1;
        let profile = if knobs & 1 == 0 {
            DeviceProfile::Hardware
        } else {
            DeviceProfile::OmnetSimulator
        };
        let policy = match (knobs >> 1) % 3 {
            0 => SchedPolicy::Fcfs,
            1 => SchedPolicy::RoundRobin,
            _ => SchedPolicy::FairShare,
        };
        let qos = match (knobs >> 3) % 3 {
            0 => QosMode::SharedSl,
            1 => QosMode::DedicatedSl,
            _ => QosMode::DedicatedSlWithPretend,
        };
        let mut spec = ScenarioSpec::new("prop_shard", topology)
            .with_profile(profile)
            .with_policy(policy)
            .with_qos(qos)
            .with_window(
                SimDuration::from_ns(200 * (knobs % 4)),
                SimDuration::from_us(duration_us),
            );
        for node in 0..sink {
            spec = spec.with_role(node, role_for(mix(knobs ^ node as u64), sink));
        }
        spec = spec.with_role(sink, Role::Sink);
        prop_assert!(spec.validate().is_ok(), "generator made an invalid spec");

        let one_shard = execute(&spec, seed).to_json();
        // Over-sharding is a validation error now, so cap at the device
        // count (hosts + switches); 64 still exercises one-device shards
        // on every topology big enough to allow it.
        let devices = hosts + spec.topology.switches();
        for shards in [mid_shards.min(devices), 64.min(devices)] {
            let sharded = execute(&spec.clone().with_shards(shards), seed).to_json();
            prop_assert_eq!(
                &sharded,
                &one_shard,
                "outcome diverged at shards = {} (topology {:?})",
                shards,
                spec.topology
            );
        }
    }
}

/// A fixed input that once diverged: five 64 B BSGs posting in batches
/// of 16 against an RPerf LSG. Its same-instant ties (wakes, credits and
/// packets emitted by different devices in one picosecond) are where an
/// engine that popped ties in insertion order and one that popped them
/// by emission key disagreed.
#[test]
fn batched_small_payload_incast_is_shard_invariant() {
    let spec = specs::converged(5, 64, 16, true, QosMode::SharedSl)
        .with_window(SimDuration::from_us(10), SimDuration::from_us(20));
    let one = execute(&spec, 1).to_json();
    for shards in [2, 4] {
        let sharded = execute(&spec.clone().with_shards(shards), 1).to_json();
        assert_eq!(sharded, one, "shards = {shards} diverged from shards = 1");
    }
}

/// One RNIC emitting 4096 events in one instant: a BSG with a window of
/// 128 messages of 128 KiB queues 32 packets per message, and a wake for
/// each, at t = 0. Every emission needs its own ordering key, at one
/// shard as at several.
#[test]
fn four_thousand_packet_burst_runs_and_is_shard_invariant() {
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
    let one = execute(&spec, 1).to_json();
    assert!(!one.contains("\"recvs\":0"), "no message arrived: {one}");
    for shards in [2, 3] {
        let sharded = execute(&spec.clone().with_shards(shards), 1).to_json();
        assert_eq!(sharded, one, "shards = {shards} diverged from shards = 1");
    }
}

/// A fat tree of more than 4096 devices (k = 24, three tiers: 3456
/// hosts and 720 switches) validates and runs, with the same outcome at
/// one and two shards.
#[test]
fn fat_tree_beyond_4096_devices_runs_and_is_shard_invariant() {
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
    let one = execute(&spec, 1).to_json();
    assert!(!one.contains("\"count\":0"), "no probe completed: {one}");
    let two = execute(&spec.clone().with_shards(2), 1).to_json();
    assert_eq!(two, one, "shards = 2 diverged from shards = 1");
}

/// The committed example scenario files — every spec feature users see in
/// `examples/scenarios/` — run shard-differentially end to end. The
/// measurement window is shortened so the incast congestion still builds
/// up without turning the test into a benchmark.
#[test]
fn example_scenarios_are_shard_invariant() {
    for name in ["incast_8.scn", "chain_gaming.scn"] {
        let path = format!(
            "{}/../../examples/scenarios/{name}",
            env!("CARGO_MANIFEST_DIR")
        );
        let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
        let spec = ScenarioSpec::parse(&text)
            .unwrap_or_else(|e| panic!("parsing {path}: {e}"))
            .with_window(SimDuration::from_us(50), SimDuration::from_us(300));
        let one_shard = execute(&spec, 1).to_json();
        for shards in [2, 4] {
            let sharded = execute(&spec.clone().with_shards(shards), 1).to_json();
            assert_eq!(
                sharded, one_shard,
                "{name} diverged between shards = 1 and shards = {shards}"
            );
        }
    }
}
