//! Robustness property for scenario execution: any valid spec the
//! generator can produce — random topology, role matrix, device profile,
//! scheduling policy, QoS mode and measurement window — run under a
//! small event budget either completes or stops with
//! `ExecInterrupt::EventBudget` after exactly that many events, without
//! panicking, and two runs with the same seed agree byte for byte.

use proptest::prelude::*;
use rperf::{execute_budgeted, DeviceProfile, ExecBudget, ExecInterrupt, QosMode, Role};
use rperf::{ScenarioSpec, SlSpec};
use rperf_fabric::Topology;
use rperf_model::config::SchedPolicy;
use rperf_sim::SimDuration;
use rperf_subnet::TopologySpec;

/// Events a generated run may take: enough for the quiet specs to
/// finish, too few for the busiest (about one generated spec in four).
const BUDGET: u64 = 500;

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

/// Topologies spanning one to three switches plus the switchless pair:
/// every device-graph shape the suite ships.
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

/// The outcome JSON of a budgeted run, or the events it ran before the
/// budget stopped it.
fn run(spec: &ScenarioSpec, seed: u64) -> Result<String, u64> {
    match execute_budgeted(spec, seed, ExecBudget::unbounded().with_max_events(BUDGET)) {
        Ok(out) => Ok(out.to_json()),
        Err(ExecInterrupt::EventBudget { events }) => Err(events),
        Err(other) => panic!("a run without a cancellation hook stopped with {other}"),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Any generated scenario ends in an outcome or a typed budget stop,
    /// and the same seed reproduces it exactly.
    #[test]
    fn any_valid_spec_completes_or_stops_at_the_budget(
        topo_pick in 0u8..5,
        size in 0usize..4,
        knobs in any::<u64>(),
        duration_us in 2u64..20,
        seed in 1u64..1000,
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
        let mut spec = ScenarioSpec::new("prop_execute", topology)
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

        let first = run(&spec, seed);
        if let Err(events) = &first {
            prop_assert_eq!(*events, BUDGET, "the budget is exact");
        }
        prop_assert_eq!(run(&spec, seed), first, "same seed, different run");
    }
}
