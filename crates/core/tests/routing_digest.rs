//! Routing pinned byte for byte: the FNV-1a-64 digest of every switch's
//! forwarding table, as `rperf::dump_routes` prints it, for fat trees
//! from the 16-host k = 4 Clos to the 1024-host k = 16 one and for the
//! two committed fat-tree example scenarios.
//!
//! Determinism tests only show that two plans agree with each other;
//! these digests show that a planner change programs exactly the
//! tables the previous planner did.

use rperf::{dump_routes, ScenarioSpec};
use rperf_fabric::Topology;
use rperf_subnet::FatTreeParams;

fn fnv1a_64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Asserts the route dump's line count and digest.
fn assert_routes(spec: &ScenarioSpec, lines: usize, digest: u64) {
    let text = dump_routes(spec, 1);
    assert_eq!(text.lines().count(), lines, "{}: line count", spec.name);
    assert_eq!(
        fnv1a_64(text.as_bytes()),
        digest,
        "{}: routing digest {:016x}",
        spec.name,
        fnv1a_64(text.as_bytes())
    );
}

fn fattree(k: usize, tiers: usize, oversubscription: usize) -> ScenarioSpec {
    let ft = FatTreeParams::new(k, tiers, oversubscription);
    ScenarioSpec::new("clos", Topology::FatTree(ft))
}

fn example(name: &str) -> ScenarioSpec {
    let path = format!(
        "{}/../../examples/scenarios/{name}",
        env!("CARGO_MANIFEST_DIR")
    );
    let text = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {path}: {e}"));
    ScenarioSpec::parse(&text).unwrap_or_else(|e| panic!("parsing {path}: {e}"))
}

#[test]
fn k4_three_tier_routes_are_pinned() {
    assert_routes(&fattree(4, 3, 1), 341, 0xb2cc_8742_d46f_28ee);
}

#[test]
fn k8_leaf_spine_routes_are_pinned() {
    assert_routes(&fattree(8, 2, 2), 2_581, 0x6642_99a0_ea14_01e2);
}

#[test]
fn k16_three_tier_routes_are_pinned() {
    assert_routes(&fattree(16, 3, 1), 328_001, 0x5519_245b_fa58_b777);
}

#[test]
fn fattree_example_routes_are_pinned() {
    assert_routes(&example("fattree_incast.scn"), 341, 0x0f23_1dab_90fe_714d);
    assert_routes(&example("fattree_victim.scn"), 331, 0xcc62_0d70_e238_cd15);
}
