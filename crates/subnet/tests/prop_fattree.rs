//! Property tests for the fat-tree generators: every planned routing
//! table is fully reachable (all host pairs), loop-free, and
//! byte-identical across repeated plans.

use proptest::prelude::*;
use rperf_subnet::{plan, FatTreeParams, SubnetPlan, TopologySpec};

/// Strategy: every constructible small fat-tree (even `k`, both tier
/// counts, oversubscribed and non-blocking edges), capped so the
/// all-pairs walk below stays fast.
fn fattree_strategy() -> impl Strategy<Value = FatTreeParams> {
    let mut options = Vec::new();
    for half_k in 1..=3 {
        for tiers in 2..=3 {
            for o in 1..=2 {
                let ft = FatTreeParams::new(2 * half_k, tiers, o);
                if ft.hosts() <= 64 {
                    options.push(ft);
                }
            }
        }
    }
    prop::sample::select(options)
}

fn planned(ft: &FatTreeParams) -> (TopologySpec, SubnetPlan) {
    let spec = ft.spec();
    let ports = ft.radix() as u8;
    let plan = plan(&spec, ports).expect("fat-trees plan within their own radix");
    (spec, plan)
}

/// Walks packets hop by hop from `src`'s switch to `dst`'s LID; returns
/// the number of switches traversed.
fn walk(plan: &SubnetPlan, spec: &TopologySpec, src: usize, dst: usize) -> u32 {
    let lid = plan.lids[dst];
    let (dst_sw, dst_port) = plan.host_ports[dst];
    let mut sw = plan.host_ports[src].0;
    let mut visited = 1u32;
    loop {
        let port = plan.route_of(sw, lid).expect("entry for every lid");
        if sw == dst_sw {
            assert_eq!(port, dst_port, "local delivery port");
            return visited;
        }
        let peer = plan
            .trunk_ports
            .iter()
            .find_map(|&((a, pa), (b, pb))| {
                if (a, pa) == (sw, port) {
                    Some(b)
                } else if (b, pb) == (sw, port) {
                    Some(a)
                } else {
                    None
                }
            })
            .expect("remote route must use a trunk port");
        sw = peer;
        visited += 1;
        assert!(
            visited <= spec.switches() as u32,
            "routing loop toward {lid}"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every host pair is reachable by following the forwarding tables,
    /// without loops, in exactly the hop count the plan reports — and
    /// cross-pod paths in a 3-tier fabric take at most 5 hops.
    #[test]
    fn all_pairs_reachable_loop_free(ft in fattree_strategy()) {
        let (spec, plan) = planned(&ft);
        let max_hops = if ft.tiers == 2 { 3 } else { 5 };
        for src in 0..ft.hosts() {
            for dst in 0..ft.hosts() {
                if src == dst {
                    continue;
                }
                let hops = walk(&plan, &spec, src, dst);
                prop_assert_eq!(hops, plan.hops(src, dst), "recorded hop count");
                prop_assert!(hops <= max_hops, "{} hops on a {}-tier tree", hops, ft.tiers);
            }
        }
    }

    /// Planning the same parameters twice yields byte-identical tables
    /// (the plan is a pure function of the parameters).
    #[test]
    fn repeated_plans_are_identical(ft in fattree_strategy()) {
        let (spec_a, plan_a) = planned(&ft);
        let (spec_b, plan_b) = planned(&ft);
        prop_assert_eq!(spec_a, spec_b);
        prop_assert_eq!(plan_a, plan_b);
    }

    /// The generator's shape formulas agree with the generated graph,
    /// and the radix bound is tight: planning at radix succeeds, one
    /// port fewer fails.
    #[test]
    fn shape_formulas_and_radix_bound(ft in fattree_strategy()) {
        let spec = ft.spec();
        prop_assert_eq!(spec.hosts(), ft.hosts());
        prop_assert_eq!(spec.switches(), ft.switches());
        let max_needed = (0..spec.switches())
            .map(|sw| spec.ports_needed(sw))
            .max()
            .unwrap();
        prop_assert_eq!(max_needed, ft.radix());
        prop_assert!(plan(&spec, ft.radix() as u8).is_ok());
        prop_assert!(plan(&spec, (ft.radix() - 1) as u8).is_err());
    }
}
