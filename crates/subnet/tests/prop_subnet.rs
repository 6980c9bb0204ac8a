//! Property tests: every planned route terminates at its destination
//! host with no loops, for arbitrary connected topologies.

use proptest::prelude::*;
use rperf_subnet::{plan, SubnetError, TopologySpec};

/// Strategy: a random connected topology (spanning-tree trunks plus a few
/// extra edges) with hosts scattered over the switches.
fn topo_strategy() -> impl Strategy<Value = TopologySpec> {
    (
        1usize..6,
        prop::collection::vec(0usize..6, 1..10),
        any::<u64>(),
    )
        .prop_map(|(n_sw, host_raw, seed)| {
            let hosts: Vec<usize> = host_raw.into_iter().map(|h| h % n_sw).collect();
            // Spanning tree: connect i to a pseudo-random earlier switch.
            let mut trunks = Vec::new();
            let mut state = seed | 1;
            for i in 1..n_sw {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                let parent = (state >> 33) as usize % i;
                trunks.push((parent, i));
            }
            // One optional extra edge for redundancy.
            if n_sw >= 3 {
                trunks.push((0, n_sw - 1));
            }
            trunks.dedup();
            TopologySpec::custom(n_sw, hosts, trunks)
        })
}

proptest! {
    /// Following forwarding entries hop by hop always reaches the
    /// destination host's switch within `switches` hops (loop freedom).
    #[test]
    fn routes_terminate_without_loops(spec in topo_strategy()) {
        let plan = match plan(&spec, 12) {
            Ok(p) => p,
            // Over-budget randomized topologies are legitimately rejected.
            Err(SubnetError::PortBudgetExceeded { .. }) => return Ok(()),
            Err(e) => return Err(TestCaseError::fail(format!("unexpected: {e}"))),
        };
        let n_sw = spec.switches();
        for (dst_host, &lid) in plan.lids.iter().enumerate() {
            let (dst_sw, dst_port) = plan.host_ports[dst_host];
            for start in 0..n_sw {
                let mut sw = start;
                let mut hops = 0;
                loop {
                    let port = plan.route_of(sw, lid).expect("entry for every lid");
                    if sw == dst_sw {
                        prop_assert_eq!(port, dst_port, "local delivery port");
                        break;
                    }
                    // The port must be a trunk; find the peer switch.
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
                    hops += 1;
                    prop_assert!(hops <= n_sw, "routing loop for {} from {}", lid, start);
                }
            }
        }
    }

    /// Hop counts are symmetric and obey the triangle property through
    /// the attached switches.
    #[test]
    fn hops_symmetric(spec in topo_strategy()) {
        let plan = match plan(&spec, 12) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let n = plan.lids.len();
        for a in 0..n {
            prop_assert_eq!(plan.hops(a, a), 0);
            for b in 0..n {
                prop_assert_eq!(plan.hops(a, b), plan.hops(b, a));
                if a != b {
                    prop_assert!(plan.hops(a, b) >= 1);
                }
            }
        }
    }

    /// LIDs are unique and dense starting at 1.
    #[test]
    fn lids_unique_and_dense(spec in topo_strategy()) {
        let plan = match plan(&spec, 12) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        for (i, lid) in plan.lids.iter().enumerate() {
            prop_assert_eq!(lid.raw(), i as u16 + 1);
        }
    }

    /// No two endpoints share a (switch, port).
    #[test]
    fn port_assignments_disjoint(spec in topo_strategy()) {
        let plan = match plan(&spec, 12) {
            Ok(p) => p,
            Err(_) => return Ok(()),
        };
        let mut seen = std::collections::BTreeSet::new();
        for &(sw, port) in &plan.host_ports {
            prop_assert!(seen.insert((sw, port.raw())), "duplicate host port");
        }
        for &((a, pa), (b, pb)) in &plan.trunk_ports {
            prop_assert!(seen.insert((a, pa.raw())), "duplicate trunk port");
            prop_assert!(seen.insert((b, pb.raw())), "duplicate trunk port");
        }
    }
}
