//! LID assignment, port allocation and forwarding-table computation.

use std::collections::VecDeque;

use rperf_model::{Lid, PortId};

use crate::error::SubnetError;
use crate::spec::TopologySpec;

/// The most hosts a subnet can address: IB unicast LIDs run from 1 to
/// `0xBFFF` (LID 0 is reserved; `0xC000` and up are multicast).
pub const MAX_HOSTS: usize = 0xBFFF;

/// The programmable outcome of subnet planning.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SubnetPlan {
    /// LID of each host (host `i` gets `lids[i]`; LIDs start at 1, LID 0
    /// being reserved in IB).
    pub lids: Vec<Lid>,
    /// Attachment of each host: `(switch, port)`.
    pub host_ports: Vec<(usize, PortId)>,
    /// Trunk cables: `((switch_a, port_a), (switch_b, port_b))`, in the
    /// order of [`TopologySpec::trunks`].
    pub trunk_ports: Vec<((usize, PortId), (usize, PortId))>,
    /// Forwarding tables, dense by host: `routes[sw][host]` is the egress
    /// port switch `sw` uses for `lids[host]`.
    pub routes: Vec<Vec<PortId>>,
    /// Trunk distances toward each switch that hosts endpoints:
    /// `dist_to[dst][sw]` is the number of trunks from `sw` to `dst`
    /// (empty for switches without hosts).
    dist_to: Vec<Vec<u32>>,
}

impl SubnetPlan {
    /// The egress port switch `sw` uses for `lid` (for diagnostics).
    pub fn route_of(&self, sw: usize, lid: Lid) -> Option<PortId> {
        let host = lid.index().checked_sub(1)?;
        self.routes[sw].get(host).copied()
    }

    /// Hop count (number of switches traversed) from host `a` to host
    /// `b`: 0 from a host to itself, 1 between hosts on one switch.
    pub fn hops(&self, a: usize, b: usize) -> u32 {
        let (sw_a, sw_b) = (self.host_ports[a].0, self.host_ports[b].0);
        if a == b {
            0
        } else {
            self.dist_to[sw_b][sw_a] + 1
        }
    }
}

/// Validates `spec` against `ports_per_switch` and computes the plan:
/// hosts take the low port numbers on their switch (in host order),
/// trunks take the next ports (in trunk order); forwarding uses BFS
/// shortest paths over the switch graph.
///
/// When several equal-cost shortest paths exist (Clos fabrics, parallel
/// trunks), the egress port is chosen **per destination LID**: the
/// candidate ports — neighbours exactly one hop closer to the
/// destination switch, sorted by `(neighbour, port)` — are indexed by
/// `lid mod candidates`. The selection is a pure function of the
/// topology and the LID (no hashing, no iteration-order dependence), so
/// repeated plans are byte-identical, and distinct destinations spread
/// deterministically across the equal-cost fan — the ECMP-free
/// destination-based routing of a statically routed IB subnet. A
/// topology with unique shortest paths gets exactly the single
/// candidate the BFS tree would have picked.
///
/// Only switches that host endpoints are forwarding destinations, so
/// the cost is one BFS per such switch plus one write per forwarding
/// entry: O(D·(S + T) + S·H) for D destination switches, S switches,
/// T trunks and H hosts.
///
/// # Errors
///
/// See [`SubnetError`] — more hosts than unicast LIDs, port budget,
/// dangling references, self-trunks, disconnected fabrics and empty
/// topologies are rejected.
pub fn plan(spec: &TopologySpec, ports_per_switch: u8) -> Result<SubnetPlan, SubnetError> {
    let n_sw = spec.switches();
    let hosts = spec.hosts();
    if hosts == 0 {
        return Err(SubnetError::NoHosts);
    }
    if hosts > MAX_HOSTS {
        return Err(SubnetError::TooManyHosts {
            hosts,
            max: MAX_HOSTS,
        });
    }
    if let Some(&switch) = spec.host_attachments().iter().find(|&&a| a >= n_sw) {
        return Err(SubnetError::UnknownSwitch { switch });
    }
    for &(a, b) in spec.trunks() {
        if a == b {
            return Err(SubnetError::SelfTrunk { switch: a });
        }
        if a >= n_sw || b >= n_sw {
            return Err(SubnetError::UnknownSwitch { switch: a.max(b) });
        }
    }

    // Port allocation: hosts first (host order), then trunks (trunk
    // order). `used[sw]` counts switch `sw`'s ports; numbers past the
    // budget are rejected below, before any is used.
    let mut used = vec![0usize; n_sw];
    let mut next_port = |sw: usize| {
        used[sw] += 1;
        PortId::new((used[sw] - 1) as u8)
    };
    let host_ports: Vec<(usize, PortId)> = spec
        .host_attachments()
        .iter()
        .map(|&sw| (sw, next_port(sw)))
        .collect();
    let trunk_ports: Vec<_> = spec
        .trunks()
        .iter()
        .map(|&(a, b)| ((a, next_port(a)), (b, next_port(b))))
        .collect();
    let available = ports_per_switch as usize;
    if let Some(switch) = used.iter().position(|&n| n > available) {
        return Err(SubnetError::PortBudgetExceeded {
            switch,
            needed: used[switch],
            available,
        });
    }

    let lids: Vec<Lid> = (1..=hosts as u16).map(Lid::new).collect();
    let mut hosts_on: Vec<Vec<usize>> = vec![Vec::new(); n_sw];
    for (host, &(sw, _)) in host_ports.iter().enumerate() {
        hosts_on[sw].push(host);
    }
    // Adjacency: neighbour switch → the local port reaching it, sorted
    // by (neighbour, port) so that equal-cost candidates are listed
    // independently of trunk declaration order.
    let mut adjacency: Vec<Vec<(usize, PortId)>> = vec![Vec::new(); n_sw];
    for &((a, pa), (b, pb)) in &trunk_ports {
        adjacency[a].push((b, pa));
        adjacency[b].push((a, pb));
    }
    for neigh in &mut adjacency {
        neigh.sort_by_key(|&(n, p)| (n, p.raw()));
    }

    if let Some(switch) = distances(&adjacency, 0).iter().position(|&d| d == u32::MAX) {
        return Err(SubnetError::Disconnected { switch });
    }

    // Forwarding tables, one destination switch at a time: its own
    // hosts leave by their ports; every other switch sends them to the
    // LID-selected port among those whose neighbour is one hop closer.
    let mut routes = vec![vec![PortId::new(0); hosts]; n_sw];
    let mut dist_to = vec![Vec::new(); n_sw];
    let mut toward = Vec::new();
    for (dst, dst_hosts) in hosts_on.iter().enumerate() {
        if dst_hosts.is_empty() {
            continue;
        }
        let dist = distances(&adjacency, dst);
        for (sw, table) in routes.iter_mut().enumerate() {
            if sw == dst {
                for &h in dst_hosts {
                    table[h] = host_ports[h].1;
                }
                continue;
            }
            toward.clear();
            toward.extend(
                adjacency[sw]
                    .iter()
                    .filter(|&&(n, _)| dist[n] + 1 == dist[sw])
                    .map(|&(_, p)| p),
            );
            for &h in dst_hosts {
                table[h] = toward[lids[h].index() % toward.len()];
            }
        }
        dist_to[dst] = dist;
    }

    Ok(SubnetPlan {
        lids,
        host_ports,
        trunk_ports,
        routes,
        dist_to,
    })
}

/// Trunk distances from `from` to every switch (`u32::MAX` where
/// unreachable), by BFS.
fn distances(adjacency: &[Vec<(usize, PortId)>], from: usize) -> Vec<u32> {
    let mut dist = vec![u32::MAX; adjacency.len()];
    dist[from] = 0;
    let mut queue = VecDeque::from([from]);
    while let Some(sw) = queue.pop_front() {
        for &(n, _) in &adjacency[sw] {
            if dist[n] == u32::MAX {
                dist[n] = dist[sw] + 1;
                queue.push_back(n);
            }
        }
    }
    dist
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn single_switch_plan_matches_the_rack() {
        let plan = plan(&TopologySpec::single_switch(7), 12).unwrap();
        assert_eq!(plan.lids.len(), 7);
        for (i, &(sw, port)) in plan.host_ports.iter().enumerate() {
            assert_eq!(sw, 0);
            assert_eq!(port, PortId::new(i as u8));
        }
        assert!(plan.trunk_ports.is_empty());
        // Every LID routes to its own port.
        for (i, &lid) in plan.lids.iter().enumerate() {
            assert_eq!(plan.route_of(0, lid), Some(PortId::new(i as u8)));
        }
        assert_eq!(plan.hops(0, 1), 1);
        assert_eq!(plan.hops(0, 0), 0);
    }

    #[test]
    fn two_switch_plan_routes_over_the_trunk() {
        let plan = plan(&TopologySpec::chain(2, &[3, 4]), 12).unwrap();
        // Trunk ports come after host ports: 3 hosts on switch 0 → trunk
        // port 3; 4 hosts on switch 1 → trunk port 4.
        assert_eq!(
            plan.trunk_ports[0],
            ((0, PortId::new(3)), (1, PortId::new(4)))
        );
        // Host 0 (switch 0): switch 1 routes its LID over the trunk.
        let lid0 = plan.lids[0];
        assert_eq!(plan.route_of(1, lid0), Some(PortId::new(4)));
        // Host 3 (switch 1): switch 0 routes over its trunk port.
        let lid3 = plan.lids[3];
        assert_eq!(plan.route_of(0, lid3), Some(PortId::new(3)));
        assert_eq!(plan.hops(0, 3), 2);
        assert_eq!(plan.hops(0, 1), 1);
    }

    #[test]
    fn chain_routes_multi_hop() {
        let plan = plan(&TopologySpec::chain(4, &[1, 0, 0, 1]), 12).unwrap();
        let last = plan.lids[1];
        // Switch 0 must send the far host's traffic toward switch 1.
        let toward = plan.route_of(0, last).unwrap();
        // Switch 0 has 1 host (port 0) and 1 trunk (port 1).
        assert_eq!(toward, PortId::new(1));
        assert_eq!(plan.hops(0, 1), 4);
    }

    #[test]
    fn star_routes_through_the_core() {
        let plan = plan(&TopologySpec::star(3, 2), 12).unwrap();
        // Host 0 on leaf 1, host 2 on leaf 2: 3 switches on the path.
        assert_eq!(plan.hops(0, 2), 3);
        assert_eq!(plan.hops(0, 1), 1, "same leaf");
    }

    #[test]
    fn fattree_spreads_lids_over_equal_cost_uplinks() {
        // k = 4 leaf-spine: leaves 0..4 (2 hosts each, ports 0-1; uplinks
        // ports 2-3 toward spines 4 and 5), so every remote destination
        // has two equal-cost candidates on every leaf.
        let spec = crate::FatTreeParams::new(4, 2, 1).spec();
        let plan = plan(&spec, 12).unwrap();
        // Hosts 2 and 3 (LIDs 3 and 4) sit on leaf 1; leaf 0 must spread
        // them across both uplinks by LID parity.
        assert_eq!(plan.route_of(0, Lid::new(3)), Some(PortId::new(3)));
        assert_eq!(plan.route_of(0, Lid::new(4)), Some(PortId::new(2)));
        // Spines route every LID straight down to its leaf.
        assert_eq!(plan.route_of(4, Lid::new(1)), Some(PortId::new(0)));
        assert_eq!(plan.hops(0, 2), 3, "cross-leaf pairs traverse a spine");
        assert_eq!(plan.hops(0, 1), 1, "same-leaf pairs stay local");
        // Replanning is byte-identical.
        assert_eq!(plan, plan_fn(&spec));
    }

    fn plan_fn(spec: &TopologySpec) -> SubnetPlan {
        plan(spec, 12).unwrap()
    }

    #[test]
    fn port_budget_enforced() {
        let err = plan(&TopologySpec::single_switch(13), 12).unwrap_err();
        assert!(matches!(
            err,
            SubnetError::PortBudgetExceeded { needed: 13, .. }
        ));
    }

    #[test]
    fn disconnected_rejected() {
        let spec = TopologySpec::custom(3, vec![0, 2], vec![(0, 1)]);
        let err = plan(&spec, 12).unwrap_err();
        assert_eq!(err, SubnetError::Disconnected { switch: 2 });
    }

    #[test]
    fn self_trunk_rejected() {
        let spec = TopologySpec::custom(2, vec![0, 1], vec![(1, 1)]);
        assert_eq!(
            plan(&spec, 12).unwrap_err(),
            SubnetError::SelfTrunk { switch: 1 }
        );
    }

    #[test]
    fn empty_topology_rejected() {
        assert_eq!(
            plan(&TopologySpec::single_switch(0), 12).unwrap_err(),
            SubnetError::NoHosts
        );
    }

    #[test]
    fn more_hosts_than_unicast_lids_rejected() {
        // Checked before the port budget, so the LIDs never wrap.
        let spec = TopologySpec::single_switch(MAX_HOSTS + 1);
        assert_eq!(
            plan(&spec, 12).unwrap_err(),
            SubnetError::TooManyHosts {
                hosts: 0xC000,
                max: 0xBFFF
            }
        );
    }

    #[test]
    fn unknown_switch_rejected() {
        let spec = TopologySpec::custom(2, vec![0, 5], vec![(0, 1)]);
        assert_eq!(
            plan(&spec, 12).unwrap_err(),
            SubnetError::UnknownSwitch { switch: 5 }
        );
    }
}
