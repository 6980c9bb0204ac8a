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
    /// Trunk distances toward each switch that hosts endpoints, one row
    /// of an entry per switch for each, all in one buffer: entry `sw` of
    /// row `dist_row[dst]` is the number of trunks from `sw` to `dst`.
    dist_to: Vec<u32>,
    /// Row of each switch in `dist_to` (`u32::MAX` for switches without
    /// hosts, which no route ends at).
    dist_row: Vec<u32>,
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
            let row = self.dist_row[sw_b] as usize * self.dist_row.len();
            self.dist_to[row + sw_a] + 1
        }
    }
}

/// Runs [`plan`]'s structural checks without computing routes: a
/// topology that passes always plans on `ports_per_switch`-port switches.
///
/// # Errors
///
/// The first violation, as [`plan`] would report it.
pub fn check(spec: &TopologySpec, ports_per_switch: u8) -> Result<(), SubnetError> {
    cable(spec, ports_per_switch).map(drop)
}

/// A switch index and a port number.
type Port = (usize, PortId);

/// Each host's `(switch, port)`, each trunk's two ends, and each
/// switch's `(neighbour, local port)` list.
type Cabling = (Vec<Port>, Vec<(Port, Port)>, Vec<Vec<Port>>);

/// The checks behind [`check`] and [`plan`], in their error order, plus
/// the port allocation and adjacency they compute along the way.
fn cable(spec: &TopologySpec, ports_per_switch: u8) -> Result<Cabling, SubnetError> {
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
    // In a connected graph of several switches each switch holds a trunk
    // end, so more switches than ends is disconnected: say so from the
    // trunks alone, before any table is sized by the declared count.
    let ends = 2 * spec.trunks().len();
    if n_sw > 1 && n_sw > ends {
        let mut trunked: Vec<usize> = spec.trunks().iter().flat_map(|&(a, b)| [a, b]).collect();
        trunked.sort_unstable();
        let has_trunk = |sw| trunked.binary_search(&sw).is_ok();
        // No trunk at switch 0 reaches nothing; else one of 1..=ends has none.
        let switch = (1..=ends).find(|&sw| has_trunk(0) && !has_trunk(sw));
        return Err(SubnetError::Disconnected {
            switch: switch.unwrap_or(1),
        });
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

    let mut dist = vec![0; n_sw];
    distances(&adjacency, 0, &mut dist, &mut VecDeque::new());
    if let Some(switch) = dist.iter().position(|&d| d == u32::MAX) {
        return Err(SubnetError::Disconnected { switch });
    }
    Ok((host_ports, trunk_ports, adjacency))
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
/// See [`check`]: more hosts than unicast LIDs, port budget, dangling
/// references, self-trunks, disconnected fabrics and empty topologies
/// are rejected.
pub fn plan(spec: &TopologySpec, ports_per_switch: u8) -> Result<SubnetPlan, SubnetError> {
    let (host_ports, trunk_ports, adjacency) = cable(spec, ports_per_switch)?;
    let (n_sw, hosts) = (spec.switches(), spec.hosts());
    let lids: Vec<Lid> = (1..=hosts as u16).map(Lid::new).collect();
    let mut hosts_on: Vec<Vec<usize>> = vec![Vec::new(); n_sw];
    for (host, &(sw, _)) in host_ports.iter().enumerate() {
        hosts_on[sw].push(host);
    }

    // One distance row per destination switch, all in one buffer, and
    // one BFS queue shared by every search.
    let mut dist_row = vec![u32::MAX; n_sw];
    let mut rows = 0;
    for (row, dst_hosts) in dist_row.iter_mut().zip(&hosts_on) {
        if !dst_hosts.is_empty() {
            *row = rows;
            rows += 1;
        }
    }
    let mut dist_to = vec![0; rows as usize * n_sw];
    let mut queue = VecDeque::with_capacity(n_sw);

    // Forwarding tables, one destination switch at a time: its own
    // hosts leave by their ports; every other switch sends them to the
    // LID-selected port among those whose neighbour is one hop closer.
    let mut routes = vec![vec![PortId::new(0); hosts]; n_sw];
    let mut toward = Vec::new();
    for (dst, dst_hosts) in hosts_on.iter().enumerate() {
        if dst_hosts.is_empty() {
            continue;
        }
        let row = dist_row[dst] as usize * n_sw;
        let dist = &mut dist_to[row..row + n_sw];
        distances(&adjacency, dst, dist, &mut queue);
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
    }

    Ok(SubnetPlan {
        lids,
        host_ports,
        trunk_ports,
        routes,
        dist_to,
        dist_row,
    })
}

/// Writes the trunk distances from `from` to every switch into `dist`
/// (`u32::MAX` where unreachable), by BFS through the caller's `queue`.
fn distances(
    adjacency: &[Vec<(usize, PortId)>],
    from: usize,
    dist: &mut [u32],
    queue: &mut VecDeque<usize>,
) {
    dist.fill(u32::MAX);
    dist[from] = 0;
    queue.clear();
    queue.push_back(from);
    while let Some(sw) = queue.pop_front() {
        for &(n, _) in &adjacency[sw] {
            if dist[n] == u32::MAX {
                dist[n] = dist[sw] + 1;
                queue.push_back(n);
            }
        }
    }
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
    fn check_accepts_exactly_the_plannable_topologies() {
        // Full to the last port: one switch, and two whose trunk takes
        // the last port on each side.
        check(&TopologySpec::single_switch(12), 12).unwrap();
        check(&TopologySpec::chain(2, &[11, 11]), 12).unwrap();
        for spec in [
            TopologySpec::chain(2, &[12, 1]),
            TopologySpec::star(13, 1),
            TopologySpec::custom(3, vec![0, 2], vec![(0, 1)]),
            TopologySpec::custom(2, vec![0, 1], vec![(0, 1), (1, 1)]),
        ] {
            assert_eq!(check(&spec, 12).unwrap_err(), plan(&spec, 12).unwrap_err());
        }
        // A switch count no trunk list connects, rejected from the trunks.
        let huge = |trunks| TopologySpec::custom(usize::MAX / 2, vec![0], trunks);
        let disconnected = |switch| Err(SubnetError::Disconnected { switch });
        assert_eq!(check(&huge(vec![(0, 1)]), 12), disconnected(2));
        assert_eq!(check(&huge(Vec::new()), 12), disconnected(1));
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
