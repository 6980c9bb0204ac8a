//! Fabric construction and device wiring.

use std::sync::Arc;

use rperf_host::TscClock;
use rperf_model::config::RnicConfig;
use rperf_model::{ClusterConfig, Lid, NodeId, PortId};
use rperf_rnic::Rnic;
use rperf_sim::SimRng;
use rperf_subnet::{plan, FatTreeParams, TopologySpec};
use rperf_switch::{CreditLedger, ForwardingTable, Switch};

/// A topology selector covering every fabric shape the suite builds,
/// unifying the dedicated constructors and the planned multi-switch path
/// behind one entry point ([`FabricBuilder::build`]).
///
/// The dedicated variants keep their historical RNG fork constants
/// (`single_switch` forks at 999, `two_switch` at 998/997, planned specs
/// at 900 + index), so a scenario expressed through [`Topology`] is
/// bit-identical to one built through the matching constructor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Two hosts cabled back-to-back (no switch).
    DirectPair,
    /// `hosts` hosts behind a single ToR switch.
    SingleSwitch {
        /// Number of hosts on the switch.
        hosts: usize,
    },
    /// Two switches in series (the paper's multi-hop setup).
    TwoSwitch {
        /// Hosts on switch 0.
        upstream: usize,
        /// Hosts on switch 1.
        downstream: usize,
    },
    /// An arbitrary planned topology (chains, stars, custom graphs).
    Spec(TopologySpec),
    /// A parameterized Clos / fat-tree fabric (2-tier leaf–spine or
    /// 3-tier pods + core), planned like [`Topology::Spec`] but with the
    /// switch port budget raised to the tree's radix when the configured
    /// budget is smaller.
    FatTree(FatTreeParams),
}

impl Topology {
    /// Number of hosts the topology wires up.
    pub fn hosts(&self) -> usize {
        match self {
            Topology::DirectPair => 2,
            Topology::SingleSwitch { hosts } => *hosts,
            // Saturating: a spec may ask for any count, and validation
            // must see it as too many rather than wrapped round.
            Topology::TwoSwitch {
                upstream,
                downstream,
            } => upstream.saturating_add(*downstream),
            Topology::Spec(spec) => spec.hosts(),
            Topology::FatTree(ft) => ft.hosts(),
        }
    }

    /// Number of switches in the topology.
    pub fn switches(&self) -> usize {
        match self {
            Topology::DirectPair => 0,
            Topology::SingleSwitch { .. } => 1,
            Topology::TwoSwitch { .. } => 2,
            Topology::Spec(spec) => spec.switches(),
            Topology::FatTree(ft) => ft.switches(),
        }
    }
}

/// What sits on the other end of a cable.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Endpoint {
    /// An RNIC port (by node index).
    Rnic(usize),
    /// A switch port.
    SwitchPort(usize, PortId),
}

/// The assembled cluster: devices plus cabling.
///
/// The cluster configuration is held in an [`Arc`] shared with every
/// device (nodes and switches reference the same allocation rather than
/// each owning a clone). A fabric does not run on its own: [`crate::Sim`]
/// takes ownership of its devices and adds the event queue and the
/// packet slab they exchange handles into.
///
/// Every VL-indexed structure of every device — switch input buffers and
/// credits, RNIC injection queues and ledgers — is sized by one lane
/// count per fabric ([`Fabric::lanes`]), so both ends of every link agree
/// on it. Packets carry the VL their injecting RNIC took from the
/// configuration's one SL2VL table, and every hop buffers and credits
/// them on it.
///
/// Use the constructors ([`Fabric::direct_pair`], [`Fabric::single_switch`],
/// [`Fabric::two_switch`]) or [`FabricBuilder`] for per-node overrides.
#[derive(Debug)]
pub struct Fabric {
    pub(crate) cfg: Arc<ClusterConfig>,
    pub(crate) rnics: Vec<Rnic>,
    pub(crate) clocks: Vec<TscClock>,
    pub(crate) switches: Vec<Switch>,
    /// Peer of each RNIC's single port.
    pub(crate) rnic_peer: Vec<Endpoint>,
    /// Peer of each switch port (`None` = unconnected).
    pub(crate) switch_peer: Vec<Vec<Option<Endpoint>>>,
}

impl Fabric {
    /// Two hosts cabled back-to-back (no switch).
    pub fn direct_pair(cfg: ClusterConfig, seed: u64) -> Fabric {
        FabricBuilder::new(cfg, seed).direct_pair()
    }

    /// `nodes` hosts behind a single ToR switch.
    ///
    /// Node `i` attaches to switch port `i` and owns LID `i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` exceeds the switch port count.
    pub fn single_switch(cfg: ClusterConfig, nodes: usize, seed: u64) -> Fabric {
        FabricBuilder::new(cfg, seed).single_switch(nodes)
    }

    /// Builds a fabric for an arbitrary planned topology (chains, stars,
    /// custom graphs) with default device configurations.
    pub fn from_spec(cfg: ClusterConfig, spec: &TopologySpec, seed: u64) -> Fabric {
        FabricBuilder::new(cfg, seed).from_spec(spec)
    }

    /// Two switches in series: `upstream` hosts on switch 0, `downstream`
    /// hosts on switch 1, joined by one inter-switch cable (the paper's
    /// Section VIII-B multi-hop topology).
    ///
    /// Nodes `0..upstream` sit on switch 0; nodes `upstream..upstream +
    /// downstream` on switch 1. The last port of each switch carries the
    /// inter-switch link.
    ///
    /// # Panics
    ///
    /// Panics if either side exceeds `ports - 1` hosts.
    pub fn two_switch(cfg: ClusterConfig, upstream: usize, downstream: usize, seed: u64) -> Fabric {
        FabricBuilder::new(cfg, seed).two_switch(upstream, downstream)
    }

    /// Number of hosts.
    pub fn nodes(&self) -> usize {
        self.rnics.len()
    }

    /// The cluster configuration.
    pub fn config(&self) -> &ClusterConfig {
        &self.cfg
    }

    /// Lanes per port on every device: 1 + the highest VL the SL2VL table
    /// maps to — 1 for shared-SL runs, 2 with a dedicated SL.
    pub fn lanes(&self) -> u8 {
        self.cfg.sl2vl.lanes()
    }

    /// The LID of a node.
    pub fn lid_of(&self, node: usize) -> Lid {
        self.rnics[node].lid()
    }

    /// The host clock of a node.
    pub fn clock(&self, node: usize) -> &TscClock {
        &self.clocks[node]
    }

    /// The RNIC of a node.
    pub fn rnic(&self, node: usize) -> &Rnic {
        &self.rnics[node]
    }

    /// The switches.
    pub fn switch(&self, idx: usize) -> &Switch {
        &self.switches[idx]
    }

    /// Number of switches.
    pub fn switches_len(&self) -> usize {
        self.switches.len()
    }
}

/// Builds fabrics with optional per-node RNIC configuration overrides
/// (used by the pretend-LSG experiments, where the adversary runs a more
/// aggressive posting engine).
#[derive(Debug)]
pub struct FabricBuilder {
    cfg: ClusterConfig,
    seed: u64,
    rnic_overrides: Vec<(usize, RnicConfig)>,
}

impl FabricBuilder {
    /// Starts a builder from a cluster configuration and an experiment
    /// seed.
    pub fn new(cfg: ClusterConfig, seed: u64) -> Self {
        cfg.validate().expect("invalid cluster configuration");
        FabricBuilder {
            cfg,
            seed,
            rnic_overrides: Vec::new(),
        }
    }

    /// Overrides the RNIC configuration of one node.
    pub fn with_rnic_override(mut self, node: usize, rnic: RnicConfig) -> Self {
        self.rnic_overrides.push((node, rnic));
        self
    }

    fn rnic_cfg_for(&self, node: usize, shared: &Arc<RnicConfig>) -> Arc<RnicConfig> {
        self.rnic_overrides
            .iter()
            .rev()
            .find(|(n, _)| *n == node)
            .map(|(_, c)| Arc::new(c.clone()))
            .unwrap_or_else(|| Arc::clone(shared))
    }

    /// The grant a switch input buffer advertises: one buffer per lane.
    fn switch_grant(&self) -> CreditLedger {
        CreditLedger::new(self.cfg.sl2vl.lanes(), self.cfg.switch.input_buffer_bytes)
    }

    fn make_nodes(&self, count: usize, rng: &mut SimRng) -> (Vec<Rnic>, Vec<TscClock>) {
        // All non-overridden nodes share one config allocation.
        let shared = Arc::new(self.cfg.rnic.clone());
        let mut rnics = Vec::with_capacity(count);
        let mut clocks = Vec::with_capacity(count);
        for i in 0..count {
            let cfg = self.rnic_cfg_for(i, &shared);
            rnics.push(Rnic::new(
                NodeId::new(i as u16),
                Lid::new(i as u16 + 1),
                cfg,
                self.cfg.sl2vl,
                &self.cfg.link,
                rng.fork(100 + i as u64),
            ));
            clocks.push(
                TscClock::new(self.cfg.host.tsc_ghz, rng.fork(200 + i as u64).next_u64())
                    .with_read_cost(self.cfg.host.tsc_read),
            );
        }
        (rnics, clocks)
    }

    /// One switch-config allocation shared by every switch in the fabric.
    fn switch_cfg(&self) -> Arc<rperf_model::config::SwitchConfig> {
        Arc::new(self.cfg.switch.clone())
    }

    /// Builds the fabric for any [`Topology`], dispatching to the
    /// matching constructor (and therefore to its RNG fork constants).
    pub fn build(self, topo: &Topology) -> Fabric {
        match topo {
            Topology::DirectPair => self.direct_pair(),
            Topology::SingleSwitch { hosts } => self.single_switch(*hosts),
            Topology::TwoSwitch {
                upstream,
                downstream,
            } => self.two_switch(*upstream, *downstream),
            Topology::Spec(spec) => self.from_spec(spec),
            Topology::FatTree(ft) => self.fattree(ft),
        }
    }

    /// Builds a parameterized fat-tree: generates the switch graph and
    /// plans it like any other spec, but first raises the per-switch port
    /// budget to the tree's radix if the configured budget is smaller
    /// (a k = 8 leaf–spine needs 16-port spines where the paper's
    /// hardware profile models a 12-port SX6012).
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`FatTreeParams::validate`] (which
    /// also bounds the radix by the `u8` port-number space).
    pub fn fattree(mut self, ft: &FatTreeParams) -> Fabric {
        let checked = ft.validate();
        assert!(
            checked.is_ok(),
            "invalid fat-tree parameters: {}",
            checked.unwrap_err()
        );
        self.cfg.switch.ports = self.cfg.switch.ports.max(ft.radix() as u8);
        self.from_spec(&ft.spec())
    }

    /// Builds the back-to-back two-host fabric.
    pub fn direct_pair(self) -> Fabric {
        let mut rng = SimRng::new(self.seed);
        let (mut rnics, clocks) = self.make_nodes(2, &mut rng);
        // Each RNIC holds credits for the peer's receive buffer.
        let grant0 = rnics[1].advertised_credits();
        let grant1 = rnics[0].advertised_credits();
        rnics[0].set_peer_credits(grant0);
        rnics[1].set_peer_credits(grant1);
        Fabric {
            cfg: Arc::new(self.cfg),
            rnics,
            clocks,
            switches: Vec::new(),
            rnic_peer: vec![Endpoint::Rnic(1), Endpoint::Rnic(0)],
            switch_peer: Vec::new(),
        }
    }

    /// Builds the single-switch rack.
    pub fn single_switch(self, nodes: usize) -> Fabric {
        assert!(
            nodes <= self.cfg.switch.ports as usize,
            "{} nodes exceed the {}-port switch",
            nodes,
            self.cfg.switch.ports
        );
        let lanes = self.cfg.sl2vl.lanes();
        let mut rng = SimRng::new(self.seed);
        let (mut rnics, clocks) = self.make_nodes(nodes, &mut rng);
        let mut sw = Switch::new(
            self.switch_cfg(),
            lanes,
            self.cfg.link.data_rate(),
            rng.fork(999),
        );
        let grant = self.switch_grant();
        let mut switch_ports = vec![None; self.cfg.switch.ports as usize];
        for (i, rnic) in rnics.iter_mut().enumerate() {
            let port = PortId::new(i as u8);
            sw.set_route(rnic.lid(), port);
            sw.set_downstream_credits(port, rnic.advertised_credits());
            rnic.set_peer_credits(grant.clone());
            switch_ports[i] = Some(Endpoint::Rnic(i));
        }
        Fabric {
            rnic_peer: (0..nodes)
                .map(|i| Endpoint::SwitchPort(0, PortId::new(i as u8)))
                .collect(),
            cfg: Arc::new(self.cfg),
            rnics,
            clocks,
            switches: vec![sw],
            switch_peer: vec![switch_ports],
        }
    }

    /// Builds a fabric for an arbitrary multi-switch topology, using the
    /// subnet planner for LID assignment, port allocation and
    /// shortest-path forwarding — the general form of the constructors
    /// above.
    ///
    /// # Panics
    ///
    /// Panics if the topology cannot be planned against the configured
    /// switch port budget (see `rperf_subnet::SubnetError`).
    pub fn from_spec(self, spec: &TopologySpec) -> Fabric {
        let subnet = plan(spec, self.cfg.switch.ports)
            .unwrap_or_else(|e| panic!("unplannable topology: {e}"));
        let lanes = self.cfg.sl2vl.lanes();
        let mut rng = SimRng::new(self.seed);
        let (mut rnics, clocks) = self.make_nodes(spec.hosts(), &mut rng);
        let ports = self.cfg.switch.ports as usize;
        let grant = self.switch_grant();

        let sw_cfg = self.switch_cfg();
        let mut switches: Vec<Switch> = (0..spec.switches())
            .map(|i| {
                Switch::new(
                    Arc::clone(&sw_cfg),
                    lanes,
                    self.cfg.link.data_rate(),
                    rng.fork(900 + i as u64),
                )
            })
            .collect();
        let mut switch_peer: Vec<Vec<Option<Endpoint>>> = vec![vec![None; ports]; spec.switches()];
        let mut rnic_peer = Vec::with_capacity(spec.hosts());

        // Program forwarding tables: host `i` has LID `i + 1`.
        for (switch, table) in switches.iter_mut().zip(&subnet.routes) {
            switch.set_forwarding(ForwardingTable::dense(table));
        }
        // Wire hosts.
        for (host, &(sw, port)) in subnet.host_ports.iter().enumerate() {
            switches[sw].set_downstream_credits(port, rnics[host].advertised_credits());
            rnics[host].set_peer_credits(grant.clone());
            switch_peer[sw][port.index()] = Some(Endpoint::Rnic(host));
            rnic_peer.push(Endpoint::SwitchPort(sw, port));
        }
        // Wire trunks.
        for &((a, pa), (b, pb)) in &subnet.trunk_ports {
            switches[a].set_downstream_credits(pa, grant.clone());
            switches[b].set_downstream_credits(pb, grant.clone());
            switch_peer[a][pa.index()] = Some(Endpoint::SwitchPort(b, pb));
            switch_peer[b][pb.index()] = Some(Endpoint::SwitchPort(a, pa));
        }

        Fabric {
            cfg: Arc::new(self.cfg),
            rnics,
            clocks,
            switches,
            rnic_peer,
            switch_peer,
        }
    }

    /// Builds the two-switch multi-hop topology.
    pub fn two_switch(self, upstream: usize, downstream: usize) -> Fabric {
        let ports = self.cfg.switch.ports as usize;
        assert!(upstream < ports, "too many upstream hosts");
        assert!(downstream < ports, "too many downstream hosts");
        let trunk = PortId::new(self.cfg.switch.ports - 1);

        let lanes = self.cfg.sl2vl.lanes();
        let mut rng = SimRng::new(self.seed);
        let total = upstream + downstream;
        let (mut rnics, clocks) = self.make_nodes(total, &mut rng);
        let sw_cfg = self.switch_cfg();
        let rate = self.cfg.link.data_rate();
        let mut sw0 = Switch::new(Arc::clone(&sw_cfg), lanes, rate, rng.fork(998));
        let mut sw1 = Switch::new(sw_cfg, lanes, rate, rng.fork(997));
        let grant = self.switch_grant();
        let mut ports0 = vec![None; ports];
        let mut ports1 = vec![None; ports];
        let mut rnic_peer = Vec::with_capacity(total);

        for (i, rnic) in rnics.iter_mut().enumerate() {
            let (sw, sw_idx, port_list, port) = if i < upstream {
                (&mut sw0, 0usize, &mut ports0, PortId::new(i as u8))
            } else {
                (
                    &mut sw1,
                    1usize,
                    &mut ports1,
                    PortId::new((i - upstream) as u8),
                )
            };
            sw.set_route(rnic.lid(), port);
            sw.set_downstream_credits(port, rnic.advertised_credits());
            rnic.set_peer_credits(grant.clone());
            port_list[port.index()] = Some(Endpoint::Rnic(i));
            rnic_peer.push(Endpoint::SwitchPort(sw_idx, port));
        }

        // Remote LIDs route over the trunk; each switch grants the other
        // one input buffer per lane.
        for i in 0..total {
            let lid = Lid::new(i as u16 + 1);
            if i < upstream {
                sw1.set_route(lid, trunk);
            } else {
                sw0.set_route(lid, trunk);
            }
        }
        sw0.set_downstream_credits(trunk, grant.clone());
        sw1.set_downstream_credits(trunk, grant);
        ports0[trunk.index()] = Some(Endpoint::SwitchPort(1, trunk));
        ports1[trunk.index()] = Some(Endpoint::SwitchPort(0, trunk));

        Fabric {
            cfg: Arc::new(self.cfg),
            rnics,
            clocks,
            switches: vec![sw0, sw1],
            rnic_peer,
            switch_peer: vec![ports0, ports1],
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rperf_model::VirtualLane;

    #[test]
    fn direct_pair_wiring() {
        let f = Fabric::direct_pair(ClusterConfig::hardware(), 1);
        assert_eq!(f.nodes(), 2);
        assert_eq!(f.switches_len(), 0);
        assert_eq!(f.rnic_peer[0], Endpoint::Rnic(1));
        assert_eq!(f.rnic_peer[1], Endpoint::Rnic(0));
        assert_eq!(f.lid_of(0), Lid::new(1));
        assert_eq!(f.lid_of(1), Lid::new(2));
    }

    #[test]
    fn single_switch_wiring() {
        let f = Fabric::single_switch(ClusterConfig::hardware(), 7, 1);
        assert_eq!(f.nodes(), 7);
        assert_eq!(f.switches_len(), 1);
        for i in 0..7 {
            assert_eq!(
                f.rnic_peer[i],
                Endpoint::SwitchPort(0, PortId::new(i as u8))
            );
            assert_eq!(f.switch_peer[0][i], Some(Endpoint::Rnic(i)));
        }
        assert_eq!(f.switch_peer[0][7], None);
    }

    #[test]
    fn two_switch_wiring_routes_over_trunk() {
        let f = Fabric::two_switch(ClusterConfig::hardware(), 3, 4, 1);
        assert_eq!(f.nodes(), 7);
        assert_eq!(f.switches_len(), 2);
        let trunk = PortId::new(11);
        assert_eq!(
            f.switch_peer[0][trunk.index()],
            Some(Endpoint::SwitchPort(1, trunk))
        );
        assert_eq!(
            f.switch_peer[1][trunk.index()],
            Some(Endpoint::SwitchPort(0, trunk))
        );
        // Upstream node 0 is local to switch 0, remote to switch 1.
        assert_eq!(f.rnic_peer[0], Endpoint::SwitchPort(0, PortId::new(0)));
        // Downstream node 3 attaches to switch 1 port 0.
        assert_eq!(f.rnic_peer[3], Endpoint::SwitchPort(1, PortId::new(0)));
    }

    #[test]
    #[should_panic(expected = "exceed")]
    fn too_many_nodes_rejected() {
        let _ = Fabric::single_switch(ClusterConfig::hardware(), 13, 1);
    }

    #[test]
    fn rnic_override_applies() {
        let mut cfg = ClusterConfig::hardware();
        cfg.rnic.mtu = 4096;
        let mut special = cfg.rnic.clone();
        special.wqe_engine = rperf_sim::SimDuration::from_ns(70);
        let f = FabricBuilder::new(cfg, 1)
            .with_rnic_override(2, special.clone())
            .single_switch(4);
        assert_eq!(f.rnic(2).config().wqe_engine, special.wqe_engine);
        assert_ne!(f.rnic(1).config().wqe_engine, special.wqe_engine);
    }

    #[test]
    fn non_overridden_nodes_share_one_config_allocation() {
        let f = Fabric::single_switch(ClusterConfig::hardware(), 4, 1);
        let base = f.rnic(0).config() as *const RnicConfig;
        for i in 1..4 {
            assert_eq!(
                f.rnic(i).config() as *const RnicConfig,
                base,
                "node {i} should share the config Arc"
            );
        }
    }

    #[test]
    fn clocks_have_distinct_offsets() {
        let f = Fabric::single_switch(ClusterConfig::hardware(), 3, 7);
        let t = rperf_sim::SimTime::from_us(1);
        let a = f.clock(0).read(t);
        let b = f.clock(1).read(t);
        assert_ne!(a, b, "per-host TSC epochs must differ");
    }

    #[test]
    fn deterministic_construction() {
        let a = Fabric::single_switch(ClusterConfig::hardware(), 5, 42);
        let b = Fabric::single_switch(ClusterConfig::hardware(), 5, 42);
        let t = rperf_sim::SimTime::from_us(3);
        for i in 0..5 {
            assert_eq!(a.clock(i).read(t), b.clock(i).read(t));
        }
    }

    #[test]
    fn one_lane_count_per_fabric() {
        use rperf_subnet::FatTreeParams;
        let topologies = [
            Topology::DirectPair,
            Topology::SingleSwitch { hosts: 3 },
            Topology::TwoSwitch {
                upstream: 2,
                downstream: 2,
            },
            Topology::FatTree(FatTreeParams::new(4, 3, 1)),
        ];
        for (cfg, lanes) in [
            (ClusterConfig::hardware(), 1),
            (ClusterConfig::hardware().with_dedicated_sl(), 2),
        ] {
            for topo in &topologies {
                let f = FabricBuilder::new(cfg.clone(), 1).build(topo);
                assert_eq!(f.lanes(), lanes, "{topo:?}");
                assert!((0..f.nodes()).all(|i| f.rnic(i).lanes() == lanes));
                assert!((0..f.switches_len()).all(|i| f.switch(i).lanes() == lanes));
            }
        }
    }

    #[test]
    fn switch_knows_rnic_credit_grants() {
        let f = Fabric::single_switch(ClusterConfig::hardware(), 2, 1);
        // The switch's credits toward node 0 equal the RNIC's advertisement.
        let adv = f.rnic(0).advertised_credits();
        assert_eq!(
            adv.available(VirtualLane::new(0)),
            f.config().rnic.rx_buffer_bytes
        );
    }
}

#[cfg(test)]
mod spec_tests {
    use super::*;
    use rperf_subnet::TopologySpec;

    #[test]
    fn from_spec_reproduces_the_two_switch_wiring() {
        let cfg = ClusterConfig::hardware();
        let spec = TopologySpec::chain(2, &[3, 4]);
        let f = Fabric::from_spec(cfg, &spec, 1);
        assert_eq!(f.nodes(), 7);
        assert_eq!(f.switches_len(), 2);
        // Hosts take the low ports; trunks follow.
        assert_eq!(f.rnic_peer[0], Endpoint::SwitchPort(0, PortId::new(0)));
        assert_eq!(f.rnic_peer[3], Endpoint::SwitchPort(1, PortId::new(0)));
        assert_eq!(
            f.switch_peer[0][3],
            Some(Endpoint::SwitchPort(1, PortId::new(4)))
        );
    }

    #[test]
    fn from_spec_builds_chains_and_stars() {
        let cfg = ClusterConfig::hardware();
        let chain = Fabric::from_spec(cfg.clone(), &TopologySpec::chain(4, &[1, 0, 0, 1]), 1);
        assert_eq!(chain.nodes(), 2);
        assert_eq!(chain.switches_len(), 4);
        let star = Fabric::from_spec(cfg, &TopologySpec::star(3, 2), 1);
        assert_eq!(star.nodes(), 6);
        assert_eq!(star.switches_len(), 4);
    }

    #[test]
    fn build_matches_the_dedicated_constructors() {
        let cfg = ClusterConfig::hardware;
        let t = rperf_sim::SimTime::from_us(5);
        let same = |a: &Fabric, b: &Fabric| {
            assert_eq!(a.nodes(), b.nodes());
            assert_eq!(a.switches_len(), b.switches_len());
            for i in 0..a.nodes() {
                assert_eq!(a.clock(i).read(t), b.clock(i).read(t));
            }
        };
        same(
            &FabricBuilder::new(cfg(), 7).build(&Topology::DirectPair),
            &Fabric::direct_pair(cfg(), 7),
        );
        same(
            &FabricBuilder::new(cfg(), 7).build(&Topology::SingleSwitch { hosts: 5 }),
            &Fabric::single_switch(cfg(), 5, 7),
        );
        same(
            &FabricBuilder::new(cfg(), 7).build(&Topology::TwoSwitch {
                upstream: 3,
                downstream: 4,
            }),
            &Fabric::two_switch(cfg(), 3, 4, 7),
        );
        same(
            &FabricBuilder::new(cfg(), 7).build(&Topology::Spec(TopologySpec::chain(2, &[1, 1]))),
            &Fabric::from_spec(cfg(), &TopologySpec::chain(2, &[1, 1]), 7),
        );
    }

    #[test]
    fn fattree_raises_the_port_budget_to_the_radix() {
        use rperf_subnet::FatTreeParams;
        // 128 hosts over 16 leaves + 4 spines; the 16-port spines exceed
        // the hardware profile's 12-port switch, so the builder bumps the
        // budget.
        let ft = FatTreeParams::new(8, 2, 2);
        let f = FabricBuilder::new(ClusterConfig::hardware(), 1).build(&Topology::FatTree(ft));
        assert_eq!(f.nodes(), 128);
        assert_eq!(f.switches_len(), 20);
        assert_eq!(f.config().switch.ports, 16);
        // Every switch can forward to every host.
        for sw in 0..f.switches_len() {
            assert_eq!(f.switch(sw).forwarding().len(), 128);
        }
    }

    #[test]
    fn fattree_three_tier_builds_end_to_end() {
        use rperf_subnet::FatTreeParams;
        let ft = FatTreeParams::new(4, 3, 1);
        let topo = Topology::FatTree(ft);
        assert_eq!(topo.hosts(), 16);
        assert_eq!(topo.switches(), 20);
        let f = FabricBuilder::new(ClusterConfig::hardware(), 1).build(&topo);
        assert_eq!(f.nodes(), 16);
        // The 12-port profile already covers a radix-4 tree: no bump.
        assert_eq!(f.config().switch.ports, 12);
        // Hosts 0 and 1 share edge switch 0; host 15 is cross-pod.
        assert_eq!(f.rnic_peer[0], Endpoint::SwitchPort(0, PortId::new(0)));
        assert_eq!(f.rnic_peer[1], Endpoint::SwitchPort(0, PortId::new(1)));
        assert_eq!(f.rnic_peer[15], Endpoint::SwitchPort(7, PortId::new(1)));
    }

    #[test]
    #[should_panic(expected = "invalid fat-tree parameters")]
    fn fattree_rejects_odd_k() {
        use rperf_subnet::FatTreeParams;
        let _ = FabricBuilder::new(ClusterConfig::hardware(), 1)
            .build(&Topology::FatTree(FatTreeParams::new(5, 2, 1)));
    }

    #[test]
    #[should_panic(expected = "unplannable")]
    fn from_spec_rejects_overloaded_switches() {
        let _ = Fabric::from_spec(
            ClusterConfig::hardware(),
            &TopologySpec::single_switch(20),
            1,
        );
    }
}
