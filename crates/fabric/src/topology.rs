//! Fabric construction and device wiring.

use std::borrow::Cow;
use std::sync::Arc;

use rperf_host::TscClock;
use rperf_model::config::RnicConfig;
use rperf_model::{ClusterConfig, Lid, NodeId, PortId};
use rperf_rnic::Rnic;
use rperf_sim::SimRng;
use rperf_subnet::{plan, FatTreeParams, TopologySpec};
use rperf_switch::{CreditLedger, ForwardingTable, Switch};

/// A topology selector covering every fabric shape the suite builds,
/// behind one entry point ([`FabricBuilder::build`]).
///
/// The back-to-back pair is cabled directly; every switched topology is
/// wired by the subnet planner from its [`Topology::to_spec`] graph. The
/// two racks are spec-grammar sugar for that graph.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Topology {
    /// Two hosts cabled back-to-back (no switch).
    DirectPair,
    /// `hosts` hosts behind a single ToR switch: the planned
    /// [`TopologySpec::single_switch`].
    SingleSwitch {
        /// Number of hosts on the switch.
        hosts: usize,
    },
    /// Two switches in series (the paper's multi-hop setup): the planned
    /// two-switch [`TopologySpec::chain`].
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

    /// The switch graph the planner wires: the rack lowers to
    /// `TopologySpec::single_switch(hosts)`, the two switches in series
    /// to `TopologySpec::chain(2, &[upstream, downstream])`, a fat tree
    /// to its generated graph. `None` for the back-to-back pair, which
    /// has no switch.
    ///
    /// # Panics
    ///
    /// Panics if fat-tree parameters fail [`FatTreeParams::validate`].
    pub fn to_spec(&self) -> Option<Cow<'_, TopologySpec>> {
        Some(match self {
            Topology::DirectPair => return None,
            Topology::SingleSwitch { hosts } => Cow::Owned(TopologySpec::single_switch(*hosts)),
            Topology::TwoSwitch {
                upstream,
                downstream,
            } => Cow::Owned(TopologySpec::chain(2, &[*upstream, *downstream])),
            Topology::Spec(spec) => Cow::Borrowed(spec),
            Topology::FatTree(ft) => Cow::Owned(ft.spec()),
        })
    }
}

/// The RNG fork salt of switch `index`: the racks keep the salts their
/// dedicated constructors once used (999; 998 then 997), so their runs
/// stay bit-identical, and every other switch forks at 900 + index.
fn switch_salt(topo: &Topology, index: usize) -> u64 {
    match topo {
        Topology::SingleSwitch { .. } => 999,
        Topology::TwoSwitch { .. } => 998 - index as u64,
        _ => 900 + index as u64,
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
/// Build one with [`FabricBuilder`], or for the common shapes with the
/// shorthands [`Fabric::direct_pair`], [`Fabric::single_switch`] and
/// [`Fabric::from_spec`].
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
        FabricBuilder::new(cfg, seed).build(&Topology::DirectPair)
    }

    /// `nodes` hosts behind a single ToR switch.
    ///
    /// Node `i` attaches to switch port `i` and owns LID `i + 1`.
    ///
    /// # Panics
    ///
    /// Panics if `nodes` is zero or exceeds the switch port count.
    pub fn single_switch(cfg: ClusterConfig, nodes: usize, seed: u64) -> Fabric {
        FabricBuilder::new(cfg, seed).build(&Topology::SingleSwitch { hosts: nodes })
    }

    /// Builds a fabric for an arbitrary planned topology (chains, stars,
    /// custom graphs) with default device configurations.
    ///
    /// # Panics
    ///
    /// Panics if the topology cannot be planned against the configured
    /// switch port budget.
    pub fn from_spec(cfg: ClusterConfig, spec: &TopologySpec, seed: u64) -> Fabric {
        FabricBuilder::new(cfg, seed).build(&Topology::Spec(spec.clone()))
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
            clocks.push(TscClock::new(
                self.cfg.host.tsc_ghz,
                rng.fork(200 + i as u64).next_u64(),
            ));
        }
        (rnics, clocks)
    }

    /// Builds the fabric for any [`Topology`]. The back-to-back pair is
    /// cabled directly; every switched topology is planned and wired from
    /// its [`Topology::to_spec`] graph. A fat tree first raises the port
    /// budget to its radix if the configured budget is smaller (a k = 8
    /// leaf–spine needs 16-port spines where the paper's hardware profile
    /// models a 12-port SX6012).
    ///
    /// # Panics
    ///
    /// Panics if fat-tree parameters fail [`FatTreeParams::validate`]
    /// (which also bounds the radix by the `u8` port-number space), or if
    /// the graph cannot be planned against the switch port budget (see
    /// `rperf_subnet::SubnetError`).
    pub fn build(mut self, topo: &Topology) -> Fabric {
        let Some(spec) = topo.to_spec() else {
            return self.direct_pair();
        };
        if let Topology::FatTree(ft) = topo {
            self.cfg.switch.ports = self.cfg.switch.ports.max(ft.radix() as u8);
        }
        self.planned(topo, &spec)
    }

    /// Cables the back-to-back two-host fabric.
    fn direct_pair(self) -> Fabric {
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

    /// Wires `topo`'s switch graph `spec`: the subnet planner assigns
    /// LIDs and ports (hosts take the low ports of their switch in host
    /// order, trunks the next ones) and computes shortest-path
    /// forwarding. Switch `i` forks its RNG at `switch_salt(topo, i)`,
    /// after every node's forks.
    fn planned(self, topo: &Topology, spec: &TopologySpec) -> Fabric {
        let subnet = plan(spec, self.cfg.switch.ports)
            .unwrap_or_else(|e| panic!("unplannable topology: {e}"));
        let lanes = self.cfg.sl2vl.lanes();
        let mut rng = SimRng::new(self.seed);
        let (mut rnics, clocks) = self.make_nodes(spec.hosts(), &mut rng);
        let ports = self.cfg.switch.ports as usize;
        // A switch input buffer advertises one buffer per lane.
        let grant = CreditLedger::new(lanes, self.cfg.switch.input_buffer_bytes);

        // One switch-config allocation shared by every switch.
        let sw_cfg = Arc::new(self.cfg.switch.clone());
        let mut switches: Vec<Switch> = (0..spec.switches())
            .map(|i| {
                Switch::new(
                    Arc::clone(&sw_cfg),
                    lanes,
                    self.cfg.link.data_rate(),
                    rng.fork(switch_salt(topo, i)),
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
    #[should_panic(expected = "unplannable topology")]
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
            .build(&Topology::SingleSwitch { hosts: 4 });
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
        let cfg = ClusterConfig::hardware;
        let two = Topology::TwoSwitch {
            upstream: 3,
            downstream: 4,
        };
        for f in [
            Fabric::from_spec(cfg(), &TopologySpec::chain(2, &[3, 4]), 1),
            FabricBuilder::new(cfg(), 1).build(&two),
        ] {
            assert_eq!(f.nodes(), 7);
            assert_eq!(f.switches_len(), 2);
            // Hosts take the low ports; the trunk follows them, on port 3
            // upstream and port 4 downstream.
            assert_eq!(f.rnic_peer[0], Endpoint::SwitchPort(0, PortId::new(0)));
            assert_eq!(f.rnic_peer[3], Endpoint::SwitchPort(1, PortId::new(0)));
            let (up, down) = (PortId::new(3), PortId::new(4));
            assert_eq!(f.switch_peer[0][3], Some(Endpoint::SwitchPort(1, down)));
            assert_eq!(f.switch_peer[1][4], Some(Endpoint::SwitchPort(0, up)));
            // Upstream node 0 is local to switch 0, remote to switch 1;
            // downstream node 3 the other way round.
            assert_eq!(
                f.switch(0).forwarding().route(f.lid_of(0)),
                Some(PortId::new(0))
            );
            assert_eq!(f.switch(1).forwarding().route(f.lid_of(0)), Some(down));
            assert_eq!(f.switch(0).forwarding().route(f.lid_of(3)), Some(up));
        }
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
    fn racks_wire_exactly_like_their_spec_forms() {
        let cfg = ClusterConfig::hardware;
        let t = rperf_sim::SimTime::from_us(5);
        let single = [1, 2, 7, 12].map(|hosts| {
            (
                Topology::SingleSwitch { hosts },
                TopologySpec::single_switch(hosts),
            )
        });
        let two = [(1, 1), (3, 4), (0, 2), (11, 11)].map(|(upstream, downstream)| {
            (
                Topology::TwoSwitch {
                    upstream,
                    downstream,
                },
                TopologySpec::chain(2, &[upstream, downstream]),
            )
        });
        for (rack, spec) in single.into_iter().chain(two) {
            let a = FabricBuilder::new(cfg(), 7).build(&rack);
            let b = Fabric::from_spec(cfg(), &spec, 7);
            assert_eq!(a.rnic_peer, b.rnic_peer, "{rack:?}");
            assert_eq!(a.switch_peer, b.switch_peer, "{rack:?}");
            assert_eq!(a.switches_len(), rack.switches());
            for sw in 0..a.switches_len() {
                let entries = |f: &Fabric| f.switch(sw).forwarding().entries().collect::<Vec<_>>();
                assert_eq!(entries(&a), entries(&b), "{rack:?} switch {sw}");
            }
            // Node forks come first on every path.
            for i in 0..a.nodes() {
                assert_eq!(a.clock(i).read(t), b.clock(i).read(t));
            }
        }
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
