//! Parameterized Clos / fat-tree topology generators.
//!
//! Two shapes, both expressed as plain [`TopologySpec`] graphs so the
//! planner, the fabric builder and the forwarding machinery need no
//! topology-specific code:
//!
//! * **2-tier leaf–spine** (`tiers = 2`): `k/2` spines, `o·k` leaves.
//!   Every leaf has one uplink per spine and `o·k/2` hosts, so the
//!   edge oversubscription ratio (host bandwidth : uplink bandwidth) is
//!   exactly `o`. Hosts total `o²k²/2` — `k = 8, o = 2` is the 128-host
//!   fabric whose 12-port leaves match the paper's SX6012.
//! * **3-tier fat-tree** (`tiers = 3`): the classic k-ary Clos — `k`
//!   pods of `k/2` edge and `k/2` aggregation switches plus `(k/2)²`
//!   cores, with `o·k/2` hosts per edge switch. Hosts total `o·k³/4`
//!   (`k = 16, o = 1` → 1024 hosts). Host pairs sit 1 hop apart on the
//!   same edge switch, 3 hops within a pod and 5 hops across pods.
//!
//! Switch indices are laid out tier by tier — edges (leaves) first, then
//! aggregation switches (3-tier only), then spines/cores — and hosts
//! attach in edge-switch order, so host `h` sits on edge switch
//! `h / hosts_per_edge`. The layout is a pure function of the
//! parameters: generating the same `FatTreeParams` twice yields
//! structurally identical specs (and therefore byte-identical plans).

use crate::planner::MAX_HOSTS;
use crate::spec::TopologySpec;

/// Parameters of a Clos / fat-tree fabric.
///
/// # Examples
///
/// ```
/// use rperf_subnet::FatTreeParams;
///
/// // The 128-host leaf-spine fabric with 12-port leaf switches.
/// let ft = FatTreeParams::new(8, 2, 2);
/// assert_eq!(ft.hosts(), 128);
/// assert_eq!(ft.radix(), 16); // spine radix dominates
///
/// // The full 1024-host 3-tier fat-tree.
/// let big = FatTreeParams::new(16, 3, 1);
/// assert_eq!(big.hosts(), 1024);
/// assert_eq!(big.switches(), 320);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FatTreeParams {
    /// The arity `k` (must be even and at least 2).
    pub k: usize,
    /// Number of switch tiers: 2 (leaf–spine) or 3 (pods + core).
    pub tiers: usize,
    /// Edge oversubscription ratio `o` (1 = non-blocking edge tier).
    pub oversubscription: usize,
}

impl FatTreeParams {
    /// Creates the parameter set (no validation; see
    /// [`FatTreeParams::validate`]).
    pub const fn new(k: usize, tiers: usize, oversubscription: usize) -> Self {
        FatTreeParams {
            k,
            tiers,
            oversubscription,
        }
    }

    /// Checks the parameters describe a constructible fabric.
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first violation:
    /// odd or zero `k`, a tier count other than 2 or 3, a zero
    /// oversubscription ratio, a radix beyond the 255 ports a port
    /// number addresses, or more hosts than unicast LIDs
    /// ([`MAX_HOSTS`]).
    pub fn validate(&self) -> Result<(), String> {
        if self.k == 0 || !self.k.is_multiple_of(2) {
            return Err(format!(
                "fattree k must be even and positive, got {}",
                self.k
            ));
        }
        if self.tiers != 2 && self.tiers != 3 {
            return Err(format!("fattree tiers must be 2 or 3, got {}", self.tiers));
        }
        if self.oversubscription == 0 {
            return Err("fattree oversubscription must be at least 1".into());
        }
        // The radix is at least `k` and at least `o`, so bounding both
        // first keeps the shape formulas from overflowing.
        let max_ports = u8::MAX as usize;
        if self.k > max_ports || self.oversubscription > max_ports || self.radix() > max_ports {
            return Err(format!(
                "fattree k = {}, oversubscription = {} needs switches of more than {max_ports} ports",
                self.k, self.oversubscription
            ));
        }
        if self.hosts() > MAX_HOSTS {
            return Err(format!(
                "fattree has {} hosts, more than the {MAX_HOSTS} unicast LIDs",
                self.hosts()
            ));
        }
        Ok(())
    }

    fn assert_valid(&self) {
        if let Err(e) = self.validate() {
            panic!("invalid fat-tree parameters: {e}");
        }
    }

    /// Hosts attached to each edge (leaf) switch: `o·k/2`.
    pub fn hosts_per_edge(&self) -> usize {
        self.oversubscription * self.k / 2
    }

    /// Number of edge (leaf) switches.
    pub fn edges(&self) -> usize {
        match self.tiers {
            2 => self.oversubscription * self.k,
            _ => self.k * self.k / 2,
        }
    }

    /// Total hosts.
    pub fn hosts(&self) -> usize {
        self.edges() * self.hosts_per_edge()
    }

    /// Total switches across all tiers.
    pub fn switches(&self) -> usize {
        match self.tiers {
            // Leaves + spines.
            2 => self.edges() + self.k / 2,
            // Edges + aggregations + cores.
            _ => self.edges() + self.k * self.k / 2 + (self.k / 2) * (self.k / 2),
        }
    }

    /// The pod a host belongs to (3-tier; a 2-tier fabric is one pod).
    pub fn pod_of_host(&self, host: usize) -> usize {
        if self.tiers == 2 {
            0
        } else {
            host / (self.hosts_per_edge() * self.k / 2)
        }
    }

    /// The edge-switch index (within `0..edges()`) a host attaches to.
    pub fn edge_of_host(&self, host: usize) -> usize {
        host / self.hosts_per_edge()
    }

    /// The largest port count any switch needs: the max over edge radix
    /// (`hosts_per_edge + k/2` uplinks), aggregation radix (`k`) and
    /// spine/core radix.
    pub fn radix(&self) -> usize {
        let edge = self.hosts_per_edge() + self.k / 2;
        let top = match self.tiers {
            // A spine sees one link per leaf.
            2 => self.edges(),
            // Aggregations and cores both have k ports.
            _ => self.k,
        };
        edge.max(top)
    }

    /// Builds the explicit switch graph.
    ///
    /// # Panics
    ///
    /// Panics if the parameters fail [`FatTreeParams::validate`].
    pub fn spec(&self) -> TopologySpec {
        self.assert_valid();
        let half = self.k / 2;
        let edges = self.edges();
        let hosts_per_edge = self.hosts_per_edge();
        let mut attachments = Vec::with_capacity(self.hosts());
        for edge in 0..edges {
            attachments.extend(std::iter::repeat_n(edge, hosts_per_edge));
        }
        let mut trunks = Vec::new();
        match self.tiers {
            2 => {
                // Spines sit after the leaves; every leaf uplinks once to
                // every spine.
                let spine0 = edges;
                for leaf in 0..edges {
                    for s in 0..half {
                        trunks.push((leaf, spine0 + s));
                    }
                }
            }
            _ => {
                // Layout: [edges][aggregations][cores]. Edge e lives in
                // pod e / half; aggregation a = agg0 + pod*half + j is the
                // j-th aggregation of its pod; core i*half + j attaches to
                // aggregation j of every pod.
                let agg0 = edges;
                let core0 = edges + self.k * half;
                for pod in 0..self.k {
                    for e in 0..half {
                        let edge = pod * half + e;
                        for j in 0..half {
                            trunks.push((edge, agg0 + pod * half + j));
                        }
                    }
                    for j in 0..half {
                        let agg = agg0 + pod * half + j;
                        for i in 0..half {
                            trunks.push((agg, core0 + j * half + i));
                        }
                    }
                }
            }
        }
        TopologySpec::custom(self.switches(), attachments, trunks)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn two_tier_shape_matches_the_formulas() {
        let ft = FatTreeParams::new(8, 2, 2);
        assert_eq!(ft.hosts(), 128);
        assert_eq!(ft.edges(), 16);
        assert_eq!(ft.switches(), 20);
        // 12-port leaves (8 hosts + 4 uplinks), 16-port spines.
        assert_eq!(ft.hosts_per_edge() + ft.k / 2, 12);
        assert_eq!(ft.radix(), 16);
        let spec = ft.spec();
        assert_eq!(spec.hosts(), 128);
        assert_eq!(spec.switches(), 20);
        for leaf in 0..16 {
            assert_eq!(spec.ports_needed(leaf), 12);
        }
        for spine in 16..20 {
            assert_eq!(spec.ports_needed(spine), 16);
        }
    }

    #[test]
    fn three_tier_shape_matches_the_formulas() {
        let ft = FatTreeParams::new(4, 3, 1);
        assert_eq!(ft.hosts(), 16);
        assert_eq!(ft.edges(), 8);
        assert_eq!(ft.switches(), 20);
        assert_eq!(ft.radix(), 4);
        let spec = ft.spec();
        assert_eq!(spec.hosts(), 16);
        // Every switch in a k=4, o=1 fat-tree has exactly 4 used ports.
        for sw in 0..20 {
            assert_eq!(spec.ports_needed(sw), 4, "switch {sw}");
        }
        // k = 16 scales to the full 1024-host datacenter.
        let big = FatTreeParams::new(16, 3, 1);
        assert_eq!(big.hosts(), 1024);
        assert_eq!(big.switches(), 320);
        assert_eq!(big.radix(), 16);
    }

    #[test]
    fn pod_and_edge_of_host() {
        let ft = FatTreeParams::new(4, 3, 1);
        // 2 hosts per edge, 2 edges per pod -> 4 hosts per pod.
        assert_eq!(ft.pod_of_host(0), 0);
        assert_eq!(ft.pod_of_host(3), 0);
        assert_eq!(ft.pod_of_host(4), 1);
        assert_eq!(ft.edge_of_host(0), 0);
        assert_eq!(ft.edge_of_host(2), 1);
        assert_eq!(ft.edge_of_host(15), 7);
    }

    #[test]
    fn invalid_parameters_are_described() {
        assert!(FatTreeParams::new(3, 2, 1)
            .validate()
            .unwrap_err()
            .contains("even"));
        assert!(FatTreeParams::new(0, 2, 1).validate().is_err());
        assert!(FatTreeParams::new(4, 4, 1)
            .validate()
            .unwrap_err()
            .contains("tiers"));
        assert!(FatTreeParams::new(4, 2, 0)
            .validate()
            .unwrap_err()
            .contains("oversubscription"));
    }

    #[test]
    fn radix_is_bounded_by_the_port_number_space() {
        // k = 300 leaf-spine: 300-port spines.
        assert!(FatTreeParams::new(300, 2, 1)
            .validate()
            .unwrap_err()
            .contains("more than 255 ports"));
        // A huge oversubscription on a small k, and sizes whose shape
        // formulas would overflow, are rejected the same way.
        assert!(FatTreeParams::new(4, 2, 200).validate().is_err());
        assert!(FatTreeParams::new(1 << 40, 3, 1).validate().is_err());
        assert!(FatTreeParams::new(4, 3, usize::MAX).validate().is_err());
        // The largest leaf-spine whose spines fit 255 ports is fine.
        let widest = FatTreeParams::new(254, 2, 1);
        assert_eq!(widest.radix(), 254);
        assert!(widest.validate().is_ok());
    }

    #[test]
    fn hosts_are_bounded_by_the_unicast_lids() {
        // k = 64, 3 tiers: 65,536 hosts on 64-port switches.
        let big = FatTreeParams::new(64, 3, 1);
        assert!(big.radix() <= 255);
        assert!(big
            .validate()
            .unwrap_err()
            .contains("65536 hosts, more than the 49151 unicast LIDs"));
        // k = 56: 43,904 hosts fit.
        let fits = FatTreeParams::new(56, 3, 1);
        assert_eq!(fits.hosts(), 43_904);
        assert!(fits.validate().is_ok());
    }

    #[test]
    #[should_panic(expected = "invalid fat-tree parameters")]
    fn spec_panics_on_invalid_parameters() {
        let _ = FatTreeParams::new(5, 2, 1).spec();
    }

    #[test]
    fn generation_is_reproducible() {
        let a = FatTreeParams::new(8, 3, 1).spec();
        let b = FatTreeParams::new(8, 3, 1).spec();
        assert_eq!(a, b);
    }
}
