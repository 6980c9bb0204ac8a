//! Every experimental setup in the paper's evaluation, as declarative
//! scenario tables.
//!
//! Each setup is a [`ScenarioSpec`](crate::spec::ScenarioSpec) built by
//! the constant tables in
//! [`specs`]; callers pick the profile, policy, window and seed and run
//! it through the one generic executor ([`crate::executor::execute`]).
//! [`converged_outcome`] folds an outcome into the converged figures'
//! shape. The figure harness in `rperf-bench` sweeps parameters and
//! averages over seeds (the paper averages three runs).

use crate::executor::ScenarioOutcome;
use crate::rperf_app::RPerfReport;

/// Outcome of a converged-traffic run.
#[derive(Debug, Clone)]
pub struct ConvergedOutcome {
    /// The LSG's RTT distribution measured by RPerf (absent if no LSG ran).
    pub lsg: Option<RPerfReport>,
    /// Goodput of each ordinary BSG, in Gbps.
    pub per_bsg_gbps: Vec<f64>,
    /// Goodput of the pretend LSG (gaming runs only).
    pub pretend_gbps: Option<f64>,
    /// Aggregate source goodput in Gbps.
    pub total_gbps: f64,
}

/// Collapses a scenario outcome into the converged-figure shape: BSG
/// goodputs in role order, the pretend LSG and RPerf reports if present,
/// and the aggregate.
pub fn converged_outcome(out: &ScenarioOutcome) -> ConvergedOutcome {
    use crate::executor::RoleReport;
    let mut lsg = None;
    let mut per_bsg_gbps = Vec::new();
    let mut pretend_gbps = None;
    for (_, report) in &out.reports {
        match report {
            RoleReport::BsgGbps(g) => per_bsg_gbps.push(*g),
            RoleReport::PretendGbps(g) => pretend_gbps = Some(*g),
            RoleReport::RPerf(r) => lsg = Some(r.clone()),
            _ => {}
        }
    }
    let total_gbps = per_bsg_gbps.iter().sum::<f64>() + pretend_gbps.unwrap_or(0.0);
    ConvergedOutcome {
        lsg,
        per_bsg_gbps,
        pretend_gbps,
        total_gbps,
    }
}

/// The paper's experimental setups as plain-data scenario tables.
///
/// Each function returns a [`ScenarioSpec`] with the suite's default run
/// window; callers pick warm-up, measurement window, configuration and
/// seed at execution time. The node layouts, service levels and RPerf
/// seed salts reproduce the historical hand-coded setups exactly (the
/// golden figure test in `rperf-bench` pins this byte-for-byte).
pub mod specs {
    use rperf_fabric::Topology;
    use rperf_model::config::SchedPolicy;
    use rperf_subnet::TopologySpec;

    use crate::spec::{QosMode, Role, ScenarioSpec, SlSpec};

    /// Fig. 4: RPerf one-to-one, with or without the switch.
    pub fn one_to_one_rperf(through_switch: bool, payload: u64) -> ScenarioSpec {
        let topology = if through_switch {
            Topology::SingleSwitch { hosts: 2 }
        } else {
            Topology::DirectPair
        };
        ScenarioSpec::new("one-to-one-rperf", topology)
            .with_role(
                0,
                Role::RPerf {
                    target: 1,
                    payload,
                    sl: SlSpec::Auto,
                    seed_salt: 0xA5A5,
                },
            )
            .with_role(1, Role::Sink)
    }

    /// Fig. 5: one BSG's goodput, with or without the switch.
    pub fn one_to_one_bandwidth(through_switch: bool, payload: u64) -> ScenarioSpec {
        let topology = if through_switch {
            Topology::SingleSwitch { hosts: 2 }
        } else {
            Topology::DirectPair
        };
        ScenarioSpec::new("one-to-one-bandwidth", topology)
            .with_role(
                0,
                Role::Bsg {
                    target: 1,
                    payload,
                    window: 128,
                    batch: 1,
                    sl: SlSpec::Auto,
                },
            )
            .with_role(1, Role::Sink)
    }

    /// Fig. 6 (perftest side): software ping-pong through the switch.
    pub fn one_to_one_perftest(payload: u64) -> ScenarioSpec {
        ScenarioSpec::new("one-to-one-perftest", Topology::SingleSwitch { hosts: 2 })
            .with_role(0, Role::Perftest { peer: 1, payload })
            .with_role(1, Role::PerftestServer { peer: 0, payload })
    }

    /// Fig. 6 (qperf side): post-poll WRITE through the switch.
    pub fn one_to_one_qperf(payload: u64) -> ScenarioSpec {
        ScenarioSpec::new("one-to-one-qperf", Topology::SingleSwitch { hosts: 2 })
            .with_role(0, Role::Qperf { peer: 1, payload })
            .with_role(1, Role::Sink)
    }

    /// The converged many-to-one setup of Sections VII and VIII: `n_bsgs`
    /// bandwidth flows plus optionally an RPerf-instrumented LSG, all
    /// targeting one destination; `qos` selects the Section VIII-C
    /// configurations (a gamed setup adds the pretend LSG).
    ///
    /// Node layout: BSGs first, then (gaming runs) the pretend LSG, then
    /// the LSG, destination last — seven nodes in the paper's full setup.
    pub fn converged(
        n_bsgs: usize,
        bsg_payload: u64,
        bsg_batch: usize,
        with_lsg: bool,
        qos: QosMode,
    ) -> ScenarioSpec {
        let pretend = qos == QosMode::DedicatedSlWithPretend;
        let n_nodes = n_bsgs + usize::from(pretend) + usize::from(with_lsg) + 1;
        let dest = n_nodes - 1;
        let mut spec =
            ScenarioSpec::new("converged", Topology::SingleSwitch { hosts: n_nodes }).with_qos(qos);
        for b in 0..n_bsgs {
            spec = spec.with_role(
                b,
                Role::Bsg {
                    target: dest,
                    payload: bsg_payload,
                    window: 128,
                    batch: bsg_batch,
                    sl: SlSpec::Auto,
                },
            );
        }
        if pretend {
            spec = spec.with_role(
                n_bsgs,
                Role::PretendLsg {
                    target: dest,
                    chunk: 256,
                    sl: SlSpec::Auto,
                },
            );
        }
        if with_lsg {
            spec = spec.with_role(
                n_bsgs + usize::from(pretend),
                Role::RPerf {
                    target: dest,
                    payload: 64,
                    sl: SlSpec::Auto,
                    seed_salt: 0x15C,
                },
            );
        }
        spec.with_role(dest, Role::Sink)
    }

    /// The multi-hop setup of Fig. 11: two switches in series; two BSGs
    /// and the LSG upstream, three BSGs downstream, destination
    /// downstream. All BSGs send 4096-byte messages.
    pub fn multihop(policy: SchedPolicy) -> ScenarioSpec {
        let dest = 6;
        let mut spec = ScenarioSpec::new(
            "multihop",
            Topology::TwoSwitch {
                upstream: 3,
                downstream: 4,
            },
        )
        .with_policy(policy);
        for b in [0usize, 1, 3, 4, 5] {
            spec = spec.with_role(
                b,
                Role::Bsg {
                    target: dest,
                    payload: 4096,
                    window: 128,
                    batch: 1,
                    sl: SlSpec::Auto,
                },
            );
        }
        spec.with_role(
            2,
            Role::RPerf {
                target: dest,
                payload: 64,
                sl: SlSpec::Auto,
                seed_salt: 0x2207,
            },
        )
        .with_role(dest, Role::Sink)
    }

    /// Extension setup: the LSG probes a destination across a *chain* of
    /// `n_switches` switches (LSG on the first, destination on the last),
    /// with `bsgs_at_tail` bulk flows local to the destination switch.
    pub fn chain_latency(n_switches: usize, bsgs_at_tail: usize) -> ScenarioSpec {
        assert!(n_switches >= 1, "a chain needs at least one switch");
        let mut hosts = vec![0usize; n_switches];
        hosts[0] = 1; // the LSG
        hosts[n_switches - 1] += bsgs_at_tail + 1; // BSGs + destination
        let topo = TopologySpec::chain(n_switches, &hosts);
        let dest = topo.hosts() - 1;
        let mut spec = ScenarioSpec::new("chain-latency", Topology::Spec(topo)).with_role(
            0,
            Role::RPerf {
                target: dest,
                payload: 64,
                sl: SlSpec::Auto,
                seed_salt: 0xC4A1,
            },
        );
        for b in 1..=bsgs_at_tail {
            spec = spec.with_role(
                b,
                Role::Bsg {
                    target: dest,
                    payload: 4096,
                    window: 128,
                    batch: 1,
                    sl: SlSpec::Auto,
                },
            );
        }
        spec.with_role(dest, Role::Sink)
    }

    /// The Clos victim setup (`fig_clos`): an RPerf-instrumented victim
    /// flow crossing `hops` switches (1, 3 or 5) of a 3-tier `k = 4`
    /// fat-tree while `n_bsgs` bulk flows converge on the same
    /// destination from maximally remote edges (pod-aware placement via
    /// `rperf_workloads::incast_sources`). Probes whether the per-BSG
    /// latency slope measured through one switch stays additive across
    /// a routed multi-hop fabric.
    ///
    /// # Panics
    ///
    /// Panics if the fabric has no pair at `hops` or too few hosts for
    /// `n_bsgs` sources (the k = 4 tree offers 16 hosts).
    pub fn clos_victim(hops: u32, n_bsgs: usize) -> ScenarioSpec {
        let ft = rperf_subnet::FatTreeParams::new(4, 3, 1);
        let (src, dst) = rperf_workloads::pair_at_hops(&ft, hops)
            .unwrap_or_else(|| panic!("no host pair at {hops} hops in a k=4 fat-tree"));
        let mut spec = ScenarioSpec::new("clos-victim", Topology::FatTree(ft)).with_role(
            src,
            Role::RPerf {
                target: dst,
                payload: 64,
                sl: SlSpec::Auto,
                seed_salt: 0xC105,
            },
        );
        // Draw two spares so the victim source can be skipped without
        // shorting the BSG count.
        let sources = rperf_workloads::incast_sources(&ft, dst, n_bsgs + 2);
        for b in sources.into_iter().filter(|&h| h != src).take(n_bsgs) {
            spec = spec.with_role(
                b,
                Role::Bsg {
                    target: dst,
                    payload: 4096,
                    window: 128,
                    batch: 1,
                    sl: SlSpec::Auto,
                },
            );
        }
        spec.with_role(dst, Role::Sink)
    }

    /// Scale-out incast on an arbitrary fat-tree: `n_bsgs` bulk flows
    /// converge from maximally remote edges on the destination of a
    /// cross-fabric RPerf victim pair (maximum hop count for the tier
    /// count: 3 on a leaf–spine, 5 on a 3-tier Clos). `k = 8, tiers = 2,
    /// o = 2` is the 128-host leaf–spine the report's scale row runs.
    ///
    /// # Panics
    ///
    /// Panics on invalid fat-tree parameters or if the fabric has fewer
    /// than `n_bsgs + 2` hosts.
    pub fn fattree_incast(
        k: usize,
        tiers: usize,
        oversubscription: usize,
        n_bsgs: usize,
    ) -> ScenarioSpec {
        let ft = rperf_subnet::FatTreeParams::new(k, tiers, oversubscription);
        let hops = if tiers == 2 { 3 } else { 5 };
        let (src, dst) = rperf_workloads::pair_at_hops(&ft, hops)
            .unwrap_or_else(|| panic!("no {hops}-hop pair in a k={k} {tiers}-tier fat-tree"));
        let mut spec = ScenarioSpec::new("fattree-incast", Topology::FatTree(ft)).with_role(
            src,
            Role::RPerf {
                target: dst,
                payload: 64,
                sl: SlSpec::Auto,
                seed_salt: 0xF128,
            },
        );
        let sources = rperf_workloads::incast_sources(&ft, dst, n_bsgs + 2);
        for b in sources.into_iter().filter(|&h| h != src).take(n_bsgs) {
            spec = spec.with_role(
                b,
                Role::Bsg {
                    target: dst,
                    payload: 4096,
                    window: 128,
                    batch: 1,
                    sl: SlSpec::Auto,
                },
            );
        }
        spec.with_role(dst, Role::Sink)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::executor::{execute, RoleReport};
    use crate::spec::{DeviceProfile, QosMode, Role, ScenarioSpec};
    use rperf_sim::SimDuration;

    /// Runs `table` over a 2 ms window with seed 1.
    fn quick(table: ScenarioSpec) -> ScenarioOutcome {
        execute(&table.with_duration(SimDuration::from_ms(2)), 1)
    }

    fn converged(n_bsgs: usize, with_lsg: bool, qos: QosMode) -> ConvergedOutcome {
        converged_outcome(&quick(specs::converged(n_bsgs, 4096, 1, with_lsg, qos)))
    }

    /// The node-0 probe's RPerf report across an OMNeT-profile chain.
    fn chain(n_switches: usize, bsgs_at_tail: usize) -> RPerfReport {
        let table = specs::chain_latency(n_switches, bsgs_at_tail)
            .with_profile(DeviceProfile::OmnetSimulator);
        quick(table).rperf(0).expect("rperf on node 0").clone()
    }

    /// The 5-hop victim's RPerf report (it probes from host 0, see
    /// `clos_victim_places_roles_pod_aware`) from a 500 µs run, seed 3.
    fn victim(n_bsgs: usize) -> RPerfReport {
        let table = specs::clos_victim(5, n_bsgs).with_duration(SimDuration::from_us(500));
        execute(&table, 3)
            .rperf(0)
            .expect("victim on host 0")
            .clone()
    }

    #[test]
    fn converged_lsg_latency_grows_with_bsgs() {
        let zero = converged(0, true, QosMode::SharedSl);
        let two = converged(2, true, QosMode::SharedSl);
        let five = converged(5, true, QosMode::SharedSl);
        let l0 = zero.lsg.unwrap().summary.p50_us();
        let l2 = two.lsg.unwrap().summary.p50_us();
        let l5 = five.lsg.unwrap().summary.p50_us();
        assert!(l0 < 1.0, "zero-load LSG should be sub-µs, got {l0:.2}");
        assert!(
            l2 > l0 + 2.0,
            "2 BSGs must hurt the LSG: {l2:.2} vs {l0:.2}"
        );
        assert!(l5 > l2 + 5.0, "5 BSGs must hurt more: {l5:.2} vs {l2:.2}");
    }

    #[test]
    fn converged_bandwidth_is_shared_fairly() {
        let out = converged(3, false, QosMode::SharedSl);
        assert_eq!(out.per_bsg_gbps.len(), 3);
        let min = out.per_bsg_gbps.iter().cloned().fold(f64::MAX, f64::min);
        let max = out.per_bsg_gbps.iter().cloned().fold(0.0, f64::max);
        assert!(max - min < 3.0, "unfair shares: {:?}", out.per_bsg_gbps);
        assert!(
            (40.0..56.0).contains(&out.total_gbps),
            "total {:.1}",
            out.total_gbps
        );
    }

    #[test]
    fn chain_latency_grows_per_hop() {
        let one = chain(1, 0).summary.p50_ns();
        let three = chain(3, 0).summary.p50_ns();
        // Each extra switch adds its pipeline twice per RTT (~400 ns).
        let per_hop = (three - one) / 2.0;
        assert!(
            (300.0..600.0).contains(&per_hop),
            "per-hop RTT cost {per_hop:.0} ns (1 switch {one:.0}, 3 switches {three:.0})"
        );
    }

    #[test]
    fn chain_congestion_dominates_path_length() {
        let short_loaded = chain(1, 3).summary.p50_us();
        let long_loaded = chain(3, 3).summary.p50_us();
        // Both are dominated by the 3 tail BSGs' buffers, not the hops.
        assert!(short_loaded > 5.0);
        assert!(
            (long_loaded - short_loaded).abs() < 0.3 * short_loaded,
            "short {short_loaded:.1} vs long {long_loaded:.1}"
        );
    }

    #[test]
    fn dedicated_sl_protects_the_lsg() {
        let shared = converged(5, true, QosMode::SharedSl);
        let dedicated = converged(5, true, QosMode::DedicatedSl);
        let l_shared = shared.lsg.unwrap().summary.p50_us();
        let l_ded = dedicated.lsg.unwrap().summary.p50_us();
        assert!(
            l_ded < l_shared / 5.0,
            "dedicated SL must slash LSG latency: {l_ded:.2} vs {l_shared:.2}"
        );
        // And it must not cost aggregate bandwidth (paper take-away).
        assert!(
            (dedicated.total_gbps - shared.total_gbps).abs() < 5.0,
            "dedicated {:.1} vs shared {:.1}",
            dedicated.total_gbps,
            shared.total_gbps
        );
    }

    #[test]
    fn clos_victim_places_roles_pod_aware() {
        // 1 hop: victim pair shares edge 0; 5 hops: crosses pods.
        for (hops, src, dst) in [(1, 0usize, 1usize), (3, 0, 2), (5, 0, 4)] {
            let table = specs::clos_victim(hops, 4);
            table.validate().unwrap();
            assert_eq!(table.topology.hosts(), 16);
            assert_eq!(table.topology.switches(), 20);
            let rperf = table
                .roles
                .iter()
                .find(|r| matches!(r.role, Role::RPerf { target, .. } if target == dst))
                .unwrap_or_else(|| panic!("victim {src}->{dst} missing at {hops} hops"));
            assert_eq!(rperf.node, src);
            let bsgs = table
                .roles
                .iter()
                .filter(|r| matches!(r.role, Role::Bsg { target, .. } if target == dst))
                .count();
            assert_eq!(bsgs, 4, "exactly n_bsgs bulk flows at {hops} hops");
        }
    }

    #[test]
    fn clos_victim_latency_reflects_converging_load() {
        // A short end-to-end run across the routed fat-tree: the victim
        // completes probes at every depth, and adding bulk flows at 5
        // hops cannot make it faster.
        let quiet = victim(0);
        assert!(quiet.iterations > 0, "victim must complete probes");
        let loaded = victim(4);
        assert!(
            loaded.summary.p50_us() >= quiet.summary.p50_us(),
            "converging load cannot speed the victim up: {:.2} vs {:.2}",
            loaded.summary.p50_us(),
            quiet.summary.p50_us()
        );
    }

    #[test]
    fn fattree_incast_scales_to_the_128_host_leaf_spine() {
        // The report's scale row: k = 8, o = 2 leaf-spine — 128 hosts
        // behind 16 leaves and 4 spines, victim crossing the spine.
        let table = specs::fattree_incast(8, 2, 2, 8);
        table.validate().unwrap();
        assert_eq!(table.topology.hosts(), 128);
        assert_eq!(table.topology.switches(), 20);
        assert_eq!(table.roles.len(), 10, "victim + 8 BSGs + sink");
        // A short run completes probes end to end across the spine.
        let out = execute(&table.with_duration(SimDuration::from_us(300)), 1);
        let victim = out
            .reports
            .iter()
            .find_map(|(n, r)| match r {
                RoleReport::RPerf(rep) => Some((n, rep)),
                _ => None,
            })
            .expect("victim report");
        assert!(victim.1.iterations > 0, "victim completed no probes");
    }
}
