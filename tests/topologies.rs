//! Integration tests for subnet-planned topologies: traffic crosses
//! chains and stars correctly, and hop counts show up in latency.

use rperf::scenario::specs;
use rperf::{execute, DeviceProfile, RPerf, RPerfConfig};
use rperf_fabric::{Fabric, Sim};
use rperf_model::ClusterConfig;
use rperf_sim::{SimDuration, SimTime};
use rperf_subnet::TopologySpec;
use rperf_workloads::Sink;

#[test]
fn star_topology_carries_probes_through_the_core() {
    // Two leaf switches hanging off a core: leaf-to-leaf traffic crosses
    // three switches.
    let topo = TopologySpec::star(2, 1); // hosts: node 0 on leaf 1, node 1 on leaf 2
    let fabric = Fabric::from_spec(ClusterConfig::omnet_simulator(), &topo, 5);
    let mut sim = Sim::new(fabric);
    sim.enable_trace(50_000);
    sim.add_app(
        0,
        Box::new(RPerf::new(
            RPerfConfig::new(1).with_warmup(SimDuration::from_us(20)),
        )),
    );
    sim.add_app(1, Box::new(Sink::new()));
    sim.start();
    sim.run_until(SimTime::from_us(500));

    let report = sim.app_as::<RPerf>(0).report();
    assert!(report.iterations > 100, "{} iterations", report.iterations);
    // Three switches ≈ zero-load single-switch RTT + 2 × ~0.4 µs.
    let p50 = report.summary.p50_us();
    assert!(
        (1.0..1.7).contains(&p50),
        "3-switch star RTT {p50:.2} µs out of band"
    );

    // The trace confirms each probe crossed exactly three switches.
    let trace = sim.trace().expect("enabled");
    let probe = trace
        .packets()
        .into_iter()
        .find(|&p| trace.hop_count(p) > 0)
        .expect("a probe crossed the fabric");
    assert_eq!(trace.hop_count(probe), 3, "leaf → core → leaf");
}

#[test]
fn chain_zero_load_latency_is_linear_in_hops() {
    let p: Vec<f64> = (1..=4)
        .map(|n| {
            let table = specs::chain_latency(n, 0)
                .with_profile(DeviceProfile::OmnetSimulator)
                .with_duration(SimDuration::from_ms(1));
            execute(&table, 8)
                .rperf(0)
                .expect("rperf on node 0")
                .summary
                .p50_us()
        })
        .collect();
    // Successive differences are one extra switch RTT each — all equal.
    let d1 = p[1] - p[0];
    let d2 = p[2] - p[1];
    let d3 = p[3] - p[2];
    for d in [d1, d2, d3] {
        assert!(
            (0.3..0.55).contains(&d),
            "per-switch RTT increment {d:.3} µs out of band (series {p:?})"
        );
    }
    assert!((d1 - d3).abs() < 0.05, "increments must be equal: {p:?}");
}

#[test]
fn deep_chain_delivers_bulk_traffic_without_loss() {
    use rperf_workloads::{Bsg, BsgConfig};
    // Source on one end of a 4-switch chain, sink on the other.
    let topo = TopologySpec::chain(4, &[1, 0, 0, 1]);
    let fabric = Fabric::from_spec(ClusterConfig::omnet_simulator(), &topo, 6);
    let mut sim = Sim::new(fabric);
    sim.add_app(
        0,
        Box::new(Bsg::new(
            BsgConfig::new(1, 4096).with_warmup(SimDuration::from_us(100)),
        )),
    );
    sim.add_app(1, Box::new(Sink::new()));
    sim.start();
    let end = SimTime::from_us(3_000);
    sim.run_until(end);
    let bsg = sim.app_as::<Bsg>(0);
    let gbps = bsg.gbps_until(end.as_ps());
    // Four store-nothing cut-through hops cost pipeline latency, not
    // bandwidth: the flow still saturates its injection rate.
    assert!(
        gbps > 50.0,
        "bulk goodput across 4 switches {gbps:.1} Gbps too low"
    );
    assert_eq!(sim.rnic(1).stats().recv_autofills, 0);
    // Every switch forwarded every packet exactly once (no loss, no dup).
    let fwd0 = sim.switch(0).stats().forwarded_packets;
    let fwd3 = sim.switch(3).stats().forwarded_packets;
    assert_eq!(fwd0, fwd3, "hop counts must agree along the chain");
}
