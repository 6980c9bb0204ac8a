//! Fabric build and route planning, the set-up layer of every routed
//! scenario.
//!
//! For three fat trees — the 16-host k = 4 Clos, the 128-host k = 8
//! leaf–spine with 2:1 edges and the 1024-host k = 16 Clos — it times
//! `rperf_subnet::plan` on its own and `FabricBuilder::build`, which
//! generates the switch graph, plans it and instantiates every RNIC and
//! switch. The difference between the two is device construction and
//! table programming.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rperf_fabric::{FabricBuilder, Topology};
use rperf_model::ClusterConfig;
use rperf_subnet::FatTreeParams;

const FABRICS: [(&str, FatTreeParams); 3] = [
    ("k4_3tier", FatTreeParams::new(4, 3, 1)),
    ("k8_2tier_o2", FatTreeParams::new(8, 2, 2)),
    ("k16_3tier", FatTreeParams::new(16, 3, 1)),
];

fn bench_build(c: &mut Criterion) {
    let cfg = ClusterConfig::hardware();
    for (name, ft) in FABRICS {
        let spec = ft.spec();
        // The budget `FabricBuilder::fattree` plans against.
        let ports = cfg.switch.ports.max(ft.radix() as u8);
        c.bench_function(&format!("fabric_build/plan_{name}"), |b| {
            b.iter(|| black_box(rperf_subnet::plan(&spec, ports)))
        });
        let topo = Topology::FatTree(ft);
        c.bench_function(&format!("fabric_build/build_{name}"), |b| {
            b.iter(|| black_box(FabricBuilder::new(cfg.clone(), 1).build(&topo)))
        });
    }
}

criterion_group!(benches, bench_build);
criterion_main!(benches);
