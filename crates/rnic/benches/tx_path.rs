//! One RNIC's send path with no fabric around it: the RNIC handlers' own
//! number.
//!
//! A 128-WR batch of SENDs is posted with one doorbell to an RNIC whose
//! peer grants unlimited credits, and every wake the RNIC asks for is
//! delivered in time order until none is left: Fig. 1's post path from
//! doorbell to wire. A 4 KB SEND is one packet behind a payload DMA; a
//! 64 B SEND is inlined, so the WQE engine paces the batch.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rperf_model::arena::PacketSlab;
use rperf_model::{ClusterConfig, Lid, NodeId, QpNum, Transport, Verb};
use rperf_rnic::{Rnic, RnicAction};
use rperf_sim::{SimRng, SimTime};
use rperf_verbs::{SendWr, WrId};

const BATCH: u64 = 128;

/// Posts [`BATCH`] SENDs of `payload` bytes to a fresh RNIC and delivers
/// its wakes to quiescence; returns the wire bytes it transmitted.
fn post_and_drain(cfg: &ClusterConfig, payload: u64) -> u64 {
    let rng = SimRng::new(1);
    let mut rnic = Rnic::new(
        NodeId::new(1),
        Lid::new(1),
        cfg.rnic.clone(),
        cfg.sl2vl,
        &cfg.link,
        rng,
    );
    let qp = rnic.create_qp(Transport::Rc);
    let wrs: Vec<SendWr> = (0..BATCH)
        .map(|i| SendWr::new(WrId(i), Verb::Send, payload).to(Lid::new(2), QpNum::new(1)))
        .collect();
    let (mut slab, mut actions, mut wakes) = (PacketSlab::new(), Vec::new(), BinaryHeap::new());
    rnic.post_send_batch(SimTime::ZERO, qp, &wrs, &mut slab, &mut actions)
        .expect("SENDs are valid on RC");
    let mut wire_bytes = 0;
    loop {
        for action in actions.drain(..) {
            match action {
                RnicAction::Wake { at } => wakes.push(Reverse(at)),
                RnicAction::Transmit { packet, .. } => wire_bytes += slab.free(packet).wire_size(),
                // Every SEND is queued, and its wake asked for, before the
                // first transmit, so nothing can release a held wake.
                RnicAction::HoldWake { .. } | RnicAction::ReleaseWake => {}
                RnicAction::ReturnCredit { .. } | RnicAction::Complete { .. } => {}
            }
        }
        let Some(Reverse(now)) = wakes.pop() else {
            break;
        };
        rnic.wake(now, &slab, &mut actions);
    }
    assert_eq!(rnic.stats().tx_packets, BATCH, "one packet per SEND");
    wire_bytes
}

fn bench_tx_path(c: &mut Criterion) {
    let cfg = ClusterConfig::omnet_simulator();
    for (name, payload) in [("tx_path/batch128_4k", 4096), ("tx_path/batch128_64b", 64)] {
        c.bench_function(name, |b| {
            b.iter(|| post_and_drain(&cfg, black_box(payload)))
        });
    }
}

criterion_group!(benches, bench_tx_path);
criterion_main!(benches);
