//! AoS vs SoA input-buffer head scans.
//!
//! The switch arbiter's inner loop reads, for every (ingress port, VL)
//! slot, the head packet's egress / eligibility / wire size. The original
//! layout was an array-of-structs (`Vec<Vec<VlBuffer>>`, one `VecDeque`
//! per slot, head fields behind two pointer hops); [`VlBufferArray`]
//! mirrors the head fields into flat per-field arrays with a nonempty
//! bitset so the scan touches contiguous memory and skips empty slots in
//! one `trailing_zeros` step.
//!
//! Three port counts: 8 (small edge switch), 36 (the SX6012's silicon,
//! Section III), 64 (director-class line card). 9 VLs throughout, ~40%
//! occupancy, which is the contended-arbitration regime of Figs. 11-12.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use rperf_model::arena::PacketSlab;
use rperf_model::ids::PacketId;
use rperf_model::{
    FlowId, Lid, MsgId, Packet, PacketKind, PortId, QpNum, ServiceLevel, Transport, Verb,
    VirtualLane,
};
use rperf_sim::SimTime;
use rperf_switch::{BufEntry, VlBuffer, VlBufferArray};

const VLS: u8 = 9;

struct Lcg(u64);

impl Lcg {
    fn next(&mut self) -> u64 {
        self.0 = self
            .0
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        self.0 >> 33
    }
}

fn entry(slab: &mut PacketSlab, rng: &mut Lcg, ports: u8, t: u64) -> BufEntry {
    let packet = slab.alloc(Packet {
        id: PacketId::new(t),
        flow: FlowId::new(0),
        msg: MsgId::new(t),
        src: Lid::new(1),
        dst: Lid::new(2),
        dst_qp: QpNum::new(0),
        sl: ServiceLevel::new(0),
        vl: VirtualLane::new(0),
        kind: PacketKind::Data {
            verb: Verb::Send,
            transport: Transport::Rc,
            index: 0,
            last: true,
        },
        payload: 4096,
        overhead: 52,
        injected_at: SimTime::ZERO,
    });
    BufEntry {
        packet,
        egress: PortId::new((rng.next() % u64::from(ports)) as u8),
        wire: 100 + rng.next() % 4096,
        arrival: SimTime::from_ns(t),
        eligible_at: SimTime::from_ns(t + rng.next() % 200),
    }
}

/// Both layouts filled with identical entries, plus the slots touched.
type FilledLayouts = (
    PacketSlab,
    Vec<Vec<VlBuffer>>,
    VlBufferArray,
    Vec<(PortId, VirtualLane)>,
);

/// Fills ~40% of the slots of both layouts with identical entries.
fn fill(ports: u8) -> FilledLayouts {
    let mut slab = PacketSlab::new();
    let mut rng = Lcg(42);
    let mut aos: Vec<Vec<VlBuffer>> = (0..ports)
        .map(|_| (0..VLS).map(|_| VlBuffer::new(1 << 20)).collect())
        .collect();
    let mut soa = VlBufferArray::new(ports, VLS, 1 << 20);
    let mut filled = Vec::new();
    for p in 0..ports {
        for v in 0..VLS {
            if rng.next() % 10 < 4 {
                let (port, vl) = (PortId::new(p), VirtualLane::new(v));
                let e = entry(&mut slab, &mut rng, ports, u64::from(p) * 64 + u64::from(v));
                aos[port.index()][vl.index()].push(e);
                soa.push(port, vl, e);
                filled.push((port, vl));
            }
        }
    }
    (slab, aos, soa, filled)
}

/// One arbitration-style pass: for a given egress, sum the wire sizes of
/// every eligible head destined to it.
fn scan_aos(aos: &[Vec<VlBuffer>], egress: PortId, now: SimTime) -> u64 {
    let mut sum = 0u64;
    for port in aos {
        for buf in port {
            if let Some(head) = buf.head() {
                if head.egress == egress && head.eligible_at <= now {
                    sum = sum.wrapping_add(head.wire);
                }
            }
        }
    }
    sum
}

fn scan_soa(soa: &VlBufferArray, egress: PortId, now: SimTime) -> u64 {
    let mut sum = 0u64;
    let egress_raw = egress.raw();
    for (w, &word) in soa.nonempty_words().iter().enumerate() {
        let mut word = word;
        while word != 0 {
            let slot = w * 64 + word.trailing_zeros() as usize;
            word &= word - 1;
            if soa.head_egress_raw(slot) == egress_raw && soa.head_eligible(slot) <= now {
                sum = sum.wrapping_add(soa.head_wire(slot));
            }
        }
    }
    sum
}

fn bench_scans(c: &mut Criterion) {
    let now = SimTime::from_us(100);
    for ports in [8u8, 36, 64] {
        let (_slab, aos, soa, _) = fill(ports);
        // Both scans must agree, over all egresses, or the bench compares
        // different work.
        for p in 0..ports {
            assert_eq!(
                scan_aos(&aos, PortId::new(p), now),
                scan_soa(&soa, PortId::new(p), now)
            );
        }
        c.bench_function(&format!("soa_scan/aos_ports{ports}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for p in 0..ports {
                    acc = acc.wrapping_add(scan_aos(black_box(&aos), PortId::new(p), now));
                }
                black_box(acc)
            });
        });
        c.bench_function(&format!("soa_scan/soa_ports{ports}"), |b| {
            b.iter(|| {
                let mut acc = 0u64;
                for p in 0..ports {
                    acc = acc.wrapping_add(scan_soa(black_box(&soa), PortId::new(p), now));
                }
                black_box(acc)
            });
        });
    }
}

criterion_group!(benches, bench_scans);
criterion_main!(benches);
