//! Packet-level tracing.
//!
//! When enabled on a [`crate::Sim`], the world records every packet
//! arrival (at switches and hosts) and every completion delivery. The
//! records reconstruct per-packet *journeys* — injection, each switch
//! hop, final delivery — which is how one answers "where has my time
//! gone?" for a single probe (the question behind the paper's Section
//! III, citing Zilberman et al.).

use std::collections::BTreeSet;

use rperf_model::ids::PacketId;
use rperf_model::PortId;
use rperf_sim::SimTime;

/// One trace record.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceRecord {
    /// When the event happened.
    pub at: SimTime,
    /// What happened.
    pub event: TraceEvent,
}

/// A traced event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceEvent {
    /// A packet's first bit reached a switch ingress.
    SwitchIngress {
        /// The switch.
        switch: usize,
        /// The ingress port.
        ingress: PortId,
        /// The packet.
        packet: PacketId,
        /// Payload bytes.
        payload: u64,
    },
    /// A packet's last bit reached a host RNIC.
    HostArrival {
        /// The node.
        node: usize,
        /// The packet.
        packet: PacketId,
        /// Payload bytes.
        payload: u64,
    },
    /// A completion became visible to an application.
    Completion {
        /// The node.
        node: usize,
        /// The application-assigned work-request id.
        wr_id: u64,
    },
}

/// A bounded trace buffer.
///
/// Recording stops (and counts drops) once `capacity` records are held,
/// so tracing a long run cannot exhaust memory.
#[derive(Debug, Clone)]
pub struct Tracer {
    records: Vec<TraceRecord>,
    capacity: usize,
    dropped: u64,
}

impl Tracer {
    /// Creates a tracer holding at most `capacity` records.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            records: Vec::new(),
            capacity,
            dropped: 0,
        }
    }

    pub(crate) fn record(&mut self, at: SimTime, event: TraceEvent) {
        if self.records.len() >= self.capacity {
            self.dropped += 1;
            return;
        }
        self.records.push(TraceRecord { at, event });
    }

    /// All records, in simulation order.
    pub fn records(&self) -> &[TraceRecord] {
        &self.records
    }

    /// Records that did not fit.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// The journey of one packet: its arrival records in order.
    pub fn journey(&self, packet: PacketId) -> Vec<TraceRecord> {
        self.records
            .iter()
            .filter(|r| match r.event {
                TraceEvent::SwitchIngress { packet: p, .. }
                | TraceEvent::HostArrival { packet: p, .. } => p == packet,
                TraceEvent::Completion { .. } => false,
            })
            .copied()
            .collect()
    }

    /// Every packet id seen, in first-appearance order.
    pub fn packets(&self) -> Vec<PacketId> {
        let mut seen = BTreeSet::new();
        let mut order = Vec::new();
        for r in &self.records {
            let p = match r.event {
                TraceEvent::SwitchIngress { packet, .. }
                | TraceEvent::HostArrival { packet, .. } => packet,
                TraceEvent::Completion { .. } => continue,
            };
            if seen.insert(p) {
                order.push(p);
            }
        }
        order
    }

    /// Hop count (switch ingresses) of one packet's journey.
    pub fn hop_count(&self, packet: PacketId) -> usize {
        self.journey(packet)
            .iter()
            .filter(|r| matches!(r.event, TraceEvent::SwitchIngress { .. }))
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(at_ns: u64, event: TraceEvent) -> TraceRecord {
        TraceRecord {
            at: SimTime::from_ns(at_ns),
            event,
        }
    }

    #[test]
    fn journey_filters_and_orders() {
        let mut t = Tracer::new(16);
        let p1 = PacketId::new(1);
        let p2 = PacketId::new(2);
        t.record(
            SimTime::from_ns(10),
            TraceEvent::SwitchIngress {
                switch: 0,
                ingress: PortId::new(1),
                packet: p1,
                payload: 64,
            },
        );
        t.record(
            SimTime::from_ns(15),
            TraceEvent::SwitchIngress {
                switch: 0,
                ingress: PortId::new(2),
                packet: p2,
                payload: 64,
            },
        );
        t.record(
            SimTime::from_ns(20),
            TraceEvent::HostArrival {
                node: 3,
                packet: p1,
                payload: 64,
            },
        );
        let j = t.journey(p1);
        assert_eq!(j.len(), 2);
        assert_eq!(j[0].at, SimTime::from_ns(10));
        assert_eq!(j[1].at, SimTime::from_ns(20));
        assert_eq!(t.hop_count(p1), 1);
        assert_eq!(t.packets(), vec![p1, p2]);
        let _ = rec(0, TraceEvent::Completion { node: 0, wr_id: 0 });
    }

    #[test]
    fn packets_keep_first_appearance_order() {
        let mut t = Tracer::new(16);
        for (at, id) in [(1, 9), (2, 3), (3, 9), (4, 5), (5, 3)] {
            t.record(
                SimTime::from_ns(at),
                TraceEvent::HostArrival {
                    node: 0,
                    packet: PacketId::new(id),
                    payload: 0,
                },
            );
        }
        let ids: Vec<u64> = t.packets().iter().map(|p| p.raw()).collect();
        assert_eq!(ids, vec![9, 3, 5]);
    }

    #[test]
    fn capacity_bounds_memory() {
        let mut t = Tracer::new(2);
        for i in 0..5u64 {
            t.record(
                SimTime::from_ns(i),
                TraceEvent::Completion { node: 0, wr_id: i },
            );
        }
        assert_eq!(t.records().len(), 2);
        assert_eq!(t.dropped(), 3);
    }
}
