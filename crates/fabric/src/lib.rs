//! Fabric assembly: links, topologies and the event world that wires
//! hosts, RNICs and switches into a running cluster.
//!
//! The paper's three experimental platforms are [`Topology`] variants,
//! all built by [`FabricBuilder::build`]:
//!
//! * [`Topology::DirectPair`] — two RNICs cabled back-to-back (the
//!   "without switch" baseline of Section VI-A).
//! * [`Topology::SingleSwitch`] — the rack: up to 12 hosts behind one ToR
//!   switch (Sections VI–VIII).
//! * [`Topology::TwoSwitch`] — the multi-hop topology of Section VIII-B:
//!   two switches in series with hosts on both.
//!
//! The back-to-back pair is cabled directly. Every switched topology,
//! the two racks and the chains, stars and fat trees beyond the paper
//! alike, is wired from its subnet-planner graph ([`Topology::to_spec`]).
//! [`Fabric::direct_pair`], [`Fabric::single_switch`] and
//! [`Fabric::from_spec`] are shorthands for the common shapes.
//!
//! ## Event semantics
//!
//! * Packet delivery **to a switch** fires when the *first* bit arrives
//!   (cut-through forwarding; the SX6012 is a cut-through switch and the
//!   paper's latency deltas — roughly constant across payload sizes — are
//!   only consistent with cut-through).
//! * Packet delivery **to an RNIC** fires when the *last* bit arrives (the
//!   payload cannot DMA before it exists).
//! * Credit returns travel against the data direction at propagation
//!   delay.
//!
//! Applications implement [`App`] and interact with the fabric through
//! [`Ctx`]: posting verbs, reading their host's TSC, setting timers. The
//! measurement tools in `rperf` (core crate) are `App`s.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod sim;
mod topology;
mod trace;
mod world;

pub use sim::{Ctx, IdleWakes, Sim};
pub use topology::{Endpoint, Fabric, FabricBuilder, Topology};
pub use trace::{TraceEvent, TraceRecord, Tracer};
pub use world::{
    events_by_kind_total, events_processed_total, packets_leaked_total, slab_high_water_total, App,
    KIND_NAMES,
};
