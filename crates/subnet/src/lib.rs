//! Subnet management: the OpenSM role for the simulated fabric.
//!
//! A real IB subnet has a software subnet manager that discovers the
//! topology, assigns a LID to every end port and programs every switch's
//! linear forwarding table. This crate performs the same job for
//! arbitrary multi-switch topologies:
//!
//! * [`TopologySpec`] — declarative description: switches, host
//!   attachments, inter-switch trunks (with convenience constructors for
//!   the paper's setups and for switch chains).
//! * [`FatTreeParams`] — parameterized 2-tier leaf–spine and 3-tier
//!   Clos / fat-tree generators (`k`, tier count, edge oversubscription)
//!   producing plain [`TopologySpec`] graphs.
//! * [`plan`] — validates the spec against the switch port budget,
//!   assigns LIDs and ports, and computes shortest-path forwarding
//!   entries (one BFS per switch that hosts endpoints; equal-cost paths
//!   are resolved per destination LID, deterministically and
//!   hash-free).
//! * [`SubnetPlan`] — the programmable result the fabric builder
//!   consumes: one forwarding table per switch, dense by host.
//!
//! # Examples
//!
//! ```
//! use rperf_subnet::{plan, TopologySpec};
//!
//! // Three switches in a chain, two hosts on each end.
//! let spec = TopologySpec::chain(3, &[2, 0, 2]);
//! let plan = plan(&spec, 12)?;
//! assert_eq!(plan.lids.len(), 4);
//! # Ok::<(), rperf_subnet::SubnetError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod error;
mod fattree;
mod planner;
mod spec;

pub use error::SubnetError;
pub use fattree::FatTreeParams;
pub use planner::{plan, SubnetPlan, MAX_HOSTS};
pub use spec::TopologySpec;
