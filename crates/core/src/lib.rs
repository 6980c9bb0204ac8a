//! **RPerf** — precise switch-latency measurement for RDMA fabrics, plus
//! the baseline tools it is compared against and the paper's experiment
//! scenarios.
//!
//! This crate is the reproduction of the paper's primary contribution
//! (Section IV): a micro-benchmarking tool that measures the RTT through
//! an InfiniBand switch *without* end-point bias, by combining
//!
//! 1. **post-poll** measurement over RC SEND — the remote RNIC generates
//!    the ACK immediately on receipt, before any remote-side software or
//!    PCIe work, excluding remote-side overheads; and
//! 2. **loopback subtraction** — each over-the-wire SEND is paired with a
//!    loopback SEND whose completion time measures exactly the local-side
//!    processing (MMIO, WQE engine, payload DMA), so
//!    `RTT = (T_W − T_P) − (T_L − T_P) = T_W − T_L` (Eq. 1).
//!
//! The baseline models reproduce each existing tool's *bias structure*
//! (Section III):
//!
//! * [`PerftestClient`]/[`PingPongServer`] — software ping-pong: includes
//!   remote-side software, both sides' PCIe, and local posting overheads.
//! * [`QperfClient`] — post-poll WRITE: excludes remote software but
//!   includes the remote payload DMA (Fig. 1b) and heavyweight
//!   timestamping; reports only averages.
//!
//! Experiments are described declaratively: a [`spec::ScenarioSpec`] is a
//! plain-data IR — topology, traffic matrix of typed roles, QoS mode,
//! scheduling policy, run window — and [`executor::execute`] is the one
//! generic function turning a spec plus a seed into a
//! [`executor::ScenarioOutcome`]. Specs also parse from a text format, so
//! arbitrary experiments run from files without recompiling. The
//! [`scenario`] module holds the paper's setups as spec tables.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod executor;
mod perftest;
mod qperf;
mod rperf_app;
pub mod scenario;
pub mod spec;
#[cfg(test)]
mod wake_exactness;

pub use executor::{
    dump_routes, execute, execute_budgeted, execute_with_config, ExecBudget, ExecInterrupt,
    RoleReport, ScenarioOutcome,
};
pub use perftest::{PerftestClient, PerftestConfig, PingPongServer};
pub use qperf::{QperfClient, QperfConfig, QperfReport};
pub use rperf_app::{RPerf, RPerfConfig, RPerfReport};
pub use spec::{DeviceProfile, QosMode, Role, RoleSpec, ScenarioSpec, SlSpec, SpecError};
