//! Traffic generators: the paper's two workload archetypes plus the
//! QoS-gaming adversary.
//!
//! * [`Bsg`] — the **Bandwidth-Sensitive Generator** (Section V): open-loop
//!   RC SEND flows with a configurable payload size, posting window and
//!   doorbell batching; measures its achieved goodput from acknowledged
//!   messages inside the measurement window. The QoS-gaming adversary of
//!   Section VIII-C, the pretend LSG, is a `Bsg` too: bulk data in small
//!   messages on the latency SL, posted in batched bursts.
//! * [`ClosedLoopPing`] — the **Latency-Sensitive Generator** skeleton:
//!   synchronous (closed-loop) small messages, one outstanding at a time.
//!   The paper's LSG measures its RTT with RPerf (crate `rperf`); this app
//!   provides the plain application-level view used for cross-checks.
//! * [`Sink`] — the destination server: keeps receive queues charged and
//!   counts per-run deliveries.
//! * [`pair_at_hops`] / [`incast_sources`] — pod-aware placement over
//!   fat-tree fabrics: victim pairs at a chosen hop distance and incast
//!   source sets spread over remote edges.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod bsg;
mod lsg;
mod placement;
mod sink;

pub use bsg::{Bsg, BsgConfig};
pub use lsg::{ClosedLoopPing, LsgConfig};
pub use placement::{incast_sources, pair_at_hops};
pub use sink::Sink;
