//! Statistics primitives for the rperf-rs measurement suite.
//!
//! The paper's headline metrics are **tail latency percentiles** (50th and
//! 99.9th) and **achieved bandwidth**; this crate provides the machinery to
//! compute both from millions of samples without storing them:
//!
//! * [`LatencyHistogram`] — a log-linear bucketed histogram (HDR-histogram
//!   style) with configurable relative precision, built for recording
//!   picosecond RTT samples and extracting arbitrary percentiles.
//! * [`BandwidthMeter`] — byte accounting over an interval, reporting Gbps.
//! * [`LatencySummary`] — the percentile digest every experiment reports.
//! * [`Series`], [`Figure`] — labelled data series matching the paper's
//!   figures, with Markdown rendering for EXPERIMENTS.md.
//!
//! # Examples
//!
//! ```
//! use rperf_stats::LatencyHistogram;
//!
//! let mut h = LatencyHistogram::new();
//! for v in 1..=1000u64 {
//!     h.record(v);
//! }
//! let p50 = h.percentile(50.0);
//! assert!((495..=505).contains(&p50), "p50 was {p50}");
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod histogram;
pub mod json;
mod meter;
mod series;
mod summary;

pub use histogram::LatencyHistogram;
pub use meter::{BandwidthMeter, GBPS};
pub use series::{Figure, Series};
pub use summary::LatencySummary;
