//! The repository benchmark: wall-clock time to a result on four
//! workloads, with every layer timed from outside.
//!
//! Each workload is a fixed set of jobs generated from a seed
//! ([`workload`]). A run repeats the whole set in *passes*, one job at a
//! time, until its time budget is spent, and reports each job at its
//! fastest ([`run`]). The benchmark never edits the code it measures: it
//! times and counts calls into the public functions of each layer —
//! scenario parse/validate, fabric build, subnet planning, budgeted
//! execution, outcome encoding, the sweep runner and the `rperf-serve`
//! server, client, protocol and cache — and records them as spans
//! ([`trace`]) in a separate traced pass.
//! [`compare`] holds the parent-versus-change rule applied to saved runs.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod compare;
pub mod measure;
mod oracle;
pub mod run;
mod scenario;
mod serve;
pub mod trace;
pub mod workload;

pub use run::{Run, RunConfig};
pub use workload::Workload;

/// The run length, in seconds, every command-line run measures
/// (`run_seconds` in `BENCHMARK.json`).
pub const DEFAULT_SECONDS: f64 = 20.0;

/// Jobs, or serve clients, a pass runs at once. One: on a shared host
/// with two cores, a second busy thread makes a pass's time depend on how
/// the host schedules the pair beside its other tenants, and such times
/// spread several times wider from run to run than one thread's. A
/// sharded job still runs its own shard threads.
pub const LOAD_THREADS: usize = 1;

/// The end-to-end metrics every run reports, as `(name, unit)`: what a
/// user of the simulator waits for or pays.
pub const END_TO_END: [(&str, &str); 8] = [
    ("wall_s", "s"),
    ("setup_s", "s"),
    ("sim_us_per_s", "sim_us/s"),
    ("peak_rss_mib", "MiB"),
    ("model_err", "ratio"),
    ("req_per_s", "1/s"),
    ("cold_p50_ms", "ms"),
    ("cold_p99_ms", "ms"),
];

/// The per-layer metrics a traced run reports, as `(name, unit)`. A
/// layer a workload does not call reports 0.
pub const PER_LAYER: [(&str, &str); 27] = [
    ("fabric.events", "count"),
    ("fabric.events_per_sim_us", "events/sim_us"),
    ("fabric.events_per_completion", "ev/completion"),
    ("fabric.ns_per_event", "ns/event"),
    ("fabric.chunk_p50_ms", "ms"),
    ("fabric.chunk_p99_ms", "ms"),
    ("fabric.slab_high_water", "count"),
    ("core.parse_us", "us"),
    ("fabric.build_ms", "ms"),
    ("subnet.plan_ms", "ms"),
    ("core.start_ms", "ms"),
    ("shard.windows", "count"),
    ("shard.events_per_window", "events/window"),
    ("runner.busy_frac", "ratio"),
    ("runner.longest_item_frac", "ratio"),
    ("core.encode_us", "us"),
    ("serve.overhead_ms", "ms"),
    ("serve.ping_p50_ms", "ms"),
    ("serve.warm_p50_ms", "ms"),
    ("serve.warm_p99_ms", "ms"),
    ("serve.cache_hit_ratio", "ratio"),
    ("serve.frame_us", "us"),
    ("serve.cache_key_us", "us"),
    ("serve.retries", "count"),
    ("serve.shed", "count"),
    ("serve.deadline_exceeded", "count"),
    ("trace.overhead_frac", "ratio"),
];
