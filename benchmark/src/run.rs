//! One benchmark run: repeated passes over a workload's jobs, the checks
//! on their outputs, and the metrics derived from them.
//!
//! A pass runs the whole job set once. A run starts with one unmeasured
//! warm-up pass (page faults, thread stacks and allocator growth land
//! there), then repeats passes until its time budget is spent, so a run
//! always measures the same work and takes each job at its fastest over
//! many passes. Before every pass it repeats the workload's set-up, timed,
//! for a tenth of the time the last pass took. With
//! tracing on, every untraced pass is followed by a traced pass over the
//! same inputs: end-to-end metrics come from the untraced passes only,
//! per-layer metrics from the traced ones. Last, untimed, a run executes
//! the jobs that carry published points at a fixed seed, for `model_err`,
//! and the timed jobs' shard twins, for the shard identity check.

use std::time::{Duration, Instant};

use rperf_fabric::{packets_leaked_total, slab_high_water_total};
use rperf_stats::json;

use crate::measure::{median, peak_rss_mib, percentile, ratio};
use crate::trace::{Span, SpanStats};
use crate::workload::{Item, Workload};
use crate::{oracle, scenario, serve, END_TO_END, LOAD_THREADS, PER_LAYER};

/// The set-ups before a pass take this share of the time the last pass
/// took (at least one set-up), so that they are spread over the whole run.
const SETUP_SHARE: f64 = 0.1;

/// The blocks of consecutive measured passes [`Run::setup_time_s`] takes
/// the median over.
const SETUP_BLOCKS: usize = 4;

/// What to run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunConfig {
    /// The workload.
    pub workload: Workload,
    /// The workload seed every job's inputs derive from.
    pub seed: u64,
    /// The time budget: passes repeat while another one fits.
    pub seconds: f64,
    /// Also run traced passes and report per-layer metrics.
    pub trace: bool,
    /// Factor on simulated windows and request counts (1 on the command
    /// line; the tests shrink it).
    pub scale: f64,
}

/// One named correctness check.
#[derive(Debug, Clone, PartialEq)]
pub struct Check {
    /// The check's name, printed with its verdict.
    pub name: &'static str,
    /// Whether it held.
    pub ok: bool,
    /// What was checked, or what failed.
    pub detail: String,
}

/// What the server reported and the client saw during one serve pass.
#[derive(Debug, Default, Clone, Copy, PartialEq)]
pub struct ServeCounts {
    /// Submissions answered from the result cache.
    pub cache_hits: u64,
    /// Submissions that missed the cache.
    pub cache_misses: u64,
    /// Submissions shed with `SERVER_BUSY`.
    pub shed: u64,
    /// Submissions that ran out of their deadline.
    pub deadline_exceeded: u64,
    /// Client retries (attempts beyond the first).
    pub retries: u64,
    /// Mean µs to frame one submission and read it back.
    pub frame_us: f64,
    /// Mean µs to canonicalize one spec and derive its cache key.
    pub cache_key_us: f64,
}

/// What one pass measured.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds the jobs took: the sweep over scenario items, or the
    /// client load on the server.
    pub wall_s: f64,
    /// Jobs or requests completed within `wall_s`.
    pub completed: u64,
    /// Seconds of each set-up run just before this pass.
    pub setup_s: Vec<f64>,
    /// Set-ups before this pass that failed (server starts never
    /// answered).
    pub setup_failed: u64,
    /// Per-job latency in job order: each scenario item, or each cold
    /// request, ms.
    pub latency_ms: Vec<f64>,
    /// Warm (cache-answered) request latency in job order, ms.
    pub warm_ms: Vec<f64>,
    /// In-process parse + execute + encode of sampled requests, ms.
    pub reference_ms: Vec<f64>,
    /// Jobs and requests attempted.
    pub attempted: u64,
    /// Jobs and requests that failed or were interrupted.
    pub failed: u64,
    /// Simulated events processed within `wall_s`.
    pub events: u64,
    /// Simulated events processed inside `core.execute` spans.
    pub exec_events: u64,
    /// Cancellation-hook polls of sharded jobs, one per lookahead window
    /// (traced passes only: untraced jobs run without a hook).
    pub shard_windows: u64,
    /// Simulated events of sharded jobs.
    pub shard_events: u64,
    /// Σ job seconds × threads each job held.
    pub busy_s: f64,
    /// The longest job, seconds.
    pub longest_s: f64,
    /// Outcome JSON in job order (kept for the warm-up pass only).
    pub outputs: Vec<Option<String>>,
    /// FNV-1a-64 over the outcome JSON in job order.
    pub digest: u64,
    /// Spans of a traced pass (dropped once summarized, except for the
    /// last traced pass).
    pub spans: Vec<Span>,
    /// The summary of `spans` the per-layer metrics use.
    pub span_stats: SpanStats,
    /// Serve counters (zero for scenario workloads).
    pub serve: ServeCounts,
    /// Failed per-request checks, as `(check name, message)`.
    pub problems: Vec<(&'static str, String)>,
}

/// A finished run.
#[derive(Debug)]
pub struct Run {
    /// What ran.
    pub config: RunConfig,
    /// Jobs or clients a pass runs at once ([`LOAD_THREADS`]).
    pub threads: usize,
    /// The jobs of one pass.
    pub items: Vec<Item>,
    /// The unmeasured first pass, whose outputs are checked.
    pub warmup: Pass,
    /// The measured untraced passes.
    pub untraced: Vec<Pass>,
    /// The traced passes (empty unless tracing).
    pub traced: Vec<Pass>,
    /// The untimed pass over [`Workload::paper_items`] that `model_err`
    /// comes from.
    pub paper: Pass,
    /// The timed jobs' shard twins ([`Workload::shard_twins`]).
    pub twins: Vec<Item>,
    /// The untimed pass over `twins`, traced when tracing.
    pub sharded: Pass,
    /// This process's peak resident set after the warm-up pass, MiB.
    pub peak_rss_mib: f64,
    /// Highest live-packet count of any simulation's slab.
    pub slab_high_water: u64,
    /// Simulated time one pass covers, µs.
    pub sim_us: f64,
    /// Completed operations in one pass's outcomes.
    pub completions: f64,
    /// Mean relative error against the paper's published points, from
    /// the `paper` pass.
    pub model_err: f64,
    /// Every correctness check, in order.
    pub checks: Vec<Check>,
}

/// A metric value with its name and unit.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Metric {
    /// The name from [`END_TO_END`] or [`PER_LAYER`].
    pub name: &'static str,
    /// Its unit.
    pub unit: &'static str,
    /// The value.
    pub value: f64,
}

/// Repeats the workload's set-up for at least `min`, at least once;
/// returns the seconds of each set-up that succeeded and how many failed.
fn set_up(config: &RunConfig, items: &[Item], min: Duration) -> (Vec<f64>, u64) {
    match config.workload {
        Workload::ServeMixed => serve::setup(min),
        _ => (
            scenario::setup(items, min, false, Instant::now(), &mut Vec::new()),
            0,
        ),
    }
}

fn pass(config: &RunConfig, items: &[Item], traced: bool, threads: usize) -> Pass {
    let mut p = match config.workload {
        Workload::ServeMixed => serve::pass(items, traced, threads),
        _ => scenario::pass(items, traced, threads),
    };
    p.digest = crate::measure::digest(
        p.outputs
            .iter()
            .map(|o| o.as_deref().unwrap_or("").as_bytes()),
    );
    p.span_stats = SpanStats::of(&p.spans);
    p
}

impl Run {
    /// Runs a warm-up pass and then measured passes of `config.workload`
    /// until `config.seconds` is spent (at least one), timing set-ups
    /// before each untraced pass, then checks the outputs.
    pub fn execute(config: RunConfig) -> Run {
        let items = config.workload.items(config.seed, config.scale);
        let threads = LOAD_THREADS;
        let start = Instant::now();
        // Set-ups for a share of the last pass's time, then a pass.
        let untraced_pass = |last_wall_s: f64| {
            let min = Duration::from_secs_f64(last_wall_s * SETUP_SHARE);
            let (setup_s, setup_failed) = set_up(&config, &items, min);
            Pass {
                setup_s,
                setup_failed,
                ..pass(&config, &items, false, threads)
            }
        };
        let warmup = untraced_pass(0.0);
        // The peak of set-up plus one pass over the jobs: later passes
        // raise it by a heap's fragmentation, more so the more of them fit.
        let peak_rss_mib = peak_rss_mib();
        let mut untraced: Vec<Pass> = Vec::new();
        let mut traced: Vec<Pass> = Vec::new();
        loop {
            let last_wall_s = untraced.last().unwrap_or(&warmup).wall_s;
            // The warm-up's outputs suffice for the checks; measured passes
            // are compared by digest, and keeping their outputs would grow
            // the peak resident set with the pass count.
            let mut p = untraced_pass(last_wall_s);
            p.outputs = Vec::new();
            untraced.push(p);
            if config.trace {
                let mut t = pass(&config, &items, true, threads);
                t.outputs = Vec::new();
                if let Some(previous) = traced.last_mut() {
                    previous.spans = Vec::new();
                }
                traced.push(t);
            }
            let rounds = untraced.len() as f64 + 1.0;
            if start.elapsed().as_secs_f64() * (rounds + 1.0) / rounds > config.seconds {
                break;
            }
        }
        let slab_high_water = slab_high_water_total();
        // After the measured passes, untimed: the published points' jobs
        // at the fixed paper seed, run in process for every workload.
        let paper_items = config.workload.paper_items(config.scale);
        let paper = scenario::pass(&paper_items, false, rperf_runner::available_parallelism());
        let twins = config.workload.shard_twins(config.seed, config.scale);
        let sharded = scenario::pass(&twins, config.trace, threads);
        let outcomes = oracle::parse(&warmup.outputs);
        let mut run = Run {
            config,
            threads,
            peak_rss_mib,
            slab_high_water,
            sim_us: oracle::sim_us(&outcomes),
            completions: oracle::completions(&outcomes),
            model_err: oracle::model_err(&paper_items, &oracle::parse(&paper.outputs)),
            checks: Vec::new(),
            items,
            warmup,
            untraced,
            traced,
            paper: Pass {
                outputs: Vec::new(),
                ..paper
            },
            twins,
            sharded: Pass {
                spans: Vec::new(),
                ..sharded
            },
        };
        run.checks = run.run_checks(&outcomes);
        run
    }

    /// Every pass over the workload's jobs, the warm-up included.
    fn passes(&self) -> impl Iterator<Item = &Pass> {
        std::iter::once(&self.warmup)
            .chain(&self.untraced)
            .chain(&self.traced)
    }

    fn run_checks(&self, outcomes: &[Option<json::Value>]) -> Vec<Check> {
        let warmup = &self.warmup;
        let digests: Vec<u64> = self.passes().map(|p| p.digest).collect();
        let failed = self.failed();
        let leaked = packets_leaked_total();
        let mut checks = vec![
            Check {
                name: "all_completed",
                ok: failed == 0,
                detail: format!("{failed} of {} jobs failed", self.attempted()),
            },
            Check {
                name: "digests_identical",
                ok: digests.iter().all(|&d| d == warmup.digest),
                detail: format!(
                    "warm-up, {} untraced and {} traced passes, digest {:016x}",
                    self.untraced.len(),
                    self.traced.len(),
                    warmup.digest
                ),
            },
            Check {
                name: "no_leaked_packets",
                ok: leaked == 0,
                detail: format!("{leaked} packet handles leaked"),
            },
            oracle::goodput_within_wire(&self.items, outcomes),
        ];
        checks.extend(oracle::fcfs_monotone(&self.items, outcomes));
        checks.extend(oracle::shard_identity(
            &self.twins,
            &self.sharded.outputs,
            &warmup.outputs,
        ));
        if self.config.workload == Workload::ServeMixed {
            for name in ["warm_equals_cold", "reference_equals_served"] {
                let problems: Vec<&str> = self
                    .passes()
                    .flat_map(|p| &p.problems)
                    .filter(|(n, _)| *n == name)
                    .map(|(_, msg)| msg.as_str())
                    .collect();
                checks.push(Check {
                    name,
                    ok: problems.is_empty(),
                    detail: match problems.first() {
                        None => format!("{} passes", self.passes().count()),
                        Some(msg) => format!("{} failures, first: {msg}", problems.len()),
                    },
                });
            }
        }
        if self.config.trace {
            let gap = self
                .traced
                .iter()
                .map(|p| p.span_stats.root_gap)
                .fold(0.0, f64::max);
            checks.push(Check {
                name: "spans_account_for_items",
                ok: gap <= 0.05,
                detail: format!(
                    "self times sum to within {:.3}% of every item span",
                    gap * 100.0
                ),
            });
        }
        checks
    }

    /// Whether every check held.
    pub fn correct(&self) -> bool {
        self.checks.iter().all(|c| c.ok)
    }

    /// Set-ups, jobs and requests attempted over the run.
    pub fn attempted(&self) -> u64 {
        let per_pass = |p: &Pass| p.attempted + p.setup_s.len() as u64 + p.setup_failed;
        self.passes().map(per_pass).sum::<u64>() + self.paper.attempted + self.sharded.attempted
    }

    /// Set-ups, jobs and requests that failed over the run.
    pub fn failed(&self) -> u64 {
        let per_pass = |p: &Pass| p.failed + p.setup_failed;
        self.passes().map(per_pass).sum::<u64>() + self.paper.failed + self.sharded.failed
    }

    /// The digest of one pass's outcomes.
    pub fn digest(&self) -> u64 {
        self.warmup.digest
    }

    /// The end-to-end metrics, from the untraced passes.
    pub fn end_to_end(&self) -> Vec<Metric> {
        END_TO_END
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self.end_to_end_value(name),
            })
            .collect()
    }

    /// The per-layer metrics, from the traced passes (all 0 without
    /// tracing, except deterministic counts).
    pub fn per_layer(&self) -> Vec<Metric> {
        PER_LAYER
            .iter()
            .map(|&(name, unit)| Metric {
                name,
                unit,
                value: self.layer_value(name),
            })
            .collect()
    }

    /// Each job's fastest time over the measured passes, in job order, ms;
    /// `times` reads the jobs' times off a pass. Every pass repeats the
    /// same deterministic jobs, one at a time, so a job's fastest run is
    /// the one the host's other tenants slowed least: on a shared host
    /// they slow a run by up to twofold, in spells of seconds, and a
    /// median keeps that share of the spells.
    pub fn best_ms(&self, times: impl Fn(&Pass) -> &[f64]) -> Vec<f64> {
        (0..self.items.len())
            .map(|job| {
                self.untraced
                    .iter()
                    .filter_map(|p| times(p).get(job).copied())
                    .reduce(f64::min)
                    .unwrap_or(0.0)
            })
            .collect()
    }

    /// The seconds of every set-up timed before a measured pass.
    pub fn setups_s(&self) -> Vec<f64> {
        self.untraced
            .iter()
            .flat_map(|p| p.setup_s.iter().copied())
            .collect()
    }

    /// The set-up time. For scenario workloads the measured passes are
    /// cut into [`SETUP_BLOCKS`] blocks of consecutive passes, and this is
    /// the median over the blocks of the fastest set-up timed in each: on
    /// a shared host the same set-up runs at speeds up to 1.6× apart, in
    /// spells of seconds, so the median of all set-ups lands on either
    /// speed from run to run, while a block of a quarter of the run nearly
    /// always holds a set-up at the faster speed. A server start, though,
    /// waits a random 0–2 ms for the acceptor's poll, and a block's fastest
    /// start is whichever was luckiest; its set-up time is the median of
    /// all starts, the wait a user's first request sees.
    pub fn setup_time_s(&self) -> f64 {
        if self.config.workload == Workload::ServeMixed {
            return median(&self.setups_s());
        }
        let per_block = self.untraced.len().div_ceil(SETUP_BLOCKS).max(1);
        let fastest: Vec<f64> = self
            .untraced
            .chunks(per_block)
            .filter_map(|block| {
                block
                    .iter()
                    .flat_map(|p| p.setup_s.iter().copied())
                    .reduce(f64::min)
            })
            .collect();
        median(&fastest)
    }

    /// The `p`-th percentile over the jobs (or cold requests) of each
    /// one's fastest latency (see [`Run::best_ms`]), ms.
    pub fn latency_ms(&self, p: f64) -> f64 {
        percentile(&self.best_ms(|pass| &pass.latency_ms), p)
    }

    /// The time of one pass at every job's fastest (see [`Run::best_ms`]):
    /// the sum over the jobs, as a pass runs them one after another, with
    /// each cold request's warm repeat.
    pub fn wall_s(&self) -> f64 {
        let cold: f64 = self.best_ms(|p| &p.latency_ms).iter().sum();
        let warm: f64 = self.best_ms(|p| &p.warm_ms).iter().sum();
        (cold + warm) / 1e3
    }

    fn end_to_end_value(&self, name: &str) -> f64 {
        let completed = median(
            &self
                .untraced
                .iter()
                .map(|p| p.completed as f64)
                .collect::<Vec<_>>(),
        );
        match name {
            "wall_s" => self.wall_s(),
            "setup_s" => self.setup_time_s(),
            "sim_us_per_s" => ratio(self.sim_us, self.wall_s()),
            "peak_rss_mib" => self.peak_rss_mib,
            "model_err" => self.model_err,
            "req_per_s" => ratio(completed, self.wall_s()),
            "cold_p50_ms" => self.latency_ms(50.0),
            "cold_p99_ms" => self.latency_ms(99.0),
            _ => unreachable!("`{name}` is not an end-to-end metric"),
        }
    }

    fn layer_value(&self, name: &str) -> f64 {
        let t = &self.traced;
        let warmup = &self.warmup;
        // Σ ms in the spans called `n` and the mean per call, over the
        // traced passes.
        let total_ms = |n: &str| t.iter().map(|p| p.span_stats.total(n).1).sum::<f64>();
        let mean_ms = |n: &str| {
            let calls = t.iter().map(|p| p.span_stats.total(n).0).sum::<u64>();
            ratio(total_ms(n), calls as f64)
        };
        let per_pass = |f: &dyn Fn(&Pass) -> f64| median(&t.iter().map(f).collect::<Vec<_>>());
        let serve_sum = |f: &dyn Fn(&ServeCounts) -> u64| -> f64 {
            self.passes().map(|p| f(&p.serve)).sum::<u64>() as f64
        };
        match name {
            "fabric.events" => warmup.events as f64,
            "fabric.events_per_sim_us" => ratio(warmup.events as f64, self.sim_us),
            "fabric.events_per_completion" => ratio(warmup.events as f64, self.completions),
            "fabric.ns_per_event" => ratio(
                total_ms("core.execute") * 1e6,
                t.iter().map(|p| p.exec_events).sum::<u64>() as f64,
            ),
            "fabric.chunk_p50_ms" => per_pass(&|p| p.span_stats.chunk_p50_ms),
            "fabric.chunk_p99_ms" => per_pass(&|p| p.span_stats.chunk_p99_ms),
            "fabric.slab_high_water" => self.slab_high_water as f64,
            "core.parse_us" => mean_ms("core.parse") * 1e3,
            "fabric.build_ms" => mean_ms("fabric.build"),
            "subnet.plan_ms" => mean_ms("subnet.plan"),
            "core.start_ms" => mean_ms("core.start"),
            "shard.windows" => self.sharded.shard_windows as f64,
            "shard.events_per_window" => ratio(
                self.sharded.shard_events as f64,
                self.sharded.shard_windows as f64,
            ),
            "runner.busy_frac" => per_pass(&|p| ratio(p.busy_s, self.threads as f64 * p.wall_s)),
            "runner.longest_item_frac" => per_pass(&|p| ratio(p.longest_s, p.wall_s)),
            "core.encode_us" => mean_ms("core.encode") * 1e3,
            "serve.overhead_ms" => per_pass(&|p| {
                if p.reference_ms.is_empty() {
                    0.0
                } else {
                    percentile(&p.latency_ms, 50.0) - percentile(&p.reference_ms, 50.0)
                }
            }),
            "serve.ping_p50_ms" => per_pass(&|p| p.span_stats.ping_p50_ms),
            "serve.warm_p50_ms" => per_pass(&|p| percentile(&p.warm_ms, 50.0)),
            "serve.warm_p99_ms" => per_pass(&|p| percentile(&p.warm_ms, 99.0)),
            "serve.cache_hit_ratio" => {
                let hits = serve_sum(&|s| s.cache_hits);
                ratio(hits, hits + serve_sum(&|s| s.cache_misses))
            }
            "serve.frame_us" => per_pass(&|p| p.serve.frame_us),
            "serve.cache_key_us" => per_pass(&|p| p.serve.cache_key_us),
            "serve.retries" => serve_sum(&|s| s.retries),
            "serve.shed" => serve_sum(&|s| s.shed),
            "serve.deadline_exceeded" => serve_sum(&|s| s.deadline_exceeded),
            "trace.overhead_frac" => {
                let untraced = median(&self.untraced.iter().map(|p| p.wall_s).collect::<Vec<_>>());
                if t.is_empty() {
                    0.0
                } else {
                    ratio(per_pass(&|p| p.wall_s), untraced) - 1.0
                }
            }
            _ => unreachable!("`{name}` is not a per-layer metric"),
        }
    }

    /// The result line: `correct`, `attempted`, `failed` and the
    /// end-to-end metrics, or with `per_layer` the per-layer ones.
    pub fn result_json(&self, per_layer: bool) -> String {
        let metrics = if per_layer {
            self.per_layer()
        } else {
            self.end_to_end()
        };
        json::object([
            ("correct", self.correct().to_string()),
            ("attempted", json::uint(self.attempted())),
            ("failed", json::uint(self.failed())),
            (
                "metrics",
                json::object(metrics.iter().map(|m| {
                    (
                        m.name,
                        json::object([
                            ("value", json::num(m.value)),
                            ("unit", json::string(m.unit)),
                        ]),
                    )
                })),
            ),
        ])
    }
}
