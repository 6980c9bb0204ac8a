//! The figure-regeneration harness: every table/figure in the paper's
//! evaluation, reproduced from the simulation.
//!
//! The paper's evaluation consists of Figures 4–13 (it has no numbered
//! tables). [`figures`] holds them as one table of sweeps: each entry's
//! scenario runs are averaged over seeds, as the paper averages three
//! runs, into [`rperf_stats::Figure`] series ready to print as Markdown
//! or serialize as JSON, and carries the paper checks EXPERIMENTS.md
//! prints beside them.
//!
//! Sweeps execute through [`sweep_over_seeds`], which fans the independent
//! `(point, seed)` simulations across threads (`rperf-runner`) while
//! keeping the output bit-identical to a serial run for any worker count.
//!
//! [`paper`] holds the published numbers for side-by-side comparison in
//! EXPERIMENTS.md; we reproduce *shape* (who wins, slopes, crossovers),
//! not the authors' absolute nanoseconds.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod figures;
pub mod paper;

use rperf_runner::Sweep;
use rperf_sim::SimDuration;

/// How much simulated time, how many seeds, and how many worker threads
/// to spend per figure sweep.
#[derive(Debug, Clone)]
pub struct Effort {
    /// Seeds to average over (the paper runs each test three times).
    pub seeds: Vec<u64>,
    /// Scale factor on per-figure base durations.
    pub scale: f64,
    /// Worker threads for the `(point, seed)` fan-out (`--jobs`). Any
    /// value produces identical output; see [`sweep_over_seeds`].
    pub jobs: usize,
}

impl Effort {
    /// Full effort: three seeds, full measurement windows, all cores.
    /// This is what `figure` and `report` use by default.
    pub fn full() -> Self {
        Effort {
            seeds: vec![1, 2, 3],
            scale: 1.0,
            jobs: rperf_runner::available_parallelism(),
        }
    }

    /// Quick effort for iteration: one seed, 20 % windows, all cores.
    pub fn quick() -> Self {
        Effort {
            seeds: vec![1],
            scale: 0.2,
            jobs: rperf_runner::available_parallelism(),
        }
    }

    /// Minimal effort for micro-benchmarking the harness itself: one
    /// seed, 4 % windows, single-threaded (so the number under test is
    /// the simulator's, not the thread pool's).
    pub fn bench() -> Self {
        Effort {
            seeds: vec![1],
            scale: 0.04,
            jobs: 1,
        }
    }

    /// Parses the effort flags shared by every bench binary:
    /// `--quick` (1 seed, 20 % windows) and `--jobs N` (worker threads;
    /// default: available parallelism).
    pub fn from_args(args: &[String]) -> Self {
        let mut effort = if args.iter().any(|a| a == "--quick") {
            Effort::quick()
        } else {
            Effort::full()
        };
        if let Some(i) = args.iter().position(|a| a == "--jobs") {
            let jobs = args
                .get(i + 1)
                .and_then(|v| v.parse::<usize>().ok())
                .unwrap_or_else(|| {
                    eprintln!("--jobs needs a positive integer");
                    std::process::exit(2);
                });
            effort.jobs = jobs.max(1);
        }
        effort
    }

    /// Sets the worker-thread count (builder style).
    pub fn with_jobs(mut self, jobs: usize) -> Self {
        self.jobs = jobs.max(1);
        self
    }

    /// A measurement window of `base_ms` milliseconds under this effort.
    pub fn window(&self, base_ms: f64) -> SimDuration {
        SimDuration::from_secs_f64(base_ms * 1e-3 * self.scale)
    }
}

/// The flags [`Effort::from_args`] reads.
const EFFORT_FLAGS: [&str; 2] = ["--quick", "--jobs"];

/// Exits with status 2, naming the flag on stderr, when `args` holds a
/// `--flag` that is neither an [`Effort`] flag nor one of the binary's
/// `own` flags, so a misspelt or retired flag fails instead of being
/// ignored.
pub fn reject_unknown_flags(args: &[String], own: &[&str]) {
    let known = |a: &str| EFFORT_FLAGS.contains(&a) || own.contains(&a);
    if let Some(flag) = args.iter().find(|a| a.starts_with("--") && !known(a)) {
        eprintln!("unknown flag `{flag}`");
        std::process::exit(2);
    }
}

/// The arithmetic mean of an f64 slice (NaN on empty input).
pub fn mean(xs: &[f64]) -> f64 {
    xs.iter().sum::<f64>() / xs.len() as f64
}

/// Runs `run(param, seed)` for every `(param, seed)` pair across
/// `effort.jobs` worker threads, then reduces each point's per-seed
/// results with `merge(param, results)` **in parameter order**.
///
/// Every simulation is an independent deterministic `Sim`, and results
/// are collected keyed by job index, so the returned `Vec` is
/// bit-identical for any worker count — series, Markdown tables, and JSON
/// artifacts built from it do not change when `--jobs` does. The per-seed
/// results arrive at `merge` in seed order (also independent of worker
/// count or scheduling).
pub fn sweep_over_seeds<P, R, T, F, M>(
    effort: &Effort,
    params: &[P],
    run: F,
    mut merge: M,
) -> Vec<T>
where
    P: Sync,
    R: Send,
    F: Fn(&P, u64) -> R + Sync,
    M: FnMut(&P, Vec<R>) -> T,
{
    assert!(!effort.seeds.is_empty(), "sweep needs at least one seed");
    let n_seeds = effort.seeds.len();
    let job_indices: Vec<usize> = (0..params.len() * n_seeds).collect();
    let results = Sweep::new(effort.jobs).run(job_indices, |_, job| {
        let param = &params[job / n_seeds];
        let seed = effort.seeds[job % n_seeds];
        run(param, seed)
    });

    let mut out = Vec::with_capacity(params.len());
    let mut iter = results.into_iter();
    for param in params {
        let per_seed: Vec<R> = iter.by_ref().take(n_seeds).collect();
        out.push(merge(param, per_seed));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effort_windows_scale() {
        let full = Effort::full().window(10.0);
        let quick = Effort::quick().window(10.0);
        assert_eq!(full, SimDuration::from_ms(10));
        assert_eq!(quick, SimDuration::from_ms(2));
    }

    #[test]
    fn average_is_arithmetic_mean() {
        assert_eq!(mean(&[1.0, 2.0, 3.0]), 2.0);
    }

    #[test]
    fn from_args_parses_quick_and_jobs() {
        let args: Vec<String> = ["--quick", "--jobs", "3"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        let e = Effort::from_args(&args);
        assert_eq!(e.seeds, vec![1]);
        assert_eq!(e.jobs, 3);
        let full = Effort::from_args(&[]);
        assert_eq!(full.seeds, vec![1, 2, 3]);
        assert!(full.jobs >= 1);
        // --jobs 0 clamps to 1.
        let clamped = Effort::from_args(&["--jobs".to_string(), "0".to_string()]);
        assert_eq!(clamped.jobs, 1);
    }

    #[test]
    fn sweep_preserves_param_and_seed_order() {
        let effort = Effort {
            seeds: vec![10, 20, 30],
            scale: 1.0,
            jobs: 4,
        };
        let params = [1u64, 2, 3];
        let got = sweep_over_seeds(
            &effort,
            &params,
            |&p, seed| p * 1000 + seed,
            |&p, rs| (p, rs),
        );
        assert_eq!(
            got,
            vec![
                (1, vec![1010, 1020, 1030]),
                (2, vec![2010, 2020, 2030]),
                (3, vec![3010, 3020, 3030]),
            ]
        );
    }

    #[test]
    fn sweep_output_is_independent_of_worker_count() {
        let params: Vec<u64> = (0..17).collect();
        let run = |&p: &u64, seed: u64| (p as f64).sqrt() * seed as f64;
        let merge = |_: &u64, rs: Vec<f64>| mean(&rs);
        let base = Effort {
            seeds: vec![1, 2, 3],
            scale: 1.0,
            jobs: 1,
        };
        let serial = sweep_over_seeds(&base, &params, run, merge);
        for jobs in [2, 4, 9] {
            let e = base.clone().with_jobs(jobs);
            let parallel = sweep_over_seeds(&e, &params, run, merge);
            // Bit-identical, not just approximately equal.
            for (a, b) in serial.iter().zip(&parallel) {
                assert_eq!(a.to_bits(), b.to_bits(), "jobs = {jobs}");
            }
        }
    }
}
