//! A parallel, deterministic sweep runner for independent simulations.
//!
//! The figure sweeps in `rperf-bench` run hundreds of *independent*
//! `(parameter, seed)` simulations; each one is single-threaded and
//! deterministic (DESIGN.md §6), but nothing orders them relative to each
//! other. [`Sweep`] fans such jobs across `std::thread::scope` workers and
//! collects results **keyed by job index**, so the output `Vec` — and
//! therefore every printed series, table, and JSON artifact derived from
//! it — is bit-identical to a serial run for any worker count.
//!
//! std-only by design: the workspace takes no `rayon`/`crossbeam`
//! dependency (DESIGN.md §6). A work index is claimed from an atomic
//! counter, so jobs with wildly different costs still load-balance.
//!
//! # Examples
//!
//! ```
//! use rperf_runner::Sweep;
//!
//! let squares = Sweep::new(4).run((0..100u64).collect(), |_idx, n| n * n);
//! assert_eq!(squares[7], 49);
//! assert_eq!(squares.len(), 100);
//! // Any worker count produces the same output.
//! assert_eq!(squares, Sweep::new(1).run((0..100u64).collect(), |_, n| n * n));
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod pool;

pub use pool::{SubmitError, WorkerPool};

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

/// A sweep executor with a fixed worker count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sweep {
    workers: usize,
}

impl Sweep {
    /// A sweep running on `workers` threads (clamped to at least 1).
    pub fn new(workers: usize) -> Self {
        Sweep {
            workers: workers.max(1),
        }
    }

    /// A sweep using all available parallelism (the `--jobs` default).
    pub fn available() -> Self {
        Sweep::new(available_parallelism())
    }

    /// The configured worker count.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// Runs `f` over every job and returns the results **in job order**,
    /// regardless of which worker ran which job when.
    ///
    /// `f` receives the job's index and the job itself. Each job must be
    /// independent of the others; `f` is called exactly once per job.
    ///
    /// # Panics
    ///
    /// If `f` panics for any job, the panic propagates after all workers
    /// have stopped (the behavior of `std::thread::scope`).
    pub fn run<J, T, F>(&self, jobs: Vec<J>, f: F) -> Vec<T>
    where
        J: Send,
        T: Send,
        F: Fn(usize, J) -> T + Sync,
    {
        let n = jobs.len();
        if self.workers == 1 || n <= 1 {
            // Serial fast path: no thread or lock overhead.
            return jobs.into_iter().enumerate().map(|(i, j)| f(i, j)).collect();
        }

        // Each job and result slot gets its own mutex; workers claim job
        // indices from a shared counter, so contention is one atomic
        // fetch-add per job and the locks are never contended.
        let slots: Vec<Mutex<Option<J>>> = jobs.into_iter().map(|j| Mutex::new(Some(j))).collect();
        let results: Vec<Mutex<Option<T>>> = (0..n).map(|_| Mutex::new(None)).collect();
        let next = AtomicUsize::new(0);

        std::thread::scope(|scope| {
            for _ in 0..self.workers.min(n) {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let job = slots[i]
                        .lock()
                        .expect("job slot poisoned")
                        .take()
                        .expect("job claimed twice");
                    let out = f(i, job);
                    *results[i].lock().expect("result slot poisoned") = Some(out);
                });
            }
        });

        results
            .into_iter()
            .map(|m| {
                m.into_inner()
                    .expect("result slot poisoned")
                    .expect("worker skipped a job")
            })
            .collect()
    }
}

impl Default for Sweep {
    fn default() -> Self {
        Sweep::available()
    }
}

/// The machine's available parallelism (1 if it cannot be queried).
pub fn available_parallelism() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// Deprecated shim, kept only for the repository benchmark's harness:
/// what [`plan_parallelism`] returns.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Plan {
    /// Concurrent sweep jobs: `threads / shards_per_job`, at least 1.
    pub workers: usize,
    /// The `shards_per_job` argument, at least 1.
    pub shards_per_job: usize,
}

/// Deprecated shim, kept only for the repository benchmark's harness,
/// which still splits its thread budget by a per-job shard count. Every
/// simulation runs on one thread, so nothing in the workspace calls it.
pub fn plan_parallelism(threads: usize, shards_per_job: usize) -> Plan {
    let shards_per_job = shards_per_job.max(1);
    Plan {
        workers: (threads.max(1) / shards_per_job).max(1),
        shards_per_job,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use std::sync::atomic::AtomicU64;

    #[test]
    fn results_are_in_job_order_for_any_worker_count() {
        let jobs: Vec<u64> = (0..257).collect();
        let expected: Vec<u64> = jobs.iter().map(|n| n * 3 + 1).collect();
        for workers in [1, 2, 3, 4, 8, 300] {
            let got = Sweep::new(workers).run(jobs.clone(), |_, n| n * 3 + 1);
            assert_eq!(got, expected, "workers = {workers}");
        }
    }

    #[test]
    fn index_matches_job_position() {
        let got = Sweep::new(4).run(vec![10usize, 20, 30, 40], |i, j| (i, j));
        assert_eq!(got, vec![(0, 10), (1, 20), (2, 30), (3, 40)]);
    }

    #[test]
    fn every_job_runs_exactly_once() {
        let calls = AtomicU64::new(0);
        let got = Sweep::new(5).run((0..1000u64).collect(), |_, n| {
            calls.fetch_add(1, Ordering::Relaxed);
            n
        });
        assert_eq!(calls.load(Ordering::Relaxed), 1000);
        assert_eq!(got.iter().copied().collect::<HashSet<_>>().len(), 1000);
    }

    #[test]
    fn handles_empty_and_single_job_sets() {
        let empty: Vec<u64> = Sweep::new(8).run(vec![], |_, n| n);
        assert!(empty.is_empty());
        assert_eq!(Sweep::new(8).run(vec![42u64], |_, n| n + 1), vec![43]);
    }

    #[test]
    fn worker_count_is_clamped_and_defaulted() {
        assert_eq!(Sweep::new(0).workers(), 1);
        assert!(Sweep::available().workers() >= 1);
        assert_eq!(Sweep::default(), Sweep::available());
    }

    #[test]
    fn plan_divides_threads_between_workers_and_shards() {
        assert_eq!(plan_parallelism(8, 1).workers, 8);
        let p = plan_parallelism(8, 4);
        assert_eq!((p.workers, p.shards_per_job), (2, 4));
        // Both dimensions are clamped to at least 1.
        assert_eq!(plan_parallelism(1, 16).workers, 1);
        assert_eq!(
            plan_parallelism(0, 0),
            Plan {
                workers: 1,
                shards_per_job: 1
            }
        );
    }

    #[test]
    fn unbalanced_job_costs_still_order_correctly() {
        // Early jobs sleep; late jobs finish first on a multi-worker run.
        let got = Sweep::new(4).run((0..16u64).collect(), |i, n| {
            if i < 4 {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            n
        });
        assert_eq!(got, (0..16).collect::<Vec<_>>());
    }
}
