//! A long-lived, panic-isolated worker pool for services.
//!
//! [`Sweep`](crate::Sweep) is batch-oriented: it owns its jobs up front
//! and joins at the end. A daemon needs the opposite shape — a **warm**
//! pool that outlives any one request, with a *bounded* admission queue
//! (so overload turns into explicit shedding, not an unbounded backlog)
//! and a panic-safe job boundary: a handler panic retires only the one
//! worker that hit it, a replacement thread is spawned, and the pool keeps
//! serving.
//!
//! The pool itself deliberately performs **no wall-clock reads** (lint
//! rule D2 covers this crate): [`WorkerPool::drain`] bounds its wait with
//! a condition-variable timeout that each exiting worker notifies, and
//! deadline enforcement belongs to the caller's job handler (see
//! `rperf-serve`).

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::mpsc::{sync_channel, Receiver, SyncSender, TrySendError};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};

/// Why [`WorkerPool::try_submit`] rejected a job; the job is handed back.
#[derive(Debug)]
pub enum SubmitError<J> {
    /// The bounded admission queue is full — shed load and retry later.
    Full(J),
    /// The pool is closed ([`WorkerPool::close`] / [`WorkerPool::drain`]).
    Closed(J),
}

struct Inner<J> {
    tx: Mutex<Option<SyncSender<J>>>,
    rx: Mutex<Receiver<J>>,
    handler: Box<dyn Fn(J) + Send + Sync>,
    /// Worker threads alive; `exited` is notified each time one exits.
    live: Mutex<usize>,
    exited: Condvar,
    panics: AtomicU64,
    respawned: AtomicU64,
}

/// A warm worker pool with a bounded admission queue and panic isolation.
///
/// Jobs submitted through [`try_submit`](WorkerPool::try_submit) are
/// executed by `workers` long-lived threads in admission order. If the
/// handler panics, the panic is caught at the job boundary: the panicking
/// worker retires (fresh stack, fresh thread-locals) and a replacement is
/// spawned before it exits, so the pool's capacity is restored without any
/// caller noticing more than that one failed job.
///
/// The handler is responsible for reporting each job's outcome (for
/// example over a per-job channel); to guarantee a reply *even when the
/// handler panics*, callers pair the handler with a drop guard — see
/// `rperf-serve` for the pattern.
///
/// # Examples
///
/// ```
/// use rperf_runner::WorkerPool;
/// use std::sync::mpsc::sync_channel;
///
/// let (tx, rx) = sync_channel(16);
/// let pool = WorkerPool::new(2, 16, move |n: u64| {
///     tx.send(n * 2).expect("receiver alive");
/// });
/// pool.try_submit(21).expect("queue has room");
/// assert_eq!(rx.recv().expect("worker replies"), 42);
/// assert!(pool.drain(1_000));
/// ```
pub struct WorkerPool<J: Send + 'static> {
    inner: Arc<Inner<J>>,
}

impl<J: Send + 'static> std::fmt::Debug for WorkerPool<J> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WorkerPool")
            .field("live_workers", &self.live_workers())
            .field("panics", &self.panics())
            .field("respawned", &self.respawned())
            .finish_non_exhaustive()
    }
}

impl<J: Send + 'static> WorkerPool<J> {
    /// Starts a pool of `workers` threads (clamped to at least 1) behind a
    /// bounded queue of `queue_depth` jobs (clamped to at least 1).
    pub fn new<F>(workers: usize, queue_depth: usize, handler: F) -> Self
    where
        F: Fn(J) + Send + Sync + 'static,
    {
        let (tx, rx) = sync_channel(queue_depth.max(1));
        let inner = Arc::new(Inner {
            tx: Mutex::new(Some(tx)),
            rx: Mutex::new(rx),
            handler: Box::new(handler),
            live: Mutex::new(0),
            exited: Condvar::new(),
            panics: AtomicU64::new(0),
            respawned: AtomicU64::new(0),
        });
        for _ in 0..workers.max(1) {
            spawn_worker(Arc::clone(&inner));
        }
        WorkerPool { inner }
    }

    /// Offers a job to the admission queue without blocking.
    ///
    /// Full and closed queues hand the job back through [`SubmitError`],
    /// so the caller can shed load with a typed response instead of
    /// queueing unboundedly.
    pub fn try_submit(&self, job: J) -> Result<(), SubmitError<J>> {
        let guard = self.inner.tx.lock().expect("pool sender poisoned");
        match guard.as_ref() {
            None => Err(SubmitError::Closed(job)),
            Some(tx) => tx.try_send(job).map_err(|e| match e {
                TrySendError::Full(j) => SubmitError::Full(j),
                TrySendError::Disconnected(j) => SubmitError::Closed(j),
            }),
        }
    }

    /// Closes the admission queue: further submits fail with
    /// [`SubmitError::Closed`]; already-queued jobs still run.
    pub fn close(&self) {
        self.inner.tx.lock().expect("pool sender poisoned").take();
    }

    /// Closes the queue and waits for every worker to finish its backlog
    /// and exit, for at most `max_wait_ms`.
    ///
    /// Returns `true` when the pool fully drained within the bound. Each
    /// exiting worker wakes the wait, so it returns as soon as the last
    /// one is gone; callers needing hard per-job deadlines enforce them
    /// inside the job handler.
    pub fn drain(&self, max_wait_ms: u64) -> bool {
        self.close();
        let bound = core::time::Duration::from_millis(max_wait_ms);
        let (live, _) = self
            .inner
            .exited
            .wait_timeout_while(self.inner.live(), bound, |n| *n > 0)
            .expect("pool live count poisoned");
        *live == 0
    }

    /// Worker threads currently alive (replacements included).
    pub fn live_workers(&self) -> usize {
        *self.inner.live()
    }

    /// Handler panics caught at the job boundary so far.
    pub fn panics(&self) -> u64 {
        self.inner.panics.load(Ordering::SeqCst)
    }

    /// Replacement workers spawned after panics so far.
    pub fn respawned(&self) -> u64 {
        self.inner.respawned.load(Ordering::SeqCst)
    }
}

impl<J> Inner<J> {
    fn live(&self) -> MutexGuard<'_, usize> {
        self.live.lock().expect("pool live count poisoned")
    }
}

fn spawn_worker<J: Send + 'static>(inner: Arc<Inner<J>>) {
    *inner.live() += 1;
    std::thread::spawn(move || worker_loop(inner));
}

fn worker_loop<J: Send + 'static>(inner: Arc<Inner<J>>) {
    loop {
        // Holding the receiver lock across `recv` serializes job pickup
        // (not job execution): whichever worker holds the lock sleeps in
        // recv, the rest sleep on the mutex. The lock is released before
        // the handler runs.
        let job = {
            let rx = inner.rx.lock().expect("pool receiver poisoned");
            rx.recv()
        };
        let Ok(job) = job else {
            break; // queue closed and drained
        };
        if catch_unwind(AssertUnwindSafe(|| (inner.handler)(job))).is_err() {
            // The worker that panicked retires; a replacement restores
            // capacity before this thread's exit is observable.
            inner.panics.fetch_add(1, Ordering::SeqCst);
            inner.respawned.fetch_add(1, Ordering::SeqCst);
            spawn_worker(Arc::clone(&inner));
            break;
        }
    }
    *inner.live() -= 1;
    inner.exited.notify_all();
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::mpsc::channel;

    #[test]
    fn jobs_run_and_reply() {
        let (tx, rx) = channel();
        let pool = WorkerPool::new(3, 8, move |n: u64| tx.send(n + 1).expect("rx alive"));
        for n in 0..20 {
            while pool.try_submit(n).is_err() {
                std::thread::sleep(core::time::Duration::from_millis(1));
            }
        }
        let mut got: Vec<u64> = (0..20).map(|_| rx.recv().expect("reply")).collect();
        got.sort_unstable();
        assert_eq!(got, (1..=20).collect::<Vec<_>>());
        assert!(pool.drain(2_000));
        assert_eq!(pool.live_workers(), 0);
    }

    #[test]
    fn panicking_job_retires_and_respawns_worker() {
        let (tx, rx) = channel();
        let pool = WorkerPool::new(2, 8, move |n: u64| {
            if n == 13 {
                panic!("injected fault");
            }
            tx.send(n).expect("rx alive");
        });
        pool.try_submit(13).expect("room");
        // The pool must keep serving after the panic.
        for n in [1u64, 2, 3] {
            while pool.try_submit(n).is_err() {
                std::thread::sleep(core::time::Duration::from_millis(1));
            }
        }
        let mut got: Vec<u64> = (0..3).map(|_| rx.recv().expect("reply")).collect();
        got.sort_unstable();
        assert_eq!(got, vec![1, 2, 3]);
        // The panic is counted after the catch, which can lag the other
        // worker's replies; wait (bounded) for it to land.
        for _ in 0..2_000 {
            if pool.panics() == 1 {
                break;
            }
            std::thread::sleep(core::time::Duration::from_millis(1));
        }
        assert_eq!(pool.panics(), 1);
        assert_eq!(pool.respawned(), 1);
        assert!(pool.drain(2_000));
    }

    #[test]
    fn full_queue_sheds_and_closed_queue_rejects() {
        let (gate_tx, gate_rx) = channel::<()>();
        let gate_rx = Mutex::new(gate_rx);
        let pool = WorkerPool::new(1, 1, move |_: u64| {
            gate_rx.lock().expect("gate").recv().ok();
        });
        pool.try_submit(0).expect("first job admitted");
        // One job may already be in the worker's hands; fill the queue slot.
        let mut shed = false;
        for n in 1..=2 {
            if let Err(SubmitError::Full(j)) = pool.try_submit(n) {
                assert_eq!(j, n);
                shed = true;
                break;
            }
        }
        assert!(shed, "bounded queue never shed");
        gate_tx.send(()).ok();
        gate_tx.send(()).ok();
        pool.close();
        match pool.try_submit(99) {
            Err(SubmitError::Closed(j)) => assert_eq!(j, 99),
            other => panic!("expected Closed, got {other:?}"),
        }
        drop(gate_tx);
        assert!(pool.drain(2_000));
    }
}
