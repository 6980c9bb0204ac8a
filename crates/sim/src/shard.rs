//! Conservative-lookahead parallel execution primitives.
//!
//! One simulation is partitioned into *shards* — disjoint sets of devices,
//! each owning a private [`crate::EventQueue`] — that advance in lock-step
//! *windows*. The protocol (DESIGN.md §3, "Sharded execution") relies on a
//! single physical fact: every cross-shard event is delayed by at least
//! the wire's propagation time, the [`Lookahead`]. A shard processing
//! events in `[W, W + L)` can therefore never receive a message with a
//! timestamp below `W + L` from a peer working the same window, so one
//! barrier plus a mailbox drain per window is enough to keep every shard
//! causally consistent — no rollback, no speculative execution.
//!
//! Determinism does not come from the schedule (threads interleave
//! arbitrarily) but from ordering: every event carries a key assigned by
//! its *source* device (`(emission time, device, emission counter)`
//! packed into a `u128`), queues pop in `(time, key)` order
//! ([`crate::EventQueue::schedule`]), and
//! mailboxes are drained whole at window boundaries. A device's observed
//! event stream is then a pure function of the scenario, not of the
//! shard count or thread timing.
//!
//! The module is `std`-only: a sense-reversing [`SpinBarrier`] (with a
//! yield fallback so oversubscribed hosts make progress), a [`Mailbox`]
//! grid of per-edge `Mutex<Vec<_>>` cells, and [`run_sharded`], the
//! window scheduler driving `N − 1` scoped worker threads plus the
//! caller's thread as shard 0. It is the only run loop: a one-shard
//! simulation is the `N = 1` case, with an unbounded lookahead and
//! windows cut only by the event budget's polling cadence.

use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Mutex;

use crate::time::{SimDuration, SimTime};

/// Why [`run_sharded`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// Every event queue drained.
    QueueDrained,
    /// The time horizon was reached; events at the horizon are left
    /// unprocessed.
    HorizonReached,
    /// The event budget was exhausted.
    BudgetExhausted,
    /// The cancellation hook asked the run to stop.
    Cancelled,
}

/// The guaranteed lower bound on cross-shard event delay.
///
/// `bounded(d)` for a fabric whose minimum cross-shard link latency is
/// `d`; `unbounded()` when no edge crosses a shard boundary (a single
/// shard, or a partition that co-located every connected component), in
/// which case windows extend to the horizon.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lookahead(Option<SimDuration>);

impl Lookahead {
    /// A lookahead of `d`: cross-shard events sent at `t` arrive at or
    /// after `t + d`.
    ///
    /// # Panics
    ///
    /// Panics if `d` is zero — a zero lookahead admits same-instant
    /// cross-shard causality, which the windowed protocol cannot order.
    pub fn bounded(d: SimDuration) -> Self {
        assert!(d > SimDuration::ZERO, "lookahead must be positive");
        Lookahead(Some(d))
    }

    /// No cross-shard edges exist: windows run straight to the horizon.
    pub fn unbounded() -> Self {
        Lookahead(None)
    }

    /// The exclusive end of the window opening at `start`, clamped to
    /// `horizon`. Ordering contract: every event with `t < window_end` is
    /// safe to process once all mailboxes posted before the window are
    /// drained.
    pub fn window_end(&self, start: SimTime, horizon: SimTime) -> SimTime {
        match self.0 {
            Some(d) => (start + d).min(horizon),
            None => horizon,
        }
    }
}

/// A reusable sense-reversing spin barrier for a fixed party count.
///
/// Waiters spin briefly then fall back to [`std::thread::yield_now`], so
/// the barrier stays correct (if slow) when shards outnumber cores.
/// Ordering contract: all memory writes before a party's `wait` happen
/// before any party's return from the same generation (acquire/release on
/// the generation counter).
#[derive(Debug)]
pub struct SpinBarrier {
    parties: usize,
    arrived: AtomicUsize,
    generation: AtomicUsize,
}

/// Spins this many iterations before yielding the CPU to other threads.
const SPINS_BEFORE_YIELD: u32 = 128;

impl SpinBarrier {
    /// A barrier for `parties` participants.
    ///
    /// # Panics
    ///
    /// Panics if `parties` is zero.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0, "a barrier needs at least one party");
        SpinBarrier {
            parties,
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
        }
    }

    /// Blocks until all parties have called `wait` for the current
    /// generation. The last arrival releases everyone and flips the
    /// generation, making the barrier immediately reusable.
    pub fn wait(&self) {
        let gen = self.generation.load(Ordering::Acquire);
        if self.arrived.fetch_add(1, Ordering::AcqRel) + 1 == self.parties {
            self.arrived.store(0, Ordering::Release);
            self.generation
                .store(gen.wrapping_add(1), Ordering::Release);
            return;
        }
        let mut spins = 0u32;
        while self.generation.load(Ordering::Acquire) == gen {
            if spins < SPINS_BEFORE_YIELD {
                spins += 1;
                std::hint::spin_loop();
            } else {
                std::thread::yield_now();
            }
        }
    }
}

/// A `shards × shards` grid of cross-shard message cells.
///
/// Cell `(src, dst)` buffers messages travelling from shard `src` to
/// shard `dst`. During a window each worker only pushes to its own row
/// (uncontended in steady state); at a window boundary the destination
/// drains its column in ascending source order. Ordering contract:
/// [`Mailbox::drain_into`] appends whole cells in source-shard order with
/// each cell preserving post order — stable, so re-keyed scheduling into
/// an [`crate::EventQueue`] yields the same pop order however messages
/// were batched.
#[derive(Debug)]
pub struct Mailbox<M> {
    shards: usize,
    /// Row-major `[src * shards + dst]`.
    cells: Vec<Mutex<Vec<M>>>,
}

impl<M> Mailbox<M> {
    /// An empty grid for `shards` shards.
    ///
    /// # Panics
    ///
    /// Panics if `shards` is zero.
    pub fn new(shards: usize) -> Self {
        assert!(shards > 0, "a mailbox grid needs at least one shard");
        Mailbox {
            shards,
            cells: (0..shards * shards)
                .map(|_| Mutex::new(Vec::new()))
                .collect(),
        }
    }

    /// The number of shards the grid serves.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Posts one message from `src` to `dst`. Post order within a cell is
    /// preserved by [`Mailbox::drain_into`].
    pub fn post(&self, src: usize, dst: usize, msg: M) {
        // A poisoned cell means another shard panicked; that panic is
        // already propagating through the scheduler's join, so recovering
        // the data here (rather than double-panicking) is safe.
        let mut cell = match self.cells[src * self.shards + dst].lock() {
            Ok(v) => v,
            Err(poisoned) => poisoned.into_inner(),
        };
        cell.push(msg);
    }

    /// Moves every message addressed to `dst` into `sink`, in ascending
    /// source-shard order (cells keep their internal post order).
    /// Returns the number of messages drained.
    pub fn drain_into(&self, dst: usize, sink: &mut Vec<M>) -> u64 {
        let mut drained = 0u64;
        for src in 0..self.shards {
            let mut cell = match self.cells[src * self.shards + dst].lock() {
                Ok(v) => v,
                Err(poisoned) => poisoned.into_inner(),
            };
            drained += cell.len() as u64;
            sink.append(&mut cell);
        }
        drained
    }
}

/// One shard of a partitioned simulation, as seen by [`run_sharded`].
///
/// Implementors own a private event queue plus the devices of their
/// domain and exchange cross-shard events exclusively through a
/// [`Mailbox`] (lint rule D10). All methods are called with the window
/// protocol's ordering guarantees: `drain_inbound` and `next_time` run
/// between barriers (no peer is mutating mailboxes addressed here), and
/// `run_window(end, cap)` may process every local event with `t < end`.
pub trait ShardedWorld: Send {
    /// Drains this shard's pending mailbox messages into the local queue.
    /// Called once per window, before the global minimum is agreed on.
    fn drain_inbound(&mut self);

    /// The timestamp of this shard's earliest pending event, or `None`
    /// when the shard is idle.
    fn next_time(&mut self) -> Option<SimTime>;

    /// Processes local events strictly before `end` in `(time, key)`
    /// order, at most `cap` of them, posting cross-shard emissions to the
    /// mailbox. Returns the number of events processed.
    fn run_window(&mut self, end: SimTime, cap: u64) -> u64;
}

/// Per-shard execution counters reported by [`run_sharded`].
///
/// `events` and `windows` are deterministic for a fixed scenario and
/// shard count; `barrier_ns` is wall-clock attribution of time spent
/// waiting at window barriers and is only collected under the `sim-prof`
/// feature (zero otherwise) — it must never feed simulated state.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShardRunStats {
    /// Events this shard processed.
    pub events: u64,
    /// Windows this shard participated in.
    pub windows: u64,
    /// Wall-clock nanoseconds spent waiting at barriers (`sim-prof` only).
    pub barrier_ns: u64,
}

/// Sentinel published through the coordination slot: no pending events.
const T_NONE: u64 = u64::MAX;

/// Leader verdicts: `verdict` holds a window-start timestamp, or
/// `STOP - outcome` when the run ends (timestamps near `u64::MAX` cannot
/// occur: `T_NONE` aside, window starts are below the horizon).
const STOP_BASE: u64 = u64::MAX - 8;

fn encode_stop(outcome: RunOutcome) -> u64 {
    STOP_BASE
        + match outcome {
            RunOutcome::QueueDrained => 0,
            RunOutcome::HorizonReached => 1,
            RunOutcome::BudgetExhausted => 2,
            RunOutcome::Cancelled => 3,
        }
}

fn decode_stop(v: u64) -> Option<RunOutcome> {
    match v.checked_sub(STOP_BASE) {
        Some(0) => Some(RunOutcome::QueueDrained),
        Some(1) => Some(RunOutcome::HorizonReached),
        Some(2) => Some(RunOutcome::BudgetExhausted),
        Some(3) => Some(RunOutcome::Cancelled),
        _ => None,
    }
}

/// Shared coordination state for one [`run_sharded`] call.
struct WindowSync {
    barrier: SpinBarrier,
    /// Per-shard published next-event times (`T_NONE` = idle).
    mins: Vec<AtomicU64>,
    /// Per-shard cumulative event counts (for the budget check).
    events: Vec<AtomicU64>,
    /// Leader-published window start or stop verdict.
    verdict: AtomicU64,
    /// Leader-published per-shard event cap for the window.
    cap: AtomicU64,
}

/// The leader's budget policy for the next window: a stop reason, or the
/// per-shard event cap (`Ok`) given the events run so far.
type Policy<'a> = &'a mut dyn FnMut(u64) -> Result<u64, RunOutcome>;

/// One worker's traversal of the window protocol. `leader` is `Some`
/// for shard 0, carrying the budget/cancellation policy closure.
fn shard_loop<W: ShardedWorld>(
    shard: usize,
    world: &mut W,
    sync: &WindowSync,
    lookahead: Lookahead,
    horizon: SimTime,
    mut leader: Option<Policy<'_>>,
) -> ShardRunStats {
    let mut stats = ShardRunStats::default();
    loop {
        // Phase 0: wait for every shard to finish the previous window, so
        // all cross-shard posts for it are visible before mailboxes drain.
        // Without this a fast shard could publish its minimum while a slow
        // peer is still posting, and the leader would miss an in-flight
        // event when folding the minima.
        barrier_wait(sync, &mut stats);

        // Phase 1: merge inbound messages, publish the local minimum.
        world.drain_inbound();
        let min = world.next_time().map_or(T_NONE, SimTime::as_ps);
        sync.mins[shard].store(min, Ordering::Release);
        sync.events[shard].store(stats.events, Ordering::Release);
        barrier_wait(sync, &mut stats);

        // Phase 2: the leader folds the minima into a verdict.
        if let Some(policy) = leader.as_deref_mut() {
            let global_min = sync
                .mins
                .iter()
                .map(|m| m.load(Ordering::Acquire))
                .min()
                .unwrap_or(T_NONE);
            let total: u64 = sync.events.iter().map(|e| e.load(Ordering::Acquire)).sum();
            let verdict = match policy(total) {
                Err(out) => encode_stop(out),
                Ok(_) if global_min == T_NONE => encode_stop(RunOutcome::QueueDrained),
                Ok(_) if global_min >= horizon.as_ps() => encode_stop(RunOutcome::HorizonReached),
                Ok(cap) => {
                    sync.cap.store(cap, Ordering::Release);
                    global_min
                }
            };
            sync.verdict.store(verdict, Ordering::Release);
        }
        barrier_wait(sync, &mut stats);

        // Phase 3: everyone acts on the verdict.
        let verdict = sync.verdict.load(Ordering::Acquire);
        if decode_stop(verdict).is_some() {
            return stats;
        }
        let start = SimTime::from_ps(verdict);
        let end = lookahead.window_end(start, horizon);
        stats.events += world.run_window(end, sync.cap.load(Ordering::Acquire));
        stats.windows += 1;
    }
}

#[cfg(feature = "sim-prof")]
fn barrier_wait(sync: &WindowSync, stats: &mut ShardRunStats) {
    // prof_wait: wall-clock barrier attribution, gated behind `sim-prof`
    // (lint.toml D2 allow) — diagnostics only, never simulated state.
    let prof_wait = std::time::Instant::now();
    sync.barrier.wait();
    stats.barrier_ns += prof_wait.elapsed().as_nanos() as u64;
}

#[cfg(not(feature = "sim-prof"))]
fn barrier_wait(sync: &WindowSync, stats: &mut ShardRunStats) {
    let _ = stats;
    sync.barrier.wait();
}

/// Drives a partitioned simulation to `horizon` (exclusive) under an
/// event budget and a cooperative cancellation hook.
///
/// Shard 0 runs on the calling thread (and acts as the window leader);
/// the remaining shards run on scoped worker threads. Ordering contract:
/// events pop per shard in `(time, key)` order within windows of
/// `lookahead` width, which for source-assigned keys makes results
/// independent of the shard count and of thread scheduling; see the
/// module docs.
///
/// Every window is also capped at `min(check_every, events left in the
/// budget)` events per shard (`check_every` is clamped to at least 1).
/// `cancelled` is polled on the calling thread before every window, and
/// the run stops with [`RunOutcome::BudgetExhausted`] at the first window
/// boundary where the running total has reached `max_events`. On one
/// shard the budget is therefore exact and the hook is polled every
/// `check_every` events; on `N` shards up to `N − 1` further capped
/// windows' worth of events may run past the budget. Capping does not
/// change results: an uninterrupted run pops the same events in the
/// same order for any `check_every`, and an interrupted one resumes
/// seamlessly on the next call.
///
/// Returns the stop reason plus per-shard [`ShardRunStats`] (index =
/// shard).
pub fn run_sharded<W: ShardedWorld>(
    worlds: &mut [W],
    lookahead: Lookahead,
    horizon: SimTime,
    max_events: u64,
    check_every: u64,
    cancelled: &mut dyn FnMut() -> bool,
) -> (RunOutcome, Vec<ShardRunStats>) {
    let shards = worlds.len();
    assert!(shards > 0, "run_sharded needs at least one shard");
    let sync = WindowSync {
        barrier: SpinBarrier::new(shards),
        mins: (0..shards).map(|_| AtomicU64::new(T_NONE)).collect(),
        events: (0..shards).map(|_| AtomicU64::new(0)).collect(),
        verdict: AtomicU64::new(T_NONE),
        cap: AtomicU64::new(0),
    };
    let check_every = check_every.max(1);
    let mut policy = |total: u64| -> Result<u64, RunOutcome> {
        if cancelled() {
            Err(RunOutcome::Cancelled)
        } else if total >= max_events {
            Err(RunOutcome::BudgetExhausted)
        } else {
            Ok(check_every.min(max_events - total))
        }
    };

    let Some((first, rest)) = worlds.split_first_mut() else {
        // Unreachable: the `shards > 0` assert above covers the empty case.
        return (RunOutcome::QueueDrained, Vec::new());
    };
    let mut all_stats = vec![ShardRunStats::default(); shards];
    let sync_ref = &sync;
    let leader_stats = std::thread::scope(|scope| {
        let handles: Vec<_> = rest
            .iter_mut()
            .enumerate()
            .map(|(i, world)| {
                scope.spawn(move || shard_loop(i + 1, world, sync_ref, lookahead, horizon, None))
            })
            .collect();
        let leader = shard_loop(0, first, sync_ref, lookahead, horizon, Some(&mut policy));
        for (i, h) in handles.into_iter().enumerate() {
            match h.join() {
                Ok(stats) => all_stats[i + 1] = stats,
                Err(e) => std::panic::resume_unwind(e),
            }
        }
        leader
    });
    all_stats[0] = leader_stats;
    let Some(outcome) = decode_stop(sync.verdict.load(Ordering::Acquire)) else {
        debug_assert!(false, "shard loop exited without a stop verdict");
        return (RunOutcome::QueueDrained, all_stats);
    };
    (outcome, all_stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::EventQueue;

    #[test]
    fn lookahead_window_end_clamps_to_horizon() {
        let la = Lookahead::bounded(SimDuration::from_ns(5));
        assert_eq!(
            la.window_end(SimTime::from_ns(10), SimTime::from_ns(100)),
            SimTime::from_ns(15)
        );
        assert_eq!(
            la.window_end(SimTime::from_ns(98), SimTime::from_ns(100)),
            SimTime::from_ns(100)
        );
        let inf = Lookahead::unbounded();
        assert_eq!(
            inf.window_end(SimTime::ZERO, SimTime::from_ns(100)),
            SimTime::from_ns(100)
        );
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn zero_lookahead_rejected() {
        let _ = Lookahead::bounded(SimDuration::ZERO);
    }

    #[test]
    fn spin_barrier_synchronizes_and_reuses() {
        let barrier = SpinBarrier::new(4);
        let counter = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for round in 1..=16usize {
                        counter.fetch_add(1, Ordering::SeqCst);
                        barrier.wait();
                        // Between barriers every party observes the full
                        // round's increments.
                        assert_eq!(counter.load(Ordering::SeqCst), 4 * round);
                        barrier.wait();
                    }
                });
            }
        });
    }

    #[test]
    fn mailbox_drains_in_source_order() {
        let grid: Mailbox<u32> = Mailbox::new(3);
        grid.post(2, 0, 20);
        grid.post(0, 0, 1);
        grid.post(0, 0, 2);
        grid.post(1, 0, 10);
        grid.post(1, 2, 99); // other destination: untouched
        let mut sink = Vec::new();
        assert_eq!(grid.drain_into(0, &mut sink), 4);
        assert_eq!(sink, vec![1, 2, 10, 20]);
        sink.clear();
        assert_eq!(grid.drain_into(0, &mut sink), 0);
        assert_eq!(grid.drain_into(2, &mut sink), 1);
        assert_eq!(sink, vec![99]);
    }

    /// A toy sharded world: `K` counters ping-ponging messages around a
    /// ring with a fixed delay. Used to check the window protocol against
    /// a sequential reference.
    struct RingShard {
        id: usize,
        shards: usize,
        q: EventQueue<u64>,
        grid: std::sync::Arc<Mailbox<(u64, u128, u64)>>, // (at_ps, key, hops)
        inbox: Vec<(u64, u128, u64)>,
        delay: SimDuration,
        seen: Vec<u64>,
        ctr: u64,
    }

    impl ShardedWorld for RingShard {
        fn drain_inbound(&mut self) {
            let mut inbox = std::mem::take(&mut self.inbox);
            self.grid.drain_into(self.id, &mut inbox);
            for (at_ps, key, hops) in inbox.drain(..) {
                self.q.schedule(SimTime::from_ps(at_ps), key, hops);
            }
            self.inbox = inbox;
        }

        fn next_time(&mut self) -> Option<SimTime> {
            self.q.peek_time()
        }

        fn run_window(&mut self, end: SimTime, cap: u64) -> u64 {
            let mut n = 0;
            while n < cap && self.q.peek_time().is_some_and(|t| t < end) {
                let Some((now, hops)) = self.q.pop() else {
                    break;
                };
                n += 1;
                self.seen.push(hops);
                if hops > 0 {
                    let key = ((self.id as u128) << 64) | u128::from(self.ctr);
                    self.ctr += 1;
                    let at = now + self.delay;
                    let dst = (self.id + 1) % self.shards;
                    if dst == self.id {
                        self.q.schedule(at, key, hops - 1);
                    } else {
                        self.grid.post(self.id, dst, (at.as_ps(), key, hops - 1));
                    }
                }
            }
            n
        }
    }

    fn ring_run(shards: usize, hops: u64, horizon: SimTime) -> (RunOutcome, Vec<Vec<u64>>) {
        let grid = std::sync::Arc::new(Mailbox::new(shards));
        let delay = SimDuration::from_ns(7);
        let mut worlds: Vec<RingShard> = (0..shards)
            .map(|id| RingShard {
                id,
                shards,
                q: EventQueue::new(),
                grid: std::sync::Arc::clone(&grid),
                inbox: Vec::new(),
                delay,
                seen: Vec::new(),
                ctr: 0,
            })
            .collect();
        // The token starts on shard 0 at t = 1 ns.
        worlds[0].q.schedule(SimTime::from_ns(1), u128::MAX, hops);
        let la = if shards > 1 {
            Lookahead::bounded(delay)
        } else {
            Lookahead::unbounded()
        };
        let (out, stats) = run_sharded(&mut worlds, la, horizon, u64::MAX, 64, &mut || false);
        let total: u64 = stats.iter().map(|s| s.events).sum();
        let seen_total: usize = worlds.iter().map(|w| w.seen.len()).sum();
        assert_eq!(total as usize, seen_total);
        (out, worlds.into_iter().map(|w| w.seen).collect())
    }

    #[test]
    fn ring_token_visits_every_shard_deterministically() {
        let horizon = SimTime::from_us(1);
        let (out1, seen1) = ring_run(3, 50, horizon);
        let (out2, seen2) = ring_run(3, 50, horizon);
        assert_eq!(out1, RunOutcome::QueueDrained);
        assert_eq!(out1, out2);
        assert_eq!(seen1, seen2);
        // 51 events total (hops 50 down to 0), round-robin across shards.
        assert_eq!(seen1.iter().map(Vec::len).sum::<usize>(), 51);
        assert_eq!(seen1[0][0], 50);
        assert_eq!(seen1[1][0], 49);
    }

    #[test]
    fn horizon_stops_sharded_run() {
        // 7 ns per hop, horizon 50 ns: events at 1, 8, 15, 22, 29, 36, 43
        // fire; the event at 50 ns does not (horizon exclusive).
        let (out, seen) = ring_run(2, 1000, SimTime::from_ns(50));
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(seen.iter().map(Vec::len).sum::<usize>(), 7);
    }

    #[test]
    fn budget_and_cancellation_stop_runs() {
        let grid = std::sync::Arc::new(Mailbox::new(1));
        let mut worlds = vec![RingShard {
            id: 0,
            shards: 1,
            q: EventQueue::new(),
            grid,
            inbox: Vec::new(),
            delay: SimDuration::from_ns(1),
            seen: Vec::new(),
            ctr: 0,
        }];
        worlds[0].q.schedule(SimTime::from_ns(1), 0, 1_000_000);
        let (out, _) = run_sharded(
            &mut worlds,
            Lookahead::unbounded(),
            SimTime::from_us(100),
            10,
            4,
            &mut || false,
        );
        assert_eq!(out, RunOutcome::BudgetExhausted);

        let (out, _) = run_sharded(
            &mut worlds,
            Lookahead::unbounded(),
            SimTime::from_us(100),
            u64::MAX,
            4,
            &mut || true,
        );
        assert_eq!(out, RunOutcome::Cancelled);
    }

    /// A one-shard world ticking every 10 ns from t = 0: the run-loop
    /// contract at `N = 1`.
    struct Ticker {
        q: EventQueue<u32>,
        ticks: Vec<SimTime>,
    }

    impl Ticker {
        fn new() -> Self {
            let mut q = EventQueue::new();
            q.schedule(SimTime::ZERO, 0, 0);
            Ticker {
                q,
                ticks: Vec::new(),
            }
        }

        fn run(
            &mut self,
            horizon: SimTime,
            max_events: u64,
            check_every: u64,
            cancelled: &mut dyn FnMut() -> bool,
        ) -> RunOutcome {
            let (out, stats) = run_sharded(
                std::slice::from_mut(self),
                Lookahead::unbounded(),
                horizon,
                max_events,
                check_every,
                cancelled,
            );
            assert_eq!(stats.len(), 1);
            out
        }
    }

    impl ShardedWorld for Ticker {
        fn drain_inbound(&mut self) {}

        fn next_time(&mut self) -> Option<SimTime> {
            self.q.peek_time()
        }

        fn run_window(&mut self, end: SimTime, cap: u64) -> u64 {
            let mut n = 0;
            while n < cap && self.q.peek_time().is_some_and(|t| t < end) {
                let Some((now, ev)) = self.q.pop() else { break };
                n += 1;
                self.ticks.push(now);
                self.q
                    .schedule(now + SimDuration::from_ns(10), u128::from(ev) + 1, ev + 1);
            }
            n
        }
    }

    #[test]
    fn one_shard_horizon_is_exclusive_and_resumable() {
        let mut w = Ticker::new();
        let out = w.run(SimTime::from_ns(35), u64::MAX, 3, &mut || false);
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(w.ticks.len(), 4); // t = 0, 10, 20, 30

        // An event exactly at the horizon is left for the next call.
        let out = w.run(SimTime::from_ns(50), u64::MAX, 1024, &mut || false);
        assert_eq!(out, RunOutcome::HorizonReached);
        assert_eq!(w.ticks.last(), Some(&SimTime::from_ns(40)));

        // Resuming to a later horizon continues seamlessly.
        w.run(SimTime::from_ns(55), u64::MAX, 1024, &mut || false);
        assert_eq!(w.ticks.len(), 6); // + t = 50
        let expected: Vec<SimTime> = (0..6).map(|i| SimTime::from_ns(10 * i)).collect();
        assert_eq!(w.ticks, expected);
    }

    #[test]
    fn one_shard_event_budget_is_exact() {
        let mut w = Ticker::new();
        let out = w.run(SimTime::from_ns(1_000_000_000), 100, 8, &mut || false);
        assert_eq!(out, RunOutcome::BudgetExhausted);
        assert_eq!(w.ticks.len(), 100);
        // The budget is per call: the next call picks up where it stopped.
        let out = w.run(SimTime::from_ns(1_000_000_000), 7, 1024, &mut || false);
        assert_eq!(out, RunOutcome::BudgetExhausted);
        assert_eq!(w.ticks.len(), 107);
        assert_eq!(w.ticks.last(), Some(&SimTime::from_ns(1060)));
    }

    #[test]
    fn one_shard_cancellation_stops_between_chunks() {
        let mut w = Ticker::new();
        let mut checks = 0u64;
        let out = w.run(SimTime::from_ns(1_000_000_000), u64::MAX, 7, &mut || {
            checks += 1;
            checks > 3
        });
        assert_eq!(out, RunOutcome::Cancelled);
        assert_eq!(w.ticks.len(), 21); // three full chunks of 7
        assert_eq!(checks, 4);
    }

    #[test]
    fn one_shard_chunking_does_not_change_results() {
        let horizon = SimTime::from_ns(995);
        let mut whole = Ticker::new();
        let mut chunked = Ticker::new();
        let a = whole.run(horizon, u64::MAX, u64::MAX, &mut || false);
        let b = chunked.run(horizon, u64::MAX, 3, &mut || false);
        assert_eq!(
            (a, b),
            (RunOutcome::HorizonReached, RunOutcome::HorizonReached)
        );
        assert_eq!(whole.ticks, chunked.ticks);
    }

    #[test]
    fn empty_world_drains_immediately() {
        let mut w = Ticker::new();
        w.q.clear();
        let out = w.run(SimTime::from_ns(100), u64::MAX, 8, &mut || false);
        assert_eq!(out, RunOutcome::QueueDrained);
        assert!(w.ticks.is_empty());
    }
}
