//! The run loop: one [`World`] advanced on the calling thread under a
//! time horizon, an exact event budget and a cooperative cancellation
//! hook.
//!
//! A simulation is single-threaded (DESIGN.md §6): parallelism runs
//! across independent simulations, never inside one. The loop therefore
//! only cuts the run into chunks of at most `check_every` events, so an
//! external signal (a wall-clock deadline, a shutdown flag) is consulted
//! between chunks without ever entering the deterministic engine.
//!
//! Determinism comes from ordering: every event carries a key assigned
//! by its source (`(emission time, device, emission counter)` packed into
//! a `u128`) and the queue pops in `(time, key)` order
//! ([`crate::EventQueue::schedule`]). Chunking changes nothing: an
//! uninterrupted run pops the same events in the same order for any
//! `check_every`, and an interrupted one resumes seamlessly on the next
//! call.

use crate::time::SimTime;

/// Why [`run`] stopped.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunOutcome {
    /// The event queue drained.
    QueueDrained,
    /// The time horizon was reached; events at the horizon are left
    /// unprocessed.
    HorizonReached,
    /// The event budget was exhausted.
    BudgetExhausted,
    /// The cancellation hook asked the run to stop.
    Cancelled,
}

/// A simulation as seen by [`run`]: an event queue and the state its
/// events act on.
pub trait World {
    /// The timestamp of the earliest pending event, or `None` when the
    /// queue is empty.
    fn next_time(&mut self) -> Option<SimTime>;

    /// Processes pending events strictly before `end` in `(time, key)`
    /// order, at most `cap` of them. Returns the number of events
    /// processed.
    fn run_window(&mut self, end: SimTime, cap: u64) -> u64;
}

/// Drives `world` toward `horizon` (exclusive) under an event budget and
/// a cooperative cancellation hook.
///
/// Before every chunk of at most `min(check_every, events left in the
/// budget)` events (`check_every` is clamped to at least 1), the stop
/// checks run in this order: `cancelled` is polled, then the budget —
/// the run stops with [`RunOutcome::BudgetExhausted`] once exactly
/// `max_events` events have run in this call — then the queue:
/// [`RunOutcome::QueueDrained`] when it is empty,
/// [`RunOutcome::HorizonReached`] when its next event is at or past
/// `horizon`.
///
/// Ordering contract: events pop in `(time, key)` order across chunk and
/// call boundaries, so an interrupted run resumes on the next call
/// exactly where an uninterrupted one would be.
pub fn run<W: World + ?Sized>(
    world: &mut W,
    horizon: SimTime,
    max_events: u64,
    check_every: u64,
    cancelled: &mut dyn FnMut() -> bool,
) -> RunOutcome {
    let check_every = check_every.max(1);
    let mut events = 0u64;
    loop {
        if cancelled() {
            return RunOutcome::Cancelled;
        }
        if events >= max_events {
            return RunOutcome::BudgetExhausted;
        }
        match world.next_time() {
            None => return RunOutcome::QueueDrained,
            Some(t) if t >= horizon => return RunOutcome::HorizonReached,
            Some(_) => {}
        }
        events += world.run_window(horizon, check_every.min(max_events - events));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{EventQueue, SimDuration};

    /// A world ticking every 10 ns from t = 0: the run-loop contract.
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
            run(self, horizon, max_events, check_every, cancelled)
        }
    }

    impl World for Ticker {
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
