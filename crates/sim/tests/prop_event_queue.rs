//! Differential property tests: the timer-wheel [`EventQueue`] must be
//! observationally identical to the [`HeapEventQueue`] reference oracle for
//! arbitrary interleaved keyed schedule/pop sequences, including
//! same-instant events that arrive out of key order.

use proptest::prelude::*;
use rperf_sim::reference::HeapEventQueue;
use rperf_sim::{EventQueue, SimTime};

/// The ordering key of the `id`-th scheduled event. `rank` in the high
/// half sets its place among events at the same instant — ranks repeat
/// and arrive in any order, as the fabric's emission keys do when events
/// reach a queue from several sources — and `id` in the low half keeps
/// every key unique.
fn key(rank: u8, id: u64) -> u128 {
    (u128::from(rank) << 64) | u128::from(id)
}

/// Replays one interleaved op sequence through both queues and asserts every
/// observable (pop results, peek, now, len, popped counter) matches.
///
/// Each op is `(is_pop, delay, rank)`: a pop, or a schedule `delay`
/// picoseconds after the queue's `now` under rank `rank`. Delays are
/// always non-negative, so the past-scheduling debug assertion never fires
/// here (that behaviour has its own test below).
fn run_differential(ops: &[(bool, u64, u8)]) -> Result<(), TestCaseError> {
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut next_id = 0u64;
    for &(is_pop, delay, rank) in ops {
        if is_pop {
            let w = wheel.pop();
            let h = heap.pop();
            prop_assert_eq!(w, h, "pop mismatch");
        } else {
            // Schedule relative to the wheel's own `now` (the heap's `now`
            // is identical — asserted below — so both see the same instant).
            let at = SimTime::from_ps(wheel.now().as_ps().saturating_add(delay));
            wheel.schedule(at, key(rank, next_id), next_id);
            heap.schedule(at, key(rank, next_id), next_id);
            next_id += 1;
        }
        prop_assert_eq!(wheel.now(), heap.now(), "now mismatch");
        prop_assert_eq!(wheel.len(), heap.len(), "len mismatch");
        prop_assert_eq!(wheel.popped(), heap.popped(), "popped mismatch");
        prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "peek mismatch");
    }
    // Drain both to the end: the full residual order must match too.
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        prop_assert_eq!(w, h, "drain mismatch");
        if w.is_none() {
            break;
        }
    }
    Ok(())
}

/// Replays an op sequence heavy on same-timestamp bursts. Each op is
/// `(kind, delay, burst)`:
///
/// - `kind % 3 == 0` — pop, compared against the oracle's pop.
/// - `kind % 3 == 1` — single schedule, as in [`run_differential`].
/// - `kind % 3 == 2` — adversarial same-timestamp burst: `burst % 17 + 1`
///   back-to-back schedules at one instant with descending ranks, so every
///   event after the first arrives below its predecessor's key.
fn run_differential_bursts(ops: &[(u8, u64, u64)]) -> Result<(), TestCaseError> {
    let mut wheel: EventQueue<u64> = EventQueue::new();
    let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
    let mut next_id = 0u64;
    for &(kind, delay, burst) in ops {
        if kind % 3 == 0 {
            prop_assert_eq!(wheel.pop(), heap.pop(), "pop mismatch");
        } else {
            let at = SimTime::from_ps(wheel.now().as_ps().saturating_add(delay));
            let n = if kind % 3 == 1 { 1 } else { burst % 17 + 1 };
            for j in 0..n {
                let rank = (n - j) as u8;
                wheel.schedule(at, key(rank, next_id), next_id);
                heap.schedule(at, key(rank, next_id), next_id);
                next_id += 1;
            }
        }
        prop_assert_eq!(wheel.now(), heap.now(), "now mismatch");
        prop_assert_eq!(wheel.len(), heap.len(), "len mismatch");
        prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "peek mismatch");
    }
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        prop_assert_eq!(w, h, "drain mismatch");
        if w.is_none() {
            break;
        }
    }
    Ok(())
}

proptest! {
    /// Near-horizon mix: delays within a few wheel buckets, heavy on ties.
    #[test]
    fn wheel_matches_heap_near(ops in prop::collection::vec(
        (any::<bool>(), 0u64..5_000, 0u8..4), 1..400))
    {
        run_differential(&ops)?;
    }

    /// Far-horizon mix: delays spanning many cascade levels (ns to ~18 ms),
    /// exercising bucket redistribution on rotation.
    #[test]
    fn wheel_matches_heap_far(ops in prop::collection::vec(
        (any::<bool>(), 0u64..18_000_000_000, 0u8..4), 1..200))
    {
        run_differential(&ops)?;
    }

    /// Bimodal mix: mostly same-instant or next-nanosecond events with
    /// occasional huge jumps, the pattern real device models produce.
    #[test]
    fn wheel_matches_heap_bimodal(ops in prop::collection::vec(
        (any::<bool>(), prop::collection::vec(0u64..2, 1..2), 0u8..4), 1..300),
        far in 1_000_000u64..1_000_000_000_000)
    {
        let shaped: Vec<(bool, u64, u8)> = ops
            .iter()
            .enumerate()
            .map(|(i, (is_pop, small, rank))| {
                let delay = if i % 7 == 3 { far } else { small[0] * 800 };
                (*is_pop, delay, *rank)
            })
            .collect();
        run_differential(&shaped)?;
    }

    /// Same-timestamp bursts, near horizon: heavy on ties landing in the
    /// ready lane and overflow heap.
    #[test]
    fn wheel_matches_heap_bursts_near(ops in prop::collection::vec(
        (0u8..6, 0u64..5_000, 0u64..40), 1..300))
    {
        run_differential_bursts(&ops)?;
    }

    /// Same-timestamp bursts, far horizon: bursts hash into deep wheel
    /// levels and cascade back down on rotation.
    #[test]
    fn wheel_matches_heap_bursts_far(ops in prop::collection::vec(
        (0u8..6, 0u64..18_000_000_000, 0u64..40), 1..150))
    {
        run_differential_bursts(&ops)?;
    }

    /// Empty-window skips: every round drains the queue to empty, then the
    /// next round jumps far into the future. The schedule-into-empty
    /// cursor-jump fast path and the depth-adaptive cascade fire on every
    /// round, and both sides must agree after each skip.
    #[test]
    fn wheel_matches_heap_empty_window_skips(rounds in prop::collection::vec(
        (1u64..8, 1_000u64..1_000_000_000_000), 1..40))
    {
        let mut wheel: EventQueue<u64> = EventQueue::new();
        let mut heap: HeapEventQueue<u64> = HeapEventQueue::new();
        let mut next_id = 0u64;
        for &(burst, jump) in &rounds {
            let at = SimTime::from_ps(wheel.now().as_ps().saturating_add(jump));
            for j in 0..burst {
                let rank = (burst - j) as u8;
                wheel.schedule(at, key(rank, next_id + j), next_id + j);
                heap.schedule(at, key(rank, next_id + j), next_id + j);
            }
            next_id += burst;
            for _ in 0..burst {
                prop_assert_eq!(wheel.pop(), heap.pop(), "skip-round pop mismatch");
            }
            prop_assert!(wheel.is_empty(), "wheel not drained after round");
            prop_assert_eq!(wheel.now(), heap.now(), "now mismatch after round");
        }
    }
}

/// The wheel keeps the heap's past-scheduling contract: debug builds panic.
#[test]
#[should_panic(expected = "scheduled in the past")]
fn wheel_panics_on_past_schedule_like_heap() {
    let mut q: EventQueue<()> = EventQueue::new();
    q.schedule(SimTime::from_ns(10), 0, ());
    q.pop();
    q.schedule(SimTime::from_ns(5), 0, ());
}

/// And so does the oracle itself (documents that both sides enforce it).
#[test]
#[should_panic(expected = "scheduled in the past")]
fn heap_panics_on_past_schedule() {
    let mut q: HeapEventQueue<()> = HeapEventQueue::new();
    q.schedule(SimTime::from_ns(10), 0, ());
    q.pop();
    q.schedule(SimTime::from_ns(5), 0, ());
}
