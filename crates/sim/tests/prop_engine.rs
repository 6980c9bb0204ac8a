//! Property tests for the event engine.

use proptest::prelude::*;
use rperf_sim::{EventQueue, SimDuration, SimRng, SimTime};

proptest! {
    /// Pops are globally sorted by time, and by key within a time.
    #[test]
    fn pops_sorted_by_time_then_key(
        events in prop::collection::vec((0u64..1_000, 0u64..8), 1..200),
    ) {
        let mut q = EventQueue::new();
        for (i, &(t, rank)) in events.iter().enumerate() {
            let key = (u128::from(rank) << 64) | i as u128;
            q.schedule(SimTime::from_ps(t), key, (t, key));
        }
        let mut last: Option<(u64, u128)> = None;
        let mut popped = 0;
        while let Some((at, (t, key))) = q.pop() {
            prop_assert_eq!(at, SimTime::from_ps(t));
            if let Some(prev) = last {
                prop_assert!((t, key) > prev, "(time, key) order violated");
            }
            last = Some((t, key));
            popped += 1;
        }
        prop_assert_eq!(popped, events.len());
    }

    /// Counting invariant: everything scheduled is popped exactly once.
    #[test]
    fn conservation_of_events(times in prop::collection::vec(0u64..10_000, 0..300)) {
        let mut q = EventQueue::new();
        for &t in &times {
            q.schedule(SimTime::from_ps(t), 0, ());
        }
        let mut popped = 0;
        while q.pop().is_some() {
            popped += 1;
        }
        prop_assert_eq!(popped, times.len());
        prop_assert_eq!(q.popped() as usize, times.len());
    }

    /// The RNG is a pure function of its seed.
    #[test]
    fn rng_determinism(seed in any::<u64>()) {
        let mut a = SimRng::new(seed);
        let mut b = SimRng::new(seed);
        for _ in 0..32 {
            prop_assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    /// Uniform range stays in bounds for arbitrary bounds.
    #[test]
    fn rng_range_in_bounds(seed in any::<u64>(), lo in 0u64..1_000_000, width in 1u64..1_000_000) {
        let mut r = SimRng::new(seed);
        for _ in 0..64 {
            let x = r.range(lo, lo + width);
            prop_assert!((lo..lo + width).contains(&x));
        }
    }

    /// Exponential samples are non-negative and have plausible scale.
    #[test]
    fn rng_exp_positive(seed in any::<u64>(), mean_ns in 1u64..100_000) {
        let mut r = SimRng::new(seed);
        let mean = SimDuration::from_ns(mean_ns);
        for _ in 0..32 {
            let d = r.exp_duration(mean);
            // An Exp sample exceeding 50× the mean has probability e^-50.
            prop_assert!(d < mean * 50 + SimDuration::from_ns(1));
        }
    }

    /// Time arithmetic: (t + d) - t == d for all in-range values.
    #[test]
    fn time_add_sub_roundtrip(t in 0u64..u64::MAX / 2, d in 0u64..u64::MAX / 4) {
        let base = SimTime::from_ps(t);
        let dur = SimDuration::from_ps(d);
        prop_assert_eq!((base + dur) - base, dur);
        prop_assert_eq!((base + dur).saturating_since(base), dur);
        prop_assert_eq!(base.saturating_since(base + dur), SimDuration::ZERO);
    }
}
