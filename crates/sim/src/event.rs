//! A keyed timestamped event queue backed by a hierarchical timer wheel.
//!
//! See [`EventQueue`] for the public contract and the module-level notes on
//! `DESIGN.md` §"Event scheduler" for the full determinism argument. The
//! previous `BinaryHeap` implementation lives on as
//! [`crate::reference::HeapEventQueue`], the oracle the property tests and
//! benches compare against.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Log2 of the bucket width in picoseconds: events are hashed into the wheel
/// by `at.as_ps() >> TICK_BITS`, i.e. 4096 ps (~4 ns) buckets. At 100 Gbps a
/// byte serializes in 80 ps, so a bucket holds a cache-line's worth of
/// back-to-back byte boundaries — small enough that the per-bucket sort
/// stays a handful of entries, large enough that consecutive events share a
/// bucket and one `advance` refills the ready lane for several pops (the
/// fixed advance overhead is what dominates short diverse-timestamp
/// figures; see DESIGN.md §3).
const TICK_BITS: u32 = 12;

/// Log2 of the slots per wheel level.
const SLOT_BITS: u32 = 6;

/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;

/// Slot index mask.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;

/// Number of levels: 54 tick bits (64 − `TICK_BITS`) / 6 bits per level,
/// rounded up. Level `L` spans `2^(10 + 6·(L+1))` ps, so the hierarchy covers
/// the entire `u64` picosecond range.
const LEVELS: usize = 9;

#[inline]
const fn tick_of(at: SimTime) -> u64 {
    at.as_ps() >> TICK_BITS
}

/// Bitmask of the slots strictly above `slot` (0..=63).
#[inline]
const fn above_mask(slot: u32) -> u64 {
    if slot >= 63 {
        0
    } else {
        !0u64 << (slot + 1)
    }
}

/// A priority queue of `(SimTime, key, E)` triples that pops events in
/// non-decreasing `(time, key)` order.
///
/// The caller supplies every event's ordering key: events scheduled for
/// the same instant pop in ascending key order, whatever order they were
/// scheduled in. That is the one ordering contract, and it is what keeps
/// simulations deterministic — the fabric derives each key from the
/// simulated history alone, so pop order does not depend on how events
/// reached the queue. Events that share both time and key pop in an
/// unspecified order; callers that care give each one its own key.
///
/// The queue also tracks the timestamp of the last popped event as the
/// current simulation time ([`EventQueue::now`]); scheduling in the past is
/// a logic error and panics in debug builds.
///
/// # Implementation
///
/// Internally this is a hierarchical timer wheel (calendar queue) rather
/// than a binary heap: time is quantised into 4096 ps ticks, the next ~64
/// ticks live in level-0 buckets, and exponentially coarser levels hold the
/// far future, cascading down as the wheel rotates. Events landing behind
/// the wheel cursor (it advances to the next *occupied* bucket, which can
/// overshoot a sparse queue's near future) are absorbed by a small overflow
/// min-heap, so scheduling and popping are O(1) amortised in steady state
/// with an O(log n) worst case, and the `(time, key)` order is
/// bit-identical to the reference heap (enforced by a property test
/// against [`crate::reference::HeapEventQueue`]).
///
/// # Examples
///
/// ```
/// use rperf_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_ns(10), 0, "late");
/// q.schedule(SimTime::from_ns(1), 2, "early-second");
/// q.schedule(SimTime::from_ns(1), 1, "early");
///
/// assert_eq!(q.pop().unwrap().1, "early");
/// assert_eq!(q.pop().unwrap().1, "early-second");
/// assert_eq!(q.now(), SimTime::from_ns(1));
/// assert_eq!(q.pop().unwrap().1, "late");
/// assert!(q.is_empty());
/// ```
#[derive(Debug)]
pub struct EventQueue<E> {
    /// The current bucket's events, sorted by `(at, key)` — every event
    /// still in the wheel has a strictly later tick, hence a strictly later
    /// timestamp. Invariant: `ready` or `early` is non-empty whenever
    /// `len > 0`, so [`EventQueue::peek_time`] never has to touch the wheel.
    ready: VecDeque<Entry<E>>,
    /// Bit `L` set ⇔ `levels[L].occupied != 0`. Lets [`EventQueue::advance`]
    /// skip empty levels in the cascade scan (depth-adaptive advance) and
    /// lets [`EventQueue::schedule`] prove the wheel empty in O(1) for the
    /// sparse-queue cursor-jump fast path.
    level_mask: u16,
    /// Overflow for events scheduled at ticks the cursor has already passed.
    /// `advance` moves the cursor to the next *occupied* bucket, which can
    /// overshoot the times a handler schedules at right after the pop (the
    /// standard discrete-event pattern when the queue is sparse). Placement
    /// hashing is only stable for a monotone cursor, so such events cannot
    /// go into the wheel; a min-heap absorbs them at O(log k) with k the
    /// handful of behind-cursor events in flight. Every heap entry's tick is
    /// ≤ `cur_tick`, hence strictly earlier than every wheel entry — the
    /// global minimum is always visible at `ready.front()` or the heap top.
    early: BinaryHeap<Entry<E>>,
    levels: Vec<Level<E>>,
    /// The wheel's current tick. Only ever advances, and only to ticks that
    /// hold (or held) events; `tick(now) <= cur_tick` at all times.
    cur_tick: u64,
    len: usize,
    now: SimTime,
    /// The ordering key of the most recently popped event.
    now_key: u128,
    popped: u64,
}

#[derive(Debug)]
struct Level<E> {
    /// Bit `s` set ⇔ `slots[s]` is non-empty.
    occupied: u64,
    slots: Vec<Vec<Entry<E>>>,
}

impl<E> Level<E> {
    fn new() -> Self {
        Level {
            occupied: 0,
            slots: (0..SLOTS).map(|_| Vec::new()).collect(),
        }
    }
}

/// One scheduled event. The 128-bit key is stored as two `u64` halves,
/// compared high then low — the same order as the `u128` — so the entry
/// needs only 8-byte alignment: 24 bytes plus the event, where a `u128`
/// field would pad it to a multiple of 16.
#[derive(Debug)]
struct Entry<E> {
    at: SimTime,
    key_hi: u64,
    key_lo: u64,
    event: E,
}

impl<E> Entry<E> {
    #[inline]
    fn new(at: SimTime, key: u128, event: E) -> Self {
        Entry {
            at,
            key_hi: (key >> 64) as u64,
            key_lo: key as u64,
            event,
        }
    }

    /// The ordering key, reassembled from its halves.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.key_hi) << 64) | u128::from(self.key_lo)
    }

    /// The pop-order sort key: time, then the emission key.
    #[inline]
    fn order(&self) -> (SimTime, u64, u64) {
        (self.at, self.key_hi, self.key_lo)
    }
}

impl<E> PartialEq for Entry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.order() == other.order()
    }
}

impl<E> Eq for Entry<E> {}

impl<E> PartialOrd for Entry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Entry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // `early` is a max-heap; reverse so the earliest (and, within a
        // timestamp, the lowest-key) entry is the maximum.
        other.order().cmp(&self.order())
    }
}

impl<E> EventQueue<E> {
    /// Bytes one pending event occupies in the queue: the event, its time
    /// and its key. A 16-byte event makes a 40-byte entry.
    pub const ENTRY_BYTES: usize = std::mem::size_of::<Entry<E>>();

    /// Creates an empty queue positioned at `t = 0`.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// Creates an empty queue whose ready lane can hold `capacity` events
    /// before reallocating. Simulations schedule and pop millions of events
    /// through a queue that rarely exceeds a few thousand entries. The
    /// lane and the level-0 buckets trade buffers as buckets become
    /// current, so after the first such refill this allocation serves
    /// one of the buckets; every buffer keeps what it has grown to.
    pub fn with_capacity(capacity: usize) -> Self {
        EventQueue {
            ready: VecDeque::with_capacity(capacity),
            level_mask: 0,
            early: BinaryHeap::new(),
            levels: (0..LEVELS).map(|_| Level::new()).collect(),
            cur_tick: 0,
            len: 0,
            now: SimTime::ZERO,
            now_key: 0,
            popped: 0,
        }
    }

    /// Number of near-future events the queue can hold without reallocating.
    pub fn capacity(&self) -> usize {
        self.ready.capacity()
    }

    /// The timestamp of the most recently popped event (`t = 0` initially).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The ordering key of the most recently popped event (0 initially).
    /// With [`EventQueue::now`] it names the position of the event being
    /// handled: an event scheduled at `(at, key)` pops after it exactly
    /// when `(at, key) > (now, now_key)`.
    #[inline]
    pub fn now_key(&self) -> u128 {
        self.now_key
    }

    /// Number of events waiting in the queue.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// `true` if no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Total number of events popped so far.
    pub fn popped(&self) -> u64 {
        self.popped
    }

    /// Schedules `event` at absolute time `at` under the ordering `key`.
    ///
    /// Ordering contract: the queue pops in non-decreasing `(at, key)`
    /// order, so events at the same instant pop in ascending key order
    /// regardless of insertion order — the property the fabric relies on
    /// to make pop order a function of its emission keys alone (DESIGN.md
    /// §3). Events with equal `at` and `key` pop in an unspecified order.
    ///
    /// # Panics
    ///
    /// In debug builds, panics if `at` is earlier than [`EventQueue::now`]
    /// (scheduling into the past indicates a device-model bug).
    #[inline]
    pub fn schedule(&mut self, at: SimTime, key: u128, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: {at:?} < now {:?}",
            self.now
        );
        self.len += 1;
        let entry = Entry::new(at, key, event);
        let tick = tick_of(at);
        if tick <= self.cur_tick {
            // The wheel has already rotated past this tick (every event
            // still in the wheel is strictly later), so the entry stays in
            // front of it. The common case — follow-ups arriving in
            // `(at, key)` order — appends to the sorted lane; anything that
            // would break the lane's sort goes to the overflow heap, which
            // tolerates any order.
            match self.ready.back() {
                Some(back) if entry.order() < back.order() => self.early.push(entry),
                _ => self.ready.push_back(entry),
            }
        } else if self.ready.is_empty() && self.early.is_empty() {
            // Small-run fast path. Both lanes empty means the queue held no
            // events before this call (invariant: a lane is non-empty
            // whenever `len > 0`), so the wheel is empty too and the cursor
            // can jump straight to the event's tick. This replaces a wheel
            // hash plus a full `advance` scan — the fixed overhead that
            // dominates sparse ping-pong workloads (short latency figures)
            // where the queue drains to empty between every event.
            debug_assert_eq!(self.len, 1);
            debug_assert_eq!(self.level_mask, 0);
            self.cur_tick = tick;
            self.ready.push_back(entry);
        } else {
            self.place_in_wheel(entry, tick);
        }
    }

    /// Removes and returns the earliest event, advancing [`EventQueue::now`].
    #[inline]
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        // The global minimum is at the lane front or the overflow-heap top
        // (every wheel entry is strictly later than both); same-time ties
        // between the two resolve by key.
        let from_early = match (self.ready.front(), self.early.peek()) {
            (Some(r), Some(e)) => e.order() < r.order(),
            (None, Some(_)) => true,
            _ => false,
        };
        let entry = if from_early {
            self.early.pop()?
        } else {
            self.ready.pop_front()?
        };
        debug_assert!(
            entry.at >= self.now,
            "event time regressed: {:?} < now {:?}",
            entry.at,
            self.now
        );
        self.now = entry.at;
        self.now_key = entry.key();
        self.popped += 1;
        self.len -= 1;
        if self.ready.is_empty() && self.early.is_empty() && self.len > 0 {
            self.advance();
        }
        Some((entry.at, entry.event))
    }

    /// The timestamp of the next event without removing it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.ready.front(), self.early.peek()) {
            (Some(r), Some(e)) => Some(r.at.min(e.at)),
            (Some(r), None) => Some(r.at),
            (None, Some(e)) => Some(e.at),
            (None, None) => None,
        }
    }

    /// Discards all pending events without changing the current time.
    pub fn clear(&mut self) {
        self.ready.clear();
        self.early.clear();
        for level in &mut self.levels {
            level.occupied = 0;
            for slot in &mut level.slots {
                slot.clear();
            }
        }
        self.level_mask = 0;
        self.len = 0;
    }

    /// Hashes an entry with `tick > cur_tick` into the wheel. The level is
    /// chosen by the highest bit in which `tick` differs from `cur_tick`,
    /// which guarantees the entry's slot index at that level is strictly
    /// above the wheel cursor's — no modular wrap-around, so the "next
    /// occupied slot" scan in [`EventQueue::advance`] is a single mask plus
    /// trailing-zeros.
    #[inline]
    fn place_in_wheel(&mut self, entry: Entry<E>, tick: u64) {
        let xor = tick ^ self.cur_tick;
        debug_assert!(xor != 0);
        let level = ((63 - xor.leading_zeros()) / SLOT_BITS) as usize;
        let slot = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.levels[level].occupied |= 1u64 << slot;
        self.level_mask |= 1u16 << level;
        self.levels[level].slots[slot].push(entry);
    }

    /// Rotates the wheel forward to the next occupied bucket and refills the
    /// ready lane with that bucket's entries, sorted by `(at, key)`.
    /// Precondition: `ready` is empty. Postcondition: `ready` is non-empty
    /// iff any events remain.
    fn advance(&mut self) {
        debug_assert!(self.ready.is_empty());
        loop {
            // Fast path: the next occupied level-0 slot within the current
            // 64-tick block.
            let cur_slot = (self.cur_tick & SLOT_MASK) as u32;
            let hit = self.levels[0].occupied & above_mask(cur_slot);
            if hit != 0 {
                let s = hit.trailing_zeros() as usize;
                self.levels[0].occupied &= !(1u64 << s);
                if self.levels[0].occupied == 0 {
                    self.level_mask &= !1u16;
                }
                self.cur_tick = (self.cur_tick & !SLOT_MASK) | s as u64;
                // The bucket becomes the ready lane by swapping buffers
                // (`VecDeque::from(Vec)` is O(1)), and the empty lane's
                // allocation becomes the slot's: no entry is copied.
                let mut bucket = std::mem::take(&mut self.levels[0].slots[s]);
                bucket.sort_unstable_by_key(Entry::order);
                let lane = std::mem::replace(&mut self.ready, VecDeque::from(bucket));
                self.levels[0].slots[s] = Vec::from(lane);
                return;
            }

            // Level 0 is exhausted: cascade the earliest bucket of the
            // lowest occupied higher level down, then rescan. The cascade
            // is depth-adaptive: `level_mask` names the non-empty levels,
            // so the scan visits only those instead of probing all nine.
            let mut cascaded = false;
            let mut probe = u32::from(self.level_mask >> 1);
            while probe != 0 {
                let level = probe.trailing_zeros() as usize + 1;
                probe &= probe - 1;
                let shift = SLOT_BITS * level as u32;
                let cur_at_level = self.cur_tick >> shift;
                let cur_slot = (cur_at_level & SLOT_MASK) as u32;
                let hit = self.levels[level].occupied & above_mask(cur_slot);
                if hit == 0 {
                    continue;
                }
                let s = hit.trailing_zeros() as u64;
                self.levels[level].occupied &= !(1u64 << s);
                if self.levels[level].occupied == 0 {
                    self.level_mask &= !(1u16 << level);
                }
                let mut bucket = std::mem::take(&mut self.levels[level].slots[s as usize]);
                // Jump the cursor to the earliest tick actually present in
                // the bucket, not just its base: everything the wheel still
                // holds is at or after it, and in cohort-heavy workloads
                // (many events at one instant — the busy-wire wake pattern)
                // the entire bucket shares a single tick, so it lands in
                // `ready` in one pass instead of re-hashing into level 0
                // and cascading a second time.
                let base = ((cur_at_level & !SLOT_MASK) | s) << shift;
                debug_assert!(base > self.cur_tick);
                let min_tick = bucket.iter().map(|e| tick_of(e.at)).min().unwrap_or(base);
                debug_assert!(min_tick >= base);
                self.cur_tick = min_tick;
                for entry in bucket.drain(..) {
                    let tick = tick_of(entry.at);
                    if tick == min_tick {
                        self.ready.push_back(entry);
                    } else {
                        self.place_in_wheel(entry, tick);
                    }
                }
                self.levels[level].slots[s as usize] = bucket;
                cascaded = true;
                break;
            }
            if !cascaded {
                // Wheel fully drained; callers only invoke advance() with
                // events pending, but be robust anyway.
                debug_assert_eq!(self.len, self.ready.len());
                return;
            }
            if !self.ready.is_empty() {
                self.ready
                    .make_contiguous()
                    .sort_unstable_by_key(Entry::order);
                return;
            }
        }
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), 0, 3);
        q.schedule(SimTime::from_ns(10), 0, 1);
        q.schedule(SimTime::from_ns(20), 0, 2);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, vec![1, 2, 3]);
    }

    #[test]
    fn same_timestamp_pops_in_key_order() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(7);
        for i in 0..100u32 {
            // Keys descend as events are scheduled: insertion order must
            // not leak into pop order.
            q.schedule(t, u128::from(1000 - i), i);
        }
        let order: Vec<u32> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..100).rev().collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        assert_eq!(q.now(), SimTime::ZERO);
        q.schedule(SimTime::from_ns(5), 0, ());
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(5));
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "scheduled in the past")]
    fn scheduling_in_the_past_panics_in_debug() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 0, ());
        q.pop();
        q.schedule(SimTime::from_ns(5), 0, ());
    }

    #[test]
    fn len_and_popped_counters() {
        let mut q = EventQueue::new();
        for i in 0..5u64 {
            q.schedule(SimTime::from_ns(i), 0, i);
        }
        assert_eq!(q.len(), 5);
        while q.pop().is_some() {}
        assert_eq!(q.popped(), 5);
        assert!(q.is_empty());
    }

    #[test]
    fn with_capacity_presizes_ready_lane() {
        let q: EventQueue<u64> = EventQueue::with_capacity(128);
        assert!(q.capacity() >= 128);
    }

    #[test]
    fn clear_keeps_time() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(1), 0, ());
        q.pop();
        q.schedule(SimTime::from_ns(9), 0, ());
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_ns(1));
    }

    #[test]
    fn clear_then_reschedule_pops_in_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_us(100), 0, 0u32);
        q.pop();
        q.schedule(SimTime::from_us(500), 0, 1);
        q.clear();
        // The wheel cursor may sit ahead of `now` after clear(); scheduling
        // near `now` must still pop in time order.
        q.schedule(SimTime::from_us(300), 0, 2);
        q.schedule(SimTime::from_us(200), 1, 3);
        q.schedule(SimTime::from_us(200), 2, 4);
        assert_eq!(q.pop(), Some((SimTime::from_us(200), 3)));
        assert_eq!(q.pop(), Some((SimTime::from_us(200), 4)));
        assert_eq!(q.pop(), Some((SimTime::from_us(300), 2)));
        assert!(q.is_empty());
    }

    #[test]
    fn far_future_events_cascade_correctly() {
        let mut q = EventQueue::new();
        // Spread events across several wheel levels: ~1 ns, ~1 us, ~1 ms,
        // ~1 s apart, plus the far sentinel-ish range.
        let times = [
            SimTime::from_ns(1),
            SimTime::from_ns(2),
            SimTime::from_us(1),
            SimTime::from_us(999),
            SimTime::from_ps(1_000_000_000_000), // 1 s
            SimTime::from_ps(u64::MAX / 2),      // deep level
            SimTime::from_ps(u64::MAX - 1),      // top of the range
        ];
        for (i, &t) in times.iter().enumerate() {
            q.schedule(t, 0, i);
        }
        let mut popped = Vec::new();
        let mut last = SimTime::ZERO;
        while let Some((at, e)) = q.pop() {
            assert!(at >= last);
            last = at;
            popped.push(e);
        }
        assert_eq!(popped, vec![0, 1, 2, 3, 4, 5, 6]);
    }

    #[test]
    fn now_key_is_the_popped_events_key() {
        let mut q = EventQueue::new();
        assert_eq!(q.now_key(), 0);
        let high = (7u128 << 64) | 9;
        q.schedule(SimTime::from_ns(5), high, "second");
        q.schedule(SimTime::from_ns(5), 3, "first");
        assert_eq!(q.pop().unwrap().1, "first");
        assert_eq!((q.now(), q.now_key()), (SimTime::from_ns(5), 3));
        assert_eq!(q.pop().unwrap().1, "second");
        assert_eq!(q.now_key(), high, "both key halves come back");
    }

    #[test]
    fn keyed_schedule_pops_in_key_order_regardless_of_insertion() {
        // Three insertion orders of the same (at, key) set must pop
        // identically: pop order depends on the keys alone.
        let evs = [
            (SimTime::from_ns(5), 7u128, "c"),
            (SimTime::from_ns(5), 3, "b"),
            (SimTime::from_ns(2), 9, "a"),
            (SimTime::from_ns(9), 1, "d"),
        ];
        let mut orders: Vec<Vec<&str>> = Vec::new();
        for perm in [[0usize, 1, 2, 3], [3, 2, 1, 0], [1, 3, 0, 2]] {
            let mut q = EventQueue::new();
            for &i in &perm {
                let (at, key, ev) = evs[i];
                q.schedule(at, key, ev);
            }
            orders.push(std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect());
        }
        assert_eq!(orders[0], vec!["a", "b", "c", "d"]);
        assert_eq!(orders[0], orders[1]);
        assert_eq!(orders[0], orders[2]);
    }

    #[test]
    fn keys_use_all_128_bits() {
        // The fabric's keys put the emission time in the high 64 bits:
        // a key that differs only there must still order.
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(3);
        q.schedule(t, 2 << 64, "late-emitted");
        q.schedule(t, (1 << 64) | u128::from(u64::MAX), "early-emitted");
        assert_eq!(q.pop().unwrap().1, "early-emitted");
        assert_eq!(q.pop().unwrap().1, "late-emitted");
    }

    #[test]
    fn a_16_byte_event_makes_a_40_byte_entry() {
        assert_eq!(EventQueue::<[u64; 2]>::ENTRY_BYTES, 40);
        assert_eq!(EventQueue::<()>::ENTRY_BYTES, 24);
    }

    #[test]
    fn key_halves_order_like_the_u128() {
        // Keys that differ only in the low half, only in the high half,
        // and across the halves' boundary, scheduled in reverse.
        let keys = [
            0u128,
            1,
            u128::from(u64::MAX),
            1 << 64,
            (1 << 64) | 1,
            u128::MAX - 1,
            u128::MAX,
        ];
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(3);
        for (i, &k) in keys.iter().enumerate().rev() {
            q.schedule(t, k, i);
        }
        let order: Vec<usize> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(order, (0..keys.len()).collect::<Vec<_>>());
    }

    #[test]
    fn keyed_schedule_interleaves_with_pop_and_far_future() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 5, "a");
        q.schedule(SimTime::from_us(10), 1, "e");
        assert_eq!(q.pop().unwrap().1, "a");
        // Same-timestamp inserts arriving out of key order must still pop
        // in key order (they route through the overflow heap).
        q.schedule(SimTime::from_ns(500), 8, "c");
        q.schedule(SimTime::from_ns(500), 2, "b");
        q.schedule(SimTime::from_ns(700), 3, "d");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
        assert_eq!(q.pop().unwrap().1, "e");
        assert!(q.is_empty());
    }

    #[test]
    fn drain_to_empty_then_far_schedule_uses_cursor_jump() {
        // Ping-pong pattern: the queue empties between every event, with
        // gaps that span multiple wheel levels — exercises the empty-queue
        // cursor-jump fast path in `schedule`.
        let mut q = EventQueue::new();
        let mut t = 0u64;
        for i in 0..60u64 {
            t += 1 + (i * i * 977) % 5_000_000;
            q.schedule(SimTime::from_ns(t), 0, i);
            assert_eq!(q.pop(), Some((SimTime::from_ns(t), i)));
            assert!(q.is_empty());
        }
        assert_eq!(q.now(), SimTime::from_ns(t));
    }

    #[test]
    fn interleaved_pop_and_schedule_keeps_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 0, "a");
        q.schedule(SimTime::from_us(10), 0, "d");
        assert_eq!(q.pop().unwrap().1, "a");
        // Scheduling between now and the far event must come out first.
        q.schedule(SimTime::from_ns(500), 0, "b");
        q.schedule(SimTime::from_us(1), 0, "c");
        assert_eq!(q.pop().unwrap().1, "b");
        assert_eq!(q.pop().unwrap().1, "c");
        assert_eq!(q.pop().unwrap().1, "d");
    }
}
