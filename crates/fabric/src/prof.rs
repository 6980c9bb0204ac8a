//! Feature-gated (`sim-prof`) event-dispatch profiling.
//!
//! Process-wide per-event-kind counters: how many events of each
//! [`FabricEvent`] kind the dispatch loop handled and how many wall-clock
//! nanoseconds were spent inside their handlers. The relaxed atomic adds
//! commute, so totals are deterministic for a fixed workload even under
//! the parallel runner (the *cycle* attribution is wall-clock and
//! machine-dependent — it never feeds the perf gate, only the optional
//! `BENCH_prof.json` sidecar).
//!
//! The whole module compiles away without the `sim-prof` feature, so the
//! hot loop carries zero profiling cost in gated benchmark builds.

use std::sync::atomic::{AtomicU64, Ordering};

use crate::world::FabricEvent;

/// Number of distinct [`FabricEvent`] kinds tracked.
pub const KINDS: usize = 8;

/// Display names, index-aligned with [`kind_of`].
pub const KIND_NAMES: [&str; KINDS] = [
    "switch_packet",
    "switch_wake",
    "rnic_packet",
    "rnic_wake",
    "switch_credit",
    "rnic_credit",
    "app_cqe",
    "app_timer",
];

const ZERO: AtomicU64 = AtomicU64::new(0);
static COUNTS: [AtomicU64; KINDS] = [ZERO; KINDS];
static NANOS: [AtomicU64; KINDS] = [ZERO; KINDS];

/// Maps an event to its counter slot (hot kinds first, matching the
/// dispatch arm order in `Domain::handle_one`).
#[inline]
pub(crate) fn kind_of(event: &FabricEvent) -> usize {
    match event {
        FabricEvent::SwitchPacket { .. } => 0,
        FabricEvent::SwitchWake { .. } => 1,
        FabricEvent::RnicPacket { .. } => 2,
        FabricEvent::RnicWake(_) => 3,
        FabricEvent::SwitchCredit { .. } => 4,
        FabricEvent::RnicCredit { .. } => 5,
        FabricEvent::AppCqe { .. } => 6,
        FabricEvent::AppTimer { .. } => 7,
    }
}

/// Records one dispatched event of `kind` that took `nanos` inside its
/// handler.
#[inline]
pub(crate) fn record(kind: usize, nanos: u64) {
    COUNTS[kind].fetch_add(1, Ordering::Relaxed);
    NANOS[kind].fetch_add(nanos, Ordering::Relaxed);
}

/// Shard slots tracked by the per-shard profile (matches the `shards`
/// knob's validated ceiling in `rperf::ScenarioSpec`).
pub const MAX_SHARDS: usize = 64;

static SHARD_EVENTS: [AtomicU64; MAX_SHARDS] = [ZERO; MAX_SHARDS];
static SHARD_BARRIER_NS: [AtomicU64; MAX_SHARDS] = [ZERO; MAX_SHARDS];
static SHARD_MSGS: [AtomicU64; MAX_SHARDS] = [ZERO; MAX_SHARDS];

/// Records one sharded-run window batch for `shard`: events processed,
/// wall-clock nanoseconds spent waiting at window barriers, and mailbox
/// envelopes exchanged (sent + received).
#[inline]
pub(crate) fn record_shard(shard: usize, events: u64, barrier_ns: u64, msgs: u64) {
    if shard >= MAX_SHARDS {
        return;
    }
    SHARD_EVENTS[shard].fetch_add(events, Ordering::Relaxed);
    SHARD_BARRIER_NS[shard].fetch_add(barrier_ns, Ordering::Relaxed);
    SHARD_MSGS[shard].fetch_add(msgs, Ordering::Relaxed);
}

/// One row of the per-shard profile.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardProfEntry {
    /// Shard index.
    pub shard: usize,
    /// Events this shard processed.
    pub events: u64,
    /// Wall-clock nanoseconds this shard spent blocked at window
    /// barriers (load-imbalance indicator: a shard that waits long is
    /// starved by a heavier peer).
    pub barrier_ns: u64,
    /// Cross-shard mailbox envelopes this shard sent plus received.
    pub mailbox_msgs: u64,
}

/// Snapshot of every shard slot that recorded activity, in shard order.
/// Empty when no sharded run has executed since the last [`reset`].
pub fn shard_snapshot() -> Vec<ShardProfEntry> {
    (0..MAX_SHARDS)
        .map(|s| ShardProfEntry {
            shard: s,
            events: SHARD_EVENTS[s].load(Ordering::Relaxed),
            barrier_ns: SHARD_BARRIER_NS[s].load(Ordering::Relaxed),
            mailbox_msgs: SHARD_MSGS[s].load(Ordering::Relaxed),
        })
        .filter(|e| e.events > 0 || e.barrier_ns > 0 || e.mailbox_msgs > 0)
        .collect()
}

/// One row of the profile: a kind with its dispatch count and handler
/// time.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ProfEntry {
    /// Kind name (one of [`KIND_NAMES`]).
    pub kind: &'static str,
    /// Events of this kind dispatched since process start (or the last
    /// [`reset`]).
    pub count: u64,
    /// Wall-clock nanoseconds spent in handlers for this kind.
    pub nanos: u64,
}

/// Snapshot of all kinds, in [`KIND_NAMES`] order (including zero rows,
/// so consumers can rely on a fixed shape).
pub fn snapshot() -> Vec<ProfEntry> {
    (0..KINDS)
        .map(|k| ProfEntry {
            kind: KIND_NAMES[k],
            count: COUNTS[k].load(Ordering::Relaxed),
            nanos: NANOS[k].load(Ordering::Relaxed),
        })
        .collect()
}

/// Zeroes every counter (between scenarios, to attribute per figure).
pub fn reset() {
    for k in 0..KINDS {
        COUNTS[k].store(0, Ordering::Relaxed);
        NANOS[k].store(0, Ordering::Relaxed);
    }
    for s in 0..MAX_SHARDS {
        SHARD_EVENTS[s].store(0, Ordering::Relaxed);
        SHARD_BARRIER_NS[s].store(0, Ordering::Relaxed);
        SHARD_MSGS[s].store(0, Ordering::Relaxed);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_snapshot_round_trip() {
        reset();
        record(0, 120);
        record(0, 80);
        record(6, 5);
        let snap = snapshot();
        assert_eq!(snap.len(), KINDS);
        assert_eq!(snap[0].kind, "switch_packet");
        assert_eq!(snap[0].count, 2);
        assert_eq!(snap[0].nanos, 200);
        assert_eq!(snap[6].count, 1);
        assert_eq!(snap[1].count, 0);
        reset();
        assert!(snapshot().iter().all(|e| e.count == 0 && e.nanos == 0));
    }

    #[test]
    fn shard_rows_filter_idle_slots() {
        reset();
        record_shard(0, 100, 250, 4);
        record_shard(3, 50, 10, 2);
        record_shard(3, 25, 5, 1);
        let rows = shard_snapshot();
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].shard, 0);
        assert_eq!(rows[0].events, 100);
        assert_eq!(rows[1].shard, 3);
        assert_eq!(rows[1].events, 75);
        assert_eq!(rows[1].barrier_ns, 15);
        assert_eq!(rows[1].mailbox_msgs, 3);
        record_shard(MAX_SHARDS + 1, 1, 1, 1); // out of range: ignored
        assert_eq!(shard_snapshot().len(), 2);
        reset();
        assert!(shard_snapshot().is_empty());
    }
}
