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
/// dispatch arm order in `Sim::handle_one`).
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
}
