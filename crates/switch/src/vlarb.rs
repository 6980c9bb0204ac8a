//! IB-spec virtual-lane arbitration.

use rperf_model::config::{VlArbConfig, VlArbEntry};
use rperf_model::VirtualLane;

/// Bytes of high-priority allowance per unit of `limit_high` (the IB spec
/// expresses the limit in 4 KB blocks).
const LIMIT_HIGH_UNIT: u64 = 4096;

/// Bytes per unit of entry weight (IB spec: weights are in 64-byte units).
const WEIGHT_UNIT: u64 = 64;

/// The two-level VL arbiter of one egress port.
///
/// High-priority table entries are served ahead of low-priority ones, with
/// weighted round-robin *within* each table, subject to the *Limit of High
/// Priority*: after `limit_high × 4096` bytes of consecutive high-priority
/// data, one low-priority opportunity must be offered (if low-priority
/// traffic is waiting). This is the starvation-avoidance mechanism whose
/// latency side effect the paper calls out in Section VIII-C.
///
/// The arbiter holds only its port's cursors and budget. The tables are
/// passed to every call: a fabric's switches share one switch
/// configuration, so every port of every switch reads the same tables.
///
/// # Examples
///
/// ```
/// use rperf_model::config::VlArbConfig;
/// use rperf_model::VirtualLane;
/// use rperf_switch::VlArbiter;
///
/// let tables = VlArbConfig::dedicated_high_vl1();
/// let mut arb = VlArbiter::new(&tables);
/// let vl0 = VirtualLane::new(0);
/// let vl1 = VirtualLane::new(1);
/// // VL1 is high priority: chosen whenever it has traffic and budget.
/// assert_eq!(arb.choose(&tables, &[vl0, vl1]), Some(vl1));
/// ```
#[derive(Debug, Clone)]
pub struct VlArbiter {
    /// Remaining consecutive high-priority bytes before a forced low turn.
    high_budget: u64,
    /// Set when the budget ran out and a low-priority turn is owed.
    must_serve_low: bool,
    /// Weighted-RR state for the high table.
    high_cursor: TableCursor,
    /// Weighted-RR state for the low table.
    low_cursor: TableCursor,
}

#[derive(Debug, Clone)]
struct TableCursor {
    index: usize,
    remaining: u64,
}

impl TableCursor {
    fn new() -> Self {
        TableCursor {
            index: 0,
            remaining: 0,
        }
    }

    /// Picks the next entry whose VL is among `candidates`, honouring the
    /// weighted rotation: the current entry keeps serving while it has
    /// budget and traffic; otherwise the cursor rotates to the next entry
    /// with a candidate and resets that entry's budget.
    fn pick(&mut self, table: &[VlArbEntry], candidates: &[VirtualLane]) -> Option<VirtualLane> {
        if table.is_empty() {
            return None;
        }
        if self.index >= table.len() {
            self.index = 0;
            self.remaining = 0;
        }
        let current = &table[self.index];
        if self.remaining > 0 && candidates.contains(&current.vl) {
            return Some(current.vl);
        }
        for step in 1..=table.len() {
            let i = (self.index + step) % table.len();
            let entry = &table[i];
            if candidates.contains(&entry.vl) {
                self.index = i;
                self.remaining = entry_budget(entry);
                return Some(entry.vl);
            }
        }
        None
    }

    /// Accounts `bytes` against the current entry's weight, rotating the
    /// cursor when the entry's allowance is spent.
    fn account(&mut self, table: &[VlArbEntry], vl: VirtualLane, bytes: u64) {
        if table.is_empty() {
            return;
        }
        if self.index >= table.len() {
            self.index = 0;
        }
        if table[self.index].vl == vl {
            self.remaining = self.remaining.saturating_sub(bytes);
            if self.remaining == 0 {
                self.index = (self.index + 1) % table.len();
                self.remaining = entry_budget(&table[self.index]);
            }
        }
    }
}

fn entry_budget(e: &VlArbEntry) -> u64 {
    u64::from(e.weight.max(1)) * WEIGHT_UNIT
}

impl VlArbiter {
    /// Creates an arbiter for a port arbitrating by `cfg`'s tables.
    pub fn new(cfg: &VlArbConfig) -> Self {
        VlArbiter {
            high_budget: Self::budget_of(cfg),
            must_serve_low: false,
            high_cursor: TableCursor::new(),
            low_cursor: TableCursor::new(),
        }
    }

    fn budget_of(cfg: &VlArbConfig) -> u64 {
        if cfg.limit_high == u8::MAX {
            u64::MAX
        } else {
            // limit 0 still permits a single packet (tracked by forcing a
            // low turn after every high packet once the budget is spent).
            u64::from(cfg.limit_high).max(1) * LIMIT_HIGH_UNIT
        }
    }

    /// Chooses the VL to serve next among `candidates` (VLs that have an
    /// eligible head packet *and* downstream credits), by the tables in
    /// `cfg`. Returns `None` if no candidate appears in either table.
    pub fn choose(&mut self, cfg: &VlArbConfig, candidates: &[VirtualLane]) -> Option<VirtualLane> {
        let high_has = candidates.iter().any(|vl| cfg.is_high(*vl));
        let low_has = candidates
            .iter()
            .any(|vl| cfg.low.iter().any(|e| e.vl == *vl));

        if high_has && !(self.must_serve_low && low_has) {
            return self.high_cursor.pick(&cfg.high, candidates);
        }
        if low_has {
            return self.low_cursor.pick(&cfg.low, candidates);
        }
        if high_has {
            // A low turn was owed but no low traffic exists: stay work-
            // conserving and serve high anyway.
            return self.high_cursor.pick(&cfg.high, candidates);
        }
        None
    }

    /// Records that `bytes` were transmitted on `vl`, updating priority
    /// budgets and weighted-RR state by the tables in `cfg`.
    pub fn account(&mut self, cfg: &VlArbConfig, vl: VirtualLane, bytes: u64) {
        if cfg.is_high(vl) {
            self.high_cursor.account(&cfg.high, vl, bytes);
            if cfg.limit_high != u8::MAX {
                self.high_budget = self.high_budget.saturating_sub(bytes);
                if self.high_budget == 0 {
                    self.must_serve_low = true;
                }
            }
        } else {
            self.low_cursor.account(&cfg.low, vl, bytes);
            self.must_serve_low = false;
            self.high_budget = Self::budget_of(cfg);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vl(n: u8) -> VirtualLane {
        VirtualLane::new(n)
    }

    #[test]
    fn default_config_serves_vl0() {
        let cfg = VlArbConfig::default();
        let mut arb = VlArbiter::new(&cfg);
        assert_eq!(arb.choose(&cfg, &[vl(0)]), Some(vl(0)));
        assert_eq!(arb.choose(&cfg, &[]), None);
    }

    #[test]
    fn unknown_vl_is_never_chosen() {
        let cfg = VlArbConfig::default();
        let mut arb = VlArbiter::new(&cfg);
        // VL5 appears in no table.
        assert_eq!(arb.choose(&cfg, &[vl(5)]), None);
    }

    #[test]
    fn high_priority_wins_when_budget_available() {
        let cfg = VlArbConfig::dedicated_high_vl1();
        let mut arb = VlArbiter::new(&cfg);
        assert_eq!(arb.choose(&cfg, &[vl(0), vl(1)]), Some(vl(1)));
    }

    #[test]
    fn limit_high_forces_low_turn() {
        let cfg = VlArbConfig::dedicated_high_vl1(); // 4 KB limit
        let mut arb = VlArbiter::new(&cfg);
        // Send 16 × 256 B high packets (4096 B): budget exhausts.
        for _ in 0..16 {
            assert_eq!(arb.choose(&cfg, &[vl(0), vl(1)]), Some(vl(1)));
            arb.account(&cfg, vl(1), 256);
        }
        // Now one low-priority turn is owed.
        assert_eq!(arb.choose(&cfg, &[vl(0), vl(1)]), Some(vl(0)));
        arb.account(&cfg, vl(0), 4096);
        // Budget replenished: high again.
        assert_eq!(arb.choose(&cfg, &[vl(0), vl(1)]), Some(vl(1)));
    }

    #[test]
    fn owed_low_turn_skipped_if_no_low_traffic() {
        let cfg = VlArbConfig::dedicated_high_vl1();
        let mut arb = VlArbiter::new(&cfg);
        arb.account(&cfg, vl(1), 4096); // exhaust the budget
                                        // Only high traffic present: stay work-conserving.
        assert_eq!(arb.choose(&cfg, &[vl(1)]), Some(vl(1)));
    }

    #[test]
    fn unlimited_high_never_yields() {
        let mut cfg = VlArbConfig::dedicated_high_vl1();
        cfg.limit_high = u8::MAX;
        let mut arb = VlArbiter::new(&cfg);
        for _ in 0..1000 {
            assert_eq!(arb.choose(&cfg, &[vl(0), vl(1)]), Some(vl(1)));
            arb.account(&cfg, vl(1), 4096);
        }
    }

    #[test]
    fn low_only_traffic_served_continuously() {
        let cfg = VlArbConfig::dedicated_high_vl1();
        let mut arb = VlArbiter::new(&cfg);
        for _ in 0..100 {
            assert_eq!(arb.choose(&cfg, &[vl(0)]), Some(vl(0)));
            arb.account(&cfg, vl(0), 4096);
        }
    }

    #[test]
    fn weighted_rr_between_two_low_vls() {
        let cfg = VlArbConfig {
            high: vec![],
            low: vec![
                VlArbEntry {
                    vl: vl(0),
                    weight: 1, // 64 bytes per turn
                },
                VlArbEntry {
                    vl: vl(1),
                    weight: 1,
                },
            ],
            limit_high: 0,
        };
        let mut arb = VlArbiter::new(&cfg);
        let mut picks = Vec::new();
        for _ in 0..8 {
            let chosen = arb.choose(&cfg, &[vl(0), vl(1)]).unwrap();
            picks.push(chosen.raw());
            arb.account(&cfg, chosen, 64);
        }
        let zeros = picks.iter().filter(|&&p| p == 0).count();
        let ones = picks.iter().filter(|&&p| p == 1).count();
        assert_eq!(zeros, 4, "picks {picks:?}");
        assert_eq!(ones, 4, "picks {picks:?}");
    }
}
