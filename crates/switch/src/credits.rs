//! Downstream credit accounting.

use rperf_model::{PortId, VirtualLane};

/// Lanes a [`CreditLedger`] holds inline: every VL the IB spec defines.
const MAX_LANES: usize = VirtualLane::MAX as usize + 1;

/// Tracks the flow-control credits a device holds toward *one* downstream
/// peer, per virtual lane.
///
/// Credits are in bytes of the peer's advertised input buffer. A sender
/// must [`CreditLedger::consume`] before transmitting a packet on a VL and
/// receives the bytes back ([`CreditLedger::replenish`]) when the peer
/// frees them. Conservation is a protocol invariant:
/// `initial = available + in flight downstream`.
///
/// The counters live inline, one pair per VL the spec defines, so a
/// ledger never touches the heap; lanes at or beyond
/// [`CreditLedger::lanes`] hold no grant and answer 0.
///
/// # Examples
///
/// ```
/// use rperf_model::VirtualLane;
/// use rperf_switch::CreditLedger;
///
/// let mut c = CreditLedger::new(1, 32 * 1024);
/// let vl0 = VirtualLane::new(0);
/// assert!(c.consume(vl0, 4148));
/// assert_eq!(c.available(vl0), 32 * 1024 - 4148);
/// c.replenish(vl0, 4148);
/// assert_eq!(c.available(vl0), 32 * 1024);
/// assert_eq!(c.available(VirtualLane::new(1)), 0);
/// ```
#[derive(Debug, Clone)]
pub struct CreditLedger {
    lanes: u8,
    initial: [u64; MAX_LANES],
    available: [u64; MAX_LANES],
}

impl CreditLedger {
    /// Creates a ledger for `lanes` lanes, each granted `bytes_per_vl`.
    ///
    /// # Panics
    ///
    /// Panics if `lanes` exceeds the 16 VLs of the IB spec.
    pub fn new(lanes: u8, bytes_per_vl: u64) -> Self {
        let n = usize::from(lanes);
        assert!(
            n <= MAX_LANES,
            "{lanes} lanes exceed the {MAX_LANES} IB VLs"
        );
        let mut grant = [0; MAX_LANES];
        grant[..n].fill(bytes_per_vl);
        CreditLedger {
            lanes,
            initial: grant,
            available: grant,
        }
    }

    /// Creates a ledger with unlimited credits (for modelling a link with
    /// no flow control, e.g. delivery into an infinite sink).
    pub fn unlimited(lanes: u8) -> Self {
        Self::new(lanes, u64::MAX / 2)
    }

    /// Number of lanes granted.
    pub fn lanes(&self) -> u8 {
        self.lanes
    }

    /// Credits currently available on `vl` (0 beyond the granted lanes).
    pub fn available(&self, vl: VirtualLane) -> u64 {
        self.available[vl.index()]
    }

    /// `true` if a packet of `bytes` may be sent on `vl`.
    pub fn can_send(&self, vl: VirtualLane, bytes: u64) -> bool {
        self.available[vl.index()] >= bytes
    }

    /// Spends credits for a transmission. Returns `false` (and spends
    /// nothing) if insufficient.
    pub fn consume(&mut self, vl: VirtualLane, bytes: u64) -> bool {
        let a = &mut self.available[vl.index()];
        if *a < bytes {
            return false;
        }
        *a -= bytes;
        debug_assert!(
            self.available[vl.index()] <= self.initial[vl.index()],
            "{vl} credits exceed the initial grant after consume"
        );
        true
    }

    /// Returns freed credits from the peer, saturating at the initial
    /// grant (over-replenishment indicates a protocol bug and is clamped).
    pub fn replenish(&mut self, vl: VirtualLane, bytes: u64) {
        let i = vl.index();
        // (Clamping small over-replenishment is documented API slack; a
        // single return larger than the whole grant is always a bug.)
        debug_assert!(
            bytes <= self.initial[i],
            "credit return of {bytes} B on {vl} exceeds the whole grant of {} B",
            self.initial[i]
        );
        self.available[i] = (self.available[i] + bytes).min(self.initial[i]);
    }

    /// Bytes currently in flight (consumed but not yet replenished) on `vl`.
    pub fn in_flight(&self, vl: VirtualLane) -> u64 {
        self.initial[vl.index()] - self.available[vl.index()]
    }
}

/// Struct-of-arrays credit bank for a whole switch: the per-VL counters of
/// every egress port's downstream ledger laid out in two flat arrays
/// (`initial`, `available`), indexed `port · lanes + vl`.
///
/// Behaviourally identical to a `Vec<CreditLedger>` — consume refuses
/// without spending, replenish clamps to the initial grant, queries
/// beyond the lanes answer 0 — but the credit-availability checks inside
/// an arbitration round read a contiguous row instead of chasing a ledger
/// object per port.
///
/// # Examples
///
/// ```
/// use rperf_model::{PortId, VirtualLane};
/// use rperf_switch::CreditMatrix;
///
/// let mut m = CreditMatrix::new(12, 1, 32 * 1024);
/// let (p, vl) = (PortId::new(4), VirtualLane::new(0));
/// assert!(m.consume(p, vl, 4148));
/// assert_eq!(m.available(p, vl), 32 * 1024 - 4148);
/// m.replenish(p, vl, 4148);
/// assert_eq!(m.available(p, vl), 32 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct CreditMatrix {
    lanes: usize,
    initial: Vec<u64>,
    available: Vec<u64>,
}

impl CreditMatrix {
    /// Creates a matrix for `ports` egress ports × `lanes` lanes, each
    /// slot granted `bytes_per_vl`.
    pub fn new(ports: u8, lanes: u8, bytes_per_vl: u64) -> Self {
        let slots = ports as usize * lanes as usize;
        CreditMatrix {
            lanes: lanes as usize,
            initial: vec![bytes_per_vl; slots],
            available: vec![bytes_per_vl; slots],
        }
    }

    /// Lanes per port.
    pub fn lanes(&self) -> u8 {
        self.lanes as u8
    }

    #[inline]
    fn idx(&self, port: PortId, vl: VirtualLane) -> usize {
        debug_assert!(vl.index() < self.lanes, "{vl} beyond {} lanes", self.lanes);
        port.index() * self.lanes + vl.index()
    }

    /// Overwrites one port's row from a [`CreditLedger`] (used when the
    /// downstream peer's advertisement differs from switch-buffer symmetry,
    /// e.g. a host RNIC).
    ///
    /// # Panics
    ///
    /// Panics if the ledger's lane count differs from the matrix's: both
    /// ends of a link must size their credits by the fabric's one count.
    pub fn set_port(&mut self, port: PortId, ledger: &CreditLedger) {
        assert_eq!(
            usize::from(ledger.lanes()),
            self.lanes,
            "a {}-lane ledger on a {}-lane port",
            ledger.lanes(),
            self.lanes
        );
        for v in 0..ledger.lanes() {
            let vl = VirtualLane::new(v);
            let i = self.idx(port, vl);
            self.initial[i] = ledger.available(vl) + ledger.in_flight(vl);
            self.available[i] = ledger.available(vl);
        }
    }

    /// Credits currently available on (`port`, `vl`); 0 beyond the lanes.
    pub fn available(&self, port: PortId, vl: VirtualLane) -> u64 {
        if vl.index() >= self.lanes {
            return 0;
        }
        self.available[self.idx(port, vl)]
    }

    /// `true` if a packet of `bytes` may be sent on (`port`, `vl`).
    #[inline]
    pub fn can_send(&self, port: PortId, vl: VirtualLane, bytes: u64) -> bool {
        self.available[self.idx(port, vl)] >= bytes
    }

    /// Spends credits for a transmission. Returns `false` (and spends
    /// nothing) if insufficient.
    #[inline]
    pub fn consume(&mut self, port: PortId, vl: VirtualLane, bytes: u64) -> bool {
        let i = self.idx(port, vl);
        let a = &mut self.available[i];
        if *a < bytes {
            return false;
        }
        *a -= bytes;
        debug_assert!(
            self.available[i] <= self.initial[i],
            "{vl} credits exceed the initial grant after consume"
        );
        true
    }

    /// Returns freed credits from the peer, saturating at the initial grant
    /// (over-replenishment indicates a protocol bug and is clamped).
    #[inline]
    pub fn replenish(&mut self, port: PortId, vl: VirtualLane, bytes: u64) {
        let i = self.idx(port, vl);
        debug_assert!(
            bytes <= self.initial[i],
            "credit return of {bytes} B on {vl} exceeds the whole grant of {} B",
            self.initial[i]
        );
        self.available[i] = (self.available[i] + bytes).min(self.initial[i]);
    }

    /// Bytes currently in flight (consumed but not yet replenished); 0
    /// beyond the lanes.
    pub fn in_flight(&self, port: PortId, vl: VirtualLane) -> u64 {
        if vl.index() >= self.lanes {
            return 0;
        }
        let i = self.idx(port, vl);
        self.initial[i] - self.available[i]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rperf_model::PortId;

    #[test]
    fn consume_and_replenish_conserve() {
        let mut c = CreditLedger::new(2, 10_000);
        let vl = VirtualLane::new(0);
        assert!(c.consume(vl, 4_000));
        assert!(c.consume(vl, 4_000));
        assert_eq!(c.available(vl), 2_000);
        assert_eq!(c.in_flight(vl), 8_000);
        c.replenish(vl, 4_000);
        assert_eq!(c.available(vl), 6_000);
        assert_eq!(c.in_flight(vl), 4_000);
    }

    #[test]
    fn insufficient_credits_refused() {
        let mut c = CreditLedger::new(1, 1_000);
        let vl = VirtualLane::new(0);
        assert!(!c.consume(vl, 2_000));
        assert_eq!(c.available(vl), 1_000, "refused consume must not spend");
        assert!(!c.can_send(vl, 1_001));
        assert!(c.can_send(vl, 1_000));
    }

    #[test]
    fn lanes_are_independent() {
        let mut c = CreditLedger::new(2, 1_000);
        let vl0 = VirtualLane::new(0);
        let vl1 = VirtualLane::new(1);
        assert!(c.consume(vl0, 1_000));
        assert_eq!(c.available(vl0), 0);
        assert_eq!(c.available(vl1), 1_000);
    }

    #[test]
    fn over_replenish_clamped() {
        // Returning more than is in flight (but no more than the whole
        // grant) is documented slack: available clamps at the grant.
        let mut c = CreditLedger::new(1, 1_000);
        let vl = VirtualLane::new(0);
        assert!(c.consume(vl, 400));
        c.replenish(vl, 600);
        assert_eq!(c.available(vl), 1_000);
        assert_eq!(c.in_flight(vl), 0);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "exceeds the whole grant")]
    fn return_larger_than_the_grant_trips_the_debug_check() {
        let mut c = CreditLedger::new(1, 1_000);
        c.replenish(VirtualLane::new(0), 5_000);
    }

    #[test]
    fn matrix_matches_ledger_semantics() {
        let mut m = CreditMatrix::new(3, 2, 1_000);
        let mut l = CreditLedger::new(2, 1_000);
        let p = PortId::new(2);
        let vl = VirtualLane::new(1);
        assert_eq!(m.consume(p, vl, 600), l.consume(vl, 600));
        assert_eq!(m.consume(p, vl, 600), l.consume(vl, 600));
        assert_eq!(m.available(p, vl), l.available(vl));
        assert_eq!(m.in_flight(p, vl), l.in_flight(vl));
        m.replenish(p, vl, 600);
        l.replenish(vl, 600);
        assert_eq!(m.available(p, vl), l.available(vl));
        // Other ports and lanes are untouched.
        assert_eq!(m.available(PortId::new(0), vl), 1_000);
        assert_eq!(m.available(p, VirtualLane::new(0)), 1_000);
    }

    #[test]
    fn matrix_set_port_copies_ledger_state() {
        let mut m = CreditMatrix::new(2, 2, 9_999);
        let mut l = CreditLedger::new(2, 4_148);
        assert!(l.consume(VirtualLane::new(0), 148));
        m.set_port(PortId::new(1), &l);
        assert_eq!(m.available(PortId::new(1), VirtualLane::new(0)), 4_000);
        assert_eq!(m.in_flight(PortId::new(1), VirtualLane::new(0)), 148);
        assert_eq!(m.available(PortId::new(1), VirtualLane::new(1)), 4_148);
        // The untouched port keeps the constructor grant.
        assert_eq!(m.available(PortId::new(0), VirtualLane::new(0)), 9_999);
    }

    #[test]
    fn queries_beyond_the_lanes_answer_zero() {
        let c = CreditLedger::new(1, 1_000);
        let vl5 = VirtualLane::new(5);
        assert_eq!(c.lanes(), 1);
        assert_eq!(c.available(vl5), 0);
        assert_eq!(c.in_flight(vl5), 0);
        assert!(!c.can_send(vl5, 1));
        // In the flat layout (port 0, VL5) would alias (port 5, VL0).
        let m = CreditMatrix::new(6, 1, 1_000);
        assert_eq!(m.available(PortId::new(0), vl5), 0);
        assert_eq!(m.in_flight(PortId::new(0), vl5), 0);
    }

    #[test]
    #[should_panic(expected = "a 9-lane ledger on a 1-lane port")]
    fn set_port_rejects_a_ledger_of_another_lane_count() {
        let mut m = CreditMatrix::new(2, 1, 1_000);
        m.set_port(PortId::new(0), &CreditLedger::new(9, 1_000));
    }

    #[test]
    fn unlimited_is_effectively_infinite() {
        let mut c = CreditLedger::unlimited(1);
        let vl = VirtualLane::new(0);
        for _ in 0..1_000 {
            assert!(c.consume(vl, u32::MAX as u64));
        }
    }
}
