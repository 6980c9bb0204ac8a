//! Downstream credit accounting.

use rperf_model::{PortId, VirtualLane};

/// Tracks the flow-control credits a device holds toward *one* downstream
/// peer, per virtual lane.
///
/// Credits are in bytes of the peer's advertised input buffer. A sender
/// must [`CreditLedger::consume`] before transmitting a packet on a VL and
/// receives the bytes back ([`CreditLedger::replenish`]) when the peer
/// frees them. Conservation is a protocol invariant:
/// `initial = available + in flight downstream`.
///
/// # Examples
///
/// ```
/// use rperf_model::VirtualLane;
/// use rperf_switch::CreditLedger;
///
/// let mut c = CreditLedger::new(9, 32 * 1024);
/// let vl0 = VirtualLane::new(0);
/// assert!(c.consume(vl0, 4148));
/// assert_eq!(c.available(vl0), 32 * 1024 - 4148);
/// c.replenish(vl0, 4148);
/// assert_eq!(c.available(vl0), 32 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct CreditLedger {
    initial: Vec<u64>,
    available: Vec<u64>,
}

impl CreditLedger {
    /// Creates a ledger for `vls` lanes, each granted `bytes_per_vl`.
    pub fn new(vls: u8, bytes_per_vl: u64) -> Self {
        CreditLedger {
            initial: vec![bytes_per_vl; vls as usize],
            available: vec![bytes_per_vl; vls as usize],
        }
    }

    /// Creates a ledger with unlimited credits (for modelling a link with
    /// no flow control, e.g. delivery into an infinite sink).
    pub fn unlimited(vls: u8) -> Self {
        Self::new(vls, u64::MAX / 2)
    }

    /// Number of lanes tracked.
    pub fn vls(&self) -> u8 {
        self.available.len() as u8
    }

    /// Credits currently available on `vl`.
    ///
    /// # Panics
    ///
    /// Panics if `vl` is beyond the configured lane count.
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
/// (`initial`, `available`), indexed `port · vls + vl`.
///
/// Behaviourally identical to a `Vec<CreditLedger>` — consume refuses
/// without spending, replenish clamps to the initial grant — but the
/// credit-availability checks inside an arbitration round read a contiguous
/// row instead of chasing a ledger object per port.
///
/// # Examples
///
/// ```
/// use rperf_model::{PortId, VirtualLane};
/// use rperf_switch::CreditMatrix;
///
/// let mut m = CreditMatrix::new(12, 9, 32 * 1024);
/// let (p, vl) = (PortId::new(4), VirtualLane::new(0));
/// assert!(m.consume(p, vl, 4148));
/// assert_eq!(m.available(p, vl), 32 * 1024 - 4148);
/// m.replenish(p, vl, 4148);
/// assert_eq!(m.available(p, vl), 32 * 1024);
/// ```
#[derive(Debug, Clone)]
pub struct CreditMatrix {
    vls: usize,
    initial: Vec<u64>,
    available: Vec<u64>,
}

impl CreditMatrix {
    /// Creates a matrix for `ports` egress ports × `vls` lanes, each slot
    /// granted `bytes_per_vl`.
    pub fn new(ports: u8, vls: u8, bytes_per_vl: u64) -> Self {
        let slots = ports as usize * vls as usize;
        CreditMatrix {
            vls: vls as usize,
            initial: vec![bytes_per_vl; slots],
            available: vec![bytes_per_vl; slots],
        }
    }

    /// Lanes per port.
    pub fn vls(&self) -> u8 {
        self.vls as u8
    }

    #[inline]
    fn idx(&self, port: PortId, vl: VirtualLane) -> usize {
        port.index() * self.vls + vl.index()
    }

    /// Overwrites one port's row from a [`CreditLedger`] (used when the
    /// downstream peer's advertisement differs from switch-buffer symmetry,
    /// e.g. a host RNIC).
    pub fn set_port(&mut self, port: PortId, ledger: &CreditLedger) {
        debug_assert_eq!(usize::from(ledger.vls()), self.vls);
        for v in 0..ledger.vls().min(self.vls as u8) {
            let vl = VirtualLane::new(v);
            let i = self.idx(port, vl);
            self.initial[i] = ledger.available(vl) + ledger.in_flight(vl);
            self.available[i] = ledger.available(vl);
        }
    }

    /// Credits currently available on (`port`, `vl`).
    #[inline]
    pub fn available(&self, port: PortId, vl: VirtualLane) -> u64 {
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

    /// Bytes currently in flight (consumed but not yet replenished).
    pub fn in_flight(&self, port: PortId, vl: VirtualLane) -> u64 {
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
    fn unlimited_is_effectively_infinite() {
        let mut c = CreditLedger::unlimited(1);
        let vl = VirtualLane::new(0);
        for _ in 0..1_000 {
            assert!(c.consume(vl, u32::MAX as u64));
        }
    }
}
