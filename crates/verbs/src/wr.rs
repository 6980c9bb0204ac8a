//! Work requests.

use rperf_model::{Lid, QpNum, ServiceLevel, Transport, Verb};

/// An application-chosen work-request identifier, echoed in the completion.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct WrId(pub u64);

impl WrId {
    /// The raw identifier value.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// A send work request: one SEND, WRITE or READ operation.
///
/// # Examples
///
/// ```
/// use rperf_model::{Lid, QpNum, ServiceLevel, Transport, Verb};
/// use rperf_verbs::{SendWr, WrId};
///
/// let wr = SendWr::new(WrId(1), Verb::Send, 64)
///     .to(Lid::new(2), QpNum::new(9))
///     .with_sl(ServiceLevel::new(1));
/// assert_eq!(wr.payload, 64);
/// assert!(wr.valid_for(Transport::Rc));
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SendWr {
    /// Application identifier echoed in the CQE.
    pub wr_id: WrId,
    /// Operation type.
    pub verb: Verb,
    /// Payload bytes (for READ: bytes to fetch from the remote).
    pub payload: u64,
    /// Destination end-port.
    pub remote: Lid,
    /// Destination queue pair.
    pub remote_qp: QpNum,
    /// Service level for the flow.
    pub sl: ServiceLevel,
    /// Whether a CQE should be generated on completion.
    pub signaled: bool,
    /// `true` to route through the RNIC-internal loopback path (a message
    /// from a host to itself via its own RNIC) — the mechanism RPerf uses
    /// to time local-side processing.
    pub loopback: bool,
}

impl SendWr {
    /// Creates a signaled work request with destination not yet set.
    pub fn new(wr_id: WrId, verb: Verb, payload: u64) -> Self {
        SendWr {
            wr_id,
            verb,
            payload,
            remote: Lid::new(0),
            remote_qp: QpNum::new(0),
            sl: ServiceLevel::new(0),
            signaled: true,
            loopback: false,
        }
    }

    /// Sets the destination (builder style).
    pub fn to(mut self, remote: Lid, remote_qp: QpNum) -> Self {
        self.remote = remote;
        self.remote_qp = remote_qp;
        self
    }

    /// Sets the service level (builder style).
    pub fn with_sl(mut self, sl: ServiceLevel) -> Self {
        self.sl = sl;
        self
    }

    /// Marks the request unsignaled (no CQE).
    pub fn unsignaled(mut self) -> Self {
        self.signaled = false;
        self
    }

    /// Marks the request as a loopback to the local RNIC.
    pub fn via_loopback(mut self) -> Self {
        self.loopback = true;
        self
    }

    /// Whether this verb is permitted on the given transport: UD provides
    /// only two-sided verbs; RC provides all (Section II-B of the paper).
    pub fn valid_for(&self, transport: Transport) -> bool {
        match transport {
            Transport::Rc => true,
            Transport::Ud => self.verb == Verb::Send,
        }
    }
}

/// A receive-queue work request (a pre-posted RECV buffer).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RecvWr {
    /// Application identifier echoed in the CQE.
    pub wr_id: WrId,
    /// Buffer capacity in bytes.
    pub capacity: u64,
}

impl RecvWr {
    /// Creates a receive work request.
    pub fn new(wr_id: WrId, capacity: u64) -> Self {
        RecvWr { wr_id, capacity }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builder_chains() {
        let wr = SendWr::new(WrId(7), Verb::Write, 4096)
            .to(Lid::new(3), QpNum::new(11))
            .with_sl(ServiceLevel::new(2))
            .unsignaled();
        assert_eq!(wr.remote, Lid::new(3));
        assert_eq!(wr.remote_qp, QpNum::new(11));
        assert_eq!(wr.sl, ServiceLevel::new(2));
        assert!(!wr.signaled);
        assert!(!wr.loopback);
    }

    #[test]
    fn ud_permits_only_send() {
        assert!(SendWr::new(WrId(0), Verb::Send, 1).valid_for(Transport::Ud));
        assert!(!SendWr::new(WrId(0), Verb::Write, 1).valid_for(Transport::Ud));
        assert!(!SendWr::new(WrId(0), Verb::Read, 1).valid_for(Transport::Ud));
    }

    #[test]
    fn rc_permits_all_verbs() {
        for verb in [Verb::Send, Verb::Write, Verb::Read] {
            assert!(SendWr::new(WrId(0), verb, 1).valid_for(Transport::Rc));
        }
    }

    #[test]
    fn loopback_flag() {
        let wr = SendWr::new(WrId(1), Verb::Send, 64).via_loopback();
        assert!(wr.loopback);
    }
}
