//! Queue pairs and transport protocol state.

use std::collections::VecDeque;

use rperf_model::{QpNum, Transport};

use crate::error::VerbsError;
use crate::wr::{RecvWr, SendWr};

/// IB's maximum message size (2 GB).
pub const MAX_MESSAGE_BYTES: u64 = 1 << 31;

/// One side of an RDMA connection: its transport, which every send work
/// request is checked against, and its receive queue. The messages its
/// sends launched are tracked per RNIC, in [`crate::InFlight`].
///
/// The queue pair is a *semantic* state machine: the RNIC model drives it
/// and attaches timing. Its checks and transitions return [`VerbsError`]
/// on protocol violations.
///
/// # Examples
///
/// ```
/// use rperf_model::{Transport, Verb};
/// use rperf_verbs::{QueuePair, SendWr, WrId};
/// use rperf_model::QpNum;
///
/// let qp = QueuePair::new(QpNum::new(1), Transport::Ud);
/// assert!(qp.check_send(&SendWr::new(WrId(1), Verb::Send, 64)).is_ok());
/// assert!(qp.check_send(&SendWr::new(WrId(2), Verb::Write, 64)).is_err());
/// ```
#[derive(Debug, Clone)]
pub struct QueuePair {
    num: QpNum,
    transport: Transport,
    rq: VecDeque<RecvWr>,
}

impl QueuePair {
    /// Creates a queue pair.
    pub fn new(num: QpNum, transport: Transport) -> Self {
        QueuePair {
            num,
            transport,
            rq: VecDeque::new(),
        }
    }

    /// The queue pair number.
    pub fn num(&self) -> QpNum {
        self.num
    }

    /// The transport type.
    pub fn transport(&self) -> Transport {
        self.transport
    }

    /// Checks a send work request against this queue pair's transport and
    /// IB's message-size limit.
    ///
    /// # Errors
    ///
    /// * [`VerbsError::InvalidVerbForTransport`] for one-sided verbs on UD.
    /// * [`VerbsError::PayloadTooLarge`] beyond IB's 2 GB message limit.
    pub fn check_send(&self, wr: &SendWr) -> Result<(), VerbsError> {
        if !wr.valid_for(self.transport) {
            return Err(VerbsError::InvalidVerbForTransport {
                verb: wr.verb,
                transport: self.transport,
            });
        }
        if wr.payload > MAX_MESSAGE_BYTES {
            return Err(VerbsError::PayloadTooLarge {
                requested: wr.payload,
                limit: MAX_MESSAGE_BYTES,
            });
        }
        Ok(())
    }

    /// Posts a receive-queue work request.
    pub fn post_recv(&mut self, wr: RecvWr) {
        self.rq.push_back(wr);
    }

    /// Pending receive-queue depth.
    pub fn rq_depth(&self) -> usize {
        self.rq.len()
    }

    /// Consumes a pre-posted RECV for an incoming SEND.
    ///
    /// # Errors
    ///
    /// [`VerbsError::ReceiverNotReady`] if the receive queue is empty.
    pub fn consume_recv(&mut self) -> Result<RecvWr, VerbsError> {
        self.rq
            .pop_front()
            .ok_or(VerbsError::ReceiverNotReady { qp: self.num })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wr::WrId;
    use rperf_model::Verb;

    fn rc_qp() -> QueuePair {
        QueuePair::new(QpNum::new(1), Transport::Rc)
    }

    #[test]
    fn ud_rejects_one_sided() {
        let qp = QueuePair::new(QpNum::new(2), Transport::Ud);
        let err = qp
            .check_send(&SendWr::new(WrId(1), Verb::Write, 64))
            .unwrap_err();
        assert!(matches!(err, VerbsError::InvalidVerbForTransport { .. }));
        assert!(qp.check_send(&SendWr::new(WrId(1), Verb::Send, 64)).is_ok());
    }

    #[test]
    fn oversized_payload_rejected() {
        let qp = rc_qp();
        let err = qp
            .check_send(&SendWr::new(WrId(1), Verb::Send, MAX_MESSAGE_BYTES + 1))
            .unwrap_err();
        assert!(matches!(err, VerbsError::PayloadTooLarge { .. }));
    }

    #[test]
    fn recv_consumption_in_order() {
        let mut qp = rc_qp();
        qp.post_recv(RecvWr::new(WrId(10), 4096));
        qp.post_recv(RecvWr::new(WrId(11), 4096));
        assert_eq!(qp.consume_recv().unwrap().wr_id, WrId(10));
        assert_eq!(qp.consume_recv().unwrap().wr_id, WrId(11));
        assert!(matches!(
            qp.consume_recv(),
            Err(VerbsError::ReceiverNotReady { .. })
        ));
    }
}
