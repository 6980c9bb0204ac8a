//! Queue pairs and transport protocol state.

use std::collections::{BTreeMap, VecDeque};

use rperf_model::{MsgId, QpNum, Transport};

use crate::error::VerbsError;
use crate::wr::{RecvWr, SendWr};

/// IB's maximum message size (2 GB).
pub const MAX_MESSAGE_BYTES: u64 = 1 << 31;

/// A message handed to the RNIC engine and not yet completed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct OutstandingMsg {
    /// Fabric-wide message id.
    pub msg: MsgId,
    /// The originating work request.
    pub wr: SendWr,
}

/// One side of an RDMA connection: send queue, receive queue and the
/// requester's outstanding messages.
///
/// The queue pair is a *semantic* state machine: the RNIC model drives it
/// and attaches timing. All transitions validate protocol rules and return
/// [`VerbsError`] on violations.
///
/// # Examples
///
/// ```
/// use rperf_model::{Transport, Verb};
/// use rperf_verbs::{QueuePair, SendWr, WrId};
/// use rperf_model::QpNum;
///
/// let mut qp = QueuePair::new(QpNum::new(1), Transport::Rc);
/// qp.post_send(SendWr::new(WrId(1), Verb::Send, 64))?;
/// let wr = qp.pop_send().unwrap();
/// assert_eq!(wr.wr_id, WrId(1));
/// # Ok::<(), rperf_verbs::VerbsError>(())
/// ```
#[derive(Debug, Clone)]
pub struct QueuePair {
    num: QpNum,
    transport: Transport,
    sq: VecDeque<SendWr>,
    rq: VecDeque<RecvWr>,
    outstanding: BTreeMap<u64, OutstandingMsg>,
    posted_sends: u64,
    completed_sends: u64,
}

impl QueuePair {
    /// Creates a queue pair.
    pub fn new(num: QpNum, transport: Transport) -> Self {
        QueuePair {
            num,
            transport,
            sq: VecDeque::new(),
            rq: VecDeque::new(),
            outstanding: BTreeMap::new(),
            posted_sends: 0,
            completed_sends: 0,
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

    /// Posts a send-queue work request.
    ///
    /// # Errors
    ///
    /// * [`VerbsError::InvalidVerbForTransport`] for one-sided verbs on UD.
    /// * [`VerbsError::PayloadTooLarge`] beyond IB's 2 GB message limit.
    pub fn post_send(&mut self, wr: SendWr) -> Result<(), VerbsError> {
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
        self.sq.push_back(wr);
        self.posted_sends += 1;
        Ok(())
    }

    /// Posts a receive-queue work request.
    pub fn post_recv(&mut self, wr: RecvWr) {
        self.rq.push_back(wr);
    }

    /// Takes the next work request off the send queue (engine side).
    pub fn pop_send(&mut self) -> Option<SendWr> {
        self.sq.pop_front()
    }

    /// Pending send-queue depth.
    pub fn sq_depth(&self) -> usize {
        self.sq.len()
    }

    /// Pending receive-queue depth.
    pub fn rq_depth(&self) -> usize {
        self.rq.len()
    }

    /// Outstanding (sent, unacknowledged) messages.
    pub fn outstanding(&self) -> usize {
        self.outstanding.len()
    }

    /// Registers a message the engine has started transmitting.
    pub fn register_outstanding(&mut self, msg: MsgId, wr: SendWr) {
        self.outstanding
            .insert(msg.raw(), OutstandingMsg { msg, wr });
    }

    /// Resolves an ACK (or READ-response completion) against an outstanding
    /// message.
    ///
    /// # Errors
    ///
    /// [`VerbsError::UnknownMessage`] if the message was never registered —
    /// a duplicate or misrouted ACK.
    pub fn complete(&mut self, msg: MsgId) -> Result<OutstandingMsg, VerbsError> {
        let out = self
            .outstanding
            .remove(&msg.raw())
            .ok_or(VerbsError::UnknownMessage { qp: self.num })?;
        self.completed_sends += 1;
        Ok(out)
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

    /// Total send work requests ever posted.
    pub fn posted_sends(&self) -> u64 {
        self.posted_sends
    }

    /// Total send work requests ever completed.
    pub fn completed_sends(&self) -> u64 {
        self.completed_sends
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
    fn post_pop_fifo() {
        let mut qp = rc_qp();
        qp.post_send(SendWr::new(WrId(1), Verb::Send, 64)).unwrap();
        qp.post_send(SendWr::new(WrId(2), Verb::Send, 64)).unwrap();
        assert_eq!(qp.sq_depth(), 2);
        assert_eq!(qp.pop_send().unwrap().wr_id, WrId(1));
        assert_eq!(qp.pop_send().unwrap().wr_id, WrId(2));
        assert!(qp.pop_send().is_none());
    }

    #[test]
    fn ud_rejects_one_sided() {
        let mut qp = QueuePair::new(QpNum::new(2), Transport::Ud);
        let err = qp
            .post_send(SendWr::new(WrId(1), Verb::Write, 64))
            .unwrap_err();
        assert!(matches!(err, VerbsError::InvalidVerbForTransport { .. }));
        assert!(qp.post_send(SendWr::new(WrId(1), Verb::Send, 64)).is_ok());
    }

    #[test]
    fn oversized_payload_rejected() {
        let mut qp = rc_qp();
        let err = qp
            .post_send(SendWr::new(WrId(1), Verb::Send, MAX_MESSAGE_BYTES + 1))
            .unwrap_err();
        assert!(matches!(err, VerbsError::PayloadTooLarge { .. }));
    }

    #[test]
    fn outstanding_lifecycle() {
        let mut qp = rc_qp();
        let wr = SendWr::new(WrId(9), Verb::Send, 64);
        qp.register_outstanding(MsgId::new(5), wr);
        assert_eq!(qp.outstanding(), 1);
        let done = qp.complete(MsgId::new(5)).unwrap();
        assert_eq!(done.wr.wr_id, WrId(9));
        assert_eq!(qp.outstanding(), 0);
        assert_eq!(qp.completed_sends(), 1);
    }

    #[test]
    fn duplicate_ack_is_an_error() {
        let mut qp = rc_qp();
        qp.register_outstanding(MsgId::new(5), SendWr::new(WrId(1), Verb::Send, 64));
        qp.complete(MsgId::new(5)).unwrap();
        assert!(matches!(
            qp.complete(MsgId::new(5)),
            Err(VerbsError::UnknownMessage { .. })
        ));
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
