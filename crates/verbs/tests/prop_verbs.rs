//! Property tests for the verbs protocol state machines.

use proptest::prelude::*;
use rperf_model::{MsgId, QpNum, Transport, Verb};
use rperf_verbs::{QueuePair, RecvWr, SendWr, WrId};

proptest! {
    /// Send-queue FIFO: posted order equals pop order, regardless of the
    /// interleaving of posts and pops.
    #[test]
    fn sq_is_fifo(ops in prop::collection::vec(any::<bool>(), 1..200)) {
        let mut qp = QueuePair::new(QpNum::new(1), Transport::Rc);
        let mut next_post = 0u64;
        let mut next_pop = 0u64;
        for post in ops {
            if post {
                qp.post_send(SendWr::new(WrId(next_post), Verb::Send, 64)).unwrap();
                next_post += 1;
            } else if let Some(wr) = qp.pop_send() {
                prop_assert_eq!(wr.wr_id, WrId(next_pop));
                next_pop += 1;
            }
        }
        prop_assert_eq!(qp.sq_depth() as u64, next_post - next_pop);
    }

    /// Completion conservation: every registered message completes exactly
    /// once; duplicates and unknowns error without corrupting state.
    #[test]
    fn outstanding_complete_exactly_once(ids in prop::collection::vec(0u64..64, 1..100)) {
        let mut qp = QueuePair::new(QpNum::new(1), Transport::Rc);
        let mut registered = std::collections::BTreeSet::new();
        for &id in &ids {
            if registered.insert(id) {
                qp.register_outstanding(MsgId::new(id), SendWr::new(WrId(id), Verb::Send, 64));
            }
        }
        prop_assert_eq!(qp.outstanding(), registered.len());
        for (completed, &id) in registered.iter().enumerate() {
            prop_assert!(qp.complete(MsgId::new(id)).is_ok());
            // Completing again must fail and not change counts.
            prop_assert!(qp.complete(MsgId::new(id)).is_err());
            prop_assert_eq!(qp.completed_sends(), completed as u64 + 1);
        }
        prop_assert_eq!(qp.outstanding(), 0);
    }

    /// RECVs are consumed in posting order and never invented.
    #[test]
    fn rq_conservation(posts in 0usize..50, consumes in 0usize..80) {
        let mut qp = QueuePair::new(QpNum::new(1), Transport::Rc);
        for i in 0..posts {
            qp.post_recv(RecvWr::new(WrId(i as u64), 4096));
        }
        let mut got = 0usize;
        for _ in 0..consumes {
            match qp.consume_recv() {
                Ok(wr) => {
                    prop_assert_eq!(wr.wr_id, WrId(got as u64));
                    got += 1;
                }
                Err(_) => prop_assert!(got >= posts, "RNR only when drained"),
            }
        }
        prop_assert_eq!(got, posts.min(consumes));
    }

    /// The verb/transport validity matrix is total and matches Section II.
    #[test]
    fn verb_transport_matrix(
        payload in 0u64..1_000_000,
        verb in prop::sample::select(vec![Verb::Send, Verb::Write, Verb::Read]),
    ) {
        let mut rc = QueuePair::new(QpNum::new(1), Transport::Rc);
        let mut ud = QueuePair::new(QpNum::new(2), Transport::Ud);
        let wr = SendWr::new(WrId(0), verb, payload);
        prop_assert!(rc.post_send(wr).is_ok());
        prop_assert_eq!(ud.post_send(wr).is_ok(), verb == Verb::Send);
    }
}
