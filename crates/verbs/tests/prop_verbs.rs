//! Property tests for the verbs protocol state machines.

use std::collections::BTreeMap;

use proptest::prelude::*;
use rperf_model::{MsgId, NodeId, QpNum, Transport, Verb};
use rperf_verbs::{InFlight, QueuePair, RecvWr, SendWr, WrId};

proptest! {
    /// Completion conservation: every opened message closes exactly
    /// once; duplicates and unknowns are refused without corrupting state.
    #[test]
    fn in_flight_closes_exactly_once(ids in prop::collection::vec(0u64..64, 1..100)) {
        let mut table = InFlight::new(NodeId::new(3));
        let mut opened = BTreeMap::new();
        for &id in &ids {
            opened
                .entry(id)
                .or_insert_with(|| table.open(QpNum::new(1), SendWr::new(WrId(id), Verb::Send, 64)));
        }
        prop_assert_eq!(table.len(), opened.len());
        for (closed, (&id, &msg)) in opened.iter().enumerate() {
            let done = table.close(msg);
            prop_assert_eq!(done.map(|(_, wr)| wr.wr_id), Some(WrId(id)));
            // Closing again must fail and not change counts.
            prop_assert!(table.close(msg).is_none());
            prop_assert_eq!(table.len(), opened.len() - closed - 1);
        }
        prop_assert_eq!(table.len(), 0);
        prop_assert_eq!(table.span(), 0);
    }

    /// Opens and closes interleaved in a random order: each close hands
    /// back the work request its message was opened with, ids never
    /// repeat, the ring spans exactly from the oldest open message to
    /// the newest, and it retains no slot once every message is closed.
    #[test]
    fn in_flight_random_close_orders(ops in prop::collection::vec(0u64..1_000, 1..300)) {
        let mut table = InFlight::new(NodeId::new(7));
        let mut open: Vec<(MsgId, u64)> = Vec::new();
        let mut minted = 0u64;
        for op in ops {
            // Two opens to every close on average, so the ring holds
            // several messages at once; closes pick any open message.
            if op % 3 != 0 || open.is_empty() {
                let msg = table.open(QpNum::new(2), SendWr::new(WrId(minted), Verb::Write, 64));
                prop_assert_eq!(msg.raw(), (7 << 40) | minted);
                open.push((msg, minted));
                minted += 1;
            } else {
                let (msg, id) = open.swap_remove(op as usize % open.len());
                let (qp, wr) = table.close(msg).expect("an open message closes");
                prop_assert_eq!(qp, QpNum::new(2));
                prop_assert_eq!(wr.wr_id, WrId(id));
                prop_assert!(!table.contains(msg));
            }
            prop_assert_eq!(table.len(), open.len());
            let oldest = open.iter().map(|&(_, id)| id).min().unwrap_or(minted);
            prop_assert_eq!(table.span() as u64, minted - oldest);
        }
        for (msg, _) in open.drain(..).rev() {
            prop_assert!(table.close(msg).is_some());
        }
        prop_assert!(table.is_empty());
        prop_assert_eq!(table.span(), 0);
    }

    /// Another node's ids always miss, whatever their sequence number,
    /// and leave the table as it was.
    #[test]
    fn in_flight_misses_other_nodes_ids(other in 0u16..63, seqs in prop::collection::vec(0u64..64, 1..40)) {
        // Any node but 17.
        let node = other + u16::from(other >= 17);
        let mut table = InFlight::new(NodeId::new(17));
        let msgs: Vec<MsgId> = (0..32)
            .map(|i| table.open(QpNum::new(1), SendWr::new(WrId(i), Verb::Send, 64)))
            .collect();
        for seq in seqs {
            let foreign = MsgId::new((u64::from(node) << 40) | seq);
            prop_assert!(!table.contains(foreign));
            prop_assert!(table.close(foreign).is_none());
        }
        prop_assert_eq!(table.len(), msgs.len());
        prop_assert!(msgs.iter().all(|&m| table.contains(m)));
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
        let rc = QueuePair::new(QpNum::new(1), Transport::Rc);
        let ud = QueuePair::new(QpNum::new(2), Transport::Ud);
        let wr = SendWr::new(WrId(0), verb, payload);
        prop_assert!(rc.check_send(&wr).is_ok());
        prop_assert_eq!(ud.check_send(&wr).is_ok(), verb == Verb::Send);
    }
}
