//! Verbs-layer errors.

use std::error::Error;
use std::fmt;

use rperf_model::{QpNum, Transport, Verb};

/// Errors returned by verbs-layer operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum VerbsError {
    /// The verb is not supported on the queue pair's transport (e.g. a
    /// one-sided WRITE on a UD queue pair).
    InvalidVerbForTransport {
        /// The offending verb.
        verb: Verb,
        /// The queue pair's transport.
        transport: Transport,
    },
    /// An incoming SEND arrived but no RECV was pre-posted — on a real RC
    /// fabric this triggers RNR (receiver-not-ready) back-pressure.
    ReceiverNotReady {
        /// The destination queue pair.
        qp: QpNum,
    },
    /// The payload exceeds what a single work request may carry.
    PayloadTooLarge {
        /// Requested bytes.
        requested: u64,
        /// Maximum message size.
        limit: u64,
    },
}

impl fmt::Display for VerbsError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            VerbsError::InvalidVerbForTransport { verb, transport } => {
                write!(
                    f,
                    "verb {verb:?} is not supported on {transport:?} transport"
                )
            }
            VerbsError::ReceiverNotReady { qp } => {
                write!(f, "no receive work request posted on {qp}")
            }
            VerbsError::PayloadTooLarge { requested, limit } => {
                write!(
                    f,
                    "payload of {requested} bytes exceeds limit of {limit} bytes"
                )
            }
        }
    }
}

impl Error for VerbsError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_prose() {
        let e = VerbsError::InvalidVerbForTransport {
            verb: Verb::Write,
            transport: Transport::Ud,
        };
        let s = e.to_string();
        assert!(s.contains("not supported"));
        assert!(!s.ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<VerbsError>();
    }
}
