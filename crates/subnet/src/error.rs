//! Subnet planning errors.

use std::error::Error;
use std::fmt;

/// Why a topology could not be planned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubnetError {
    /// A switch needs more ports than the hardware provides.
    PortBudgetExceeded {
        /// The overloaded switch.
        switch: usize,
        /// Ports required.
        needed: usize,
        /// Ports available.
        available: usize,
    },
    /// A host references a switch index beyond the topology.
    UnknownSwitch {
        /// The offending switch index.
        switch: usize,
    },
    /// A trunk connects a switch to itself.
    SelfTrunk {
        /// The switch.
        switch: usize,
    },
    /// The switch graph is not connected: some host pairs cannot reach
    /// each other.
    Disconnected {
        /// A switch unreachable from switch 0.
        switch: usize,
    },
    /// The topology has no hosts to route between.
    NoHosts,
    /// The topology has more hosts than there are unicast LIDs.
    TooManyHosts {
        /// Hosts in the topology.
        hosts: usize,
        /// The most hosts a subnet can address.
        max: usize,
    },
}

impl fmt::Display for SubnetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubnetError::PortBudgetExceeded {
                switch,
                needed,
                available,
            } => write!(
                f,
                "switch {switch} needs {needed} ports but has only {available}"
            ),
            SubnetError::UnknownSwitch { switch } => {
                write!(f, "reference to nonexistent switch {switch}")
            }
            SubnetError::SelfTrunk { switch } => {
                write!(f, "switch {switch} is trunked to itself")
            }
            SubnetError::Disconnected { switch } => {
                write!(f, "switch {switch} is unreachable from switch 0")
            }
            SubnetError::NoHosts => write!(f, "topology has no hosts"),
            SubnetError::TooManyHosts { hosts, max } => write!(
                f,
                "topology has {hosts} hosts but unicast LIDs address at most {max}"
            ),
        }
    }
}

impl Error for SubnetError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn error_messages_are_lowercase_prose() {
        let e = SubnetError::PortBudgetExceeded {
            switch: 1,
            needed: 14,
            available: 12,
        };
        assert!(e.to_string().contains("needs 14 ports"));
        assert!(!e.to_string().ends_with('.'));
    }

    #[test]
    fn error_is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<SubnetError>();
    }
}
