//! Strongly typed identifiers.
//!
//! Each identifier is a newtype so that, for example, a [`PortId`] can never
//! be passed where a [`VirtualLane`] is expected — both are small integers
//! and exactly the kind of thing that gets silently swapped in C codebases.

use std::fmt;

macro_rules! id_type {
    ($(#[$doc:meta])* $name:ident($inner:ty), $prefix:literal) => {
        $(#[$doc])*
        #[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
        pub struct $name($inner);

        impl $name {
            /// Wraps a raw value.
            pub const fn new(raw: $inner) -> Self {
                $name(raw)
            }

            /// The raw value.
            pub const fn raw(self) -> $inner {
                self.0
            }

            /// The raw value as a `usize`, for indexing.
            pub const fn index(self) -> usize {
                self.0 as usize
            }
        }

        impl fmt::Debug for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl fmt::Display for $name {
            fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
                write!(f, concat!($prefix, "{}"), self.0)
            }
        }

        impl From<$inner> for $name {
            fn from(raw: $inner) -> Self {
                $name(raw)
            }
        }
    };
}

id_type!(
    /// An end node (host + RNIC) in the cluster.
    NodeId(u16),
    "node"
);

id_type!(
    /// A switch in the fabric.
    SwitchId(u16),
    "switch"
);

id_type!(
    /// A port on a switch (0-based).
    PortId(u8),
    "port"
);

id_type!(
    /// An InfiniBand Local Identifier — the subnet-unique address assigned
    /// to every end port; switch forwarding tables are keyed by LID.
    Lid(u16),
    "lid"
);

id_type!(
    /// A queue-pair number, unique per RNIC.
    QpNum(u32),
    "qp"
);

id_type!(
    /// A flow: one (source, destination, generator) stream of messages.
    FlowId(u32),
    "flow"
);

id_type!(
    /// A message identifier, unique per fabric run.
    MsgId(u64),
    "msg"
);

id_type!(
    /// A packet identifier, unique per fabric run.
    PacketId(u64),
    "pkt"
);

/// An InfiniBand Service Level (0–15), carried in the packet header.
///
/// SLs are the application-visible priority abstraction; the injecting RNIC
/// maps them to virtual lanes via the fabric's SL2VL table.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct ServiceLevel(u8);

impl ServiceLevel {
    /// Highest SL value permitted by the IB specification.
    pub const MAX: u8 = 15;

    /// Creates a service level.
    ///
    /// # Panics
    ///
    /// Panics if `raw > 15`.
    pub fn new(raw: u8) -> Self {
        assert!(raw <= Self::MAX, "service level {raw} out of range 0..=15");
        ServiceLevel(raw)
    }

    /// The raw value.
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// The raw value as a `usize`, for table indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for ServiceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SL{}", self.0)
    }
}

impl fmt::Display for ServiceLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "SL{}", self.0)
    }
}

/// An InfiniBand Virtual Lane (0–15): a logical link slice with dedicated
/// buffering, flow control and arbitration state.
///
/// The IB specification requires 2–16 VLs per port (the paper's switch
/// exposes 9 data VLs).
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct VirtualLane(u8);

impl VirtualLane {
    /// Highest VL value permitted by the IB specification.
    pub const MAX: u8 = 15;

    /// Creates a virtual lane.
    ///
    /// # Panics
    ///
    /// Panics if `raw > 15`.
    pub fn new(raw: u8) -> Self {
        assert!(raw <= Self::MAX, "virtual lane {raw} out of range 0..=15");
        VirtualLane(raw)
    }

    /// The raw value.
    pub const fn raw(self) -> u8 {
        self.0
    }

    /// The raw value as a `usize`, for table indexing.
    pub const fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Debug for VirtualLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VL{}", self.0)
    }
}

impl fmt::Display for VirtualLane {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "VL{}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ids_roundtrip() {
        let n = NodeId::new(3);
        assert_eq!(n.raw(), 3);
        assert_eq!(n.index(), 3);
        assert_eq!(NodeId::from(3), n);
        assert_eq!(format!("{n}"), "node3");
        assert_eq!(format!("{n:?}"), "node3");
    }

    #[test]
    fn distinct_types_do_not_compare() {
        // This is a compile-time property; the test documents it.
        let p = PortId::new(1);
        let v = VirtualLane::new(1);
        assert_eq!(p.raw(), v.raw());
    }

    #[test]
    fn sl_vl_bounds() {
        assert_eq!(ServiceLevel::new(15).raw(), 15);
        assert_eq!(VirtualLane::new(0).index(), 0);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn sl_over_15_panics() {
        let _ = ServiceLevel::new(16);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn vl_over_15_panics() {
        let _ = VirtualLane::new(16);
    }

    #[test]
    fn ordering_matches_raw() {
        assert!(Lid::new(1) < Lid::new(2));
        assert!(ServiceLevel::new(0) < ServiceLevel::new(1));
    }
}
