//! Linear forwarding tables.

use rperf_model::{Lid, PortId};

/// A LID → egress-port forwarding table, programmed by the subnet manager
/// at fabric bring-up.
///
/// Lookups are on the per-packet hot path, so the table is a dense `Vec`
/// indexed by destination LID — `route` is a bounds check plus a load,
/// with no tree walk or hashing. LIDs are assigned contiguously from 1
/// by the subnet planner, so the slab wastes at most one slot.
///
/// # Examples
///
/// ```
/// use rperf_model::{Lid, PortId};
/// use rperf_switch::ForwardingTable;
///
/// let mut t = ForwardingTable::new();
/// t.set(Lid::new(5), PortId::new(2));
/// assert_eq!(t.route(Lid::new(5)), Some(PortId::new(2)));
/// assert_eq!(t.route(Lid::new(6)), None);
/// ```
#[derive(Debug, Clone, Default)]
pub struct ForwardingTable {
    /// `slots[lid]` is the programmed egress port for that LID.
    slots: Vec<Option<PortId>>,
    /// Number of `Some` entries in `slots`.
    programmed: usize,
}

impl ForwardingTable {
    /// Creates an empty table.
    pub fn new() -> Self {
        Self::default()
    }

    /// A table routing the contiguous LIDs a subnet manager assigns from
    /// 1: `ports[i]` is the egress port for LID `i + 1`.
    ///
    /// # Examples
    ///
    /// ```
    /// use rperf_model::{Lid, PortId};
    /// use rperf_switch::ForwardingTable;
    ///
    /// let t = ForwardingTable::dense(&[PortId::new(4), PortId::new(0)]);
    /// assert_eq!(t.route(Lid::new(2)), Some(PortId::new(0)));
    /// assert_eq!(t.route(Lid::new(0)), None);
    /// assert_eq!(t.len(), 2);
    /// ```
    pub fn dense(ports: &[PortId]) -> Self {
        let mut slots = Vec::with_capacity(ports.len() + 1);
        slots.push(None);
        slots.extend(ports.iter().copied().map(Some));
        ForwardingTable {
            slots,
            programmed: ports.len(),
        }
    }

    /// Programs (or reprograms) the egress port for a destination LID.
    pub fn set(&mut self, lid: Lid, port: PortId) {
        let idx = lid.raw() as usize;
        if idx >= self.slots.len() {
            self.slots.resize(idx + 1, None);
        }
        if self.slots[idx].is_none() {
            self.programmed += 1;
        }
        self.slots[idx] = Some(port);
    }

    /// Looks up the egress port for a destination LID.
    #[inline]
    pub fn route(&self, lid: Lid) -> Option<PortId> {
        self.slots.get(lid.raw() as usize).copied().flatten()
    }

    /// Number of programmed destinations.
    pub fn len(&self) -> usize {
        self.programmed
    }

    /// `true` if nothing is programmed.
    pub fn is_empty(&self) -> bool {
        self.programmed == 0
    }

    /// Iterates the programmed entries in ascending LID order.
    pub fn entries(&self) -> impl Iterator<Item = (Lid, PortId)> + '_ {
        self.slots
            .iter()
            .enumerate()
            .filter_map(|(lid, port)| port.map(|p| (Lid::new(lid as u16), p)))
    }
}

impl FromIterator<(Lid, PortId)> for ForwardingTable {
    fn from_iter<I: IntoIterator<Item = (Lid, PortId)>>(iter: I) -> Self {
        let mut t = ForwardingTable::new();
        for (lid, port) in iter {
            t.set(lid, port);
        }
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn set_overwrites() {
        let mut t = ForwardingTable::new();
        t.set(Lid::new(1), PortId::new(0));
        t.set(Lid::new(1), PortId::new(3));
        assert_eq!(t.route(Lid::new(1)), Some(PortId::new(3)));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn collects_from_iterator() {
        let t: ForwardingTable = (0..4u16)
            .map(|i| (Lid::new(i), PortId::new(i as u8)))
            .collect();
        assert_eq!(t.len(), 4);
        assert_eq!(t.route(Lid::new(2)), Some(PortId::new(2)));
        assert!(!t.is_empty());
    }

    #[test]
    fn dense_matches_per_lid_programming() {
        let ports: Vec<PortId> = [3u8, 0, 3, 1].map(PortId::new).to_vec();
        let dense = ForwardingTable::dense(&ports);
        let set: ForwardingTable = ports
            .iter()
            .enumerate()
            .map(|(i, &p)| (Lid::new(i as u16 + 1), p))
            .collect();
        assert!(dense.entries().eq(set.entries()));
        assert_eq!(dense.len(), set.len());
        assert!(ForwardingTable::dense(&[]).is_empty());
    }

    #[test]
    fn entries_iterate_in_lid_order_with_holes_skipped() {
        let mut t = ForwardingTable::new();
        t.set(Lid::new(9), PortId::new(1));
        t.set(Lid::new(2), PortId::new(7));
        let seen: Vec<(u16, u8)> = t.entries().map(|(l, p)| (l.raw(), p.raw())).collect();
        assert_eq!(seen, vec![(2, 7), (9, 1)]);
        assert_eq!(t.len(), 2);
        // Lookups far past the slab end are misses, not panics.
        assert_eq!(t.route(Lid::new(1000)), None);
    }
}
