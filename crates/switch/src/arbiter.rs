//! Packet scheduling across ingress ports.

use rperf_model::config::SchedPolicy;
use rperf_model::PortId;
use rperf_sim::SimTime;

/// The per-egress packet scheduler: picks which ingress port's head packet
/// to forward next, among candidates already filtered to one virtual lane.
///
/// * **FCFS** — the packet that arrived at this switch earliest wins
///   (ties broken by port number). Under converged traffic this makes a
///   latency-sensitive packet wait behind *every* packet buffered anywhere
///   in the switch — Eq. 2 of the paper.
/// * **Round-robin** — ingress ports are visited cyclically, bounding the
///   wait to roughly one packet per active port.
///
/// # Examples
///
/// ```
/// use rperf_model::config::SchedPolicy;
/// use rperf_model::PortId;
/// use rperf_sim::SimTime;
/// use rperf_switch::PacketScheduler;
///
/// let mut fcfs = PacketScheduler::new(SchedPolicy::Fcfs, 12);
/// let picked = fcfs.pick(&[
///     (PortId::new(3), SimTime::from_ns(20)),
///     (PortId::new(1), SimTime::from_ns(10)),
/// ]);
/// assert_eq!(picked, Some(PortId::new(1)));
/// ```
#[derive(Debug, Clone)]
pub struct PacketScheduler {
    policy: SchedPolicy,
    ports: u8,
    cursor: u8,
    /// Bytes served per ingress port: FairShare state, left empty (and
    /// unallocated) under the policies that never read it.
    served: Vec<u64>,
}

impl PacketScheduler {
    /// Creates a scheduler for a switch with `ports` ingress ports.
    pub fn new(policy: SchedPolicy, ports: u8) -> Self {
        let served = match policy {
            SchedPolicy::FairShare => vec![0; ports as usize],
            SchedPolicy::Fcfs | SchedPolicy::RoundRobin => Vec::new(),
        };
        PacketScheduler {
            policy,
            ports,
            cursor: 0,
            served,
        }
    }

    /// The policy in force.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Picks the ingress port to serve among `candidates` (pairs of port
    /// and head-packet arrival time). Returns `None` if empty.
    pub fn pick(&mut self, candidates: &[(PortId, SimTime)]) -> Option<PortId> {
        if candidates.is_empty() {
            return None;
        }
        match self.policy {
            SchedPolicy::Fcfs => candidates
                .iter()
                .min_by_key(|(port, arrival)| (*arrival, port.raw()))
                .map(|(port, _)| *port),
            SchedPolicy::RoundRobin => {
                for step in 0..self.ports {
                    let p = (self.cursor + step) % self.ports;
                    if let Some((port, _)) = candidates.iter().find(|(port, _)| port.raw() == p) {
                        self.cursor = (p + 1) % self.ports;
                        return Some(*port);
                    }
                }
                None
            }
            SchedPolicy::FairShare => candidates
                .iter()
                .min_by_key(|(port, _)| (self.served[port.index()], port.raw()))
                .map(|(port, _)| *port),
        }
    }

    /// Records that `bytes` were forwarded from `port` (FairShare state;
    /// a no-op for the other policies).
    pub fn account(&mut self, port: PortId, bytes: u64) {
        if self.policy != SchedPolicy::FairShare {
            return;
        }
        self.served[port.index()] += bytes;
        // Periodically rebase so counters never overflow and idle ports do
        // not accrue an unbounded advantage.
        if self.served[port.index()] >= u64::MAX / 2 {
            let min = self.served.iter().min().copied().unwrap_or(0);
            for s in &mut self.served {
                *s -= min;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cand(entries: &[(u8, u64)]) -> Vec<(PortId, SimTime)> {
        entries
            .iter()
            .map(|&(p, t)| (PortId::new(p), SimTime::from_ns(t)))
            .collect()
    }

    #[test]
    fn fcfs_picks_oldest() {
        let mut s = PacketScheduler::new(SchedPolicy::Fcfs, 12);
        assert_eq!(
            s.pick(&cand(&[(0, 30), (1, 10), (2, 20)])),
            Some(PortId::new(1))
        );
    }

    #[test]
    fn fcfs_breaks_ties_by_port() {
        let mut s = PacketScheduler::new(SchedPolicy::Fcfs, 12);
        assert_eq!(s.pick(&cand(&[(5, 10), (2, 10)])), Some(PortId::new(2)));
    }

    #[test]
    fn rr_rotates_across_ports() {
        let mut s = PacketScheduler::new(SchedPolicy::RoundRobin, 4);
        let all = cand(&[(0, 0), (1, 0), (2, 0), (3, 0)]);
        let order: Vec<u8> = (0..8).map(|_| s.pick(&all).unwrap().raw()).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 0, 1, 2, 3]);
    }

    #[test]
    fn rr_skips_idle_ports() {
        let mut s = PacketScheduler::new(SchedPolicy::RoundRobin, 4);
        let some = cand(&[(1, 0), (3, 0)]);
        let order: Vec<u8> = (0..4).map(|_| s.pick(&some).unwrap().raw()).collect();
        assert_eq!(order, vec![1, 3, 1, 3]);
    }

    #[test]
    fn rr_ignores_arrival_times() {
        let mut s = PacketScheduler::new(SchedPolicy::RoundRobin, 4);
        // Port 2 has the oldest packet but RR starts at the cursor.
        assert_eq!(s.pick(&cand(&[(2, 1), (0, 100)])), Some(PortId::new(0)));
    }

    #[test]
    fn empty_candidates_yield_none() {
        for policy in [
            SchedPolicy::Fcfs,
            SchedPolicy::RoundRobin,
            SchedPolicy::FairShare,
        ] {
            let mut s = PacketScheduler::new(policy, 4);
            assert_eq!(s.pick(&[]), None);
        }
    }

    #[test]
    fn fair_share_prefers_least_served_port() {
        let mut s = PacketScheduler::new(SchedPolicy::FairShare, 4);
        let all = cand(&[(0, 0), (1, 0)]);
        // Port 0 wins the tie, then accrues bytes.
        assert_eq!(s.pick(&all), Some(PortId::new(0)));
        s.account(PortId::new(0), 4096);
        // Now port 1 is behind on service.
        assert_eq!(s.pick(&all), Some(PortId::new(1)));
        s.account(PortId::new(1), 64);
        // Port 1 still has served fewer bytes: it keeps winning.
        assert_eq!(s.pick(&all), Some(PortId::new(1)));
    }

    #[test]
    fn fair_share_lets_a_small_flow_bypass_bulk() {
        let mut s = PacketScheduler::new(SchedPolicy::FairShare, 4);
        // Bulk on port 0 has been served megabytes; a probe shows on port 3.
        s.account(PortId::new(0), 10_000_000);
        let got = s.pick(&cand(&[(0, 0), (3, 100)]));
        assert_eq!(got, Some(PortId::new(3)));
    }

    #[test]
    fn account_is_noop_for_other_policies() {
        let mut s = PacketScheduler::new(SchedPolicy::RoundRobin, 4);
        s.account(PortId::new(0), 1_000_000);
        let all = cand(&[(0, 0), (1, 0)]);
        assert_eq!(s.pick(&all), Some(PortId::new(0)), "RR unaffected by bytes");
    }
}
