//! Pod-aware role placement over fat-tree fabrics.
//!
//! The converged-traffic experiments need host pairs at a *chosen* hop
//! distance (the victim flow) and incast source sets that converge on a
//! destination from maximally remote edges (the background load). Both
//! are pure functions of [`FatTreeParams`], so placements are identical
//! across runs and job counts.

use rperf_subnet::FatTreeParams;

/// A source/destination host pair whose shortest path crosses exactly
/// `hops` switches, or `None` if the fabric has no such pair.
///
/// Hop counts follow the fat-tree structure: `1` is two hosts on one
/// edge switch, `3` crosses the spine (2-tier) or stays within a pod
/// (3-tier), `5` crosses pods (3-tier only).
pub fn pair_at_hops(ft: &FatTreeParams, hops: u32) -> Option<(usize, usize)> {
    let hpe = ft.hosts_per_edge();
    match hops {
        1 if hpe >= 2 => Some((0, 1)),
        3 => {
            // The first host of edge 0 and of the next edge reachable
            // without leaving the pod (any edge, for 2 tiers).
            let edges_per_pod = if ft.tiers == 2 { ft.edges() } else { ft.k / 2 };
            (edges_per_pod >= 2).then_some((0, hpe))
        }
        5 if ft.tiers == 3 => {
            let hosts_per_pod = hpe * ft.k / 2;
            (ft.k >= 2).then_some((0, hosts_per_pod))
        }
        _ => None,
    }
}

/// `n` incast sources converging on `dst`, spread round-robin over the
/// other edge switches first (remote sources stress the trunk fan-in;
/// `dst`'s own edge is drawn on last within each round).
///
/// # Panics
///
/// Panics if the fabric has fewer than `n` hosts besides `dst`.
pub fn incast_sources(ft: &FatTreeParams, dst: usize, n: usize) -> Vec<usize> {
    assert!(
        n < ft.hosts(),
        "{n} sources requested but only {} hosts exist besides the destination",
        ft.hosts() - 1
    );
    let edges = ft.edges();
    let hpe = ft.hosts_per_edge();
    let dst_edge = ft.edge_of_host(dst);
    let mut out = Vec::with_capacity(n);
    for round in 0..hpe {
        for off in 1..=edges {
            if out.len() == n {
                return out;
            }
            let host = (dst_edge + off) % edges * hpe + round;
            if host != dst {
                out.push(host);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pairs_exist_at_every_advertised_depth() {
        let two = FatTreeParams::new(4, 2, 1);
        assert_eq!(pair_at_hops(&two, 1), Some((0, 1)));
        assert_eq!(pair_at_hops(&two, 3), Some((0, 2)));
        assert_eq!(pair_at_hops(&two, 5), None, "2-tier tops out at 3 hops");

        let three = FatTreeParams::new(4, 3, 1);
        assert_eq!(pair_at_hops(&three, 1), Some((0, 1)));
        // Same pod, different edge: hosts 0 and 2.
        assert_eq!(pair_at_hops(&three, 3), Some((0, 2)));
        // Cross-pod: pod 0 holds hosts 0..4.
        assert_eq!(pair_at_hops(&three, 5), Some((0, 4)));
    }

    #[test]
    fn degenerate_shapes_report_missing_depths() {
        // One host per edge: no same-edge pair.
        let skinny = FatTreeParams::new(2, 2, 1);
        assert_eq!(skinny.hosts_per_edge(), 1);
        assert_eq!(pair_at_hops(&skinny, 1), None);
        // k = 2, 3 tiers: one edge per pod, so no 3-hop pair.
        let tiny = FatTreeParams::new(2, 3, 1);
        assert_eq!(pair_at_hops(&tiny, 3), None);
        assert_eq!(pair_at_hops(&tiny, 5), Some((0, 1)));
    }

    #[test]
    fn incast_spreads_remote_edges_first() {
        let ft = FatTreeParams::new(4, 3, 1); // 8 edges, 2 hosts each
        let sources = incast_sources(&ft, 0, 8);
        // One host per edge, starting from edge 1, before any edge
        // repeats (the destination itself is skipped when its edge comes
        // up); the eighth source starts the second round on edge 1.
        assert_eq!(sources, vec![2, 4, 6, 8, 10, 12, 14, 3]);
        // Exhaustive draw covers every other host exactly once.
        let mut all = incast_sources(&ft, 0, 15);
        all.sort_unstable();
        assert_eq!(all, (1..16).collect::<Vec<_>>());
    }

    #[test]
    fn placement_is_deterministic() {
        let ft = FatTreeParams::new(8, 2, 2);
        assert_eq!(incast_sources(&ft, 5, 12), incast_sources(&ft, 5, 12));
    }

    #[test]
    #[should_panic(expected = "sources requested")]
    fn oversubscribed_incast_panics() {
        let ft = FatTreeParams::new(2, 2, 1);
        let _ = incast_sources(&ft, 0, 2);
    }
}
