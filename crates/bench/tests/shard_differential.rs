//! Differential test for sharded execution: running every paper figure
//! on a partitioned fabric (`--shards N`) must reproduce the one-shard
//! run bit for bit.
//!
//! The golden JSON files under `tests/golden/` are the shards = 1
//! reference (already enforced by `determinism.rs`); here each figure is
//! re-rendered at shards = 2 and shards = 4 and compared byte for byte
//! against those same goldens. This covers every topology, device
//! profile, scheduling policy, and QoS mode the figures exercise —
//! including the jitter RNG draws of the hardware profile, whose order
//! the chronology-major mailbox key must preserve exactly.
//!
//! The two-shard test runs in plain `cargo test` (about 16 s in the
//! test profile on a 2-vCPU host). The four-shard test oversubscribes
//! such a host — the sparse figure sweeps pay a barrier per nanosecond
//! window, and with more shards than cores every barrier becomes a
//! context switch — so it takes about two minutes and is `#[ignore]`d,
//! run in the release profile by `make shard-smoke` (a `make ci` step).

use rperf_bench::{figures, Effort};

const GOLDEN: [(&str, &str); 11] = [
    ("4", include_str!("golden/fig4.json")),
    ("5", include_str!("golden/fig5.json")),
    ("6", include_str!("golden/fig6.json")),
    ("7", include_str!("golden/fig7.json")),
    ("8", include_str!("golden/fig8.json")),
    ("9", include_str!("golden/fig9.json")),
    ("10", include_str!("golden/fig10.json")),
    ("11", include_str!("golden/fig11.json")),
    ("12", include_str!("golden/fig12.json")),
    ("13", include_str!("golden/fig13.json")),
    ("clos", include_str!("golden/fig_clos.json")),
];

fn tiny(shards: usize) -> Effort {
    Effort {
        seeds: vec![1, 2],
        scale: 0.05,
        jobs: 1,
        shards,
    }
}

fn rendered(id: &str, shards: usize) -> String {
    figures::by_id(id, &tiny(shards))
        .unwrap_or_else(|| panic!("unknown figure id {id}"))
        .iter()
        .map(|f| f.to_json() + "\n")
        .collect()
}

#[test]
fn every_figure_is_byte_identical_at_two_shards() {
    for (id, golden) in GOLDEN {
        assert_eq!(
            rendered(id, 2),
            golden,
            "fig{id} diverged between --shards 1 and --shards 2"
        );
    }
}

#[test]
#[ignore = "release-profile gate, run by `make shard-smoke`; see module docs"]
fn every_figure_is_byte_identical_at_four_shards() {
    for (id, golden) in GOLDEN {
        assert_eq!(
            rendered(id, 4),
            golden,
            "fig{id} diverged between --shards 1 and --shards 4"
        );
    }
}
