//! Regression test for the parallel sweep runner: fanning `(point, seed)`
//! simulations across worker threads must not change a single output bit.
//!
//! Runs the converged-traffic sweep of Fig. 7 — the heaviest multi-app
//! scenario in the suite — serially and with four workers, and compares
//! the serialized figures byte for byte.

use rperf_bench::{figures, Effort};
use rperf_stats::Figure;

fn tiny(jobs: usize) -> Effort {
    Effort {
        seeds: vec![1, 2],
        scale: 0.05,
        jobs,
    }
}

fn fig7(jobs: usize) -> [Figure; 2] {
    let figs = figures::by_id("7", &tiny(jobs)).expect("fig 7 is in the table");
    figs.try_into().expect("fig 7 prints 7a and 7b")
}

#[test]
fn converged_sweep_is_byte_identical_across_worker_counts() {
    let [serial_a, serial_b] = fig7(1);
    let [par_a, par_b] = fig7(4);
    assert_eq!(
        serial_a.to_json(),
        par_a.to_json(),
        "fig7a diverged between --jobs 1 and --jobs 4"
    );
    assert_eq!(
        serial_b.to_json(),
        par_b.to_json(),
        "fig7b diverged between --jobs 1 and --jobs 4"
    );
    // Sanity: the comparison is over real content, not two empty figures.
    assert!(serial_a.to_json().contains("\"fig7a\""));
    assert!(!serial_a.series.is_empty() && !serial_a.series[0].x.is_empty());
}

/// The pre-refactor JSON of every paper figure, dumped by the `figure`
/// binary at `--seeds 2 --scale 0.05 --jobs 1 --json` before the figures
/// moved onto the declarative scenario-spec path. The spec-driven
/// executor must reproduce each byte, serially and in parallel.
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

/// Every figure `figure` prints has a golden: a table entry added
/// without one fails here.
#[test]
fn every_figure_id_has_a_golden() {
    let sweeps = figures::Sweep::all();
    let figs = sweeps.iter().flat_map(|s| &s.figures);
    let mut ids: Vec<&str> = figs.filter_map(|f| f.cli_id).collect();
    ids.dedup();
    assert_eq!(ids, GOLDEN.map(|(id, _)| id));
}

fn rendered(id: &str, jobs: usize) -> String {
    figures::by_id(id, &tiny(jobs))
        .unwrap_or_else(|| panic!("unknown figure id {id}"))
        .iter()
        .map(|f| f.to_json() + "\n")
        .collect()
}

#[test]
fn every_figure_matches_its_pre_refactor_golden_serially() {
    for (id, golden) in GOLDEN {
        assert_eq!(
            rendered(id, 1),
            golden,
            "fig{id} diverged from the pre-refactor output at --jobs 1"
        );
    }
}

#[test]
fn every_figure_matches_its_pre_refactor_golden_in_parallel() {
    for (id, golden) in GOLDEN {
        assert_eq!(
            rendered(id, 4),
            golden,
            "fig{id} diverged from the pre-refactor output at --jobs 4"
        );
    }
}

#[test]
fn one_to_one_sweep_is_byte_identical_across_worker_counts() {
    let effort = Effort {
        seeds: vec![1],
        scale: 0.03,
        jobs: 1,
    };
    let fig5 = |effort: &Effort| figures::by_id("5", effort).expect("fig 5")[0].to_json();
    let serial = fig5(&effort);
    let parallel = fig5(&effort.clone().with_jobs(3));
    assert_eq!(
        serial, parallel,
        "fig5 diverged between --jobs 1 and --jobs 3"
    );
}
