//! Regenerates any paper figure from one binary.
//!
//! Usage: `figure --fig <4..13|clos|all> [--quick] [--jobs N] [--seeds N]
//!         [--scale F] [--json]`
//!
//! Replaces the former per-figure binaries (`fig4` … `fig13`); the
//! Makefile keeps `make figN` aliases. `--json` emits the deterministic
//! JSON form used by the golden-equivalence tests instead of Markdown.

#![forbid(unsafe_code)]

use rperf_bench::figures::{self, FigureSpec, Sweep};
use rperf_bench::Effort;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    rperf_bench::reject_unknown_flags(&args, &["--fig", "--seeds", "--scale", "--json"]);
    let mut effort = Effort::from_args(&args);
    let mut fig: Option<String> = None;
    let mut json = false;
    let mut i = 0;
    while i < args.len() {
        match args[i].as_str() {
            "--fig" => {
                fig = args.get(i + 1).cloned();
                i += 2;
            }
            "--seeds" => {
                let n: u64 = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&n| n >= 1)
                    .unwrap_or_else(|| {
                        eprintln!("--seeds needs a positive integer");
                        std::process::exit(2);
                    });
                effort.seeds = (1..=n).collect();
                i += 2;
            }
            "--scale" => {
                effort.scale = args
                    .get(i + 1)
                    .and_then(|v| v.parse().ok())
                    .filter(|&s: &f64| s > 0.0)
                    .unwrap_or_else(|| {
                        eprintln!("--scale needs a positive number");
                        std::process::exit(2);
                    });
                i += 2;
            }
            "--json" => {
                json = true;
                i += 1;
            }
            _ => i += 1, // --quick / --jobs already consumed by from_args
        }
    }

    let Some(fig) = fig else {
        eprintln!(
            "usage: figure --fig <4..13|clos|all> [--quick] [--jobs N] [--seeds N] [--scale F] [--json]"
        );
        std::process::exit(2);
    };
    // Each sweep runs once, printing the figures the id selects (`all`:
    // every figure `figure` addresses, in table order).
    let sweeps = Sweep::all();
    let wanted = |f: &FigureSpec| f.cli_id.is_some_and(|id| fig == "all" || id == fig);
    if !sweeps.iter().any(|s| s.figures.iter().any(wanted)) {
        eprintln!("unknown figure id `{fig}` (expected 4..13, clos, or all)");
        std::process::exit(2);
    }
    for sweep in sweeps.iter().filter(|s| s.figures.iter().any(wanted)) {
        for (spec, f) in sweep.figures.iter().zip(sweep.run(&effort)) {
            if !wanted(spec) {
                continue;
            }
            if json {
                println!("{}", f.to_json());
            } else {
                println!("{}", f.to_markdown());
            }
            if spec.cli_id == Some("12") && !json {
                for (i, name) in figures::FIG12_SETUPS.iter().enumerate() {
                    println!("  setup {i} = {name}");
                }
            }
        }
    }
}
