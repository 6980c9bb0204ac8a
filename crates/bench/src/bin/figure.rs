//! Regenerates any paper figure from one binary.
//!
//! Usage: `figure --fig <4..13|clos|all> [--quick] [--jobs N] [--seeds N]
//!         [--scale F] [--json]`
//!
//! Replaces the former per-figure binaries (`fig4` … `fig13`); the
//! Makefile keeps `make figN` aliases. `--json` emits the deterministic
//! JSON form used by the golden-equivalence tests instead of Markdown.

#![forbid(unsafe_code)]

use rperf_bench::{figures, Effort};

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
    let ids: Vec<&str> = if fig == "all" {
        figures::FIGURE_IDS.to_vec()
    } else {
        vec![fig.as_str()]
    };

    for id in ids {
        let Some(figs) = figures::by_id(id, &effort) else {
            eprintln!("unknown figure id `{id}` (expected 4..13, clos, or all)");
            std::process::exit(2);
        };
        for f in figs {
            if json {
                println!("{}", f.to_json());
            } else {
                println!("{}", f.to_markdown());
            }
        }
        if id == "12" && !json {
            for (i, name) in figures::FIG12_SETUPS.iter().enumerate() {
                println!("  setup {i} = {name}");
            }
        }
    }
}
