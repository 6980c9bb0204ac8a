//! The `rperf-lint` binary: lints the workspace against `lint.toml`.
//!
//! ```text
//! rperf-lint [--root DIR] [--config FILE] [--jobs N]
//!            [--format human|json] [--explain RULE] [--ci]
//! ```
//!
//! * `--jobs N` — worker threads for the per-file scan (0 = all cores;
//!   output is byte-identical for any N).
//! * `--format json` — machine-readable diagnostics on stdout.
//! * `--explain RULE` — print what a rule proves and how to fix or
//!   exempt a finding, then exit.
//! * `--ci` — additionally write `LINT_report.json` under `--root` (the
//!   CI artifact the problem matcher and the report step consume).
//!
//! Exit codes: 0 clean, 1 violations found *or stale `[[allow]]`
//! entries* (the allowlist must not rot) *or rule `entries` patterns
//! that match no function*, 2 usage/config/I-O error.

#![forbid(unsafe_code)]

use std::path::PathBuf;
use std::process::ExitCode;

use rperf_lint::{lint_workspace, report_json, rules, Config};

const USAGE: &str = "usage: rperf-lint [--root DIR] [--config FILE] [--jobs N] \
                     [--format human|json] [--explain RULE] [--ci]";

fn main() -> ExitCode {
    let mut root = PathBuf::from(".");
    let mut config_path: Option<PathBuf> = None;
    let mut jobs = 0usize;
    let mut json = false;
    let mut ci = false;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--root" => match args.next() {
                Some(v) => root = PathBuf::from(v),
                None => return usage("--root needs a directory"),
            },
            "--config" => match args.next() {
                Some(v) => config_path = Some(PathBuf::from(v)),
                None => return usage("--config needs a file"),
            },
            "--jobs" => match args.next().and_then(|v| v.parse().ok()) {
                Some(n) => jobs = n,
                None => return usage("--jobs needs a number"),
            },
            "--format" => match args.next().as_deref() {
                Some("human") => json = false,
                Some("json") => json = true,
                _ => return usage("--format needs `human` or `json`"),
            },
            "--explain" => {
                return match args.next().as_deref().and_then(rules::explain) {
                    Some(text) => {
                        println!("{text}");
                        ExitCode::SUCCESS
                    }
                    None => usage(&format!(
                        "--explain needs a rule id (known: {:?})",
                        rules::KNOWN_IDS
                    )),
                };
            }
            "--ci" => ci = true,
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => return usage(&format!("unknown argument `{other}`")),
        }
    }
    let config_path = config_path.unwrap_or_else(|| root.join("lint.toml"));

    let text = match std::fs::read_to_string(&config_path) {
        Ok(t) => t,
        Err(e) => {
            eprintln!("rperf-lint: cannot read {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };
    let cfg = match Config::parse(&text) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("rperf-lint: {}: {e}", config_path.display());
            return ExitCode::from(2);
        }
    };

    let report = match lint_workspace(&root, &cfg, jobs) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("rperf-lint: {e}");
            return ExitCode::from(2);
        }
    };
    if ci {
        let artifact = root.join("LINT_report.json");
        if let Err(e) = std::fs::write(&artifact, report_json(&report) + "\n") {
            eprintln!("rperf-lint: cannot write {}: {e}", artifact.display());
            return ExitCode::from(2);
        }
    }
    if json {
        println!("{}", report_json(&report));
        return if report.is_clean() {
            ExitCode::SUCCESS
        } else {
            ExitCode::from(1)
        };
    }
    for d in &report.diagnostics {
        print!("{}", d.render());
    }
    for w in report.unused_allows.iter().chain(&report.unmatched_entries) {
        eprintln!("rperf-lint: error: {w}");
    }
    if report.is_clean() {
        println!(
            "lint-invariants: clean ({} files, {} rules, {} allow entries)",
            report.files_checked,
            cfg.rules.len(),
            cfg.allows.len()
        );
        ExitCode::SUCCESS
    } else {
        // Diagnostics are sorted by path, so dedup yields distinct files.
        let mut files: Vec<&str> = report.diagnostics.iter().map(|d| d.path.as_str()).collect();
        files.dedup();
        println!(
            "lint-invariants: {} violation(s) in {} of {} files, {} stale allow(s), \
             {} unmatched entry pattern(s)",
            report.diagnostics.len(),
            files.len(),
            report.files_checked,
            report.unused_allows.len(),
            report.unmatched_entries.len()
        );
        ExitCode::from(1)
    }
}

fn usage(msg: &str) -> ExitCode {
    eprintln!("rperf-lint: {msg}\n{USAGE}");
    ExitCode::from(2)
}
