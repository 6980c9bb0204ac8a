//! Fixture corpus for the rule catalog: one good + one bad file per
//! rule under `tests/fixtures/`, with golden diagnostic output, plus
//! the self-check that the workspace itself is lint-clean.
//!
//! Regenerate the `.expected` goldens after an intentional diagnostic
//! change with `LINT_BLESS=1 cargo test -p rperf-lint --test fixtures`.

#![forbid(unsafe_code)]

use std::fs;
use std::path::{Path, PathBuf};

use rperf_lint::{lint_source, lint_workspace, Config};

const RULE_IDS: [&str; 12] = [
    "D1", "D2", "D3", "D4", "D6", "D7", "D8", "D9", "I1", "I2", "I3", "I4",
];

fn fixture_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures")
}

/// A config enabling exactly one rule, scoped to the fixture crate key.
/// The interprocedural rules get fixture-local entry points: each
/// `iN_*.rs` file is a self-contained mini-workspace whose entry fn
/// mirrors the real one (`fig_latency`, `WorldState::handle_one`, …).
fn rule_config(id: &str) -> Config {
    let extra = match id {
        "I1" => "entries = [\"fig_latency\"]\n",
        "I2" => "entries = [\"WorldState::handle_one\"]\n",
        "I3" => "entries = [\"run_window\"]\n",
        "I4" => "api_crate = \"fixtures\"\n",
        _ => "",
    };
    let toml = format!("[[rule]]\nid = \"{id}\"\ncrates = [\"fixtures\"]\n{extra}");
    Config::parse(&toml).expect("fixture rule config parses")
}

/// Lints one fixture file under its rule, returning rendered diagnostics.
fn lint_fixture(name: &str, id: &str) -> String {
    let path = fixture_dir().join(name);
    let src = fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
    let label = format!("crates/lint/tests/fixtures/{name}");
    // The D6 fixtures model crate roots (the forbid-attribute check only
    // applies there); every other fixture is an ordinary module file.
    let is_crate_root = name.starts_with("d6");
    lint_source(&label, "fixtures", is_crate_root, &src, &rule_config(id))
        .iter()
        .map(rperf_lint::Diagnostic::render)
        .collect()
}

#[test]
fn bad_fixtures_match_golden_diagnostics() {
    let bless = std::env::var("LINT_BLESS").is_ok();
    for id in RULE_IDS {
        let stem = id.to_lowercase();
        let got = lint_fixture(&format!("{stem}_bad.rs"), id);
        assert!(!got.is_empty(), "{stem}_bad.rs must trigger {id}");
        assert!(
            got.contains(&format!("[{id}]")),
            "{stem}_bad.rs diagnostics must carry the {id} tag:\n{got}"
        );
        let golden = fixture_dir().join(format!("{stem}_bad.expected"));
        if bless {
            fs::write(&golden, &got).expect("write golden");
            continue;
        }
        let want = fs::read_to_string(&golden)
            .unwrap_or_else(|e| panic!("read {stem}_bad.expected (bless with LINT_BLESS=1): {e}"));
        assert_eq!(
            got, want,
            "{stem}_bad.rs diagnostics drifted from the golden; if intentional, \
             re-bless with LINT_BLESS=1"
        );
    }
}

#[test]
fn good_fixtures_are_clean() {
    for id in RULE_IDS {
        let stem = id.to_lowercase();
        let got = lint_fixture(&format!("{stem}_good.rs"), id);
        assert!(
            got.is_empty(),
            "{stem}_good.rs must pass {id} but produced:\n{got}"
        );
    }
}

/// The workspace itself must be clean under the checked-in `lint.toml`,
/// with no stale allowlist entries — the same gate `make lint-invariants`
/// enforces, run as an ordinary test so `cargo test` catches regressions.
#[test]
fn workspace_is_lint_clean() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = fs::read_to_string(root.join("lint.toml")).expect("read lint.toml");
    let cfg = Config::parse(&text).expect("lint.toml parses");
    let report = lint_workspace(&root, &cfg, 1).expect("walk workspace");
    let rendered: String = report.diagnostics.iter().map(|d| d.render()).collect();
    assert!(
        report.diagnostics.is_empty(),
        "workspace has invariant-lint violations:\n{rendered}"
    );
    assert!(
        report.unused_allows.is_empty(),
        "stale [[allow]] entries in lint.toml:\n{}",
        report.unused_allows.join("\n")
    );
    assert!(
        report.unmatched_entries.is_empty(),
        "entry patterns in lint.toml that match no function:\n{}",
        report.unmatched_entries.join("\n")
    );
}

/// The parallel scan must be byte-identical at any thread count — the
/// same guarantee the sweep runner makes for `--jobs N`.
#[test]
fn workspace_report_is_jobs_invariant() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let text = fs::read_to_string(root.join("lint.toml")).expect("read lint.toml");
    let cfg = Config::parse(&text).expect("lint.toml parses");
    let json1 = rperf_lint::report_json(&lint_workspace(&root, &cfg, 1).expect("jobs=1"));
    let json4 = rperf_lint::report_json(&lint_workspace(&root, &cfg, 4).expect("jobs=4"));
    let json0 = rperf_lint::report_json(&lint_workspace(&root, &cfg, 0).expect("jobs=auto"));
    assert_eq!(json1, json4, "jobs=1 vs jobs=4 reports differ");
    assert_eq!(json1, json0, "jobs=1 vs jobs=auto reports differ");
}

/// Stale `[[allow]]` entries are a hard failure, not a warning: an
/// entry that matches nothing must surface in `unused_allows` (the
/// binary exits non-zero on any).
#[test]
fn stale_allow_entries_are_reported() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR")).join("../..");
    let toml = "[[rule]]\nid = \"D1\"\ncrates = [\"lint\"]\n\n\
                [[allow]]\nrule = \"D1\"\npath = \"crates/lint/src/never_exists.rs\"\n\
                justification = \"deliberately stale fixture entry\"\n";
    let cfg = Config::parse(toml).expect("stale-allow config parses");
    let report = lint_workspace(&root, &cfg, 1).expect("walk workspace");
    assert_eq!(
        report.unused_allows.len(),
        1,
        "the never-matching allow must be reported stale: {:?}",
        report.unused_allows
    );
    assert!(
        report.unused_allows[0].contains("never_exists.rs"),
        "{:?}",
        report.unused_allows
    );
}
