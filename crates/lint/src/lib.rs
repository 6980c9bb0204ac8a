//! `rperf-lint` — the workspace invariant linter.
//!
//! Every figure in this reproduction is pinned byte-for-byte by golden
//! tests, and the sweep runner promises identical JSON for any `--jobs
//! N`. Those guarantees rest on invariants nothing used to check
//! *statically*: no unordered-map iteration, no wall-clock reads, no
//! ambient RNG, quantities kept in integer newtypes, no panics in the
//! hot loop, no `unsafe`, documented event-API ordering contracts, no
//! environment-dependent results. This crate tokenizes every `.rs` file
//! under `crates/*/src` and `src/` with a small hand-written lexer
//! ([`lexer`]) — the offline build cannot resolve `syn` — and runs the
//! rule catalog ([`rules`]) over the token streams, configured by the
//! checked-in `lint.toml` ([`config`]).
//!
//! On top of the token rules, an item-tree parser ([`parse`]) and a
//! workspace-wide conservative call graph ([`graph`]) drive four
//! interprocedural rules ([`inter`]): taint-, panic-, and
//! global-state-reachability plus ordering-contract propagation — the
//! violations that launder themselves through helper crates and that
//! single-file pattern matching cannot see.
//!
//! The binary (`cargo run -p rperf-lint`, or `make lint-invariants`)
//! exits non-zero on any violation, printing `file:line:col`, the
//! offending line, the rule id and a fix hint; `--format json`,
//! `--explain <rule>`, `--jobs N` and `--ci` are documented in
//! `main.rs`.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod config;
pub mod graph;
pub mod inter;
pub mod lexer;
pub mod parse;
pub mod rules;

use std::fs;
use std::io;
use std::path::{Path, PathBuf};
use std::thread;

pub use config::Config;
pub use rules::{Diagnostic, SourceFile};

/// The outcome of linting a whole workspace.
#[derive(Debug, Default)]
pub struct LintReport {
    /// Surviving (post-allowlist) diagnostics, sorted by file/position.
    pub diagnostics: Vec<Diagnostic>,
    /// How many files were scanned.
    pub files_checked: usize,
    /// Human-readable notes for `[[allow]]` entries that matched nothing
    /// — stale entries should be deleted, not accumulated.
    pub unused_allows: Vec<String>,
    /// Human-readable notes for rule `entries` patterns that name no
    /// function: the rule would silently check nothing from them.
    pub unmatched_entries: Vec<String>,
}

impl LintReport {
    /// True when there is nothing to report: no diagnostics, no stale
    /// allow entries and no unmatched entry patterns.
    pub fn is_clean(&self) -> bool {
        self.diagnostics.is_empty()
            && self.unused_allows.is_empty()
            && self.unmatched_entries.is_empty()
    }
}

/// One file the walker found.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WorkspaceFile {
    /// Absolute path on disk.
    pub abs: PathBuf,
    /// Repo-relative path with forward slashes (diagnostic label).
    pub rel: String,
    /// Crate key: directory name under `crates/`, or `root`.
    pub crate_key: String,
    /// True for `src/lib.rs`, `src/main.rs`, `src/bin/*.rs`.
    pub is_crate_root: bool,
}

/// Enumerates every linted `.rs` file under `root`: `crates/*/src/**`
/// plus the top-level package's `src/**`. Integration tests, benches and
/// fixtures live outside `src/` and are deliberately not scanned. The
/// listing is sorted so diagnostics are stable across platforms.
///
/// # Errors
///
/// Propagates I/O errors from directory traversal.
pub fn workspace_files(root: &Path) -> io::Result<Vec<WorkspaceFile>> {
    let mut out = Vec::new();
    let crates_dir = root.join("crates");
    if crates_dir.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = fs::read_dir(&crates_dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let key = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            collect_rs(&dir.join("src"), &mut out, &key)?;
        }
    }
    collect_rs(&root.join("src"), &mut out, "root")?;
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    // Rebuild the repo-relative labels against `root`.
    for f in &mut out {
        if let Ok(rel) = f.abs.strip_prefix(root) {
            f.rel = path_label(rel);
        }
    }
    out.sort_by(|a, b| a.rel.cmp(&b.rel));
    Ok(out)
}

fn path_label(p: &Path) -> String {
    p.components()
        .map(|c| c.as_os_str().to_string_lossy().into_owned())
        .collect::<Vec<_>>()
        .join("/")
}

fn collect_rs(src_dir: &Path, out: &mut Vec<WorkspaceFile>, key: &str) -> io::Result<()> {
    if !src_dir.is_dir() {
        return Ok(());
    }
    let mut stack = vec![src_dir.to_path_buf()];
    while let Some(dir) = stack.pop() {
        let mut entries: Vec<PathBuf> = fs::read_dir(&dir)?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .collect();
        entries.sort();
        for p in entries {
            if p.is_dir() {
                stack.push(p);
            } else if p.extension().is_some_and(|e| e == "rs") {
                let name = p.file_name().and_then(|n| n.to_str()).unwrap_or_default();
                let parent = p
                    .parent()
                    .and_then(|d| d.file_name())
                    .and_then(|n| n.to_str())
                    .unwrap_or_default();
                let is_crate_root =
                    (parent == "src" && (name == "lib.rs" || name == "main.rs")) || parent == "bin";
                out.push(WorkspaceFile {
                    rel: path_label(&p),
                    abs: p,
                    crate_key: key.to_string(),
                    is_crate_root,
                });
            }
        }
    }
    Ok(())
}

/// Lints one source text under a path label — the path-independent entry
/// point the fixture tests use. Interprocedural rules see this file as
/// the whole workspace, so single-file fixtures exercise I1–I4 too.
pub fn lint_source(
    path: &str,
    crate_key: &str,
    is_crate_root: bool,
    src: &str,
    cfg: &Config,
) -> Vec<Diagnostic> {
    let file = SourceFile::analyze(path, crate_key, is_crate_root, src);
    lint_files(std::slice::from_ref(&file), cfg)
}

/// Runs the token rules per file plus the interprocedural rules over
/// the whole set, returning unfiltered (pre-allowlist) diagnostics
/// sorted by `(file, line, col, rule)`.
pub fn lint_files(files: &[SourceFile], cfg: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for file in files {
        out.extend(rules::run_rules(file, cfg));
    }
    out.extend(inter::run_inter(files, cfg).diagnostics);
    out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    out
}

/// Drops diagnostics matched by an `[[allow]]` entry, recording which
/// entries were used in `used` (same order as `cfg.allows`).
pub fn apply_allows(diags: Vec<Diagnostic>, cfg: &Config, used: &mut [bool]) -> Vec<Diagnostic> {
    diags
        .into_iter()
        .filter(|d| {
            for (k, a) in cfg.allows.iter().enumerate() {
                let hit = a.rule == d.rule
                    && d.path.ends_with(a.path.as_str())
                    && a.contains
                        .as_deref()
                        .is_none_or(|c| d.line_text.contains(c));
                if hit {
                    if let Some(slot) = used.get_mut(k) {
                        *slot = true;
                    }
                    return false;
                }
            }
            true
        })
        .collect()
}

/// Lints the whole workspace rooted at `root` with `cfg`, spreading the
/// per-file tokenize/parse/rule work over `jobs` scoped threads
/// (`0` = available parallelism). Output is byte-identical for any
/// `jobs`: workers own disjoint index ranges of the sorted file list,
/// per-file results are merged in file order, and the interprocedural
/// pass runs once over the ordered [`SourceFile`] set.
///
/// # Errors
///
/// Propagates I/O errors from traversal or file reads.
pub fn lint_workspace(root: &Path, cfg: &Config, jobs: usize) -> io::Result<LintReport> {
    let files = workspace_files(root)?;
    let sources: Vec<String> = files
        .iter()
        .map(|f| fs::read_to_string(&f.abs))
        .collect::<io::Result<_>>()?;
    let jobs = match jobs {
        0 => thread::available_parallelism().map_or(1, |n| n.get()),
        n => n,
    }
    .min(files.len().max(1));
    // Each worker analyzes a contiguous chunk; chunks concatenate back
    // in file order, so the result is independent of scheduling.
    let chunk = files.len().div_ceil(jobs.max(1)).max(1);
    let mut analyzed: Vec<(SourceFile, Vec<Diagnostic>)> = Vec::with_capacity(files.len());
    thread::scope(|s| {
        let handles: Vec<_> = files
            .chunks(chunk)
            .zip(sources.chunks(chunk))
            .map(|(fs_chunk, src_chunk)| {
                s.spawn(move || {
                    fs_chunk
                        .iter()
                        .zip(src_chunk)
                        .map(|(f, src)| {
                            let sf =
                                SourceFile::analyze(&f.rel, &f.crate_key, f.is_crate_root, src);
                            let diags = rules::run_rules(&sf, cfg);
                            (sf, diags)
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for h in handles {
            // A worker can only panic if a rule does; propagate.
            match h.join() {
                Ok(part) => analyzed.extend(part),
                Err(p) => std::panic::resume_unwind(p),
            }
        }
    });
    let mut used = vec![false; cfg.allows.len()];
    let files_checked = analyzed.len();
    let mut raw = Vec::new();
    let mut source_files = Vec::with_capacity(files_checked);
    for (sf, diags) in analyzed {
        raw.extend(diags);
        source_files.push(sf);
    }
    let inter = inter::run_inter(&source_files, cfg);
    raw.extend(inter.diagnostics);
    let mut diagnostics = apply_allows(raw, cfg, &mut used);
    diagnostics.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    let unused_allows = cfg
        .allows
        .iter()
        .zip(&used)
        .filter(|(_, u)| !**u)
        .map(|(a, _)| {
            format!(
                "lint.toml:{}: [[allow]] for {} at `{}` matched nothing — delete it",
                a.line, a.rule, a.path
            )
        })
        .collect();
    Ok(LintReport {
        diagnostics,
        files_checked,
        unused_allows,
        unmatched_entries: inter.unmatched_entries,
    })
}

/// Renders a [`LintReport`] as deterministic JSON (the `--format json`
/// output and the `LINT_report.json` CI artifact): an object with
/// `files_checked`, a `diagnostics` array of
/// `{path, line, col, rule, msg, line_text, hint}`, the `stale_allows`
/// strings and the `unmatched_entries` strings.
pub fn report_json(report: &LintReport) -> String {
    use rperf_stats::json;
    json::object([
        ("files_checked", json::uint(report.files_checked as u64)),
        (
            "diagnostics",
            json::array(report.diagnostics.iter().map(|d| {
                json::object([
                    ("path", json::string(&d.path)),
                    ("line", json::uint(u64::from(d.line))),
                    ("col", json::uint(u64::from(d.col))),
                    ("rule", json::string(d.rule)),
                    ("msg", json::string(&d.msg)),
                    ("line_text", json::string(&d.line_text)),
                    ("hint", json::string(&d.hint)),
                ])
            })),
        ),
        (
            "stale_allows",
            json::array(report.unused_allows.iter().map(|s| json::string(s))),
        ),
        (
            "unmatched_entries",
            json::array(report.unmatched_entries.iter().map(|s| json::string(s))),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;
    use config::{AllowEntry, Config};

    #[test]
    fn allows_filter_and_track_usage() {
        let cfg = Config {
            rules: vec![crate::config::RuleCfg {
                id: "D1".into(),
                crates: vec!["fixture".into()],
                files: Vec::new(),
                hint: None,
                entries: Vec::new(),
                api_crate: None,
            }],
            allows: vec![
                AllowEntry {
                    rule: "D1".into(),
                    path: "x.rs".into(),
                    contains: Some("boom".into()),
                    justification: "test".into(),
                    line: 1,
                },
                AllowEntry {
                    rule: "D1".into(),
                    path: "never.rs".into(),
                    contains: None,
                    justification: "test".into(),
                    line: 2,
                },
            ],
            off_features: Vec::new(),
        };
        let diags = lint_source(
            "fixture/src/x.rs",
            "fixture",
            false,
            "fn f() {\n    let boom: HashMap<u8, u8> = g();\n    let other: HashMap<u8, u8> = g();\n}",
            &cfg,
        );
        assert_eq!(diags.len(), 2);
        let mut used = vec![false; cfg.allows.len()];
        let kept = apply_allows(diags, &cfg, &mut used);
        assert_eq!(kept.len(), 1, "only the pinned call site is silenced");
        assert!(kept[0].line_text.contains("other"));
        assert_eq!(used, vec![true, false]);
    }
}
