//! The invariant rule catalog and its token-stream engine.
//!
//! Each rule scans one tokenized file ([`SourceFile`]) and emits
//! [`Diagnostic`]s. Rules are deliberately syntactic: they match short
//! token sequences, never resolve names, and err on the side of firing —
//! a justified `[[allow]]` entry in `lint.toml` is the escape hatch, so
//! every exception is visible and explained in one checked-in file.
//!
//! The catalog (see DESIGN.md §5 for the rationale of each):
//!
//! | id | invariant |
//! |----|-----------|
//! | D1 | no `HashMap`/`HashSet` (unordered iteration) in deterministic crates |
//! | D2 | no `Instant`/`SystemTime`/`std::time` wall-clock reads |
//! | D3 | no ambient RNG (`thread_rng`, `rand::`) — only `rperf_sim::rng` forks |
//! | D4 | no `f64`/`f32` or raw `.0` arithmetic on quantity newtypes |
//! | D6 | no `unsafe`, and every crate root carries `#![forbid(unsafe_code)]` |
//! | D7 | every `pub fn` in the event-API crate documents its contract |
//! | D8 | no environment reads (`env::var`) in result-producing paths |
//! | D9 | blocking sockets in the serving layer carry finite timeouts |
//! | D10 | cross-shard state travels only through the sim mailbox (no ad-hoc shared-mutable sync in shard-executed crates) |
//!
//! The interprocedural catalog (I1–I4) lives in [`crate::inter`] and
//! runs over the whole-workspace call graph instead of single token
//! streams; this module only registers the ids, hints, and `--explain`
//! text.

use crate::config::{Config, RuleCfg};
use crate::lexer::{lex, TokKind, Token};
use crate::parse::{self, ItemTree};

/// Every rule id the engine implements.
pub const KNOWN_IDS: &[&str] = &[
    "D1", "D2", "D3", "D4", "D6", "D7", "D8", "D9", "D10", "I1", "I2", "I3", "I4",
];

/// The built-in fix hint for `id`.
pub fn default_hint(id: &str) -> &'static str {
    match id {
        "D1" => "iteration order of std hash maps is nondeterministic; use BTreeMap/BTreeSet or a sorted Vec",
        "D2" => "wall-clock reads break bit-identical replay; simulated time comes from rperf_sim::SimTime",
        "D3" => "ambient RNG ignores the experiment seed; fork a stream from rperf_sim::rng::SimRng",
        "D4" => "float rounding is platform/optimization sensitive; keep quantities in rperf_model::units newtypes and integer picoseconds/bytes (floats belong in rperf-stats)",
        "D6" => "the workspace is 100% safe Rust; add #![forbid(unsafe_code)] to the crate root and rewrite the unsafe block",
        "D7" => "event-API callers rely on documented (time, seq) FIFO ordering; add a doc comment stating the ordering contract",
        "D8" => "environment variables make results depend on the shell; thread configuration through explicit arguments",
        "D9" => "a blocking socket read with no timeout lets one stalled peer wedge the thread forever; call set_read_timeout(Some(..))/set_write_timeout(Some(..)) right after accept/connect",
        "D10" => "shard worker domains may exchange state only through rperf_sim::shard::Mailbox envelopes, which the window scheduler merges in (time, seq) order; ad-hoc shared-mutable sync is a side channel the deterministic merge never sees",
        "I1" => "the call chain in the message shows how a result path reaches ambient input; thread the value through explicit arguments, or break the edge (the diagnostic points at the source, not the entry)",
        "I2" => "a panic anywhere in the reachable set aborts the whole sweep; return a typed error along the chain, or demote the check to debug_assert! (pruned from release reachability)",
        "I3" => "shard workers must not touch process-global state; move it into the shard's Domain, or — for monotonic telemetry counters only — add an [[allow]] naming the atomic with a justification",
        "I4" => "callers inherit the (time, seq) ordering obligation of the API they call; copy the contract sentence into this fn's doc comment so the obligation stays visible at every layer",
        _ => "see DESIGN.md §5",
    }
}

/// The long-form `--explain <rule>` text: what the rule proves, how it
/// computes it, and how to fix or exempt a finding.
pub fn explain(id: &str) -> Option<&'static str> {
    let text = match id {
        "D1" => "D1 — no unordered containers.\n\nstd's HashMap/HashSet iterate in randomized order (SipHash with a\nper-process seed), so any result that folds over one is run-dependent.\nThe rule flags every HashMap/HashSet ident in scoped crates; use\nBTreeMap/BTreeSet or a sorted Vec.",
        "D2" => "D2 — no wall-clock reads.\n\nInstant/SystemTime/std::time make output depend on host speed and\ntime-of-day. Simulated time comes from rperf_sim::SimTime only. The\ntoken rule flags the type names; rule I1 additionally proves no figure\npath can *reach* a clock read through helpers.",
        "D3" => "D3 — no ambient RNG.\n\nthread_rng()/rand:: ignore the experiment seed, so reruns diverge.\nRandomness must be forked from rperf_sim::rng::SimRng, which is seeded\nby the scenario. I1 extends this check across call boundaries.",
        "D4" => "D4 — integer quantities.\n\nFloat rounding is platform- and optimization-sensitive; time and bytes\nstay in integer-picosecond/byte newtypes (rperf_model::units). Floats\nbelong in rperf-stats, after the deterministic part is done.",
        "D6" => "D6 — no unsafe.\n\nThe workspace is 100% safe Rust; every crate root must carry\n#![forbid(unsafe_code)] so the compiler enforces it too.",
        "D7" => "D7 — documented event-API contracts.\n\nEvery pub fn in the event-API crate documents its ordering contract.\nI4 propagates the obligation to callers in other crates.",
        "D8" => "D8 — no environment reads.\n\nenv::var makes results depend on the invoking shell. Configuration is\nthreaded through explicit arguments. I1 extends the check to\nreachability from result-producing entries.",
        "D9" => "D9 — finite socket timeouts.\n\nA blocking read with no timeout lets one stalled peer wedge a serve\nworker forever. set_read_timeout(Some(..)) right after accept/connect;\nset_read_timeout(None) is flagged at the call site.",
        "D10" => "D10 — no shard side channels.\n\nCross-shard state travels only through rperf_sim::shard::Mailbox\nenvelopes, merged in (time, seq) order at window boundaries. Mutex/\nRwLock/RefCell/Cell/mpsc in shard-executed crates are side channels\nthe deterministic merge never sees. I3 adds reachability: statics\ntouched by code the shard windows can call.",
        "I1" => "I1 — taint reachability (interprocedural).\n\nSources: thread_rng()/rand::, Instant/SystemTime, env::var*/vars, and\nset_read_timeout(None)/set_write_timeout(None). The analyzer builds a\nconservative workspace call graph (see DESIGN.md §5.1), BFS-reaches\nfrom the configured `entries` (figure generators, executors, sweep\nrunners), and flags every source inside the reachable set — however\nmany helper crates deep. The message carries the shortest call chain\nthe graph knows from an entry to the offending function. Fix by\nthreading the value through arguments; exempt with a justified\n[[allow]] pinned to the site.",
        "I2" => "I2 — panic reachability (interprocedural).\n\nFlags panic!/todo!/unimplemented! and .unwrap()/.expect() in any\nfunction reachable from the hot-loop entries (`entries` in lint.toml:\nrun_sharded, Domain::handle_one, shard window bodies; a pattern\nthat matches no function fails the run).\nPruning: #[cfg(test)] items are not graph nodes, debug_assert! bodies\nare skipped (they vanish in release builds), and code gated by an\n`off_features` feature is invisible. An unreachable panic, even in a\nhot-loop crate, is fine. Method-name call edges\nover-approximate: a panic in a same-named method of an unrelated type\ncan be flagged — silence that with a justified [[allow]].",
        "I3" => "I3 — shard purity (interprocedural).\n\nShard worker windows replay deterministically only if shard-executed\ncode touches no process-global state. The analyzer reaches from the\nshard window entries and flags every `static` referenced by reachable\ncode, one diagnostic per (static, file). The only sanctioned\nexception is monotonic telemetry (Atomic* counters folded after the\nrun) — exempt those via [[allow]] entries naming the counter, so each\nexemption carries a justification.",
        "I4" => "I4 — ordering-contract propagation (interprocedural).\n\nA pub fn that (exactly) calls a contract-documented function of the\nevent-API crate (`api_crate`, default `sim`) must itself carry a doc\ncomment stating the ordering contract (any of: 'order', 'FIFO',\n'(time, seq)', 'deterministic', case-insensitive). This closes D7's\none-crate scope: the obligation follows the call graph outward.\nName-level method edges are deliberately excluded — they would demand\nordering docs from every Vec::push caller.",
        _ => return None,
    };
    Some(text)
}

/// One violation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Repo-relative path (forward slashes).
    pub path: String,
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// Rule id, e.g. `D1`.
    pub rule: &'static str,
    /// What is wrong.
    pub msg: String,
    /// The full offending source line.
    pub line_text: String,
    /// How to fix it.
    pub hint: String,
}

impl Diagnostic {
    /// Renders the three-line human form:
    ///
    /// ```text
    /// crates/sim/src/run.rs:3:23: [D1] unordered container `HashMap` in deterministic crate `sim`
    ///     | use std::collections::HashMap;
    ///     = help: iteration order of std hash maps is nondeterministic; ...
    /// ```
    pub fn render(&self) -> String {
        format!(
            "{}:{}:{}: [{}] {}\n    | {}\n    = help: {}\n",
            self.path,
            self.line,
            self.col,
            self.rule,
            self.msg,
            self.line_text.trim_end(),
            self.hint
        )
    }

    /// The sort key: file, then position, then rule.
    pub fn sort_key(&self) -> (String, u32, u32, &'static str) {
        (self.path.clone(), self.line, self.col, self.rule)
    }
}

/// One tokenized file plus the derived facts rules need.
#[derive(Debug)]
pub struct SourceFile {
    /// Repo-relative path with forward slashes.
    pub path: String,
    /// Which crate the file belongs to: the directory name under
    /// `crates/` (`sim`, `switch`, …) or `root` for the top-level package.
    pub crate_key: String,
    /// Last path component (`run.rs`).
    pub file_name: String,
    /// True for `src/lib.rs`, `src/main.rs` and `src/bin/*.rs`.
    pub is_crate_root: bool,
    /// The token stream.
    pub tokens: Vec<Token>,
    /// Indices into `tokens` of non-comment tokens.
    pub sig: Vec<usize>,
    /// Per-token flag: inside a `#[cfg(test)]` / `#[test]` region.
    pub in_test: Vec<bool>,
    /// Source lines (for diagnostics).
    pub lines: Vec<String>,
    /// The parsed item tree (fns, statics, uses) for the call graph.
    pub tree: ItemTree,
}

impl SourceFile {
    /// Tokenizes `src`, computes the test-region mask, and parses the
    /// item tree.
    pub fn analyze(path: &str, crate_key: &str, is_crate_root: bool, src: &str) -> SourceFile {
        let tokens = lex(src);
        let sig = tokens
            .iter()
            .enumerate()
            .filter(|(_, t)| !matches!(t.kind, TokKind::Comment | TokKind::DocComment))
            .map(|(i, _)| i)
            .collect::<Vec<_>>();
        let in_test = test_mask(&tokens, &sig);
        let tree = parse::parse(&tokens);
        SourceFile {
            path: path.to_string(),
            crate_key: crate_key.to_string(),
            file_name: path.rsplit('/').next().unwrap_or(path).to_string(),
            is_crate_root,
            tokens,
            sig,
            in_test,
            lines: src.lines().map(str::to_string).collect(),
            tree,
        }
    }

    fn line_text(&self, line: u32) -> String {
        self.lines
            .get(line as usize - 1)
            .cloned()
            .unwrap_or_default()
    }

    fn diag(&self, rule: &'static str, tok: &Token, msg: String, cfg: &RuleCfg) -> Diagnostic {
        Diagnostic {
            path: self.path.clone(),
            line: tok.line,
            col: tok.col,
            rule,
            msg,
            line_text: self.line_text(tok.line),
            hint: cfg
                .hint
                .clone()
                .unwrap_or_else(|| default_hint(rule).to_string()),
        }
    }

    /// The significant token at `sig[s]`, if in range.
    fn at(&self, s: usize) -> Option<&Token> {
        self.sig.get(s).map(|&i| &self.tokens[i])
    }

    /// True when the significant token at `sig[s]` is in a test region.
    fn test_at(&self, s: usize) -> bool {
        self.sig.get(s).is_some_and(|&i| self.in_test[i])
    }
}

/// Computes which tokens sit inside `#[cfg(test)]`- or `#[test]`-gated
/// items. `sig` is the list of non-comment token indices.
fn test_mask(tokens: &[Token], sig: &[usize]) -> Vec<bool> {
    let mut mask = vec![false; tokens.len()];
    let mut s = 0usize;
    while s < sig.len() {
        if !(tokens[sig[s]].is_punct('#')
            && sig.get(s + 1).is_some_and(|&j| tokens[j].is_punct('[')))
        {
            s += 1;
            continue;
        }
        let Some(close) = matching(tokens, sig, s + 1, '[', ']') else {
            break;
        };
        let attr: Vec<&Token> = sig[s + 2..close].iter().map(|&i| &tokens[i]).collect();
        let is_test_attr = match attr.first() {
            Some(t) if t.is_ident("test") => true,
            Some(t) if t.is_ident("cfg") => {
                attr.iter().any(|t| t.is_ident("test")) && !attr.iter().any(|t| t.is_ident("not"))
            }
            _ => false,
        };
        if !is_test_attr {
            s = close + 1;
            continue;
        }
        // Skip any further attributes on the same item.
        let mut k = close + 1;
        while tokens.get(*sig.get(k).unwrap_or(&usize::MAX)).is_some()
            && tokens[sig[k]].is_punct('#')
            && sig.get(k + 1).is_some_and(|&j| tokens[j].is_punct('['))
        {
            match matching(tokens, sig, k + 1, '[', ']') {
                Some(c) => k = c + 1,
                None => break,
            }
        }
        // The gated item runs to its closing brace, or to `;` for
        // brace-less items (`use`, `type`, …).
        let mut end = None;
        let mut m = k;
        while m < sig.len() {
            let t = &tokens[sig[m]];
            if t.is_punct('{') {
                end = matching(tokens, sig, m, '{', '}');
                break;
            }
            if t.is_punct(';') {
                end = Some(m);
                break;
            }
            m += 1;
        }
        let last = end.unwrap_or(sig.len() - 1);
        for &i in &sig[s..=last.min(sig.len() - 1)] {
            mask[i] = true;
        }
        s = last + 1;
    }
    mask
}

/// Index (into `sig`) of the token matching the opener at `sig[open]`.
fn matching(tokens: &[Token], sig: &[usize], open: usize, o: char, c: char) -> Option<usize> {
    let mut depth = 0isize;
    for (k, &i) in sig.iter().enumerate().skip(open) {
        if tokens[i].is_punct(o) {
            depth += 1;
        } else if tokens[i].is_punct(c) {
            depth -= 1;
            if depth == 0 {
                return Some(k);
            }
        }
    }
    None
}

/// True when `cfg` scopes this rule onto `file`.
fn in_scope(cfg: &RuleCfg, file: &SourceFile) -> bool {
    cfg.crates.iter().any(|c| c == &file.crate_key)
        && (cfg.files.is_empty() || cfg.files.iter().any(|f| file.path.ends_with(f.as_str())))
}

/// Runs every configured rule over `file`, returning unfiltered
/// (pre-allowlist) diagnostics in source order.
pub fn run_rules(file: &SourceFile, config: &Config) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for rule in &config.rules {
        if !in_scope(rule, file) {
            continue;
        }
        match rule.id.as_str() {
            "D1" => d1_unordered_maps(file, rule, &mut out),
            "D2" => d2_wall_clock(file, rule, &mut out),
            "D3" => d3_ambient_rng(file, rule, &mut out),
            "D4" => d4_float_quantities(file, rule, &mut out),
            "D6" => d6_unsafe(file, rule, &mut out),
            "D7" => d7_doc_contracts(file, rule, &mut out),
            "D8" => d8_env_reads(file, rule, &mut out),
            "D9" => d9_socket_timeouts(file, rule, &mut out),
            "D10" => d10_shard_side_channels(file, rule, &mut out),
            _ => {}
        }
    }
    out.sort_by(|a, b| a.sort_key().cmp(&b.sort_key()));
    out
}

fn d1_unordered_maps(file: &SourceFile, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    for s in 0..file.sig.len() {
        if file.test_at(s) {
            continue;
        }
        let t = &file.tokens[file.sig[s]];
        if t.is_ident("HashMap") || t.is_ident("HashSet") {
            out.push(file.diag(
                "D1",
                t,
                format!(
                    "unordered container `{}` in deterministic crate `{}`",
                    t.text, file.crate_key
                ),
                cfg,
            ));
        }
    }
}

fn d2_wall_clock(file: &SourceFile, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    for s in 0..file.sig.len() {
        if file.test_at(s) {
            continue;
        }
        let t = &file.tokens[file.sig[s]];
        if t.is_ident("Instant") || t.is_ident("SystemTime") {
            out.push(file.diag(
                "D2",
                t,
                format!(
                    "wall-clock type `{}` in deterministic crate `{}`",
                    t.text, file.crate_key
                ),
                cfg,
            ));
        } else if t.is_ident("std")
            && file.at(s + 1).is_some_and(|t| t.is_punct(':'))
            && file.at(s + 2).is_some_and(|t| t.is_punct(':'))
            && file.at(s + 3).is_some_and(|t| t.is_ident("time"))
        {
            out.push(file.diag(
                "D2",
                t,
                format!(
                    "`std::time` import in deterministic crate `{}`",
                    file.crate_key
                ),
                cfg,
            ));
        }
    }
}

fn d3_ambient_rng(file: &SourceFile, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    for s in 0..file.sig.len() {
        if file.test_at(s) {
            continue;
        }
        let t = &file.tokens[file.sig[s]];
        if t.is_ident("thread_rng") {
            out.push(file.diag(
                "D3",
                t,
                format!("ambient RNG `thread_rng` in crate `{}`", file.crate_key),
                cfg,
            ));
        } else if t.is_ident("rand")
            && file.at(s + 1).is_some_and(|t| t.is_punct(':'))
            && file.at(s + 2).is_some_and(|t| t.is_punct(':'))
        {
            out.push(file.diag(
                "D3",
                t,
                format!("`rand::` path in crate `{}`", file.crate_key),
                cfg,
            ));
        }
    }
}

/// Arithmetic operator puncts for the D4 `.0` check.
fn is_arith(t: &Token) -> bool {
    t.kind == TokKind::Punct && matches!(t.text.as_str(), "+" | "-" | "*" | "/" | "%")
}

fn d4_float_quantities(file: &SourceFile, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    // Newtype internals live in units.rs by construction; the rule text
    // is "outside units.rs".
    if file.file_name == "units.rs" {
        return;
    }
    for s in 0..file.sig.len() {
        if file.test_at(s) {
            continue;
        }
        let t = &file.tokens[file.sig[s]];
        if t.kind == TokKind::Float {
            out.push(file.diag(
                "D4",
                t,
                format!(
                    "float literal `{}` in quantity crate `{}`",
                    t.text, file.crate_key
                ),
                cfg,
            ));
        } else if t.is_ident("f64") || t.is_ident("f32") {
            out.push(file.diag(
                "D4",
                t,
                format!(
                    "float type `{}` in quantity crate `{}`",
                    t.text, file.crate_key
                ),
                cfg,
            ));
        } else if t.is_punct('.')
            && file
                .at(s + 1)
                .is_some_and(|n| n.kind == TokKind::Int && n.text == "0")
        {
            // Raw newtype-field arithmetic: `x.0 * y` or `a + x.0`.
            let op_after = file.at(s + 2).is_some_and(is_arith);
            let op_before = s >= 2 && file.at(s - 2).is_some_and(is_arith);
            if op_after || op_before {
                out.push(file.diag(
                    "D4",
                    t,
                    format!(
                        "raw `.0` newtype-field arithmetic in crate `{}`",
                        file.crate_key
                    ),
                    cfg,
                ));
            }
        }
    }
}

fn d6_unsafe(file: &SourceFile, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    // `unsafe` is banned even in test code.
    for s in 0..file.sig.len() {
        let t = &file.tokens[file.sig[s]];
        if t.is_ident("unsafe") {
            out.push(file.diag(
                "D6",
                t,
                format!("`unsafe` keyword in crate `{}`", file.crate_key),
                cfg,
            ));
        }
    }
    if file.is_crate_root && !has_forbid_unsafe(file) {
        let anchor = Token {
            kind: TokKind::Punct,
            text: String::new(),
            line: 1,
            col: 1,
        };
        out.push(file.diag(
            "D6",
            &anchor,
            format!(
                "crate root `{}` is missing `#![forbid(unsafe_code)]`",
                file.path
            ),
            cfg,
        ));
    }
}

fn has_forbid_unsafe(file: &SourceFile) -> bool {
    let pat = ["#", "!", "[", "forbid", "(", "unsafe_code", ")", "]"];
    (0..file.sig.len()).any(|s| {
        pat.iter()
            .enumerate()
            .all(|(k, want)| file.at(s + k).is_some_and(|t| t.text == *want))
    })
}

fn d7_doc_contracts(file: &SourceFile, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    let toks = &file.tokens;
    let mut pending_doc = false;
    let mut i = 0usize;
    while i < toks.len() {
        match toks[i].kind {
            TokKind::DocComment => {
                // Inner docs (`//!`, `/*!`) document the *enclosing*
                // module, not the next item — they never satisfy D7.
                if !(toks[i].text.starts_with("//!") || toks[i].text.starts_with("/*!")) {
                    pending_doc = true;
                }
                i += 1;
                continue;
            }
            TokKind::Comment => {
                i += 1;
                continue;
            }
            _ => {}
        }
        // Attributes between the doc comment and the item keep the doc.
        if toks[i].is_punct('#') && toks.get(i + 1).is_some_and(|t| t.is_punct('[')) {
            let mut depth = 0isize;
            let mut j = i + 1;
            while j < toks.len() {
                if toks[j].is_punct('[') {
                    depth += 1;
                } else if toks[j].is_punct(']') {
                    depth -= 1;
                    if depth == 0 {
                        break;
                    }
                }
                j += 1;
            }
            i = j + 1;
            continue;
        }
        if toks[i].is_ident("pub") && !file.in_test[i] {
            // Skip a visibility scope: pub(crate), pub(super), …
            let mut j = i + 1;
            if toks.get(j).is_some_and(|t| t.is_punct('(')) {
                let mut depth = 0isize;
                while j < toks.len() {
                    if toks[j].is_punct('(') {
                        depth += 1;
                    } else if toks[j].is_punct(')') {
                        depth -= 1;
                        if depth == 0 {
                            j += 1;
                            break;
                        }
                    }
                    j += 1;
                }
            }
            while toks
                .get(j)
                .is_some_and(|t| t.is_ident("const") || t.is_ident("async") || t.is_ident("extern"))
                || toks.get(j).is_some_and(|t| t.kind == TokKind::Str)
            {
                j += 1;
            }
            if toks.get(j).is_some_and(|t| t.is_ident("fn")) {
                if !pending_doc {
                    let name = toks.get(j + 1).map(|t| t.text.clone()).unwrap_or_default();
                    out.push(file.diag(
                        "D7",
                        &toks[i],
                        format!(
                            "pub fn `{name}` in crate `{}` has no doc comment stating its \
                             ordering contract",
                            file.crate_key
                        ),
                        cfg,
                    ));
                }
                pending_doc = false;
                i = j + 1;
                continue;
            }
        }
        pending_doc = false;
        i += 1;
    }
}

fn d8_env_reads(file: &SourceFile, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    for s in 0..file.sig.len() {
        if file.test_at(s) {
            continue;
        }
        let t = &file.tokens[file.sig[s]];
        if t.is_ident("env")
            && file.at(s + 1).is_some_and(|t| t.is_punct(':'))
            && file.at(s + 2).is_some_and(|t| t.is_punct(':'))
            && file
                .at(s + 3)
                .is_some_and(|t| t.is_ident("var") || t.is_ident("var_os") || t.is_ident("vars"))
        {
            let what = file.at(s + 3).map(|t| t.text.clone()).unwrap_or_default();
            out.push(file.diag(
                "D8",
                t,
                format!(
                    "environment read `env::{what}` in result-producing crate `{}`",
                    file.crate_key
                ),
                cfg,
            ));
        }
    }
}

/// D9: a serving-layer thread doing blocking socket I/O must never wait
/// forever on a peer. Two syntactic checks:
///
/// 1. `set_read_timeout(None)` / `set_write_timeout(None)` explicitly
///    configures an *infinite* wait — flagged at the call site.
/// 2. A file that names `TcpStream` but never calls
///    `set_read_timeout(Some(..))` (nor passes a computed timeout) is
///    doing bare reads on an unconfigured stream — flagged at the first
///    `TcpStream` mention. Any non-`None` argument counts as configuring,
///    so helpers that thread a `Duration` through are accepted.
fn d9_socket_timeouts(file: &SourceFile, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    let mut first_stream: Option<Token> = None;
    let mut configures_read_timeout = false;
    for s in 0..file.sig.len() {
        if file.test_at(s) {
            continue;
        }
        let t = &file.tokens[file.sig[s]];
        let is_setter = t.is_ident("set_read_timeout") || t.is_ident("set_write_timeout");
        if is_setter && file.at(s + 1).is_some_and(|n| n.is_punct('(')) {
            if file.at(s + 2).is_some_and(|n| n.is_ident("None")) {
                out.push(file.diag(
                    "D9",
                    t,
                    format!(
                        "`{}(None)` configures an infinite socket wait in crate `{}`",
                        t.text, file.crate_key
                    ),
                    cfg,
                ));
            } else if t.is_ident("set_read_timeout") {
                configures_read_timeout = true;
            }
        }
        if t.is_ident("TcpStream") && first_stream.is_none() {
            first_stream = Some(t.clone());
        }
    }
    if let Some(t) = first_stream {
        if !configures_read_timeout {
            out.push(file.diag(
                "D9",
                &t,
                format!(
                    "`TcpStream` used in crate `{}` without ever setting a finite read \
                     timeout (`set_read_timeout(Some(..))`)",
                    file.crate_key
                ),
                cfg,
            ));
        }
    }
}

/// D10: code that runs inside shard worker domains (the fabric crate)
/// must exchange cross-shard state only through the
/// `rperf_sim::shard::Mailbox` envelopes that the window scheduler
/// merges in `(time, seq)` order at window boundaries. Any ad-hoc
/// shared-mutable synchronization — `Mutex`/`RwLock` guards, `mpsc`
/// channels, `RefCell`/`Cell` interior mutability — is a side channel
/// the deterministic merge never sees, so whatever flows through it
/// depends on thread scheduling. Atomics are deliberately not flagged:
/// the fabric's global counters (`events_processed_total`, slab
/// high-water) are monotonic telemetry folded after the run, not
/// simulation state.
fn d10_shard_side_channels(file: &SourceFile, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    const SIDE_CHANNELS: [&str; 5] = ["Mutex", "RwLock", "RefCell", "Cell", "mpsc"];
    for s in 0..file.sig.len() {
        if file.test_at(s) {
            continue;
        }
        let t = &file.tokens[file.sig[s]];
        if let Some(name) = SIDE_CHANNELS.iter().copied().find(|&n| t.is_ident(n)) {
            out.push(file.diag(
                "D10",
                t,
                format!(
                    "shared-mutable sync primitive `{name}` in shard-executed crate `{}`; \
                     cross-shard state must travel through the mailbox",
                    file.crate_key
                ),
                cfg,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg_for(ids: &[&str]) -> Config {
        Config {
            rules: ids
                .iter()
                .map(|id| RuleCfg {
                    id: (*id).to_string(),
                    crates: vec!["fixture".to_string()],
                    files: Vec::new(),
                    hint: None,
                    entries: Vec::new(),
                    api_crate: None,
                })
                .collect(),
            allows: Vec::new(),
            off_features: Vec::new(),
        }
    }

    fn run(src: &str, ids: &[&str]) -> Vec<Diagnostic> {
        let file = SourceFile::analyze("fixture/src/x.rs", "fixture", false, src);
        run_rules(&file, &cfg_for(ids))
    }

    #[test]
    fn test_regions_are_exempt() {
        let src = r#"
fn tally(v: &[u32]) -> usize { v.len() }

#[cfg(test)]
mod tests {
    #[test]
    fn checks() { let _seen = std::collections::HashSet::<u32>::new(); }
}
"#;
        assert!(run(src, &["D1"]).is_empty());
        // But cfg(not(test)) is NOT a test region.
        let src = "#[cfg(not(test))]\nfn tally() -> std::collections::HashSet<u32> { todo() }\n";
        assert_eq!(run(src, &["D1"]).len(), 1);
    }

    #[test]
    fn d4_flags_floats_and_newtype_arith() {
        let diags = run("fn f(a: Wrap, b: u64) -> u64 { a.0 * b }", &["D4"]);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].msg.contains(".0"));
        assert_eq!(run("const X: f64 = 1.5;", &["D4"]).len(), 2);
        // Plain field reads (no arithmetic) are fine, and so is x.0.1.
        assert!(run("fn f(a: Wrap) -> u64 { a.0 }", &["D4"]).is_empty());
        // units.rs itself is exempt by construction.
        let file = SourceFile::analyze(
            "crates/model/src/units.rs",
            "fixture",
            false,
            "fn f(a: W) -> u64 { a.0 * 2 }",
        );
        assert!(run_rules(&file, &cfg_for(&["D4"])).is_empty());
    }

    #[test]
    fn d6_checks_crate_roots() {
        let file = SourceFile::analyze(
            "fixture/src/lib.rs",
            "fixture",
            true,
            "#![forbid(unsafe_code)]\npub fn ok() {}\n",
        );
        assert!(run_rules(&file, &cfg_for(&["D6"])).is_empty());
        let file = SourceFile::analyze("fixture/src/lib.rs", "fixture", true, "pub fn ok() {}\n");
        let diags = run_rules(&file, &cfg_for(&["D6"]));
        assert_eq!(diags.len(), 1);
        assert!(diags[0].msg.contains("forbid"), "{diags:#?}");
    }

    #[test]
    fn d7_needs_docs_on_pub_fns() {
        let src = r#"
/// Documented: pops in (time, seq) order.
#[inline]
pub fn pop() {}

pub fn undocumented() {}

fn private_needs_no_doc() {}
"#;
        let diags = run(src, &["D7"]);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].msg.contains("undocumented"));
    }

    #[test]
    fn d9_socket_timeout_patterns() {
        // An explicit infinite wait fires at the call site — and since a
        // `None` timeout is not a finite one, the file-level check fires
        // too when no `Some(..)` read timeout exists anywhere.
        let diags = run(
            "fn f(s: &TcpStream) { s.set_read_timeout(None).ok(); \
             s.set_write_timeout(Some(t)).ok(); }",
            &["D9"],
        );
        assert_eq!(diags.len(), 2, "{diags:#?}");
        assert!(diags[1].msg.contains("set_read_timeout(None)"));
        assert!(diags[0].msg.contains("finite read timeout"));
        // With a finite read timeout elsewhere, only the None fires.
        let diags = run(
            "fn f(s: &TcpStream) { s.set_read_timeout(Some(t)).ok(); }\n\
             fn g(s: &TcpStream) { s.set_write_timeout(None).ok(); }",
            &["D9"],
        );
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].msg.contains("set_write_timeout(None)"));
        // A TcpStream with no finite read timeout anywhere fires once.
        let diags = run(
            "fn f(mut s: TcpStream) { s.read_exact(&mut buf).ok(); }",
            &["D9"],
        );
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].msg.contains("finite read timeout"), "{diags:#?}");
        // Configuring Some(..) — or a computed timeout variable — is clean.
        assert!(run(
            "fn f(s: &TcpStream) { s.set_read_timeout(Some(t)).ok(); }",
            &["D9"],
        )
        .is_empty());
        assert!(run(
            "fn f(s: &TcpStream, t: Option<Duration>) { s.set_read_timeout(t).ok(); }",
            &["D9"],
        )
        .is_empty());
        // Test code is exempt, as everywhere.
        assert!(run(
            "#[cfg(test)]\nmod tests { fn f(s: &TcpStream) { s.read(&mut b).ok(); } }",
            &["D9"],
        )
        .is_empty());
    }

    #[test]
    fn d10_flags_side_channels_not_mailbox_or_atomics() {
        let diags = run(
            "use std::sync::Mutex;\nfn f() { let (tx, rx) = mpsc::channel(); }",
            &["D10"],
        );
        assert_eq!(diags.len(), 2, "{diags:#?}");
        assert!(diags[0].msg.contains("`Mutex`"));
        assert!(diags[1].msg.contains("`mpsc`"));
        // RefCell and Cell are interior-mutability side channels too.
        assert_eq!(
            run("fn f(c: &RefCell<u64>, d: &Cell<u8>) {}", &["D10"]).len(),
            2
        );
        // The mailbox API and telemetry atomics are the sanctioned paths.
        assert!(run(
            "use rperf_sim::shard::Mailbox;\n\
             static EVENTS: AtomicU64 = AtomicU64::new(0);\n\
             fn f(m: &Mailbox<Envelope>) { m.post(0, e); }",
            &["D10"],
        )
        .is_empty());
        // Strings, comments, and test regions never fire.
        assert!(run("// Mutex\nfn f() { g(\"Mutex\"); }", &["D10"]).is_empty());
        assert!(run(
            "#[cfg(test)]\nmod tests { use std::sync::Mutex; }",
            &["D10"],
        )
        .is_empty());
    }

    #[test]
    fn d2_d3_d8_path_patterns() {
        assert_eq!(run("use std::time::Instant;", &["D2"]).len(), 2);
        assert_eq!(run("fn f() { let x = rand::random(); }", &["D3"]).len(), 1);
        assert_eq!(
            run("fn f() { std::env::var(\"HOME\").ok(); }", &["D8"]).len(),
            1
        );
        // env!() compile-time macro and CLI args are fine.
        assert!(run("fn f() { env!(\"CARGO\"); std::env::args(); }", &["D8"]).is_empty());
    }
}
