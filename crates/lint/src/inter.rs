//! The interprocedural rules I1–I4, run over the workspace call graph.
//!
//! Where D1–D9 pattern-match token sequences one file at a time, these
//! rules reason about *reachability*: a `thread_rng()` three helper
//! calls below a figure generator is exactly as nondeterministic as one
//! written inline, and the token rules cannot see it. Each rule names
//! its entry points in `lint.toml` (`entries = [...]`), the graph
//! ([`crate::graph`]) computes the reachable set, and violations are
//! reported *at the offending site* with the full call chain from the
//! entry in the message — so the diagnostic tells you both what is
//! wrong and why the analyzer believes the hot/result path can get
//! there.
//!
//! | id | invariant |
//! |----|-----------|
//! | I1 | no ambient-input source (RNG, wall clock, env, infinite socket wait) reachable from a result-producing entry |
//! | I2 | no `panic!`/`unwrap`/`expect`/`todo!` reachable from a hot-loop entry |
//! | I3 | no `static` reachable from the run loop or dispatch (telemetry atomics via `[[allow]]`) |
//! | I4 | a `pub fn` calling an ordering-contract-documented API fn must carry a contract doc itself |
//!
//! Conservatism and its consequences are catalogued in DESIGN.md §5.1;
//! the short version: method-name call edges over-approximate (I2/I3
//! may flag a panic in a same-named method the entry never calls — use
//! a justified `[[allow]]`), and I4 follows only exactly-resolved
//! edges, because name-level edges would demand ordering docs from
//! every `Vec::push` caller.

use std::collections::BTreeSet;

use crate::config::{Config, RuleCfg};
use crate::graph::{EdgeKind, Graph};
use crate::rules::{default_hint, Diagnostic, SourceFile};

/// Words whose presence (case-insensitive) in a doc comment marks it as
/// stating an ordering contract — shared with D7's intent.
const CONTRACT_MARKS: [&str; 4] = ["order", "fifo", "(time, seq)", "deterministic"];

fn has_contract_doc(doc: &str) -> bool {
    let lower = doc.to_lowercase();
    CONTRACT_MARKS.iter().any(|m| lower.contains(m))
}

fn mk_diag(
    files: &[SourceFile],
    file: usize,
    line: u32,
    col: u32,
    rule: &'static str,
    msg: String,
    cfg: &RuleCfg,
) -> Diagnostic {
    let f = &files[file];
    Diagnostic {
        path: f.path.clone(),
        line,
        col,
        rule,
        msg,
        line_text: f
            .lines
            .get(line.saturating_sub(1) as usize)
            .cloned()
            .unwrap_or_default(),
        hint: cfg
            .hint
            .clone()
            .unwrap_or_else(|| default_hint(rule).to_string()),
    }
}

/// What the interprocedural pass found.
#[derive(Debug, Default)]
pub struct InterReport {
    /// Rule violations, unsorted and unfiltered.
    pub diagnostics: Vec<Diagnostic>,
    /// One note per `entries` pattern that names no function in the
    /// analyzed files: a rule whose entry matches nothing silently proves
    /// nothing, so these fail the run like stale `[[allow]]` entries.
    pub unmatched_entries: Vec<String>,
}

/// Runs every enabled interprocedural rule over the workspace graph.
/// `files` must span the whole analysis scope (the workspace, or a
/// fixture's files).
pub fn run_inter(files: &[SourceFile], cfg: &Config) -> InterReport {
    let needs_graph = ["I1", "I2", "I3", "I4"]
        .iter()
        .any(|id| cfg.rule(id).is_some());
    if !needs_graph {
        return InterReport::default();
    }
    let g = Graph::build(files);
    let unmatched_entries = cfg
        .rules
        .iter()
        .flat_map(|r| r.entries.iter().map(move |pat| (r, pat)))
        .filter(|(_, pat)| g.match_entries(std::slice::from_ref(pat)).is_empty())
        .map(|(r, pat)| {
            format!(
                "lint.toml: {} entry `{pat}` matches no function — fix or delete it",
                r.id
            )
        })
        .collect();
    let mut out = Vec::new();
    if let Some(rule) = cfg.rule("I1") {
        i1_taint_reachability(files, &g, rule, &mut out);
    }
    if let Some(rule) = cfg.rule("I2") {
        i2_panic_reachability(files, &g, rule, &mut out);
    }
    if let Some(rule) = cfg.rule("I3") {
        i3_run_purity(files, &g, rule, &mut out);
    }
    if let Some(rule) = cfg.rule("I4") {
        i4_contract_propagation(files, &g, rule, &mut out);
    }
    InterReport {
        diagnostics: out,
        unmatched_entries,
    }
}

/// True when the node's defining crate is in the rule's scope.
fn node_in_scope(g: &Graph, cfg: &RuleCfg, node: usize) -> bool {
    cfg.crates.iter().any(|c| c == &g.nodes[node].crate_key)
}

fn i1_taint_reachability(
    files: &[SourceFile],
    g: &Graph,
    cfg: &RuleCfg,
    out: &mut Vec<Diagnostic>,
) {
    let entries = g.match_entries(&cfg.entries);
    let parent = g.reach(&entries);
    let mut seen = BTreeSet::new();
    for (id, n) in g.nodes.iter().enumerate() {
        if parent[id].is_none() || !node_in_scope(g, cfg, id) {
            continue;
        }
        for (kind, site) in &n.taints {
            if !seen.insert((n.file, site.line, site.col)) {
                continue;
            }
            out.push(mk_diag(
                files,
                n.file,
                site.line,
                site.col,
                "I1",
                format!(
                    "{} `{}` reachable from a result-producing entry: {}",
                    kind.label(),
                    site.what,
                    g.chain(&parent, id)
                ),
                cfg,
            ));
        }
    }
}

fn i2_panic_reachability(
    files: &[SourceFile],
    g: &Graph,
    cfg: &RuleCfg,
    out: &mut Vec<Diagnostic>,
) {
    let entries = g.match_entries(&cfg.entries);
    let parent = g.reach(&entries);
    let mut seen = BTreeSet::new();
    for (id, n) in g.nodes.iter().enumerate() {
        if parent[id].is_none() || !node_in_scope(g, cfg, id) {
            continue;
        }
        for site in &n.panics {
            if !seen.insert((n.file, site.line, site.col)) {
                continue;
            }
            out.push(mk_diag(
                files,
                n.file,
                site.line,
                site.col,
                "I2",
                format!(
                    "`{}` reachable from a hot-loop entry: {}",
                    site.what,
                    g.chain(&parent, id)
                ),
                cfg,
            ));
        }
    }
}

fn i3_run_purity(files: &[SourceFile], g: &Graph, cfg: &RuleCfg, out: &mut Vec<Diagnostic>) {
    let entries = g.match_entries(&cfg.entries);
    let parent = g.reach(&entries);
    // One diagnostic per (static, referencing file): the first use site
    // stands for all of them, so exempting a telemetry atomic takes one
    // `[[allow]]` per file, not one per counter bump.
    let mut seen = BTreeSet::new();
    for u in g.static_uses(&parent) {
        let n = &g.nodes[u.node];
        if !node_in_scope(g, cfg, u.node) {
            continue;
        }
        if !seen.insert((u.st.crate_key.clone(), u.st.name.clone(), n.file)) {
            continue;
        }
        out.push(mk_diag(
            files,
            n.file,
            u.site.line,
            u.site.col,
            "I3",
            format!(
                "{} `{}: {}` reachable from the dispatch loop: {}",
                if u.st.is_atomic {
                    "shared atomic"
                } else {
                    "global state"
                },
                u.st.name,
                u.st.ty,
                g.chain(&parent, u.node)
            ),
            cfg,
        ));
    }
}

fn i4_contract_propagation(
    files: &[SourceFile],
    g: &Graph,
    cfg: &RuleCfg,
    out: &mut Vec<Diagnostic>,
) {
    let api = cfg.api_crate.as_deref().unwrap_or("sim");
    for (id, n) in g.nodes.iter().enumerate() {
        if !n.is_pub || !node_in_scope(g, cfg, id) || has_contract_doc(&n.doc) {
            continue;
        }
        // Only exactly-resolved edges: a name-level `.push(..)` edge to
        // the event-queue API would demand ordering docs from every
        // Vec::push caller in scope.
        let culprit = n.calls.iter().find(|e| {
            e.kind == EdgeKind::Exact
                && g.nodes[e.to].crate_key == api
                && has_contract_doc(&g.nodes[e.to].doc)
        });
        if let Some(e) = culprit {
            out.push(mk_diag(
                files,
                n.file,
                n.line,
                n.col,
                "I4",
                format!(
                    "pub fn `{}` calls ordering-contract API `{}` (line {}) but its doc \
                     states no ordering contract",
                    n.key, g.nodes[e.to].key, e.line
                ),
                cfg,
            ));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::RuleCfg;

    fn rule(id: &str, entries: &[&str]) -> RuleCfg {
        RuleCfg {
            id: id.to_string(),
            crates: vec!["fixture".to_string()],
            files: Vec::new(),
            hint: None,
            entries: entries.iter().map(|s| s.to_string()).collect(),
            api_crate: Some("fixture".to_string()),
        }
    }

    fn run(srcs: &[(&str, &str)], r: RuleCfg) -> Vec<Diagnostic> {
        run_report(srcs, r).diagnostics
    }

    fn run_report(srcs: &[(&str, &str)], r: RuleCfg) -> InterReport {
        let files: Vec<SourceFile> = srcs
            .iter()
            .enumerate()
            .map(|(i, (ck, src))| {
                SourceFile::analyze(&format!("crates/{ck}/src/f{i}.rs"), ck, false, src)
            })
            .collect();
        let cfg = Config {
            rules: vec![r],
            ..Config::default()
        };
        run_inter(&files, &cfg)
    }

    #[test]
    fn i1_sees_through_helper_crates() {
        let diags = run(
            &[(
                "fixture",
                "pub fn fig_latency() { helper(); }\nfn helper() { noise(); }\n\
                     fn noise() { let r = thread_rng(); }\nfn unrelated() { thread_rng(); }",
            )],
            rule("I1", &["fig_latency"]),
        );
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].msg.contains("ambient RNG"));
        assert!(
            diags[0]
                .msg
                .contains("fixture::fig_latency -> fixture::helper -> fixture::noise"),
            "{}",
            diags[0].msg
        );
    }

    #[test]
    fn i2_prunes_debug_assert_and_test_code() {
        let src = "pub fn handle_one() { step(); }\n\
                   fn step() { debug_assert!(deep_check()); tail(); }\n\
                   fn deep_check() -> bool { Some(1).unwrap() > 0 }\n\
                   fn tail() { inner(); }\nfn inner() { panic!(\"slab\"); }\n\
                   #[cfg(test)]\nmod t { fn boom() { panic!(\"test only\"); } }";
        let diags = run(&[("fixture", src)], rule("I2", &["handle_one"]));
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].msg.contains("panic!"));
        assert!(diags[0].msg.contains("fixture::tail -> fixture::inner"));
    }

    #[test]
    fn i3_flags_statics_once_per_file() {
        let src = "static HITS: AtomicU64 = AtomicU64::new(0);\n\
                   pub fn run_window() { HITS.fetch_add(1, R); tick(); }\n\
                   fn tick() { HITS.fetch_add(1, R); }\npub fn cold() { HITS.load(R); }";
        let diags = run(&[("fixture", src)], rule("I3", &["run_window"]));
        assert_eq!(diags.len(), 1, "one per (static, file): {diags:#?}");
        assert!(diags[0].msg.contains("shared atomic `HITS"));
    }

    #[test]
    fn entry_patterns_that_match_nothing_are_reported() {
        let src = "pub struct Domain;\nimpl Domain { pub fn handle_one(&self) {} }";
        let report = run_report(
            &[("fixture", src)],
            rule(
                "I2",
                &["fixture::Domain::handle_one", "fixture::Gone::handle_one"],
            ),
        );
        assert!(report.diagnostics.is_empty(), "{:#?}", report.diagnostics);
        assert_eq!(
            report.unmatched_entries,
            ["lint.toml: I2 entry `fixture::Gone::handle_one` matches no function — fix or delete it"]
        );
    }

    #[test]
    fn i4_requires_contract_docs_on_exact_calls() {
        let api = "/// Pops events in (time, seq) FIFO order.\npub fn pop_next() {}";
        let caller = "use fixture::pop_next;\n\
                      pub fn undocumented() { pop_next(); }\n\
                      /// Preserves (time, seq) order end to end.\n\
                      pub fn documented() { pop_next(); }\n\
                      fn private_ok() { pop_next(); }";
        let files = [("fixture", api), ("fixture", caller)];
        let mut r = rule("I4", &[]);
        r.crates = vec!["fixture".to_string()];
        let diags = run(&files, r);
        assert_eq!(diags.len(), 1, "{diags:#?}");
        assert!(diags[0].msg.contains("undocumented"), "{diags:#?}");
    }
}
