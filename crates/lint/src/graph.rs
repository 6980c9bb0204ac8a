//! Workspace symbol index and conservative call graph.
//!
//! Built from every file's [`crate::parse::ItemTree`], this module gives
//! the interprocedural rules ([`crate::inter`]) the three facts they
//! reason over: *which functions exist* (nodes), *which functions each
//! body may call* (edges), and *what each body touches directly* (taint
//! sources, panic sites, static references).
//!
//! ## Conservatism
//!
//! The graph is a deliberate over-approximation — it must never miss a
//! real call, and it accepts phantom edges to get that:
//!
//! * **Bare calls** `foo(..)` resolve to *every* function named `foo` in
//!   the calling crate, plus whatever a `use` alias brings in.
//! * **Path calls** `a::b::f(..)` resolve the leading segment through
//!   `crate`/`self`/`super`, the file's `use` aliases, and the workspace
//!   crate-name map (`rperf_sim` → `sim`); `Type::f(..)` resolves to the
//!   methods of every `impl Type` in the workspace.
//! * **Method calls** `.f(..)` resolve to every impl/trait method named
//!   `f` anywhere in the workspace — receiver types are not inferred.
//!   This is the big hammer that catches dynamic dispatch (`Box<dyn
//!   App>`) and trait calls, at the cost of edges like `Vec::pop` being
//!   conflated with `EventQueue::pop`.
//!
//! Known under-approximations (documented in DESIGN.md §5.1): calls
//! through function pointers/closures passed as values, `std` callbacks
//! (e.g. `sort_by` invoking a comparator — the closure body is still
//! scanned as part of its enclosing function, so its *sites* are seen),
//! and slice-index panics, which are not modeled as panic sites.
//!
//! Functions gated `#[cfg(test)]` are not nodes.

use std::collections::BTreeMap;

use crate::lexer::{TokKind, Token};
use crate::parse::FnDecl;
use crate::rules::SourceFile;

/// What kind of ambient-input taint a token introduces (rule I1).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaintKind {
    /// `thread_rng` / `rand::` — ambient RNG.
    Rng,
    /// `Instant` / `SystemTime` / `std::time` — wall clock.
    Clock,
    /// `env::var` / `var_os` / `vars` — environment read.
    Env,
    /// `set_read_timeout(None)` / `set_write_timeout(None)` — a socket
    /// configured to wait forever.
    Socket,
}

impl TaintKind {
    /// Human label used in diagnostics.
    pub fn label(self) -> &'static str {
        match self {
            TaintKind::Rng => "ambient RNG",
            TaintKind::Clock => "wall clock",
            TaintKind::Env => "environment read",
            TaintKind::Socket => "infinite socket timeout",
        }
    }
}

/// A token-level fact found inside a function body.
#[derive(Debug, Clone)]
pub struct Site {
    /// 1-based line.
    pub line: u32,
    /// 1-based column.
    pub col: u32,
    /// The offending token text (`thread_rng`, `unwrap`, a static name).
    pub what: String,
}

/// How confident the resolver is about a call edge.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum EdgeKind {
    /// Resolved through a path, type, or unique bare name — the target
    /// is what the source names.
    Exact,
    /// Resolved by method name alone (`.f(..)` to every method `f`).
    MethodName,
}

/// One call edge.
#[derive(Debug, Clone)]
pub struct Edge {
    /// Callee node index.
    pub to: usize,
    /// Resolution confidence.
    pub kind: EdgeKind,
    /// 1-based line of the call site.
    pub line: u32,
}

/// One function node.
#[derive(Debug)]
pub struct Node {
    /// Index of the defining file in the workspace file list.
    pub file: usize,
    /// Crate key of the defining file.
    pub crate_key: String,
    /// Bare name.
    pub name: String,
    /// Impl self type, if a method.
    pub self_ty: Option<String>,
    /// Trait name, if a trait/trait-impl method.
    pub trait_name: Option<String>,
    /// Display key: `crate::Type::name` / `crate::name`.
    pub key: String,
    /// True for `pub` (any scope).
    pub is_pub: bool,
    /// Outer doc text.
    pub doc: String,
    /// 1-based position of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
    /// Outgoing calls, sorted and deduplicated.
    pub calls: Vec<Edge>,
    /// Ambient-input sources in this body.
    pub taints: Vec<(TaintKind, Site)>,
    /// Panic sites in this body (`unwrap`/`expect`/`panic!`/`todo!`/
    /// `unimplemented!`), `debug_assert!` bodies excluded.
    pub panics: Vec<Site>,
    /// Workspace statics this body references, as (static index, site).
    pub static_refs: Vec<(usize, Site)>,
}

/// One workspace static the body scan can resolve references to.
#[derive(Debug)]
pub struct StaticNode {
    /// Crate key of the defining file.
    pub crate_key: String,
    /// Item name.
    pub name: String,
    /// Declared type text.
    pub ty: String,
    /// True when the type mentions `Atomic*`.
    pub is_atomic: bool,
}

/// The whole-workspace call graph.
#[derive(Debug, Default)]
pub struct Graph {
    /// Function nodes, ordered by (file, declaration order) — the
    /// deterministic traversal order every rule uses.
    pub nodes: Vec<Node>,
    /// Statics visible to the body scan.
    pub statics: Vec<StaticNode>,
}

/// Maps an extern-crate lib ident to the workspace crate key it names.
fn crate_key_of(ident: &str) -> Option<String> {
    match ident {
        "rperf" => Some("core".to_string()),
        "rperf_lab" => Some("root".to_string()),
        "proptest" => Some("proptest-shim".to_string()),
        "criterion" => Some("criterion-shim".to_string()),
        _ => ident
            .strip_prefix("rperf_")
            .map(|rest| rest.replace('_', "-")),
    }
}

/// True when `name` starts with an uppercase letter — the heuristic for
/// "this path segment is a type, not a module".
fn is_type_like(name: &str) -> bool {
    name.chars().next().is_some_and(char::is_uppercase)
}

struct Indexes {
    /// (crate key, fn name) -> node ids (free fns and methods alike).
    by_crate_name: BTreeMap<(String, String), Vec<usize>>,
    /// method name -> node ids of all impl/trait methods with that name.
    methods: BTreeMap<String, Vec<usize>>,
    /// (self type, method name) -> node ids.
    ty_methods: BTreeMap<(String, String), Vec<usize>>,
    /// (crate key, static name) -> static index.
    statics: BTreeMap<(String, String), usize>,
}

impl Graph {
    /// Builds the graph over `files` (all of which must carry parsed
    /// item trees).
    pub fn build(files: &[SourceFile]) -> Graph {
        let mut g = Graph::default();
        let mut idx = Indexes {
            by_crate_name: BTreeMap::new(),
            methods: BTreeMap::new(),
            ty_methods: BTreeMap::new(),
            statics: BTreeMap::new(),
        };
        // Pass 1: nodes and indexes.
        for (fi, file) in files.iter().enumerate() {
            for s in &file.tree.statics {
                if s.in_test {
                    continue;
                }
                let id = g.statics.len();
                g.statics.push(StaticNode {
                    crate_key: file.crate_key.clone(),
                    name: s.name.clone(),
                    ty: s.ty.clone(),
                    is_atomic: s.is_atomic,
                });
                idx.statics
                    .entry((file.crate_key.clone(), s.name.clone()))
                    .or_insert(id);
            }
            for d in &file.tree.fns {
                if d.in_test {
                    continue;
                }
                let id = g.nodes.len();
                let key = match &d.self_ty {
                    Some(ty) => format!("{}::{}::{}", file.crate_key, ty, d.name),
                    None => match &d.trait_name {
                        Some(tr) => format!("{}::{}::{}", file.crate_key, tr, d.name),
                        None => format!("{}::{}", file.crate_key, d.name),
                    },
                };
                g.nodes.push(Node {
                    file: fi,
                    crate_key: file.crate_key.clone(),
                    name: d.name.clone(),
                    self_ty: d.self_ty.clone(),
                    trait_name: d.trait_name.clone(),
                    key,
                    is_pub: d.is_pub,
                    doc: d.doc.clone(),
                    line: d.line,
                    col: d.col,
                    calls: Vec::new(),
                    taints: Vec::new(),
                    panics: Vec::new(),
                    static_refs: Vec::new(),
                });
                idx.by_crate_name
                    .entry((file.crate_key.clone(), d.name.clone()))
                    .or_default()
                    .push(id);
                if d.self_ty.is_some() || d.trait_name.is_some() {
                    idx.methods.entry(d.name.clone()).or_default().push(id);
                    if let Some(ty) = &d.self_ty {
                        idx.ty_methods
                            .entry((ty.clone(), d.name.clone()))
                            .or_default()
                            .push(id);
                    }
                    if let Some(tr) = &d.trait_name {
                        idx.ty_methods
                            .entry((tr.clone(), d.name.clone()))
                            .or_default()
                            .push(id);
                    }
                }
            }
        }
        // Pass 2: body scans. Node order matches (file, decl) order, so
        // walk the same zip again.
        let mut node_id = 0usize;
        for file in files {
            for d in file.tree.fns.iter().filter(|d| !d.in_test) {
                scan_body(&mut g, &idx, node_id, file, d);
                node_id += 1;
            }
        }
        for n in &mut g.nodes {
            n.calls.sort_by_key(|e| (e.to, e.kind, e.line));
            n.calls.dedup_by_key(|e| (e.to, e.kind));
        }
        g
    }

    /// Node ids matching an entry pattern. Patterns:
    ///
    /// * `name` — every function with that bare name;
    /// * `Type::name` — methods of `Type` (self type or trait);
    /// * `crate::name` — functions named `name` in that crate;
    /// * `crate::Type::name` — both constraints.
    ///
    /// A trailing `*` on the final segment prefix-matches names
    /// (`bench::fig*`).
    pub fn match_entries(&self, patterns: &[String]) -> Vec<usize> {
        let mut out = Vec::new();
        for (id, n) in self.nodes.iter().enumerate() {
            for pat in patterns {
                let segs: Vec<&str> = pat.split("::").collect();
                let (name_pat, quals) = match segs.split_last() {
                    Some((l, q)) => (*l, q),
                    None => continue,
                };
                let name_ok = match name_pat.strip_suffix('*') {
                    Some(prefix) => n.name.starts_with(prefix),
                    None => n.name == name_pat,
                };
                if !name_ok {
                    continue;
                }
                let quals_ok = quals.iter().all(|q| {
                    if is_type_like(q) {
                        n.self_ty.as_deref() == Some(*q) || n.trait_name.as_deref() == Some(*q)
                    } else {
                        n.crate_key == *q
                    }
                });
                if quals_ok {
                    out.push(id);
                    break;
                }
            }
        }
        out
    }

    /// Multi-source BFS from `entries` over all call edges. Returns, for
    /// every node, `Some(parent)` when reachable (entries have
    /// `Some(usize::MAX)`), `None` otherwise. Traversal is deterministic:
    /// entries in ascending id order, neighbours in edge order.
    pub fn reach(&self, entries: &[usize]) -> Vec<Option<usize>> {
        let mut parent: Vec<Option<usize>> = vec![None; self.nodes.len()];
        let mut queue = std::collections::VecDeque::new();
        let mut sorted = entries.to_vec();
        sorted.sort_unstable();
        sorted.dedup();
        for &e in &sorted {
            if e < self.nodes.len() && parent[e].is_none() {
                parent[e] = Some(usize::MAX);
                queue.push_back(e);
            }
        }
        while let Some(n) = queue.pop_front() {
            for e in &self.nodes[n].calls {
                if parent[e.to].is_none() {
                    parent[e.to] = Some(n);
                    queue.push_back(e.to);
                }
            }
        }
        parent
    }

    /// Renders the whole entry → … → `node` chain recorded by
    /// [`Graph::reach`] as `a -> b -> c`: the middle hops are where an
    /// over-approximated edge shows, so none is elided.
    pub fn chain(&self, parent: &[Option<usize>], node: usize) -> String {
        let mut path = vec![node];
        let mut cur = node;
        while let Some(Some(p)) = parent.get(cur) {
            if *p == usize::MAX || path.len() > 64 {
                break;
            }
            path.push(*p);
            cur = *p;
        }
        path.reverse();
        let keys: Vec<&str> = path.iter().map(|&i| self.nodes[i].key.as_str()).collect();
        keys.join(" -> ")
    }
}

/// Scans one function body for calls, taints, panic sites, and static
/// references, pushing them onto node `id`.
fn scan_body(g: &mut Graph, idx: &Indexes, id: usize, file: &SourceFile, d: &FnDecl) {
    let Some((start, end)) = d.body else { return };
    // Filtered positions: significant tokens inside the body.
    let b: Vec<usize> = (start..=end.min(file.tokens.len().saturating_sub(1)))
        .filter(|&i| !matches!(file.tokens[i].kind, TokKind::Comment | TokKind::DocComment))
        .collect();
    let tok = |k: usize| -> Option<&Token> { b.get(k).map(|&i| &file.tokens[i]) };
    let crate_key = &file.crate_key;

    let mut k = 0usize;
    while k < b.len() {
        let t = &file.tokens[b[k]];
        if t.kind != TokKind::Ident {
            k += 1;
            continue;
        }
        let next_bang = tok(k + 1).is_some_and(|n| n.is_punct('!'));
        if next_bang {
            match t.text.as_str() {
                // debug_assert bodies run only in debug builds: skip the
                // whole argument list for every fact class.
                "debug_assert" | "debug_assert_eq" | "debug_assert_ne" => {
                    let mut m = k + 2;
                    if tok(m).is_some_and(|t| t.is_punct('(')) {
                        let mut depth = 0isize;
                        while m < b.len() {
                            let q = &file.tokens[b[m]];
                            if q.is_punct('(') {
                                depth += 1;
                            } else if q.is_punct(')') {
                                depth -= 1;
                                if depth == 0 {
                                    break;
                                }
                            }
                            m += 1;
                        }
                    }
                    k = m + 1;
                    continue;
                }
                "panic" | "todo" | "unimplemented" => {
                    g.nodes[id].panics.push(Site {
                        line: t.line,
                        col: t.col,
                        what: format!("{}!", t.text),
                    });
                    k += 2;
                    continue;
                }
                _ => {}
            }
        }
        // Taint sources.
        let taint = match t.text.as_str() {
            "thread_rng" => Some(TaintKind::Rng),
            "rand"
                if tok(k + 1).is_some_and(|n| n.is_punct(':'))
                    && tok(k + 2).is_some_and(|n| n.is_punct(':')) =>
            {
                Some(TaintKind::Rng)
            }
            "Instant" | "SystemTime" => Some(TaintKind::Clock),
            "env"
                if tok(k + 1).is_some_and(|n| n.is_punct(':'))
                    && tok(k + 2).is_some_and(|n| n.is_punct(':'))
                    && tok(k + 3).is_some_and(|n| {
                        n.is_ident("var") || n.is_ident("var_os") || n.is_ident("vars")
                    }) =>
            {
                Some(TaintKind::Env)
            }
            _ => None,
        };
        if let Some(kind) = taint {
            g.nodes[id].taints.push((
                kind,
                Site {
                    line: t.line,
                    col: t.col,
                    what: t.text.clone(),
                },
            ));
            k += 1;
            continue;
        }

        let called = tok(k + 1).is_some_and(|n| n.is_punct('('));
        let prev_dot = k > 0 && tok(k - 1).is_some_and(|p| p.is_punct('.'));
        if called && prev_dot {
            match t.text.as_str() {
                "unwrap" | "expect" => {
                    g.nodes[id].panics.push(Site {
                        line: t.line,
                        col: t.col,
                        what: format!(".{}()", t.text),
                    });
                }
                "set_read_timeout" | "set_write_timeout"
                    if tok(k + 2).is_some_and(|n| n.is_ident("None")) =>
                {
                    g.nodes[id].taints.push((
                        TaintKind::Socket,
                        Site {
                            line: t.line,
                            col: t.col,
                            what: format!("{}(None)", t.text),
                        },
                    ));
                }
                name => {
                    if let Some(ids) = idx.methods.get(name) {
                        for &to in ids {
                            g.nodes[id].calls.push(Edge {
                                to,
                                kind: EdgeKind::MethodName,
                                line: t.line,
                            });
                        }
                    }
                }
            }
            k += 1;
            continue;
        }
        if called && !prev_dot && !(k > 0 && tok(k - 1).is_some_and(|p| p.is_ident("fn"))) {
            // Reconstruct a leading path (`a :: b :: name`).
            let mut segs: Vec<String> = vec![t.text.clone()];
            let mut j = k;
            while j >= 3
                && tok(j - 1).is_some_and(|p| p.is_punct(':'))
                && tok(j - 2).is_some_and(|p| p.is_punct(':'))
                && tok(j - 3).is_some_and(|p| p.kind == TokKind::Ident)
            {
                segs.push(tok(j - 3).map(|p| p.text.clone()).unwrap_or_default());
                j -= 3;
            }
            segs.reverse();
            let targets = resolve_call(idx, file, crate_key, d, &segs);
            for (to, kind) in targets {
                g.nodes[id].calls.push(Edge {
                    to,
                    kind,
                    line: t.line,
                });
            }
            k += 1;
            continue;
        }
        // Static references: bare name, or resolved through a path that
        // stayed in this crate. Skip the `NAME` in `NAME ::` position —
        // that's a path prefix (type or module), not a static read.
        if !prev_dot && !tok(k + 1).is_some_and(|n| n.is_punct(':')) {
            let in_path = k >= 2
                && tok(k - 1).is_some_and(|p| p.is_punct(':'))
                && tok(k - 2).is_some_and(|p| p.is_punct(':'));
            if !in_path {
                if let Some(&sid) = idx.statics.get(&(crate_key.clone(), t.text.clone())) {
                    g.nodes[id].static_refs.push((
                        sid,
                        Site {
                            line: t.line,
                            col: t.col,
                            what: t.text.clone(),
                        },
                    ));
                }
            }
        }
        k += 1;
    }
}

/// Resolves a (possibly multi-segment) call path to candidate nodes.
fn resolve_call(
    idx: &Indexes,
    file: &SourceFile,
    crate_key: &str,
    d: &FnDecl,
    segs: &[String],
) -> Vec<(usize, EdgeKind)> {
    let mut segs: Vec<String> = segs.to_vec();
    // Normalize leading `crate` / `self` / `super` to "this crate".
    while segs
        .first()
        .is_some_and(|s| s == "crate" || s == "self" || s == "super")
    {
        segs.remove(0);
    }
    if segs.is_empty() {
        return Vec::new();
    }
    // Splice a use-alias for the first segment, unless the segment
    // already names an extern crate.
    if crate_key_of(&segs[0]).is_none() {
        if let Some(u) = file.tree.uses.iter().find(|u| u.alias == segs[0]) {
            let mut spliced = u.path.clone();
            spliced.extend(segs[1..].iter().cloned());
            segs = spliced;
            while segs
                .first()
                .is_some_and(|s| s == "crate" || s == "self" || s == "super")
            {
                segs.remove(0);
            }
        }
    }
    let (target_crate, rest): (Option<String>, &[String]) = match crate_key_of(&segs[0]) {
        Some(key) => (Some(key), &segs[1..]),
        None => (None, &segs[..]),
    };
    if rest.is_empty() {
        return Vec::new();
    }
    let name = rest[rest.len() - 1].clone();
    let qual = rest.len().checked_sub(2).map(|i| rest[i].as_str());

    match qual {
        // `Type::name` / `Self::name`: impl-method resolution.
        Some(q) if is_type_like(q) || q == "Self" => {
            let ty = if q == "Self" {
                match &d.self_ty {
                    Some(t) => t.clone(),
                    None => return Vec::new(),
                }
            } else {
                q.to_string()
            };
            if let Some(ids) = idx.ty_methods.get(&(ty, name.clone())) {
                return ids.iter().map(|&i| (i, EdgeKind::Exact)).collect();
            }
            // Unknown type (std, enum variant, …): if the crate is known,
            // fall back to name resolution inside it.
            if let Some(c) = target_crate {
                if let Some(ids) = idx.by_crate_name.get(&(c, name)) {
                    return ids.iter().map(|&i| (i, EdgeKind::Exact)).collect();
                }
            }
            Vec::new()
        }
        // `module::name` within a known crate, or plain `name`.
        _ => {
            let c = target_crate.unwrap_or_else(|| crate_key.to_string());
            // A multi-segment path resolves as if its head were a module
            // of this crate ("the crate defines fn `name`"); std paths
            // (`std::mem::take`) fall through to the same lookup and miss.
            match idx.by_crate_name.get(&(c, name)) {
                Some(ids) => ids.iter().map(|&i| (i, EdgeKind::Exact)).collect(),
                None => Vec::new(),
            }
        }
    }
}

/// A static referenced on a reachable path, with its resolved metadata —
/// convenience for rule I3.
#[derive(Debug)]
pub struct StaticUse<'g> {
    /// The referencing node.
    pub node: usize,
    /// The referenced static.
    pub st: &'g StaticNode,
    /// Where in the node's body.
    pub site: Site,
}

impl Graph {
    /// All static references made by `reachable` nodes, in node order.
    pub fn static_uses<'g>(&'g self, parent: &[Option<usize>]) -> Vec<StaticUse<'g>> {
        let mut out = Vec::new();
        for (id, n) in self.nodes.iter().enumerate() {
            if parent.get(id).is_some_and(Option::is_some) {
                for (sid, site) in &n.static_refs {
                    out.push(StaticUse {
                        node: id,
                        st: &self.statics[*sid],
                        site: site.clone(),
                    });
                }
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn file(path: &str, crate_key: &str, src: &str) -> SourceFile {
        SourceFile::analyze(path, crate_key, false, src)
    }

    fn node<'g>(g: &'g Graph, key: &str) -> (usize, &'g Node) {
        g.nodes
            .iter()
            .enumerate()
            .find(|(_, n)| n.key == key)
            .unwrap_or_else(|| panic!("no node {key}"))
    }

    #[test]
    fn bare_and_path_calls_resolve() {
        let files = vec![
            file(
                "crates/a/src/lib.rs",
                "a",
                "pub fn entry() { helper(); rperf_b::far(); }\nfn helper() { b::mid(); }\nmod b { pub fn mid() {} }",
            ),
            file("crates/b/src/lib.rs", "b", "pub fn far() {}"),
        ];
        let g = Graph::build(&files);
        let (entry, n) = node(&g, "a::entry");
        let callees: Vec<&str> = n.calls.iter().map(|e| g.nodes[e.to].key.as_str()).collect();
        assert!(callees.contains(&"a::helper"), "{callees:?}");
        assert!(callees.contains(&"b::far"), "{callees:?}");
        let reach = g.reach(&[entry]);
        let (mid, _) = node(&g, "a::mid");
        assert!(reach[mid].is_some(), "entry -> helper -> b::mid");
    }

    #[test]
    fn method_calls_overapproximate_and_chain_renders() {
        let files = vec![file(
            "crates/a/src/lib.rs",
            "a",
            "pub fn entry(w: &mut W) { w.step(); }\n\
             struct W;\nimpl W { fn step(&mut self) { deep(); } }\n\
             fn deep() { panic!(\"boom\"); }",
        )];
        let g = Graph::build(&files);
        let (entry, _) = node(&g, "a::entry");
        let reach = g.reach(&[entry]);
        let (deep, dn) = node(&g, "a::deep");
        assert!(reach[deep].is_some());
        assert_eq!(dn.panics.len(), 1);
        assert_eq!(g.chain(&reach, deep), "a::entry -> a::W::step -> a::deep");
    }

    #[test]
    fn long_chains_render_in_full() {
        let files = vec![file(
            "crates/a/src/lib.rs",
            "a",
            "pub fn f1() { f2(); }\nfn f2() { f3(); }\nfn f3() { f4(); }\n\
             fn f4() { f5(); }\nfn f5() { f6(); }\nfn f6() {}",
        )];
        let g = Graph::build(&files);
        let (f1, _) = node(&g, "a::f1");
        let (f6, _) = node(&g, "a::f6");
        assert_eq!(
            g.chain(&g.reach(&[f1]), f6),
            "a::f1 -> a::f2 -> a::f3 -> a::f4 -> a::f5 -> a::f6"
        );
    }

    #[test]
    fn use_aliases_and_taints() {
        let files = vec![
            file(
                "crates/a/src/lib.rs",
                "a",
                "use rperf_b::far as away;\npub fn entry() { away(); }",
            ),
            file(
                "crates/b/src/lib.rs",
                "b",
                "pub fn far() { let x = thread_rng(); }",
            ),
        ];
        let g = Graph::build(&files);
        let (entry, _) = node(&g, "a::entry");
        let reach = g.reach(&[entry]);
        let (far, fnode) = node(&g, "b::far");
        assert!(reach[far].is_some(), "alias call resolves cross-crate");
        assert_eq!(fnode.taints.len(), 1);
        assert_eq!(fnode.taints[0].0, TaintKind::Rng);
    }

    #[test]
    fn debug_assert_and_cfg_test_are_pruned() {
        let files = vec![file(
            "crates/a/src/lib.rs",
            "a",
            "pub fn hot(v: u32) { debug_assert!(check(v), \"bad {}\", v); }\n\
             fn check(v: u32) -> bool { v.checked_add(1).unwrap() > 0 }\n\
             #[cfg(test)]\nmod tests { pub fn t() { panic!(\"x\"); } }",
        )];
        let g = Graph::build(&files);
        let (hot, hn) = node(&g, "a::hot");
        assert!(hn.calls.is_empty(), "debug_assert args are not edges");
        assert!(hn.panics.is_empty());
        let reach = g.reach(&[hot]);
        let (check, _) = node(&g, "a::check");
        assert!(reach[check].is_none());
        assert!(!g.nodes.iter().any(|n| n.name == "t"), "test fns excluded");
    }

    #[test]
    fn statics_and_entry_patterns() {
        let files = vec![file(
            "crates/a/src/lib.rs",
            "a",
            "static EVENTS: AtomicU64 = AtomicU64::new(0);\nstatic TBL: [u8; 2] = [0, 0];\n\
             pub struct W;\nimpl W { pub fn run_window(&self) { EVENTS.fetch_add(1, O); tick(); } }\n\
             fn tick() { let _x = TBL[0]; }\npub fn fig4() {}\npub fn fig5() {}",
        )];
        let g = Graph::build(&files);
        assert_eq!(g.statics.len(), 2);
        let entries = g.match_entries(&["W::run_window".to_string()]);
        assert_eq!(entries.len(), 1);
        let reach = g.reach(&entries);
        let uses = g.static_uses(&reach);
        let names: Vec<&str> = uses.iter().map(|u| u.st.name.as_str()).collect();
        assert_eq!(names, ["EVENTS", "TBL"]);
        assert!(uses[0].st.is_atomic && !uses[1].st.is_atomic);
        assert_eq!(g.match_entries(&["a::fig*".to_string()]).len(), 2);
        assert_eq!(g.match_entries(&["a::run_window".to_string()]).len(), 1);
    }
}
