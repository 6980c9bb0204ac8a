//! A hand-written recursive-descent item parser on top of [`crate::lexer`].
//!
//! The token-level rules (D1–D9) match short token sequences and never
//! resolve names; the interprocedural rules (I1–I4, [`crate::inter`])
//! need more: which functions a file defines, which impl/trait each one
//! belongs to, what it imports, which items are `#[cfg(test)]`-gated,
//! and where each function's body starts and ends. This
//! module extracts exactly that — an [`ItemTree`] of functions, statics
//! and use-declarations with spans — without attempting to be a full
//! Rust parser: expression bodies stay opaque token ranges (the call
//! graph scans them separately), and anything the parser does not
//! recognize is skipped token-by-token.
//!
//! Robustness contract (enforced by the fuzz suite in
//! `tests/prop_parser.rs`): `parse` never panics on any byte sequence,
//! every recorded span refers to a real token, and every body range is
//! in-bounds and well-ordered. Malformed input degrades to *fewer*
//! recognized items, never to a crash — the compiler, not the linter,
//! reports broken Rust.

use crate::lexer::{TokKind, Token};

/// One `fn` item (free function, inherent/trait-impl method, or trait
/// method with a default body).
#[derive(Debug, Clone)]
pub struct FnDecl {
    /// Bare function name.
    pub name: String,
    /// Self type of the enclosing `impl` (or trait, for default
    /// methods): `impl World for WorldState` records `WorldState`.
    pub self_ty: Option<String>,
    /// Trait name when inside `impl Trait for Type` or a `trait` block.
    pub trait_name: Option<String>,
    /// Enclosing inline-module path within the file.
    pub module: Vec<String>,
    /// True when declared `pub` (any visibility scope).
    pub is_pub: bool,
    /// Concatenated outer doc-comment text (`///` lines, `/** */`).
    pub doc: String,
    /// True when the item (or an enclosing mod/impl) is gated by
    /// `#[cfg(test)]` or `#[test]`.
    pub in_test: bool,
    /// Raw token-index range of the body `{ … }`, braces inclusive.
    /// `None` for bodiless declarations (trait method signatures).
    pub body: Option<(usize, usize)>,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// 1-based column of the `fn` keyword.
    pub col: u32,
}

/// One `static` item.
#[derive(Debug, Clone)]
pub struct StaticDecl {
    /// Item name.
    pub name: String,
    /// The declared type, as source text with single spaces between
    /// tokens (e.g. `AtomicU64`, `[AtomicU64 ; KINDS]`).
    pub ty: String,
    /// True when the type mentions an `Atomic*` ident — the only class
    /// of static the run-purity rule (I3) can ever exempt.
    pub is_atomic: bool,
    /// True when test-gated (see [`FnDecl::in_test`]).
    pub in_test: bool,
    /// 1-based line of the `static` keyword.
    pub line: u32,
    /// 1-based column of the `static` keyword.
    pub col: u32,
}

/// One leaf of a `use` declaration: `use a::b::{c, d as e}` yields two
/// entries with aliases `c` and `e`.
#[derive(Debug, Clone)]
pub struct UseDecl {
    /// The name the import binds locally (`*` for glob imports).
    pub alias: String,
    /// Full path segments as written (`["rperf_sim", "rng", "SimRng"]`).
    pub path: Vec<String>,
}

/// Everything the parser extracts from one file.
#[derive(Debug, Clone, Default)]
pub struct ItemTree {
    /// Function items in source order.
    pub fns: Vec<FnDecl>,
    /// Static items in source order.
    pub statics: Vec<StaticDecl>,
    /// Flattened use-declaration leaves in source order.
    pub uses: Vec<UseDecl>,
}

/// Inherited context: module path, impl/trait scope, test gate.
#[derive(Debug, Clone, Default)]
struct Ctx {
    module: Vec<String>,
    self_ty: Option<String>,
    trait_name: Option<String>,
    in_test: bool,
}

struct Parser<'a> {
    /// All tokens of the file.
    toks: &'a [Token],
    /// Indices of tokens that are not plain comments (doc comments kept,
    /// so the item loop can attach them to the following item).
    x: Vec<usize>,
    /// Cursor: position into `x`.
    pos: usize,
    out: ItemTree,
    /// Recursion-depth guard: adversarial inputs can nest mods/impls
    /// arbitrarily deep; beyond this the parser flattens (skips bodies).
    depth: usize,
}

const MAX_DEPTH: usize = 64;

/// Parses the token stream of one file into its [`ItemTree`].
pub fn parse(tokens: &[Token]) -> ItemTree {
    let x: Vec<usize> = tokens
        .iter()
        .enumerate()
        .filter(|(_, t)| t.kind != TokKind::Comment)
        .map(|(i, _)| i)
        .collect();
    let end = x.len();
    let mut p = Parser {
        toks: tokens,
        x,
        pos: 0,
        out: ItemTree::default(),
        depth: 0,
    };
    p.items(&Ctx::default(), end);
    p.out
}

impl Parser<'_> {
    fn tok(&self, p: usize) -> Option<&Token> {
        self.x.get(p).map(|&i| &self.toks[i])
    }

    fn is_punct(&self, p: usize, c: char) -> bool {
        self.tok(p).is_some_and(|t| t.is_punct(c))
    }

    fn is_ident(&self, p: usize, s: &str) -> bool {
        self.tok(p).is_some_and(|t| t.is_ident(s))
    }

    /// Position (into `x`) of the token matching the `open` delimiter at
    /// `self.x[at]`, scanning no further than `end`.
    fn matching(&self, at: usize, o: char, c: char, end: usize) -> Option<usize> {
        let mut depth = 0isize;
        let mut p = at;
        while p < end.min(self.x.len()) {
            let t = &self.toks[self.x[p]];
            if t.is_punct(o) {
                depth += 1;
            } else if t.is_punct(c) {
                depth -= 1;
                if depth == 0 {
                    return Some(p);
                }
            }
            p += 1;
        }
        None
    }

    /// Skips a generics list starting at a `<`, honouring `->`/`=>`
    /// (whose `>` is not a closer). Returns the position after the
    /// closing `>`, or `end` when unbalanced.
    fn skip_angles(&self, at: usize, end: usize) -> usize {
        let mut depth = 0isize;
        let mut p = at;
        while p < end {
            let t = &self.toks[self.x[p]];
            if t.is_punct('<') {
                depth += 1;
            } else if t.is_punct('>') {
                let arrow = p > 0
                    && self
                        .tok(p - 1)
                        .is_some_and(|q| q.is_punct('-') || q.is_punct('='));
                if !arrow {
                    depth -= 1;
                    if depth <= 0 {
                        return p + 1;
                    }
                }
            }
            p += 1;
        }
        end
    }

    /// Advances to just past the next `;` at delimiter depth 0 (or to
    /// `end`). Used to skip consts, types, `use`-tails and broken items.
    fn skip_to_semi(&mut self, end: usize) {
        let (mut par, mut brk, mut brc) = (0isize, 0isize, 0isize);
        while self.pos < end {
            let t = &self.toks[self.x[self.pos]];
            match t.text.as_str() {
                "(" => par += 1,
                ")" => par -= 1,
                "[" => brk += 1,
                "]" => brk -= 1,
                "{" => brc += 1,
                "}" => {
                    brc -= 1;
                    // A stray close brace ends the enclosing scope: stop
                    // *before* it so the caller's recursion unwinds.
                    if brc < 0 {
                        return;
                    }
                }
                ";" if par <= 0 && brk <= 0 && brc <= 0 => {
                    self.pos += 1;
                    return;
                }
                _ => {}
            }
            self.pos += 1;
        }
    }

    /// Parses one attribute `#[…]` at `pos` (the `#`), setting `test`
    /// on `#[test]` and `#[cfg(test)]`. Inner attributes `#![…]` are
    /// skipped without touching it.
    fn attr(&mut self, test: &mut bool, end: usize) {
        let inner = self.is_punct(self.pos + 1, '!');
        let open = self.pos + if inner { 2 } else { 1 };
        if !self.is_punct(open, '[') {
            self.pos += 1;
            return;
        }
        let Some(close) = self.matching(open, '[', ']', end) else {
            self.pos = end;
            return;
        };
        if !inner {
            let body: Vec<&Token> = (open + 1..close).filter_map(|p| self.tok(p)).collect();
            match body.first() {
                Some(t) if t.is_ident("test") => *test = true,
                Some(t) if t.is_ident("cfg") => {
                    let negated = body.iter().any(|t| t.is_ident("not"));
                    if !negated && body.iter().any(|t| t.is_ident("test")) {
                        *test = true;
                    }
                }
                _ => {}
            }
        }
        self.pos = close + 1;
    }

    /// The item loop: parses items until `end` (exclusive) or a stray
    /// closing brace.
    fn items(&mut self, ctx: &Ctx, end: usize) {
        let mut doc = String::new();
        let mut test = false;
        while self.pos < end {
            let Some(t) = self.tok(self.pos) else { break };
            match t.kind {
                TokKind::DocComment => {
                    // Outer docs attach to the next item; inner docs
                    // (`//!`, `/*!`) document the enclosing scope.
                    if !(t.text.starts_with("//!") || t.text.starts_with("/*!")) {
                        doc.push_str(&t.text);
                        doc.push('\n');
                    }
                    self.pos += 1;
                    continue;
                }
                TokKind::Punct if t.text == "#" => {
                    self.attr(&mut test, end);
                    continue;
                }
                TokKind::Punct if t.text == "}" => return, // scope ends
                TokKind::Ident => {}
                _ => {
                    doc.clear();
                    test = false;
                    self.pos += 1;
                    continue;
                }
            }
            // Leading modifiers. (`tok` borrows `self`, so `while let`
            // cannot span the `pos` mutations below.)
            let mut is_pub = false;
            let start = self.pos;
            #[allow(clippy::while_let_loop)]
            loop {
                let Some(t) = self.tok(self.pos) else { break };
                match t.text.as_str() {
                    "pub" => {
                        is_pub = true;
                        self.pos += 1;
                        if self.is_punct(self.pos, '(') {
                            match self.matching(self.pos, '(', ')', end) {
                                Some(c) => self.pos = c + 1,
                                None => self.pos = end,
                            }
                        }
                    }
                    "default" | "const" | "async" | "unsafe" => {
                        // `const NAME: …` (a const item, not `const fn`)
                        // is handled below once no `fn` follows.
                        if t.text == "const" && !self.is_ident(self.pos + 1, "fn") {
                            break;
                        }
                        self.pos += 1;
                    }
                    "extern" => {
                        self.pos += 1;
                        if self.tok(self.pos).is_some_and(|t| t.kind == TokKind::Str) {
                            self.pos += 1;
                        }
                    }
                    _ => break,
                }
            }
            let kw = self.tok(self.pos).cloned();
            let Some(kw) = kw.filter(|t| t.kind == TokKind::Ident) else {
                // Modifiers with no recognizable item after them.
                if self.pos == start {
                    self.pos += 1;
                }
                doc.clear();
                test = false;
                continue;
            };
            match kw.text.as_str() {
                "fn" => {
                    self.fn_item(ctx, &doc, test, is_pub, &kw, end);
                }
                "mod" => {
                    self.pos += 1;
                    let name = self
                        .tok(self.pos)
                        .filter(|t| t.kind == TokKind::Ident)
                        .map(|t| t.text.clone());
                    self.pos += 1;
                    if self.is_punct(self.pos, '{') {
                        let close = self.matching(self.pos, '{', '}', end);
                        let body_end = close.unwrap_or(end);
                        let mut inner = ctx.clone();
                        if let Some(n) = name {
                            inner.module.push(n);
                        }
                        inner.in_test |= test;
                        self.pos += 1; // into the block
                        if self.depth < MAX_DEPTH {
                            self.depth += 1;
                            self.items(&inner, body_end);
                            self.depth -= 1;
                        }
                        self.pos = body_end.saturating_add(1).min(end);
                    } else {
                        self.skip_to_semi(end);
                    }
                }
                "impl" => self.impl_or_trait_item(ctx, test, false, end),
                "trait" => self.impl_or_trait_item(ctx, test, true, end),
                "use" => {
                    self.pos += 1;
                    let mut leaves = Vec::new();
                    self.use_tree(&mut Vec::new(), &mut leaves);
                    self.out.uses.extend(leaves);
                    self.skip_to_semi(end);
                }
                "static" => {
                    self.static_item(test, ctx, &kw, end);
                }
                "struct" | "enum" | "union" | "type" | "const" => {
                    // Skip to the item terminator: `;` or a brace block.
                    // Past a `=`, a `<` is an operator (`1 << BITS`), not
                    // a generics list to balance.
                    self.pos += 1;
                    let mut in_expr = false;
                    while self.pos < end {
                        let Some(t) = self.tok(self.pos) else { break };
                        if t.is_punct('=') {
                            in_expr = true;
                        }
                        if t.is_punct('<') && !in_expr {
                            self.pos = self.skip_angles(self.pos, end);
                            continue;
                        }
                        if t.is_punct('{') {
                            match self.matching(self.pos, '{', '}', end) {
                                Some(c) => self.pos = c + 1,
                                None => self.pos = end,
                            }
                            break;
                        }
                        if t.is_punct(';') {
                            self.pos += 1;
                            break;
                        }
                        if t.is_punct('}') {
                            break; // stray close: scope ends above us
                        }
                        self.pos += 1;
                    }
                }
                "macro_rules" => {
                    self.pos += 1; // `!`, name, then a delimited body
                    while self.pos < end {
                        let Some(t) = self.tok(self.pos) else { break };
                        if t.is_punct('{') {
                            match self.matching(self.pos, '{', '}', end) {
                                Some(c) => self.pos = c + 1,
                                None => self.pos = end,
                            }
                            break;
                        }
                        if t.is_punct(';') {
                            self.pos += 1;
                            break;
                        }
                        self.pos += 1;
                    }
                }
                "crate" => {
                    // `extern crate name;` had its `extern` consumed.
                    self.skip_to_semi(end);
                }
                _ => {
                    // Unknown ident at item position: most likely a
                    // macro invocation item (`thread_local! { … }`).
                    if self.is_punct(self.pos + 1, '!') {
                        self.pos += 2;
                        while self.pos < end {
                            let Some(t) = self.tok(self.pos) else { break };
                            if t.is_punct('{') || t.is_punct('(') || t.is_punct('[') {
                                let (o, c) = match t.text.as_str() {
                                    "(" => ('(', ')'),
                                    "[" => ('[', ']'),
                                    _ => ('{', '}'),
                                };
                                match self.matching(self.pos, o, c, end) {
                                    Some(cl) => self.pos = cl + 1,
                                    None => self.pos = end,
                                }
                                break;
                            }
                            if t.is_punct(';') || t.is_punct('}') {
                                break;
                            }
                            self.pos += 1;
                        }
                        if self.is_punct(self.pos, ';') {
                            self.pos += 1;
                        }
                    } else {
                        self.pos += 1;
                    }
                }
            }
            doc.clear();
            test = false;
        }
    }

    /// Parses a `fn` item starting at the `fn` keyword.
    fn fn_item(&mut self, ctx: &Ctx, doc: &str, test: bool, is_pub: bool, kw: &Token, end: usize) {
        self.pos += 1; // past `fn`
        let Some(name_tok) = self.tok(self.pos).filter(|t| t.kind == TokKind::Ident) else {
            // `fn (` is a fn-pointer type fragment, not an item.
            return;
        };
        let name = name_tok.text.clone();
        self.pos += 1;
        if self.is_punct(self.pos, '<') {
            self.pos = self.skip_angles(self.pos, end);
        }
        if self.is_punct(self.pos, '(') {
            match self.matching(self.pos, '(', ')', end) {
                Some(c) => self.pos = c + 1,
                None => {
                    self.pos = end;
                    return;
                }
            }
        }
        // Return type / where clause: scan to the body `{` or a `;`,
        // stepping over generics and over bracketed and parenthesized
        // types, whose `;` (`-> [u64; 8]`) does not end the item.
        let mut body = None;
        while self.pos < end {
            let Some(t) = self.tok(self.pos) else { break };
            if t.is_punct('<') {
                self.pos = self.skip_angles(self.pos, end);
                continue;
            }
            if t.is_punct('[') || t.is_punct('(') {
                let (o, c) = if t.is_punct('[') {
                    ('[', ']')
                } else {
                    ('(', ')')
                };
                self.pos = self.matching(self.pos, o, c, end).map_or(end, |c| c + 1);
                continue;
            }
            if t.is_punct('{') {
                match self.matching(self.pos, '{', '}', end) {
                    Some(c) => {
                        body = Some((self.x[self.pos], self.x[c]));
                        self.pos = c + 1;
                    }
                    None => self.pos = end,
                }
                break;
            }
            if t.is_punct(';') {
                self.pos += 1;
                break;
            }
            if t.is_punct('}') {
                break;
            }
            self.pos += 1;
        }
        self.out.fns.push(FnDecl {
            name,
            self_ty: ctx.self_ty.clone(),
            trait_name: ctx.trait_name.clone(),
            module: ctx.module.clone(),
            is_pub: is_pub || ctx.trait_name.is_some() && ctx.self_ty == ctx.trait_name,
            doc: doc.to_string(),
            in_test: ctx.in_test || test,
            body,
            line: kw.line,
            col: kw.col,
        });
    }

    /// Parses an `impl` or `trait` block header and recurses into its
    /// body with the self-type/trait context set.
    fn impl_or_trait_item(&mut self, ctx: &Ctx, test: bool, is_trait: bool, end: usize) {
        self.pos += 1; // past `impl`/`trait`
        if self.is_punct(self.pos, '<') {
            self.pos = self.skip_angles(self.pos, end);
        }
        // Collect the header idents up to `{`, splitting at `for`.
        let mut before_for: Vec<String> = Vec::new();
        let mut after_for: Vec<String> = Vec::new();
        let mut seen_for = false;
        while self.pos < end {
            let Some(t) = self.tok(self.pos) else { break };
            if t.is_punct('<') {
                self.pos = self.skip_angles(self.pos, end);
                continue;
            }
            if t.is_punct('{') {
                break;
            }
            if t.is_punct(';') || t.is_punct('}') {
                // `trait Foo;` is not Rust, but broken input must not
                // derail the scope: treat as an empty item.
                self.pos += 1;
                return;
            }
            if t.is_ident("for") {
                seen_for = true;
            } else if t.is_ident("where") {
                // Bounds follow; the idents there are not the self type.
                while self.pos < end {
                    let Some(w) = self.tok(self.pos) else { break };
                    if w.is_punct('{') {
                        break;
                    }
                    if w.is_punct('<') {
                        self.pos = self.skip_angles(self.pos, end);
                        continue;
                    }
                    self.pos += 1;
                }
                continue;
            } else if t.kind == TokKind::Ident
                && !matches!(t.text.as_str(), "dyn" | "mut" | "crate" | "self" | "super")
            {
                if seen_for {
                    after_for.push(t.text.clone());
                } else {
                    before_for.push(t.text.clone());
                }
            }
            self.pos += 1;
        }
        let (trait_name, self_ty) = if is_trait {
            let n = before_for.first().cloned();
            (n.clone(), n)
        } else if seen_for {
            (before_for.last().cloned(), after_for.last().cloned())
        } else {
            (None, before_for.last().cloned())
        };
        if !self.is_punct(self.pos, '{') {
            return;
        }
        let close = self.matching(self.pos, '{', '}', end);
        let body_end = close.unwrap_or(end);
        let mut inner = ctx.clone();
        inner.self_ty = self_ty;
        inner.trait_name = trait_name;
        inner.in_test |= test;
        self.pos += 1;
        if self.depth < MAX_DEPTH {
            self.depth += 1;
            self.items(&inner, body_end);
            self.depth -= 1;
        }
        self.pos = body_end.saturating_add(1).min(end);
    }

    /// Parses one branch of a use tree; `prefix` is the path so far.
    /// (`tok` borrows `self`, so `while let` cannot span the `pos`
    /// mutations below — the `loop`/`let-else` shape is deliberate.)
    #[allow(clippy::while_let_loop)]
    fn use_tree(&mut self, prefix: &mut Vec<String>, out: &mut Vec<UseDecl>) {
        let depth0 = prefix.len();
        loop {
            let Some(t) = self.tok(self.pos) else { break };
            if t.kind == TokKind::Ident && t.text != "as" {
                prefix.push(t.text.clone());
                self.pos += 1;
                if self.is_punct(self.pos, ':') && self.is_punct(self.pos + 1, ':') {
                    self.pos += 2;
                    continue;
                }
                // Leaf, possibly renamed.
                let mut alias = prefix.last().cloned().unwrap_or_default();
                if self.is_ident(self.pos, "as") {
                    self.pos += 1;
                    if let Some(a) = self.tok(self.pos).filter(|t| t.kind == TokKind::Ident) {
                        alias = a.text.clone();
                        self.pos += 1;
                    }
                }
                out.push(UseDecl {
                    alias,
                    path: prefix.clone(),
                });
                break;
            }
            if t.is_punct('*') {
                self.pos += 1;
                out.push(UseDecl {
                    alias: "*".to_string(),
                    path: prefix.clone(),
                });
                break;
            }
            if t.is_punct('{') {
                self.pos += 1;
                loop {
                    let before = self.pos;
                    let mut branch = prefix.clone();
                    self.use_tree(&mut branch, out);
                    if self.is_punct(self.pos, ',') {
                        self.pos += 1;
                        continue;
                    }
                    if self.is_punct(self.pos, '}') {
                        self.pos += 1;
                    }
                    if self.pos == before {
                        self.pos += 1; // guarantee progress on junk
                    }
                    break;
                }
                break;
            }
            break;
        }
        prefix.truncate(depth0);
    }

    /// Parses a `static` item starting at the keyword.
    fn static_item(&mut self, test: bool, ctx: &Ctx, kw: &Token, end: usize) {
        self.pos += 1;
        if self.is_ident(self.pos, "mut") {
            self.pos += 1;
        }
        let Some(name_tok) = self.tok(self.pos).filter(|t| t.kind == TokKind::Ident) else {
            self.skip_to_semi(end);
            return;
        };
        let name = name_tok.text.clone();
        self.pos += 1;
        let mut ty = String::new();
        let mut is_atomic = false;
        if self.is_punct(self.pos, ':') {
            self.pos += 1;
            let (mut par, mut brk) = (0isize, 0isize);
            while self.pos < end {
                let Some(t) = self.tok(self.pos) else { break };
                if (t.is_punct('=') || t.is_punct(';')) && par <= 0 && brk <= 0 {
                    break;
                }
                if t.is_punct('{') || t.is_punct('}') {
                    break;
                }
                match t.text.as_str() {
                    "(" => par += 1,
                    ")" => par -= 1,
                    "[" => brk += 1,
                    "]" => brk -= 1,
                    _ => {}
                }
                if t.kind == TokKind::Ident && t.text.starts_with("Atomic") {
                    is_atomic = true;
                }
                if !ty.is_empty() {
                    ty.push(' ');
                }
                ty.push_str(&t.text);
                self.pos += 1;
            }
        }
        self.skip_to_semi(end);
        self.out.statics.push(StaticDecl {
            name,
            ty,
            is_atomic,
            in_test: ctx.in_test || test,
            line: kw.line,
            col: kw.col,
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;

    fn tree(src: &str) -> ItemTree {
        parse(&lex(src))
    }

    #[test]
    fn free_fns_and_methods() {
        let t = tree(
            r#"
/// Pops in (time, seq) order.
pub fn pop() -> u32 { 0 }

fn helper() {}

impl World for WorldState {
    fn handle(&mut self) { self.handle_one() }
}

impl WorldState {
    pub(crate) fn handle_one(&mut self) {}
}

trait App {
    fn start(&mut self) {}
    fn id(&self) -> u32;
}
"#,
        );
        let names: Vec<&str> = t.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(
            names,
            ["pop", "helper", "handle", "handle_one", "start", "id"]
        );
        assert!(t.fns[0].is_pub && t.fns[0].doc.contains("(time, seq)"));
        assert!(t.fns[0].body.is_some());
        let handle = &t.fns[2];
        assert_eq!(handle.self_ty.as_deref(), Some("WorldState"));
        assert_eq!(handle.trait_name.as_deref(), Some("World"));
        let h1 = &t.fns[3];
        assert_eq!(h1.self_ty.as_deref(), Some("WorldState"));
        assert!(h1.is_pub, "pub(crate) counts as pub");
        assert_eq!(t.fns[4].trait_name.as_deref(), Some("App"));
        assert!(t.fns[5].body.is_none(), "bodiless trait method");
    }

    #[test]
    fn generics_and_where_clauses() {
        let t = tree(
            "pub fn run<W: World, F: Fn(u64) -> bool>(w: &mut W, f: F) -> Outcome \
             where W: Sized { body() }\n\
             fn cmp(a: u32, b: u32) -> bool { a < b }",
        );
        assert_eq!(t.fns.len(), 2);
        assert!(t.fns[0].body.is_some());
        assert_eq!(t.fns[1].name, "cmp");
    }

    #[test]
    fn shifts_in_const_items_do_not_swallow_later_items() {
        let t = tree(
            "const BITS: u32 = 12;\nconst MAX: u64 = (1 << BITS) - 1;\n\
             const CAP: Vec<u8> = Vec::new();\nfn after() -> u64 { MAX }",
        );
        let names: Vec<&str> = t.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["after"]);
    }

    #[test]
    fn modules_inherit_gates() {
        let t = tree(
            "#[cfg(test)]\nmod tests {\n    fn case() {}\n    mod inner { fn deep() {} }\n}\n\
             fn live() {}",
        );
        let by_name = |n: &str| t.fns.iter().find(|f| f.name == n).unwrap();
        assert!(by_name("case").in_test);
        assert!(by_name("deep").in_test);
        assert!(!by_name("live").in_test);
        assert_eq!(by_name("deep").module, vec!["tests", "inner"]);
    }

    #[test]
    fn uses_and_statics() {
        let t = tree(
            "use rperf_sim::{rng::SimRng, EventQueue as Q, shard::*};\n\
             use std::sync::atomic::AtomicU64;\n\
             static EVENTS: AtomicU64 = AtomicU64::new(0);\n\
             static TABLE: [u8; 4] = [0; 4];",
        );
        let aliases: Vec<(&str, String)> = t
            .uses
            .iter()
            .map(|u| (u.alias.as_str(), u.path.join("::")))
            .collect();
        assert!(aliases.contains(&("SimRng", "rperf_sim::rng::SimRng".into())));
        assert!(aliases.contains(&("Q", "rperf_sim::EventQueue".into())));
        assert!(aliases.contains(&("*", "rperf_sim::shard".into())));
        assert_eq!(t.statics.len(), 2);
        assert!(t.statics[0].is_atomic && t.statics[0].ty == "AtomicU64");
        assert!(!t.statics[1].is_atomic);
    }

    #[test]
    fn body_ranges_are_in_bounds() {
        let src = "fn a() { b(); }\nfn b() {}";
        let toks = lex(src);
        let t = parse(&toks);
        for f in &t.fns {
            let (s, e) = f.body.unwrap();
            assert!(s < e && e < toks.len());
            assert!(toks[s].is_punct('{') && toks[e].is_punct('}'));
        }
    }

    #[test]
    fn array_and_tuple_return_types_keep_later_items() {
        // The `;` inside `[u64; 8]` must not end `a` as a bodiless
        // declaration, which would hide every later item in the file.
        let src = "pub fn a() -> [u64; 8] { [0; 8] }\n\
                   fn t() -> ([u8; 2], u8) { ([0; 2], 0) }\n\
                   pub fn b() {}";
        let t = tree(src);
        let names: Vec<&str> = t.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, ["a", "t", "b"]);
        assert!(t.fns.iter().all(|f| f.body.is_some()));
    }

    #[test]
    fn never_panics_on_junk() {
        for src in [
            "fn",
            "fn (",
            "impl",
            "impl {",
            "use ::;",
            "pub pub pub",
            "static :",
            "mod m {",
            "trait T",
            "fn f<T(",
            "#[cfg(",
            "macro_rules!",
            "}} fn ok() {}",
        ] {
            let _ = parse(&lex(src));
        }
    }
}
