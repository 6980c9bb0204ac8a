//! Fuzz suite for the lint front end (DESIGN.md §5.1): the lexer, the
//! item-tree parser, and the call-graph builder must never panic — on
//! random byte soup, on Rust-shaped token soup, or on truncated and
//! byte-mutated copies of real workspace sources — and every span they
//! report must land inside the input.
//!
//! The linter runs on every `make ci`; a panic on a half-saved file
//! would take the whole gate down, so "never panic, report what you
//! can" is part of the tool's contract (`lexer` module docs).

use proptest::prelude::*;
use rperf_lint::graph::Graph;
use rperf_lint::lexer::lex;
use rperf_lint::parse;
use rperf_lint::SourceFile;

/// Real workspace sources used as mutation seeds: the linter's own
/// front end (self-hosting makes regressions immediate) plus the
/// hot-loop code the interprocedural rules care most about.
const SEEDS: &[&str] = &[
    include_str!("../src/lexer.rs"),
    include_str!("../src/parse.rs"),
    include_str!("../src/graph.rs"),
    include_str!("../../fabric/src/sim.rs"),
];

/// Fragments that collide into plausible-but-broken Rust: item
/// keywords, attribute syntax, unterminated literals, doc comments.
const VOCAB: &[&str] = &[
    "fn",
    "pub",
    "impl",
    "mod",
    "use",
    "static",
    "struct",
    "trait",
    "for",
    "where",
    "dyn",
    "mut",
    "self",
    "Self",
    "crate",
    "as",
    "#",
    "!",
    "[",
    "]",
    "(",
    ")",
    "{",
    "}",
    "<",
    ">",
    "cfg",
    "test",
    "feature",
    "=",
    "\"name\"",
    ":",
    ";",
    ",",
    "-",
    ">",
    "&",
    "'a",
    "f",
    "g",
    "World",
    "Atomic",
    "unwrap",
    "expect",
    "panic",
    "debug_assert",
    ".",
    "::",
    "0x1F",
    "1.5e9",
    "b'x'",
    "r#\"raw\"#",
    "r#fn",
    "\"unterminated",
    "'q",
    "/*",
    "*/",
    "// line",
    "/// doc",
    "//! inner",
    "/** block */",
];

/// Every check the fuzzers share: lex, assert spans, parse, assert item
/// positions, build the graph, walk it.
fn front_end_never_panics(src: &str) {
    let tokens = lex(src);
    let lines: Vec<&str> = src.split('\n').collect();
    for t in &tokens {
        assert!(
            t.line >= 1 && (t.line as usize) <= lines.len(),
            "line {} out of bounds",
            t.line
        );
        let on_line = lines[t.line as usize - 1].chars().count();
        assert!(
            t.col >= 1 && (t.col as usize) <= on_line,
            "col {} out of bounds on line {} ({} chars)",
            t.col,
            t.line,
            on_line
        );
        assert!(!t.text.is_empty(), "empty token at {}:{}", t.line, t.col);
    }

    let tree = parse::parse(&tokens);
    for f in &tree.fns {
        if let Some((a, b)) = f.body {
            assert!(
                a <= b && b < tokens.len(),
                "fn `{}` body {a}..{b} out of bounds",
                f.name
            );
        }
        assert!(f.line >= 1 && (f.line as usize) <= lines.len());
    }
    for s in &tree.statics {
        assert!(s.line >= 1 && (s.line as usize) <= lines.len());
    }

    // The graph builder consumes whatever the parser produced; it must
    // hold up even when the item tree came from garbage.
    let file = SourceFile::analyze("fuzz/input.rs", "fuzz", false, src);
    let graph = Graph::build(std::slice::from_ref(&file));
    let entries = graph.match_entries(&["fuzz::f*".to_string(), "World::g".to_string()]);
    let parent = graph.reach(&entries);
    for (id, p) in parent.iter().enumerate() {
        if p.is_some() {
            // Rendering a chain exercises the parent-pointer walk.
            let _ = graph.chain(&parent, id);
        }
    }
}

proptest! {
    /// Arbitrary bytes (lossily decoded): the lexer's "never fails"
    /// contract on inputs that are not Rust at all.
    #[test]
    fn byte_soup_never_panics(bytes in prop::collection::vec(any::<u8>(), 0..512)) {
        let src = String::from_utf8_lossy(&bytes);
        front_end_never_panics(&src);
    }

    /// Rust-shaped fragment collisions: unterminated strings next to
    /// attribute openers, doc comments mid-item, stray braces.
    #[test]
    fn token_soup_never_panics(
        picks in prop::collection::vec(prop::sample::select(VOCAB.to_vec()), 0..96),
        glue in any::<bool>(),
    ) {
        let sep = if glue { "" } else { " " };
        let src = picks.join(sep);
        front_end_never_panics(&src);
    }

    /// Real workspace sources truncated at an arbitrary char boundary:
    /// the half-saved-file case the linter must survive.
    #[test]
    fn truncated_workspace_source_never_panics(seed in 0usize..4, frac in 0u32..1000) {
        let full = SEEDS[seed];
        let cut = (full.len() as u64 * u64::from(frac) / 1000) as usize;
        let mut end = cut.min(full.len());
        while !full.is_char_boundary(end) {
            end -= 1;
        }
        front_end_never_panics(&full[..end]);
    }

    /// Real workspace sources with one byte overwritten (then lossily
    /// re-decoded): single-keystroke corruption anywhere in the file.
    #[test]
    fn mutated_workspace_source_never_panics(
        seed in 0usize..4,
        pos in any::<u32>(),
        byte in any::<u8>(),
    ) {
        let mut bytes = SEEDS[seed].as_bytes().to_vec();
        let at = pos as usize % bytes.len();
        bytes[at] = byte;
        let src = String::from_utf8_lossy(&bytes);
        front_end_never_panics(&src);
    }
}

/// Nesting far past the parser's recursion guard (`MAX_DEPTH`): the
/// parser must flatten, not overflow the stack.
#[test]
fn pathological_nesting_never_panics() {
    let mut src = String::new();
    for i in 0..512 {
        src.push_str(&format!("mod m{i} {{ impl T{i} {{ fn f{i}() {{"));
    }
    src.push_str("panic!(\"deep\");");
    for _ in 0..512 {
        src.push_str("} } }");
    }
    front_end_never_panics(&src);
}

/// The seed files themselves — uncorrupted — must of course pass the
/// same span invariants.
#[test]
fn pristine_seeds_hold_invariants() {
    for seed in SEEDS {
        front_end_never_panics(seed);
    }
}
