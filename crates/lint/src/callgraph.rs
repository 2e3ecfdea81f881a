//! Approximate intra-workspace call graph (the middle of Layer 3).
//!
//! Call sites are token patterns (`ident (` with an optional `::`/`.`
//! qualifier chain); resolution is by name with path heuristics, not by
//! types. The graph deliberately over-approximates in places (an
//! ambiguous method name may resolve to several same-crate candidates)
//! and under-approximates in others (trait-object dispatch, names on the
//! common-method blacklist). Both directions are acceptable for the lock
//! rules: over-approximation produces waivable findings, and the
//! blacklist keeps `len`/`get`/`clone`-grade noise out entirely.

use crate::lexer::{Tok, Token};
use crate::symbols::{SourceFile, Symbols};
use std::collections::BTreeMap;

/// Method/function names never resolved across the graph: they are
/// overwhelmingly std methods, and a workspace function with one of
/// these names would drown the lock rules in false edges.
const COMMON_NAMES: &[&str] = &[
    "new", "default", "len", "is_empty", "push", "pop", "get", "get_mut", "insert", "remove",
    "contains", "contains_key", "clone", "iter", "iter_mut", "into_iter", "next", "collect",
    "map", "filter", "filter_map", "flat_map", "fold", "for_each", "zip", "enumerate", "rev",
    "chain", "find", "any", "all", "position", "count", "sum", "product", "unwrap", "expect",
    "unwrap_or", "unwrap_or_else", "unwrap_or_default", "ok", "err", "ok_or", "ok_or_else",
    "and_then", "or_else", "take", "replace", "clear", "extend", "append", "drain", "split",
    "sort", "sort_by", "sort_by_key", "sort_unstable", "dedup", "binary_search", "cmp", "eq",
    "ne", "hash", "fmt", "from", "into", "try_from", "try_into", "to_string", "to_owned",
    "as_str", "as_ref", "as_mut", "as_slice", "as_bytes", "parse", "drop", "min", "max", "abs",
    "floor", "ceil", "round", "sqrt", "powi", "powf", "load", "store", "swap", "fetch_add",
    "fetch_sub", "compare_exchange", "saturating_add", "saturating_sub", "saturating_mul",
    "checked_add", "checked_sub", "checked_mul", "checked_div", "wrapping_add", "is_some",
    "is_none", "is_ok", "is_err", "is_dir", "is_file", "exists", "display", "to_path_buf",
    "starts_with", "ends_with", "trim", "trim_end", "trim_start", "split_whitespace", "lines",
    "chars", "bytes", "first", "last", "keys", "values", "values_mut", "entry", "or_default",
    "or_insert", "or_insert_with", "get_or_insert_with", "resize", "truncate", "reserve",
    "copied", "cloned", "then", "then_some", "map_err", "map_or", "map_or_else", "retain",
    "windows", "chunks", "concat", "repeat", "format", "write_fmt", "finish", "field", "leak",
];

/// Rust keywords that look like call heads (`if (..)`, `while (..)`,
/// `match (..)`, `return (..)`, ...).
const KEYWORDS: &[&str] = &[
    "if", "else", "while", "for", "loop", "match", "return", "break", "continue", "fn", "let",
    "mut", "ref", "move", "in", "as", "use", "pub", "mod", "impl", "trait", "struct", "enum",
    "static", "const", "unsafe", "extern", "where", "dyn", "type", "self", "Self", "super",
    "crate", "async", "await", "box", "yield",
];

/// One call site inside a function body.
#[derive(Debug, Clone)]
pub struct CallSite {
    /// Index of the *calling* function in `Symbols::fns`.
    pub caller: usize,
    /// Token index of the callee name ident.
    pub tok: usize,
    /// 1-based line of the call.
    pub line: u32,
    /// Candidate callee indices into `Symbols::fns` (deduped, sorted;
    /// empty when the name resolved to nothing in the workspace).
    pub callees: Vec<usize>,
    /// Callee name as written (diagnostics).
    pub name: String,
}

/// The resolved call graph.
#[derive(Debug, Clone, Default)]
pub struct CallGraph {
    /// Every call site, grouped by caller in token order.
    pub sites: Vec<CallSite>,
    /// Adjacency: caller fn index -> sorted deduped callee fn indices.
    pub edges: Vec<Vec<usize>>,
}

/// Builds the call graph over every non-test function body.
pub fn build(files: &[SourceFile], syms: &Symbols) -> CallGraph {
    let mut g = CallGraph {
        sites: Vec::new(),
        edges: vec![Vec::new(); syms.fns.len()],
    };
    for (fi, f) in syms.fns.iter().enumerate() {
        if f.is_test {
            continue;
        }
        let Some(body) = f.body.clone() else { continue };
        let file = &files[f.file];
        let toks = &file.lexed.tokens;
        // Skip nested fn bodies: they are analyzed as their own fns.
        let nested: Vec<std::ops::Range<usize>> = syms
            .fns
            .iter()
            .filter(|n| n.file == f.file && !std::ptr::eq(*n, f))
            .filter_map(|n| n.body.clone())
            .filter(|r| r.start > body.start && r.end <= body.end)
            .collect();
        let mut i = body.start;
        while i < body.end.min(toks.len()) {
            if let Some(r) = nested.iter().find(|r| r.contains(&i)) {
                i = r.end;
                continue;
            }
            if let Some(site) = call_at(toks, i, fi, syms) {
                for c in &site.callees {
                    g.edges[fi].push(*c);
                }
                g.sites.push(site);
            }
            i += 1;
        }
    }
    for e in &mut g.edges {
        e.sort_unstable();
        e.dedup();
    }
    g
}

/// If token `i` heads a call (`name (`), resolves candidates.
fn call_at(toks: &[Token], i: usize, caller: usize, syms: &Symbols) -> Option<CallSite> {
    let Tok::Ident(name) = &toks[i].kind else {
        return None;
    };
    if toks.get(i + 1).map(|t| &t.kind) != Some(&Tok::Punct("(")) {
        return None;
    }
    if KEYWORDS.contains(&name.as_str()) || COMMON_NAMES.contains(&name.as_str()) {
        return None;
    }
    // Macro invocation `name!(..)` never reaches here (the `!` sits
    // between), but `name ! (` does — the `(` check above already
    // excludes it since `!` follows the ident.
    let caller_def = &syms.fns[caller];
    let candidates = syms.by_name.get(name.as_str())?;
    let prev = i.checked_sub(1).map(|j| &toks[j].kind);
    let mut out: Vec<usize> = Vec::new();
    match prev {
        // `path :: name (` — walk the qualifier back.
        Some(Tok::Punct("::")) => {
            let mut segs: Vec<String> = Vec::new();
            let mut j = i - 1;
            while j >= 1 && toks[j].kind == Tok::Punct("::") {
                if let Tok::Ident(s) = &toks[j - 1].kind {
                    segs.push(s.clone());
                    if j < 2 {
                        break;
                    }
                    j -= 2;
                } else {
                    break;
                }
            }
            segs.reverse();
            let head = segs.first().map(String::as_str).unwrap_or("");
            let tail = segs.last().map(String::as_str).unwrap_or("");
            for &c in candidates {
                let cd = &syms.fns[c];
                if cd.is_test {
                    continue;
                }
                let crate_norm = cd.crate_name.replace('-', "_");
                let ok = if head == "crate" || head == "self" || head.is_empty() {
                    cd.crate_name == caller_def.crate_name
                } else if head == "Self" {
                    cd.crate_name == caller_def.crate_name && cd.owner == caller_def.owner
                } else if crate_norm == head {
                    // `obs::set_trace`, `pucost::util::f64_of`.
                    true
                } else {
                    // `Type::assoc(..)` — match the owner type.
                    cd.owner.as_deref() == Some(tail)
                };
                if ok {
                    out.push(c);
                }
            }
        }
        // `.name(` — method call on an arbitrary receiver.
        Some(Tok::Punct(".")) => {
            let workspace_defs: Vec<usize> = candidates
                .iter()
                .copied()
                .filter(|&c| !syms.fns[c].is_test)
                .collect();
            // Unambiguous names resolve across crates; ambiguous ones
            // only within the caller's crate (documented approximation).
            if workspace_defs.len() <= 2 {
                out.extend(workspace_defs);
            } else {
                out.extend(
                    workspace_defs
                        .iter()
                        .copied()
                        .filter(|&c| syms.fns[c].crate_name == caller_def.crate_name),
                );
            }
        }
        // Bare `name(` — same-crate free fn (or same-owner method via
        // implicit `self.` — Rust has none, so free fns only).
        _ => {
            out.extend(
                candidates
                    .iter()
                    .copied()
                    .filter(|&c| {
                        let cd = &syms.fns[c];
                        !cd.is_test && cd.crate_name == caller_def.crate_name
                    }),
            );
        }
    }
    out.sort_unstable();
    out.dedup();
    if out.is_empty() {
        return None;
    }
    Some(CallSite {
        caller,
        tok: i,
        line: toks[i].line,
        callees: out,
        name: name.clone(),
    })
}

/// Propagates a per-function fact transitively over the call graph:
/// `seed[f]` maps keys (lock ids, blocking-op names) to a provenance
/// string; the result maps every key reachable from `f` through calls to
/// a `via `-chain provenance. `cross_into` filters edges: an edge into
/// callee `c` is followed only when `cross_into(c)` is true.
pub fn propagate(
    syms: &Symbols,
    edges: &[Vec<usize>],
    seed: &[BTreeMap<String, String>],
    cross_into: impl Fn(usize) -> bool,
) -> Vec<BTreeMap<String, String>> {
    let mut all: Vec<BTreeMap<String, String>> = seed.to_vec();
    // Fixed point: small graph (hundreds of fns), terminates because the
    // key sets only grow and are bounded.
    loop {
        let mut changed = false;
        for f in 0..all.len() {
            for &c in &edges[f] {
                if c == f || !cross_into(c) {
                    continue;
                }
                let adds: Vec<(String, String)> = all[c]
                    .iter()
                    .filter(|(k, _)| !all[f].contains_key(*k))
                    .map(|(k, _)| (k.clone(), format!("via `{}`", syms.fns[c].qualified())))
                    .collect();
                if !adds.is_empty() {
                    changed = true;
                    all[f].extend(adds);
                }
            }
        }
        if !changed {
            break;
        }
    }
    all
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules::{self, FileCtx};
    use crate::symbols;
    use std::path::PathBuf;

    fn files(srcs: &[(&str, &str)]) -> Vec<SourceFile> {
        srcs.iter()
            .map(|(crate_name, src)| {
                let lexed = lex(src);
                let test_mask = rules::test_region_mask(&lexed.tokens);
                SourceFile {
                    path: PathBuf::from(format!("{crate_name}.rs")),
                    ctx: FileCtx {
                        crate_name: (*crate_name).into(),
                        is_bin: false,
                    },
                    lexed,
                    test_mask,
                }
            })
            .collect()
    }

    fn graph(srcs: &[(&str, &str)]) -> (Vec<SourceFile>, Symbols, CallGraph) {
        let fs = files(srcs);
        let syms = symbols::extract(&fs);
        let g = build(&fs, &syms);
        (fs, syms, g)
    }

    fn edge(syms: &Symbols, g: &CallGraph, from: &str, to: &str) -> bool {
        let fi = syms.fns.iter().position(|f| f.qualified() == from).unwrap();
        let ti = syms.fns.iter().position(|f| f.qualified() == to).unwrap();
        g.edges[fi].contains(&ti)
    }

    #[test]
    fn same_crate_free_call_resolves() {
        let (_, syms, g) = graph(&[("a", "fn f() { helper(); } fn helper() {}")]);
        assert!(edge(&syms, &g, "a::f", "a::helper"));
    }

    #[test]
    fn crate_qualified_call_crosses_crates() {
        let (_, syms, g) = graph(&[
            ("serve", "fn f() { obs::set_trace(1); }"),
            ("obs", "pub fn set_trace(id: u64) {}"),
        ]);
        assert!(edge(&syms, &g, "serve::f", "obs::set_trace"));
    }

    #[test]
    fn unambiguous_method_crosses_crates_ambiguous_does_not() {
        let (_, syms, g) = graph(&[
            ("serve", "fn f(c: &C) { c.evaluate_probes(); c.common(); }"),
            ("pucost", "impl C { pub fn evaluate_probes(&self) {} }"),
            ("x1", "impl A { pub fn common(&self) {} }"),
            ("x2", "impl B { pub fn common(&self) {} }"),
            ("x3", "impl D { pub fn common(&self) {} }"),
        ]);
        assert!(edge(&syms, &g, "serve::f", "pucost::C::evaluate_probes"));
        assert!(!edge(&syms, &g, "serve::f", "x1::A::common"));
    }

    #[test]
    fn common_names_are_never_edges() {
        let (_, syms, g) = graph(&[("a", "fn f(v: &V) { v.get(); } impl V { pub fn get(&self) {} }")]);
        let fi = syms.fns.iter().position(|f| f.qualified() == "a::f").unwrap();
        assert!(g.edges[fi].is_empty());
    }

    #[test]
    fn propagate_reaches_transitively() {
        let (_, syms, g) = graph(&[(
            "a",
            "fn top() { mid(); } fn mid() { leaf(); } fn leaf() {}",
        )]);
        let leaf = syms.fns.iter().position(|f| f.name == "leaf").unwrap();
        let top = syms.fns.iter().position(|f| f.name == "top").unwrap();
        let mut seed = vec![BTreeMap::new(); syms.fns.len()];
        seed[leaf].insert("recv".to_string(), "direct".to_string());
        let all = propagate(&syms, &g.edges, &seed, |_| true);
        assert!(all[top].contains_key("recv"));
        assert!(all[top]["recv"].contains("a::mid"));
    }

    #[test]
    fn propagate_respects_crossing_filter() {
        let (_, syms, g) = graph(&[
            ("a", "fn top() { obs::emit(); }"),
            ("obs", "pub fn emit() { flush_sink(); } fn flush_sink() {}"),
        ]);
        let emit = syms.fns.iter().position(|f| f.name == "emit").unwrap();
        let top = syms.fns.iter().position(|f| f.name == "top").unwrap();
        let mut seed = vec![BTreeMap::new(); syms.fns.len()];
        seed[emit].insert("flush".to_string(), "direct".to_string());
        let all = propagate(&syms, &g.edges, &seed, |c| syms.fns[c].crate_name != "obs");
        assert!(!all[top].contains_key("flush"));
    }
}
