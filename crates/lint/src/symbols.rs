//! Symbol extraction (the front half of Layer 3).
//!
//! Layer 3 needs just enough structure to reason about locks across
//! function boundaries: which functions exist (and which `impl` block
//! owns them), which struct fields and statics are locks, and which
//! functions are lock *getters* (return a `&Mutex<..>`/`&RwLock<..>`,
//! like `EvalCache::shard_of`). Everything is recovered from the
//! [`crate::lexer`] token stream with bracket matching — no parser, no
//! type information. The approximations are deliberate and documented in
//! DESIGN.md §7; every downstream rule supports waivers.

use crate::lexer::{Lexed, Tok, Token};
use crate::rules::FileCtx;
use std::collections::BTreeMap;
use std::ops::Range;
use std::path::PathBuf;

/// One source file handed to the workspace analysis.
#[derive(Debug, Clone)]
pub struct SourceFile {
    /// Path relative to the workspace root (diagnostics).
    pub path: PathBuf,
    /// Crate / binary classification.
    pub ctx: FileCtx,
    /// Lexed token stream + comments.
    pub lexed: Lexed,
    /// `true` per token inside a `#[cfg(test)]` region (rule-exempt).
    pub test_mask: Vec<bool>,
}

/// Which synchronization primitive a lock definition is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LockKind {
    /// `std::sync::Mutex`.
    Mutex,
    /// `std::sync::RwLock`.
    RwLock,
    /// `std::sync::Condvar` (tracked so `.wait` is recognized; never an
    /// order-graph node itself).
    Condvar,
}

impl LockKind {
    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            LockKind::Mutex => "Mutex",
            LockKind::RwLock => "RwLock",
            LockKind::Condvar => "Condvar",
        }
    }
}

/// A named lock: a struct field or a static whose type mentions
/// `Mutex`/`RwLock`/`Condvar`.
#[derive(Debug, Clone)]
pub struct LockDef {
    /// Canonical id: `crate::Owner::field` or `crate::STATIC`.
    pub id: String,
    /// Primitive kind.
    pub kind: LockKind,
    /// `true` when the declared type wraps the lock in a collection
    /// (`Vec<Mutex<..>>`, `[Mutex<..>; N]`, ...): one *name* covering
    /// many lock instances, so a self-edge means two elements nested.
    pub indexed: bool,
    /// Defining file (index into the analysis file list).
    pub file: usize,
    /// 1-based line of the field/static.
    pub line: u32,
}

/// One function (or method) definition.
#[derive(Debug, Clone)]
pub struct FnDef {
    /// Bare name (`worker_loop`, `evaluate_probes`).
    pub name: String,
    /// `impl`/`trait` owner type, if any (`Server`, `EvalCache`).
    pub owner: Option<String>,
    /// Crate the definition lives in.
    pub crate_name: String,
    /// File index into the analysis file list.
    pub file: usize,
    /// 1-based line of the `fn` keyword.
    pub line: u32,
    /// Token index range of the body *including* its braces; `None` for
    /// bodiless trait methods.
    pub body: Option<Range<usize>>,
    /// Parameter names (identifiers directly followed by `:` at the top
    /// paren level of the signature).
    pub params: Vec<String>,
    /// `true` when the return type mentions `Mutex`/`RwLock` — a lock
    /// getter: `recv.shard_of(k).lock()` resolves through it.
    pub returns_lock: bool,
    /// `true` inside a `#[cfg(test)]` region (excluded from analysis).
    pub is_test: bool,
}

impl FnDef {
    /// `crate::Owner::name` / `crate::name` — stable diagnostic label.
    pub fn qualified(&self) -> String {
        match &self.owner {
            Some(o) => format!("{}::{}::{}", self.crate_name, o, self.name),
            None => format!("{}::{}", self.crate_name, self.name),
        }
    }
}

/// The workspace symbol table.
#[derive(Debug, Clone, Default)]
pub struct Symbols {
    /// Every function definition, in (file, token) order.
    pub fns: Vec<FnDef>,
    /// Lock definitions keyed by canonical id.
    pub locks: BTreeMap<String, LockDef>,
    /// Function name -> indices into `fns` (resolution index).
    pub by_name: BTreeMap<String, Vec<usize>>,
}

/// Matches the `]`/`)`/`}` closing the bracket opened at `open` (which
/// must hold an opening token); returns the index of the closer, or
/// `toks.len()` when unterminated.
pub fn match_close(toks: &[Token], open: usize) -> usize {
    let (o, c) = match &toks[open].kind {
        Tok::Punct("(") => ("(", ")"),
        Tok::Punct("[") => ("[", "]"),
        Tok::Punct("{") => ("{", "}"),
        _ => return open,
    };
    let mut depth = 0usize;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].kind {
            Tok::Punct(p) if *p == o => depth += 1,
            Tok::Punct(p) if *p == c => {
                depth -= 1;
                if depth == 0 {
                    return i;
                }
            }
            _ => {}
        }
        i += 1;
    }
    toks.len()
}

/// Skips a generic argument list starting at `<` (angle brackets are not
/// bracket tokens, so this counts `<`/`>` with a shift-token fixup).
/// Returns the index just past the matching `>`.
fn skip_generics(toks: &[Token], open: usize) -> usize {
    let mut depth = 0i32;
    let mut i = open;
    while i < toks.len() {
        match &toks[i].kind {
            Tok::Punct("<") => depth += 1,
            Tok::Punct(">") => depth -= 1,
            Tok::Punct("<<") => depth += 2,
            Tok::Punct(">>") => depth -= 2,
            Tok::Punct("->") => {}
            _ => {}
        }
        i += 1;
        if depth <= 0 {
            break;
        }
    }
    i
}

/// Extracts the symbol table from all files. Test-masked definitions are
/// recorded with `is_test` so the analysis can skip them without
/// re-deriving masks.
pub fn extract(files: &[SourceFile]) -> Symbols {
    let mut syms = Symbols::default();
    for (fidx, file) in files.iter().enumerate() {
        extract_file(fidx, file, &mut syms);
    }
    for (i, f) in syms.fns.iter().enumerate() {
        syms.by_name.entry(f.name.clone()).or_default().push(i);
    }
    syms
}

fn extract_file(fidx: usize, file: &SourceFile, syms: &mut Symbols) {
    let toks = &file.lexed.tokens;
    let crate_name = file.ctx.crate_name.clone();
    // Owner stack: (name, brace depth the impl/trait body opened at).
    let mut owners: Vec<(String, usize)> = Vec::new();
    let mut depth = 0usize;
    let mut i = 0;
    while i < toks.len() {
        match &toks[i].kind {
            Tok::Punct("{") => depth += 1,
            Tok::Punct("}") => {
                depth = depth.saturating_sub(1);
                while owners.last().is_some_and(|(_, d)| *d > depth) {
                    owners.pop();
                }
            }
            Tok::Ident(kw) if kw == "impl" || kw == "trait" => {
                if let Some((name, body_open)) = parse_owner_target(toks, i, kw == "impl") {
                    // Body opens one level deeper than the current depth.
                    owners.push((name, depth + 1));
                    i = body_open; // the `{` is processed next iteration
                    continue;
                }
            }
            Tok::Ident(kw) if kw == "struct" => {
                if let Some(next) = parse_struct_locks(toks, i, fidx, file, &crate_name, syms) {
                    i = next;
                    continue;
                }
            }
            Tok::Ident(kw) if kw == "static" => {
                parse_static_lock(toks, i, fidx, file, &crate_name, syms);
            }
            Tok::Ident(kw) if kw == "fn" => {
                if let Some((def, next)) = parse_fn(
                    toks,
                    i,
                    fidx,
                    file,
                    &crate_name,
                    owners.last().map(|(n, _)| n.clone()),
                ) {
                    syms.fns.push(def);
                    // Do NOT skip the body: nested fns and inner items
                    // must still be discovered.
                    let _ = next;
                }
            }
            _ => {}
        }
        i += 1;
    }
}

/// Parses the target type of `impl<..> [Trait for] Type<..> {` (or
/// `trait Name {`). Returns `(type_name, index_of_open_brace)`.
fn parse_owner_target(toks: &[Token], kw: usize, is_impl: bool) -> Option<(String, usize)> {
    let mut i = kw + 1;
    if matches!(toks.get(i).map(|t| &t.kind), Some(Tok::Punct("<"))) {
        i = skip_generics(toks, i);
    }
    let mut last_ident: Option<String> = None;
    let mut after_for: Option<String> = None;
    let mut saw_for = false;
    while i < toks.len() {
        match &toks[i].kind {
            Tok::Punct("{") => {
                let name = if saw_for { after_for } else { last_ident };
                return name.map(|n| (n, i));
            }
            // `impl Trait for Type` / trait bounds / where clauses: a `;`
            // means a bodiless item (e.g. `impl Foo;` never happens, but
            // trait aliases could) — bail.
            Tok::Punct(";") => return None,
            Tok::Ident(n) if n == "for" && is_impl => saw_for = true,
            Tok::Ident(n) if n == "where" => {
                // The where clause runs to the `{`; idents inside it must
                // not override the target.
                while i < toks.len() && toks[i].kind != Tok::Punct("{") {
                    i += 1;
                }
                continue;
            }
            // `trait Name: Bound` — the first ident is the name; bounds
            // after `:` must not override it.
            Tok::Punct(":") if !is_impl => {
                while i < toks.len() && toks[i].kind != Tok::Punct("{") {
                    i += 1;
                }
                continue;
            }
            Tok::Ident(n) => {
                if saw_for {
                    after_for = Some(n.clone());
                } else if is_impl || last_ident.is_none() {
                    last_ident = Some(n.clone());
                }
            }
            Tok::Punct("<") => {
                i = skip_generics(toks, i);
                continue;
            }
            _ => {}
        }
        i += 1;
    }
    None
}

/// Parses `struct Name { field: Type, .. }`, registering lock fields.
/// Returns the index of the struct body's closing `}` (so the caller can
/// skip it) or `None` for tuple/unit structs.
fn parse_struct_locks(
    toks: &[Token],
    kw: usize,
    fidx: usize,
    file: &SourceFile,
    crate_name: &str,
    syms: &mut Symbols,
) -> Option<usize> {
    let Some(Tok::Ident(struct_name)) = toks.get(kw + 1).map(|t| &t.kind) else {
        return None;
    };
    let mut i = kw + 2;
    if matches!(toks.get(i).map(|t| &t.kind), Some(Tok::Punct("<"))) {
        i = skip_generics(toks, i);
    }
    // where-clause (no braces) then `{`, or `;`/`(` for unit/tuple.
    while i < toks.len() {
        match &toks[i].kind {
            Tok::Punct("{") => break,
            Tok::Punct(";" | "(") => return None,
            _ => i += 1,
        }
    }
    if i >= toks.len() {
        return None;
    }
    let close = match_close(toks, i);
    // Fields: at paren-free brace depth 1 inside the body, `name :` then
    // type tokens to the `,` at depth 1 (or the closing brace).
    let mut j = i + 1;
    while j < close {
        match &toks[j].kind {
            Tok::Ident(field)
                if matches!(toks.get(j + 1).map(|t| &t.kind), Some(Tok::Punct(":")))
                    && !matches!(toks.get(j + 2).map(|t| &t.kind), Some(Tok::Punct(":"))) =>
            {
                let line = toks[j].line;
                // Type tokens run to the `,` at this nesting level.
                let mut k = j + 2;
                let mut kind: Option<LockKind> = None;
                let mut indexed = false;
                let mut nest = 0i32;
                while k < close {
                    match &toks[k].kind {
                        Tok::Punct("," | ";") if nest == 0 => break,
                        Tok::Punct("[") => {
                            // `[Mutex<..>; N]` — an array of locks, but
                            // only when the `[` wraps the lock (appears
                            // before it), not `Mutex<[u8; 4]>`.
                            indexed |= kind.is_none();
                            nest += 1;
                        }
                        Tok::Punct("<" | "(") => nest += 1,
                        Tok::Punct(">" | ")" | "]") => nest -= 1,
                        Tok::Punct(">>") => nest -= 2,
                        Tok::Ident(t) => match t.as_str() {
                            "Mutex" => kind = Some(kind.unwrap_or(LockKind::Mutex)),
                            "RwLock" => kind = Some(kind.unwrap_or(LockKind::RwLock)),
                            "Condvar" => kind = Some(kind.unwrap_or(LockKind::Condvar)),
                            // A collection *of* locks, not data inside one.
                            "Vec" | "VecDeque" => indexed |= kind.is_none(),
                            _ => {}
                        },
                        _ => {}
                    }
                    k += 1;
                }
                if let Some(kind) = kind {
                    if !file.test_mask.get(j).copied().unwrap_or(false) {
                        let id = format!("{crate_name}::{struct_name}::{field}");
                        syms.locks.entry(id.clone()).or_insert(LockDef {
                            id,
                            kind,
                            indexed,
                            file: fidx,
                            line,
                        });
                    }
                }
                j = k;
                continue;
            }
            _ => {}
        }
        j += 1;
    }
    Some(close)
}

/// Parses `static NAME: <type containing a lock> = ..`.
fn parse_static_lock(
    toks: &[Token],
    kw: usize,
    fidx: usize,
    file: &SourceFile,
    crate_name: &str,
    syms: &mut Symbols,
) {
    let mut i = kw + 1;
    if matches!(toks.get(i).map(|t| &t.kind), Some(Tok::Ident(m)) if m == "mut") {
        i += 1;
    }
    let Some(Tok::Ident(name)) = toks.get(i).map(|t| &t.kind) else {
        return;
    };
    if toks.get(i + 1).map(|t| &t.kind) != Some(&Tok::Punct(":")) {
        return;
    }
    let line = toks[i].line;
    let mut kind: Option<LockKind> = None;
    let mut indexed = false;
    let mut k = i + 2;
    while k < toks.len() {
        match &toks[k].kind {
            Tok::Punct("=" | ";") => break,
            Tok::Ident(t) => match t.as_str() {
                "Mutex" => kind = Some(kind.unwrap_or(LockKind::Mutex)),
                "RwLock" => kind = Some(kind.unwrap_or(LockKind::RwLock)),
                "Condvar" => kind = Some(kind.unwrap_or(LockKind::Condvar)),
                "Vec" => indexed |= kind.is_none(),
                _ => {}
            },
            Tok::Punct("[") => indexed |= kind.is_none(),
            _ => {}
        }
        k += 1;
    }
    if let Some(kind) = kind {
        if !file.test_mask.get(i).copied().unwrap_or(false) {
            let id = format!("{crate_name}::{name}");
            syms.locks.entry(id.clone()).or_insert(LockDef {
                id,
                kind,
                indexed,
                file: fidx,
                line,
            });
        }
    }
}

/// Parses a `fn` definition at `kw`; returns the def and the index just
/// past the body (or the `;`).
fn parse_fn(
    toks: &[Token],
    kw: usize,
    fidx: usize,
    file: &SourceFile,
    crate_name: &str,
    owner: Option<String>,
) -> Option<(FnDef, usize)> {
    let Some(Tok::Ident(name)) = toks.get(kw + 1).map(|t| &t.kind) else {
        return None; // `fn(..)` pointer type or malformed
    };
    let line = toks[kw].line;
    let mut i = kw + 2;
    if matches!(toks.get(i).map(|t| &t.kind), Some(Tok::Punct("<"))) {
        i = skip_generics(toks, i);
    }
    // Parameter list.
    let mut params = Vec::new();
    if matches!(toks.get(i).map(|t| &t.kind), Some(Tok::Punct("("))) {
        let close = match_close(toks, i);
        let mut nest = 0i32;
        let mut j = i + 1;
        while j < close {
            match &toks[j].kind {
                Tok::Punct("(" | "[" | "{") => nest += 1,
                Tok::Punct(")" | "]" | "}") => nest -= 1,
                Tok::Punct("<") => nest += 1,
                Tok::Punct(">") => nest -= 1,
                Tok::Punct(">>") => nest -= 2,
                Tok::Ident(p)
                    if nest == 0
                        && matches!(toks.get(j + 1).map(|t| &t.kind), Some(Tok::Punct(":")))
                        && !matches!(toks.get(j + 2).map(|t| &t.kind), Some(Tok::Punct(":"))) =>
                {
                    params.push(p.clone());
                }
                Tok::Ident(p) if nest == 0 && p == "self" => params.push("self".into()),
                _ => {}
            }
            j += 1;
        }
        i = close + 1;
    }
    // Return type / where clause: scan to the body `{` or a `;`.
    let mut returns_lock = false;
    while i < toks.len() {
        match &toks[i].kind {
            Tok::Punct("{") => break,
            Tok::Punct(";") => {
                let def = FnDef {
                    name: name.clone(),
                    owner,
                    crate_name: crate_name.to_string(),
                    file: fidx,
                    line,
                    body: None,
                    params,
                    returns_lock,
                    is_test: file.test_mask.get(kw).copied().unwrap_or(false),
                };
                return Some((def, i + 1));
            }
            // `-> &Mutex<..>` getters and `-> MutexGuard<..>` helpers
            // both make the caller's `.lock()`/binding a real acquisition.
            Tok::Ident(t) if t.starts_with("Mutex") || t.starts_with("RwLock") => {
                returns_lock = true;
            }
            _ => {}
        }
        i += 1;
    }
    if i >= toks.len() {
        return None;
    }
    let close = match_close(toks, i);
    let def = FnDef {
        name: name.clone(),
        owner,
        crate_name: crate_name.to_string(),
        file: fidx,
        line,
        body: Some(i..close + 1),
        params,
        returns_lock,
        is_test: file.test_mask.get(kw).copied().unwrap_or(false),
    };
    Some((def, close + 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lexer::lex;
    use crate::rules;

    fn file(src: &str, crate_name: &str) -> SourceFile {
        let lexed = lex(src);
        let test_mask = rules::test_region_mask(&lexed.tokens);
        SourceFile {
            path: PathBuf::from("x.rs"),
            ctx: FileCtx {
                crate_name: crate_name.into(),
                is_bin: false,
            },
            lexed,
            test_mask,
        }
    }

    #[test]
    fn lock_fields_and_statics_are_found() {
        let src = "struct Inner { queue: Mutex<Vec<u8>>, cv: Condvar, shards: Vec<Mutex<u64>> }\n\
                   static REG: RwLock<u8> = RwLock::new(0);";
        let syms = extract(&[file(src, "serve")]);
        let q = &syms.locks["serve::Inner::queue"];
        assert_eq!(q.kind, LockKind::Mutex);
        assert!(!q.indexed);
        assert!(syms.locks["serve::Inner::shards"].indexed);
        assert_eq!(syms.locks["serve::Inner::cv"].kind, LockKind::Condvar);
        assert_eq!(syms.locks["serve::REG"].kind, LockKind::RwLock);
    }

    #[test]
    fn fns_get_owners_params_and_getter_flag() {
        let src = "impl<K> Cache<K> { fn shard_of(&self, k: &K) -> &Mutex<u8> { &self.s }\n\
                   pub fn probe(&self, key: u64) { } }\nfn free(x: u8) {}";
        let syms = extract(&[file(src, "pucost")]);
        let names: Vec<_> = syms.fns.iter().map(|f| f.qualified()).collect();
        assert_eq!(
            names,
            vec!["pucost::Cache::shard_of", "pucost::Cache::probe", "pucost::free"]
        );
        assert!(syms.fns[0].returns_lock);
        assert_eq!(syms.fns[1].params, vec!["self", "key"]);
        assert!(!syms.fns[2].returns_lock);
    }

    #[test]
    fn impl_trait_for_type_targets_the_type() {
        let src = "impl Display for Wrapper { fn fmt(&self) {} }";
        let syms = extract(&[file(src, "obs")]);
        assert_eq!(syms.fns[0].qualified(), "obs::Wrapper::fmt");
    }

    #[test]
    fn cfg_test_items_are_marked() {
        let src = "fn live() {}\n#[cfg(test)]\nmod t { fn helper() {} \
                   struct S { m: Mutex<u8> } }";
        let syms = extract(&[file(src, "serve")]);
        assert!(!syms.fns[0].is_test);
        assert!(syms.fns[1].is_test);
        assert!(syms.locks.is_empty(), "test-only lock leaked: {:?}", syms.locks);
    }

    #[test]
    fn nested_fns_are_both_recorded() {
        let src = "fn outer() { fn inner() {} inner(); }";
        let syms = extract(&[file(src, "mip")]);
        let names: Vec<_> = syms.fns.iter().map(|f| f.name.as_str()).collect();
        assert_eq!(names, vec!["outer", "inner"]);
    }
}
