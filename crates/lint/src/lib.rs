//! `spa-lint`: workspace invariant checker for the DeepBurning-SEG repo.
//!
//! Three layers, all std-only (the build environment has no registry):
//!
//! * **Layer 1 — source lints** ([`rules`]): a lightweight
//!   comment/string-aware Rust tokenizer ([`lexer`]) scans every
//!   workspace `.rs` source file and enforces the repo's determinism and
//!   robustness invariants as deny-by-default diagnostics with
//!   `file:line` output.
//! * **Layer 2 — semantic validators** ([`semantic`]): pre-flight domain
//!   checks — every zoo model passes `nnmodel::validate`, every budget
//!   preset passes `HwBudget::validate` — so malformed inputs fail fast
//!   with a diagnostic instead of panicking deep inside the engine.
//! * **Layer 3 — concurrency analysis** ([`locks`], over [`symbols`] and
//!   [`callgraph`]): a workspace-global pass that extracts every named
//!   lock and function, builds an approximate call graph, and enforces
//!   four rules: the lock-order graph is acyclic, no blocking operation
//!   is reachable while a guard is held, no call path re-acquires a lock
//!   it already holds, and spawned closures re-propagate the obs trace
//!   id. The lock-order graph itself is rendered into
//!   `results/LOCKS.txt` as a reviewable artifact.
//!
//! # Waivers
//!
//! A finding is waived by a line comment containing
//! `lint: allow(<rule>[, <rule>...])` trailing on the offending line, on
//! the line directly above it, or anywhere on the same *statement* (so a
//! finding anchored mid-way through a multi-line chained expression can
//! be waived at the natural site). Waivers must carry rationale in the
//! surrounding comment; waived counts are reported separately in
//! `results/LINT.json` so reviewers can diff them per PR.
//!
//! # Running
//!
//! ```text
//! cargo run -p lint -- --deny             # CI gate: nonzero exit on findings
//! cargo run -p lint -- --root <path>      # lint another checkout
//! cargo run -p lint -- --changed <ref>    # report only files changed vs <ref>
//! ```
//!
//! The workspace-clean guarantee is also pinned by an integration test
//! (`tests/workspace_clean.rs`) so plain `cargo test` catches regressions.

#![warn(missing_docs)]

pub mod callgraph;
pub mod lexer;
pub mod locks;
pub mod rules;
pub mod semantic;
pub mod symbols;

use rules::{FileCtx, RawFinding, RULE_NAMES};
use std::collections::BTreeMap;
use std::fmt;
use std::path::{Path, PathBuf};
use symbols::SourceFile;

/// One diagnostic after waiver resolution.
#[derive(Debug, Clone)]
pub struct Finding {
    /// Rule identifier.
    pub rule: &'static str,
    /// Path relative to the workspace root.
    pub path: PathBuf,
    /// 1-based line.
    pub line: u32,
    /// Diagnostic text.
    pub message: String,
    /// `true` if a `lint: allow(...)` comment covers this site.
    pub waived: bool,
}

impl fmt::Display for Finding {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let tag = if self.waived { "waived" } else { "error" };
        write!(
            f,
            "{}:{}: {tag}[{}]: {}",
            self.path.display(),
            self.line,
            self.rule,
            self.message
        )
    }
}

/// Per-rule finding/waived counts.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RuleCount {
    /// Unwaived (denied) findings.
    pub findings: usize,
    /// Waived findings.
    pub waived: usize,
}

/// Result of scanning a workspace.
#[derive(Debug, Clone, Default)]
pub struct Report {
    /// Number of `.rs` files scanned.
    pub files_scanned: usize,
    /// Every finding, waived or not, in path/line order.
    pub findings: Vec<Finding>,
    /// The Layer 3 lock-order graph (empty for single-source scans).
    pub graph: locks::LockGraph,
    /// Rendered `results/LOCKS.txt` content (empty for single-source
    /// scans).
    pub locks_txt: String,
    /// Per crate, the lines of its scanned files on which a non-comment
    /// token starts (blank and comment-only lines do not count).
    pub code_lines: BTreeMap<String, usize>,
}

/// Which analysis layer a rule belongs to (1 = token rules, 3 =
/// concurrency; Layer 2 has no per-line rules).
pub fn rule_layer(rule: &str) -> u8 {
    if locks::LOCK_RULE_NAMES.contains(&rule) {
        3
    } else {
        1
    }
}

impl Report {
    /// Findings that are not waived.
    pub fn denied(&self) -> impl Iterator<Item = &Finding> {
        self.findings.iter().filter(|f| !f.waived)
    }

    /// Per-rule counts over every known rule — Layer 1 and Layer 3 —
    /// (zero entries included so the JSON is diffable across PRs).
    pub fn rule_counts(&self) -> BTreeMap<&'static str, RuleCount> {
        let mut m: BTreeMap<&'static str, RuleCount> = RULE_NAMES
            .iter()
            .chain(locks::LOCK_RULE_NAMES.iter())
            .map(|r| (*r, RuleCount::default()))
            .collect();
        for f in &self.findings {
            let e = m.entry(f.rule).or_default();
            if f.waived {
                e.waived += 1;
            } else {
                e.findings += 1;
            }
        }
        m
    }

    /// Aggregated (findings, waived) for one layer.
    fn layer_totals(&self, layer: u8) -> (usize, usize) {
        let mut found = 0;
        let mut waived = 0;
        for f in &self.findings {
            if rule_layer(f.rule) == layer {
                if f.waived {
                    waived += 1;
                } else {
                    found += 1;
                }
            }
        }
        (found, waived)
    }

    /// Renders the machine-readable JSON document (schema 2: totals,
    /// per-layer counts, rule -> counts, crate -> code lines) written to
    /// `results/LINT.json`.
    pub fn to_json(&self, semantic: Option<&semantic::SemanticReport>) -> String {
        let counts = self.rule_counts();
        let (l1f, l1w) = self.layer_totals(1);
        let (l3f, l3w) = self.layer_totals(3);
        let mut s = String::from("{\n");
        s.push_str("  \"schema\": 2,\n");
        s.push_str(&format!("  \"files_scanned\": {},\n", self.files_scanned));
        s.push_str(&format!(
            "  \"total_findings\": {},\n",
            self.denied().count()
        ));
        s.push_str(&format!(
            "  \"total_waived\": {},\n",
            self.findings.iter().filter(|f| f.waived).count()
        ));
        s.push_str("  \"layers\": {\n");
        s.push_str(&format!(
            "    \"source\": {{\"findings\": {l1f}, \"waived\": {l1w}}},\n"
        ));
        s.push_str(&format!(
            "    \"concurrency\": {{\"findings\": {l3f}, \"waived\": {l3w}, \
             \"graph_nodes\": {}, \"graph_edges\": {}, \"graph_cycles\": {}}}\n",
            self.graph.nodes.len(),
            self.graph.edges.len(),
            self.graph.cycles.len()
        ));
        s.push_str("  },\n");
        s.push_str("  \"rules\": {\n");
        let n = counts.len();
        for (i, (rule, c)) in counts.iter().enumerate() {
            s.push_str(&format!(
                "    \"{rule}\": {{\"findings\": {}, \"waived\": {}}}{}\n",
                c.findings,
                c.waived,
                if i + 1 < n { "," } else { "" }
            ));
        }
        s.push_str("  },\n  \"code_lines\": {\n");
        let n = self.code_lines.len();
        for (i, (krate, lines)) in self.code_lines.iter().enumerate() {
            s.push_str(&format!(
                "    \"{krate}\": {lines}{}\n",
                if i + 1 < n { "," } else { "" }
            ));
        }
        s.push_str("  }");
        if let Some(sem) = semantic {
            s.push_str(",\n  \"semantic\": {\n");
            s.push_str(&format!(
                "    \"models_checked\": {},\n    \"models_failed\": {},\n",
                sem.models_checked, sem.models_failed
            ));
            s.push_str(&format!(
                "    \"budgets_checked\": {},\n    \"budgets_failed\": {}\n",
                sem.budgets_checked, sem.budgets_failed
            ));
            s.push_str("  }");
        }
        s.push_str("\n}\n");
        s
    }
}

/// Per-file waiver context: parsed waiver comments plus the statement
/// spans the lexer sees, so a waiver anywhere on a multi-line statement
/// covers findings anchored on any of its lines.
struct WaiverCtx {
    /// `(line range, rules)` per waiver comment; the range already
    /// includes the "line directly above" extension (`E + 1`).
    waivers: Vec<(std::ops::RangeInclusive<u32>, Vec<String>)>,
    /// `(first line, last line)` per statement, in token order.
    stmts: Vec<(u32, u32)>,
}

impl WaiverCtx {
    fn new(lexed: &lexer::Lexed) -> Self {
        WaiverCtx {
            waivers: collect_waivers(&lexed.comments),
            stmts: statement_spans(&lexed.tokens),
        }
    }

    /// Does any waiver for `rule` cover a finding on `line`? Direct hit
    /// (waiver lines or the line below the comment) or statement-span
    /// hit: the waiver range intersects a statement containing `line`.
    fn covers(&self, rule: &str, line: u32) -> bool {
        self.waivers.iter().any(|(range, rules)| {
            if !rules.iter().any(|r| r == rule) {
                return false;
            }
            if range.contains(&line) {
                return true;
            }
            self.stmts.iter().any(|&(s, e)| {
                s <= line && line <= e && *range.start() <= e && *range.end() >= s
            })
        })
    }
}

/// Statement spans from the token stream: statements are delimited by
/// `;`, `{`, and `}` (good enough for waiver resolution — a chained
/// multi-line expression is one span).
fn statement_spans(toks: &[lexer::Token]) -> Vec<(u32, u32)> {
    let mut out = Vec::new();
    let mut start: Option<u32> = None;
    for t in toks {
        let line = t.line;
        if start.is_none() {
            start = Some(line);
        }
        if matches!(t.kind, lexer::Tok::Punct(";" | "{" | "}")) {
            if let Some(s) = start.take() {
                out.push((s, line));
            }
        }
    }
    if let Some(s) = start {
        if let Some(last) = toks.last() {
            out.push((s, last.line));
        }
    }
    out
}

/// Scans one source string as if it were `path` inside `ctx`'s crate.
/// Layer 1 only — exposed for rule tests; [`scan_workspace`] is the real
/// entry point.
pub fn scan_source(src: &str, path: &Path, ctx: &FileCtx) -> Vec<Finding> {
    let lexed = lexer::lex(src);
    let wctx = WaiverCtx::new(&lexed);
    let mut out: Vec<Finding> = rules::check(&lexed, ctx)
        .into_iter()
        .map(|RawFinding { rule, line, message }| Finding {
            rule,
            path: path.to_path_buf(),
            line,
            message,
            waived: wctx.covers(rule, line),
        })
        .collect();
    out.sort_by_key(|f| (f.line, f.rule));
    out
}

/// `(line, rules)` pairs for every waiver comment. A waiver on lines
/// `L..=E` covers findings on any of those lines and on `E + 1` (the
/// "comment directly above" form); statement-span extension happens in
/// [`WaiverCtx::covers`].
fn collect_waivers(comments: &[lexer::Comment]) -> Vec<(std::ops::RangeInclusive<u32>, Vec<String>)> {
    let mut out = Vec::new();
    for c in comments {
        if let Some(rules) = parse_waiver(&c.text) {
            out.push((c.line..=c.end_line + 1, rules));
        }
    }
    out
}

/// Parses `lint: allow(a, b)` out of a comment body.
fn parse_waiver(text: &str) -> Option<Vec<String>> {
    let at = text.find("lint: allow(")?;
    let rest = &text[at + "lint: allow(".len()..];
    let close = rest.find(')')?;
    Some(
        rest[..close]
            .split(',')
            .map(|r| r.trim().to_string())
            .filter(|r| !r.is_empty())
            .collect(),
    )
}

/// Runs the full analysis — Layer 1 per file plus workspace-global
/// Layer 3 — over pre-loaded sources. `files` must use workspace-relative
/// paths. This is the core [`scan_workspace`] delegates to; tests feed it
/// synthetic files.
pub fn scan_sources(sources: Vec<(PathBuf, String, FileCtx)>) -> Report {
    let files: Vec<SourceFile> = sources
        .into_iter()
        .map(|(path, src, ctx)| {
            let lexed = lexer::lex(&src);
            let test_mask = rules::test_region_mask(&lexed.tokens);
            SourceFile {
                path,
                ctx,
                lexed,
                test_mask,
            }
        })
        .collect();
    let wctxs: Vec<WaiverCtx> = files.iter().map(|f| WaiverCtx::new(&f.lexed)).collect();

    let mut report = Report {
        files_scanned: files.len(),
        ..Report::default()
    };
    for file in &files {
        // Tokens are in source order, so their lines never decrease.
        let mut lines: Vec<u32> = file.lexed.tokens.iter().map(|t| t.line).collect();
        lines.dedup();
        *report
            .code_lines
            .entry(file.ctx.crate_name.clone())
            .or_default() += lines.len();
    }
    // Layer 1: per-file token rules.
    for (fi, file) in files.iter().enumerate() {
        for RawFinding { rule, line, message } in rules::check(&file.lexed, &file.ctx) {
            report.findings.push(Finding {
                rule,
                path: file.path.clone(),
                line,
                message,
                waived: wctxs[fi].covers(rule, line),
            });
        }
    }
    // Layer 3: workspace-global concurrency analysis.
    let syms = symbols::extract(&files);
    let graph = callgraph::build(&files, &syms);
    let analysis = locks::analyze(&files, &syms, &graph);
    for lf in analysis.findings {
        let file = &files[lf.file];
        report.findings.push(Finding {
            rule: lf.rule,
            path: file.path.clone(),
            line: lf.line,
            message: lf.message,
            waived: wctxs[lf.file].covers(lf.rule, lf.line),
        });
    }
    report.locks_txt = locks::render_graph(&files, &analysis.graph);
    report.graph = analysis.graph;
    report
        .findings
        .sort_by(|a, b| (&a.path, a.line, a.rule).cmp(&(&b.path, b.line, b.rule)));
    report
}

/// Scans every workspace source tree under `root`: `src/` of the facade
/// crate and `crates/*/src/`. Test trees (`tests/`, `benches/`,
/// `examples/`) are exempt by construction, as are `#[cfg(test)]` modules
/// inside `src/`.
///
/// # Errors
///
/// Returns an I/O error message if `root` is not a readable workspace.
pub fn scan_workspace(root: &Path) -> Result<Report, String> {
    let mut files: Vec<(PathBuf, FileCtx)> = Vec::new();
    let facade = root.join("src");
    if facade.is_dir() {
        collect_rs(&facade, &mut files, "deepburning-seg")?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut entries: Vec<PathBuf> = std::fs::read_dir(&crates)
            .map_err(|e| format!("{}: {e}", crates.display()))?
            .filter_map(|e| e.ok().map(|e| e.path()))
            .filter(|p| p.is_dir())
            .collect();
        entries.sort();
        for dir in entries {
            let name = dir
                .file_name()
                .and_then(|n| n.to_str())
                .unwrap_or_default()
                .to_string();
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut files, &name)?;
            }
        }
    }
    if files.is_empty() {
        return Err(format!("no workspace sources under {}", root.display()));
    }
    let mut sources: Vec<(PathBuf, String, FileCtx)> = Vec::with_capacity(files.len());
    for (path, ctx) in files {
        let src =
            std::fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        let rel = path.strip_prefix(root).unwrap_or(&path).to_path_buf();
        sources.push((rel, src, ctx));
    }
    Ok(scan_sources(sources))
}

/// Recursively collects `.rs` files under `dir` (a crate's `src/`),
/// classifying binary sources by path.
fn collect_rs(
    dir: &Path,
    out: &mut Vec<(PathBuf, FileCtx)>,
    crate_name: &str,
) -> Result<(), String> {
    let mut entries: Vec<PathBuf> = std::fs::read_dir(dir)
        .map_err(|e| format!("{}: {e}", dir.display()))?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out, crate_name)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            let in_bin_dir = path
                .components()
                .any(|c| c.as_os_str() == "bin");
            let is_main = path.file_name().is_some_and(|n| n == "main.rs");
            out.push((
                path,
                FileCtx {
                    crate_name: crate_name.to_string(),
                    is_bin: in_bin_dir || is_main,
                },
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ctx() -> FileCtx {
        FileCtx {
            crate_name: "autoseg".into(),
            is_bin: false,
        }
    }

    #[test]
    fn waiver_on_same_line() {
        let src = "fn f() { let m = HashMap::new(); } // keyed lookup only; lint: allow(nondet-iter)\n";
        let fs = scan_source(src, Path::new("x.rs"), &ctx());
        assert_eq!(fs.len(), 1);
        assert!(fs[0].waived);
    }

    #[test]
    fn waiver_on_line_above() {
        let src = "// shard map, lookup only; lint: allow(nondet-iter)\nfn f() { let m = HashMap::new(); }\n";
        let fs = scan_source(src, Path::new("x.rs"), &ctx());
        assert_eq!(fs.len(), 1);
        assert!(fs[0].waived);
    }

    #[test]
    fn waiver_rule_must_match() {
        let src = "// lint: allow(float-eq)\nfn f() { let m = HashMap::new(); }\n";
        let fs = scan_source(src, Path::new("x.rs"), &ctx());
        assert_eq!(fs.len(), 1);
        assert!(!fs[0].waived);
    }

    #[test]
    fn waiver_covers_multiple_rules() {
        let src = "fn f(t: std::time::Instant) { let m = HashMap::new(); } // lint: allow(nondet-iter, nondet-time)\n";
        let fs = scan_source(src, Path::new("x.rs"), &ctx());
        assert_eq!(fs.len(), 2);
        assert!(fs.iter().all(|f| f.waived));
    }

    #[test]
    fn waiver_covers_full_statement_span() {
        // Finding anchors on the HashMap line (line 3), waiver trails the
        // statement's last line (line 4): same statement, so covered.
        let src = "fn f() {\n    let m =\n        HashMap::new()\n        .len(); // seeded; lint: allow(nondet-iter)\n}\n";
        let fs = scan_source(src, Path::new("x.rs"), &ctx());
        assert_eq!(fs.len(), 1);
        assert_eq!(fs[0].line, 3);
        assert!(fs[0].waived, "statement-span waiver must cover line 3");
    }

    #[test]
    fn statement_waiver_does_not_leak_across_semicolons() {
        // Two statements; the waiver on the second must not cover the
        // first.
        let src = "fn f() {\n    let m = HashMap::new();\n    let n = 1; // lint: allow(nondet-iter)\n}\n";
        let fs = scan_source(src, Path::new("x.rs"), &ctx());
        assert_eq!(fs.len(), 1);
        assert!(!fs[0].waived);
    }

    #[test]
    fn json_report_shape() {
        let src = "fn f() { let m = HashMap::new(); }\n";
        let findings = scan_source(src, Path::new("x.rs"), &ctx());
        let report = Report {
            files_scanned: 1,
            findings,
            code_lines: [("autoseg".to_string(), 1), ("obs".to_string(), 2)].into(),
            ..Report::default()
        };
        let json = report.to_json(None);
        assert!(json.contains("\"schema\": 2"));
        assert!(
            json.contains("\"code_lines\": {\n    \"autoseg\": 1,\n    \"obs\": 2\n  }"),
            "{json}"
        );
        assert!(json.contains("\"nondet-iter\": {\"findings\": 1, \"waived\": 0}"));
        assert!(json.contains("\"total_findings\": 1"));
        assert!(json.contains("\"source\": {\"findings\": 1, \"waived\": 0}"));
        assert!(json.contains("\"concurrency\": {\"findings\": 0, \"waived\": 0"));
        // Every rule appears even at zero, so PRs can diff the document.
        for rule in RULE_NAMES.iter().chain(locks::LOCK_RULE_NAMES.iter()) {
            assert!(json.contains(*rule), "{rule} missing from JSON");
        }
    }

    #[test]
    fn scan_sources_runs_layer3() {
        let src = "struct S { a: Mutex<u8>, b: Mutex<u8> }\n\
                   impl S {\n\
                   fn ab(&self) { let g = self.a.lock(); let h = self.b.lock(); }\n\
                   fn ba(&self) { let g = self.b.lock(); let h = self.a.lock(); }\n\
                   }\n";
        let report = scan_sources(vec![(
            PathBuf::from("crates/x/src/lib.rs"),
            src.to_string(),
            FileCtx {
                crate_name: "x".into(),
                is_bin: false,
            },
        )]);
        assert!(
            report
                .findings
                .iter()
                .any(|f| f.rule == "lock-order-cycle"),
            "expected a lock-order cycle: {:?}",
            report.findings
        );
        assert!(!report.graph.cycles.is_empty());
        assert!(report.locks_txt.contains("x::S::a"));
        assert_eq!(report.code_lines["x"], 5, "one code line per source line");
    }
}
