//! Golden-results regression harness.
//!
//! Re-runs the cheap, deterministic experiment binaries into a scratch
//! directory and diffs every regenerated CSV against the checked-in
//! copy under `results/`, cell by cell, with per-column numeric
//! tolerances. A drift in any published number — a segmentation change,
//! a cost-model tweak, an RNG regression — fails here with a
//! `file:row:col` pointer at the first divergent cells instead of
//! silently rewriting the paper's figures.
//!
//! Intentional changes are re-blessed, never hand-edited:
//!
//! ```text
//! GOLDEN_BLESS=1 cargo test -p experiments --test golden
//! ```
//!
//! which copies the regenerated CSVs over `results/` and patches the
//! drifted keys of the JSON reports (review the git diff afterwards).
//!
//! The binaries are the ones cargo builds for this test: their paths are
//! the `CARGO_BIN_EXE_*` values baked in at compile time, so a missing
//! binary fails the build rather than skipping a case.

use obs::json::Json;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::process::Command;

/// One experiment binary and the golden CSVs it regenerates.
struct Case {
    /// Cargo's path to a binary under `crates/experiments/src/bin/`.
    exe: &'static str,
    /// CSV files (relative to `results/`) the binary writes.
    csvs: &'static [&'static str],
}

/// The golden set: every deterministic experiment binary that finishes in
/// seconds unoptimized (fig12_asic_speedup, the slowest, in about 11 s).
/// The engine's figures (fig12, fig16, fig17, the ablations) pin
/// `AutoSeg::run`'s designs through the numbers they publish.
const CASES: &[Case] = &[
    Case {
        exe: env!("CARGO_BIN_EXE_ablations"),
        csvs: &[
            "ablation_pruning.csv",
            "ablation_pow2.csv",
            "ablation_segmentation.csv",
            "ablation_event_sim.csv",
        ],
    },
    Case {
        exe: env!("CARGO_BIN_EXE_fig02_roofline"),
        csvs: &["fig02_ridge.csv", "fig02_roofline.csv"],
    },
    Case {
        exe: env!("CARGO_BIN_EXE_fig03_ctc_models"),
        csvs: &["fig03_ctc_models.csv"],
    },
    Case {
        exe: env!("CARGO_BIN_EXE_fig04_ctc_squeezenet"),
        csvs: &["fig04_per_layer_ctc.csv", "fig04_strategies.csv"],
    },
    Case {
        exe: env!("CARGO_BIN_EXE_fig05_ops_distribution"),
        csvs: &["fig05_ops_distribution.csv"],
    },
    Case {
        exe: env!("CARGO_BIN_EXE_fig12_asic_speedup"),
        csvs: &["fig12_asic_speedup.csv"],
    },
    Case {
        exe: env!("CARGO_BIN_EXE_fig13_mem_reduction"),
        csvs: &["fig13_mem_reduction.csv"],
    },
    Case {
        exe: env!("CARGO_BIN_EXE_fig16_energy"),
        csvs: &["fig16_energy.csv"],
    },
    Case {
        exe: env!("CARGO_BIN_EXE_fig17_generality"),
        csvs: &["fig17_generality.csv"],
    },
    Case {
        exe: env!("CARGO_BIN_EXE_fig18_codesign"),
        csvs: &["fig18_summary.csv", "fig18_scatter.csv"],
    },
    Case {
        exe: env!("CARGO_BIN_EXE_fig19_dataflow"),
        csvs: &["fig19_dataflow.csv"],
    },
];

/// Numeric comparison tolerance: cells agree when the strings match
/// exactly, or both parse as floats within `abs + rel * |golden|`.
#[derive(Clone, Copy)]
struct Tol {
    abs: f64,
    rel: f64,
}

/// The default is deliberately tight: every experiment is bit-
/// deterministic, so regenerated cells normally match *textually* and
/// the tolerance only absorbs last-digit formatting wobble.
const DEFAULT_TOL: Tol = Tol {
    abs: 1e-9,
    rel: 1e-6,
};

/// Per-`(file, column)` tolerance overrides for columns that are allowed
/// to drift more (none today; the table is the extension point).
const TOL_OVERRIDES: &[(&str, &str, Tol)] = &[];

fn tol_for(file: &str, column: &str) -> Tol {
    TOL_OVERRIDES
        .iter()
        .find(|(f, c, _)| *f == file && *c == column)
        .map(|(_, _, t)| *t)
        .unwrap_or(DEFAULT_TOL)
}

fn cells_match(golden: &str, got: &str, tol: Tol) -> bool {
    if golden == got {
        return true;
    }
    match (golden.parse::<f64>(), got.parse::<f64>()) {
        (Ok(g), Ok(n)) => (g - n).abs() <= tol.abs + tol.rel * g.abs(),
        _ => false,
    }
}

/// Diffs one regenerated CSV against its golden copy. Returns
/// `file:row:col` mismatch descriptions (1-based rows counting the
/// header, so they match editor line numbers).
fn diff_csv(file: &str, golden: &str, got: &str) -> Vec<String> {
    let mut out = Vec::new();
    let g_lines: Vec<&str> = golden.lines().collect();
    let n_lines: Vec<&str> = got.lines().collect();
    let header: Vec<&str> = g_lines.first().map(|h| h.split(',').collect()).unwrap_or_default();
    if g_lines.first() != n_lines.first() {
        out.push(format!(
            "{file}:1: header changed: golden {:?}, regenerated {:?}",
            g_lines.first().unwrap_or(&""),
            n_lines.first().unwrap_or(&"")
        ));
        return out;
    }
    if g_lines.len() != n_lines.len() {
        out.push(format!(
            "{file}: row count changed: golden {}, regenerated {}",
            g_lines.len().saturating_sub(1),
            n_lines.len().saturating_sub(1)
        ));
    }
    for (row, (g_row, n_row)) in g_lines.iter().zip(&n_lines).enumerate().skip(1) {
        let g_cells: Vec<&str> = g_row.split(',').collect();
        let n_cells: Vec<&str> = n_row.split(',').collect();
        if g_cells.len() != n_cells.len() {
            out.push(format!(
                "{file}:{}: cell count changed: golden {}, regenerated {}",
                row + 1,
                g_cells.len(),
                n_cells.len()
            ));
            continue;
        }
        for (col, (g_cell, n_cell)) in g_cells.iter().zip(&n_cells).enumerate() {
            let name = header.get(col).copied().unwrap_or("?");
            if !cells_match(g_cell, n_cell, tol_for(file, name)) {
                out.push(format!(
                    "{file}:{}:{} ({name}): golden {g_cell:?}, regenerated {n_cell:?}",
                    row + 1,
                    col + 1
                ));
            }
        }
    }
    out
}

// ---------------------------------------------------------------------
// JSON goldens
//
// `bench_dse` writes a structured report (`results/BENCH_dse.json`)
// rather than a CSV. The diff flattens both documents to dot-separated
// key paths (`cache.entries`, `fault_log[0]`) and compares numeric
// leaves with the same tolerance machinery as the CSVs, failing with
// `file:key` pointers. Wall-clock and scheduling-dependent keys cannot
// be golden — they are skip-listed below but still checked for
// *presence*, so a report that stops emitting `speedup` fails even
// though its value is free to drift.
// ---------------------------------------------------------------------

/// Keys whose values are run-dependent (wall time, thread-race-able
/// cache counters, the obs report): presence is asserted, value is not.
const JSON_VALUE_SKIP: &[&str] = &[
    "serial_s",
    "parallel_s",
    "speedup",
    "speedup_curve",
    "obs",
    "cache.hits",
    "cache.warm_hits",
    "cache.hot_hits",
    "cache.misses",
    "cache.hit_rate",
    // Machine-dependent microbenchmark rates; the structural keys
    // (layers/pus/evals_per_round/rounds) are still value-compared.
    "eval_throughput.host_cpus",
    "eval_throughput.scalar_evals_per_s",
    "eval_throughput.batch_evals_per_s",
    "eval_throughput.batch_vs_scalar",
    "eval_throughput.compiled_evals_per_s",
    "eval_throughput.compiled_vs_scalar",
    "eval_throughput.cache_scalar_evals_per_s",
    "eval_throughput.cache_batch_evals_per_s",
    "eval_throughput.cache_batch_vs_scalar",
    // bench_serve: embedded server telemetry and the A/B overhead ratio
    // are wall-clock through and through; the shed/warm splits depend on
    // thread interleaving. Structural keys (requests, shards, victim,
    // per-shard request counts) are still value-compared.
    "overhead",
    "queue_wait_us",
    "server_metrics",
    "server_status",
    "fleet.overload.shed",
    "fleet.overload.served",
    "fleet.overload.shed_rate",
    "fleet.restart.warm_hits",
    "fleet.restart.probes",
    "fleet.restart.merged_entries",
];

/// Subtrees whose *shape* is run-dependent, not just their values: the
/// flight recorder dumps however many events the run produced, so even
/// key presence cannot be golden. Paths under these prefixes are dropped
/// from both documents before diffing.
const JSON_SHAPE_SKIP: &[&str] = &["server_metrics.flight"];

/// Leaf names that are wall-clock or machine-rate values wherever they
/// appear — the serve benchmark emits them once per phase and per shard,
/// so enumerating full paths would just restate this list nine times.
const JSON_VALUE_SKIP_LEAVES: &[&str] = &[
    "seconds",
    // MILP engine benchmark: per-config wall time and the log2 solve-time
    // histogram. Node/pivot/warm-hit aggregates stay value-compared.
    "secs",
    "solve_us_hist",
    "throughput_rps",
    "p50_us",
    "p90_us",
    "p99_us",
    "p999_us",
    "max_us",
    "per_shard_rps",
    "warm_hit_rate",
];

/// Flattens a JSON document to `(path, leaf)` pairs: object fields by
/// dot-separated key (`cache.entries`), array elements by index
/// (`fault_log[0]`), leaves and empty containers as their compact JSON
/// text.
fn flatten_json(text: &str) -> Result<Vec<(String, String)>, String> {
    fn walk(v: &Json, path: String, out: &mut Vec<(String, String)>) {
        match v {
            Json::Obj(fields) if !fields.is_empty() => {
                for (k, v) in fields {
                    let sub = if path.is_empty() {
                        k.clone()
                    } else {
                        format!("{path}.{k}")
                    };
                    walk(v, sub, out);
                }
            }
            Json::Arr(items) if !items.is_empty() => {
                for (i, v) in items.iter().enumerate() {
                    walk(v, format!("{path}[{i}]"), out);
                }
            }
            leaf => out.push((path, leaf.render())),
        }
    }
    let doc = obs::json::parse(text).map_err(|e| e.to_string())?;
    let mut out = Vec::new();
    walk(&doc, String::new(), &mut out);
    Ok(out)
}

/// `true` when `path` (or any of its ancestors, so `obs` skips `obs.x`)
/// is value-skipped, or its final segment is a skip-listed leaf name
/// (`phases.cold.seconds`, `fleet.phases.warm.per_shard_rps[2]`).
fn json_value_skipped(path: &str) -> bool {
    if JSON_VALUE_SKIP.iter().any(|s| {
        path == *s
            || path.strip_prefix(s).is_some_and(|rest| {
                rest.starts_with('.') || rest.starts_with('[')
            })
    }) {
        return true;
    }
    let last = path.rsplit('.').next().unwrap_or(path);
    let last = last.split('[').next().unwrap_or(last);
    JSON_VALUE_SKIP_LEAVES.contains(&last)
}

/// `true` when `path` falls under a shape-skipped subtree.
fn json_shape_skipped(path: &str) -> bool {
    JSON_SHAPE_SKIP.iter().any(|s| {
        path == *s
            || path.strip_prefix(s).is_some_and(|rest| {
                rest.starts_with('.') || rest.starts_with('[')
            })
    })
}

/// Diffs two JSON documents. Returns `file:key` mismatch descriptions.
fn diff_json(file: &str, golden: &str, got: &str) -> Vec<String> {
    let mut out = Vec::new();
    let g = match flatten_json(golden) {
        Ok(v) => v,
        Err(e) => return vec![format!("{file}: golden copy is not valid JSON: {e}")],
    };
    let n = match flatten_json(got) {
        Ok(v) => v,
        Err(e) => return vec![format!("{file}: regenerated file is not valid JSON: {e}")],
    };
    let gm: std::collections::BTreeMap<&str, &str> = g
        .iter()
        .filter(|(k, _)| !json_shape_skipped(k))
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    let nm: std::collections::BTreeMap<&str, &str> = n
        .iter()
        .filter(|(k, _)| !json_shape_skipped(k))
        .map(|(k, v)| (k.as_str(), v.as_str()))
        .collect();
    for (k, gv) in &gm {
        match nm.get(k) {
            None => out.push(format!("{file}:{k}: missing from regenerated report")),
            Some(nv) => {
                if json_value_skipped(k) {
                    continue;
                }
                let tol = tol_for(file, k);
                let (gq, nq) = (gv.trim_matches('"'), nv.trim_matches('"'));
                if !cells_match(gq, nq, tol) {
                    out.push(format!("{file}:{k}: golden {gv}, regenerated {nv}"));
                }
            }
        }
    }
    for k in nm.keys() {
        if !gm.contains_key(k) {
            out.push(format!("{file}:{k}: new key not present in golden"));
        }
    }
    out
}

/// What a JSON bless writes: the golden document with only what the
/// diff flags taken from the regenerated one — drifted pinned leaves,
/// new keys, dropped keys and reshaped arrays. Skip-listed values keep
/// their golden text, and so do shape-skipped subtrees. The result is
/// rendered by the writer that produced `got` (indented or one line),
/// so a bless of one drifted key is a one-line diff.
fn bless_json(file: &str, golden: &str, got: &str) -> Result<String, String> {
    fn patch(file: &str, old: &mut Json, new: &Json, path: &str) {
        let sub = |k: &str| {
            if path.is_empty() {
                k.to_string()
            } else {
                format!("{path}.{k}")
            }
        };
        if json_shape_skipped(path) {
            return;
        }
        match (old, new) {
            (Json::Obj(o), Json::Obj(n)) if !o.is_empty() && !n.is_empty() => {
                o.retain(|k, _| n.contains_key(k) || json_shape_skipped(&sub(k)));
                for (k, v) in n {
                    match o.get_mut(k) {
                        Some(ov) => patch(file, ov, v, &sub(k)),
                        None if !json_shape_skipped(&sub(k)) => {
                            o.insert(k.clone(), v.clone());
                        }
                        None => {}
                    }
                }
            }
            (Json::Arr(o), Json::Arr(n)) if !o.is_empty() && o.len() == n.len() => {
                for (i, (ov, nv)) in o.iter_mut().zip(n).enumerate() {
                    patch(file, ov, nv, &format!("{path}[{i}]"));
                }
            }
            (old, new) => {
                let leaf = |v: &Json| {
                    !matches!(v, Json::Obj(m) if !m.is_empty())
                        && !matches!(v, Json::Arr(a) if !a.is_empty())
                };
                if leaf(old) && leaf(new) {
                    let (gv, nv) = (old.render(), new.render());
                    let (gq, nq) = (gv.trim_matches('"'), nv.trim_matches('"'));
                    if json_value_skipped(path) || cells_match(gq, nq, tol_for(file, path)) {
                        return;
                    }
                }
                *old = new.clone();
            }
        }
    }
    let mut doc = obs::json::parse(golden).map_err(|e| format!("golden copy: {e}"))?;
    let new = obs::json::parse(got).map_err(|e| format!("regenerated file: {e}"))?;
    patch(file, &mut doc, &new, "");
    let text = if got == format!("{}\n", new.pretty()) {
        doc.pretty()
    } else {
        doc.render()
    };
    Ok(format!("{text}\n"))
}

/// The JSON golden: `bench_dse` under pinned smoke budgets and a fixed
/// thread count, so every non-skip-listed key is deterministic.
struct JsonCase {
    exe: &'static str,
    file: &'static str,
    args: &'static [&'static str],
    env: &'static [(&'static str, &'static str)],
}

const JSON_CASES: &[JsonCase] = &[
    JsonCase {
        exe: env!("CARGO_BIN_EXE_bench_dse"),
        file: "BENCH_dse.json",
        args: &["--threads", "2"],
        env: &[("DSE_SMOKE", "1")],
    },
    // Smoke-sized serve+fleet benchmark: structural keys (request and
    // shard counts, the restart victim) are pinned; every latency,
    // throughput, and cache-race value is skip-listed above. The fleet
    // stage resolves `spa-serve` as a sibling of the benchmark binary.
    JsonCase {
        exe: env!("CARGO_BIN_EXE_bench_serve"),
        file: "BENCH_serve.json",
        args: &["--clients", "2", "--reqs", "8", "--fleet", "3"],
        env: &[],
    },
];

/// `<repo>/results`, the checked-in golden directory.
fn golden_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Runs one experiment binary into `out_dir` with the env knobs that
/// could perturb results (smoke budgets, fault plans, obs level)
/// stripped, so the regeneration matches how the goldens were made.
fn regenerate(exe: &Path, out_dir: &Path) -> Result<(), String> {
    let status = Command::new(exe)
        .env("SPA_RESULTS_DIR", out_dir)
        .env_remove("DSE_SMOKE")
        .env_remove("FAULT_PLAN")
        .env_remove("OBS_LEVEL")
        .stdout(std::process::Stdio::null())
        .status()
        .map_err(|e| format!("{}: spawn failed: {e}", exe.display()))?;
    if !status.success() {
        return Err(format!("{}: exited with {status}", exe.display()));
    }
    Ok(())
}

#[test]
fn regenerated_csvs_match_goldens_within_tolerance() {
    let golden = golden_dir();
    let scratch = std::env::temp_dir().join(format!("spa_golden_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let bless = std::env::var("GOLDEN_BLESS").map(|v| v == "1").unwrap_or(false);

    let mut mismatches: Vec<String> = Vec::new();
    let mut blessed = 0usize;
    for case in CASES {
        if let Err(e) = regenerate(Path::new(case.exe), &scratch) {
            mismatches.push(e);
            continue;
        }
        for csv in case.csvs {
            let golden_path = golden.join(csv);
            let new_path = scratch.join(csv);
            let golden_text = match std::fs::read_to_string(&golden_path) {
                Ok(t) => t,
                Err(e) => {
                    mismatches.push(format!("{csv}: golden copy unreadable: {e}"));
                    continue;
                }
            };
            let new_text = match std::fs::read_to_string(&new_path) {
                Ok(t) => t,
                Err(e) => {
                    mismatches.push(format!("{csv}: {} did not produce it: {e}", case.exe));
                    continue;
                }
            };
            let diffs = diff_csv(csv, &golden_text, &new_text);
            if !diffs.is_empty() && bless {
                std::fs::copy(&new_path, &golden_path).expect("bless copy");
                eprintln!("golden: blessed {csv} ({} cells drifted)", diffs.len());
                blessed += 1;
                continue;
            }
            mismatches.extend(diffs);
        }
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if blessed > 0 {
        eprintln!("golden: {blessed} file(s) re-blessed; review `git diff results/`");
    }
    if !mismatches.is_empty() {
        let mut msg = String::from(
            "regenerated results drifted from the checked-in goldens \
             (rerun with GOLDEN_BLESS=1 if the change is intended):\n",
        );
        for m in &mismatches {
            let _ = writeln!(msg, "  {m}");
        }
        panic!("{msg}");
    }
}

#[test]
fn regenerated_bench_json_matches_golden_within_tolerance() {
    let golden = golden_dir();
    let scratch = std::env::temp_dir().join(format!("spa_golden_json_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&scratch);
    std::fs::create_dir_all(&scratch).expect("scratch dir");
    let bless = std::env::var("GOLDEN_BLESS").map(|v| v == "1").unwrap_or(false);

    let mut mismatches: Vec<String> = Vec::new();
    for case in JSON_CASES {
        let exe = Path::new(case.exe);
        let mut cmd = Command::new(exe);
        cmd.args(case.args)
            .env("SPA_RESULTS_DIR", &scratch)
            .env_remove("DSE_THREADS")
                .env_remove("FAULT_PLAN")
            .env_remove("OBS_LEVEL");
        for (k, v) in case.env {
            cmd.env(k, v);
        }
        let status = cmd
            .stdout(std::process::Stdio::null())
            .status()
            .unwrap_or_else(|e| panic!("{}: spawn failed: {e}", exe.display()));
        if !status.success() {
            mismatches.push(format!("{}: exited with {status}", exe.display()));
            continue;
        }
        let golden_path = golden.join(case.file);
        let new_path = scratch.join(case.file);
        let golden_text = match std::fs::read_to_string(&golden_path) {
            Ok(t) => t,
            Err(e) => {
                if bless {
                    std::fs::copy(&new_path, &golden_path).expect("bless copy");
                    eprintln!("golden: blessed new file {}", case.file);
                    continue;
                }
                mismatches.push(format!("{}: golden copy unreadable: {e}", case.file));
                continue;
            }
        };
        let new_text = std::fs::read_to_string(&new_path)
            .unwrap_or_else(|e| panic!("{}: {} did not produce it: {e}", case.file, case.exe));
        let diffs = diff_json(case.file, &golden_text, &new_text);
        if !diffs.is_empty() && bless {
            match bless_json(case.file, &golden_text, &new_text) {
                Ok(blessed) => {
                    std::fs::write(&golden_path, blessed).expect("bless write");
                    eprintln!(
                        "golden: blessed {} ({} keys drifted); review `git diff results/`",
                        case.file,
                        diffs.len()
                    );
                }
                Err(e) => mismatches.push(format!("{}: cannot bless: {e}", case.file)),
            }
            continue;
        }
        mismatches.extend(diffs);
    }
    let _ = std::fs::remove_dir_all(&scratch);
    if !mismatches.is_empty() {
        let mut msg = String::from(
            "regenerated JSON reports drifted from the checked-in goldens \
             (rerun with GOLDEN_BLESS=1 if the change is intended):\n",
        );
        for m in &mismatches {
            let _ = writeln!(msg, "  {m}");
        }
        panic!("{msg}");
    }
}

#[test]
fn json_differ_reports_file_key_paths() {
    let golden = r#"{"model": "alexnet", "points": 55, "speedup": 1.241,
                     "cache": {"entries": 606, "hits": 18494},
                     "fault_log": [], "obs": null}"#;
    // Identical: clean.
    assert!(diff_json("b.json", golden, golden).is_empty());
    // Skip-listed keys may drift freely (speedup, cache.hits)...
    let drift_skipped = r#"{"model": "alexnet", "points": 55, "speedup": 0.7,
                     "cache": {"entries": 606, "hits": 99},
                     "fault_log": [], "obs": null}"#;
    assert!(diff_json("b.json", golden, drift_skipped).is_empty());
    // ...but must stay present.
    let missing_skipped = r#"{"model": "alexnet", "points": 55,
                     "cache": {"entries": 606, "hits": 18494},
                     "fault_log": [], "obs": null}"#;
    let d = diff_json("b.json", golden, missing_skipped);
    assert_eq!(d.len(), 1);
    assert!(d[0].starts_with("b.json:speedup: missing"), "{}", d[0]);
    // A non-skipped numeric drift names file:key.
    let drift = r#"{"model": "alexnet", "points": 54, "speedup": 1.241,
                     "cache": {"entries": 606, "hits": 18494},
                     "fault_log": [], "obs": null}"#;
    let d = diff_json("b.json", golden, drift);
    assert_eq!(d.len(), 1);
    assert!(d[0].starts_with("b.json:points: golden 55"), "{}", d[0]);
    // Nested keys use dot paths.
    let nested = r#"{"model": "alexnet", "points": 55, "speedup": 1.241,
                     "cache": {"entries": 999, "hits": 18494},
                     "fault_log": [], "obs": null}"#;
    let d = diff_json("b.json", golden, nested);
    assert_eq!(d.len(), 1);
    assert!(d[0].starts_with("b.json:cache.entries:"), "{}", d[0]);
    // New keys are reported too (a report growing fields must re-bless).
    let extra = r#"{"model": "alexnet", "points": 55, "speedup": 1.241,
                     "cache": {"entries": 606, "hits": 18494},
                     "fault_log": [], "obs": null, "new_field": 1}"#;
    let d = diff_json("b.json", golden, extra);
    assert_eq!(d.len(), 1);
    assert!(d[0].starts_with("b.json:new_field: new key"), "{}", d[0]);
    // Malformed input is a diagnostic, not a panic.
    let d = diff_json("b.json", golden, "{nope");
    assert_eq!(d.len(), 1);
    assert!(d[0].contains("not valid JSON"), "{}", d[0]);
}

#[test]
fn json_bless_patches_only_drifted_pinned_keys() {
    let golden = obs::json::parse(
        r#"{"cache": {"entries": 651, "serial_hit_rate": 0.9632},
            "eval_throughput": {"host_cpus": 2}, "obs": {"spans": 7}, "points": 44,
            "serial_s": 1.5, "server_metrics": {"flight": [1, 2]}}"#,
    )
    .expect("valid")
    .pretty()
        + "\n";
    // The rerun drifts one pinned key, every skip-listed value and the
    // flight dump's shape.
    let got = obs::json::parse(
        r#"{"cache": {"entries": 651, "serial_hit_rate": 0.9376},
            "eval_throughput": {"host_cpus": 8}, "obs": {"spans": 9}, "points": 44.0000000001,
            "serial_s": 0.2, "server_metrics": {"flight": [3]}}"#,
    )
    .expect("valid")
    .pretty()
        + "\n";
    assert_eq!(diff_json("b.json", &golden, &got).len(), 1);
    let blessed = bless_json("b.json", &golden, &got).expect("blesses");
    assert!(diff_json("b.json", &blessed, &got).is_empty());
    let changed: Vec<(&str, &str)> = golden
        .lines()
        .zip(blessed.lines())
        .filter(|(g, b)| g != b)
        .collect();
    assert_eq!(golden.lines().count(), blessed.lines().count());
    let line = |v: &str| format!("    \"serial_hit_rate\": {v}");
    assert_eq!(
        changed,
        [(line("0.9632").as_str(), line("0.9376").as_str())]
    );
    // Keys the rerun adds or drops are blessed too, and a one-line
    // report stays on one line.
    let golden = r#"{"a":1,"gone":true,"s":{"seconds":3}}"#.to_string() + "\n";
    let got = r#"{"a":2,"new":[1],"s":{"seconds":4}}"#.to_string() + "\n";
    let blessed = bless_json("b.json", &golden, &got).expect("blesses");
    assert_eq!(blessed, "{\"a\":2,\"new\":[1],\"s\":{\"seconds\":3}}\n");
    assert!(diff_json("b.json", &blessed, &got).is_empty());
    assert!(bless_json("b.json", &golden, "{nope").is_err());
}

#[test]
fn json_flattener_handles_the_report_shapes() {
    let flat = flatten_json(
        r#"{"a": 1, "b": {"c": "x", "d": [true, null, 2.5]}, "e": []}"#,
    )
    .expect("valid");
    let expect: Vec<(String, String)> = [
        ("a", "1"),
        ("b.c", "\"x\""),
        ("b.d[0]", "true"),
        ("b.d[1]", "null"),
        ("b.d[2]", "2.5"),
        ("e", "[]"),
    ]
    .iter()
    .map(|(k, v)| (k.to_string(), v.to_string()))
    .collect();
    assert_eq!(flat, expect);
    assert!(flatten_json("[1, 2]").is_ok(), "top-level arrays parse");
    assert!(flatten_json("{\"a\": 1} trailing").is_err());
    assert!(flatten_json("{\"a\": }").is_err());
    // Not JSON, so never a passing artifact: non-finite numbers and
    // unknown escapes.
    for bad in [r#"{"a": inf}"#, r#"{"a": NaN}"#, r#"{"a": "\q"}"#] {
        assert!(flatten_json(bad).is_err(), "{bad} must not parse");
    }
    // Ancestor skipping: `obs` covers `obs.spans[3]` but not `obsolete`.
    assert!(json_value_skipped("obs"));
    assert!(json_value_skipped("obs.spans[3]"));
    assert!(!json_value_skipped("obsolete"));
    assert!(json_value_skipped("cache.hits"));
    assert!(!json_value_skipped("cache.entries"));
    // Leaf-name skipping: timing leaves drift wherever they appear.
    assert!(json_value_skipped("phases.cold.seconds"));
    assert!(json_value_skipped("fleet.phases.warm.per_shard_rps[2]"));
    assert!(json_value_skipped("fleet.restart.warm_hit_rate"));
    assert!(!json_value_skipped("fleet.phases.cold.per_shard_requests[0]"));
    assert!(!json_value_skipped("fleet.shards"));
    // Shape skipping: the flight dump's key set is run-dependent.
    assert!(json_shape_skipped("server_metrics.flight.events[42].seq"));
    assert!(!json_shape_skipped("server_metrics.stages"));
}

#[test]
fn csv_differ_reports_precise_locations() {
    let golden = "model,lat_ms,tag\na,1.0,x\nb,2.0,y\n";
    // Identical text: clean.
    assert!(diff_csv("f.csv", golden, golden).is_empty());
    // Within tolerance: clean (1.0 vs 1.0000000001).
    let close = "model,lat_ms,tag\na,1.0000000001,x\nb,2.0,y\n";
    assert!(diff_csv("f.csv", golden, close).is_empty());
    // A real numeric drift names file:row:col and the column.
    let drift = "model,lat_ms,tag\na,1.5,x\nb,2.0,y\n";
    let d = diff_csv("f.csv", golden, drift);
    assert_eq!(d.len(), 1);
    assert!(d[0].starts_with("f.csv:2:2 (lat_ms):"), "{}", d[0]);
    // Non-numeric cells must match exactly.
    let retag = "model,lat_ms,tag\na,1.0,x\nb,2.0,z\n";
    let d = diff_csv("f.csv", golden, retag);
    assert_eq!(d.len(), 1);
    assert!(d[0].starts_with("f.csv:3:3 (tag):"), "{}", d[0]);
    // Header changes short-circuit.
    let newcol = "model,lat_ms,tag,extra\na,1.0,x,1\nb,2.0,y,2\n";
    let d = diff_csv("f.csv", golden, newcol);
    assert_eq!(d.len(), 1);
    assert!(d[0].contains("header changed"), "{}", d[0]);
    // Row additions/removals are reported once, then rows compared.
    let short = "model,lat_ms,tag\na,1.0,x\n";
    let d = diff_csv("f.csv", golden, short);
    assert_eq!(d.len(), 1);
    assert!(d[0].contains("row count changed"), "{}", d[0]);
}

/// The checked-in lint artifacts must carry the schema-2 shape: per-layer
/// counts, every concurrency rule, and an acyclic lock-order graph. This
/// pins the `results/LINT.json` schema bump and the `results/LOCKS.txt`
/// artifact without rerunning the lint binary.
#[test]
fn lint_artifacts_have_schema2_keys() {
    let json = std::fs::read_to_string(golden_dir().join("LINT.json"))
        .expect("results/LINT.json is checked in");
    for key in [
        "\"schema\": 2",
        "\"layers\"",
        "\"source\"",
        "\"concurrency\"",
        "\"graph_nodes\"",
        "\"graph_cycles\": 0",
        "\"lock-order-cycle\"",
        "\"blocking-while-locked\"",
        "\"reentrant-lock\"",
        "\"untraced-spawn\"",
        "\"semantic\"",
        "\"code_lines\"",
    ] {
        assert!(json.contains(key), "{key} missing from results/LINT.json");
    }
    let locks = std::fs::read_to_string(golden_dir().join("LOCKS.txt"))
        .expect("results/LOCKS.txt is checked in");
    assert!(locks.contains("nodes ("), "lock graph listing missing");
    assert!(
        locks.contains("cycles: none"),
        "the checked-in lock-order graph must be acyclic"
    );
}

#[test]
fn tolerance_semantics() {
    let t = DEFAULT_TOL;
    assert!(cells_match("1.0", "1.0", t), "textual equality");
    assert!(cells_match("-", "-", t), "non-numeric equality");
    assert!(!cells_match("-", "0", t));
    assert!(cells_match("100", "100.00005", t), "relative window");
    assert!(!cells_match("100", "100.1", t));
    assert!(cells_match("0", "0.0000000005", t), "absolute window at zero");
    assert!(!cells_match("0", "0.001", t));
    assert!(!cells_match("1.0", "nan", t), "NaN never matches");
    // Overrides fall back to the default for unknown columns.
    let d = tol_for("nope.csv", "nope");
    assert_eq!(d.abs.to_bits(), DEFAULT_TOL.abs.to_bits());
}
