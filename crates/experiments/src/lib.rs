//! Shared harness for the per-figure/per-table experiment binaries.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper's evaluation (Section VI), printing the series to stdout and
//! writing a CSV under `results/`. `DESIGN.md` maps experiment ids to
//! binaries; `EXPERIMENTS.md` records paper-reported vs measured values.

#![warn(missing_docs)]

pub mod svg;

use autoseg::codesign::CodesignBudgets;
use autoseg::{AutoSeg, AutoSegOutcome, DesignGoal};
use nnmodel::Graph;
use spa_arch::HwBudget;
use std::fs;
use std::path::PathBuf;

/// Looks up `--name value` or `--name=value` in an argument list.
fn flag_value_in(args: &[String], name: &str) -> Option<String> {
    let key = format!("--{name}");
    let prefix = format!("--{name}=");
    for (i, a) in args.iter().enumerate() {
        if let Some(v) = a.strip_prefix(&prefix) {
            return Some(v.to_string());
        }
        if a == &key {
            return args.get(i + 1).cloned();
        }
    }
    None
}

/// The value of `--name value` / `--name=value` from the process
/// arguments, if the flag is present.
pub fn flag_value(name: &str) -> Option<String> {
    let args: Vec<String> = std::env::args().collect();
    flag_value_in(&args, name)
}

/// `true` if `--name` appears anywhere in the process arguments.
pub fn flag_present(name: &str) -> bool {
    let key = format!("--{name}");
    let prefix = format!("--{name}=");
    std::env::args().any(|a| a == key || a.starts_with(&prefix))
}

/// Parses `--name value` into `T`, falling back to `default` when the
/// flag is absent.
///
/// # Panics
///
/// Panics with the flag name on an unparsable value (experiments are
/// command-line tools; a typo should fail loudly, not run the wrong
/// sweep).
pub fn flag_parse<T: std::str::FromStr>(name: &str, default: T) -> T {
    match flag_value(name) {
        Some(v) => v
            .parse()
            .unwrap_or_else(|_| panic!("--{name}: cannot parse {v:?}")),
        None => default,
    }
}

/// [`CodesignBudgets`] built from `defaults`, overridden by the
/// `--hw-iters`, `--seg-iters`, `--seed` and `--threads` CLI flags, then
/// shrunk to smoke iterations if `DSE_SMOKE` is set.
pub fn codesign_budgets(defaults: CodesignBudgets) -> CodesignBudgets {
    CodesignBudgets {
        hw_iters: flag_parse("hw-iters", defaults.hw_iters),
        seg_iters: flag_parse("seg-iters", defaults.seg_iters),
        seed: flag_parse("seed", defaults.seed),
        threads: flag_parse("threads", defaults.threads),
    }
    .smoke_if_env()
}

/// Directory experiment CSVs are written to (`<repo>/results`, overridable
/// with `SPA_RESULTS_DIR`).
pub fn results_dir() -> PathBuf {
    let dir = std::env::var("SPA_RESULTS_DIR")
        .map(PathBuf::from)
        .unwrap_or_else(|_| {
            PathBuf::from(env!("CARGO_MANIFEST_DIR"))
                .join("../..")
                .join("results")
        });
    fs::create_dir_all(&dir).expect("create results dir");
    dir
}

/// Writes a text artifact (JSON, SVG, ...) into [`results_dir`] and logs
/// the path — the one place every binary's output files go through.
///
/// # Panics
///
/// Panics on I/O failure (experiments are command-line tools).
pub fn write_text(name: &str, contents: &str) -> PathBuf {
    let path = results_dir().join(name);
    fs::write(&path, contents).unwrap_or_else(|e| panic!("write {name}: {e}"));
    println!("  -> wrote {}", path.display());
    path
}

/// Writes a CSV file into [`results_dir`].
///
/// # Panics
///
/// Panics on I/O failure (experiments are command-line tools).
pub fn write_csv(name: &str, header: &[&str], rows: &[Vec<String>]) {
    let mut out = String::new();
    out.push_str(&header.join(","));
    out.push('\n');
    for r in rows {
        out.push_str(&r.join(","));
        out.push('\n');
    }
    write_text(name, &out);
}

/// Prints an aligned text table.
pub fn print_table(header: &[&str], rows: &[Vec<String>]) {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let line = |cells: Vec<String>| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}"))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!("{}", line(header.iter().map(|s| s.to_string()).collect()));
    println!(
        "{}",
        "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
    );
    for r in rows {
        println!("{}", line(r.clone()));
    }
}

/// Runs the AutoSeg engine with the harness' standard exploration caps.
///
/// Returns `None` when no design fits (reported by the caller).
pub fn design_for(model: &Graph, budget: &HwBudget, goal: DesignGoal) -> Option<AutoSegOutcome> {
    AutoSeg::new(budget.clone())
        .design_goal(goal)
        .max_pus(6)
        .max_segments(10)
        .run(model)
        .ok()
}

/// The nine evaluation models of Figure 12 (paper order), pre-flight
/// validated: a malformed zoo graph aborts here with a diagnostic instead
/// of panicking deep inside the engine or a simulator.
pub fn fig12_models() -> Vec<Graph> {
    let models = nnmodel::zoo::evaluation_models();
    for m in &models {
        preflight_model(m);
    }
    models
}

/// Validates one experiment input graph, aborting with the validator's
/// diagnostic on failure (experiments are command-line tools; the library
/// crates return the error instead).
pub fn preflight_model(model: &Graph) {
    if let Err(e) = nnmodel::validate(model) {
        panic!("model {:?} failed pre-flight validation: {e}", model.name());
    }
}

/// Validates one experiment hardware budget, aborting with the validator's
/// diagnostic on failure.
pub fn preflight_budget(budget: &HwBudget) {
    if let Err(e) = budget.validate() {
        panic!("budget failed pre-flight validation: {e}");
    }
}

/// Short display name for a model.
pub fn short_name(name: &str) -> &str {
    match name {
        "alexnet" => "AlexNet",
        "alexnet_conv" => "AlexNet(conv)",
        "vgg16" => "VGG16",
        "mobilenet_v1" => "MobileNetV1",
        "mobilenet_v2" => "MobileNetV2",
        "resnet18" => "ResNet18",
        "resnet50" => "ResNet50",
        "resnet152" => "ResNet152",
        "squeezenet1_0" => "SqueezeNet",
        "inception_v1" => "InceptionV1",
        "efficientnet_b0" => "EfficientNet-B0",
        other => other,
    }
}

/// Formats a float compactly for tables.
pub fn f3(x: f64) -> String {
    // exact-zero display special case; lint: allow(float-eq)
    if x == 0.0 {
        "0".to_string()
    } else if x.abs() >= 100.0 {
        format!("{x:.0}")
    } else if x.abs() >= 1.0 {
        format!("{x:.2}")
    } else {
        format!("{x:.4}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn f3_formats() {
        assert_eq!(f3(0.0), "0");
        assert_eq!(f3(1234.5), "1234"); // ties-to-even
        assert_eq!(f3(2.71234), "2.71");
        assert_eq!(f3(0.001234), "0.0012");
    }

    #[test]
    fn short_names_cover_zoo() {
        for g in fig12_models() {
            assert_ne!(short_name(g.name()), "");
        }
    }

    #[test]
    fn flag_lookup_handles_both_spellings() {
        let args: Vec<String> = ["bin", "--seed", "11", "--threads=4", "--quick"]
            .iter()
            .map(|s| s.to_string())
            .collect();
        assert_eq!(flag_value_in(&args, "seed").as_deref(), Some("11"));
        assert_eq!(flag_value_in(&args, "threads").as_deref(), Some("4"));
        assert_eq!(flag_value_in(&args, "quick").as_deref(), None);
        assert_eq!(flag_value_in(&args, "hw-iters"), None);
    }
}
