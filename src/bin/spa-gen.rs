//! `spa-gen`: command-line accelerator generator.
//!
//! Runs the AutoSeg co-design flow for a zoo model under a named budget
//! and writes the design manifest (JSON) and generated Verilog next to
//! each other.
//!
//! ```text
//! spa-gen <model> <budget> [--goal latency|throughput] [--out DIR]
//!         [--deadline MS] [--checkpoint PATH [--checkpoint-every N]] [--resume PATH]
//! spa-gen --spec model.txt <budget> [...]
//!
//! models:  alexnet vgg16 mobilenet_v1 mobilenet_v2 resnet18 resnet50
//!          resnet152 squeezenet1_0 inception_v1 efficientnet_b0 ...
//!          (or a custom model via --spec; see nnmodel::spec for the format)
//! budgets: eyeriss nvdla-small nvdla-large edge-tpu zu3eg 7z045 ku115
//! ```
//!
//! Anytime execution: `--deadline` stops the design sweep cooperatively
//! and generates hardware from the best design found so far;
//! `--checkpoint` persists sweep state every N generations and `--resume`
//! continues bit-identically from it.
//! `FAULT_PLAN` arms the deterministic fault-injection points (see
//! `crates/faultsim`).

use deepburning_seg::prelude::*;
use deepburning_seg::spa_codegen;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: spa-gen <model> <budget> [--goal latency|throughput] [--out DIR]\n\
         \x20      [--deadline MS] [--checkpoint PATH [--checkpoint-every N]] [--resume PATH]\n\
         \x20      spa-gen --spec model.txt <budget> [...]\n\
         budgets: eyeriss nvdla-small nvdla-large edge-tpu zu3eg 7z045 ku115"
    );
    ExitCode::FAILURE
}

fn main() -> ExitCode {
    if let Err(e) = deepburning_seg::faultsim::arm_from_env() {
        eprintln!("FAULT_PLAN: {e}");
        return ExitCode::FAILURE;
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.len() < 2 {
        return usage();
    }
    let model = if args[0] == "--spec" {
        if args.len() < 3 {
            return usage();
        }
        let path = &args[1];
        let text = match std::fs::read_to_string(path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let stem = std::path::Path::new(path)
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("custom");
        match nnmodel::parse_spec(stem, &text) {
            Ok(g) => g,
            Err(e) => {
                eprintln!("{path}: {e}");
                return ExitCode::FAILURE;
            }
        }
    } else {
        match nnmodel::zoo::by_name(&args[0]) {
            Some(g) => g,
            None => {
                eprintln!("unknown model `{}`", args[0]);
                return usage();
            }
        }
    };
    // With --spec, the budget is the third token; drop the extra arg so the
    // remaining flag parsing lines up.
    let args: Vec<String> = if args[0] == "--spec" {
        args[1..].to_vec()
    } else {
        args
    };
    let Some(budget) = HwBudget::by_name(&args[1]) else {
        eprintln!("unknown budget `{}`", args[1]);
        return usage();
    };
    let mut goal = autoseg::DesignGoal::Latency;
    let mut out_dir = PathBuf::from(".");
    let mut ctl = autoseg::RunCtl::none();
    let mut checkpoint: Option<PathBuf> = None;
    let mut checkpoint_every = 1u64;
    let mut i = 2;
    while i < args.len() {
        match args[i].as_str() {
            "--goal" if i + 1 < args.len() => {
                goal = match args[i + 1].as_str() {
                    "latency" => autoseg::DesignGoal::Latency,
                    "throughput" => autoseg::DesignGoal::Throughput,
                    other => {
                        eprintln!("unknown goal `{other}`");
                        return usage();
                    }
                };
                i += 2;
            }
            "--out" if i + 1 < args.len() => {
                out_dir = PathBuf::from(&args[i + 1]);
                i += 2;
            }
            "--deadline" if i + 1 < args.len() => {
                let Ok(ms) = args[i + 1].parse::<u64>() else {
                    eprintln!("--deadline: `{}` is not milliseconds", args[i + 1]);
                    return usage();
                };
                ctl = ctl.deadline(Duration::from_millis(ms));
                i += 2;
            }
            "--checkpoint" if i + 1 < args.len() => {
                checkpoint = Some(PathBuf::from(&args[i + 1]));
                i += 2;
            }
            "--checkpoint-every" if i + 1 < args.len() => {
                let Ok(n) = args[i + 1].parse::<u64>() else {
                    eprintln!("--checkpoint-every: `{}` is not a count", args[i + 1]);
                    return usage();
                };
                checkpoint_every = n;
                i += 2;
            }
            "--resume" if i + 1 < args.len() => {
                ctl = ctl.resume(&args[i + 1]);
                i += 2;
            }
            other => {
                eprintln!("unknown argument `{other}`");
                return usage();
            }
        }
    }
    if let Some(path) = checkpoint {
        ctl = ctl.checkpoint(path, checkpoint_every);
    }

    let anytime = match AutoSeg::new(budget.clone())
        .design_goal(goal)
        .run_ctl(&model, &ctl)
    {
        Ok(a) => a,
        Err(e) => {
            eprintln!("co-design failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let autoseg::RunStatus::Partial(p) = anytime.status {
        eprintln!(
            "anytime: stopped early ({}) after {}/{} generations; \
             generating from the best design found so far",
            p.reason, p.completed_gens, p.planned_gens
        );
    }
    let Some(outcome) = anytime.outcome else {
        eprintln!("co-design failed: no feasible design explored before the stop");
        return ExitCode::FAILURE;
    };
    println!(
        "design: {} PUs x {} segments, {} PEs, {:.3} ms/frame ({:.1} GOP/s)",
        outcome.design.n_pus(),
        outcome.design.segments().len(),
        outcome.design.total_pes(),
        outcome.report.seconds * 1e3,
        outcome.report.gops()
    );

    let stem = format!("{}_{}", model.name(), budget.name);
    let manifest = match spa_codegen::manifest::design_manifest(&outcome.design, &outcome.workload)
    {
        Ok(m) => m,
        Err(e) => {
            eprintln!("manifest generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    let rtl = match spa_codegen::verilog::top_module(&outcome.design, &outcome.workload) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("RTL generation failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = spa_codegen::verilog::lint(&rtl) {
        eprintln!("generated RTL failed lint: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("cannot create {}: {e}", out_dir.display());
        return ExitCode::FAILURE;
    }
    let manifest_path = out_dir.join(format!("{stem}.json"));
    let rtl_path = out_dir.join(format!("{stem}.v"));
    if let Err(e) = std::fs::write(&manifest_path, manifest) {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    if let Err(e) = std::fs::write(&rtl_path, rtl) {
        eprintln!("write failed: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {}", manifest_path.display());
    println!("wrote {}", rtl_path.display());
    ExitCode::SUCCESS
}
