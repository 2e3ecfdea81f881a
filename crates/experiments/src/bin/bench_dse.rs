//! Wall-clock benchmark of the parallel DSE executor: runs the Figure 18
//! co-design search serial (1 thread) and parallel, checks the point
//! clouds are bit-identical, and writes the timings, speedup, the engine
//! sweep's thread-scaling curve, the cost-model and MILP
//! microbenchmarks and (when `OBS_LEVEL` is not `off`) the obs summary
//! report to `results/BENCH_dse.json`.
//!
//! ```text
//! cargo run --release -p experiments --bin bench_dse -- \
//!     [--threads 8] [--hw-iters 200] [--seg-iters 400] [--seed 7] [--model alexnet_conv] \
//!     [--deadline MS] [--checkpoint PATH [--checkpoint-every N]] [--resume PATH]
//! ```
//!
//! `DSE_SMOKE=1` shrinks the iteration budgets for CI smoke runs;
//! `OBS_LEVEL=summary OBS_OUT=results/obs/bench_dse.jsonl` additionally
//! traces the run. `--deadline` turns the benchmark into an anytime run
//! (each leg gets its own budget from its start); `--checkpoint` /
//! `--resume` persist and restore per-method search state (the method
//! label is appended to the path). `FAULT_PLAN` arms the
//! deterministic fault-injection points (see `crates/faultsim`); every
//! injected fault is listed in the JSON report.

use autoseg::codesign::{run_codesign, CodesignBudgets, DesignPoint, Method};
use autoseg::dse::default_threads;
use autoseg::{AutoSeg, RunCtl};
use experiments::{codesign_budgets, flag_parse, flag_value, write_text};
use nnmodel::zoo;
use obs::json::{obj, Json};
use pucost::util::f64_of_usize;
use pucost::{
    best_dataflow, pick_dataflow, CompiledEval, Dataflow, EnergyModel, EvalCache, LayerDesc,
    PuConfig, PuEval,
};
use spa_arch::{HwBudget, SpaDesign};
use std::time::{Duration, Instant};

/// The benchmark's method mix: the heuristic plus the two
/// optimizer-backed searches with the most executor traffic.
const METHODS: [Method; 3] = [Method::MipHeuristic, Method::MipBaye, Method::BayeBaye];

/// Anytime-execution options from the CLI (`--deadline` in milliseconds,
/// `--checkpoint`/`--resume` as base paths that get `.{method}` appended
/// so the three legs never clobber each other's state).
struct Anytime {
    deadline_ms: Option<u64>,
    checkpoint: Option<String>,
    every: u64,
    resume: Option<String>,
}

impl Anytime {
    fn from_flags() -> Self {
        Anytime {
            deadline_ms: flag_value("deadline")
                .map(|v| v.parse().unwrap_or_else(|_| panic!("--deadline: cannot parse {v:?}"))),
            checkpoint: flag_value("checkpoint"),
            every: flag_parse("checkpoint-every", 1),
            resume: flag_value("resume"),
        }
    }

    /// The per-leg policy. The deadline is taken from the leg's start so
    /// serial and parallel runs get equal budgets.
    fn ctl(&self, method: Method) -> RunCtl {
        let mut ctl = RunCtl::none();
        if let Some(ms) = self.deadline_ms {
            ctl = ctl.deadline(Duration::from_millis(ms));
        }
        if let Some(base) = &self.checkpoint {
            ctl = ctl.checkpoint(format!("{base}.{method}"), self.every);
        }
        if let Some(base) = &self.resume {
            ctl = ctl.resume(format!("{base}.{method}"));
        }
        ctl
    }
}

/// One full co-design workload on `threads` workers. The `bool` is
/// `true` when every leg ran to completion (no deadline /
/// generation-budget stop).
fn run(
    model: &nnmodel::Graph,
    budget: &HwBudget,
    iters: &CodesignBudgets,
    threads: usize,
    anytime: &Anytime,
) -> (Vec<DesignPoint>, f64, bool) {
    let iters = CodesignBudgets { threads, ..*iters };
    let t0 = Instant::now();
    let mut pts = Vec::new();
    let mut complete = true;
    for method in METHODS {
        let r = run_codesign(model, budget, &iters, method, &anytime.ctl(method))
            .unwrap_or_else(|e| panic!("{method}: {e}"));
        complete &= r.status.is_complete();
        pts.extend(r.points);
    }
    let secs = t0.elapsed().as_secs_f64();
    (pts, secs, complete)
}

/// `x` rounded to `places` decimals: the precision each number of the
/// report has always been written with.
fn fixed(x: f64, places: usize) -> Json {
    Json::from(
        format!("{x:.places$}")
            .parse::<f64>()
            .expect("a formatted f64 parses"),
    )
}

/// Deterministic synthetic layer mix for the pure-eval microbenchmark:
/// dense convs across the spatial pyramid plus the evaluator's edge
/// cases (depthwise, grouped, FC). All 64 descriptors are distinct, so a
/// fresh cache sees every probe cold.
fn microbench_layers() -> Vec<LayerDesc> {
    let mut layers = Vec::with_capacity(64);
    for i in 0..64usize {
        layers.push(match i % 8 {
            3 => {
                // Depthwise 3x3: one channel per group.
                let ch = 32 + 8 * i;
                LayerDesc {
                    in_c: ch,
                    in_h: 28,
                    in_w: 28,
                    out_c: ch,
                    out_h: 28,
                    out_w: 28,
                    kernel: 3,
                    stride: 1,
                    groups: ch,
                    is_fc: false,
                }
            }
            5 => LayerDesc {
                // Grouped conv.
                in_c: 64 + 4 * i,
                in_h: 14,
                in_w: 14,
                out_c: 128 + 4 * i,
                out_h: 14,
                out_w: 14,
                kernel: 3,
                stride: 1,
                groups: 4,
                is_fc: false,
            },
            7 => LayerDesc {
                // FC as 1x1 conv on a 1x1 extent.
                in_c: 256 + 64 * i,
                in_h: 1,
                in_w: 1,
                out_c: 1000,
                out_h: 1,
                out_w: 1,
                kernel: 1,
                stride: 1,
                groups: 1,
                is_fc: true,
            },
            _ => {
                let side = [56, 28, 14, 7][i % 4];
                LayerDesc {
                    in_c: 16 + 4 * i,
                    in_h: side,
                    in_w: side,
                    out_c: 32 + 8 * (i % 24),
                    out_h: side,
                    out_w: side,
                    kernel: if i % 2 == 0 { 3 } else { 1 },
                    stride: 1,
                    groups: 1,
                    is_fc: false,
                }
            }
        });
    }
    layers
}

/// PU candidate sweep for the microbenchmark: the co-design geometries
/// (square through 16:1 slabs) at two clock/buffer corners.
fn microbench_pus() -> Vec<PuConfig> {
    let mut pus = Vec::with_capacity(24);
    for &(r, c) in &[
        (4, 4),
        (4, 8),
        (8, 8),
        (8, 16),
        (16, 8),
        (16, 16),
        (16, 32),
        (32, 16),
        (32, 32),
        (2, 16),
        (16, 2),
        (8, 32),
    ] {
        pus.push(PuConfig::new(r, c).with_buffers(1 << 14, 1 << 14));
        pus.push(PuConfig::new(r, c).with_freq_mhz(400.0).with_buffers(1 << 12, 1 << 12));
    }
    pus
}

/// One layer's best-dataflow picks against every candidate, compiled
/// once for the layer and run down the candidate slice (the "batch
/// kernel").
fn batch_kernel(l: &LayerDesc, pus: &[PuConfig], em: &EnergyModel) -> Vec<PuEval> {
    let compiled = CompiledEval::new(l, em);
    pus.iter().map(|pu| compiled.best(pu).1).collect()
}

/// One layer's best-dataflow picks against every candidate through the
/// cache's batch entry: WS then OS per candidate, paired with
/// [`pick_dataflow`] (the "cache batch").
fn cache_batch(cache: &EvalCache, l: &LayerDesc, pus: &[PuConfig]) -> Vec<PuEval> {
    let probes: Vec<(LayerDesc, PuConfig, Dataflow)> = pus
        .iter()
        .flat_map(|pu| {
            [Dataflow::WeightStationary, Dataflow::OutputStationary].map(|df| (*l, *pu, df))
        })
        .collect();
    let evals = cache.evaluate_probes(&probes);
    evals.chunks_exact(2).map(|pair| pick_dataflow(pair[0], pair[1]).1).collect()
}

/// Pure-eval microbenchmark: cold best-dataflow throughput of the scalar
/// kernel vs the compiled kernel built once per layer (the headline
/// `batch_vs_scalar` ratio), the precompiled-reuse ceiling, and the
/// cache-routed cold paths. Every variant is asserted bit-identical to
/// the scalar reference before any timing.
///
/// Timings are best-of-N interleaved: each round times every variant
/// once, and a variant's reported rate is its fastest round. On a shared
/// box the max is the least noisy estimator of the true rate — slow
/// rounds measure the co-tenant, not the kernel. Returns the
/// `eval_throughput` object.
fn eval_microbench() -> Json {
    let layers = microbench_layers();
    let pus = microbench_pus();
    let em = EnergyModel::tsmc28();
    let smoke = matches!(std::env::var("DSE_SMOKE"), Ok(v) if !v.is_empty() && v != "0");
    let rounds: usize = if smoke { 4 } else { 10 };
    // Each best-dataflow pick probes both dataflows.
    let evals_per_round = layers.len() * pus.len() * 2;
    let per_round = f64_of_usize(evals_per_round);
    let host_cpus = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);

    // Correctness gate: every accelerated path must reproduce the scalar
    // evaluator bit for bit (values and dataflow picks) before its timing
    // counts.
    {
        let scalar_cache = EvalCache::default();
        let batch_cache = EvalCache::default();
        for l in &layers {
            let kernel = batch_kernel(l, &pus, &em);
            let cached = cache_batch(&batch_cache, l, &pus);
            for (i, pu) in pus.iter().enumerate() {
                let (df, eval) = best_dataflow(l, pu, &em);
                assert_eq!(kernel[i], eval, "batch kernel diverged from scalar eval");
                assert_eq!(kernel[i].dataflow, df, "batch kernel diverged from scalar pick");
                let (cdf, ceval) = scalar_cache.best_dataflow(l, pu);
                assert_eq!((cdf, ceval), (df, eval), "cache scalar diverged from scalar");
                assert_eq!(cached[i], eval, "cache batch diverged from scalar eval");
                assert_eq!(cached[i].dataflow, df, "cache batch diverged from scalar pick");
            }
        }
    }

    let compiled: Vec<CompiledEval> = layers.iter().map(|l| CompiledEval::new(l, &em)).collect();
    // Best-of-N rates: scalar kernel, batch kernel, precompiled reuse,
    // cache scalar (cold), cache batch (cold).
    let mut best = [0.0f64; 5];
    for _ in 0..rounds {
        let t0 = Instant::now();
        for l in &layers {
            for pu in &pus {
                std::hint::black_box(best_dataflow(l, pu, &em));
            }
        }
        best[0] = best[0].max(per_round / t0.elapsed().as_secs_f64().max(1e-9));

        let t0 = Instant::now();
        for l in &layers {
            std::hint::black_box(batch_kernel(l, &pus, &em).len());
        }
        best[1] = best[1].max(per_round / t0.elapsed().as_secs_f64().max(1e-9));

        let t0 = Instant::now();
        for c in &compiled {
            for pu in &pus {
                std::hint::black_box(c.best(pu));
            }
        }
        best[2] = best[2].max(per_round / t0.elapsed().as_secs_f64().max(1e-9));

        let cache = EvalCache::default();
        let t0 = Instant::now();
        for l in &layers {
            for pu in &pus {
                std::hint::black_box(cache.best_dataflow(l, pu));
            }
        }
        best[3] = best[3].max(per_round / t0.elapsed().as_secs_f64().max(1e-9));

        let cache = EvalCache::default();
        let t0 = Instant::now();
        for l in &layers {
            std::hint::black_box(cache_batch(&cache, l, &pus).len());
        }
        best[4] = best[4].max(per_round / t0.elapsed().as_secs_f64().max(1e-9));
    }
    let [scalar_eps, batch_eps, compiled_eps, cache_scalar_eps, cache_batch_eps] = best;
    let ratio = batch_eps / scalar_eps.max(1e-9);
    let compiled_ratio = compiled_eps / scalar_eps.max(1e-9);
    let cache_ratio = cache_batch_eps / cache_scalar_eps.max(1e-9);

    println!("== pure-eval microbenchmark (best of {rounds} interleaved rounds) ==");
    println!(
        "   {} layers x {} PUs x 2 dataflows = {} evals/round, {} host cpus",
        layers.len(),
        pus.len(),
        evals_per_round,
        host_cpus
    );
    println!("   scalar kernel: {scalar_eps:>12.0} evals/s");
    println!("   batch kernel:  {batch_eps:>12.0} evals/s ({ratio:.2}x)");
    println!("   precompiled:   {compiled_eps:>12.0} evals/s ({compiled_ratio:.2}x)");
    println!("   cache scalar:  {cache_scalar_eps:>12.0} evals/s (cold)");
    println!("   cache batch:   {cache_batch_eps:>12.0} evals/s (cold, {cache_ratio:.2}x)");

    obj(vec![
        ("layers", Json::from(layers.len())),
        ("pus", Json::from(pus.len())),
        ("evals_per_round", Json::from(evals_per_round)),
        ("rounds", Json::from(rounds)),
        ("host_cpus", Json::from(host_cpus)),
        ("scalar_evals_per_s", fixed(scalar_eps, 1)),
        ("batch_evals_per_s", fixed(batch_eps, 1)),
        ("batch_vs_scalar", fixed(ratio, 3)),
        ("compiled_evals_per_s", fixed(compiled_eps, 1)),
        ("compiled_vs_scalar", fixed(compiled_ratio, 3)),
        ("cache_scalar_evals_per_s", fixed(cache_scalar_eps, 1)),
        ("cache_batch_evals_per_s", fixed(cache_batch_eps, 1)),
        ("cache_batch_vs_scalar", fixed(cache_ratio, 3)),
    ])
}

/// The designs `speedup_curve` times: the repo benchmark's `gen_zoo`
/// set, seven zoo models on two ASIC budgets.
const CURVE_MODELS: [&str; 7] = [
    "alexnet",
    "vgg16",
    "mobilenet_v1",
    "mobilenet_v2",
    "resnet18",
    "resnet50",
    "squeezenet1_0",
];

/// Rounds of the `speedup_curve` timing.
const CURVE_ROUNDS: usize = 10;

/// Thread-scaling curve of the product's parallel work, the engine
/// sweep: `AutoSeg::run` over the [`CURVE_MODELS`] designs at 1, 2 and
/// 4 threads. Rounds interleave the thread counts, and each count keeps
/// its fastest round: on a shared 2-vCPU host a single round read 0.88x
/// to 1.80x at 2 threads. Every thread count must reproduce the 1-thread
/// designs bit for bit. On a single-CPU host the curve records
/// contention, not scaling — consumers gate on `host_cpus` before
/// expecting 2 threads to beat 1.
fn engine_speedup_curve() -> Json {
    let designs: Vec<(nnmodel::Graph, HwBudget)> = CURVE_MODELS
        .iter()
        .flat_map(|m| {
            let g = zoo::by_name(m).expect("zoo model");
            [HwBudget::eyeriss(), HwBudget::nvdla_small()].map(|b| (g.clone(), b))
        })
        .collect();
    let sweep = |threads: usize| -> Vec<SpaDesign> {
        designs
            .iter()
            .map(|(g, b)| {
                let out = AutoSeg::new(b.clone()).threads(threads).run(g);
                out.unwrap_or_else(|e| panic!("{}@{}: {e}", g.name(), b.name))
                    .design
            })
            .collect()
    };
    let reference = sweep(1);
    let mut curve: Vec<(usize, f64)> = [1usize, 2, 4].iter().map(|&t| (t, f64::INFINITY)).collect();
    for _ in 0..CURVE_ROUNDS {
        for (threads, best) in &mut curve {
            let t0 = Instant::now();
            let got = sweep(*threads);
            *best = best.min(t0.elapsed().as_secs_f64());
            assert!(
                got == reference,
                "engine sweep at {threads} threads changed a design"
            );
        }
    }
    println!(
        "== engine sweep: {} designs, best of {CURVE_ROUNDS} interleaved rounds ==",
        designs.len()
    );
    let base_s = curve[0].1;
    for &(threads, secs) in &curve {
        println!(
            "   {threads} threads: {:>8.1} ms ({:.2}x vs 1 thread)",
            secs * 1e3,
            base_s / secs
        );
    }
    let per_round = f64_of_usize(designs.len());
    Json::Arr(
        curve
            .iter()
            .map(|&(t, secs)| {
                obj(vec![
                    ("threads", Json::from(t)),
                    ("designs_per_s", fixed(per_round / secs, 1)),
                    ("speedup", fixed(base_s / secs, 3)),
                ])
            })
            .collect(),
    )
}

/// Seeded MILP set for the engine benchmark: branch-heavy tie-free
/// knapsacks (the objective fingerprint `base*4096 + 2^i` makes every
/// optimum unique, so all engine configurations must land on the same
/// bits) plus rounding instances where presolve provably removes all
/// branching by tightening integer bounds across odd right-hand sides.
fn milp_instances() -> Vec<mip::Problem> {
    let mut rng = faultsim::rng::SplitMix64::new(0x3117_b3ac_0001);
    let mut set = Vec::with_capacity(20);
    for _ in 0..12 {
        let n = 8 + rng.below(5); // 8..=12 binaries
        let mut p = mip::Problem::new(mip::Sense::Maximize);
        let mut obj = mip::LinExpr::new();
        let mut load = mip::LinExpr::new();
        let mut total = 0usize;
        for i in 0..n {
            let x = p.add_binary(format!("x{i}"));
            let base = f64_of_usize(1 + rng.below(9));
            let fingerprint = f64::from(1u32 << u32::try_from(i).expect("i ≤ 11"));
            obj.add_term(x, base * 4096.0 + fingerprint);
            let w = 1 + rng.below(7);
            total += w;
            load.add_term(x, f64_of_usize(w));
        }
        p.set_objective(obj);
        p.add_constraint(load, mip::Cmp::Le, f64_of_usize(total / 2));
        set.push(p);
    }
    for k in 0..8 {
        // maximize Σ x_i with rows `2 x_i <= 2k+1`: the LP optimum sits at
        // the fractional (2k+1)/2 until either branching (cold) or integer
        // bound rounding (presolve) resolves it.
        let mut p = mip::Problem::new(mip::Sense::Maximize);
        let mut obj = mip::LinExpr::new();
        for i in 0..4usize {
            let x = p.add_integer(format!("y{i}"), 0.0, 50.0);
            obj.add_term(x, f64_of_usize(1 + i));
            p.add_constraint(
                mip::LinExpr::terms(&[(x, 2.0)]),
                mip::Cmp::Le,
                f64_of_usize(2 * (k + i) + 1),
            );
        }
        p.set_objective(obj);
        set.push(p);
    }
    set
}

/// MILP engine benchmark: the pinned instance set solved by four engine
/// configurations (cold serial reference, presolve only, presolve+warm
/// starts, and the parallel 2-thread pipeline). Every configuration must
/// reproduce the cold reference bit for bit before its numbers count;
/// the JSON block carries per-config node/pivot aggregates, the presolve
/// reduction counters, the warm-start hit rate and a log2 microsecond
/// histogram of solve times (the histogram is timing, everything else is
/// deterministic).
fn milp_bench() -> Json {
    let set = milp_instances();
    let configs: [(&str, mip::Solver); 4] = [
        ("cold", mip::Solver::new().presolve(false).warm_lp(false).threads(1)),
        ("presolved", mip::Solver::new().presolve(true).warm_lp(false).threads(1)),
        ("warm", mip::Solver::new().presolve(true).warm_lp(true).threads(1)),
        ("parallel2", mip::Solver::new().presolve(true).warm_lp(true).threads(2)),
    ];
    #[derive(Default)]
    struct Agg {
        nodes: u64,
        lp_solves: u64,
        pivots: u64,
        warm_hits: u64,
        warm_rejects: u64,
        vars_fixed: u64,
        rows_dropped: u64,
        bounds_tightened: u64,
        coef_reductions: u64,
        hist: [u64; 16],
        secs: f64,
    }
    let mut reference: Vec<mip::Solution> = Vec::with_capacity(set.len());
    let mut aggs: Vec<Agg> = Vec::new();
    for (name, solver) in &configs {
        let mut agg = Agg::default();
        let t0 = Instant::now();
        for (i, p) in set.iter().enumerate() {
            let s0 = Instant::now();
            let sol = solver.solve(p).unwrap_or_else(|e| panic!("milp[{i}] {name}: {e}"));
            let us = u64::try_from(s0.elapsed().as_micros()).unwrap_or(u64::MAX);
            let bucket = usize::try_from(us.max(1).ilog2()).expect("ilog2 < 64").min(15);
            agg.hist[bucket] += 1;
            assert_eq!(sol.status, mip::SolveStatus::Optimal, "milp[{i}] {name}");
            if let Some(base) = reference.get(i) {
                assert_eq!(
                    sol.objective.to_bits(),
                    base.objective.to_bits(),
                    "milp[{i}] {name}: objective diverged from the cold reference"
                );
                assert_eq!(
                    sol.values(),
                    base.values(),
                    "milp[{i}] {name}: incumbent diverged from the cold reference"
                );
            }
            agg.nodes += sol.stats.nodes;
            agg.lp_solves += sol.stats.lp_solves;
            agg.pivots += sol.stats.pivots;
            agg.warm_hits += sol.stats.warm_hits;
            agg.warm_rejects += sol.stats.warm_rejects;
            agg.vars_fixed += sol.stats.presolve.vars_fixed;
            agg.rows_dropped += sol.stats.presolve.rows_dropped;
            agg.bounds_tightened += sol.stats.presolve.bounds_tightened;
            agg.coef_reductions += sol.stats.presolve.coef_reductions;
            if reference.len() == i {
                reference.push(sol);
            }
        }
        agg.secs = t0.elapsed().as_secs_f64();
        aggs.push(agg);
    }
    let cold_nodes = aggs[0].nodes;
    let presolved_nodes = aggs[1].nodes;
    let warm_attempts = aggs[2].warm_hits + aggs[2].warm_rejects;
    let warm_hit_rate = if warm_attempts == 0 {
        0.0
    } else {
        f64_of_usize(usize::try_from(aggs[2].warm_hits).expect("small"))
            / f64_of_usize(usize::try_from(warm_attempts).expect("small"))
    };
    println!("== MILP engine benchmark ({} instances) ==", set.len());
    for ((name, _), agg) in configs.iter().zip(&aggs) {
        println!(
            "   {name:>9}: {:>5} nodes, {:>5} LP solves, {:>6} pivots, {:.3} s",
            agg.nodes, agg.lp_solves, agg.pivots, agg.secs
        );
    }
    println!(
        "   presolve: {} nodes -> {} nodes, {} vars fixed, {} rows dropped, {} bounds tightened, {} coefs reduced",
        cold_nodes,
        presolved_nodes,
        aggs[1].vars_fixed,
        aggs[1].rows_dropped,
        aggs[1].bounds_tightened,
        aggs[1].coef_reductions
    );
    println!(
        "   warm starts: {} hits / {} attempts ({:.1}% hit rate)",
        aggs[2].warm_hits,
        warm_attempts,
        warm_hit_rate * 100.0
    );
    let config_json = configs
        .iter()
        .zip(&aggs)
        .map(|((name, _), agg)| {
            let hist = agg.hist.iter().map(|&n| Json::from(n)).collect();
            let config = obj(vec![
                ("nodes", Json::from(agg.nodes)),
                ("lp_solves", Json::from(agg.lp_solves)),
                ("pivots", Json::from(agg.pivots)),
                ("warm_hits", Json::from(agg.warm_hits)),
                ("warm_rejects", Json::from(agg.warm_rejects)),
                ("secs", fixed(agg.secs, 6)),
                ("solve_us_hist", Json::Arr(hist)),
            ]);
            (*name, config)
        })
        .collect();
    let presolve_json = obj(vec![
        ("vars_fixed", Json::from(aggs[1].vars_fixed)),
        ("rows_dropped", Json::from(aggs[1].rows_dropped)),
        ("bounds_tightened", Json::from(aggs[1].bounds_tightened)),
        ("coef_reductions", Json::from(aggs[1].coef_reductions)),
        (
            "node_reduction",
            Json::from(cold_nodes - presolved_nodes.min(cold_nodes)),
        ),
    ]);
    obj(vec![
        ("instances", Json::from(set.len())),
        ("configs", obj(config_json)),
        ("presolve", presolve_json),
        ("cold_nodes", Json::from(cold_nodes)),
        ("presolved_nodes", Json::from(presolved_nodes)),
        ("warm_hit_rate", fixed(warm_hit_rate, 4)),
        ("deterministic", Json::from(true)),
    ])
}

fn main() {
    // Scripted fault injection (the verify.sh robustness smoke): a
    // malformed plan aborts before any work, a valid one arms the fault
    // points exercised below.
    let faults_armed = match faultsim::arm_from_env() {
        Ok(armed) => armed,
        Err(e) => {
            eprintln!("FAULT_PLAN: {e}");
            std::process::exit(2);
        }
    };
    let model_name = flag_value("model").unwrap_or_else(|| "alexnet_conv".to_string());
    let model = zoo::by_name(&model_name).expect("zoo model");
    let budget = HwBudget::nvdla_small();
    let iters = codesign_budgets(CodesignBudgets {
        hw_iters: 200,
        seg_iters: 400,
        seed: 7,
        threads: 0,
    });
    let threads = match flag_parse("threads", iters.threads) {
        0 => default_threads(),
        t => t,
    };
    let anytime = Anytime::from_flags();

    let eval_throughput_json = eval_microbench();
    let speedup_curve_json = engine_speedup_curve();
    let milp_json = milp_bench();

    println!("== DSE executor benchmark ==");
    println!(
        "   model {model_name}, budget {}, {} hw iters, {} seg iters, seed {}",
        budget.name, iters.hw_iters, iters.seg_iters, iters.seed
    );

    let (serial_pts, serial_s, serial_complete) = run(&model, &budget, &iters, 1, &anytime);
    println!("   serial   (1 thread):  {serial_s:>8.3} s, {} points", serial_pts.len());
    let (par_pts, parallel_s, par_complete) = run(&model, &budget, &iters, threads, &anytime);
    println!("   parallel ({threads} threads): {parallel_s:>8.3} s, {} points", par_pts.len());

    // The executor's core contract: identical results for any thread
    // count. A violation here is a bug, not a measurement artifact —
    // unless a wall-clock deadline legitimately cut the two runs at
    // different generations, in which case only completed runs compare.
    let complete = serial_complete && par_complete;
    let deterministic = serial_pts == par_pts;
    if complete {
        assert!(
            deterministic,
            "parallel search diverged from the serial reference"
        );
    } else {
        println!("   anytime: partial run(s); skipping the determinism cross-check");
    }
    let fault_log = faultsim::injected();
    if faults_armed {
        println!(
            "   faults: plan armed, {} injected{}",
            fault_log.len(),
            if fault_log.is_empty() { "" } else { ":" }
        );
        for f in fault_log.iter().take(8) {
            println!("     {f}");
        }
        if fault_log.len() > 8 {
            println!("     ... {} more (full list in BENCH_dse.json)", fault_log.len() - 8);
        }
    }

    let speedup = serial_s / parallel_s.max(1e-12);
    println!("   speedup: {speedup:.2}x");
    let fault_log_json = fault_log.iter().map(|f| Json::from(f.as_str())).collect();
    // End-of-run obs report: rendered to stderr and embedded in the JSON
    // (null when OBS_LEVEL=off, the default).
    let obs_json = obs::finish().map_or(Json::Null, |report| report.to_json());
    let json = obj(vec![
        ("model", Json::from(model_name.as_str())),
        ("budget", Json::from(budget.name.as_str())),
        ("hw_iters", Json::from(iters.hw_iters)),
        ("seg_iters", Json::from(iters.seg_iters)),
        ("seed", Json::from(iters.seed)),
        ("threads", Json::from(threads)),
        ("points", Json::from(par_pts.len())),
        ("serial_s", fixed(serial_s, 6)),
        ("parallel_s", fixed(parallel_s, 6)),
        ("speedup", fixed(speedup, 3)),
        ("eval_throughput", eval_throughput_json),
        ("speedup_curve", speedup_curve_json),
        ("milp", milp_json),
        ("deterministic", Json::from(deterministic)),
        (
            "status",
            Json::from(if complete { "complete" } else { "partial" }),
        ),
        ("faults_armed", Json::from(faults_armed)),
        ("faults_injected", Json::from(fault_log.len())),
        ("fault_log", Json::Arr(fault_log_json)),
        ("obs", obs_json),
    ]);
    write_text("BENCH_dse.json", &format!("{}\n", json.pretty()));
}
