//! Co-design optimization baselines (Section VI-G, Figure 18).
//!
//! Five methods produce clouds of `(latency, energy)` design points:
//!
//! * **MIP-Heuristic** — AutoSeg itself: exact segmentation + Algorithm 1.
//! * **MIP-Random** — exact segmentation, hardware parameters sampled
//!   uniformly (500 iterations in the paper).
//! * **MIP-Baye** — exact segmentation, hardware searched by TPE.
//! * **Baye-Heuristic** — segmentation searched by TPE (2000 iterations in
//!   the paper), hardware from Algorithm 1.
//! * **Baye-Baye** — the nested bi-loop of [Shi et al.]: an outer TPE over
//!   hardware, an inner TPE over segmentation with only latency feedback.
//!
//! (Plus **MIP-Anneal**, a simulated-annealing ablation of the search
//! strategy.)
//!
//! # Execution model
//!
//! Every method runs on a [`DsePool`] and shares one [`EvalCache`] per
//! search. Candidate evaluation is organized in fixed-size *generations*
//! ([`GENERATION`] candidates): the optimizer proposes a whole generation
//! (`suggest_batch`), the pool evaluates it concurrently, and observations
//! are fed back in proposal order (`observe_batch`). Because the
//! generation size is a constant — not the thread count — and results are
//! folded in proposal order, the produced [`DesignPoint`] sequence is
//! bit-identical for any thread count; `threads = 1` *is* the serial
//! reference path.
//!
//! The optimizer-backed methods (MIP-Random, MIP-Baye, MIP-Anneal,
//! Baye-Baye) run one optimizer over one space, shape and hardware
//! together, for exactly [`CodesignBudgets::hw_iters`] evaluations, so a
//! model-based optimizer learns from the whole budget.
//!
//! # Anytime execution
//!
//! Every method runs through [`run_codesign`] / [`run_codesign_with`],
//! naming its [`Method`]. Handed a [`RunCtl`], a search additionally
//! supports cooperative deadlines ([`RunStatus::Partial`] instead of lost
//! work), periodic [`Checkpoint`](crate::Checkpoint)s of kind `codesign`,
//! and `--resume`, all on the generation loop the engine sweep shares.
//! Optimizer state is persisted as one [`bayesopt::Transcript`] and
//! rebuilt by *replay* — the fresh optimizer re-proposes every recorded
//! generation and re-observes the recorded values, which restores its
//! RNG stream and history bit-exactly (divergence, a transcript that
//! disagrees with the checkpoint's `gens_done`, or an older layout's
//! per-shape `unit.N` sections, is a typed checkpoint error, not
//! silence). An interrupted-then-resumed search therefore produces the
//! same [`DesignPoint`] sequence as an uninterrupted one, which
//! `tests/resume_equiv.rs` pins down.

use crate::allocate::{allocate_with, manual_design_with};
use crate::dse::checkpoint::{f64_from_hex, f64_to_hex, CheckpointError};
use crate::dse::control::{RunCtl, RunStatus};
use crate::dse::sweep::{Sections, Sweep};
use crate::dse::{split_seed, DsePool};
use crate::engine::DesignGoal;
use crate::error::AutoSegError;
use crate::segment::{BayesSegmenter, ChainDpSegmenter, Segmenter};
use bayesopt::{Optimizer, RandomSearch, SearchSpace, SimulatedAnnealing, Tpe, Transcript};
use nnmodel::{Graph, Workload};
use pucost::EvalCache;
use spa_arch::{HwBudget, SegmentSchedule};
use spa_sim::simulate_spa_with;

/// Candidates proposed (and evaluated concurrently) per optimizer
/// generation. A constant independent of the worker count, so search
/// trajectories do not depend on how many threads happen to run them.
pub const GENERATION: usize = 8;

/// One evaluated co-design point.
#[derive(Debug, Clone, PartialEq)]
pub struct DesignPoint {
    /// Frame latency in seconds.
    pub latency_s: f64,
    /// Total energy per frame in pJ.
    pub energy_pj: f64,
    /// Method label.
    pub method: &'static str,
    /// `(n_pus, n_segments)` of the point.
    pub shape: (usize, usize),
}

/// The co-design baseline methods, as first-class values (the driver
/// behind [`run_codesign`] and the experiment binaries' `--method` flag).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Method {
    /// Exact segmentation + Algorithm 1 (AutoSeg itself).
    MipHeuristic,
    /// Exact segmentation + uniform-random hardware sampling.
    MipRandom,
    /// Exact segmentation + TPE hardware search.
    MipBaye,
    /// Exact segmentation + simulated-annealing hardware search.
    MipAnneal,
    /// TPE segmentation + Algorithm 1 hardware.
    BayeHeuristic,
    /// Nested TPE loops (hardware outer, segmentation inner).
    BayeBaye,
}

impl Method {
    /// Every method, in documentation order.
    pub const ALL: [Method; 6] = [
        Method::MipHeuristic,
        Method::MipRandom,
        Method::MipBaye,
        Method::MipAnneal,
        Method::BayeHeuristic,
        Method::BayeBaye,
    ];

    /// The kebab-case label used in CSVs, checkpoints and CLI flags.
    pub fn label(self) -> &'static str {
        match self {
            Method::MipHeuristic => "mip-heuristic",
            Method::MipRandom => "mip-random",
            Method::MipBaye => "mip-baye",
            Method::MipAnneal => "mip-anneal",
            Method::BayeHeuristic => "baye-heuristic",
            Method::BayeBaye => "baye-baye",
        }
    }

    /// Parses a [`Method::label`] string.
    pub fn parse(s: &str) -> Option<Method> {
        Method::ALL.into_iter().find(|m| m.label() == s)
    }
}

impl std::fmt::Display for Method {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Iteration budgets for the search-based methods.
#[derive(Debug, Clone, Copy)]
pub struct CodesignBudgets {
    /// Hardware-search evaluations: exactly this many candidates per
    /// optimizer-backed search (the paper uses 500).
    pub hw_iters: usize,
    /// Segmentation-search iterations (the paper uses 2000).
    pub seg_iters: usize,
    /// Seed for all stochastic methods.
    pub seed: u64,
    /// DSE worker threads; `0` means auto (`DSE_THREADS` env var, else all
    /// available cores). `1` is the serial reference path.
    pub threads: usize,
}

impl Default for CodesignBudgets {
    fn default() -> Self {
        Self {
            hw_iters: 500,
            seg_iters: 2000,
            seed: 7,
            threads: 0,
        }
    }
}

impl CodesignBudgets {
    /// Reduced budgets for smoke runs (CI, `scripts/verify.sh`): the same
    /// code paths at a fraction of the iterations.
    pub fn smoke() -> Self {
        Self {
            hw_iters: 24,
            seg_iters: 32,
            seed: 3,
            threads: 0,
        }
    }

    /// Swaps in the [`CodesignBudgets::smoke`] iteration counts when the
    /// `DSE_SMOKE` environment variable is set to anything non-empty other
    /// than `0`; seed and thread count are kept.
    pub fn smoke_if_env(self) -> Self {
        match std::env::var("DSE_SMOKE") {
            Ok(v) if !v.is_empty() && v != "0" => {
                let s = Self::smoke();
                Self {
                    hw_iters: s.hw_iters.min(self.hw_iters),
                    seg_iters: s.seg_iters.min(self.seg_iters),
                    ..self
                }
            }
            _ => self,
        }
    }

    /// The worker pool implied by `threads` (0 = auto-sized).
    pub fn pool(&self) -> DsePool {
        if self.threads == 0 {
            DsePool::from_env()
        } else {
            DsePool::new(self.threads)
        }
    }
}

/// Result of an anytime co-design run: the point cloud plus how much of
/// the planned search produced it.
#[derive(Debug, Clone, PartialEq)]
pub struct CodesignRun {
    /// Evaluated feasible points, in proposal order.
    pub points: Vec<DesignPoint>,
    /// `Complete`, or a typed partial with generation provenance.
    pub status: RunStatus,
}

fn shapes(workload: &Workload, budget: &HwBudget) -> Vec<(usize, usize)> {
    let l = workload.len();
    let mut v = Vec::new();
    for n in 2..=4usize.min(l).min(budget.pes) {
        for s in 1..=8.min(l / n) {
            v.push((n, s));
        }
    }
    v
}

fn point(
    workload: &Workload,
    design: &spa_arch::SpaDesign,
    budget: &HwBudget,
    method: &'static str,
    shape: (usize, usize),
    cache: &EvalCache,
) -> Option<DesignPoint> {
    if !design.fits(budget) || design.segment_routings(workload).is_err() {
        return None;
    }
    let r = simulate_spa_with(workload, design, cache);
    Some(DesignPoint {
        latency_s: r.seconds,
        energy_pj: r.energy.total_pj(),
        method,
        shape,
    })
}

/// The one search space of an optimizer-backed method: the shape index,
/// one log2-PE dimension per PU of the widest shape (a candidate reads
/// the first `N`), and the buffer multiplier.
fn search_space(shapes: usize, widest: usize, budget: &HwBudget) -> SearchSpace {
    let max_log = (budget.pes.max(2) as f64).log2().floor() as usize + 1;
    let mut dims = vec![shapes];
    dims.resize(1 + widest, max_log);
    dims.push(3); // buffer multiplier 1 / 2 / 4
    SearchSpace::new(dims)
}

/// Best feasible latency among the points collected so far (`prev` when
/// none improved it). Pure bookkeeping for the convergence event; never
/// feeds back into the search.
fn best_feasible_latency(pts: &[DesignPoint], prev: f64) -> f64 {
    pts.iter().map(|p| p.latency_s).fold(prev, f64::min)
}

/// Everything a method run needs, bundled so the driver helpers stay
/// readable.
struct Ctx<'a> {
    workload: &'a Workload,
    model_name: &'a str,
    budget: &'a HwBudget,
    budgets: &'a CodesignBudgets,
    method: Method,
    pool: &'a DsePool,
    cache: &'a EvalCache,
    ctl: &'a RunCtl,
    /// Inner segmentation-search iterations (Baye-Baye only; 0 otherwise).
    inner: usize,
}

/// Mutable search state: what a checkpoint records and a resume
/// restores.
#[derive(Default)]
struct SearchState {
    pts: Vec<DesignPoint>,
    /// The optimizer's ask/tell history (empty for the chunked methods,
    /// which have no optimizer).
    transcript: Transcript,
}

/// One value of the shape dimension: a `(N, S)` shape with (for the
/// `MIP-*` methods) its precomputed exact schedule.
struct ShapeChoice {
    shape: (usize, usize),
    schedule: Option<SegmentSchedule>,
}

fn point_line(p: &DesignPoint) -> String {
    format!(
        "pt {} {} {} {}",
        f64_to_hex(p.latency_s),
        f64_to_hex(p.energy_pj),
        p.shape.0,
        p.shape.1
    )
}

fn parse_point_line(line: &str, method: &'static str) -> Result<DesignPoint, CheckpointError> {
    let corrupt = || CheckpointError::Corrupt {
        path: "points-section".into(),
        reason: format!("malformed point line: {line}"),
    };
    let toks: Vec<&str> = line.split(' ').collect();
    if toks.len() != 5 || toks[0] != "pt" {
        return Err(corrupt());
    }
    Ok(DesignPoint {
        latency_s: f64_from_hex(toks[1]).ok_or_else(corrupt)?,
        energy_pj: f64_from_hex(toks[2]).ok_or_else(corrupt)?,
        method,
        shape: (
            toks[3].parse().map_err(|_| corrupt())?,
            toks[4].parse().map_err(|_| corrupt())?,
        ),
    })
}

/// A search state's checkpoint sections: its points, then the
/// optimizer's transcript once it has one.
fn sections(st: &SearchState) -> Sections {
    let mut out = vec![(
        "points".to_string(),
        st.pts.iter().map(point_line).collect(),
    )];
    if !st.transcript.is_empty() {
        out.push(("transcript".to_string(), st.transcript.to_lines()));
    }
    out
}

impl Ctx<'_> {
    /// The anytime driver of this run (checkpoint kind `codesign`).
    fn sweep(&self, planned: u64) -> Sweep<'_> {
        Sweep::new(
            "codesign",
            vec![
                ("method", self.method.label().to_string()),
                ("model", self.model_name.to_string()),
                ("budget", self.budget.name.clone()),
                ("seed", self.budgets.seed.to_string()),
                ("hw_iters", self.budgets.hw_iters.to_string()),
                ("seg_iters", self.budgets.seg_iters.to_string()),
            ],
            self.cache.model_fingerprint(),
            self.ctl,
            planned,
        )
    }

    /// The search state and completed generation count to start from:
    /// restored from the ctl's checkpoint, or fresh.
    fn resume(&self, sweep: &Sweep<'_>) -> Result<(SearchState, u64), AutoSegError> {
        let mut st = SearchState::default();
        let Some((ck, gens)) = sweep.resume()? else {
            return Ok((st, 0));
        };
        if !ck.section("unit.0").is_empty() {
            return Err(CheckpointError::Corrupt {
                path: "unit.0".into(),
                reason: "an older layout's per-shape optimizer sections".into(),
            }
            .into());
        }
        for line in ck.section("points") {
            st.pts.push(parse_point_line(line, self.method.label())?);
        }
        st.transcript = Transcript::from_lines(ck.section("transcript").iter().map(String::as_str))
            .map_err(|e| CheckpointError::Corrupt {
                path: "transcript".into(),
                reason: e.to_string(),
            })?;
        Ok((st, gens))
    }
}

/// The optimizer a method's hardware search uses. The chunked methods
/// never reach this; the fallback arm keeps the match total without a
/// panic path.
fn make_opt(method: Method, space: SearchSpace, seed: u64) -> Box<dyn Optimizer> {
    match method {
        Method::MipBaye | Method::BayeBaye => Box::new(Tpe::new(space, seed)),
        Method::MipAnneal => Box::new(SimulatedAnnealing::new(space, seed)),
        _ => Box::new(RandomSearch::new(space, seed)),
    }
}

/// Evaluates candidate `k` of the search: decode its shape and hardware,
/// build the design (exact schedule for `MIP-*`, inner Bayesian
/// segmentation seeded by `k` for Baye-Baye), and score it.
fn eval_candidate(
    ctx: &Ctx<'_>,
    choices: &[ShapeChoice],
    k: usize,
    sample: &[usize],
) -> Option<DesignPoint> {
    let choice = &choices[sample[0]];
    let (n, s) = choice.shape;
    let pes: Vec<usize> = sample[1..=n].iter().map(|&e| 1usize << e).collect();
    let mult = 1u64 << sample[sample.len() - 1];
    let searched;
    let schedule = match &choice.schedule {
        Some(schedule) => schedule,
        None => {
            let seg = BayesSegmenter::new(split_seed(ctx.budgets.seed, k as u64), ctx.inner);
            searched = seg.segment(ctx.workload, n, s).ok()?;
            &searched
        }
    };
    let design = manual_design_with(ctx.workload, schedule, ctx.budget, &pes, mult, ctx.cache);
    point(
        ctx.workload,
        &design,
        ctx.budget,
        ctx.method.label(),
        choice.shape,
        ctx.cache,
    )
}

/// Driver for the optimizer-backed methods (MIP-Random / MIP-Baye /
/// MIP-Anneal / Baye-Baye): one optimizer over the shapes that have a
/// schedule (every shape for Baye-Baye), generation-batched ask →
/// parallel evaluate → ordered tell, `hw_iters` evaluations in all. The
/// transcript is recorded for checkpointing and replayed on resume.
fn run_optimized(
    ctx: &Ctx<'_>,
    all_shapes: &[(usize, usize)],
) -> Result<CodesignRun, AutoSegError> {
    let seg = ChainDpSegmenter::new();
    let bi_loop = ctx.method == Method::BayeBaye;
    let choices: Vec<ShapeChoice> = all_shapes
        .iter()
        .filter_map(|&shape| {
            let schedule = if bi_loop {
                None
            } else {
                Some(seg.segment(ctx.workload, shape.0, shape.1).ok()?)
            };
            Some(ShapeChoice { shape, schedule })
        })
        .collect();
    let Some(widest) = choices.iter().map(|c| c.shape.0).max() else {
        // No shape has an exact schedule: there is nothing to search.
        return Ok(CodesignRun {
            points: Vec::new(),
            status: RunStatus::Complete,
        });
    };
    let iters = ctx.budgets.hw_iters;
    let sweep = ctx.sweep(iters.div_ceil(GENERATION) as u64);
    let (mut st, from) = ctx.resume(&sweep)?;
    // The transcript must hold exactly the generations `gens_done`
    // counts, each full but the search's last: the loop below continues
    // from `gens_done`, the optimizer from its transcript.
    let want = iters.min(from as usize * GENERATION);
    if st.transcript.gens() as u64 != from || st.transcript.evals() != want {
        return Err(CheckpointError::Corrupt {
            path: "transcript".into(),
            reason: format!(
                "{} generations of {} evaluations recorded, gens_done {from} implies {want}",
                st.transcript.gens(),
                st.transcript.evals()
            ),
        }
        .into());
    }
    let mut opt = make_opt(
        ctx.method,
        search_space(choices.len(), widest, ctx.budget),
        ctx.budgets.seed,
    );
    st.transcript
        .replay(opt.as_mut())
        .map_err(|e| CheckpointError::Corrupt {
            path: "transcript".into(),
            reason: e.to_string(),
        })?;
    let status = sweep.run(
        &mut st,
        from,
        |st, g| {
            let done = g as usize * GENERATION;
            let k = GENERATION.min(iters - done);
            let samples = opt.suggest_batch(k);
            let evals = ctx.pool.par_map(&samples, |i, sample| {
                eval_candidate(ctx, &choices, done + i, sample)
            });
            let mut batch = Vec::with_capacity(k);
            for (sample, p) in samples.into_iter().zip(evals) {
                let value = match p {
                    Some(p) => {
                        let v = p.latency_s;
                        st.pts.push(p);
                        v
                    }
                    None => f64::INFINITY,
                };
                batch.push((sample, value));
            }
            opt.observe_batch(batch.clone());
            st.transcript.push_gen(batch);
            // Best-so-far per generation: the convergence curve of Fig 18.
            if obs::enabled() {
                obs::event(
                    "codesign.generation",
                    &[
                        ("method", ctx.method.label().into()),
                        ("iter", (done + k).into()),
                        (
                            "best_latency_s",
                            best_feasible_latency(&st.pts, f64::INFINITY).into(),
                        ),
                    ],
                );
            }
            Ok(())
        },
        sections,
    )?;
    Ok(CodesignRun {
        points: st.pts,
        status,
    })
}

/// Driver for the optimizer-free methods (MIP-Heuristic /
/// Baye-Heuristic): the shape list is evaluated in [`GENERATION`]-sized
/// chunks, each chunk one resumable generation.
fn run_chunked(ctx: &Ctx<'_>, all_shapes: &[(usize, usize)]) -> Result<CodesignRun, AutoSegError> {
    let seg = ChainDpSegmenter::new();
    let per_shape = (ctx.budgets.seg_iters / all_shapes.len().max(1)).max(8);
    let chunks: Vec<&[(usize, usize)]> = all_shapes.chunks(GENERATION).collect();
    let sweep = ctx.sweep(chunks.len() as u64);
    let (mut st, from) = ctx.resume(&sweep)?;
    let status = sweep.run(
        &mut st,
        from,
        |st, g| {
            let evals = ctx.pool.par_map(
                chunks[g as usize],
                |_, &(n, s)| -> Result<Option<DesignPoint>, AutoSegError> {
                    let schedule = if ctx.method == Method::BayeHeuristic {
                        let bayes = BayesSegmenter::new(ctx.budgets.seed, per_shape);
                        match bayes.segment(ctx.workload, n, s) {
                            Ok(sch) => sch,
                            Err(_) => return Ok(None),
                        }
                    } else {
                        match seg.segment(ctx.workload, n, s) {
                            Ok(sch) => sch,
                            Err(_) => return Ok(None),
                        }
                    };
                    let design = allocate_with(
                        ctx.workload,
                        &schedule,
                        ctx.budget,
                        DesignGoal::Latency,
                        ctx.cache,
                    )?;
                    Ok(point(
                        ctx.workload,
                        &design,
                        ctx.budget,
                        ctx.method.label(),
                        (n, s),
                        ctx.cache,
                    ))
                },
            );
            for e in evals {
                if let Some(p) = e? {
                    st.pts.push(p);
                }
            }
            Ok(())
        },
        sections,
    )?;
    Ok(CodesignRun {
        points: st.pts,
        status,
    })
}

/// Runs one co-design `method` under an anytime policy, with a pool and
/// cache from `budgets`. See [`run_codesign_with`].
///
/// # Errors
///
/// See [`run_codesign_with`].
pub fn run_codesign(
    model: &Graph,
    budget: &HwBudget,
    budgets: &CodesignBudgets,
    method: Method,
    ctl: &RunCtl,
) -> Result<CodesignRun, AutoSegError> {
    run_codesign_with(model, budget, budgets, method, &budgets.pool(), &EvalCache::default(), ctl)
}

/// The generation-granular anytime driver behind every co-design method,
/// on an explicit pool and cost cache.
///
/// With `RunCtl::none()` the search runs every planned generation and
/// returns `Complete`. A ctl adds deadline / generation-budget stops
/// (typed [`RunStatus::Partial`], never lost work), periodic checkpoints
/// and resume; see the module docs for the replay-based state model.
/// MIP-Heuristic's points depend on no field of `budgets`; the pool width
/// never changes any method's points.
///
/// # Errors
///
/// The usual [`AutoSegError`] search failures, plus
/// [`AutoSegError::Checkpoint`] when a checkpoint cannot be written, a
/// resume source is corrupt/torn, or its recorded configuration does not
/// match this run.
pub fn run_codesign_with(
    model: &Graph,
    budget: &HwBudget,
    budgets: &CodesignBudgets,
    method: Method,
    pool: &DsePool,
    cache: &EvalCache,
    ctl: &RunCtl,
) -> Result<CodesignRun, AutoSegError> {
    let _span = obs::span!("codesign.run", method = method.label(), model = model.name());
    let workload = Workload::from_graph(model);
    let all_shapes = shapes(&workload, budget);
    if all_shapes.is_empty() {
        // No pipeline fits (a one-PE budget or a one-item model).
        return Ok(CodesignRun {
            points: Vec::new(),
            status: RunStatus::Complete,
        });
    }
    let inner = (budgets.seg_iters / budgets.hw_iters.max(1)).max(4);
    let ctx = Ctx {
        workload: &workload,
        model_name: model.name(),
        budget,
        budgets,
        method,
        pool,
        cache,
        ctl,
        inner,
    };
    match method {
        Method::MipHeuristic | Method::BayeHeuristic => run_chunked(&ctx, &all_shapes),
        _ => run_optimized(&ctx, &all_shapes),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dse::control::StopReason;
    use nnmodel::zoo;

    fn tiny_budgets() -> CodesignBudgets {
        CodesignBudgets {
            hw_iters: 40,
            seg_iters: 60,
            seed: 3,
            threads: 2,
        }
    }

    /// One method's uninterrupted point cloud.
    fn points(
        model: &Graph,
        budget: &HwBudget,
        b: &CodesignBudgets,
        method: Method,
    ) -> Result<Vec<DesignPoint>, AutoSegError> {
        run_codesign(model, budget, b, method, &RunCtl::none()).map(|r| r.points)
    }

    #[test]
    fn all_methods_produce_feasible_points() {
        let model = zoo::alexnet_conv();
        let budget = HwBudget::nvdla_small();
        let b = tiny_budgets();
        let runs: Vec<(&str, Vec<DesignPoint>)> = vec![
            (
                "mip-heuristic",
                points(&model, &budget, &b, Method::MipHeuristic).unwrap(),
            ),
            (
                "mip-random",
                points(&model, &budget, &b, Method::MipRandom).unwrap(),
            ),
            (
                "mip-baye",
                points(&model, &budget, &b, Method::MipBaye).unwrap(),
            ),
            (
                "baye-heuristic",
                points(&model, &budget, &b, Method::BayeHeuristic).unwrap(),
            ),
            (
                "baye-baye",
                points(&model, &budget, &b, Method::BayeBaye).unwrap(),
            ),
            (
                "mip-anneal",
                points(&model, &budget, &b, Method::MipAnneal).unwrap(),
            ),
        ];
        for (name, pts) in &runs {
            assert!(!pts.is_empty(), "{name} produced no points");
            for p in pts {
                assert!(p.latency_s > 0.0 && p.energy_pj > 0.0, "{name}");
            }
        }
    }

    #[test]
    fn heuristic_best_latency_competitive_with_random() {
        // Figure 18: MIP-Heuristic (AutoSeg) finds the best designs.
        let model = zoo::alexnet_conv();
        let budget = HwBudget::nvdla_small();
        let b = tiny_budgets();
        let best = |pts: &[DesignPoint]| {
            pts.iter()
                .map(|p| p.latency_s)
                .fold(f64::INFINITY, f64::min)
        };
        let h = best(&points(&model, &budget, &b, Method::MipHeuristic).unwrap());
        let r = best(&points(&model, &budget, &b, Method::MipRandom).unwrap());
        assert!(h <= r * 1.05, "heuristic {h} vs random {r}");
    }

    #[test]
    fn heuristic_energy_dominates_random() {
        // Section VI-G point 1: heuristic allocation yields much lower
        // worst-case energy than random hardware sampling.
        let model = zoo::alexnet_conv();
        let budget = HwBudget::nvdla_small();
        let b = tiny_budgets();
        let max_e = |pts: &[DesignPoint]| {
            pts.iter().map(|p| p.energy_pj).fold(0.0f64, f64::max)
        };
        let h = max_e(&points(&model, &budget, &b, Method::MipHeuristic).unwrap());
        let r = max_e(&points(&model, &budget, &b, Method::MipRandom).unwrap());
        assert!(h <= r, "heuristic max energy {h} vs random {r}");
    }

    #[test]
    fn mip_baye_points_differ_from_mip_random() {
        // Fig. 18's MobileNetV1 / Eyeriss cell: past TPE's warm-up, which
        // is random search's own stream, MIP-Baye models.
        let b = CodesignBudgets {
            hw_iters: 200,
            seg_iters: 400,
            seed: 7,
            threads: 2,
        };
        let latencies = |m| -> Vec<f64> {
            let pts = points(&zoo::mobilenet_v1(), &HwBudget::eyeriss(), &b, m).unwrap();
            pts.iter().map(|p| p.latency_s).collect()
        };
        assert_ne!(latencies(Method::MipRandom), latencies(Method::MipBaye));
    }

    #[test]
    fn smoke_budgets_shrink_iterations_only() {
        let b = CodesignBudgets {
            hw_iters: 500,
            seg_iters: 2000,
            seed: 11,
            threads: 4,
        };
        let s = CodesignBudgets::smoke();
        assert!(s.hw_iters < b.hw_iters && s.seg_iters < b.seg_iters);
        // smoke_if_env honors the env var; when unset it is the identity.
        // (Set/unset of env vars is process-global, so only the unset path
        // is exercised here; the flag plumbing is covered by verify.sh.)
        if std::env::var("DSE_SMOKE").is_err() {
            let kept = b.smoke_if_env();
            assert_eq!(kept.hw_iters, b.hw_iters);
            assert_eq!(kept.seg_iters, b.seg_iters);
            assert_eq!(kept.seed, b.seed);
            assert_eq!(kept.threads, b.threads);
        }
    }

    #[test]
    fn pool_respects_explicit_thread_count() {
        let b = CodesignBudgets {
            threads: 3,
            ..CodesignBudgets::default()
        };
        assert_eq!(b.pool().threads(), 3);
        assert!(CodesignBudgets::default().pool().threads() >= 1);
    }

    #[test]
    fn method_labels_round_trip() {
        for m in Method::ALL {
            assert_eq!(Method::parse(m.label()), Some(m));
            assert_eq!(m.to_string(), m.label());
        }
        assert_eq!(Method::parse("nope"), None);
    }

    #[test]
    fn gen_budget_stop_returns_a_point_prefix() {
        let model = zoo::alexnet_conv();
        let budget = HwBudget::nvdla_small();
        let b = tiny_budgets();
        let full = run_codesign(&model, &budget, &b, Method::MipBaye, &RunCtl::none()).unwrap();
        let cut = run_codesign(
            &model,
            &budget,
            &b,
            Method::MipBaye,
            &RunCtl::none().stop_after_gens(2),
        )
        .unwrap();
        match cut.status {
            RunStatus::Partial(p) => {
                assert_eq!(p.completed_gens, 2);
                assert_eq!(p.reason, StopReason::GenBudget);
                assert!(p.planned_gens > 2);
            }
            RunStatus::Complete => panic!("a 2-generation budget cannot complete this search"),
        }
        assert!(cut.points.len() < full.points.len());
        assert_eq!(cut.points[..], full.points[..cut.points.len()], "prefix");
    }

    #[test]
    fn checkpoint_then_resume_is_bit_identical() {
        let model = zoo::alexnet_conv();
        let budget = HwBudget::nvdla_small();
        let b = tiny_budgets();
        let dir = std::env::temp_dir().join("spa_codesign_resume_unit");
        let _ = std::fs::create_dir_all(&dir);
        let ckpt = dir.join("mip-baye.ckpt");
        let full = run_codesign(&model, &budget, &b, Method::MipBaye, &RunCtl::none()).unwrap();
        // Kill after 3 generations, checkpointing every generation …
        let cut = run_codesign(
            &model,
            &budget,
            &b,
            Method::MipBaye,
            &RunCtl::none().stop_after_gens(3).checkpoint(&ckpt, 1),
        )
        .unwrap();
        assert!(!cut.status.is_complete());
        // … then resume and run to completion.
        let resumed = run_codesign(
            &model,
            &budget,
            &b,
            Method::MipBaye,
            &RunCtl::none().resume(&ckpt),
        )
        .unwrap();
        assert!(resumed.status.is_complete());
        assert_eq!(resumed.points, full.points, "kill+resume == uninterrupted");
        // Resuming with a different seed is a typed mismatch, not garbage.
        let other = CodesignBudgets { seed: 99, ..b };
        let err = run_codesign(
            &model,
            &budget,
            &other,
            Method::MipBaye,
            &RunCtl::none().resume(&ckpt),
        )
        .unwrap_err();
        assert!(
            matches!(
                &err,
                AutoSegError::Checkpoint(CheckpointError::Mismatch { key, .. }) if key == "seed"
            ),
            "got {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }
}
