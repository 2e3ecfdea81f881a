//! The end-to-end AutoSeg flow: enumerate `(N, S)` shapes, segment,
//! allocate, simulate, keep the best design (Section III's workflow).

use crate::allocate::allocate;
use crate::codesign::GENERATION;
use crate::dse::checkpoint::{f64_from_hex, f64_to_hex, CheckpointError};
use crate::dse::control::{RunCtl, RunStatus};
use crate::dse::sweep::Sweep;
use crate::dse::DsePool;
use crate::error::AutoSegError;
use crate::segment::{ChainDpSegmenter, Segmenter};
use nnmodel::{Graph, Workload};
use pucost::EnergyModel;
use spa_arch::{HwBudget, SpaDesign};
use spa_sim::{simulate_spa, SimReport};

/// Optimization target of the generated accelerator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DesignGoal {
    /// Minimize single-frame latency (batch pinned to 1).
    #[default]
    Latency,
    /// Maximize throughput (batch-level replication allowed).
    Throughput,
}

/// Result of a co-design run.
#[derive(Debug, Clone)]
pub struct AutoSegOutcome {
    /// The selected design.
    pub design: SpaDesign,
    /// Its simulation report.
    pub report: SimReport,
    /// The compute view the design was built for.
    pub workload: Workload,
    /// Number of `(N, S)` combinations explored.
    pub explored: usize,
}

/// Result of an anytime engine run ([`AutoSeg::run_ctl`]): the best
/// design found so far — if any shape has been evaluated feasible — plus
/// how much of the sweep produced it.
#[derive(Debug, Clone)]
pub struct AnytimeOutcome {
    /// Best design over the shapes evaluated so far. `None` means no
    /// feasible shape *yet* for a partial run, or a genuinely infeasible
    /// budget for a complete one.
    pub outcome: Option<AutoSegOutcome>,
    /// `Complete`, or a typed partial with generation provenance.
    pub status: RunStatus,
}

/// One swept shape's recorded result: whether it counted as explored
/// (segmentation + allocation succeeded) and its metric when feasible.
fn shape_line(counted: bool, metric: Option<f64>) -> String {
    match metric {
        Some(m) => format!("sh {} {}", counted as u8, f64_to_hex(m)),
        None => format!("sh {} -", counted as u8),
    }
}

fn parse_shape_line(line: &str) -> Result<(bool, Option<f64>), CheckpointError> {
    let corrupt = || CheckpointError::Corrupt {
        path: "shapes-section".into(),
        reason: format!("malformed shape line: {line}"),
    };
    let toks: Vec<&str> = line.split(' ').collect();
    if toks.len() != 3 || toks[0] != "sh" {
        return Err(corrupt());
    }
    let counted = match toks[1] {
        "0" => false,
        "1" => true,
        _ => return Err(corrupt()),
    };
    let metric = match toks[2] {
        "-" => None,
        hex => Some(f64_from_hex(hex).ok_or_else(corrupt)?),
    };
    Ok((counted, metric))
}

/// The AutoSeg co-design engine (builder-style configuration).
///
/// See the crate-level example.
pub struct AutoSeg {
    budget: HwBudget,
    goal: DesignGoal,
    max_pus: usize,
    max_segments: usize,
    threads: usize,
    segmenter: Box<dyn Segmenter>,
}

impl std::fmt::Debug for AutoSeg {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AutoSeg")
            .field("budget", &self.budget.name)
            .field("goal", &self.goal)
            .field("max_pus", &self.max_pus)
            .field("max_segments", &self.max_segments)
            .field("threads", &self.threads)
            .field("segmenter", &self.segmenter.name())
            .finish()
    }
}

impl AutoSeg {
    /// An engine targeting `budget` with default settings (latency goal,
    /// up to 8 PUs and 12 segments, chain-DP segmentation).
    pub fn new(budget: HwBudget) -> Self {
        Self {
            budget,
            goal: DesignGoal::Latency,
            max_pus: 8,
            max_segments: 12,
            threads: 0,
            segmenter: Box::new(ChainDpSegmenter::new()),
        }
    }

    /// Sets the design goal.
    pub fn design_goal(mut self, goal: DesignGoal) -> Self {
        self.goal = goal;
        self
    }

    /// Caps the pipeline width explored.
    pub fn max_pus(mut self, n: usize) -> Self {
        self.max_pus = n.max(1);
        self
    }

    /// Caps the segment count explored.
    pub fn max_segments(mut self, s: usize) -> Self {
        self.max_segments = s.max(1);
        self
    }

    /// Sets the DSE worker count for the `(N, S)` sweep. `0` (the
    /// default) auto-sizes from `DSE_THREADS` / available cores; `1` is
    /// the serial reference path. The selected design is identical for
    /// any value — candidates are evaluated per shape index and folded in
    /// enumeration order.
    pub fn threads(mut self, t: usize) -> Self {
        self.threads = t;
        self
    }

    /// Replaces the segmentation engine (e.g. [`crate::segment::MipSegmenter`]
    /// or a baseline).
    pub fn segmenter(mut self, s: Box<dyn Segmenter>) -> Self {
        self.segmenter = s;
        self
    }

    /// Runs the co-design flow on `model`.
    ///
    /// All feasible `(N PUs, S segments)` tuples are traversed (Section
    /// V-A: "all possible (S, N) tuples will be traversed"); for each, the
    /// segmenter and Algorithm 1 produce a candidate which is simulated;
    /// the best design under the goal wins.
    ///
    /// # Errors
    ///
    /// [`AutoSegError::InvalidModel`] / [`AutoSegError::InvalidBudget`]
    /// if pre-flight validation rejects the inputs,
    /// [`AutoSegError::EmptyWorkload`] for empty models,
    /// [`AutoSegError::NoFeasibleDesign`] if nothing fits the budget.
    pub fn run(&self, model: &Graph) -> Result<AutoSegOutcome, AutoSegError> {
        nnmodel::validate(model)?;
        let workload = Workload::from_graph(model);
        self.run_workload(workload)
    }

    /// Like [`AutoSeg::run`] but starting from an existing [`Workload`].
    ///
    /// # Errors
    ///
    /// See [`AutoSeg::run`].
    pub fn run_workload(&self, workload: Workload) -> Result<AutoSegOutcome, AutoSegError> {
        let model = workload.name().to_string();
        let run = self.run_workload_ctl(workload, &RunCtl::none())?;
        match run.outcome {
            Some(outcome) => Ok(outcome),
            None => Err(AutoSegError::NoFeasibleDesign {
                budget: self.budget.name.clone(),
                model,
            }),
        }
    }

    /// [`AutoSeg::run`] under an anytime policy: the `(N, S)` sweep
    /// proceeds in [`GENERATION`]-sized chunks, honoring the ctl's
    /// deadline / generation budget (typed [`RunStatus::Partial`] with
    /// the best-so-far design instead of lost work), periodic
    /// checkpoints, and resume.
    ///
    /// With `RunCtl::none()` this is exactly [`AutoSeg::run`], except
    /// that an infeasible budget surfaces as `outcome: None` rather than
    /// an error (a *partial* run with no feasible shape yet is not a
    /// failure).
    ///
    /// # Errors
    ///
    /// See [`AutoSeg::run`], plus [`AutoSegError::Checkpoint`] for
    /// checkpoint I/O / corruption / configuration mismatches.
    pub fn run_ctl(&self, model: &Graph, ctl: &RunCtl) -> Result<AnytimeOutcome, AutoSegError> {
        nnmodel::validate(model)?;
        self.run_workload_ctl(Workload::from_graph(model), ctl)
    }

    fn goal_label(&self) -> &'static str {
        match self.goal {
            DesignGoal::Latency => "latency",
            DesignGoal::Throughput => "throughput",
        }
    }

    /// Like [`AutoSeg::run_ctl`] but starting from an existing
    /// [`Workload`].
    ///
    /// # Errors
    ///
    /// See [`AutoSeg::run_ctl`].
    pub fn run_workload_ctl(
        &self,
        workload: Workload,
        ctl: &RunCtl,
    ) -> Result<AnytimeOutcome, AutoSegError> {
        self.budget.validate()?;
        if workload.is_empty() {
            return Err(AutoSegError::EmptyWorkload);
        }
        let _span = obs::span!("autoseg.engine", model = workload.name());
        let l = workload.len();
        let mut shapes = Vec::new();
        for n in 2..=self.max_pus.min(l).min(self.budget.pes) {
            for s in 1..=self.max_segments.min(l / n) {
                shapes.push((n, s));
            }
        }
        let pool = if self.threads == 0 {
            DsePool::from_env()
        } else {
            DsePool::new(self.threads)
        };
        let chunks: Vec<&[(usize, usize)]> = shapes.chunks(GENERATION).collect();
        let sweep = Sweep::new(
            "engine",
            vec![
                ("model", workload.name().to_string()),
                ("budget", self.budget.name.clone()),
                ("goal", self.goal_label().to_string()),
                ("max_pus", self.max_pus.to_string()),
                ("max_segments", self.max_segments.to_string()),
                ("segmenter", self.segmenter.name().to_string()),
            ],
            EnergyModel::tsmc28().fingerprint(),
            ctl,
            chunks.len() as u64,
        );

        // Per-shape results in enumeration order — `(counted, metric)` —
        // restored from a checkpoint and/or computed below. Designs are
        // not persisted: the winner is *rematerialized* at the end by
        // re-evaluating its shape, which is bit-identical because the
        // evaluation is deterministic.
        let mut results: Vec<(bool, Option<f64>)> = Vec::new();
        let mut from = 0;
        if let Some((ck, gens)) = sweep.resume()? {
            for line in ck.section("shapes") {
                results.push(parse_shape_line(line)?);
            }
            // Exactly the shapes of the first `gens` generations: anything
            // else would shift later results onto the wrong shapes.
            let covered = shapes.len().min(gens as usize * GENERATION);
            if results.len() != covered {
                return Err(CheckpointError::Corrupt {
                    path: "shapes-section".into(),
                    reason: format!(
                        "{} results for the {covered} shapes of {gens} generations",
                        results.len()
                    ),
                }
                .into());
            }
            from = gens;
        }

        // One shape's candidate, built and simulated independently of all
        // others (the parallel sweep stays bit-identical to the serial
        // one: results are folded in enumeration order).
        let eval_shape = |&(n, s): &(usize, usize)| {
            let Ok(schedule) = self.segmenter.segment(&workload, n, s) else {
                return (false, None);
            };
            let Ok(design) = allocate(&workload, &schedule, &self.budget, self.goal) else {
                return (false, None);
            };
            if !design.fits(&self.budget) {
                return (true, None);
            }
            // The fabric must be able to realize every segment.
            if design.segment_routings(&workload).is_err() {
                return (true, None);
            }
            let report = simulate_spa(&workload, &design);
            let metric = match self.goal {
                DesignGoal::Latency => report.seconds,
                DesignGoal::Throughput => 1.0 / report.gops().max(1e-12),
            };
            (true, Some((metric, design, report)))
        };

        let status = sweep.run(
            &mut results,
            from,
            |results, g| {
                let evals = pool.par_map(chunks[g as usize], |_, sh| eval_shape(sh));
                for (counted, candidate) in evals {
                    results.push((counted, candidate.map(|(m, _, _)| m)));
                }
                Ok(())
            },
            |results| {
                let lines = results.iter().map(|&(c, m)| shape_line(c, m)).collect();
                vec![("shapes".to_string(), lines)]
            },
        )?;

        // Fold in enumeration order with a strict `<`: same winner and
        // tie-breaks as the serial sweep.
        let mut best: Option<(f64, usize)> = None;
        let mut explored = 0;
        for (i, (counted, metric)) in results.iter().enumerate() {
            explored += *counted as usize;
            if let Some(m) = metric {
                if best.as_ref().is_none_or(|(bm, _)| *m < *bm) {
                    best = Some((*m, i));
                }
            }
        }
        if obs::enabled() {
            // Progress event for the (N, S) sweep.
            obs::add("engine.shapes_swept", results.len() as u64);
            obs::add("engine.shapes_feasible", explored as u64);
            obs::event(
                "engine.sweep",
                &[
                    ("model", workload.name().into()),
                    ("shapes", results.len().into()),
                    ("feasible", explored.into()),
                    ("found", best.is_some().into()),
                    ("complete", status.is_complete().into()),
                ],
            );
        }
        let outcome = match best {
            Some((metric, idx)) => {
                let (_, candidate) = eval_shape(&shapes[idx]);
                match candidate {
                    Some((m, design, report)) => {
                        debug_assert_eq!(m.to_bits(), metric.to_bits());
                        Some(AutoSegOutcome {
                            design,
                            report,
                            workload,
                            explored,
                        })
                    }
                    // A recorded metric for a shape that does not evaluate
                    // feasible can only come from a checkpoint that lies.
                    None => {
                        return Err(CheckpointError::Corrupt {
                            path: "shapes-section".into(),
                            reason: "recorded metric for an infeasible shape".into(),
                        }
                        .into())
                    }
                }
            }
            None => None,
        };
        Ok(AnytimeOutcome { outcome, status })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnmodel::zoo;
    use spa_sim::simulate_processor;

    #[test]
    fn designs_fit_their_budgets() {
        for budget in [HwBudget::eyeriss(), HwBudget::nvdla_small()] {
            let out = AutoSeg::new(budget.clone())
                .max_pus(4)
                .max_segments(6)
                .run(&zoo::squeezenet1_0())
                .unwrap();
            assert!(out.design.fits(&budget), "{}", budget.name);
            assert!(out.explored > 0);
        }
    }

    #[test]
    fn spa_beats_the_layerwise_baseline() {
        // The headline claim (Figure 12): AutoSeg designs outperform
        // general processors of the same budget.
        let budget = HwBudget::nvdla_small();
        let w = Workload::from_graph(&zoo::mobilenet_v1());
        let baseline = simulate_processor(&w, &budget, pucost::Dataflow::WeightStationary);
        let out = AutoSeg::new(budget)
            .max_pus(4)
            .max_segments(8)
            .run(&zoo::mobilenet_v1())
            .unwrap();
        let speedup = baseline.seconds / out.report.seconds;
        assert!(speedup > 1.0, "speedup {speedup:.2}");
    }

    #[test]
    fn throughput_goal_reports_higher_gops() {
        let budget = HwBudget::edge_tpu();
        let lat = AutoSeg::new(budget.clone())
            .max_pus(3)
            .max_segments(4)
            .run(&zoo::squeezenet1_0())
            .unwrap();
        let thr = AutoSeg::new(budget)
            .design_goal(DesignGoal::Throughput)
            .max_pus(3)
            .max_segments(4)
            .run(&zoo::squeezenet1_0())
            .unwrap();
        assert!(thr.report.gops() >= lat.report.gops());
    }

    #[test]
    fn deep_model_designs_are_feasible() {
        // ResNet50 (54 items) on NVDLA-Large: SPA scales where the full
        // pipeline cannot.
        let out = AutoSeg::new(HwBudget::nvdla_large())
            .max_pus(4)
            .max_segments(10)
            .run(&zoo::resnet50())
            .unwrap();
        assert!(out.design.schedule.len() > 1);
    }

    #[test]
    fn infeasible_budget_reports_cleanly() {
        let mut b = HwBudget::eyeriss();
        b.pes = 1;
        let err = AutoSeg::new(b).run(&zoo::squeezenet1_0()).unwrap_err();
        assert!(matches!(err, AutoSegError::NoFeasibleDesign { .. }));
    }

    #[test]
    fn anytime_none_ctl_matches_plain_run() {
        let budget = HwBudget::nvdla_small();
        let eng = AutoSeg::new(budget).max_pus(3).max_segments(4).threads(2);
        let plain = eng.run(&zoo::squeezenet1_0()).unwrap();
        let any = eng
            .run_ctl(&zoo::squeezenet1_0(), &RunCtl::none())
            .unwrap();
        assert!(any.status.is_complete());
        let out = any.outcome.expect("feasible");
        assert_eq!(out.design, plain.design);
        assert_eq!(out.explored, plain.explored);
        assert_eq!(out.report.cycles, plain.report.cycles);
    }

    #[test]
    fn engine_kill_and_resume_is_bit_identical() {
        let budget = HwBudget::nvdla_small();
        let eng = AutoSeg::new(budget).max_pus(4).max_segments(6).threads(2);
        let full = eng.run(&zoo::squeezenet1_0()).unwrap();
        let dir = std::env::temp_dir().join("spa_engine_resume_unit");
        let _ = std::fs::create_dir_all(&dir);
        let ckpt = dir.join("engine.ckpt");
        let cut = eng
            .run_ctl(
                &zoo::squeezenet1_0(),
                &RunCtl::none().stop_after_gens(1).checkpoint(&ckpt, 1),
            )
            .unwrap();
        assert!(!cut.status.is_complete(), "one generation cannot finish");
        let resumed = eng
            .run_ctl(&zoo::squeezenet1_0(), &RunCtl::none().resume(&ckpt))
            .unwrap();
        assert!(resumed.status.is_complete());
        let out = resumed.outcome.expect("feasible");
        assert_eq!(out.design, full.design, "kill+resume == uninterrupted");
        assert_eq!(out.explored, full.explored);
        assert_eq!(out.report.cycles, full.report.cycles);
        // Resuming under a different goal is a typed mismatch.
        let err = AutoSeg::new(HwBudget::nvdla_small())
            .design_goal(DesignGoal::Throughput)
            .max_pus(4)
            .max_segments(6)
            .threads(2)
            .run_ctl(&zoo::squeezenet1_0(), &RunCtl::none().resume(&ckpt))
            .unwrap_err();
        assert!(
            matches!(
                &err,
                AutoSegError::Checkpoint(CheckpointError::Mismatch { key, .. }) if key == "goal"
            ),
            "got {err}"
        );
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn zero_budget_partial_has_no_outcome() {
        let budget = HwBudget::nvdla_small();
        let any = AutoSeg::new(budget)
            .max_pus(3)
            .max_segments(4)
            .threads(1)
            .run_ctl(&zoo::squeezenet1_0(), &RunCtl::none().stop_after_gens(0))
            .unwrap();
        match any.status {
            RunStatus::Partial(p) => {
                assert_eq!(p.completed_gens, 0);
                assert!(p.planned_gens > 0);
            }
            RunStatus::Complete => panic!("a zero budget cannot complete"),
        }
        assert!(any.outcome.is_none());
    }

    #[test]
    fn malformed_budget_rejected_preflight() {
        let mut b = HwBudget::eyeriss();
        b.bandwidth_gbps = f64::NAN;
        let err = AutoSeg::new(b).run(&zoo::squeezenet1_0()).unwrap_err();
        assert!(matches!(err, AutoSegError::InvalidBudget(_)));
    }
}
