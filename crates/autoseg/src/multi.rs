//! Multi-model co-design: one shared SPA accelerator customized *jointly*
//! for a set of workloads.
//!
//! Section VI-F shows that a dedicated SPA design generalizes to foreign
//! models with a small penalty. This module closes the loop: instead of
//! dedicating the hardware to one model and remapping the others, the PE
//! quotas come from the *combined* operation distribution of every model's
//! segmentation, buffers cover the worst layer across all models, and the
//! fabric is pruned against the union of all segment routings — so every
//! model runs on first-class hardware.

use crate::allocate::{allocate, eval_pu_segment};
use crate::engine::DesignGoal;
use crate::error::AutoSegError;
use crate::segment::{ChainDpSegmenter, Segmenter};
use benes::Routing;
use nnmodel::{Graph, Workload};
use spa_arch::{HwBudget, SpaDesign};
use spa_sim::{simulate_spa, SimReport};

/// Result of a joint co-design run: one hardware configuration, one
/// mapped design (schedule + dataflows) per model.
#[derive(Debug, Clone)]
pub struct MultiOutcome {
    /// Per-model designs. All share identical `pus`, `bandwidth_gbps` and
    /// `platform`; schedules and dataflows differ.
    pub designs: Vec<SpaDesign>,
    /// Per-model simulation reports (same order as `designs`).
    pub reports: Vec<SimReport>,
    /// Per-model workloads (same order).
    pub workloads: Vec<Workload>,
    /// Pipeline width chosen.
    pub n_pus: usize,
}

impl MultiOutcome {
    /// Geometric-mean latency across the models (the selection metric).
    pub fn geomean_seconds(&self) -> f64 {
        let log_sum: f64 = self.reports.iter().map(|r| r.seconds.ln()).sum();
        (log_sum / self.reports.len().max(1) as f64).exp()
    }

    /// The union pruned fabric all models' segments route on.
    ///
    /// # Panics
    ///
    /// Panics if any design stopped being routable (impossible for
    /// outcomes produced by [`design_multi`]).
    pub fn union_pruned_fabric(&self) -> benes::PrunedFabric {
        let net = self.designs[0].fabric();
        let routings: Vec<Routing> = self
            .designs
            .iter()
            .zip(&self.workloads)
            .flat_map(|(d, w)| d.segment_routings(w).expect("routable by construction"))
            .collect();
        let refs: Vec<&Routing> = routings.iter().collect();
        net.prune(&refs)
    }
}

/// Evaluates one candidate pipeline width `n`: per-model segmentation,
/// conservative hardware merge, per-model designs on the shared hardware.
/// `None` when any model cannot be served at this width.
fn eval_width(
    workloads: &[Workload],
    budget: &HwBudget,
    max_segments: usize,
    n: usize,
    segmenter: &ChainDpSegmenter,
) -> Option<MultiOutcome> {
    // 1. Per-model segmentation: pick the segment count whose solo
    //    allocation simulates fastest.
    let mut schedules = Vec::with_capacity(workloads.len());
    for w in workloads {
        let mut best_s = None;
        for s in 1..=max_segments.min(w.len() / n) {
            let Ok(sched) = segmenter.segment(w, n, s) else {
                continue;
            };
            let Ok(d) = allocate(w, &sched, budget, DesignGoal::Latency) else {
                continue;
            };
            if !d.fits(budget) || d.segment_routings(w).is_err() {
                continue;
            }
            let secs = simulate_spa(w, &d).seconds;
            if best_s
                .as_ref()
                .is_none_or(|&(bs, _): &(f64, _)| secs < bs)
            {
                best_s = Some((secs, d.schedule.clone()));
            }
        }
        schedules.push(best_s?.1);
    }

    // 2. Shared hardware: allocate per model, then merge — per-PU PE
    //    count = the maximum the budget allows of the per-model
    //    allocations (conservative merge: take the element-wise max,
    //    then scale down while over budget).
    let mut per_model: Vec<SpaDesign> = Vec::new();
    for (w, sched) in workloads.iter().zip(&schedules) {
        per_model.push(allocate(w, sched, budget, DesignGoal::Latency).ok()?);
    }
    let mut pus = per_model[0].pus.clone();
    for d in &per_model[1..] {
        for (shared, pu) in pus.iter_mut().zip(&d.pus) {
            if pu.num_pe() > shared.num_pe() {
                shared.rows = pu.rows;
                shared.cols = pu.cols;
            }
            shared.act_buf_bytes = shared.act_buf_bytes.max(pu.act_buf_bytes);
            shared.wgt_buf_bytes = shared.wgt_buf_bytes.max(pu.wgt_buf_bytes);
        }
    }
    // Scale the merged hardware down until it fits.
    loop {
        let trial = SpaDesign {
            pus: pus.clone(),
            ..per_model[0].clone()
        };
        if trial.fits(budget) {
            break;
        }
        let widest = (0..pus.len()).max_by_key(|&i| pus[i].num_pe())?;
        if pus[widest].num_pe() <= 1 {
            return None;
        }
        let half = pus[widest].num_pe() / 2;
        let (r, c) = pucost::PuConfig::square_geometry(half);
        pus[widest].rows = r;
        pus[widest].cols = c;
        pus[widest].wgt_buf_bytes = (pus[widest].wgt_buf_bytes / 2).max(1);
    }

    // 3. Per-model designs on the shared hardware, with fresh dataflow
    //    selection.
    let mut designs = Vec::with_capacity(workloads.len());
    let mut reports = Vec::with_capacity(workloads.len());
    for (w, sched) in workloads.iter().zip(&schedules) {
        let dataflows = (0..n)
            .map(|pu| {
                (0..sched.len())
                    .map(|si| eval_pu_segment(w, sched, si, pu, &pus[pu]).0)
                    .collect()
            })
            .collect();
        let d = SpaDesign {
            name: format!("multi@{}:{}", budget.name, w.name()),
            pus: pus.clone(),
            schedule: sched.clone(),
            dataflows,
            batch: 1,
            bandwidth_gbps: budget.bandwidth_gbps,
            platform: budget.platform,
        };
        if !d.fits(budget) || d.segment_routings(w).is_err() {
            return None;
        }
        reports.push(simulate_spa(w, &d));
        designs.push(d);
    }

    Some(MultiOutcome {
        designs,
        reports,
        workloads: workloads.to_vec(),
        n_pus: n,
    })
}

/// Jointly customizes one SPA accelerator for `models` under `budget`.
///
/// For every candidate pipeline width, each model is segmented
/// independently (best segment count under the paper's objective via the
/// latency of a per-model trial allocation), then a *shared* hardware
/// configuration is chosen by running Algorithm 1 on the concatenation of
/// all models' segments and taking, per PU, the maximum buffer and the
/// allocation driven by the combined operation distribution. The width
/// minimizing geometric-mean latency wins.
///
/// # Errors
///
/// [`AutoSegError::EmptyWorkload`] if `models` is empty,
/// [`AutoSegError::NoFeasibleDesign`] if no width fits every model.
pub fn design_multi(
    models: &[Graph],
    budget: &HwBudget,
    max_pus: usize,
    max_segments: usize,
) -> Result<MultiOutcome, AutoSegError> {
    if models.is_empty() {
        return Err(AutoSegError::EmptyWorkload);
    }
    let key = model_key(models);
    let _span = obs::span!("autoseg.multi", models = key.as_str());
    let workloads: Vec<Workload> = models.iter().map(Workload::from_graph).collect();
    let segmenter = ChainDpSegmenter::new();
    let min_len = workloads.iter().map(Workload::len).min().expect("nonempty");
    // Strict `<` in width order: the narrowest of equally fast widths wins.
    let mut best: Option<MultiOutcome> = None;
    for n in 2..=max_pus.min(min_len).min(budget.pes) {
        let Some(o) = eval_width(&workloads, budget, max_segments, n, &segmenter) else {
            continue;
        };
        if best
            .as_ref()
            .is_none_or(|b| o.geomean_seconds() < b.geomean_seconds())
        {
            best = Some(o);
        }
    }
    best.ok_or_else(|| AutoSegError::NoFeasibleDesign {
        budget: budget.name.clone(),
        model: key,
    })
}

fn model_key(models: &[Graph]) -> String {
    models
        .iter()
        .map(|m| m.name().to_string())
        .collect::<Vec<_>>()
        .join("+")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AutoSeg;
    use nnmodel::zoo;

    #[test]
    fn joint_design_serves_all_models() {
        let models = vec![zoo::squeezenet1_0(), zoo::mobilenet_v1()];
        let budget = HwBudget::nvdla_small();
        let out = design_multi(&models, &budget, 4, 6).expect("feasible");
        assert_eq!(out.designs.len(), 2);
        // Identical shared hardware.
        assert_eq!(out.designs[0].pus, out.designs[1].pus);
        for (d, w) in out.designs.iter().zip(&out.workloads) {
            assert!(d.fits(&budget));
            d.schedule.validate(w).expect("valid");
        }
        assert!(out.geomean_seconds() > 0.0);
    }

    #[test]
    fn joint_design_close_to_dedicated() {
        // Sharing hardware costs something, but each model should stay
        // within ~2x of its dedicated design.
        let models = vec![zoo::squeezenet1_0(), zoo::mobilenet_v1()];
        let budget = HwBudget::nvdla_small();
        let joint = design_multi(&models, &budget, 4, 6).expect("feasible");
        for (model, report) in models.iter().zip(&joint.reports) {
            let solo = AutoSeg::new(budget.clone())
                .max_pus(4)
                .max_segments(6)
                .run(model)
                .expect("feasible");
            let ratio = report.seconds / solo.report.seconds;
            assert!(ratio < 2.0, "{}: joint/solo {ratio:.2}", model.name());
        }
    }

    #[test]
    fn union_fabric_supports_everything() {
        let models = vec![zoo::squeezenet1_0(), zoo::resnet18()];
        let budget = HwBudget::nvdla_large();
        let out = design_multi(&models, &budget, 4, 6).expect("feasible");
        let pruned = out.union_pruned_fabric();
        for (d, w) in out.designs.iter().zip(&out.workloads) {
            for r in d.segment_routings(w).expect("routable") {
                assert!(pruned.supports(&r));
            }
        }
    }

    #[test]
    fn empty_model_set_rejected() {
        assert!(matches!(
            design_multi(&[], &HwBudget::eyeriss(), 4, 4),
            Err(AutoSegError::EmptyWorkload)
        ));
    }
}
