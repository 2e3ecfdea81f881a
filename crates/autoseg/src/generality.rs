//! Generality analysis (Section VI-F): mapping a model onto an SPA
//! accelerator that was dedicated to a *different* model.
//!
//! The dedicated hardware is frozen — PU count, PE arrays, buffers,
//! bandwidth and the *pruned* Benes fabric. Remapping re-runs segmentation
//! with the target changed to direct latency and adds the connection
//! constraints of the pruned network: a candidate segmentation is only
//! admissible if every segment's inter-PU traffic routes on the surviving
//! fabric hardware.

use crate::allocate::eval_pu_segment;
use crate::error::AutoSegError;
use crate::segment::{ChainDpSegmenter, Segmenter};
use benes::PrunedFabric;
use nnmodel::{Graph, Workload};
use pucost::EvalCache;
use spa_arch::SpaDesign;
use spa_sim::{simulate_spa_with, SimReport};

/// Evaluates one candidate segment count `s`: fresh segmentation, first
/// PU relabeling whose traffic routes on the pruned fabric, frozen
/// hardware, fresh dataflows. `None` when nothing routes at this `s`.
fn eval_segcount(
    dedicated: &SpaDesign,
    workload: &Workload,
    pruned: &PrunedFabric,
    segmenter: &ChainDpSegmenter,
    cache: &EvalCache,
    n: usize,
    s: usize,
) -> Option<(SpaDesign, SimReport)> {
    let base_schedule = segmenter.segment(workload, n, s).ok()?;
    // The pruned fabric only kept the routes the *dedicated* model
    // exercised; the fresh segmentation's PU labels may not line up
    // with surviving routes. Try PU relabelings until one routes.
    for perm in pu_permutations(n) {
        let mut schedule = base_schedule.clone();
        for seg in &mut schedule.segments {
            for a in &mut seg.assignments {
                a.pu = perm[a.pu];
            }
        }
        // Frozen hardware, fresh dataflow choices.
        let dataflows = (0..n)
            .map(|pu| {
                (0..s)
                    .map(|si| {
                        eval_pu_segment(workload, &schedule, si, pu, &dedicated.pus[pu], cache).0
                    })
                    .collect()
            })
            .collect();
        let candidate = SpaDesign {
            name: format!("{}->{}", dedicated.name, workload.name()),
            pus: dedicated.pus.clone(),
            schedule,
            dataflows,
            batch: 1,
            bandwidth_gbps: dedicated.bandwidth_gbps,
            platform: dedicated.platform,
        };
        // Connection constraint: every segment must route on the pruned
        // network of the dedicated design.
        let Ok(routings) = candidate.segment_routings(workload) else {
            continue;
        };
        if !routings.iter().all(|r| pruned.supports(r)) {
            continue;
        }
        let report = simulate_spa_with(workload, &candidate, cache);
        // First routable relabeling of this segmentation wins.
        return Some((candidate, report));
    }
    None
}

/// Maps `new_model` onto the hardware of `dedicated` (designed for
/// `dedicated_workload`). Returns the remapped design (same PUs, new
/// schedule and dataflows) and its simulation report.
///
/// # Errors
///
/// [`AutoSegError::NoFeasibleDesign`] if no segmentation routes on the
/// pruned fabric (or the model has fewer items than the pipeline has PUs).
pub fn remap(
    dedicated: &SpaDesign,
    dedicated_workload: &Workload,
    new_model: &Graph,
) -> Result<(SpaDesign, SimReport), AutoSegError> {
    let workload = Workload::from_graph(new_model);
    let n = dedicated.n_pus();
    let infeasible = || AutoSegError::NoFeasibleDesign {
        budget: dedicated.name.clone(),
        model: workload.name().to_string(),
    };
    // The PU hardware is frozen, so every relabeling probes the same
    // (layer, PU, dataflow) points — one cache serves the whole remap.
    let cache = EvalCache::default();
    let pruned = dedicated
        .pruned_fabric(dedicated_workload)
        .map_err(|_| infeasible())?;
    let segmenter = ChainDpSegmenter::new();
    // Strict `<` in `s` order: the fewest of equally fast segment counts
    // wins.
    let mut best: Option<(SpaDesign, SimReport)> = None;
    for s in 1..=(workload.len() / n).min(16) {
        let Some((design, report)) =
            eval_segcount(dedicated, &workload, &pruned, &segmenter, &cache, n, s)
        else {
            continue;
        };
        if best
            .as_ref()
            .is_none_or(|(_, b)| report.seconds < b.seconds)
        {
            best = Some((design, report));
        }
    }
    best.ok_or_else(infeasible)
}

/// All permutations of `0..n` for small pipelines (n <= 4), or identity /
/// reversal / rotations for wider ones (bounded relabeling search).
fn pu_permutations(n: usize) -> Vec<Vec<usize>> {
    if n <= 4 {
        let mut out = Vec::new();
        let mut v: Vec<usize> = (0..n).collect();
        permute(&mut v, 0, &mut out);
        return out;

        fn permute(v: &mut Vec<usize>, k: usize, out: &mut Vec<Vec<usize>>) {
            if k == v.len() {
                out.push(v.clone());
                return;
            }
            for i in k..v.len() {
                v.swap(k, i);
                permute(v, k + 1, out);
                v.swap(k, i);
            }
        }
    }
    let mut out = vec![(0..n).collect::<Vec<_>>(), (0..n).rev().collect()];
    for shift in 1..n {
        out.push((0..n).map(|i| (i + shift) % n).collect());
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::engine::AutoSeg;
    use nnmodel::zoo;
    use spa_arch::HwBudget;
    use spa_sim::simulate_layerwise;

    #[test]
    fn cross_model_mapping_works_and_costs_a_little() {
        let budget = HwBudget::nvdla_small();
        // Dedicated design for SqueezeNet.
        let ded = AutoSeg::new(budget.clone())
            .max_pus(3)
            .max_segments(6)
            .run(&zoo::squeezenet1_0())
            .unwrap();
        // Map MobileNetV1 onto it.
        let (remapped, report) = remap(&ded.design, &ded.workload, &zoo::mobilenet_v1()).unwrap();
        assert_eq!(remapped.n_pus(), ded.design.n_pus());
        assert_eq!(remapped.pus, ded.design.pus);

        // Its own dedicated design should be at least as fast.
        let own = AutoSeg::new(budget.clone())
            .max_pus(3)
            .max_segments(6)
            .run(&zoo::mobilenet_v1())
            .unwrap();
        assert!(own.report.seconds <= report.seconds * 1.001);

        // But the non-dedicated mapping still beats the layerwise baseline
        // (the Figure 17 claim).
        let w = Workload::from_graph(&zoo::mobilenet_v1());
        let baseline = simulate_layerwise(&w, &budget);
        assert!(
            report.seconds < baseline.seconds,
            "remapped {} vs baseline {}",
            report.seconds,
            baseline.seconds
        );
    }

    #[test]
    fn self_remap_matches_pipeline_width() {
        let budget = HwBudget::eyeriss();
        let ded = AutoSeg::new(budget)
            .max_pus(3)
            .max_segments(4)
            .run(&zoo::squeezenet1_0())
            .unwrap();
        let (d, r) = remap(&ded.design, &ded.workload, &zoo::squeezenet1_0()).unwrap();
        assert_eq!(d.n_pus(), ded.design.n_pus());
        assert!(r.seconds > 0.0);
    }
}
