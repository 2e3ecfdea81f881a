//! Integration tests encoding the paper's qualitative claims: these pin
//! the *shape* of the evaluation results (who wins, and roughly by how
//! much) so regressions in any crate surface as claim violations.

use deepburning_seg::prelude::*;
use deepburning_seg::{autoseg, nnmodel, pucost, spa_sim};
use nnmodel::{analysis, Workload};
use pucost::Dataflow;
use spa_arch::HwBudget;
use spa_sim::{simulate_fusion, simulate_processor, simulate_spa};

/// Section II / Figure 3: segment-grained pipelining lifts the CTC ratio
/// of every evaluation model, toward (but not beyond) the full-pipeline
/// bound.
#[test]
fn claim_segmentation_lifts_ctc() {
    for g in nnmodel::zoo::evaluation_models() {
        let w = Workload::from_graph(&g);
        let per_seg = 6.min(w.len());
        let segs = analysis::even_segments(&w, per_seg);
        let layerwise = analysis::layerwise_ctc(&w);
        let segmented = analysis::segmented_ctc(&w, &segs);
        let full = analysis::full_pipeline_ctc(&w);
        assert!(segmented > layerwise, "{}", g.name());
        assert!(full >= segmented, "{}", g.name());
    }
}

/// Figure 12: AutoSeg designs beat (or at worst match) same-budget general
/// processors, with the biggest wins on fmap-dominated models.
#[test]
fn claim_spa_beats_general_processors() {
    let budget = HwBudget::nvdla_large();
    let mut speedups = Vec::new();
    for g in nnmodel::zoo::evaluation_models() {
        let w = Workload::from_graph(&g);
        let base = simulate_processor(&w, &budget, Dataflow::WeightStationary);
        let out = AutoSeg::new(budget.clone())
            .max_pus(6)
            .max_segments(10)
            .run(&g)
            .expect("feasible");
        let s = base.seconds / out.report.seconds;
        assert!(s > 0.95, "{}: speedup {s:.2}", g.name());
        speedups.push((g.name().to_string(), s));
    }
    let avg = speedups.iter().map(|(_, s)| s).sum::<f64>() / speedups.len() as f64;
    assert!(avg > 1.5, "average speedup {avg:.2} too low");
    // fmap-dominated models (MobileNetV2 / SqueezeNet) should beat
    // weight-dominated AlexNet (Section VI-B's Amdahl argument).
    let get = |name: &str| speedups.iter().find(|(n, _)| n == name).unwrap().1;
    assert!(get("mobilenet_v2") > get("alexnet"));
    assert!(get("squeezenet1_0") > get("alexnet"));
}

/// Figure 13: memory-access reduction tracks the intermediate-fmap share
/// of the model's footprint.
#[test]
fn claim_mem_reduction_tracks_fmap_share() {
    let budget = HwBudget::eyeriss();
    for g in [nnmodel::zoo::mobilenet_v1(), nnmodel::zoo::alexnet()] {
        let w = Workload::from_graph(&g);
        let weights: u64 = w.items().iter().map(|i| i.w_bytes).sum();
        let fmap_share = 1.0 - weights as f64 / w.total_layerwise_access() as f64;
        if let Ok(out) = AutoSeg::new(budget.clone()).max_pus(4).max_segments(8).run(&g) {
            let reduction = 1.0 - out.report.dram_bytes as f64 / w.total_layerwise_access() as f64;
            // Reduction can approach but not exceed the fmap share.
            assert!(reduction <= fmap_share + 0.02, "{}", g.name());
        }
    }
}

/// Section VI-D / Figure 15: fusion helps the layerwise baseline but
/// AutoSeg still wins on bandwidth-starved budgets.
#[test]
fn claim_spa_beats_fusion() {
    let budget = HwBudget::nvdla_large();
    for g in [nnmodel::zoo::mobilenet_v2(), nnmodel::zoo::squeezenet1_0()] {
        let w = Workload::from_graph(&g);
        let fused = simulate_fusion(&w, &budget, Some(Dataflow::WeightStationary));
        let plain = simulate_processor(&w, &budget, Dataflow::WeightStationary);
        assert!(fused.seconds <= plain.seconds, "{}", g.name());
        let out = AutoSeg::new(budget.clone())
            .max_pus(6)
            .max_segments(10)
            .run(&g)
            .expect("feasible");
        assert!(
            out.report.seconds < fused.seconds,
            "{}: spa {} vs fusion {}",
            g.name(),
            out.report.seconds,
            fused.seconds
        );
    }
}

/// Section VI-E / Figure 16: fabric + dataflow muxes ("others") stay under
/// 3% of design energy.
#[test]
fn claim_fabric_energy_is_marginal() {
    let budget = HwBudget::nvdla_small();
    for g in [nnmodel::zoo::squeezenet1_0(), nnmodel::zoo::resnet18()] {
        let out = AutoSeg::new(budget.clone())
            .max_pus(4)
            .max_segments(6)
            .run(&g)
            .expect("feasible");
        let frac = out.report.energy.fabric_pj / out.report.energy.total_pj();
        assert!(frac < 0.03, "{}: others {frac:.3}", g.name());
    }
}

/// Section VI-H / Figure 19: the dataflow-hybrid configuration matches or
/// beats both single-dataflow configurations on on-chip data movement.
#[test]
fn claim_hybrid_dataflow_wins() {
    let budget = HwBudget::nvdla_large();
    for name in ["alexnet", "resnet18", "mobilenet_v1", "squeezenet1_0"] {
        let g = nnmodel::zoo::by_name(name).unwrap();
        let w = Workload::from_graph(&g);
        let out = AutoSeg::new(budget.clone())
            .max_pus(6)
            .max_segments(10)
            .run(&g)
            .expect("feasible");
        let force = |df: Dataflow| {
            let mut d = out.design.clone();
            for row in &mut d.dataflows {
                for slot in row {
                    *slot = df;
                }
            }
            simulate_spa(&w, &d).energy.onchip.data_moving_pj()
        };
        let hybrid = out.report.energy.onchip.data_moving_pj();
        let ws = force(Dataflow::WeightStationary);
        let os = force(Dataflow::OutputStationary);
        // Never the worst dataflow, and within 25% of the best — the
        // selection is latency-first (Algorithm 1 line 12), so a small
        // data-moving premium may be traded for speed (e.g. OS on
        // depthwise-heavy models).
        assert!(
            hybrid <= ws.max(os),
            "{name}: hybrid {hybrid:.2e} worse than both dataflows"
        );
        assert!(
            hybrid <= ws.min(os) * 1.25,
            "{name}: hybrid {hybrid:.2e} vs ws {ws:.2e} / os {os:.2e}"
        );
    }
}

/// Section VI-G / Figure 18: the MIP-Heuristic engine finds the best
/// latency and its points have lower worst-case energy than random
/// hardware sampling.
#[test]
fn claim_heuristic_codesign_dominates() {
    use autoseg::codesign::*;
    let model = nnmodel::zoo::alexnet_conv();
    let budget = HwBudget::nvdla_small();
    let iters = CodesignBudgets {
        hw_iters: 60,
        seg_iters: 80,
        seed: 5,
        threads: 0,
    };
    let run = |method| {
        run_codesign(&model, &budget, &iters, method, &autoseg::RunCtl::none())
            .unwrap()
            .points
    };
    let h = run(Method::MipHeuristic);
    let r = run(Method::MipRandom);
    let best = |pts: &[DesignPoint]| {
        pts.iter()
            .map(|p| p.latency_s)
            .fold(f64::INFINITY, f64::min)
    };
    let worst_e = |pts: &[DesignPoint]| pts.iter().map(|p| p.energy_pj).fold(0.0f64, f64::max);
    assert!(best(&h) <= best(&r) * 1.05);
    assert!(worst_e(&h) <= worst_e(&r));
}
