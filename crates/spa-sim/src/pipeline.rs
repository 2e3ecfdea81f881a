//! The segment-grained pipeline simulator (Figure 8's piece-based
//! execution) and the full-pipeline special case.

use crate::report::{SegmentStats, SimEnergy, SimReport};
use benes::FabricCostModel;
use nnmodel::Workload;
use pucost::util::{ceil_u64, f64_of, f64_of_usize, trunc_u64, u64_of, usize_of};
use pucost::{
    best_dataflow, evaluate, Dataflow, EnergyModel, EvalCache, LayerDesc, PuConfig, PuEval,
};
use spa_arch::{Assignment, HwBudget, Segment, SegmentSchedule, SpaDesign};

/// Simulates one frame (times the design's batch factor) through a SPA
/// design.
///
/// Per segment, each PU's compute time is the sum of its assigned items'
/// evaluations under the chosen dataflow (items sharing a PU execute
/// alternately, Figure 8b). The segment occupies
/// `max_n(L_comp[n]) + fill` compute cycles — the bottleneck PU dominates
/// (Eq. 7) and the first piece pays one piece-time per pipeline hop — or
/// its DRAM time, whichever is larger (double-buffered overlap). Batch
/// replicas multiply DRAM traffic but run in parallel on their own PEs.
///
/// # Panics
///
/// Panics if the design's dataflow table shape mismatches its schedule
/// (call [`SpaDesign::check_shape`] on untrusted designs first).
pub fn simulate_spa(workload: &Workload, design: &SpaDesign) -> SimReport {
    let em = EnergyModel::tsmc28();
    simulate_spa_impl(workload, design, &em, |d, pu, df| evaluate(d, pu, df, &em))
}

/// [`simulate_spa`] with per-layer evaluations served through a shared
/// [`EvalCache`] — search loops that simulate many candidates over the
/// same workload pass one cache handle so repeated `(layer, PU, dataflow)`
/// probes are memoized across candidates. Results are bit-identical to
/// [`simulate_spa`] when the cache's energy model matches (the cached
/// evaluator is a pure function).
///
/// # Panics
///
/// See [`simulate_spa`].
pub fn simulate_spa_with(
    workload: &Workload,
    design: &SpaDesign,
    cache: &EvalCache,
) -> SimReport {
    let em = *cache.energy_model();
    simulate_spa_impl(workload, design, &em, |d, pu, df| cache.evaluate(d, pu, df))
}

fn simulate_spa_impl(
    workload: &Workload,
    design: &SpaDesign,
    em: &EnergyModel,
    eval: impl Fn(&LayerDesc, &PuConfig, Dataflow) -> PuEval,
) -> SimReport {
    design
        .check_shape()
        .expect("design dataflow table matches schedule");
    let freq_mhz = design.pus.first().map_or(800.0, |p| p.freq_mhz);
    let bytes_per_cycle = design.bandwidth_gbps * 1e9 / (freq_mhz * 1e6);
    let fabric = design.fabric();
    let fabric_hop_pj_per_byte =
        FabricCostModel::tsmc28().mux_energy_pj_per_bit * 8.0 * f64_of_usize(fabric.stages());

    let mut total_cycles = 0u64;
    let mut dram_bytes = 0u64;
    let mut fabric_bytes = 0u64;
    let mut onchip = pucost::EnergyBreakdown::default();
    let mut per_segment = Vec::with_capacity(design.schedule.len());

    for (s, seg) in design.schedule.segments.iter().enumerate() {
        let mut pu_cycles = vec![0u64; design.n_pus()];
        let mut pu_pieces = vec![1u64; design.n_pus()];
        for a in &seg.assignments {
            let item = &workload.items()[a.item];
            let desc = LayerDesc::from_item(item);
            let e = eval(&desc, &design.pus[a.pu], design.dataflows[a.pu][s]);
            pu_cycles[a.pu] += e.cycles;
            pu_pieces[a.pu] = pu_pieces[a.pu].max(u64_of(desc.out_h));
            onchip = onchip.add(&e.energy);
        }
        let bottleneck = pu_cycles.iter().copied().max().unwrap_or(0);
        // First-piece fill: one piece-time per PU in the pipeline.
        let fill: u64 = pu_cycles
            .iter()
            .zip(&pu_pieces)
            .map(|(&c, &p)| c / p.max(1))
            .sum();
        let compute = bottleneck + fill;

        let items = seg.items();
        let seg_bytes = workload.pipelined_access(&items);
        let mem = ceil_u64(f64_of(seg_bytes * u64_of(design.batch)) / bytes_per_cycle);

        // Intra-segment producer->consumer traffic crosses the fabric.
        let inset: Vec<bool> = {
            let mut v = vec![false; workload.len()];
            for &i in &items {
                v[i] = true;
            }
            v
        };
        let mut pu_of = std::collections::BTreeMap::new();
        for a in &seg.assignments {
            pu_of.insert(a.item, a.pu);
        }
        for &i in &items {
            for &(p, b) in &workload.items()[i].preds {
                if inset[p] && pu_of.get(&p) != pu_of.get(&i) {
                    fabric_bytes += b;
                }
            }
        }

        total_cycles += compute.max(mem);
        dram_bytes += seg_bytes;
        if obs::enabled() {
            // Stall accounting: the slower side sets the segment's pace,
            // the other side idles for the difference.
            obs::add("spa.pipeline.segments", 1);
            obs::add("spa.pipeline.stall_cycles", mem.saturating_sub(compute));
            obs::add("spa.pipeline.mem_idle_cycles", compute.saturating_sub(mem));
            if mem > compute {
                obs::add("spa.pipeline.mem_bound_segments", 1);
            }
            // Occupancy of the segment's PUs relative to its bottleneck.
            let busy: u64 = pu_cycles.iter().sum();
            let span = bottleneck * u64_of(pu_cycles.len().max(1));
            if let Some(pct) = (busy * 100).checked_div(span) {
                obs::record("spa.pipeline.occupancy_pct", pct);
            }
        }
        per_segment.push(SegmentStats {
            compute_cycles: compute,
            memory_cycles: mem,
            dram_bytes: seg_bytes,
            ctc: workload.pipelined_ctc(&items),
            pu_cycles,
        });
    }

    let macs = workload.total_ops();
    let total_pes = design.total_pes() * design.batch;
    SimReport {
        seconds: f64_of(total_cycles) / (freq_mhz * 1e6),
        cycles: total_cycles,
        dram_bytes,
        macs,
        utilization: f64_of(macs) / (f64_of(total_cycles.max(1)) * f64_of_usize(total_pes)),
        batch: design.batch,
        energy: SimEnergy {
            onchip,
            dram_pj: f64_of(dram_bytes) * em.dram_pj_per_byte,
            fabric_pj: f64_of(fabric_bytes) * fabric_hop_pj_per_byte,
        },
        per_segment,
    }
}

/// Builds the full-pipeline architecture for `workload` under `budget`
/// (Figure 1b): one segment, one dedicated PU per work item, PEs allocated
/// proportionally to each item's MACs and rounded down to powers of two
/// (the alignment constraint the paper's case study highlights in Table V).
///
/// Returns `None` if the budget cannot give every item at least one PE —
/// the full pipeline's scalability failure mode on deep models
/// (Section I).
pub fn full_pipeline_design(workload: &Workload, budget: &HwBudget) -> Option<SpaDesign> {
    let n = workload.len();
    if n == 0 || budget.pes < n {
        return None;
    }
    let total_ops: u64 = workload.total_ops().max(1);
    let em = EnergyModel::tsmc28();

    // Proportional power-of-two allocation.
    let mut pes: Vec<usize> = workload
        .items()
        .iter()
        .map(|it| {
            let share = f64_of(it.ops) / f64_of(total_ops) * f64_of_usize(budget.pes);
            let p = usize_of(trunc_u64(share.max(1.0)));
            if p.is_power_of_two() {
                p
            } else {
                p.next_power_of_two() / 2
            }
        })
        .collect();
    // Greedy upscale while budget allows: double the PU with the highest
    // cycles-per-PE pressure.
    loop {
        let used: usize = pes.iter().sum();
        let headroom = budget.pes.saturating_sub(used);
        let candidate = workload
            .items()
            .iter()
            .enumerate()
            .filter(|(i, _)| pes[*i] <= headroom)
            .max_by(|(i, a), (j, b)| {
                let ra = f64_of(a.ops) / f64_of_usize(pes[*i]);
                let rb = f64_of(b.ops) / f64_of_usize(pes[*j]);
                ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
            })
            .map(|(i, _)| i);
        match candidate {
            Some(i) => pes[i] *= 2,
            None => break,
        }
    }

    let mut pus = Vec::with_capacity(n);
    let mut dataflows = Vec::with_capacity(n);
    for (item, &p) in workload.items().iter().zip(&pes) {
        let desc = LayerDesc::from_item(item);
        let (r, c) = PuConfig::square_geometry(p);
        let pu = PuConfig::new(r, c)
            .with_freq_mhz(budget.freq_mhz)
            .with_buffers(desc.min_act_buf_bytes(), desc.min_wgt_buf_bytes(p));
        let (df, _) = best_dataflow(&desc, &pu, &em);
        pus.push(pu);
        dataflows.push(vec![df]);
    }

    let segment = Segment {
        assignments: (0..n).map(|i| Assignment { item: i, pu: i }).collect(),
    };
    let schedule = SegmentSchedule::new(vec![segment], n, workload).ok()?;
    Some(SpaDesign {
        name: format!("{}-fullpipe", workload.name()),
        pus,
        schedule,
        dataflows,
        batch: 1,
        bandwidth_gbps: budget.bandwidth_gbps,
        platform: budget.platform,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layerwise::simulate_layerwise;
    use nnmodel::zoo;

    #[test]
    fn full_pipeline_fits_small_models() {
        let w = Workload::from_graph(&zoo::alexnet_conv());
        let d = full_pipeline_design(&w, &HwBudget::nvdla_large()).unwrap();
        assert_eq!(d.n_pus(), w.len());
        assert!(d.total_pes() <= 2048);
        assert!(d.pus.iter().all(|p| p.num_pe().is_power_of_two()));
    }

    #[test]
    fn full_pipeline_infeasible_on_deep_models_with_small_budgets() {
        // ResNet152 has 156 items; Eyeriss has 192 PEs -> technically one
        // each, but SqueezeNet on a 25-PE toy budget must fail.
        let w = Workload::from_graph(&zoo::squeezenet1_0());
        let mut tiny = HwBudget::eyeriss();
        tiny.pes = 10;
        assert!(full_pipeline_design(&w, &tiny).is_none());
    }

    #[test]
    fn pipeline_beats_layerwise_dram_traffic() {
        let w = Workload::from_graph(&zoo::squeezenet1_0());
        let budget = HwBudget::nvdla_small();
        let lw = simulate_layerwise(&w, &budget);
        let d = full_pipeline_design(&w, &budget).unwrap();
        let fp = simulate_spa(&w, &d);
        assert!(
            fp.dram_bytes < lw.dram_bytes / 2,
            "pipeline {} vs layerwise {}",
            fp.dram_bytes,
            lw.dram_bytes
        );
        assert!(fp.ctc() > 2.0 * lw.ctc());
    }

    #[test]
    fn pipelining_helps_memory_bound_budgets() {
        // On the severely bandwidth-starved EdgeTPU budget (0.5 GB/s for
        // 8192 PEs) the pipeline's CTC boost translates into real speedup.
        // (On PE-scarce budgets like NVDLA-Small the full pipeline can
        // *lose* — that is the paper's resource-scalability argument and
        // exactly why SPA exists.)
        let w = Workload::from_graph(&zoo::mobilenet_v1());
        let budget = HwBudget::edge_tpu();
        let lw = simulate_layerwise(&w, &budget);
        let d = full_pipeline_design(&w, &budget).unwrap();
        let fp = simulate_spa(&w, &d);
        assert!(
            fp.seconds < lw.seconds,
            "pipeline {} vs layerwise {}",
            fp.seconds,
            lw.seconds
        );
    }

    #[test]
    fn full_pipeline_can_lose_on_pe_scarce_budgets() {
        // The motivation for segment-grained pipelining: dedicating a PU
        // per layer starves the bottleneck layer when PEs are scarce.
        let w = Workload::from_graph(&zoo::mobilenet_v1());
        let budget = HwBudget::nvdla_small(); // 256 PEs for 28 items
        let d = full_pipeline_design(&w, &budget).unwrap();
        let fp = simulate_spa(&w, &d);
        let lw = simulate_layerwise(&w, &budget);
        // The scarce-PE pipeline is compute-bottlenecked on its weakest PU.
        assert!(fp.per_segment[0].compute_cycles > lw.cycles / 2);
    }

    #[test]
    fn fabric_energy_is_small() {
        // Section VI-E: interconnect + muxes < 3% of energy.
        let w = Workload::from_graph(&zoo::squeezenet1_0());
        let d = full_pipeline_design(&w, &HwBudget::nvdla_large()).unwrap();
        let r = simulate_spa(&w, &d);
        assert!(r.energy.fabric_pj < 0.03 * r.energy.total_pj());
        assert!(r.energy.fabric_pj > 0.0);
    }

    #[test]
    fn cached_simulation_is_bit_identical() {
        let w = Workload::from_graph(&zoo::squeezenet1_0());
        let d = full_pipeline_design(&w, &HwBudget::nvdla_large()).unwrap();
        let direct = simulate_spa(&w, &d);
        let cache = EvalCache::new(EnergyModel::tsmc28());
        let cached = simulate_spa_with(&w, &d, &cache);
        assert_eq!(direct.cycles, cached.cycles);
        assert_eq!(direct.seconds, cached.seconds);
        assert_eq!(direct.dram_bytes, cached.dram_bytes);
        assert_eq!(direct.energy.total_pj(), cached.energy.total_pj());
        // A second simulation of the same design is served from the cache.
        let misses = cache.misses();
        let again = simulate_spa_with(&w, &d, &cache);
        assert_eq!(again.cycles, direct.cycles);
        assert_eq!(cache.misses(), misses, "second run must be all hits");
        assert!(cache.hits() > 0);
    }

    #[test]
    fn batch_scales_throughput_not_latency_much() {
        let w = Workload::from_graph(&zoo::squeezenet1_0());
        let mut d = full_pipeline_design(&w, &HwBudget::nvdla_large()).unwrap();
        let r1 = simulate_spa(&w, &d);
        d.batch = 4;
        let r4 = simulate_spa(&w, &d);
        assert!(r4.gops() > r1.gops());
    }
}
