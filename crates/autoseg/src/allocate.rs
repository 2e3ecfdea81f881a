//! Heuristic SPA resource allocation — Algorithm 1 of the paper
//! (Section V-B).
//!
//! Given a segmentation, the allocator decides each PU's PE array, buffer
//! sizes and per-segment dataflow without any iterative co-search:
//!
//! 1. the normalized operation distribution `V̂` becomes the PE quota per
//!    PU (load balance across all segments at once, Eq. 6–9);
//! 2. the normalized per-segment bandwidth usage (Eq. 12) sizes the total
//!    PE pool so no segment is memory-starved (Figure 11a);
//! 3. PE counts are rounded to powers of two (line 9), buffers get their
//!    minimum capacities (line 10: `(K+S)` ifmap rows / `K^2 * PE`
//!    weights), and each `(PU, segment)` picks the faster dataflow
//!    (line 12);
//! 4. throughput-oriented designs replicate by a batch factor (lines
//!    13–16);
//! 5. leftover budget is spent doubling the latency-dominating PU of the
//!    most compute-bound segment (lines 17–25); over-budget designs halve
//!    the least-utilized PU (lines 26–30).

use crate::engine::DesignGoal;
use crate::error::AutoSegError;
use nnmodel::Workload;
use pucost::{Dataflow, EvalCache, LayerDesc, PuConfig};
use spa_arch::{HwBudget, SegmentSchedule, SpaDesign};

/// Per-PU DRAM bytes attributable to segment `s` (weights + external input
/// + cross-segment reads + external writes of the PU's items).
fn pu_access(workload: &Workload, schedule: &SegmentSchedule, s: usize, pu: usize) -> u64 {
    let seg = &schedule.segments[s];
    let inset: Vec<bool> = {
        let mut v = vec![false; workload.len()];
        for a in &seg.assignments {
            v[a.item] = true;
        }
        v
    };
    let mut bytes = 0;
    for a in seg.assignments.iter().filter(|a| a.pu == pu) {
        let it = &workload.items()[a.item];
        bytes += it.w_bytes + it.extern_in_bytes;
        for &(p, b) in &it.preds {
            if !inset[p] {
                bytes += b;
            }
        }
        let consumers = workload.consumers(a.item);
        if consumers.is_empty() || consumers.iter().any(|&c| !inset[c]) {
            bytes += it.out_bytes;
        }
    }
    bytes
}

/// Picks the faster dataflow for the items of `(pu, segment)` and returns
/// `(dataflow, total cycles)`. Per-layer costs come from the shared
/// [`EvalCache`], so repeated probes of the same `(layer, PU, dataflow)`
/// across the search are computed once.
pub(crate) fn eval_pu_segment(
    workload: &Workload,
    schedule: &SegmentSchedule,
    s: usize,
    pu_idx: usize,
    pu: &PuConfig,
    cache: &EvalCache,
) -> (Dataflow, u64) {
    let items = schedule.segments[s].items_on(pu_idx);
    let descs: Vec<LayerDesc> =
        items.iter().map(|&i| LayerDesc::from_item(&workload.items()[i])).collect();
    let mut cands = Vec::with_capacity(2);
    for df in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
        // One batched probe per dataflow over the segment's layers.
        let probes: Vec<_> = descs.iter().map(|d| (*d, *pu, df)).collect();
        let (mut cycles, mut energy) = (0u64, 0f64);
        for e in cache.evaluate_probes(&probes) {
            cycles += e.cycles;
            energy += e.energy.total_pj();
        }
        cands.push((df, cycles, energy));
    }
    // Lower latency wins (Algorithm 1 line 12); within a 5% latency band,
    // prefer the lower-energy dataflow.
    let fastest = cands.iter().map(|c| c.1).min().unwrap_or(0);
    let band = fastest + fastest / 20;
    let pick = cands
        .iter()
        .filter(|c| c.1 <= band)
        .min_by(|a, b| a.2.partial_cmp(&b.2).unwrap_or(std::cmp::Ordering::Equal))
        .or_else(|| cands.first())
        .expect("two candidates");
    (pick.0, pick.1)
}

/// Runs Algorithm 1: allocates PEs, buffers, dataflows and batch for
/// `schedule` under `budget`.
///
/// The returned design is the algorithm's best effort; it may still
/// exceed the budget when even minimum buffers don't fit (callers check
/// [`SpaDesign::fits`]).
///
/// # Errors
///
/// [`AutoSegError::EmptyWorkload`] for empty inputs.
pub fn allocate(
    workload: &Workload,
    schedule: &SegmentSchedule,
    budget: &HwBudget,
    goal: DesignGoal,
) -> Result<SpaDesign, AutoSegError> {
    allocate_with(workload, schedule, budget, goal, &EvalCache::default())
}

/// [`allocate`] with a caller-provided [`EvalCache`]; search drivers that
/// call the allocator many times share one cache so the per-layer cost
/// probes of later calls hit memoized results.
pub fn allocate_with(
    workload: &Workload,
    schedule: &SegmentSchedule,
    budget: &HwBudget,
    goal: DesignGoal,
    cache: &EvalCache,
) -> Result<SpaDesign, AutoSegError> {
    if workload.is_empty() || schedule.is_empty() {
        return Err(AutoSegError::EmptyWorkload);
    }
    let n = schedule.n_pus;
    let s_max = schedule.len();

    // Step 1: normalized operation distribution V̂ (cluster center of the
    // per-segment distributions) and bandwidth usage per segment (Eq. 12).
    let mut v_hat = vec![0f64; n];
    for s in 0..s_max {
        let ops = schedule.pu_ops(workload, s);
        let total: u64 = ops.iter().sum::<u64>().max(1);
        for (vn, &o) in v_hat.iter_mut().zip(&ops) {
            *vn += o as f64 / total as f64;
        }
    }
    let vsum: f64 = v_hat.iter().sum();
    for v in &mut v_hat {
        *v /= vsum;
    }

    let bw_usage: Vec<f64> = (0..s_max)
        .map(|s| {
            let ops = schedule.pu_ops(workload, s);
            (0..n)
                .map(|pu| {
                    let acc = pu_access(workload, schedule, s, pu) as f64;
                    v_hat[pu] * acc / ops[pu].max(1) as f64
                })
                .sum()
        })
        .collect();
    let bw_max_usage = bw_usage.iter().cloned().fold(f64::MIN, f64::max).max(1e-12);

    // Step 2: PE pool sized so the worst segment is not memory-bound
    // (line 8), clamped into the budget; power-of-two rounding (line 9).
    let bw_bytes_per_sec = budget.bandwidth_gbps * 1e9;
    let freq_hz = budget.freq_mhz * 1e6;
    let mut pes: Vec<usize> = v_hat
        .iter()
        .map(|&v| {
            let ideal = v * bw_bytes_per_sec * (1.0 / bw_max_usage).min(1e12) / freq_hz;
            let capped = ideal.min((budget.pes as f64) * v).max(1.0);
            prev_pow2(capped as usize)
        })
        .collect();
    // Never start above the budget.
    while pes.iter().sum::<usize>() > budget.pes {
        let worst = least_utilized(&pes, &v_hat);
        if pes[worst] == 1 {
            break;
        }
        pes[worst] /= 2;
    }

    let mut design = build_design(workload, schedule, budget, &pes, cache);

    // Steps: batch (lines 13-16).
    if goal == DesignGoal::Throughput {
        design.batch = batch_factor(&design, budget).max(1);
    }

    // Estimated end-to-end compute score: sum over segments of the
    // bottleneck PU's latency (Eq. 7). Scale-up steps must improve it —
    // doubling a non-bottleneck PU burns budget without gain.
    let score_of = |pus: &[PuConfig]| -> u64 {
        (0..s_max)
            .map(|s| {
                (0..n)
                    .map(|pu| eval_pu_segment(workload, schedule, s, pu, &pus[pu], cache).1)
                    .max()
                    .unwrap_or(0)
            })
            .sum()
    };
    let mut score = score_of(&design.pus);

    // Scale-up loop (lines 17-25).
    let mut frozen = vec![false; s_max];
    while design.fits(budget) {
        // Most compute-bound (minimum bandwidth usage) unfrozen segment.
        let Some(s_hat) = (0..s_max)
            .filter(|&s| !frozen[s])
            .min_by(|&a, &b| bw_usage[a].total_cmp(&bw_usage[b]))
        else {
            break;
        };
        // PUs of that segment in descending latency order; the first whose
        // doubling still fits wins (the paper doubles the single longest-
        // latency PU; trying the runners-up before freezing avoids giving
        // up while headroom remains).
        let mut order: Vec<(usize, u64)> = (0..n)
            .map(|pu| {
                (
                    pu,
                    eval_pu_segment(workload, schedule, s_hat, pu, &design.pus[pu], cache).1,
                )
            })
            .collect();
        order.sort_by_key(|&(_, c)| std::cmp::Reverse(c));
        let mut grew = false;
        for (n_hat, _) in order {
            let mut trial = pes.clone();
            trial[n_hat] *= 2;
            let mut candidate = build_design(workload, schedule, budget, &trial, cache);
            if goal == DesignGoal::Throughput {
                candidate.batch = batch_factor(&candidate, budget).max(1);
            }
            let trial_score = score_of(&candidate.pus);
            if candidate.fits(budget)
                && trial_score < score
                && (goal != DesignGoal::Throughput || candidate.batch >= design.batch.max(1))
            {
                pes = trial;
                design = candidate;
                score = trial_score;
                grew = true;
                break;
            }
        }
        if !grew {
            frozen[s_hat] = true;
        }
    }

    // Load/PE rebalance: the power-of-two constraint can leave PE shares
    // that no longer match the segmentation's (near-equal) block loads —
    // e.g. a 128/64 split serving 50/50 work. Re-cut each segment's blocks
    // proportionally to the final PE shares (keeping each block on its PU,
    // so Eq. 2-4 legality is preserved), and keep the result if the
    // bottleneck score improves.
    if let Some(rebalanced) = rebalance(workload, schedule, &pes) {
        let candidate = build_design(workload, &rebalanced, budget, &pes, cache);
        let rescore = {
            let sched = &rebalanced;
            (0..s_max)
                .map(|s| {
                    (0..n)
                        .map(|pu| eval_pu_segment(workload, sched, s, pu, &candidate.pus[pu], cache).1)
                        .max()
                        .unwrap_or(0)
                })
                .sum::<u64>()
        };
        if rescore < score && candidate.fits(budget) {
            let mut candidate = candidate;
            if goal == DesignGoal::Throughput {
                candidate.batch = batch_factor(&candidate, budget).max(1);
            }
            design = candidate;
        }
    }

    // Scale-down loop (lines 26-30).
    while !design.fits(budget) {
        let worst = least_utilized(&pes, &v_hat);
        if pes[worst] == 1 {
            break; // buffers alone exceed the budget; caller rejects
        }
        pes[worst] /= 2;
        design = build_design(workload, schedule, budget, &pes, cache);
        if goal == DesignGoal::Throughput {
            design.batch = batch_factor(&design, budget).max(1);
        }
    }

    Ok(design)
}

/// Re-cuts every segment's contiguous blocks so block loads track the
/// final PE shares, keeping each (topological) block on the PU it already
/// occupied. Returns `None` if any segment's items cannot be re-cut (fewer
/// items than PUs — impossible for valid schedules, checked defensively).
fn rebalance(
    workload: &Workload,
    schedule: &SegmentSchedule,
    pes: &[usize],
) -> Option<SegmentSchedule> {
    use spa_arch::{Assignment, Segment};
    let total_pe: usize = pes.iter().sum();
    let mut segments = Vec::with_capacity(schedule.len());
    for seg in &schedule.segments {
        // Current topological block order and PU of each block.
        let mut assigns = seg.assignments.clone();
        assigns.sort_by_key(|a| a.item);
        let mut block_pus = Vec::new();
        for a in &assigns {
            if block_pus.last() != Some(&a.pu) {
                block_pus.push(a.pu);
            }
        }
        // Blocks must be contiguous single runs per PU for this transform.
        {
            let mut seen = std::collections::BTreeSet::new();
            if !block_pus.iter().all(|p| seen.insert(*p)) {
                return None;
            }
        }
        let items: Vec<usize> = assigns.iter().map(|a| a.item).collect();
        if items.len() < block_pus.len() {
            return None;
        }
        let total_ops: u64 = items
            .iter()
            .map(|&i| workload.items()[i].ops)
            .sum::<u64>()
            .max(1);
        // Greedy proportional cut in topological order.
        let mut new_assigns = Vec::with_capacity(items.len());
        let mut idx = 0;
        for (k, &pu) in block_pus.iter().enumerate() {
            let remaining_blocks = block_pus.len() - k - 1;
            let target = (pes[pu] as f64 / total_pe as f64 * total_ops as f64) as u64;
            let mut acc = 0u64;
            let mut took = 0;
            while idx < items.len() - remaining_blocks {
                let must_take = took == 0;
                let next_ops = workload.items()[items[idx]].ops;
                if !must_take && remaining_blocks > 0 && acc + next_ops / 2 > target {
                    break;
                }
                acc += next_ops;
                new_assigns.push(Assignment {
                    item: items[idx],
                    pu,
                });
                idx += 1;
                took += 1;
                if remaining_blocks == 0 {
                    continue; // last block takes everything
                }
            }
        }
        if idx != items.len() {
            return None;
        }
        segments.push(Segment {
            assignments: new_assigns,
        });
    }
    SegmentSchedule::new(segments, schedule.n_pus, workload).ok()
}

/// Largest power of two `<= x` (minimum 1).
fn prev_pow2(x: usize) -> usize {
    if x <= 1 {
        1
    } else if x.is_power_of_two() {
        x
    } else {
        x.next_power_of_two() / 2
    }
}

/// The PU with the most PEs per unit of assigned work.
fn least_utilized(pes: &[usize], v_hat: &[f64]) -> usize {
    (0..pes.len())
        .max_by(|&a, &b| {
            let ra = pes[a] as f64 / v_hat[a].max(1e-12);
            let rb = pes[b] as f64 / v_hat[b].max(1e-12);
            ra.partial_cmp(&rb).unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("non-empty")
}

/// Batch replication factor for throughput designs (line 14).
fn batch_factor(design: &SpaDesign, budget: &HwBudget) -> usize {
    let r = {
        let mut d = design.clone();
        d.batch = 1;
        d.resources()
    };
    let by_pe = budget.pes / r.pes.max(1);
    let by_mem = (budget.on_chip_bytes / r.on_chip_bytes.max(1)) as usize;
    by_pe.min(by_mem).max(1)
}

/// Builds a design from explicit hardware parameters: per-PU PE counts
/// (powers of two) and a buffer multiplier applied on top of the minimum
/// capacities. Used by the random/Bayesian hardware-search baselines of
/// Section VI-G, which replace Algorithm 1 with black-box search over
/// exactly these knobs.
pub fn manual_design(
    workload: &Workload,
    schedule: &SegmentSchedule,
    budget: &HwBudget,
    pes: &[usize],
    buf_mult: u64,
) -> SpaDesign {
    manual_design_with(workload, schedule, budget, pes, buf_mult, &EvalCache::default())
}

/// [`manual_design`] with a caller-provided [`EvalCache`] (shared across a
/// whole black-box hardware search).
pub fn manual_design_with(
    workload: &Workload,
    schedule: &SegmentSchedule,
    budget: &HwBudget,
    pes: &[usize],
    buf_mult: u64,
    cache: &EvalCache,
) -> SpaDesign {
    let mut d = build_design(workload, schedule, budget, pes, cache);
    for pu in &mut d.pus {
        pu.act_buf_bytes *= buf_mult.max(1);
        pu.wgt_buf_bytes *= buf_mult.max(1);
    }
    d
}

/// Assembles a design for a given PE vector: geometry, minimum buffers
/// (line 10), per-(PU, segment) dataflows (line 12).
fn build_design(
    workload: &Workload,
    schedule: &SegmentSchedule,
    budget: &HwBudget,
    pes: &[usize],
    cache: &EvalCache,
) -> SpaDesign {
    let n = schedule.n_pus;
    let s_max = schedule.len();
    let mut pus = Vec::with_capacity(n);
    for (pu_idx, &p) in pes.iter().enumerate() {
        // Buffers must satisfy the worst item ever mapped to this PU.
        let mut ab = 1u64;
        let mut wb = 1u64;
        let mut items_here = Vec::new();
        for seg in &schedule.segments {
            for &item in &seg.items_on(pu_idx) {
                let d = LayerDesc::from_item(&workload.items()[item]);
                ab = ab.max(d.min_act_buf_bytes());
                wb = wb.max(d.min_wgt_buf_bytes(p));
                items_here.push(d);
            }
        }
        // Aspect-ratio matching: among power-of-two factorizations of the
        // PE budget, pick the geometry that minimizes total cycles of the
        // PU's assigned layers (the case-study designs of Table VI are
        // decidedly non-square: 32x4, 32x8). Tall/flat extremes are
        // skipped — a 1-wide systolic array is not a realistic datapath.
        let log = p.trailing_zeros() as usize;
        let mut geoms: Vec<(usize, usize)> = Vec::with_capacity(log + 1);
        for j in 0..=log {
            let (r, c) = (1usize << j, p >> j);
            if p >= 16 && (r < 2 || c < 2) {
                continue;
            }
            // Degenerate slabs (e.g. 2x512) are not realistic datapaths:
            // keep the aspect ratio within 16:1.
            if p >= 64 && r.max(c) > 16 * r.min(c) {
                continue;
            }
            geoms.push((r, c));
        }
        // Score every surviving geometry with two batched probes per
        // item, all geometries under WS, then all under OS.
        let cands: Vec<PuConfig> = geoms
            .iter()
            .map(|&(r, c)| PuConfig::new(r, c).with_freq_mhz(budget.freq_mhz))
            .collect();
        let mut totals = vec![0u64; geoms.len()];
        for d in &items_here {
            let sweep = |df| cands.iter().map(|pu| (*d, *pu, df)).collect::<Vec<_>>();
            let ws = cache.evaluate_probes(&sweep(Dataflow::WeightStationary));
            let os = cache.evaluate_probes(&sweep(Dataflow::OutputStationary));
            for (total, (w, o)) in totals.iter_mut().zip(ws.iter().zip(&os)) {
                *total += w.cycles.min(o.cycles);
            }
        }
        let mut best: Option<(u64, usize, usize)> = None;
        for (g, &(r, c)) in geoms.iter().enumerate() {
            if best.is_none_or(|(b, _, _)| totals[g] < b) {
                best = Some((totals[g], r, c));
            }
        }
        let (_, r, c) = best.unwrap_or((0, PuConfig::square_geometry(p).0, PuConfig::square_geometry(p).1));
        pus.push(
            PuConfig::new(r, c)
                .with_freq_mhz(budget.freq_mhz)
                .with_buffers(ab, wb),
        );
    }
    let dataflows: Vec<Vec<Dataflow>> = (0..n)
        .map(|pu| {
            (0..s_max)
                .map(|s| eval_pu_segment(workload, schedule, s, pu, &pus[pu], cache).0)
                .collect()
        })
        .collect();
    SpaDesign {
        name: format!("{}@{}", workload.name(), budget.name),
        pus,
        schedule: schedule.clone(),
        dataflows,
        batch: 1,
        bandwidth_gbps: budget.bandwidth_gbps,
        platform: budget.platform,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::segment::{ChainDpSegmenter, Segmenter};
    use nnmodel::{zoo, Workload};

    fn setup(model: &str, n: usize, s: usize) -> (Workload, SegmentSchedule) {
        let w = Workload::from_graph(&zoo::by_name(model).unwrap());
        let sched = ChainDpSegmenter::new().segment(&w, n, s).unwrap();
        (w, sched)
    }

    #[test]
    fn allocation_fits_budget_and_uses_pow2() {
        let (w, sched) = setup("squeezenet1_0", 4, 3);
        let budget = HwBudget::nvdla_large();
        let d = allocate(&w, &sched, &budget, DesignGoal::Latency).unwrap();
        assert!(d.fits(&budget));
        assert!(d.pus.iter().all(|p| p.num_pe().is_power_of_two()));
        assert_eq!(d.n_pus(), 4);
    }

    #[test]
    fn pe_shares_follow_operation_distribution() {
        let (w, sched) = setup("alexnet_conv", 4, 1);
        let budget = HwBudget::nvdla_large();
        let d = allocate(&w, &sched, &budget, DesignGoal::Latency).unwrap();
        // The PU with the most ops gets at least as many PEs as the one
        // with the fewest.
        let ops = sched.pu_ops(&w, 0);
        let max_ops_pu = ops.iter().enumerate().max_by_key(|&(_, o)| o).unwrap().0;
        let min_ops_pu = ops.iter().enumerate().min_by_key(|&(_, o)| o).unwrap().0;
        assert!(d.pus[max_ops_pu].num_pe() >= d.pus[min_ops_pu].num_pe());
    }

    #[test]
    fn buffers_meet_minimums() {
        let (w, sched) = setup("mobilenet_v1", 3, 4);
        let budget = HwBudget::edge_tpu();
        let d = allocate(&w, &sched, &budget, DesignGoal::Latency).unwrap();
        for (pu_idx, pu) in d.pus.iter().enumerate() {
            for seg in &sched.segments {
                for &item in &seg.items_on(pu_idx) {
                    let desc = LayerDesc::from_item(&w.items()[item]);
                    assert!(pu.act_buf_bytes >= desc.min_act_buf_bytes());
                    assert!(pu.wgt_buf_bytes >= desc.min_wgt_buf_bytes(pu.num_pe()));
                }
            }
        }
    }

    #[test]
    fn throughput_goal_batches_when_budget_allows() {
        let (w, sched) = setup("squeezenet1_0", 2, 4);
        // EdgeTPU: many PEs, little bandwidth — plenty of room for batch.
        let budget = HwBudget::edge_tpu();
        let lat = allocate(&w, &sched, &budget, DesignGoal::Latency).unwrap();
        let thr = allocate(&w, &sched, &budget, DesignGoal::Throughput).unwrap();
        assert_eq!(lat.batch, 1);
        assert!(thr.batch >= 1);
        assert!(thr.fits(&budget));
    }

    #[test]
    fn scale_up_consumes_headroom() {
        let (w, sched) = setup("squeezenet1_0", 4, 3);
        let budget = HwBudget::nvdla_large();
        let d = allocate(&w, &sched, &budget, DesignGoal::Latency).unwrap();
        // At least half the PE budget should be in use after upscaling
        // (power-of-two granularity can leave at most ~2x slack per PU).
        assert!(
            d.total_pes() * 4 >= budget.pes,
            "only {} of {} PEs used",
            d.total_pes(),
            budget.pes
        );
    }

    #[test]
    fn tiny_budget_degrades_gracefully() {
        let (w, sched) = setup("squeezenet1_0", 2, 4);
        let mut tiny = HwBudget::eyeriss();
        tiny.pes = 4;
        let d = allocate(&w, &sched, &tiny, DesignGoal::Latency).unwrap();
        // PEs are clamped down to the floor; buffers may still overflow
        // (the engine rejects such combos), but the call must not fail.
        assert!(d.total_pes() >= 2);
    }
}
