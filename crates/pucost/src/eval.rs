//! The evaluator: (layer, PU, dataflow) -> latency / traffic / energy.

use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::layer::LayerDesc;
use crate::pu::{Dataflow, PuConfig};
use crate::util::{div_ceil, f64_of, f64_of_usize, u64_of};

/// Result of evaluating one layer on one PU under one dataflow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PuEval {
    /// Dataflow used.
    pub dataflow: Dataflow,
    /// Compute cycles (tile loops plus fill/drain).
    pub cycles: u64,
    /// Latency in seconds at the PU's clock.
    pub seconds: f64,
    /// MAC operations performed.
    pub macs: u64,
    /// PE-array utilization: `macs / (cycles * num_pe)`.
    pub utilization: f64,
    /// Activation-buffer bytes read.
    pub act_buf_bytes: u64,
    /// Weight-buffer bytes read.
    pub wgt_buf_bytes: u64,
    /// Partial-sum buffer bytes moved (reads + writes).
    pub psum_bytes: u64,
    /// On-chip energy breakdown (DRAM excluded; see `spa-sim`).
    pub energy: EnergyBreakdown,
    /// `true` if the PU's buffers meet the layer's minimum requirements
    /// (`(K+S)` ifmap rows in AB, `K^2 * PE` weights in WB).
    pub buffers_ok: bool,
}

/// Evaluates `layer` on `pu` under dataflow `df`.
///
/// The cycle model enumerates the dataflow's tile loops exactly:
///
/// * **WS**: tiles over `ceil(icg/R) * ceil(ocg/C) * K^2 * groups`; each
///   tile streams `out_h * out_w` pixels (stalling only when the fmap is
///   shorter than the double-buffered weight reload), one `R + C`
///   fill/drain per layer.
/// * **OS**: spatial tiles over `out_h * ceil(out_w/R) * ceil(oc/C)`; each
///   tile accumulates `icg * K^2` terms; one `R + C` fill/drain per layer.
///
/// Traffic uses each dataflow's reuse factors (inputs reused across the
/// `C` columns; WS reuses weights temporally across the fmap and pays
/// partial-sum traffic, OS the converse).
pub fn evaluate(layer: &LayerDesc, pu: &PuConfig, df: Dataflow, em: &EnergyModel) -> PuEval {
    let macs = layer.macs();
    let (r, c) = (pu.rows, pu.cols);
    let fill = u64_of(r + c);
    let icg = layer.in_c_per_group();
    let ocg = layer.out_c_per_group();
    let ohw = u64_of(layer.out_h * layer.out_w);

    let (cycles, act_reads, wgt_reads, psum_moves) = match df {
        Dataflow::WeightStationary => {
            // Grouped convolutions pack several groups along the array
            // diagonal (accumulation chains must not mix groups, so the
            // packing is limited by the *smaller* of the per-dimension
            // fits). Depthwise layers on a WS array therefore run at
            // roughly `min(R, C) / (R * C)` utilization — poor, but not
            // the 1/(R*C) of a naive per-group schedule, matching how
            // channel-parallel engines (NVDLA, TPUs) handle them.
            let par = ((r / icg.max(1)).min(c / ocg.max(1)))
                .clamp(1, layer.groups);
            let tiles = u64_of(div_ceil(icg, r) * div_ceil(ocg, c) * layer.kernel * layer.kernel)
                * u64_of(div_ceil(layer.groups, par));
            // Consecutive tiles pipeline: the next weight tile loads (R
            // cycles, C-wide) behind the current tile's compute, stalling
            // only when the streamed fmap is shorter than the reload; the
            // array fill/drain is paid once per layer.
            let stall = u64_of(r).saturating_sub(ohw);
            let cycles = tiles * (ohw + stall) + fill;
            // Each streamed input feeds all C columns of its tile.
            let act_reads = macs / u64_of(c).min(u64_of(ocg)).max(1);
            // Weights loaded once per tile residency.
            let wgt_reads = layer.weight_elems();
            // Partial sums cross the array boundary once per R-chain, read
            // back for the next input-channel tile.
            let chains = macs / u64_of(r).min(u64_of(icg)).max(1);
            let psum = 2 * chains;
            (cycles, act_reads, wgt_reads, psum)
        }
        Dataflow::OutputStationary => {
            let spatial_tiles = u64_of(layer.out_h * div_ceil(layer.out_w, r));
            let chan_tiles = u64_of(div_ceil(layer.out_c, c));
            let depth = u64_of(icg * layer.kernel * layer.kernel);
            // Tiles pipeline back to back; fill/drain is paid once.
            let cycles = spatial_tiles * chan_tiles * depth + fill;
            // Inputs broadcast across the C channel columns.
            let act_reads = macs / u64_of(c).min(u64_of(ocg)).max(1);
            // Weights re-fetched for every spatial tile, shared across the
            // R output columns.
            let wgt_reads = (macs / u64_of(r).min(u64_of(layer.out_w)).max(1)).max(1);
            // Outputs accumulate in place; only the final value moves.
            let psum = u64_of(layer.out_c * layer.out_h * layer.out_w);
            (cycles, act_reads, wgt_reads, psum)
        }
    };

    let cycles = cycles.max(1);
    let utilization = f64_of(macs) / (f64_of(cycles) * f64_of_usize(pu.num_pe()));
    let energy = EnergyBreakdown {
        mac_pj: f64_of(macs) * em.mac_pj,
        act_buf_pj: f64_of(act_reads) * em.sram_pj_per_byte,
        wgt_buf_pj: f64_of(wgt_reads) * em.sram_pj_per_byte,
        psum_pj: f64_of(psum_moves) * em.psum_pj_per_byte,
    };
    let buffers_ok = pu.act_buf_bytes >= layer.min_act_buf_bytes()
        && pu.wgt_buf_bytes >= layer.min_wgt_buf_bytes(pu.num_pe());
    PuEval {
        dataflow: df,
        cycles,
        seconds: f64_of(cycles) / (pu.freq_mhz * 1e6),
        macs,
        utilization,
        act_buf_bytes: act_reads,
        wgt_buf_bytes: wgt_reads,
        psum_bytes: psum_moves,
        energy,
        buffers_ok,
    }
}

/// Selects between a WS and an OS evaluation of the same layer: lower
/// cycle count wins, ties broken toward the lower on-chip energy. Shared
/// by [`best_dataflow`], the memoized [`crate::EvalCache`] and the
/// callers that pair batched WS and OS probes (the serving scheduler's
/// stitched best-picks, `bench_dse`) so every path applies bit-identical
/// selection.
pub fn pick_dataflow(ws: PuEval, os: PuEval) -> (Dataflow, PuEval) {
    if os_wins(
        ws.cycles,
        os.cycles,
        ws.energy.total_pj(),
        os.energy.total_pj(),
    ) {
        (Dataflow::OutputStationary, os)
    } else {
        (Dataflow::WeightStationary, ws)
    }
}

/// The tie-break predicate behind [`pick_dataflow`], over the already
/// normalized cycle counts and total energies of the two candidates. The
/// compiled fused kernel (`CompiledEval::best`) calls this with the
/// same quantities before materializing only the winning evaluation, so
/// both paths share one selection rule by construction.
#[inline(always)]
pub(crate) fn os_wins(ws_cycles: u64, os_cycles: u64, ws_total_pj: f64, os_total_pj: f64) -> bool {
    match ws_cycles.cmp(&os_cycles) {
        std::cmp::Ordering::Greater => true,
        std::cmp::Ordering::Less => false,
        std::cmp::Ordering::Equal => os_total_pj < ws_total_pj,
    }
}

/// Evaluates both dataflows and returns the faster (ties broken toward the
/// one with lower on-chip energy) — Algorithm 1 line 12's `DF[n][s]`
/// selection.
pub fn best_dataflow(layer: &LayerDesc, pu: &PuConfig, em: &EnergyModel) -> (Dataflow, PuEval) {
    let ws = evaluate(layer, pu, Dataflow::WeightStationary, em);
    let os = evaluate(layer, pu, Dataflow::OutputStationary, em);
    pick_dataflow(ws, os)
}

#[cfg(test)]
mod tests {
    use super::*;
    use nnmodel::{zoo, Workload};

    fn big_conv() -> LayerDesc {
        LayerDesc {
            in_c: 128,
            in_h: 28,
            in_w: 28,
            out_c: 256,
            out_h: 28,
            out_w: 28,
            kernel: 3,
            stride: 1,
            groups: 1,
            is_fc: false,
        }
    }

    #[test]
    fn utilization_bounded() {
        let em = EnergyModel::tsmc28();
        for (r, c) in [(4, 4), (8, 16), (32, 32)] {
            let pu = PuConfig::new(r, c);
            for df in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
                let e = evaluate(&big_conv(), &pu, df, &em);
                assert!(e.utilization > 0.0 && e.utilization <= 1.0, "{df} {r}x{c}");
            }
        }
    }

    #[test]
    fn well_matched_conv_is_highly_utilized() {
        // 128 in / 256 out channels tile perfectly on a 16x16 WS array.
        let em = EnergyModel::tsmc28();
        let pu = PuConfig::new(16, 16);
        let e = evaluate(&big_conv(), &pu, Dataflow::WeightStationary, &em);
        assert!(e.utilization > 0.85, "utilization {}", e.utilization);
    }

    #[test]
    fn more_pes_never_slower() {
        let em = EnergyModel::tsmc28();
        let small = evaluate(
            &big_conv(),
            &PuConfig::new(8, 8),
            Dataflow::WeightStationary,
            &em,
        );
        let large = evaluate(
            &big_conv(),
            &PuConfig::new(16, 16),
            Dataflow::WeightStationary,
            &em,
        );
        assert!(large.cycles < small.cycles);
    }

    #[test]
    fn depthwise_prefers_os_large_weights_prefer_ws() {
        let em = EnergyModel::tsmc28();
        let pu = PuConfig::new(16, 16);
        let w = Workload::from_graph(&zoo::mobilenet_v1());
        let dw = LayerDesc::from_item(w.items().iter().find(|i| i.groups > 1).unwrap());
        assert_eq!(best_dataflow(&dw, &pu, &em).0, Dataflow::OutputStationary);

        // A late-stage weight-heavy conv (many channels, tiny fmap) keeps
        // its weights stationary: Figure 19's "large-size weights prefer
        // WS".
        let late = LayerDesc {
            in_c: 512,
            in_h: 7,
            in_w: 7,
            out_c: 512,
            out_h: 7,
            out_w: 7,
            kernel: 3,
            stride: 1,
            groups: 1,
            is_fc: false,
        };
        assert_eq!(best_dataflow(&late, &pu, &em).0, Dataflow::WeightStationary);
    }

    #[test]
    fn cycles_scale_with_work() {
        let em = EnergyModel::tsmc28();
        let pu = PuConfig::new(16, 16);
        let mut half = big_conv();
        half.out_c /= 2;
        let full = evaluate(&big_conv(), &pu, Dataflow::WeightStationary, &em);
        let halved = evaluate(&half, &pu, Dataflow::WeightStationary, &em);
        let ratio = full.cycles as f64 / halved.cycles as f64;
        assert!((1.8..2.2).contains(&ratio), "ratio {ratio}");
    }

    #[test]
    fn ws_weight_traffic_below_os_for_fmap_heavy_layers() {
        // WS reads each weight once; OS re-reads per spatial tile.
        let em = EnergyModel::tsmc28();
        let pu = PuConfig::new(16, 16);
        let ws = evaluate(&big_conv(), &pu, Dataflow::WeightStationary, &em);
        let os = evaluate(&big_conv(), &pu, Dataflow::OutputStationary, &em);
        assert!(ws.wgt_buf_bytes < os.wgt_buf_bytes);
        // And the converse for partial sums.
        assert!(ws.psum_bytes > os.psum_bytes);
    }

    #[test]
    fn buffers_checked_against_minima() {
        let em = EnergyModel::tsmc28();
        let l = big_conv();
        let tight = PuConfig::new(16, 16).with_buffers(1, 1);
        assert!(!evaluate(&l, &tight, Dataflow::WeightStationary, &em).buffers_ok);
        let roomy = PuConfig::new(16, 16)
            .with_buffers(l.min_act_buf_bytes(), l.min_wgt_buf_bytes(256));
        assert!(evaluate(&l, &roomy, Dataflow::WeightStationary, &em).buffers_ok);
    }

    #[test]
    fn seconds_follow_frequency() {
        let em = EnergyModel::tsmc28();
        let slow = PuConfig::new(16, 16).with_freq_mhz(200.0);
        let fast = PuConfig::new(16, 16).with_freq_mhz(800.0);
        let es = evaluate(&big_conv(), &slow, Dataflow::WeightStationary, &em);
        let ef = evaluate(&big_conv(), &fast, Dataflow::WeightStationary, &em);
        assert_eq!(es.cycles, ef.cycles);
        assert!((es.seconds / ef.seconds - 4.0).abs() < 1e-9);
    }

    #[test]
    fn energy_components_positive_and_mac_dominated_for_dense_conv() {
        let em = EnergyModel::tsmc28();
        let pu = PuConfig::new(16, 16);
        let e = evaluate(&big_conv(), &pu, Dataflow::WeightStationary, &em);
        assert!(e.energy.mac_pj > 0.0);
        assert!(e.energy.act_buf_pj > 0.0);
        assert!(e.energy.total_pj() > e.energy.data_moving_pj());
    }
}
