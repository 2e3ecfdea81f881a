//! Layer-specialized ("compiled") evaluation kernels.
//!
//! [`evaluate`](crate::evaluate) re-derives every layer-only quantity —
//! MAC count, per-group channel fits, weight element count, buffer
//! minima, energy coefficients — on each call. [`CompiledEval`]
//! performs that derivation once per `(layer, energy model)` pair and
//! leaves only the PU-dependent remainder as a compact straight-line
//! program, so a sweep of one layer over many PU candidates pays the
//! layer analysis once instead of per candidate.
//!
//! No product path calls it: the cache's misses go through the reference
//! evaluator, whose ~20 ns per evaluation is a small part of a cache
//! probe. It is kept as the kernel-speed reference that `bench_dse`'s
//! `eval_throughput` and the benchmark's `pucost.kernel.compiled_eval_ns`
//! time against [`evaluate`](crate::evaluate).
//!
//! The kernels reproduce `evaluate`'s arithmetic operation for
//! operation (same integer widths, same `f64` expression shapes), so a
//! compiled result is bit-identical to the scalar one — the
//! differential suite in `tests/batch_diff.rs` pins this.

use crate::energy::{EnergyBreakdown, EnergyModel};
use crate::eval::{os_wins, PuEval};
use crate::layer::LayerDesc;
use crate::pu::{Dataflow, PuConfig};

// Always-inline twins of the blessed casts and the zero-safe ceiling
// division. In debug builds `#[inline]` hints are not acted on and every
// `util::*` helper in the per-candidate loop is a real call; these twins
// keep the compiled kernel straight-line without touching the scalar
// baseline's code generation. Semantics are identical to
// `util::{u64_of, f64_of, f64_of_usize, div_ceil}`.

#[inline(always)]
fn w64(x: usize) -> u64 {
    x as u64 // usize <= 64 bits; lint: allow(as-cast)
}

#[inline(always)]
fn wf(x: u64) -> f64 {
    x as f64 // exact below 2^53; lint: allow(as-cast)
}

#[inline(always)]
fn wfu(x: usize) -> f64 {
    x as f64 // exact below 2^53; lint: allow(as-cast)
}

/// `util::div_ceil` with the call and `div_ceil` intrinsics open-coded.
/// Operands are layer/PU dimensions, far below `usize::MAX`, so the
/// `a + m - 1` rearrangement cannot overflow.
#[inline(always)]
fn dcz(a: usize, b: usize) -> usize {
    let m = if b == 0 { 1 } else { b };
    (a + m - 1) / m
}

/// One layer's cost model, specialized against an [`EnergyModel`]: every
/// subexpression that does not depend on the PU candidate is hoisted into
/// this constant pool at construction time.
///
/// # Example
///
/// ```
/// use pucost::{CompiledEval, Dataflow, EnergyModel, LayerDesc, PuConfig, evaluate};
///
/// let layer = LayerDesc {
///     in_c: 64, in_h: 28, in_w: 28, out_c: 128, out_h: 28, out_w: 28,
///     kernel: 3, stride: 1, groups: 1, is_fc: false,
/// };
/// let em = EnergyModel::tsmc28();
/// let compiled = CompiledEval::new(&layer, &em);
/// let pu = PuConfig::new(16, 16);
/// let df = Dataflow::WeightStationary;
/// assert_eq!(compiled.evaluate(&pu, df), evaluate(&layer, &pu, df, &em));
/// ```
#[derive(Debug, Clone)]
pub struct CompiledEval {
    layer: LayerDesc,
    /// `layer.macs()`.
    macs: u64,
    /// `f64_of(macs)` — numerator of the utilization ratio.
    macs_f: f64,
    /// `f64_of(macs) * em.mac_pj` — the MAC energy term is fully
    /// PU-independent.
    mac_pj_total: f64,
    sram_pj_per_byte: f64,
    psum_pj_per_byte: f64,
    /// `layer.in_c_per_group()` (already `>= 1`).
    icg: usize,
    icg64: u64,
    /// `layer.out_c_per_group()` (already `>= 1`).
    ocg: usize,
    ocg64: u64,
    /// `out_h * out_w` — pixels streamed per WS tile.
    ohw: u64,
    /// `kernel * kernel`.
    k2: usize,
    groups: usize,
    /// `layer.weight_elems()` — WS weight traffic.
    wgt_elems: u64,
    /// `layer.min_act_buf_bytes()`.
    min_act_buf: u64,
    out_c: usize,
    out_h: usize,
    out_w: usize,
    out_w64: u64,
    /// `icg * k2` — accumulation depth of one OS tile.
    os_depth: u64,
    /// `out_c * out_h * out_w` — OS partial-sum traffic.
    os_psum: u64,
}

impl CompiledEval {
    /// Specializes the cost model for `layer` under `em`.
    ///
    /// The layer derivations (`macs`, per-group fits, `weight_elems`,
    /// `min_act_buf_bytes`) are open-coded rather than delegated to the
    /// `LayerDesc` methods, which are real calls in debug builds. The
    /// expressions mirror the `LayerDesc` method bodies term for term.
    pub fn new(layer: &LayerDesc, em: &EnergyModel) -> Self {
        let l = *layer;
        let k2 = l.kernel * l.kernel;
        let icg_raw = l.in_c / l.groups;
        // `LayerDesc::macs`, same multiplication order.
        let macs = w64(l.out_c) * w64(l.out_h) * w64(l.out_w) * w64(icg_raw) * w64(k2);
        let macs_f = wf(macs);
        let icg = if icg_raw < 1 { 1 } else { icg_raw };
        let ocg_raw = l.out_c / l.groups;
        let ocg = if ocg_raw < 1 { 1 } else { ocg_raw };
        // `LayerDesc::min_act_buf_bytes`: `(K + S).min(in_h)` active rows,
        // channel-first. The scalar helper saturates its multiplies; the
        // operands are in-memory tensor dimensions, so plain multiplies
        // produce the same value.
        let ks = w64(l.kernel + l.stride);
        let ih = w64(l.in_h);
        let act_rows = if ks < ih { ks } else { ih };
        let mab = act_rows * w64(l.in_w) * w64(l.in_c);
        Self {
            layer: l,
            macs,
            macs_f,
            mac_pj_total: macs_f * em.mac_pj,
            sram_pj_per_byte: em.sram_pj_per_byte,
            psum_pj_per_byte: em.psum_pj_per_byte,
            icg,
            icg64: w64(icg),
            ocg,
            ocg64: w64(ocg),
            ohw: w64(l.out_h * l.out_w),
            k2,
            groups: l.groups,
            wgt_elems: w64(l.out_c) * w64(icg_raw) * w64(k2),
            min_act_buf: if mab < 1 { 1 } else { mab },
            out_c: l.out_c,
            out_h: l.out_h,
            out_w: l.out_w,
            out_w64: w64(l.out_w),
            os_depth: w64(icg * k2),
            os_psum: w64(l.out_c * l.out_h * l.out_w),
        }
    }

    /// The layer this program was compiled for.
    pub fn layer(&self) -> &LayerDesc {
        &self.layer
    }

    /// WS tile-loop core: `(cycles, act_reads, wgt_reads, psum_moves)`.
    ///
    /// Straight-line program: the `min`/`max`/`clamp`/`saturating_sub`
    /// method calls of the scalar path are open-coded as branches (real
    /// calls in debug builds), but every expression keeps the scalar
    /// path's exact shape and evaluation order, so results stay
    /// bit-identical.
    /// `macs / c64.min(ocg64).max(1)` — the activation-read count, shared
    /// verbatim by both dataflows.
    #[inline(always)]
    fn act_reads(&self, c64: u64) -> u64 {
        let ad = if c64 < self.ocg64 { c64 } else { self.ocg64 };
        self.macs / if ad < 1 { 1 } else { ad }
    }

    /// WS tile-loop cycles (`fill` already included).
    #[inline(always)]
    fn ws_cycles(&self, r: usize, c: usize, r64: u64, fill: u64) -> u64 {
        // `icg`/`ocg` are already clamped to >= 1 at compile time.
        // `((r / icg).min(c / ocg)).clamp(1, groups)`:
        let pr = r / self.icg;
        let pc = c / self.ocg;
        let pmin = if pr < pc { pr } else { pc };
        let par = if pmin < 1 {
            1
        } else if pmin > self.groups {
            self.groups
        } else {
            pmin
        };
        let tiles =
            w64(dcz(self.icg, r) * dcz(self.ocg, c) * self.k2) * w64(dcz(self.groups, par));
        let stall = if r64 >= self.ohw { r64 - self.ohw } else { 0 };
        tiles * (self.ohw + stall) + fill
    }

    /// WS partial-sum moves: `2 * (macs / r64.min(icg64).max(1))`.
    #[inline(always)]
    fn ws_psum(&self, r64: u64) -> u64 {
        let cd = if r64 < self.icg64 { r64 } else { self.icg64 };
        2 * (self.macs / if cd < 1 { 1 } else { cd })
    }

    /// OS tile-loop cycles (`fill` already included).
    #[inline(always)]
    fn os_cycles(&self, r: usize, c: usize, fill: u64) -> u64 {
        let spatial_tiles = w64(self.out_h * dcz(self.out_w, r));
        let chan_tiles = w64(dcz(self.out_c, c));
        spatial_tiles * chan_tiles * self.os_depth + fill
    }

    /// OS weight reads: `(macs / r64.min(out_w64).max(1)).max(1)`.
    #[inline(always)]
    fn os_wgt(&self, r64: u64) -> u64 {
        let wd = if r64 < self.out_w64 { r64 } else { self.out_w64 };
        let wgt = self.macs / if wd < 1 { 1 } else { wd };
        if wgt < 1 {
            1
        } else {
            wgt
        }
    }

    /// WS tile-loop core: `(cycles, act_reads, wgt_reads, psum_moves)`.
    #[inline(always)]
    fn ws_core(&self, r: usize, c: usize) -> (u64, u64, u64, u64) {
        let fill = w64(r + c);
        let r64 = w64(r);
        (
            self.ws_cycles(r, c, r64, fill),
            self.act_reads(w64(c)),
            self.wgt_elems,
            self.ws_psum(r64),
        )
    }

    /// OS tile-loop core: `(cycles, act_reads, wgt_reads, psum_moves)`.
    #[inline(always)]
    fn os_core(&self, r: usize, c: usize) -> (u64, u64, u64, u64) {
        let fill = w64(r + c);
        (
            self.os_cycles(r, c, fill),
            self.act_reads(w64(c)),
            self.os_wgt(w64(r)),
            self.os_psum,
        )
    }

    /// Shared tail: normalizes cycles, prices the traffic, checks buffers.
    #[allow(clippy::too_many_arguments)]
    #[inline(always)]
    fn finish(
        &self,
        df: Dataflow,
        cycles: u64,
        act_reads: u64,
        wgt_reads: u64,
        psum_moves: u64,
        num_pe: usize,
        buffers_ok: bool,
        freq_hz: f64,
    ) -> PuEval {
        let cycles = if cycles < 1 { 1 } else { cycles };
        let cyc_f = wf(cycles);
        let utilization = self.macs_f / (cyc_f * wfu(num_pe));
        let energy = EnergyBreakdown {
            mac_pj: self.mac_pj_total,
            act_buf_pj: wf(act_reads) * self.sram_pj_per_byte,
            wgt_buf_pj: wf(wgt_reads) * self.sram_pj_per_byte,
            psum_pj: wf(psum_moves) * self.psum_pj_per_byte,
        };
        PuEval {
            dataflow: df,
            cycles,
            seconds: cyc_f / freq_hz,
            macs: self.macs,
            utilization,
            act_buf_bytes: act_reads,
            wgt_buf_bytes: wgt_reads,
            psum_bytes: psum_moves,
            energy,
            buffers_ok,
        }
    }

    /// `wgt_buf >= (k2 * num_pe).max(1)` — the PU-dependent half of the
    /// buffer feasibility check (the activation half is a pure constant
    /// compare).
    #[inline(always)]
    fn buffers_ok(&self, num_pe: usize, act_buf_bytes: u64, wgt_buf_bytes: u64) -> bool {
        let wmin = w64(self.k2 * num_pe);
        let wmin = if wmin < 1 { 1 } else { wmin };
        act_buf_bytes >= self.min_act_buf && wgt_buf_bytes >= wmin
    }

    /// Compiled equivalent of [`evaluate`](crate::evaluate): bit-identical
    /// result, layer-only work pre-paid.
    ///
    /// Deliberately NOT `#[inline(always)]`: in unoptimized builds, one
    /// compiled copy with a small frame beats inlining this body (and its
    /// spilled locals) into every call site.
    pub fn evaluate(&self, pu: &PuConfig, df: Dataflow) -> PuEval {
        let (r, c) = (pu.rows, pu.cols);
        let (cycles, act, wgt, psum) = match df {
            Dataflow::WeightStationary => self.ws_core(r, c),
            Dataflow::OutputStationary => self.os_core(r, c),
        };
        let num_pe = r * c;
        let ok = self.buffers_ok(num_pe, pu.act_buf_bytes, pu.wgt_buf_bytes);
        self.finish(df, cycles, act, wgt, psum, num_pe, ok, pu.freq_mhz * 1e6)
    }

    /// Compiled equivalent of [`best_dataflow`](crate::best_dataflow):
    /// one fused WS+OS sweep. The activation reads, PE count, buffer
    /// feasibility and frequency scaling are computed once and shared by
    /// both dataflow legs, the winner is chosen through the shared
    /// `os_wins` tie-break (the rule behind
    /// [`pick_dataflow`](crate::pick_dataflow)) on normalized cycles and
    /// `total_pj`-ordered energy sums, and only the winning [`PuEval`] is
    /// materialized. Like [`CompiledEval::evaluate`], deliberately a
    /// plain call.
    pub fn best(&self, pu: &PuConfig) -> (Dataflow, PuEval) {
        let (r, c) = (pu.rows, pu.cols);
        let fill = w64(r + c);
        let r64 = w64(r);
        let wc = self.ws_cycles(r, c, r64, fill);
        let ww = self.wgt_elems;
        let wp = self.ws_psum(r64);
        let oc = self.os_cycles(r, c, fill);
        let ow = self.os_wgt(r64);
        let op = self.os_psum;
        // Both dataflows read activations identically, so the value is
        // computed once and shared.
        let wa = self.act_reads(w64(c));
        let num_pe = r * c;
        let ok = self.buffers_ok(num_pe, pu.act_buf_bytes, pu.wgt_buf_bytes);
        let freq_hz = pu.freq_mhz * 1e6;
        // Normalize cycles exactly as `finish` does before comparing.
        let wcn = if wc < 1 { 1 } else { wc };
        let ocn = if oc < 1 { 1 } else { oc };
        // Price the traffic, then form both totals in
        // `EnergyBreakdown::total_pj`'s summation order.
        let act_pj = wf(wa) * self.sram_pj_per_byte;
        let ws_wgt_pj = wf(ww) * self.sram_pj_per_byte;
        let ws_psum_pj = wf(wp) * self.psum_pj_per_byte;
        let os_wgt_pj = wf(ow) * self.sram_pj_per_byte;
        let os_psum_pj = wf(op) * self.psum_pj_per_byte;
        let ws_total = self.mac_pj_total + act_pj + ws_wgt_pj + ws_psum_pj;
        let os_total = self.mac_pj_total + act_pj + os_wgt_pj + os_psum_pj;
        if os_wins(wcn, ocn, ws_total, os_total) {
            let cyc_f = wf(ocn);
            let eval = PuEval {
                dataflow: Dataflow::OutputStationary,
                cycles: ocn,
                seconds: cyc_f / freq_hz,
                macs: self.macs,
                utilization: self.macs_f / (cyc_f * wfu(num_pe)),
                act_buf_bytes: wa,
                wgt_buf_bytes: ow,
                psum_bytes: op,
                energy: EnergyBreakdown {
                    mac_pj: self.mac_pj_total,
                    act_buf_pj: act_pj,
                    wgt_buf_pj: os_wgt_pj,
                    psum_pj: os_psum_pj,
                },
                buffers_ok: ok,
            };
            (Dataflow::OutputStationary, eval)
        } else {
            let cyc_f = wf(wcn);
            let eval = PuEval {
                dataflow: Dataflow::WeightStationary,
                cycles: wcn,
                seconds: cyc_f / freq_hz,
                macs: self.macs,
                utilization: self.macs_f / (cyc_f * wfu(num_pe)),
                act_buf_bytes: wa,
                wgt_buf_bytes: ww,
                psum_bytes: wp,
                energy: EnergyBreakdown {
                    mac_pj: self.mac_pj_total,
                    act_buf_pj: act_pj,
                    wgt_buf_pj: ws_wgt_pj,
                    psum_pj: ws_psum_pj,
                },
                buffers_ok: ok,
            };
            (Dataflow::WeightStationary, eval)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::{best_dataflow, evaluate};

    fn layers() -> Vec<LayerDesc> {
        let conv = LayerDesc {
            in_c: 64,
            in_h: 28,
            in_w: 28,
            out_c: 128,
            out_h: 28,
            out_w: 28,
            kernel: 3,
            stride: 1,
            groups: 1,
            is_fc: false,
        };
        vec![
            conv,
            // Depthwise: one channel per group.
            LayerDesc {
                in_c: 96,
                out_c: 96,
                groups: 96,
                ..conv
            },
            // Grouped conv.
            LayerDesc {
                in_c: 64,
                out_c: 128,
                groups: 4,
                ..conv
            },
            // FC as 1x1 on a 1x1 extent.
            LayerDesc {
                in_c: 4096,
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
            // Tiny fmap, stride 2.
            LayerDesc {
                in_c: 512,
                in_h: 7,
                in_w: 7,
                out_c: 512,
                out_h: 4,
                out_w: 4,
                kernel: 3,
                stride: 2,
                groups: 1,
                is_fc: false,
            },
        ]
    }

    #[test]
    fn compiled_matches_scalar_bit_for_bit() {
        let em = EnergyModel::tsmc28();
        for layer in layers() {
            let compiled = CompiledEval::new(&layer, &em);
            for (r, c) in [(1, 1), (2, 16), (8, 8), (16, 16), (16, 32), (32, 32), (3, 5)] {
                for bufs in [(0, 0), (4096, 4096), (1, 1)] {
                    let pu = PuConfig::new(r, c).with_buffers(bufs.0, bufs.1);
                    for df in [Dataflow::WeightStationary, Dataflow::OutputStationary] {
                        assert_eq!(
                            compiled.evaluate(&pu, df),
                            evaluate(&layer, &pu, df, &em),
                            "{layer:?} {r}x{c} {df}"
                        );
                    }
                    assert_eq!(
                        compiled.best(&pu),
                        best_dataflow(&layer, &pu, &em),
                        "{layer:?} {r}x{c} best"
                    );
                }
            }
        }
    }

    #[test]
    fn frequency_flows_through_seconds() {
        let em = EnergyModel::tsmc28();
        let layer = layers()[0];
        let compiled = CompiledEval::new(&layer, &em);
        let pu = PuConfig::new(16, 16).with_freq_mhz(263.0);
        assert_eq!(
            compiled.evaluate(&pu, Dataflow::WeightStationary),
            evaluate(&layer, &pu, Dataflow::WeightStationary, &em)
        );
    }
}
