//! MILP segmentation over the *full* assignment space (Section V-A's
//! formulation, Table I / Eq. 2–11), solved with the workspace's `mip`
//! branch-and-bound solver.
//!
//! The paper's combined objective `min(1/CTC + SOD)` contains ratios of
//! decision variables, which commercial solvers handle through internal
//! reformulation. We solve it **lexicographically**, which reaches the
//! same Pareto-extreme solutions:
//!
//! 1. the minimum-segment-CTC level is fixed from the exact contiguous DP
//!    (relaxed by a small factor) and enforced as a *linear* constraint —
//!    for a fixed CTC target `t`, `sum(ops) >= t * access_s` is linear in
//!    the binaries once segment DRAM access is linearized with per-edge
//!    "same-segment" variables;
//! 2. subject to that, the MILP minimizes the (unnormalized) pairwise
//!    Manhattan distance between per-PU operation vectors — the linear
//!    form of Eq. 11 (normalization is dropped; the CTC constraint already
//!    pushes segment totals toward similar magnitudes).
//!
//! Because λ has `L * N * S` binaries, this engine is intended for compact
//! workloads (the AlexNet case study, ablations); beyond
//! [`MipSegmenter::DEFAULT_MAX_BINARIES`] it falls back to the chain DP,
//! which solves the identical objective on the contiguous subspace.

use super::{metrics, ChainDpSegmenter, Segmenter};
use crate::error::AutoSegError;
use mip::{Cmp, LinExpr, Problem, Sense, Solver, VarId};
use nnmodel::Workload;
use spa_arch::{Assignment, Segment, SegmentSchedule};
use std::time::Duration;

/// Full-space MILP segmenter (see module docs).
#[derive(Debug, Clone)]
pub struct MipSegmenter {
    /// Relaxation factor applied to the DP's optimal min-CTC before it
    /// becomes a constraint (default 0.9).
    pub ctc_relax: f64,
    /// Solver wall-clock budget.
    pub time_limit: Duration,
    /// Solver node budget.
    pub max_nodes: u64,
    /// Problem-size ceiling before falling back to the chain DP.
    pub max_binaries: usize,
    /// Pool the solver's node-relaxation waves fan out on (serial by
    /// default; any width yields bit-identical answers).
    pub pool: crate::dse::DsePool,
}

impl MipSegmenter {
    /// Default ceiling on λ binaries before the engine falls back.
    pub const DEFAULT_MAX_BINARIES: usize = 512;

    /// A MILP segmenter with sensible defaults.
    pub fn new() -> Self {
        Self {
            ctc_relax: 0.9,
            time_limit: Duration::from_secs(20),
            max_nodes: 50_000,
            max_binaries: Self::DEFAULT_MAX_BINARIES,
            pool: crate::dse::DsePool::serial(),
        }
    }

    /// Sets the node pool the MILP's branch & bound waves run on.
    pub fn with_pool(mut self, pool: crate::dse::DsePool) -> Self {
        self.pool = pool;
        self
    }
}

impl Default for MipSegmenter {
    fn default() -> Self {
        Self::new()
    }
}

impl Segmenter for MipSegmenter {
    fn segment(
        &self,
        workload: &Workload,
        n_pus: usize,
        n_segments: usize,
    ) -> Result<SegmentSchedule, AutoSegError> {
        let l = workload.len();
        if n_pus == 0 || n_segments == 0 || n_pus * n_segments > l {
            return Err(AutoSegError::SegmentationInfeasible {
                n_pus,
                n_segments,
                items: l,
            });
        }
        let fallback = ChainDpSegmenter::new().segment(workload, n_pus, n_segments)?;
        if l * n_pus * n_segments > self.max_binaries {
            return Ok(fallback);
        }
        let target_ctc = metrics(workload, &fallback).min_ctc * self.ctc_relax;

        match self.solve(workload, n_pus, n_segments, target_ctc, &fallback) {
            Some(sched) => {
                // Keep whichever solution is better under the combined
                // objective (the MILP explores a larger space but may hit
                // its limits first).
                let m_milp = metrics(workload, &sched).objective();
                let m_dp = metrics(workload, &fallback).objective();
                Ok(if m_milp <= m_dp { sched } else { fallback })
            }
            None => Ok(fallback),
        }
    }

    fn name(&self) -> &'static str {
        "mip"
    }
}

impl MipSegmenter {
    fn solve(
        &self,
        workload: &Workload,
        n: usize,
        s_max: usize,
        target_ctc: f64,
        seed_schedule: &SegmentSchedule,
    ) -> Option<SegmentSchedule> {
        let Formulation { problem, lam, seed } =
            formulate(workload, n, s_max, target_ctc, seed_schedule);
        let sol = Solver::new()
            .time_limit(self.time_limit)
            .max_nodes(self.max_nodes)
            .warm_start(seed)
            .solve_with_pool(&problem, &self.pool)
            .ok()?;
        if !sol.has_solution() {
            return None;
        }

        // Decode λ into a schedule.
        let mut segments = vec![Segment::default(); s_max];
        for (li, lam_l) in lam.iter().enumerate() {
            'found: for (ni, lam_ln) in lam_l.iter().enumerate() {
                for (si, &v) in lam_ln.iter().enumerate() {
                    if sol.int_value(v) == 1 {
                        segments[si]
                            .assignments
                            .push(Assignment { item: li, pu: ni });
                        break 'found;
                    }
                }
            }
        }
        SegmentSchedule::new(segments, n, workload).ok()
    }
}

/// The segmentation MILP of one `(n, s_max)` shape: the problem, its
/// `λ[item][pu][segment]` binaries, and the DP seed as a variable vector.
struct Formulation {
    problem: Problem,
    lam: Vec<Vec<Vec<VarId>>>,
    seed: Vec<f64>,
}

/// Builds the model (Eq. 2–4, the linearized CTC rows, the SOD
/// objective) plus one symmetry-breaking row, and encodes
/// `seed_schedule` into a warm-start vector that satisfies it.
fn formulate(
    workload: &Workload,
    n: usize,
    s_max: usize,
    target_ctc: f64,
    seed_schedule: &SegmentSchedule,
) -> Formulation {
    let l = workload.len();
    let items = workload.items();
    let total_ops = workload.total_ops().max(1) as f64;
    let mut p = Problem::new(Sense::Minimize);

    // λ[l][n][s]
    let lam: Vec<Vec<Vec<VarId>>> = (0..l)
        .map(|li| {
            (0..n)
                .map(|ni| {
                    (0..s_max)
                        .map(|si| p.add_binary(format!("lam_{li}_{ni}_{si}")))
                        .collect()
                })
                .collect()
        })
        .collect();
    // y[l][s] as expressions.
    let y = |li: usize, si: usize| -> LinExpr {
        LinExpr::terms(&(0..n).map(|ni| (lam[li][ni][si], 1.0)).collect::<Vec<_>>())
    };

    // Eq. 2: exactly one (n, s) per item; at least one item per (n, s).
    for li in 0..l {
        let mut e = LinExpr::new();
        for ni in 0..n {
            for si in 0..s_max {
                e.add_term(lam[li][ni][si], 1.0);
            }
        }
        p.add_constraint(e, Cmp::Eq, 1.0);
    }
    for ni in 0..n {
        for si in 0..s_max {
            let mut e = LinExpr::new();
            for lam_l in &lam {
                e.add_term(lam_l[ni][si], 1.0);
            }
            p.add_constraint(e, Cmp::Ge, 1.0);
        }
    }

    // Symmetry: PUs are interchangeable until allocation sizes them, so
    // every schedule has a relabelling with the first item on PU 0.
    let first_on_pu0: Vec<(VarId, f64)> = lam[0][0].iter().map(|&v| (v, 1.0)).collect();
    p.add_constraint(LinExpr::terms(&first_on_pu0), Cmp::Eq, 1.0);

    // Edge list (producer, consumer, bytes).
    let edges: Vec<(usize, usize, u64)> = items
        .iter()
        .flat_map(|it| it.preds.iter().map(move |&(pr, b)| (pr, it.index, b)))
        .collect();

    // Eq. 3: no consumer before its producer across segments.
    for &(pr, co, _) in &edges {
        for s1 in 0..s_max {
            for s2 in (s1 + 1)..s_max {
                let e = y(pr, s2) + y(co, s1);
                p.add_constraint(e, Cmp::Le, 1.0);
            }
        }
    }

    // Eq. 4: ω flow indicators, no bidirectional pairs in a segment.
    let mut omegas: Vec<Vec<Vec<VarId>>> = Vec::with_capacity(s_max);
    for si in 0..s_max {
        let omega: Vec<Vec<VarId>> = (0..n)
            .map(|a| {
                (0..n)
                    .map(|b| p.add_binary(format!("om_{a}_{b}_{si}")))
                    .collect()
            })
            .collect();
        for &(pr, co, _) in &edges {
            for a in 0..n {
                for b in 0..n {
                    if a == b {
                        continue;
                    }
                    // ω_{a,b,s} >= λ_{pr,a,s} + λ_{co,b,s} - 1
                    let mut e = LinExpr::from(omega[a][b]) * -1.0;
                    e.add_term(lam[pr][a][si], 1.0);
                    e.add_term(lam[co][b][si], 1.0);
                    p.add_constraint(e, Cmp::Le, 1.0);
                }
            }
        }
        for a in 0..n {
            for b in (a + 1)..n {
                let e = LinExpr::from(omega[a][b]) + LinExpr::from(omega[b][a]);
                p.add_constraint(e, Cmp::Le, 1.0);
            }
        }
        omegas.push(omega);
    }

    // Same-segment edge variables z[e][s] (continuous in [0,1]; the CTC
    // constraint pushes them up to min(y_pr, y_co)).
    let z: Vec<Vec<VarId>> = (0..edges.len())
        .map(|ei| {
            (0..s_max)
                .map(|si| p.add_continuous(format!("z_{ei}_{si}"), 0.0, 1.0))
                .collect()
        })
        .collect();
    for (ei, &(pr, co, _)) in edges.iter().enumerate() {
        for si in 0..s_max {
            let e1 = LinExpr::from(z[ei][si]) + y(pr, si) * -1.0;
            p.add_constraint(e1, Cmp::Le, 0.0);
            let e2 = LinExpr::from(z[ei][si]) + y(co, si) * -1.0;
            p.add_constraint(e2, Cmp::Le, 0.0);
        }
    }

    // CTC constraint per segment: sum(ops) >= t * access_s where
    // access_s = sum_l base_l * y_{l,s} + sum_e b_e (y_pr + y_co - 2z),
    // in op shares (divided by the total ops, like the SOD rows) so its
    // coefficients sit near 1 rather than near the raw op counts.
    for si in 0..s_max {
        let mut e = LinExpr::new();
        for it in items {
            let consumers = workload.consumers(it.index);
            let base = it.w_bytes as f64
                + it.extern_in_bytes as f64
                + if consumers.is_empty() {
                    it.out_bytes as f64
                } else {
                    0.0
                };
            for ni in 0..n {
                e.add_term(
                    lam[it.index][ni][si],
                    (it.ops as f64 - target_ctc * base) / total_ops,
                );
            }
        }
        for (ei, &(pr, co, b)) in edges.iter().enumerate() {
            let tb = target_ctc * b as f64 / total_ops;
            e += y(pr, si) * (-tb) + y(co, si) * (-tb);
            e.add_term(z[ei][si], 2.0 * tb);
        }
        p.add_constraint(e, Cmp::Ge, 0.0);
    }

    // Objective: pairwise Manhattan distance of per-PU op vectors.
    let mut obj = LinExpr::new();
    let mut d_vars: Vec<(VarId, usize, usize, usize)> = Vec::new();
    for ni in 0..n {
        for s1 in 0..s_max {
            for s2 in (s1 + 1)..s_max {
                let d = p.add_continuous(format!("d_{ni}_{s1}_{s2}"), 0.0, f64::INFINITY);
                d_vars.push((d, ni, s1, s2));
                // d >= +-(ops(n,s1) - ops(n,s2)) / total_ops
                let mut diff = LinExpr::new();
                for it in items {
                    let o = it.ops as f64 / total_ops;
                    diff.add_term(lam[it.index][ni][s1], o);
                    diff.add_term(lam[it.index][ni][s2], -o);
                }
                let mut c1 = diff.clone();
                c1.add_term(d, -1.0);
                p.add_constraint(c1, Cmp::Le, 0.0);
                let mut c2 = diff * -1.0;
                c2.add_term(d, -1.0);
                p.add_constraint(c2, Cmp::Le, 0.0);
                obj.add_term(d, 1.0);
            }
        }
    }
    p.set_objective(obj);

    // Warm start: encode the DP schedule into the variable vector so
    // branch & bound prunes against a known-good incumbent from node
    // one, its PU labels swapped so the first item sits on PU 0 as the
    // symmetry row demands.
    let mut seg_of = vec![usize::MAX; l];
    let mut pu_of = vec![usize::MAX; l];
    for (si, seg) in seed_schedule.segments.iter().enumerate() {
        for a in &seg.assignments {
            seg_of[a.item] = si;
            pu_of[a.item] = a.pu;
        }
    }
    let first = pu_of[0];
    for pu in &mut pu_of {
        if *pu == first {
            *pu = 0;
        } else if *pu == 0 {
            *pu = first;
        }
    }
    let mut v = vec![0.0; p.num_vars()];
    for li in 0..l {
        v[lam[li][pu_of[li]][seg_of[li]].index()] = 1.0;
    }
    for (si, omega) in omegas.iter().enumerate() {
        for &(pr, co, _) in &edges {
            if seg_of[pr] == si && seg_of[co] == si && pu_of[pr] != pu_of[co] {
                v[omega[pu_of[pr]][pu_of[co]].index()] = 1.0;
            }
        }
    }
    for (ei, &(pr, co, _)) in edges.iter().enumerate() {
        for si in 0..s_max {
            if seg_of[pr] == si && seg_of[co] == si {
                v[z[ei][si].index()] = 1.0;
            }
        }
    }
    for &(dv, ni, s1, s2) in &d_vars {
        let ops = |si: usize| -> f64 {
            items
                .iter()
                .filter(|it| seg_of[it.index] == si && pu_of[it.index] == ni)
                .map(|it| it.ops as f64)
                .sum::<f64>()
                / total_ops
        };
        v[dv.index()] = (ops(s1) - ops(s2)).abs();
    }
    Formulation {
        problem: p,
        lam,
        seed: v,
    }
}

#[cfg(test)]
mod tests {
    use super::super::{metrics, testutil::chain, ChainDpSegmenter};
    use super::*;
    use nnmodel::{zoo, Dtype, GraphBuilder, TensorShape, Workload};

    #[test]
    fn milp_schedules_are_valid() {
        let w = chain(8);
        let seg = MipSegmenter::new();
        let sched = seg.segment(&w, 2, 2).unwrap();
        sched.validate(&w).unwrap();
        assert_eq!(sched.len(), 2);
    }

    #[test]
    fn milp_never_worse_than_dp() {
        // The MILP keeps the better of its own solution and the DP's.
        let w = chain(8);
        let milp = MipSegmenter::new().segment(&w, 2, 2).unwrap();
        let dp = ChainDpSegmenter::new().segment(&w, 2, 2).unwrap();
        assert!(metrics(&w, &milp).objective() <= metrics(&w, &dp).objective() + 1e-9);
    }

    #[test]
    fn alexnet_case_study_shape() {
        // Tables IV-VI: 10 conv items, 4 PUs, 1 segment... the SPA variant
        // uses 1 segment with doubled layers; run the 4x1 shape.
        let w = Workload::from_graph(&zoo::alexnet_conv());
        let seg = MipSegmenter::new();
        let sched = seg.segment(&w, 4, 1).unwrap();
        sched.validate(&w).unwrap();
        // All 10 items placed across 4 PUs.
        assert_eq!(sched.segments[0].assignments.len(), 10);
    }

    /// A seeded conv chain of 6–9 items with random widths, kernels and
    /// strides.
    fn random_chain(seed: u64) -> Workload {
        let mut rng = faultsim::rng::SplitMix64::new(seed);
        let mut b = GraphBuilder::new("rand", Dtype::Int8, TensorShape::new(4, 64, 64));
        let mut x = b.input();
        for i in 0..6 + rng.below(4) {
            let c = 1 + rng.below(6);
            let kernel = [1, 3][rng.below(2)];
            let s = 1 + rng.below(2);
            x = b
                .conv(format!("c{i}"), x, 4 * c, kernel, s, kernel / 2)
                .unwrap();
        }
        Workload::from_graph(&b.finish())
    }

    #[test]
    fn relabelled_seed_is_feasible_and_objectives_hold() {
        // The DP seed, relabelled onto the symmetry row, must stay an
        // incumbent (`Solver::warm_start` drops infeasible seeds silently),
        // and the MILP's own schedule is pinned: first item on PU 0, and
        // the objective to the bit (on these shapes the MILP's optimum
        // ties the chain DP's).
        let alexnet = Workload::from_graph(&zoo::alexnet());
        let chain = random_chain(0x5e6_0017);
        let cases: [(&Workload, usize, usize, u64); 3] = [
            (&alexnet, 2, 2, 0x3fd1_4e78_e5cc_19be),
            (&alexnet, 4, 2, 0x3feb_ba99_99e8_7bf0),
            (&chain, 2, 2, 0x3fd1_186c_c3cd_29db),
        ];
        for (w, n, s, bits) in cases {
            let dp = ChainDpSegmenter::new().segment(w, n, s).unwrap();
            let target = metrics(w, &dp).min_ctc * MipSegmenter::new().ctc_relax;
            let f = formulate(w, n, s, target, &dp);
            assert!(
                f.problem.is_feasible(&f.seed, 1e-6),
                "({n},{s}) seed infeasible"
            );
            let mut seg = MipSegmenter::new();
            seg.time_limit = Duration::from_secs(3600);
            let sched = seg.solve(w, n, s, target, &dp).expect("the MILP solves");
            sched.validate(w).unwrap();
            assert!(sched
                .segments
                .iter()
                .any(|seg| seg.items_on(0).contains(&0)));
            let obj = metrics(w, &sched).objective();
            assert_eq!(obj.to_bits(), bits, "({n},{s}) objective {obj}");
        }
    }

    #[test]
    fn oversized_problems_fall_back_to_dp() {
        let w = Workload::from_graph(&zoo::resnet50());
        let seg = MipSegmenter::new();
        let sched = seg.segment(&w, 4, 6).unwrap();
        let dp = ChainDpSegmenter::new().segment(&w, 4, 6).unwrap();
        assert_eq!(sched, dp);
    }
}
