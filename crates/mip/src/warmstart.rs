//! Dual-simplex warm starts from a parent basis.
//!
//! A branch-and-bound child differs from its parent only in one variable's
//! bounds, and consecutive sweep cells often differ only in a handful of
//! rhs values. Both perturbations leave the constraint matrix and the
//! objective untouched, so the parent's optimal basis stays *dual* feasible
//! and only the rhs column must be repaired — the textbook dual-simplex
//! setting. Warm solves skip phase 1 entirely.
//!
//! Lifecycle: every optimal LP solve snapshots its [`Basis`] (basic columns
//! plus row orientations). A warm solve (1) rebuilds a tableau with the
//! *parent's* row orientations so the column layout matches, (2) realizes
//! the parent basis by Gaussian elimination restricted to the target
//! columns with partial pivoting, (3) runs a bounded dual simplex until the
//! rhs is nonnegative — leaving row by most negative rhs for the first `m`
//! pivots, then by Bland's rule (lowest basic column), entering column by
//! the dual ratio test with lowest-index ties, at most `2m` pivots — then
//! (4) polishes with the primal phase 2 and certifies that every artificial
//! sits at zero. An `Infeasible` verdict from step (3) stands only if its
//! Farkas certificate survives a recheck against the problem's own rows.
//!
//! Any of those steps can fail — shape drift, a numerically singular basis,
//! a pivot-budget stall, a nonzero artificial, or a certificate that does
//! not hold — and each failure is a typed [`WarmReject`]; the caller falls
//! back to the cold two-phase solve, which is always correct. A warm solve
//! therefore never changes *what* is computed, only how fast.

use crate::problem::{Cmp, MipError, Problem};
use crate::simplex::{
    basic_mask, build_tableau, extract, optimize, phase2_cost, pivot, Basis, Build, LpOutcome,
    LpSolve, Pivoted, Tab, EPS, FEAS_TOL,
};

/// Relative tolerance of the Farkas recheck: a column's aggregated
/// coefficient may fall this fraction of its summed term magnitudes below
/// zero and still count as nonnegative.
const CERT_TOL: f64 = 1e-9;

/// Why a warm start was refused. The caller falls back to a cold solve;
/// rejection is an efficiency event, never a correctness one.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WarmReject {
    /// The tableau shape differs from the basis' origin (different
    /// variable count, row count, or finite-upper-bound structure).
    Shape,
    /// The basis matrix was numerically singular when realized on the new
    /// tableau.
    Singular,
    /// The dual simplex needed more than `2m` pivots, or the primal polish
    /// found a ray.
    Stall,
    /// An artificial variable remained at a nonzero level, so feasibility
    /// cannot be certified from this basis.
    Artificial,
    /// The dual simplex reported infeasibility, but its Farkas certificate
    /// failed the recheck against the problem's rows.
    Certificate,
}

impl WarmReject {
    /// The `obs` counter that tallies rejections for this reason.
    pub(crate) fn counter(self) -> &'static str {
        match self {
            WarmReject::Shape => "mip.warm.reject.shape",
            WarmReject::Singular => "mip.warm.reject.singular",
            WarmReject::Stall => "mip.warm.reject.stall",
            WarmReject::Artificial => "mip.warm.reject.artificial",
            WarmReject::Certificate => "mip.warm.reject.certificate",
        }
    }
}

/// Result of a warm-start attempt.
pub(crate) enum Warm {
    /// The basis was accepted and the LP solved from it.
    Hit(LpSolve),
    /// The basis was rejected; solve cold instead.
    Reject(WarmReject),
}

/// Re-solves the LP relaxation of `p` under `bounds` starting from
/// `parent`, a basis snapshotted by a previous optimal solve of a
/// same-shaped problem.
pub(crate) fn solve_lp_warm(
    p: &Problem,
    bounds: &[(f64, f64)],
    parent: &Basis,
) -> Result<Warm, MipError> {
    // Shape pre-check: the column layout is determined by the structural
    // count, the row count/orientations, and which variables carry a
    // finite-upper-bound row. Any drift and the basis indices are
    // meaningless here.
    if parent.n != p.num_vars() {
        return Ok(Warm::Reject(WarmReject::Shape));
    }
    let ub_now: Vec<usize> = bounds
        .iter()
        .enumerate()
        .filter(|&(_, b)| b.1.is_finite())
        .map(|(i, _)| i)
        .collect();
    if ub_now != parent.ub_vars
        || parent.flips.len() != p.constraints.len() + ub_now.len()
        || parent.cols.len() != parent.flips.len()
    {
        return Ok(Warm::Reject(WarmReject::Shape));
    }

    obs::add("mip.simplex.solves", 1);
    let mut tab = match build_tableau(p, bounds, Some(&parent.flips))? {
        Build::Ready(t) => t,
        Build::Infeasible => {
            return Ok(Warm::Hit(LpSolve {
                outcome: LpOutcome::Infeasible,
                basis: None,
                pivots: 0,
            }))
        }
    };
    if tab.n_slack != parent.n_slack
        || tab.n_art != parent.n_art
        || parent.cols.iter().any(|&c| c >= tab.total())
    {
        return Ok(Warm::Reject(WarmReject::Shape));
    }
    let mut dual_pivots = 0u64;
    let warm = resolve(p, bounds, parent, &mut tab, &mut dual_pivots);
    obs::add("mip.simplex.dual_pivots", dual_pivots);
    Ok(warm)
}

/// Steps (2)–(4) of a warm solve on the freshly built `tab`, counting the
/// realization and dual pivots into `dual_pivots`.
fn resolve(
    p: &Problem,
    bounds: &[(f64, f64)],
    parent: &Basis,
    tab: &mut Tab,
    dual_pivots: &mut u64,
) -> Warm {
    let total = tab.total();
    let art_start = tab.art_start();
    // The build's basis is the identity, so B⁻¹ can be read off these
    // columns.
    let initial = tab.basis.clone();
    let mut is_basic = basic_mask(&tab.basis, total);
    if !realize(tab, &parent.cols, &mut is_basic, dual_pivots) {
        return Warm::Reject(WarmReject::Singular);
    }
    let cost = phase2_cost(p, total);
    match dual_simplex(tab, &cost, &mut is_basic, dual_pivots) {
        Dual::Feasible => {}
        Dual::Stall => return Warm::Reject(WarmReject::Stall),
        Dual::Infeasible(l) => {
            let y: Vec<f64> = initial.iter().map(|&k| tab.t[l][k]).collect();
            if !farkas_holds(p, bounds, &tab.flips, &tab.ub_vars, &y) {
                return Warm::Reject(WarmReject::Certificate);
            }
            return Warm::Hit(LpSolve {
                outcome: LpOutcome::Infeasible,
                basis: None,
                pivots: *dual_pivots,
            });
        }
    }

    // Primal polish: the realization can leave residual negative reduced
    // costs (it only guarantees primal feasibility was just repaired);
    // phase 2 from a feasible basis finishes the job and certifies
    // optimality regardless of the dual trajectory above.
    let (st, pv) = optimize(&mut tab.t, &mut tab.basis, &cost, Some(art_start));
    if matches!(st, Pivoted::Unbounded) {
        // Bounds only shrink between related solves, so an unbounded ray
        // here signals a numerically bad basis, not a real ray.
        return Warm::Reject(WarmReject::Stall);
    }
    // Feasibility certificate: every artificial must sit at zero (phase 1
    // would have guaranteed this; the warm path has to check).
    let art_level: f64 = tab
        .basis
        .iter()
        .enumerate()
        .filter(|&(_, &b)| b >= art_start)
        .map(|(i, _)| tab.t[i][total].abs())
        .sum();
    if art_level > FEAS_TOL {
        return Warm::Reject(WarmReject::Artificial);
    }

    Warm::Hit(LpSolve {
        outcome: extract(p, bounds, tab),
        basis: Some(tab.snapshot()),
        pivots: *dual_pivots + pv,
    })
}

/// Realizes the basis `cols` on `tab`: Gaussian elimination restricted to
/// the target columns, partial pivoting over the still-unrealized rows.
/// The constraint matrix here equals the parent's initial matrix (same
/// coefficients, same orientations — only the rhs differs), for which the
/// target columns form a nonsingular basis; `false` when a near-zero pivot
/// arises numerically anyway.
fn realize(tab: &mut Tab, cols: &[usize], is_basic: &mut [bool], pivots: &mut u64) -> bool {
    let in_target = basic_mask(cols, tab.total());
    let mut row_done: Vec<bool> = tab.basis.iter().map(|&b| in_target[b]).collect();
    for &c in cols {
        if is_basic[c] {
            continue;
        }
        let mut best: Option<(usize, f64)> = None;
        for (r, &done) in row_done.iter().enumerate() {
            if done {
                continue;
            }
            let a = tab.t[r][c].abs();
            if best.is_none_or(|(_, ba)| a > ba) {
                best = Some((r, a));
            }
        }
        match best {
            Some((r, a)) if a > 1e-7 => {
                pivot(&mut tab.t, &mut tab.basis, is_basic, r, c);
                *pivots += 1;
                row_done[r] = true;
            }
            _ => return false,
        }
    }
    true
}

/// How the dual simplex ended.
enum Dual {
    /// The rhs is nonnegative: the basis is primal feasible.
    Feasible,
    /// This row has a negative rhs and no admissible negative entry.
    Infeasible(usize),
    /// `2m` pivots did not reach either verdict.
    Stall,
}

/// Repairs primal feasibility (negative rhs entries) while the realized
/// basis is (near-)dual feasible. Artificials are banned from entering —
/// a row with negative rhs and no admissible negative entry then claims
/// infeasibility, since every admissible variable is nonnegative and every
/// nonbasic artificial is zero; the caller rechecks the claim.
///
/// The leaving row is the most negative rhs for the first `m` pivots, then
/// Bland's rule (lowest basic column), lowest row index on ties; a
/// `(2m + 1)`-th pivot is a stall.
fn dual_simplex(tab: &mut Tab, cost: &[f64], is_basic: &mut [bool], pivots: &mut u64) -> Dual {
    let m = tab.t.len();
    let total = tab.total();
    let art_start = tab.art_start();
    for iters in 0..=2 * m {
        let bland = iters >= m;
        let mut leave: Option<(usize, f64)> = None;
        for (i, row) in tab.t.iter().enumerate() {
            let r = row[total];
            if r < -EPS
                && leave.is_none_or(|(li, lr)| {
                    if bland {
                        tab.basis[i] < tab.basis[li]
                    } else {
                        r < lr
                    }
                })
            {
                leave = Some((i, r));
            }
        }
        let Some((l, _)) = leave else {
            return Dual::Feasible;
        };
        if iters == 2 * m {
            break;
        }
        // Entering column: dual ratio test over admissible columns with a
        // negative entry in the leaving row; lowest index on ties.
        let cb: Vec<f64> = tab.basis.iter().map(|&b| cost[b]).collect();
        let mut entering: Option<(usize, f64)> = None;
        for j in 0..art_start {
            if is_basic[j] {
                continue;
            }
            let a = tab.t[l][j];
            if a < -EPS {
                let mut rc = cost[j];
                for (c, row) in cb.iter().zip(&tab.t) {
                    // exact-zero skip; lint: allow(float-eq)
                    if *c != 0.0 {
                        rc -= c * row[j];
                    }
                }
                let ratio = rc / (-a);
                let better = match entering {
                    None => true,
                    Some((ej, er)) => ratio < er - EPS || (ratio < er + EPS && j < ej),
                };
                if better {
                    entering = Some((j, ratio));
                }
            }
        }
        let Some((e, _)) = entering else {
            return Dual::Infeasible(l);
        };
        pivot(&mut tab.t, &mut tab.basis, is_basic, l, e);
        *pivots += 1;
    }
    Dual::Stall
}

/// Checks a Farkas certificate of infeasibility for `p` under `bounds`.
///
/// `y` holds one multiplier per tableau row (the constraints, then the
/// upper-bound rows of `ub_vars`), in the orientations `flips`. Folded
/// back onto the rows as written, the multipliers are kept nonnegative on
/// `<=` rows and nonpositive on `>=` rows; a row whose weighted size
/// (multiplier times summed coefficient and rhs magnitudes) is below
/// [`EPS`] of the total is rounding noise and drops out. The remaining
/// combination of the rows must be nonnegative on every
/// (lower-bound-shifted, hence nonnegative) structural variable, and its
/// right-hand side, with the largest multiplier at one, negative by more
/// than the feasibility tolerance: then no point satisfies every row.
/// Everything is recomputed from the sparse rows, and each sum is compared
/// against [`CERT_TOL`] times its summed term magnitudes, so neither the
/// tableau's drift nor the rows' scaling can pass a false certificate.
fn farkas_holds(
    p: &Problem,
    bounds: &[(f64, f64)],
    flips: &[bool],
    ub_vars: &[usize],
    y: &[f64],
) -> bool {
    if y.len() != flips.len() {
        return false;
    }
    // The rows as written, with the rhs shifted to x = lo + x'.
    type Row = (Cmp, Vec<(usize, f64)>, f64);
    let rows: Vec<Row> = p
        .constraints
        .iter()
        .map(|c| {
            let terms: Vec<(usize, f64)> = c.expr.iter().map(|(v, k)| (v.index(), k)).collect();
            (c.cmp, terms, c.rhs - c.expr.offset())
        })
        .chain(
            ub_vars
                .iter()
                .map(|&v| (Cmp::Le, vec![(v, 1.0)], bounds[v].1)),
        )
        .map(|(cmp, terms, rhs)| {
            let b = terms.iter().fold(rhs, |b, &(v, k)| b - k * bounds[v].0);
            (cmp, terms, b)
        })
        .collect();
    let u: Vec<f64> = rows
        .iter()
        .zip(y.iter().zip(flips))
        .map(|((cmp, _, _), (&yi, &flip))| {
            let u = if flip { -yi } else { yi };
            match cmp {
                Cmp::Le => u.max(0.0),
                Cmp::Ge => u.min(0.0),
                Cmp::Eq => u,
            }
        })
        .collect();
    let weight: Vec<f64> = rows
        .iter()
        .zip(&u)
        .map(|((_, terms, b), ui)| ui.abs() * terms.iter().fold(b.abs(), |s, &(_, k)| s + k.abs()))
        .collect();
    let total: f64 = weight.iter().sum();
    if !(total > 0.0 && total.is_finite()) {
        return false;
    }
    let kept = |i: &usize| weight[*i] > EPS * total;
    let scale = (0..rows.len())
        .filter(kept)
        .fold(0.0_f64, |a, i| a.max(u[i].abs()));
    let (mut col, mut col_mag) = (vec![0.0; p.num_vars()], vec![0.0; p.num_vars()]);
    let (mut rhs, mut rhs_mag) = (0.0, 0.0);
    for i in (0..rows.len()).filter(kept) {
        let (_, terms, b) = &rows[i];
        let ui = u[i] / scale;
        for &(v, k) in terms {
            col[v] += ui * k;
            col_mag[v] += (ui * k).abs();
        }
        rhs += ui * b;
        rhs_mag += (ui * b).abs();
    }
    col.iter()
        .zip(&col_mag)
        .all(|(&a, &mag)| a >= -CERT_TOL * mag)
        && rhs < -(FEAS_TOL + CERT_TOL * rhs_mag)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::problem::{Cmp, Problem, Sense};
    use crate::simplex::solve_lp;
    use faultsim::rng::{check, SplitMix64};

    fn knapsackish() -> (Problem, Vec<(f64, f64)>) {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..6).map(|i| p.add_binary(format!("v{i}"))).collect();
        let mut obj = LinExpr::new();
        let mut cons = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj.add_term(v, ((i * 3) % 7 + 1) as f64);
            cons.add_term(v, ((i * 5) % 9 + 1) as f64);
        }
        p.set_objective(obj);
        p.add_constraint(cons, Cmp::Le, 9.0);
        let bounds = vec![(0.0, 1.0); 6];
        (p, bounds)
    }

    #[test]
    fn warm_solve_matches_cold_on_tightened_bounds() {
        let (p, bounds) = knapsackish();
        let root = solve_lp(&p, &bounds).expect("valid");
        let basis = root.basis.expect("optimal");
        // Tighten one variable's bounds (a branch step) and compare.
        for (var, lo, hi) in [(0, 0.0, 0.0), (0, 1.0, 1.0), (3, 1.0, 1.0)] {
            let mut child = bounds.clone();
            child[var] = (lo, hi);
            let cold = solve_lp(&p, &child).expect("valid").outcome;
            match solve_lp_warm(&p, &child, &basis).expect("valid") {
                Warm::Hit(ls) => match (ls.outcome, cold) {
                    (
                        LpOutcome::Optimal { objective: a, .. },
                        LpOutcome::Optimal { objective: b, .. },
                    ) => {
                        assert!((a - b).abs() < 1e-7, "var {var}: warm {a} vs cold {b}");
                    }
                    (w, c) => assert_eq!(w, c, "var {var}"),
                },
                Warm::Reject(r) => panic!("unexpected rejection {r:?} for var {var}"),
            }
        }
    }

    #[test]
    fn warm_solve_detects_child_infeasibility() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.set_objective(LinExpr::terms(&[(a, 2.0), (b, 3.0)]));
        p.add_constraint(LinExpr::terms(&[(a, 1.0), (b, 1.0)]), Cmp::Ge, 1.0);
        let bounds = vec![(0.0, 1.0), (0.0, 1.0)];
        let root = solve_lp(&p, &bounds).expect("valid");
        let basis = root.basis.expect("optimal");
        // Force both to zero: violates a + b >= 1.
        let child = vec![(0.0, 0.0), (0.0, 0.0)];
        match solve_lp_warm(&p, &child, &basis).expect("valid") {
            Warm::Hit(ls) => assert_eq!(ls.outcome, LpOutcome::Infeasible),
            Warm::Reject(r) => panic!("unexpected rejection {r:?}"),
        }
    }

    #[test]
    fn shape_drift_is_a_typed_rejection() {
        let (p, bounds) = knapsackish();
        let basis = solve_lp(&p, &bounds)
            .expect("valid")
            .basis
            .expect("optimal");
        // A different problem (one more variable) cannot use this basis.
        let mut q = Problem::new(Sense::Maximize);
        let xs: Vec<_> = (0..7).map(|i| q.add_binary(format!("w{i}"))).collect();
        q.set_objective(LinExpr::terms(
            &xs.iter().map(|&v| (v, 1.0)).collect::<Vec<_>>(),
        ));
        let qb = vec![(0.0, 1.0); 7];
        match solve_lp_warm(&q, &qb, &basis).expect("valid") {
            Warm::Reject(WarmReject::Shape) => {}
            other => panic!(
                "expected shape rejection, got {:?}",
                match other {
                    Warm::Hit(_) => "hit",
                    Warm::Reject(_) => "other reject",
                }
            ),
        }
    }

    #[test]
    fn rhs_perturbation_reuses_the_basis() {
        // The "next sweep cell" case: same matrix, perturbed rhs via bounds.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, 50.0);
        let y = p.add_continuous("y", 0.0, 50.0);
        p.set_objective(LinExpr::terms(&[(x, 3.0), (y, 2.0)]));
        p.add_constraint(LinExpr::terms(&[(x, 2.0), (y, 1.0)]), Cmp::Ge, 7.0);
        p.add_constraint(LinExpr::terms(&[(x, 1.0), (y, 3.0)]), Cmp::Ge, 9.0);
        let bounds = vec![(0.0, 50.0), (0.0, 50.0)];
        let mut basis = solve_lp(&p, &bounds)
            .expect("valid")
            .basis
            .expect("optimal");
        for step in 1..=4 {
            let f = f64::from(step);
            let child = vec![(f, 50.0), (0.0, 50.0)]; // push x's lower bound up
            let cold = solve_lp(&p, &child).expect("valid").outcome;
            match solve_lp_warm(&p, &child, &basis).expect("valid") {
                Warm::Hit(ls) => {
                    match (&ls.outcome, &cold) {
                        (
                            LpOutcome::Optimal { objective: a, .. },
                            LpOutcome::Optimal { objective: b, .. },
                        ) => assert!((a - b).abs() < 1e-7, "step {step}: {a} vs {b}"),
                        (w, c) => assert_eq!(w, c, "step {step}"),
                    }
                    if let Some(b) = ls.basis {
                        basis = b; // chain: each cell warms the next
                    }
                }
                Warm::Reject(r) => panic!("step {step}: unexpected rejection {r:?}"),
            }
        }
    }

    /// The tableau of a warm solve of `child` from `basis`, realized, plus
    /// the build's initial basis (the columns B⁻¹ is read off).
    fn realized(p: &Problem, child: &[(f64, f64)], basis: &Basis) -> (Tab, Vec<usize>, Vec<bool>) {
        let Ok(Build::Ready(mut tab)) = build_tableau(p, child, Some(&basis.flips)) else {
            panic!("child bounds are not a tableau");
        };
        let initial = tab.basis.clone();
        let mut is_basic = basic_mask(&tab.basis, tab.total());
        assert!(realize(&mut tab, &basis.cols, &mut is_basic, &mut 0));
        (tab, initial, is_basic)
    }

    fn multipliers(tab: &Tab, initial: &[usize], row: usize) -> Vec<f64> {
        initial.iter().map(|&k| tab.t[row][k]).collect()
    }

    #[test]
    fn farkas_check_accepts_true_certificates_only() {
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.set_objective(LinExpr::terms(&[(a, 2.0), (b, 3.0)]));
        p.add_constraint(LinExpr::terms(&[(a, 1.0), (b, 4.0)]), Cmp::Ge, 2.0);
        let root = vec![(0.0, 1.0), (0.0, 1.0)];
        let basis = solve_lp(&p, &root).expect("valid").basis.expect("optimal");

        // b = 0 leaves a + 4b >= 2 out of reach of a <= 1.
        let infeasible = vec![(0.0, 1.0), (0.0, 0.0)];
        let (mut tab, initial, mut is_basic) = realized(&p, &infeasible, &basis);
        let cost = phase2_cost(&p, tab.total());
        let Dual::Infeasible(l) = dual_simplex(&mut tab, &cost, &mut is_basic, &mut 0) else {
            panic!("the dual simplex must find the infeasible row");
        };
        let y = multipliers(&tab, &initial, l);
        let holds = |bounds: &[(f64, f64)], y: &[f64]| {
            farkas_holds(&p, bounds, &tab.flips, &tab.ub_vars, y)
        };
        assert!(holds(&infeasible, &y), "true certificate {y:?} rejected");
        // Every multiplier carries weight: halving or negating any one
        // breaks the certificate.
        for i in (0..y.len()).filter(|&i| y[i].abs() > EPS) {
            for k in [0.5, -1.0] {
                let mut bad = y.clone();
                bad[i] *= k;
                assert!(!holds(&infeasible, &bad), "y[{i}] * {k} accepted: {bad:?}");
            }
        }

        // A feasible child has no certificate: neither the infeasible
        // child's multipliers nor any row of its own realized tableau.
        let feasible = vec![(1.0, 1.0), (0.0, 1.0)];
        assert!(!holds(&feasible, &y));
        let (tab, initial, _) = realized(&p, &feasible, &basis);
        for row in 0..tab.t.len() {
            let y = multipliers(&tab, &initial, row);
            assert!(
                !holds(&feasible, &y),
                "row {row}: {y:?} accepted on a feasible child"
            );
        }
    }

    /// A random LP around a planted point `x0`, so the root is feasible:
    /// 3–8 rows of 2–5 small integer coefficients, each row scaled by its
    /// own factor between 1e-2 and 1e8 (as the segmentation model's CTC
    /// rows once were against its unit rows). About half the rows are
    /// tight at `x0`, which often sits at a bound, so optima are
    /// degenerate; some rows are duplicated at another scale; about half
    /// the columns are cost-free. Costs are nonnegative, so the LP is
    /// bounded.
    fn badly_scaled_lp(rng: &mut SplitMix64) -> (Problem, Vec<(f64, f64)>) {
        let mut p = Problem::new(Sense::Minimize);
        let n = 4 + rng.below(6);
        let mut bounds = Vec::with_capacity(n);
        let mut x0 = Vec::with_capacity(n);
        let mut obj = LinExpr::new();
        for j in 0..n {
            let hi = [1.0, 10.0, 100.0, f64::INFINITY][rng.below(4)];
            let v = p.add_continuous(format!("x{j}"), 0.0, hi);
            let span = hi.min(10.0);
            x0.push(match rng.below(4) {
                0 => 0.0,
                1 => span,
                _ => span * rng.next_f64(),
            });
            bounds.push((0.0, hi));
            if rng.chance(0.5) {
                obj.add_term(v, (1 + rng.below(9)) as f64);
            }
        }
        if obj.is_empty() {
            obj.add_term(crate::VarId(0), 1.0);
        }
        p.set_objective(obj);
        let scale = |rng: &mut SplitMix64| 10f64.powf(10.0 * rng.next_f64() - 2.0);
        for _ in 0..3 + rng.below(6) {
            let mut e = LinExpr::new();
            for _ in 0..2 + rng.below(4) {
                let k = (1 + rng.below(9)) as f64;
                e.add_term(
                    crate::VarId(rng.below(n)),
                    if rng.chance(0.5) { k } else { -k },
                );
            }
            let at = e.eval(&x0);
            let slack = if rng.chance(0.5) {
                0.0
            } else {
                1.0 + rng.next_f64()
            };
            let (cmp, rhs) = match rng.below(5) {
                0 | 1 => (Cmp::Le, at + slack),
                2 | 3 => (Cmp::Ge, at - slack),
                _ => (Cmp::Eq, at),
            };
            if rng.chance(0.25) {
                let k = scale(rng);
                p.add_constraint(e.clone() * k, cmp, rhs * k);
            }
            let k = scale(rng);
            p.add_constraint(e * k, cmp, rhs * k);
        }
        (p, bounds)
    }

    /// `p` with every row divided by its largest coefficient: the same
    /// feasible set, stated at unit scale.
    fn equilibrated(p: &Problem) -> Problem {
        let mut q = p.clone();
        for c in &mut q.constraints {
            let s = c.expr.iter().fold(0.0_f64, |a, (_, k)| a.max(k.abs()));
            if s > 0.0 {
                c.expr = c.expr.clone() * s.recip();
                c.rhs /= s;
            }
        }
        q
    }

    #[test]
    fn warm_verdicts_agree_with_cold_on_degenerate_badly_scaled_lps() {
        // Children cut one variable above or below its root value, and
        // grandchildren cut a second one from the child's basis. Every
        // warm verdict (optimal or infeasible) must match the cold one,
        // and no dual phase may run out of its 2m pivots. The cold verdict
        // comes from the row-equilibrated problem: on the raw rows the
        // cold solve itself can lose a unit-scale row under 1e8-scale
        // ones (stream 0xc947_0449_3c79_5060 calls an infeasible child
        // optimal at a point that misses a row by 3e3). Objectives are not
        // compared: the dense tableau's absolute tolerances let either
        // solve stop at a vertex that is optimal only to within them.
        let (mut optimal, mut infeasible) = (0, 0);
        check(0x3a2f_0017, 48, |rng| {
            let (p, root) = badly_scaled_lp(rng);
            let unit = equilibrated(&p);
            let Ok(LpSolve {
                outcome: LpOutcome::Optimal { values, .. },
                basis: Some(basis),
                ..
            }) = solve_lp(&p, &root)
            else {
                return false;
            };
            let cut = |bounds: &[(f64, f64)], j: usize, x: f64, up: bool| {
                let mut child = bounds.to_vec();
                let (lo, hi) = child[j];
                child[j] = if up {
                    ((x + hi.min(x + 20.0)) / 2.0 + 0.5, hi)
                } else {
                    (lo, (lo + x) / 2.0 - 0.25)
                };
                child
            };
            let mut agree = |child: &[(f64, f64)], from: &Basis| -> Option<Basis> {
                if child.iter().any(|&(lo, hi)| hi < lo) {
                    return None;
                }
                let cold = solve_lp(&unit, child).expect("valid").outcome;
                match solve_lp_warm(&p, child, from).expect("valid") {
                    Warm::Hit(ls) => {
                        match (&ls.outcome, &cold) {
                            (LpOutcome::Optimal { .. }, LpOutcome::Optimal { .. }) => optimal += 1,
                            (LpOutcome::Infeasible, LpOutcome::Infeasible) => infeasible += 1,
                            (w, c) => panic!("warm verdict {w:?} vs cold {c:?}"),
                        }
                        ls.basis
                    }
                    Warm::Reject(WarmReject::Stall) => panic!("dual phase ran past 2m pivots"),
                    Warm::Reject(_) => None,
                }
            };
            for j in 0..values.len() {
                for up in [false, true] {
                    let child = cut(&root, j, values[j], up);
                    let Some(child_basis) = agree(&child, &basis) else {
                        continue;
                    };
                    let k = (j + 1) % values.len();
                    agree(&cut(&child, k, values[k], !up), &child_basis);
                }
            }
            true
        });
        assert!(
            optimal > 0 && infeasible > 0,
            "optimal {optimal}, infeasible {infeasible}"
        );
    }
}
