//! Dense two-phase primal simplex over the standard form.
//!
//! The LP relaxation solver behind branch & bound. Variables are shifted by
//! their (finite) lower bounds to non-negativity; finite upper bounds become
//! explicit rows; `>=`/`==` rows receive artificial variables driven out in
//! phase 1. Dantzig pricing with a permanent switch to Bland's rule after a
//! stall guarantees termination.
//!
//! Every optimal solve also snapshots its final [`Basis`] (basic column per
//! row plus the tableau layout), which [`crate::warmstart`] uses to re-solve
//! a bounds-perturbed sibling problem with the dual simplex instead of a
//! cold two-phase run.

use crate::problem::{Cmp, MipError, Problem, Sense};

/// Outcome of an LP relaxation solve.
#[derive(Debug, Clone, PartialEq)]
pub enum LpOutcome {
    /// Optimal basic solution found.
    Optimal {
        /// Objective in the problem's original sense.
        objective: f64,
        /// Value of every structural variable.
        values: Vec<f64>,
    },
    /// No feasible point exists.
    Infeasible,
    /// The objective is unbounded in the optimization direction.
    Unbounded,
}

pub(crate) const EPS: f64 = 1e-9;
pub(crate) const FEAS_TOL: f64 = 1e-7;

/// A simplex basis snapshot: the basic column of every tableau row plus the
/// layout data (row orientations, column-block sizes, which variables
/// contributed upper-bound rows) needed to rebuild an identically-shaped
/// tableau for a related problem. Opaque to callers; produced by an optimal
/// LP solve and consumed by the dual-simplex warm start.
#[derive(Debug, Clone)]
pub struct Basis {
    /// Basic column index per row.
    pub(crate) cols: Vec<usize>,
    /// Row orientation chosen at build time (`true` = the row was negated).
    pub(crate) flips: Vec<bool>,
    /// Structural variable count.
    pub(crate) n: usize,
    /// Slack/surplus column count.
    pub(crate) n_slack: usize,
    /// Artificial column count.
    pub(crate) n_art: usize,
    /// Variables that contributed a finite-upper-bound row, in row order.
    pub(crate) ub_vars: Vec<usize>,
}

/// An LP solve result: outcome plus the optimal basis (for warm-starting
/// related solves) and the pivot count (for stats).
#[derive(Debug)]
pub(crate) struct LpSolve {
    pub outcome: LpOutcome,
    pub basis: Option<Basis>,
    pub pivots: u64,
}

/// The dense tableau plus its column layout. `t` is `m x (total + 1)` with
/// the rhs in the last column; columns are structurals, then slacks, then
/// artificials.
pub(crate) struct Tab {
    pub t: Vec<Vec<f64>>,
    pub basis: Vec<usize>,
    pub n: usize,
    pub n_slack: usize,
    pub n_art: usize,
    pub flips: Vec<bool>,
    pub ub_vars: Vec<usize>,
}

impl Tab {
    pub fn art_start(&self) -> usize {
        self.n + self.n_slack
    }
    pub fn total(&self) -> usize {
        self.n + self.n_slack + self.n_art
    }
    /// Snapshot of the current basis together with the build layout.
    pub fn snapshot(&self) -> Basis {
        Basis {
            cols: self.basis.clone(),
            flips: self.flips.clone(),
            n: self.n,
            n_slack: self.n_slack,
            n_art: self.n_art,
            ub_vars: self.ub_vars.clone(),
        }
    }
}

pub(crate) enum Build {
    Ready(Tab),
    /// A bounds pair with `hi < lo`: trivially infeasible, no tableau.
    Infeasible,
}

/// Builds the initial tableau for `p` under `bounds`.
///
/// With `forced_flips = None` rows are normalized to `rhs >= 0` (the cold
/// path: phase 1 needs a feasible starting basis) and the chosen
/// orientations are recorded. With `forced_flips = Some(..)` the given
/// orientations are applied verbatim so the column layout matches the solve
/// that produced them — rhs entries may then be negative, which is exactly
/// what the dual simplex expects.
pub(crate) fn build_tableau(
    p: &Problem,
    bounds: &[(f64, f64)],
    forced_flips: Option<&[bool]>,
) -> Result<Build, MipError> {
    debug_assert_eq!(bounds.len(), p.num_vars());
    let n = p.num_vars();

    for (i, &(lo, hi)) in bounds.iter().enumerate() {
        if !lo.is_finite() {
            return Err(MipError::UnboundedBelow {
                name: p.vars[i].name.clone(),
            });
        }
        if hi < lo - EPS {
            return Ok(Build::Infeasible);
        }
    }

    // Rows in `(coeffs over shifted structurals, cmp, rhs)` form.
    struct Row {
        coef: Vec<f64>,
        cmp: Cmp,
        rhs: f64,
    }
    let mut rows: Vec<Row> = Vec::with_capacity(p.constraints.len() + n);
    for c in &p.constraints {
        let mut coef = vec![0.0; n];
        let mut rhs = c.rhs - c.expr.offset();
        for (v, k) in c.expr.iter() {
            coef[v.index()] += k;
            rhs -= k * bounds[v.index()].0; // shift x = lo + x'
        }
        rows.push(Row {
            coef,
            cmp: c.cmp,
            rhs,
        });
    }
    // Finite upper bounds as x' <= hi - lo rows (the shifted var is
    // otherwise free upward).
    let mut ub_vars = Vec::new();
    for (i, &(lo, hi)) in bounds.iter().enumerate() {
        if hi.is_finite() {
            let mut coef = vec![0.0; n];
            coef[i] = 1.0;
            ub_vars.push(i);
            rows.push(Row {
                coef,
                cmp: Cmp::Le,
                rhs: hi - lo,
            });
        }
    }

    // Orient rows: cold solves normalize to rhs >= 0 (and record the
    // choice); warm solves replay the parent's orientations.
    let mut flips = vec![false; rows.len()];
    for (ri, r) in rows.iter_mut().enumerate() {
        let flip = match forced_flips {
            Some(f) => f.get(ri).copied().unwrap_or(false),
            None => r.rhs < 0.0,
        };
        if flip {
            for k in &mut r.coef {
                *k = -*k;
            }
            r.rhs = -r.rhs;
            r.cmp = match r.cmp {
                Cmp::Le => Cmp::Ge,
                Cmp::Ge => Cmp::Le,
                Cmp::Eq => Cmp::Eq,
            };
            flips[ri] = true;
        }
    }

    let m = rows.len();
    let n_slack = rows
        .iter()
        .filter(|r| matches!(r.cmp, Cmp::Le | Cmp::Ge))
        .count();
    let n_art = rows
        .iter()
        .filter(|r| matches!(r.cmp, Cmp::Ge | Cmp::Eq))
        .count();
    let total = n + n_slack + n_art;

    let mut t = vec![vec![0.0; total + 1]; m];
    let mut basis = vec![0usize; m];
    let art_start = n + n_slack;
    let mut slack_i = 0;
    let mut art_i = 0;
    for (i, r) in rows.iter().enumerate() {
        t[i][..n].copy_from_slice(&r.coef);
        t[i][total] = r.rhs;
        match r.cmp {
            Cmp::Le => {
                t[i][n + slack_i] = 1.0;
                basis[i] = n + slack_i;
                slack_i += 1;
            }
            Cmp::Ge => {
                t[i][n + slack_i] = -1.0;
                slack_i += 1;
                t[i][art_start + art_i] = 1.0;
                basis[i] = art_start + art_i;
                art_i += 1;
            }
            Cmp::Eq => {
                t[i][art_start + art_i] = 1.0;
                basis[i] = art_start + art_i;
                art_i += 1;
            }
        }
    }

    Ok(Build::Ready(Tab {
        t,
        basis,
        n,
        n_slack,
        n_art,
        flips,
        ub_vars,
    }))
}

/// The sense-adjusted phase-2 cost vector (internal minimize form).
pub(crate) fn phase2_cost(p: &Problem, total: usize) -> Vec<f64> {
    let sign = match p.sense {
        Sense::Minimize => 1.0,
        Sense::Maximize => -1.0,
    };
    let mut cost = vec![0.0; total];
    for (v, k) in p.objective.iter() {
        cost[v.index()] += sign * k;
    }
    cost
}

/// Extracts the structural solution from an optimal tableau (undoing the
/// lower-bound shift) and evaluates the objective in the original sense.
pub(crate) fn extract(p: &Problem, bounds: &[(f64, f64)], tab: &Tab) -> LpOutcome {
    let total = tab.total();
    let mut values: Vec<f64> = bounds.iter().map(|&(lo, _)| lo).collect();
    for (i, &b) in tab.basis.iter().enumerate() {
        if b < tab.n {
            values[b] = bounds[b].0 + tab.t[i][total];
        }
    }
    let objective = p.objective.eval(&values);
    LpOutcome::Optimal { objective, values }
}

/// Solves the LP relaxation of `p` with variable bounds overridden by
/// `bounds` (one `(lo, hi)` pair per variable), cold: two-phase from the
/// all-slack basis.
pub(crate) fn solve_lp(p: &Problem, bounds: &[(f64, f64)]) -> Result<LpSolve, MipError> {
    obs::add("mip.simplex.solves", 1);
    let mut tab = match build_tableau(p, bounds, None)? {
        Build::Ready(t) => t,
        Build::Infeasible => {
            return Ok(LpSolve {
                outcome: LpOutcome::Infeasible,
                basis: None,
                pivots: 0,
            })
        }
    };
    let m = tab.t.len();
    let total = tab.total();
    let art_start = tab.art_start();
    let mut pivots = 0u64;

    // Phase 1: minimize the sum of artificials.
    if tab.n_art > 0 {
        let mut cost = vec![0.0; total];
        for j in art_start..total {
            cost[j] = 1.0;
        }
        let (st, pv) = optimize(&mut tab.t, &mut tab.basis, &cost, None);
        pivots += pv;
        match st {
            Pivoted::Optimal => {}
            Pivoted::Unbounded => {
                // Cannot happen: phase-1 is bounded below by 0.
                return Ok(LpSolve {
                    outcome: LpOutcome::Infeasible,
                    basis: None,
                    pivots,
                });
            }
        }
        let phase1: f64 = tab
            .basis
            .iter()
            .enumerate()
            .filter(|&(_, &b)| b >= art_start)
            .map(|(i, _)| tab.t[i][total])
            .sum();
        if phase1 > FEAS_TOL {
            return Ok(LpSolve {
                outcome: LpOutcome::Infeasible,
                basis: None,
                pivots,
            });
        }
        // Drive zero-level artificials out of the basis where possible.
        let mut is_basic = basic_mask(&tab.basis, total);
        for i in 0..m {
            if tab.basis[i] >= art_start {
                if let Some(j) = (0..art_start).find(|&j| tab.t[i][j].abs() > 1e-7) {
                    pivot(&mut tab.t, &mut tab.basis, &mut is_basic, i, j);
                    pivots += 1;
                }
            }
        }
    }

    // Phase 2: minimize the (sense-adjusted) structural objective.
    // Artificial columns are banned from entering.
    let cost = phase2_cost(p, total);
    let (st, pv) = optimize(&mut tab.t, &mut tab.basis, &cost, Some(art_start));
    pivots += pv;
    match st {
        Pivoted::Optimal => {}
        Pivoted::Unbounded => {
            return Ok(LpSolve {
                outcome: LpOutcome::Unbounded,
                basis: None,
                pivots,
            })
        }
    }

    let outcome = extract(p, bounds, &tab);
    Ok(LpSolve {
        outcome,
        basis: Some(tab.snapshot()),
        pivots,
    })
}

pub(crate) enum Pivoted {
    Optimal,
    Unbounded,
}

/// Runs the primal simplex on an already-canonical feasible tableau.
/// `banned_from` excludes columns `>= banned_from` from entering (used to
/// freeze artificials in phase 2). Returns the status and pivot count.
pub(crate) fn optimize(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    cost: &[f64],
    banned_from: Option<usize>,
) -> (Pivoted, u64) {
    let m = t.len();
    let total = cost.len();
    let rhs_col = total;
    let enter_limit = banned_from.unwrap_or(total);
    // Dantzig pricing, switching permanently to Bland's rule after a stall
    // budget to guarantee termination on degenerate problems.
    let stall_budget = 50 * (m + total);
    let mut is_basic = basic_mask(basis, total);
    let mut iters = 0usize;
    loop {
        iters += 1;
        let bland = iters > stall_budget;
        // Reduced costs r_j = c_j - sum_i c_B[i] * t[i][j].
        let cb: Vec<f64> = basis.iter().map(|&b| cost[b]).collect();
        let mut entering: Option<(usize, f64)> = None;
        for j in 0..enter_limit {
            if is_basic[j] {
                continue;
            }
            let mut r = cost[j];
            for i in 0..m {
                // exact-zero skip: a basic cost of literal 0.0 contributes
                // nothing; lint: allow(float-eq)
                if cb[i] != 0.0 {
                    r -= cb[i] * t[i][j];
                }
            }
            if r < -1e-9 {
                match (bland, entering) {
                    (true, _) => {
                        entering = Some((j, r));
                        break; // Bland: first eligible column
                    }
                    (false, Some((_, best))) if r >= best => {}
                    (false, _) => entering = Some((j, r)),
                }
            }
        }
        let done = u64::try_from(iters - 1).unwrap_or(u64::MAX);
        let Some((e, _)) = entering else {
            obs::add("mip.simplex.pivots", done);
            return (Pivoted::Optimal, done);
        };
        // Ratio test.
        let mut leave: Option<(usize, f64)> = None;
        for i in 0..m {
            if t[i][e] > EPS {
                let ratio = t[i][rhs_col] / t[i][e];
                let better = match leave {
                    None => true,
                    Some((li, lr)) => {
                        ratio < lr - EPS || (ratio < lr + EPS && basis[i] < basis[li])
                    }
                };
                if better {
                    leave = Some((i, ratio));
                }
            }
        }
        let Some((l, _)) = leave else {
            obs::add("mip.simplex.pivots", done);
            return (Pivoted::Unbounded, done);
        };
        pivot(t, basis, &mut is_basic, l, e);
    }
}

/// Marks the columns of `basis` among `total` columns, so pricing skips
/// basic columns in O(1) instead of searching the basis.
pub(crate) fn basic_mask(basis: &[usize], total: usize) -> Vec<bool> {
    let mut mask = vec![false; total];
    for &b in basis {
        mask[b] = true;
    }
    mask
}

/// Pivots on `(row, col)`: normalizes the pivot row, eliminates the
/// column from every other row, and moves `col` into the basis (and its
/// `is_basic` mask) in place of the row's old basic column.
///
/// Elimination runs over the pivot row's nonzeros only: subtracting
/// `factor * 0.0` leaves every entry's value unchanged, so the tableau is
/// the one a full sweep computes.
pub(crate) fn pivot(
    t: &mut [Vec<f64>],
    basis: &mut [usize],
    is_basic: &mut [bool],
    row: usize,
    col: usize,
) {
    let piv = t[row][col];
    debug_assert!(piv.abs() > EPS, "pivot on a (near-)zero element");
    for x in &mut t[row] {
        *x /= piv;
    }
    let nonzeros: Vec<(usize, f64)> = t[row]
        .iter()
        .enumerate()
        .filter(|&(_, &v)| v != 0.0) // exact-zero skip; lint: allow(float-eq)
        .map(|(j, &v)| (j, v))
        .collect();
    for (i, r) in t.iter_mut().enumerate() {
        let factor = r[col];
        // exact-zero skip; lint: allow(float-eq)
        if i != row && factor != 0.0 {
            for &(j, v) in &nonzeros {
                r[j] -= factor * v;
            }
        }
    }
    is_basic[basis[row]] = false;
    is_basic[col] = true;
    basis[row] = col;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::problem::{Cmp, Problem, Sense};

    fn lp(p: &Problem) -> LpOutcome {
        let bounds: Vec<(f64, f64)> = (0..p.num_vars())
            .map(|i| p.var_bounds(crate::VarId(i)))
            .collect();
        solve_lp(p, &bounds).expect("valid problem").outcome
    }

    #[test]
    fn textbook_maximize() {
        // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 -> 36 at (2, 6).
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, f64::INFINITY);
        let y = p.add_continuous("y", 0.0, f64::INFINITY);
        p.set_objective(LinExpr::terms(&[(x, 3.0), (y, 5.0)]));
        p.add_constraint(LinExpr::from(x), Cmp::Le, 4.0);
        p.add_constraint(LinExpr::from(y) * 2.0, Cmp::Le, 12.0);
        p.add_constraint(LinExpr::terms(&[(x, 3.0), (y, 2.0)]), Cmp::Le, 18.0);
        match lp(&p) {
            LpOutcome::Optimal { objective, values } => {
                assert!((objective - 36.0).abs() < 1e-6);
                assert!((values[0] - 2.0).abs() < 1e-6);
                assert!((values[1] - 6.0).abs() < 1e-6);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn minimize_with_ge_constraints() {
        // min 2x + 3y s.t. x + y >= 10, x >= 2 -> 2*10? optimum x=10,y=0: 20.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, f64::INFINITY);
        let y = p.add_continuous("y", 0.0, f64::INFINITY);
        p.set_objective(LinExpr::terms(&[(x, 2.0), (y, 3.0)]));
        p.add_constraint(LinExpr::terms(&[(x, 1.0), (y, 1.0)]), Cmp::Ge, 10.0);
        p.add_constraint(LinExpr::from(x), Cmp::Ge, 2.0);
        match lp(&p) {
            LpOutcome::Optimal { objective, .. } => assert!((objective - 20.0).abs() < 1e-6),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn equality_constraints() {
        // min x + y s.t. x + 2y == 4, x - y == 1 -> x=2, y=1, obj 3.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, f64::INFINITY);
        let y = p.add_continuous("y", 0.0, f64::INFINITY);
        p.set_objective(LinExpr::terms(&[(x, 1.0), (y, 1.0)]));
        p.add_constraint(LinExpr::terms(&[(x, 1.0), (y, 2.0)]), Cmp::Eq, 4.0);
        p.add_constraint(LinExpr::terms(&[(x, 1.0), (y, -1.0)]), Cmp::Eq, 1.0);
        match lp(&p) {
            LpOutcome::Optimal { objective, values } => {
                assert!((objective - 3.0).abs() < 1e-6);
                assert!((values[0] - 2.0).abs() < 1e-6);
                assert!((values[1] - 1.0).abs() < 1e-6);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn detects_infeasible() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, 1.0);
        p.add_constraint(LinExpr::from(x), Cmp::Ge, 5.0);
        assert_eq!(lp(&p), LpOutcome::Infeasible);
    }

    #[test]
    fn detects_unbounded() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, f64::INFINITY);
        p.set_objective(LinExpr::from(x));
        assert_eq!(lp(&p), LpOutcome::Unbounded);
    }

    #[test]
    fn respects_shifted_lower_bounds() {
        // min x with x in [3, 10] -> 3.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 3.0, 10.0);
        p.set_objective(LinExpr::from(x));
        match lp(&p) {
            LpOutcome::Optimal { objective, values } => {
                assert!((objective - 3.0).abs() < 1e-9);
                assert!((values[0] - 3.0).abs() < 1e-9);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn negative_lower_bounds_work() {
        // max x + y, x in [-5, -1], y in [-2, 3], x + y <= 0 -> x=-1, y=1? no:
        // max at y=3 gives x+y = 2 > 0, so binding x+y=0 with y=3, x=-3: obj 0.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", -5.0, -1.0);
        let y = p.add_continuous("y", -2.0, 3.0);
        p.set_objective(LinExpr::terms(&[(x, 1.0), (y, 1.0)]));
        p.add_constraint(LinExpr::terms(&[(x, 1.0), (y, 1.0)]), Cmp::Le, 0.0);
        match lp(&p) {
            LpOutcome::Optimal { objective, .. } => assert!(objective.abs() < 1e-6),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn fixed_variable() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 2.5, 2.5);
        let y = p.add_continuous("y", 0.0, 10.0);
        p.set_objective(LinExpr::from(y));
        p.add_constraint(LinExpr::terms(&[(x, 1.0), (y, -1.0)]), Cmp::Le, 0.0);
        match lp(&p) {
            LpOutcome::Optimal { values, .. } => {
                assert!((values[0] - 2.5).abs() < 1e-9);
                assert!((values[1] - 2.5).abs() < 1e-6);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn degenerate_problem_terminates() {
        // Classic degeneracy: several redundant constraints through the
        // optimum.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, f64::INFINITY);
        let y = p.add_continuous("y", 0.0, f64::INFINITY);
        p.set_objective(LinExpr::terms(&[(x, 1.0), (y, 1.0)]));
        p.add_constraint(LinExpr::terms(&[(x, 1.0), (y, 1.0)]), Cmp::Le, 1.0);
        p.add_constraint(LinExpr::terms(&[(x, 2.0), (y, 2.0)]), Cmp::Le, 2.0);
        p.add_constraint(LinExpr::terms(&[(x, 1.0)]), Cmp::Le, 1.0);
        match lp(&p) {
            LpOutcome::Optimal { objective, .. } => assert!((objective - 1.0).abs() < 1e-6),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn objective_constant_offset_carries_through() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 1.0, 5.0);
        p.set_objective(LinExpr::from(x) + LinExpr::constant(10.0));
        match lp(&p) {
            LpOutcome::Optimal { objective, .. } => assert!((objective - 11.0).abs() < 1e-9),
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn optimal_solve_snapshots_a_basis() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, 4.0);
        let y = p.add_continuous("y", 0.0, 6.0);
        p.set_objective(LinExpr::terms(&[(x, 3.0), (y, 5.0)]));
        p.add_constraint(LinExpr::terms(&[(x, 3.0), (y, 2.0)]), Cmp::Le, 18.0);
        let bounds = vec![(0.0, 4.0), (0.0, 6.0)];
        let ls = solve_lp(&p, &bounds).expect("valid");
        assert!(matches!(ls.outcome, LpOutcome::Optimal { .. }));
        let basis = ls.basis.expect("optimal solves carry a basis");
        // 1 constraint row + 2 upper-bound rows.
        assert_eq!(basis.cols.len(), 3);
        assert_eq!(basis.flips.len(), 3);
        assert_eq!(basis.ub_vars, vec![0, 1]);
    }
}
