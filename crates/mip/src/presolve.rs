//! Presolve: problem reductions applied before branch & bound.
//!
//! The pass iterates to a fixpoint over four reductions, all of which
//! preserve the *integer*-feasible set exactly (the LP relaxation may
//! legitimately tighten, which is the point):
//!
//! * **Bound tightening** — activity bounds of each row squeeze each
//!   variable's range; integer bounds round inward.
//! * **Row elimination** — empty rows are checked as constants; rows whose
//!   worst-case activity already satisfies them are vacuous and dropped;
//!   singleton rows become bounds and are dropped.
//! * **Variable fixing** — a variable whose range collapses is substituted
//!   into every row and the objective and removed from the problem.
//! * **Coefficient reduction** — for a `<=` row with a binary variable
//!   `a_j x_j + rest <= b`, `a_j > 0`, and `U = max(rest)` with `U < b`:
//!   replacing `(a_j, b)` by `(a_j - (b - U), U)` keeps both the `x_j = 0`
//!   branch (`rest <= U` holds by the bound definition of `U`) and the
//!   `x_j = 1` branch (`rest <= U - a_j' = b - a_j`) — same integer set,
//!   strictly tighter relaxation.
//!
//! Contradictions found on the way (crossed bounds, a row violated at its
//! best activity, a constant row that is false) are reported as the typed
//! [`PresolveResult::Infeasible`] — no simplex ever runs. If every variable
//! gets fixed the unique candidate point is checked against all remaining
//! rows and returned as [`PresolveResult::FixedAll`].
//!
//! Otherwise the surviving rows and variables are repacked into a smaller
//! [`Problem`] and a postsolve map ([`Presolved::postsolve`]) that restores
//! original-space vectors: kept variables copy through at their new index,
//! fixed variables re-emerge at their fixed value. Objective constants from
//! fixed variables are folded into the reduced objective's offset, so the
//! reduced-space objective equals the original-space objective at
//! corresponding points.

use crate::expr::LinExpr;
use crate::problem::{Cmp, Problem, VarKind};

const TOL: f64 = 1e-7;
const MAX_ROUNDS: u32 = 16;

/// Reduction counters for one presolve pass.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PresolveStats {
    /// Fixpoint rounds executed.
    pub rounds: u32,
    /// Individual variable-bound tightenings.
    pub bounds_tightened: u64,
    /// Variables fixed and substituted out.
    pub vars_fixed: u64,
    /// Rows dropped (vacuous, singleton-absorbed, or empty-true).
    pub rows_dropped: u64,
    /// Binary coefficient reductions applied.
    pub coef_reductions: u64,
}

/// Outcome of a presolve pass.
#[derive(Debug)]
pub enum PresolveResult {
    /// A (possibly) smaller equivalent problem plus the postsolve map.
    Reduced(Presolved),
    /// The reductions proved the problem infeasible before any solve.
    Infeasible {
        /// Human-readable contradiction, naming the row or variable.
        reason: String,
    },
    /// Every variable was fixed; the unique candidate point is feasible.
    FixedAll {
        /// The (original-space) assignment.
        values: Vec<f64>,
        /// Objective at that assignment, in the problem's original sense.
        objective: f64,
        /// Reduction counters.
        stats: PresolveStats,
    },
}

/// A reduced problem plus the map back to the original variable space.
#[derive(Debug)]
pub struct Presolved {
    problem: Problem,
    /// Original index of each kept (reduced-space) variable.
    kept: Vec<usize>,
    /// Fixed variables as `(original index, value)`.
    fixed: Vec<(usize, f64)>,
    orig_n: usize,
    /// Reduction counters.
    pub stats: PresolveStats,
}

impl Presolved {
    /// The reduced problem.
    pub fn problem(&self) -> &Problem {
        &self.problem
    }

    /// Maps a reduced-space assignment back to the original variable
    /// space: kept variables copy through, fixed variables re-emerge at
    /// their fixed value.
    pub fn postsolve(&self, reduced: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; self.orig_n];
        for (ri, &oi) in self.kept.iter().enumerate() {
            if let Some(&v) = reduced.get(ri) {
                out[oi] = v;
            }
        }
        for &(oi, v) in &self.fixed {
            out[oi] = v;
        }
        out
    }
}

/// A working row in `<=`/`==` normal form (`>=` rows enter negated).
struct PRow {
    terms: Vec<(usize, f64)>,
    eq: bool,
    rhs: f64,
    dropped: bool,
    /// Index into `p.constraints`, for error messages.
    src: usize,
}

/// Runs the presolve pass on a validated problem.
pub fn presolve(p: &Problem) -> PresolveResult {
    let n = p.num_vars();
    let mut bounds: Vec<(f64, f64)> = p.vars.iter().map(|v| (v.lo, v.hi)).collect();
    let is_int: Vec<bool> = p.vars.iter().map(|v| v.kind == VarKind::Integer).collect();
    let mut fixed_mask = vec![false; n];
    let mut vals = vec![0.0f64; n];
    let mut stats = PresolveStats::default();

    let mut rows: Vec<PRow> = Vec::with_capacity(p.constraints.len());
    for (ci, c) in p.constraints.iter().enumerate() {
        let mut terms: Vec<(usize, f64)> = c
            .expr
            .iter()
            .map(|(v, k)| (v.index(), k))
            .filter(|&(_, k)| k.abs() > 1e-12)
            .collect();
        let mut rhs = c.rhs - c.expr.offset();
        let eq = matches!(c.cmp, Cmp::Eq);
        if matches!(c.cmp, Cmp::Ge) {
            for t in &mut terms {
                t.1 = -t.1;
            }
            rhs = -rhs;
        }
        rows.push(PRow {
            terms,
            eq,
            rhs,
            dropped: false,
            src: ci,
        });
    }

    for round in 0..MAX_ROUNDS {
        stats.rounds = round + 1;
        let mut changed = false;

        // Variable pass: integer rounding, crossed bounds, fixing.
        for i in 0..n {
            if fixed_mask[i] {
                continue;
            }
            let (mut lo, mut hi) = bounds[i];
            if is_int[i] {
                let rlo = (lo - 1e-9).ceil();
                let rhi = (hi + 1e-9).floor();
                if rlo > lo + 1e-9 || rhi < hi - 1e-9 {
                    stats.bounds_tightened += 1;
                    changed = true;
                }
                lo = rlo;
                hi = rhi;
                bounds[i] = (lo, hi);
            }
            if lo > hi + TOL {
                return PresolveResult::Infeasible {
                    reason: format!(
                        "variable {}: bounds crossed after tightening ({lo} > {hi})",
                        p.vars[i].name
                    ),
                };
            }
            if hi - lo <= 1e-9 {
                // `+ 0.0` folds a -0.0 (e.g. `ceil(-1e-9)`) into +0.0 so
                // fixed values are bit-identical to the cold path's.
                let v = if is_int[i] { lo.round() } else { lo } + 0.0;
                fixed_mask[i] = true;
                vals[i] = v;
                stats.vars_fixed += 1;
                changed = true;
                // Substitute into every live row.
                for row in rows.iter_mut().filter(|r| !r.dropped) {
                    if let Some(pos) = row.terms.iter().position(|&(tv, _)| tv == i) {
                        let (_, k) = row.terms.remove(pos);
                        row.rhs -= k * v;
                    }
                }
            }
        }

        // Row pass: constant rows, singletons, activity checks, bound
        // tightening, coefficient reduction.
        for row in rows.iter_mut() {
            if row.dropped {
                continue;
            }
            // Constant row: nothing left to constrain.
            if row.terms.is_empty() {
                let (rhs, eq, src) = (row.rhs, row.eq, row.src);
                let ok = if eq { rhs.abs() <= TOL } else { rhs >= -TOL };
                if !ok {
                    return PresolveResult::Infeasible {
                        reason: format!(
                            "constraint {src}: reduces to the false constant {} {} 0",
                            rhs,
                            if eq { "==" } else { ">=" }
                        ),
                    };
                }
                row.dropped = true;
                stats.rows_dropped += 1;
                changed = true;
                continue;
            }
            // Singleton row: absorb into the variable's bounds.
            if row.terms.len() == 1 {
                let (v, k) = row.terms[0];
                let rhs = row.rhs;
                let eq = row.eq;
                let src = row.src;
                let x = rhs / k;
                let (lo, hi) = bounds[v];
                let mut tightened = false;
                if eq {
                    // k*x == rhs pins the variable.
                    let lo2 = lo.max(x);
                    let hi2 = hi.min(x);
                    if lo2 > lo + 1e-9 || hi2 < hi - 1e-9 {
                        tightened = true;
                    }
                    bounds[v] = (lo2, hi2);
                } else if k > 0.0 {
                    // k*x <= rhs.
                    let mut new_hi = x;
                    if is_int[v] {
                        new_hi = (new_hi + 1e-9).floor();
                    }
                    if new_hi < hi - 1e-9 {
                        bounds[v].1 = new_hi;
                        tightened = true;
                    }
                } else {
                    // k*x <= rhs with k < 0 is x >= rhs/k.
                    let mut new_lo = x;
                    if is_int[v] {
                        new_lo = (new_lo - 1e-9).ceil();
                    }
                    if new_lo > lo + 1e-9 {
                        bounds[v].0 = new_lo;
                        tightened = true;
                    }
                }
                if bounds[v].0 > bounds[v].1 + TOL {
                    return PresolveResult::Infeasible {
                        reason: format!(
                            "constraint {src}: singleton row forces {} into the empty range [{}, {}]",
                            p.vars[v].name, bounds[v].0, bounds[v].1
                        ),
                    };
                }
                if tightened {
                    stats.bounds_tightened += 1;
                }
                row.dropped = true;
                stats.rows_dropped += 1;
                changed = true;
                continue;
            }

            // Activity bounds of the row.
            let (min_act, max_act) = activity(&row.terms, &bounds);
            let (rhs, eq, src) = (row.rhs, row.eq, row.src);
            if min_act > rhs + TOL {
                return PresolveResult::Infeasible {
                    reason: format!(
                        "constraint {src}: minimum activity {min_act} exceeds rhs {rhs}"
                    ),
                };
            }
            if eq && max_act < rhs - TOL {
                return PresolveResult::Infeasible {
                    reason: format!(
                        "constraint {src}: maximum activity {max_act} cannot reach rhs {rhs}"
                    ),
                };
            }
            // Vacuous row: satisfied at its worst-case activity.
            let vacuous = if eq {
                max_act <= rhs + TOL && min_act >= rhs - TOL
            } else {
                max_act <= rhs + TOL
            };
            if vacuous {
                row.dropped = true;
                stats.rows_dropped += 1;
                changed = true;
                continue;
            }

            // Bound tightening from the <= view (and the mirrored view for
            // == rows).
            match tighten(&row.terms, rhs, false, &mut bounds, &is_int, &mut stats) {
                Tighten::Ok(c) => changed |= c,
                Tighten::Crossed(v) => {
                    return PresolveResult::Infeasible {
                        reason: format!(
                            "constraint {src}: tightening empties the range of {}",
                            p.vars[v].name
                        ),
                    };
                }
            }
            if eq {
                match tighten(&row.terms, rhs, true, &mut bounds, &is_int, &mut stats) {
                    Tighten::Ok(c) => changed |= c,
                    Tighten::Crossed(v) => {
                        return PresolveResult::Infeasible {
                            reason: format!(
                                "constraint {src}: tightening empties the range of {}",
                                p.vars[v].name
                            ),
                        };
                    }
                }
            } else {
                // Coefficient reduction (inequality rows only).
                changed |= reduce_coefficients(row, &bounds, &is_int, &mut stats);
            }
        }

        if !changed {
            break;
        }
    }

    // Everything fixed: the candidate point is unique; check it.
    if fixed_mask.iter().all(|&f| f) {
        for row in rows.iter().filter(|r| !r.dropped) {
            let lhs: f64 = row.terms.iter().map(|&(v, k)| k * vals[v]).sum();
            let residual = lhs - row.rhs;
            let ok = if row.eq {
                residual.abs() <= TOL
            } else {
                residual <= TOL
            };
            if !ok {
                return PresolveResult::Infeasible {
                    reason: format!(
                        "constraint {}: violated by the fully-fixed point (residual {residual})",
                        row.src
                    ),
                };
            }
        }
        let objective = p.objective.eval(&vals);
        return PresolveResult::FixedAll {
            values: vals,
            objective,
            stats,
        };
    }

    // Repack the survivors into a reduced problem.
    let mut q = Problem::new(p.sense);
    let mut kept = Vec::new();
    let mut remap = vec![usize::MAX; n];
    let mut qvars = Vec::new();
    for i in 0..n {
        if fixed_mask[i] {
            continue;
        }
        remap[i] = kept.len();
        kept.push(i);
        let (lo, hi) = bounds[i];
        let id = match p.vars[i].kind {
            VarKind::Integer => q.add_integer(p.vars[i].name.clone(), lo, hi),
            VarKind::Continuous => q.add_continuous(p.vars[i].name.clone(), lo, hi),
        };
        qvars.push(id);
    }
    let mut obj = LinExpr::new();
    let mut constant = p.objective.offset();
    for (v, k) in p.objective.iter() {
        let i = v.index();
        if fixed_mask[i] {
            constant += k * vals[i];
        } else {
            obj.add_term(qvars[remap[i]], k);
        }
    }
    q.set_objective(obj + LinExpr::constant(constant));
    for row in rows.iter().filter(|r| !r.dropped) {
        let mut e = LinExpr::new();
        for &(v, k) in &row.terms {
            e.add_term(qvars[remap[v]], k);
        }
        q.add_constraint(e, if row.eq { Cmp::Eq } else { Cmp::Le }, row.rhs);
    }

    PresolveResult::Reduced(Presolved {
        problem: q,
        kept,
        fixed: fixed_mask
            .iter()
            .enumerate()
            .filter(|&(_, &f)| f)
            .map(|(i, _)| (i, vals[i]))
            .collect(),
        orig_n: n,
        stats,
    })
}

/// `(min, max)` activity of a term list under the current bounds. Either
/// end may be infinite.
fn activity(terms: &[(usize, f64)], bounds: &[(f64, f64)]) -> (f64, f64) {
    let mut min_act = 0.0f64;
    let mut max_act = 0.0f64;
    for &(v, k) in terms {
        let (lo, hi) = bounds[v];
        if k >= 0.0 {
            min_act += k * lo;
            max_act += k * hi;
        } else {
            min_act += k * hi;
            max_act += k * lo;
        }
    }
    (min_act, max_act)
}

enum Tighten {
    Ok(bool),
    Crossed(usize),
}

/// Activity-based bound tightening for `sum(terms) <= rhs` (or its mirror
/// `-sum(terms) <= -rhs` when `mirror` is set, used for `==` rows).
fn tighten(
    terms: &[(usize, f64)],
    rhs: f64,
    mirror: bool,
    bounds: &mut [(f64, f64)],
    is_int: &[bool],
    stats: &mut PresolveStats,
) -> Tighten {
    let sgn = if mirror { -1.0 } else { 1.0 };
    let rhs = sgn * rhs;
    // Minimum activity of the whole (possibly mirrored) row.
    let mut min_act = 0.0f64;
    for &(v, k) in terms {
        let k = sgn * k;
        let (lo, hi) = bounds[v];
        let contrib = if k >= 0.0 { k * lo } else { k * hi };
        if !contrib.is_finite() {
            return Tighten::Ok(false);
        }
        min_act += contrib;
    }
    let mut changed = false;
    for &(v, k) in terms {
        let k = sgn * k;
        if k.abs() < 1e-12 {
            continue;
        }
        let (lo, hi) = bounds[v];
        let own_min = if k >= 0.0 { k * lo } else { k * hi };
        let rest = min_act - own_min;
        // k * x <= rhs - rest
        let limit = (rhs - rest) / k;
        if k > 0.0 {
            let mut new_hi = limit;
            if is_int[v] {
                new_hi = (new_hi + 1e-9).floor();
            }
            if new_hi < hi - 1e-9 {
                if new_hi < lo - 1e-9 {
                    return Tighten::Crossed(v);
                }
                bounds[v].1 = new_hi;
                stats.bounds_tightened += 1;
                changed = true;
            }
        } else {
            let mut new_lo = limit;
            if is_int[v] {
                new_lo = (new_lo - 1e-9).ceil();
            }
            if new_lo > lo + 1e-9 {
                if new_lo > hi + 1e-9 {
                    return Tighten::Crossed(v);
                }
                bounds[v].0 = new_lo;
                stats.bounds_tightened += 1;
                changed = true;
            }
        }
    }
    Tighten::Ok(changed)
}

/// Binary coefficient reduction on a `<=` row (see the module docs for the
/// derivation). Applied term by term, recomputing the rest-activity after
/// each change, in term order — deterministic.
fn reduce_coefficients(
    row: &mut PRow,
    bounds: &[(f64, f64)],
    is_int: &[bool],
    stats: &mut PresolveStats,
) -> bool {
    let mut changed = false;
    for idx in 0..row.terms.len() {
        let (v, k) = row.terms[idx];
        // Exact binary range required; lint: allow(float-eq)
        let binary = is_int[v] && bounds[v].0 == 0.0 && bounds[v].1 == 1.0;
        if !binary || k <= TOL {
            continue;
        }
        // Max activity of the other terms.
        let mut rest_max = 0.0f64;
        let mut finite = true;
        for (j, &(ov, ok)) in row.terms.iter().enumerate() {
            if j == idx {
                continue;
            }
            let (lo, hi) = bounds[ov];
            let contrib = if ok >= 0.0 { ok * hi } else { ok * lo };
            if !contrib.is_finite() {
                finite = false;
                break;
            }
            rest_max += contrib;
        }
        if !finite {
            continue;
        }
        if rest_max < row.rhs - TOL {
            // Non-vacuity of the row guarantees k > rhs - rest_max here.
            let new_k = k - (row.rhs - rest_max);
            if new_k < k - 1e-9 {
                row.terms[idx].1 = new_k;
                row.rhs = rest_max;
                stats.coef_reductions += 1;
                changed = true;
            }
        }
    }
    changed
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::problem::Sense;

    #[test]
    fn forced_binaries_fix_and_rows_drop() {
        // 5a + 5b <= 4 forces a = b = 0; the row then drops.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        let c = p.add_binary("c");
        p.set_objective(LinExpr::terms(&[(a, 1.0), (b, 1.0), (c, 1.0)]));
        p.add_constraint(LinExpr::terms(&[(a, 5.0), (b, 5.0)]), Cmp::Le, 4.0);
        match presolve(&p) {
            PresolveResult::Reduced(r) => {
                assert_eq!(r.problem().num_vars(), 1, "only c survives");
                assert_eq!(r.problem().num_constraints(), 0);
                assert_eq!(r.stats.vars_fixed, 2);
                assert!(r.stats.rows_dropped >= 1);
                // Postsolve restores original positions.
                let full = r.postsolve(&[1.0]);
                assert_eq!(full, vec![0.0, 0.0, 1.0]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn infeasible_row_is_typed() {
        let mut p = Problem::new(Sense::Minimize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.set_objective(LinExpr::from(a));
        p.add_constraint(LinExpr::terms(&[(a, 1.0), (b, 1.0)]), Cmp::Ge, 3.0);
        match presolve(&p) {
            PresolveResult::Infeasible { reason } => {
                assert!(reason.contains("constraint 0"), "reason: {reason}");
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fully_fixed_problem_short_circuits() {
        // x == 3 (singleton eq) and y forced to 1 by a >= row.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_integer("x", 0.0, 10.0);
        let y = p.add_binary("y");
        p.set_objective(LinExpr::terms(&[(x, 2.0), (y, 5.0)]));
        p.add_constraint(LinExpr::from(x), Cmp::Eq, 3.0);
        p.add_constraint(LinExpr::from(y), Cmp::Ge, 1.0);
        match presolve(&p) {
            PresolveResult::FixedAll {
                values, objective, ..
            } => {
                assert_eq!(values, vec![3.0, 1.0]);
                assert!((objective - 11.0).abs() < 1e-9);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn fully_fixed_but_contradictory_is_infeasible() {
        // x == 3 but also x <= 2.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_integer("x", 0.0, 10.0);
        p.set_objective(LinExpr::from(x));
        p.add_constraint(LinExpr::from(x), Cmp::Eq, 3.0);
        p.add_constraint(LinExpr::from(x), Cmp::Le, 2.0);
        assert!(matches!(presolve(&p), PresolveResult::Infeasible { .. }));
    }

    #[test]
    fn coefficient_reduction_tightens() {
        // 3a + b <= 3 over binaries reduces to a + b <= 1 (same integer
        // set, tighter LP).
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.set_objective(LinExpr::terms(&[(a, 2.0), (b, 1.0)]));
        p.add_constraint(LinExpr::terms(&[(a, 3.0), (b, 1.0)]), Cmp::Le, 3.0);
        match presolve(&p) {
            PresolveResult::Reduced(r) => {
                assert!(r.stats.coef_reductions >= 1);
                let q = r.problem();
                assert_eq!(q.num_constraints(), 1);
                // The reduced row must still admit exactly {00, 01, 10}.
                for (a_v, b_v, feas) in
                    [(0.0, 0.0, true), (0.0, 1.0, true), (1.0, 0.0, true), (1.0, 1.0, false)]
                {
                    assert_eq!(
                        q.is_feasible(&[a_v, b_v], 1e-9),
                        feas,
                        "point ({a_v}, {b_v})"
                    );
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn vacuous_rows_drop_and_objective_constant_survives() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_integer("x", 0.0, 2.0);
        let y = p.add_integer("y", 5.0, 5.0); // fixed by bounds
        p.set_objective(LinExpr::terms(&[(x, 1.0), (y, 10.0)]) + LinExpr::constant(1.0));
        // Always true given the bounds: x + y <= 100.
        p.add_constraint(LinExpr::terms(&[(x, 1.0), (y, 1.0)]), Cmp::Le, 100.0);
        match presolve(&p) {
            PresolveResult::Reduced(r) => {
                assert_eq!(r.problem().num_constraints(), 0);
                assert_eq!(r.stats.rows_dropped, 1);
                assert_eq!(r.stats.vars_fixed, 1);
                // Reduced objective at x = 2 equals original at (2, 5).
                let reduced_obj = r.problem().objective.eval(&[2.0]);
                assert!((reduced_obj - 53.0).abs() < 1e-9);
                assert_eq!(r.postsolve(&[2.0]), vec![2.0, 5.0]);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn ge_rows_enter_negated_and_still_tighten() {
        // 2x >= 6 with x in [0, 10] -> x >= 3.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_integer("x", 0.0, 10.0);
        p.set_objective(LinExpr::from(x));
        p.add_constraint(LinExpr::from(x) * 2.0, Cmp::Ge, 6.0);
        match presolve(&p) {
            PresolveResult::Reduced(r) => {
                let q = r.problem();
                assert_eq!(q.var_bounds(crate::VarId(0)), (3.0, 10.0));
                assert_eq!(q.num_constraints(), 0, "singleton absorbed");
            }
            other => panic!("unexpected {other:?}"),
        }
    }
}
