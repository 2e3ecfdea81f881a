//! Best-first branch & bound over the LP relaxation.
//!
//! # Engine shape
//!
//! The solve runs in three layers:
//!
//! 1. **Presolve** ([`crate::presolve`]) shrinks the problem (bound
//!    tightening, variable fixing, row elimination, coefficient
//!    reduction) and may prove infeasibility or fix every variable
//!    outright — in either case no simplex runs at all. Incumbents found
//!    on the reduced problem are mapped back through the postsolve map
//!    and re-priced against the *original* objective, so the reported
//!    objective is bit-identical with presolve on or off.
//! 2. **Relaxations**: each node's LP is solved either cold
//!    ([`crate::simplex::solve_lp`]) or warm from its parent's basis
//!    ([`crate::warmstart::solve_lp_warm`]), falling back to cold on any
//!    typed basis rejection. Warm starts are a pure accelerator — both
//!    paths certify optimality with the same primal phase-2 — so the
//!    node relaxation values they produce are interchangeable.
//! 3. **Wave-parallel search**: open nodes are expanded in *waves* of at
//!    most [`WAVE`] child LPs. Node selection, pruning, and incumbent
//!    updates happen serially in a fixed order; only the (pure,
//!    per-task deterministic) LP solves are fanned out on the workspace
//!    worker pool, [`DsePool`]. The wave size is a constant — never a
//!    function of the thread count — so the explored tree, the incumbent
//!    sequence, and every reported number are bit-identical at any
//!    thread count.
//!
//! # Deterministic incumbent protocol
//!
//! * Nodes are explored best-first by relaxation bound; ties break by
//!   insertion sequence number (earlier wins). Within a wave, children
//!   are generated parent-by-parent, down-branch before up-branch.
//! * The branching variable is the most fractional integer variable;
//!   ties break toward the lowest variable index.
//! * An incumbent is replaced only by a *strictly better* key (internal
//!   minimize sense); on equal objective the first-found incumbent in
//!   the fixed serial order wins. Incumbent keys are always recomputed
//!   as `sign * objective.eval(postsolved values)` in the original
//!   variable space.
//!
//! These rules are what `mip/tests/metamorphic.rs` pins down.

use crate::presolve::{presolve, Presolved, PresolveResult, PresolveStats};
use crate::problem::{MipError, Problem, Sense, VarKind};
use crate::simplex::{solve_lp, Basis, LpOutcome, LpSolve};
use crate::warmstart::{solve_lp_warm, Warm};
use crate::{Solution, SolveStatus};
use obs::pool::DsePool;
use std::cmp::Ordering;
use std::collections::BinaryHeap;
// Wall-clock reads feed only the optional `time_limit` cut-off, never the
// search order or the incumbent; lint: allow(nondet-time)
use std::time::{Duration, Instant};

/// Child LPs evaluated per wave. A constant (never derived from the
/// thread count) so the search tree is identical for any pool size.
const WAVE: usize = 8;

/// Search limits for [`Solver`].
#[derive(Debug, Clone, Copy)]
pub struct SolverLimits {
    /// Maximum branch-and-bound nodes to explore.
    pub max_nodes: u64,
    /// Wall-clock budget.
    pub time_limit: Duration,
    /// Integrality tolerance: `|x - round(x)| <= int_tol` counts as integer.
    pub int_tol: f64,
    /// Relative optimality gap at which the search stops early.
    pub rel_gap: f64,
}

impl Default for SolverLimits {
    fn default() -> Self {
        Self {
            max_nodes: 200_000,
            time_limit: Duration::from_secs(60),
            int_tol: 1e-6,
            rel_gap: 1e-6,
        }
    }
}

/// Per-solve statistics, returned on [`Solution::stats`].
#[derive(Debug, Clone, Copy, Default)]
pub struct SolveStats {
    /// Branch-and-bound nodes whose LP relaxation was solved (root
    /// included).
    pub nodes: u64,
    /// Simplex solves run (a warm rejection followed by a cold re-solve
    /// counts twice).
    pub lp_solves: u64,
    /// Total simplex pivots across all solves.
    pub pivots: u64,
    /// Child LPs solved from the parent basis.
    pub warm_hits: u64,
    /// Warm attempts that fell back to a cold solve.
    pub warm_rejects: u64,
    /// Waves dispatched to the node pool.
    pub waves: u64,
    /// Nodes pruned by bound.
    pub pruned: u64,
    /// Presolve reduction counters.
    pub presolve: PresolveStats,
}

/// How a task's relaxation was obtained.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum WarmTag {
    Hit,
    Reject,
    Cold,
}

/// Result of one node-relaxation task.
struct TaskOut {
    result: Result<LpSolve, MipError>,
    warm: WarmTag,
}

/// MILP solver: best-first branch & bound on the simplex relaxation,
/// with presolve, warm-started node LPs, and wave-parallel node
/// evaluation.
///
/// See the crate-level example. Determinism: the search is fully
/// deterministic for a given problem at any thread count (see the module
/// docs for the exact tie-break protocol).
#[derive(Debug, Clone)]
pub struct Solver {
    limits: SolverLimits,
    warm_start: Option<Vec<f64>>,
    root_basis: Option<Basis>,
    presolve: bool,
    warm_lp: bool,
    threads: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Self {
            limits: SolverLimits::default(),
            warm_start: None,
            root_basis: None,
            presolve: true,
            warm_lp: true,
            threads: 1,
        }
    }
}

/// An open node: its relaxation value (already solved) and bounds overlay.
struct Node {
    /// Internal-minimize key of the node's LP relaxation.
    bound: f64,
    /// LP solution values (used for branching), in reduced space.
    values: Vec<f64>,
    /// Per-variable bounds of this subproblem, in reduced space.
    bounds: Vec<(f64, f64)>,
    /// Optimal basis of this node's relaxation (warm-start seed for its
    /// children). `None` when the relaxation came back basis-less.
    basis: Option<Basis>,
    /// Insertion counter for deterministic tie-breaking.
    seq: u64,
}

impl PartialEq for Node {
    fn eq(&self, other: &Self) -> bool {
        self.bound == other.bound && self.seq == other.seq
    }
}
impl Eq for Node {}
impl PartialOrd for Node {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Node {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; we want the *smallest* bound first.
        other
            .bound
            .partial_cmp(&self.bound)
            .unwrap_or(Ordering::Equal)
            .then(other.seq.cmp(&self.seq))
    }
}

/// One wave task: re-solve the relaxation under `bounds`, warm from
/// `parent_basis` when available.
struct Task {
    bounds: Vec<(f64, f64)>,
    parent_basis: Option<Basis>,
    /// Global per-solve task counter, the `mip.node` fault-point index.
    fault_idx: u64,
}

impl Solver {
    /// Creates a solver with default limits.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets the node budget.
    pub fn max_nodes(mut self, n: u64) -> Self {
        self.limits.max_nodes = n;
        self
    }

    /// Sets the wall-clock budget.
    pub fn time_limit(mut self, d: Duration) -> Self {
        self.limits.time_limit = d;
        self
    }

    /// Sets the relative optimality gap for early stopping.
    pub fn rel_gap(mut self, g: f64) -> Self {
        self.limits.rel_gap = g;
        self
    }

    /// Seeds the search with a known assignment. If it is feasible it
    /// becomes the initial incumbent, letting branch & bound prune
    /// immediately (infeasible seeds are silently ignored).
    pub fn warm_start(mut self, values: Vec<f64>) -> Self {
        self.warm_start = Some(values);
        self
    }

    /// Seeds the *root relaxation* with an optimal basis from a previous
    /// solve of a structurally identical problem (the next cell of a
    /// sweep). On any shape mismatch the basis is rejected typed and the
    /// root is solved cold — correctness never depends on the seed.
    pub fn warm_basis(mut self, basis: Basis) -> Self {
        self.root_basis = Some(basis);
        self
    }

    /// Enables or disables the presolve pass (default: on).
    pub fn presolve(mut self, on: bool) -> Self {
        self.presolve = on;
        self
    }

    /// Enables or disables warm-started node relaxations (default: on).
    pub fn warm_lp(mut self, on: bool) -> Self {
        self.warm_lp = on;
        self
    }

    /// Sets the worker count [`Solver::solve`] fans waves out on
    /// (default: 1, serial).
    pub fn threads(mut self, n: usize) -> Self {
        self.threads = n.max(1);
        self
    }

    /// Current limits.
    pub fn limits(&self) -> SolverLimits {
        self.limits
    }

    /// Solves the MILP on a [`DsePool`] of [`Solver::threads`] workers.
    ///
    /// # Errors
    ///
    /// Returns [`MipError`] if the problem fails validation (inverted
    /// bounds, unknown variables, non-finite data).
    pub fn solve(&self, p: &Problem) -> Result<Solution, MipError> {
        self.solve_with_pool(p, &DsePool::new(self.threads))
    }

    /// Solves the MILP, fanning each wave of node relaxations out on
    /// `pool`. The result is bit-identical to [`Solver::solve`] for any
    /// pool width.
    ///
    /// # Errors
    ///
    /// Returns [`MipError`] if the problem fails validation.
    pub fn solve_with_pool(&self, p: &Problem, pool: &DsePool) -> Result<Solution, MipError> {
        p.validate()?;
        let _span = obs::span!("mip.solve", vars = p.num_vars(), threads = pool.threads());
        let start = Instant::now(); // time_limit cut-off only; lint: allow(nondet-time)
        let mut stats = SolveStats::default();

        // Presolve: may shrink the problem or finish the solve outright.
        let presolved: Option<Presolved> = if self.presolve {
            match presolve(p) {
                PresolveResult::Reduced(r) => {
                    stats.presolve = r.stats;
                    Some(r)
                }
                PresolveResult::Infeasible { reason } => {
                    stats.presolve.rounds = stats.presolve.rounds.max(1);
                    obs::event("mip.presolve.infeasible", &[("reason", reason.into())]);
                    record_presolve(&stats);
                    return Ok(Solution::new(
                        SolveStatus::Infeasible,
                        f64::NAN,
                        vec![],
                        stats,
                        None,
                    ));
                }
                PresolveResult::FixedAll {
                    values,
                    objective,
                    stats: ps,
                } => {
                    stats.presolve = ps;
                    incumbent_event(objective, 0, "presolve");
                    record_presolve(&stats);
                    return Ok(Solution::new(
                        SolveStatus::Optimal,
                        objective,
                        values,
                        stats,
                        None,
                    ));
                }
            }
        } else {
            None
        };
        // The problem the search actually runs on (reduced space).
        let q: &Problem = presolved.as_ref().map_or(p, Presolved::problem);
        record_presolve(&stats);
        // Maps a reduced-space point back to original space.
        let to_original = |vals: &[f64]| -> Vec<f64> {
            match &presolved {
                Some(pre) => pre.postsolve(vals),
                None => vals.to_vec(),
            }
        };

        let sign = match p.sense() {
            Sense::Minimize => 1.0,
            Sense::Maximize => -1.0,
        };
        let int_vars: Vec<usize> = (0..q.num_vars())
            .filter(|&i| q.vars[i].kind == VarKind::Integer)
            .collect();
        let tol = self.limits.int_tol;

        // Root relaxation, warm from a caller-provided sweep basis when
        // one is set and accepted.
        let root_bounds: Vec<(f64, f64)> = q.vars.iter().map(|v| (v.lo, v.hi)).collect();
        let root = match (&self.root_basis, self.warm_lp) {
            (Some(b), true) => match solve_lp_warm(q, &root_bounds, b)? {
                Warm::Hit(ls) => {
                    stats.warm_hits += 1;
                    stats.lp_solves += 1;
                    ls
                }
                Warm::Reject(r) => {
                    obs::add(r.counter(), 1);
                    stats.warm_rejects += 1;
                    stats.lp_solves += 2;
                    solve_lp(q, &root_bounds)?
                }
            },
            _ => {
                stats.lp_solves += 1;
                solve_lp(q, &root_bounds)?
            }
        };
        stats.pivots += root.pivots;
        stats.nodes = 1;
        let root_basis_out = root.basis.clone();
        let (root_values, root_key) = match root.outcome {
            LpOutcome::Optimal { objective, values } => (values, sign * objective),
            LpOutcome::Infeasible => {
                record_search(&stats);
                return Ok(Solution::new(
                    SolveStatus::Infeasible,
                    f64::NAN,
                    vec![],
                    stats,
                    None,
                ));
            }
            LpOutcome::Unbounded => {
                record_search(&stats);
                return Ok(Solution::new(
                    SolveStatus::Unbounded,
                    f64::NAN,
                    vec![],
                    stats,
                    None,
                ));
            }
        };

        // Incumbent: `(internal-minimize key, original-space values)`.
        // Keys are ALWAYS re-priced on the original objective so presolve
        // cannot shift the reported objective by a rounding bit.
        let mut best: Option<(f64, Vec<f64>)> = None;
        if let Some(seed) = &self.warm_start {
            if p.is_feasible(seed, 1e-6) {
                let key = sign * p.objective.eval(seed);
                best = Some((key, seed.clone()));
                incumbent_event(sign * key, 0, "warm_start");
            }
        }
        // Rounding heuristic on the root relaxation.
        {
            let mut rounded = root_values.clone();
            for &i in &int_vars {
                // `+ 0.0` folds -0.0 (a round of -1e-17) into +0.0 so the
                // incumbent bits cannot depend on which engine path
                // produced the zero.
                rounded[i] = rounded[i].round().clamp(root_bounds[i].0, root_bounds[i].1) + 0.0;
            }
            let orig = to_original(&rounded);
            if p.is_feasible(&orig, 1e-6) {
                let key = sign * p.objective.eval(&orig);
                if best.as_ref().is_none_or(|(inc, _)| key < *inc) {
                    best = Some((key, orig));
                    incumbent_event(sign * key, 0, "rounding");
                }
            }
        }

        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        heap.push(Node {
            bound: root_key,
            values: root_values,
            bounds: root_bounds,
            basis: root_basis_out.clone(),
            seq,
        });

        let mut limit_hit = false;
        let mut fault_idx = 0u64;
        'search: while !heap.is_empty() {
            // ---- Serial collection: pop nodes, settle integral ones,
            // turn fractional ones into at most WAVE child tasks. ----
            let mut tasks: Vec<Task> = Vec::with_capacity(WAVE);
            while tasks.len() < WAVE {
                let Some(node) = heap.pop() else { break };
                if let Some((inc, _)) = &best {
                    // Prune by bound (with relative-gap early stop).
                    let cutoff = inc - self.limits.rel_gap * inc.abs().max(1.0);
                    if node.bound >= cutoff - 1e-12 {
                        obs::add("mip.bnb.pruned", 1);
                        stats.pruned += 1;
                        continue;
                    }
                }
                if stats.nodes >= self.limits.max_nodes
                    || start.elapsed() >= self.limits.time_limit
                {
                    limit_hit = true;
                    break 'search;
                }

                // Branching variable: most fractional integer variable,
                // ties toward the lowest index.
                let frac_of = |x: f64| (x - x.round()).abs();
                let branch_var = int_vars
                    .iter()
                    .copied()
                    .filter(|&i| frac_of(node.values[i]) > tol)
                    .max_by(|&a, &b| {
                        frac_of(node.values[a])
                            .partial_cmp(&frac_of(node.values[b]))
                            .unwrap_or(Ordering::Equal)
                            .then(b.cmp(&a)) // deterministic: lower index wins ties
                    });

                let Some(bv) = branch_var else {
                    // Integral relaxation: candidate incumbent, re-priced
                    // in original space.
                    let mut v = node.values.clone();
                    for &i in &int_vars {
                        v[i] = v[i].round() + 0.0; // -0.0 -> +0.0
                    }
                    let orig = to_original(&v);
                    let key = sign * p.objective.eval(&orig);
                    if best.as_ref().is_none_or(|(inc, _)| key < *inc) {
                        best = Some((key, orig));
                        incumbent_event(sign * key, stats.nodes, "branch");
                    }
                    continue;
                };

                // Down-branch then up-branch, in that order.
                let x = node.values[bv];
                for (lo, hi) in [
                    (node.bounds[bv].0, x.floor()),
                    (x.ceil(), node.bounds[bv].1),
                ] {
                    if hi < lo - 1e-9 {
                        continue;
                    }
                    let mut child_bounds = node.bounds.clone();
                    child_bounds[bv] = (lo, hi);
                    tasks.push(Task {
                        bounds: child_bounds,
                        parent_basis: node.basis.clone(),
                        fault_idx,
                    });
                    fault_idx += 1;
                }
            }
            if tasks.is_empty() {
                continue;
            }

            // ---- Parallel evaluation: pure per-task LP solves. ----
            stats.waves += 1;
            let warm_lp = self.warm_lp;
            let eval_task = |t: &Task| -> TaskOut {
                match (&t.parent_basis, warm_lp) {
                    (Some(basis), true) => match solve_lp_warm(q, &t.bounds, basis) {
                        Ok(Warm::Hit(ls)) => TaskOut {
                            result: Ok(ls),
                            warm: WarmTag::Hit,
                        },
                        Ok(Warm::Reject(r)) => {
                            obs::add(r.counter(), 1);
                            TaskOut {
                                result: solve_lp(q, &t.bounds),
                                warm: WarmTag::Reject,
                            }
                        }
                        Err(e) => TaskOut {
                            result: Err(e),
                            warm: WarmTag::Reject,
                        },
                    },
                    _ => TaskOut {
                        result: solve_lp(q, &t.bounds),
                        warm: WarmTag::Cold,
                    },
                }
            };
            let mut evals: Vec<Option<TaskOut>> = pool.par_map(&tasks, |_, t| {
                // `mip.node` fault point: a scripted mid-wave worker death
                // loses this task's result; the fixed-order recovery pass
                // below recomputes it inline, bit-identically.
                if faultsim::armed() && faultsim::hit_at("mip.node", t.fault_idx) {
                    record_fault("fault.injected");
                    return None;
                }
                Some(eval_task(t))
            });

            // ---- Fixed-order recovery: lost tasks re-evaluate inline, so
            // a worker fault never changes the result. ----
            for (ev, task) in evals.iter_mut().zip(&tasks) {
                if ev.is_none() {
                    record_fault("fault.recovered");
                    *ev = Some(eval_task(task));
                }
            }

            // ---- Serial application, in task order. ----
            for (ev, task) in evals.into_iter().zip(tasks) {
                let Some(out) = ev else { continue };
                match out.warm {
                    WarmTag::Hit => {
                        stats.warm_hits += 1;
                        stats.lp_solves += 1;
                    }
                    WarmTag::Reject => {
                        stats.warm_rejects += 1;
                        stats.lp_solves += 2;
                    }
                    WarmTag::Cold => stats.lp_solves += 1,
                }
                let ls = out.result?;
                stats.nodes += 1;
                stats.pivots += ls.pivots;
                match ls.outcome {
                    LpOutcome::Optimal { objective, values } => {
                        let key = sign * objective;
                        let worth = match &best {
                            Some((inc, _)) => key < *inc - 1e-12,
                            None => true,
                        };
                        if worth {
                            seq += 1;
                            heap.push(Node {
                                bound: key,
                                values,
                                bounds: task.bounds,
                                basis: ls.basis,
                                seq,
                            });
                        } else {
                            obs::add("mip.bnb.pruned", 1);
                            stats.pruned += 1;
                        }
                    }
                    LpOutcome::Infeasible => {}
                    LpOutcome::Unbounded => {
                        // The root was bounded, so children are too; treat
                        // defensively as unbounded problem.
                        record_search(&stats);
                        return Ok(Solution::new(
                            SolveStatus::Unbounded,
                            f64::NAN,
                            vec![],
                            stats,
                            root_basis_out,
                        ));
                    }
                }
            }
            if start.elapsed() >= self.limits.time_limit {
                limit_hit = true;
                break;
            }
        }

        record_search(&stats);
        Ok(match best {
            Some((key, values)) => {
                let status = if limit_hit {
                    SolveStatus::Feasible
                } else {
                    SolveStatus::Optimal
                };
                Solution::new(status, sign * key, values, stats, root_basis_out)
            }
            None => {
                if limit_hit {
                    Solution::new(
                        SolveStatus::LimitReached,
                        f64::NAN,
                        vec![],
                        stats,
                        root_basis_out,
                    )
                } else {
                    Solution::new(
                        SolveStatus::Infeasible,
                        f64::NAN,
                        vec![],
                        stats,
                        root_basis_out,
                    )
                }
            }
        })
    }
}

/// Emits one point of the incumbent trajectory (`source` says which
/// mechanism improved it: presolve, warm start, root rounding, or
/// branching).
fn incumbent_event(objective: f64, node: u64, source: &'static str) {
    obs::add("mip.bnb.incumbents", 1);
    obs::event(
        "mip.incumbent",
        &[
            ("objective", objective.into()),
            ("node", node.into()),
            ("source", source.into()),
        ],
    );
}

/// Publishes presolve reduction counters (no-ops at zero).
fn record_presolve(stats: &SolveStats) {
    let ps = stats.presolve;
    if ps.bounds_tightened > 0 {
        obs::add("mip.presolve.bounds_tightened", ps.bounds_tightened);
    }
    if ps.vars_fixed > 0 {
        obs::add("mip.presolve.vars_fixed", ps.vars_fixed);
    }
    if ps.rows_dropped > 0 {
        obs::add("mip.presolve.rows_dropped", ps.rows_dropped);
    }
    if ps.coef_reductions > 0 {
        obs::add("mip.presolve.coef_reductions", ps.coef_reductions);
    }
}

/// Publishes end-of-search counters.
fn record_search(stats: &SolveStats) {
    obs::add("mip.bnb.nodes", stats.nodes);
    if stats.warm_hits > 0 {
        obs::add("mip.warm.hits", stats.warm_hits);
    }
    if stats.warm_rejects > 0 {
        obs::add("mip.warm.rejects", stats.warm_rejects);
    }
}

/// Bumps the given fault counter and emits the matching `obs` event for
/// the `mip.node` fault point (injection and recovery share the shape).
fn record_fault(what: &'static str) {
    obs::add(what, 1);
    obs::event(what, &[("point", "mip.node".into())]);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::LinExpr;
    use crate::problem::Cmp;

    #[test]
    fn knapsack_optimum() {
        // max 10a + 13b + 7c, 3a + 4b + 2c <= 6 -> {a, c} = 17? or {b, c} = 20.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        let c = p.add_binary("c");
        p.set_objective(LinExpr::terms(&[(a, 10.0), (b, 13.0), (c, 7.0)]));
        p.add_constraint(LinExpr::terms(&[(a, 3.0), (b, 4.0), (c, 2.0)]), Cmp::Le, 6.0);
        let s = Solver::new().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 20.0).abs() < 1e-6);
        assert_eq!((s.int_value(a), s.int_value(b), s.int_value(c)), (0, 1, 1));
    }

    #[test]
    fn assignment_problem() {
        // 3x3 assignment, cost matrix with known optimum 5 (1 + 1 + 3).
        let cost = [[1.0, 4.0, 5.0], [3.0, 1.0, 9.0], [9.0, 7.0, 3.0]];
        let mut p = Problem::new(Sense::Minimize);
        let mut x = vec![];
        for (i, row) in cost.iter().enumerate() {
            let mut r = vec![];
            for (j, _) in row.iter().enumerate() {
                r.push(p.add_binary(format!("x{i}{j}")));
            }
            x.push(r);
        }
        let mut obj = LinExpr::new();
        for i in 0..3 {
            for j in 0..3 {
                obj.add_term(x[i][j], cost[i][j]);
            }
        }
        p.set_objective(obj);
        for i in 0..3 {
            p.add_constraint(
                LinExpr::terms(&(0..3).map(|j| (x[i][j], 1.0)).collect::<Vec<_>>()),
                Cmp::Eq,
                1.0,
            );
            p.add_constraint(
                LinExpr::terms(&(0..3).map(|j| (x[j][i], 1.0)).collect::<Vec<_>>()),
                Cmp::Eq,
                1.0,
            );
        }
        let s = Solver::new().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 5.0).abs() < 1e-6);
    }

    #[test]
    fn lp_feasible_but_integer_infeasible() {
        // 0.4 <= x <= 0.6 with x binary.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_binary("x");
        p.add_constraint(LinExpr::from(x), Cmp::Ge, 0.4);
        p.add_constraint(LinExpr::from(x), Cmp::Le, 0.6);
        p.set_objective(LinExpr::from(x));
        let s = Solver::new().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Infeasible);
    }

    #[test]
    fn mixed_integer_continuous() {
        // max x + 10y, y binary, x <= 3.7 continuous, x + 4y <= 6.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, 3.7);
        let y = p.add_binary("y");
        p.set_objective(LinExpr::terms(&[(x, 1.0), (y, 10.0)]));
        p.add_constraint(LinExpr::terms(&[(x, 1.0), (y, 4.0)]), Cmp::Le, 6.0);
        let s = Solver::new().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        // y = 1, x = 2 -> 12.
        assert!((s.objective - 12.0).abs() < 1e-6);
        assert_eq!(s.int_value(y), 1);
        assert!((s.value(x) - 2.0).abs() < 1e-6);
    }

    #[test]
    fn general_integer_variables() {
        // min 3x + 2y, x,y integer >= 0, 2x + y >= 7, x + 3y >= 9.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_integer("x", 0.0, 100.0);
        let y = p.add_integer("y", 0.0, 100.0);
        p.set_objective(LinExpr::terms(&[(x, 3.0), (y, 2.0)]));
        p.add_constraint(LinExpr::terms(&[(x, 2.0), (y, 1.0)]), Cmp::Ge, 7.0);
        p.add_constraint(LinExpr::terms(&[(x, 1.0), (y, 3.0)]), Cmp::Ge, 9.0);
        let s = Solver::new().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        // Enumerate to verify: best integer point.
        let mut brute = f64::INFINITY;
        for xi in 0..=10 {
            for yi in 0..=10 {
                let (xf, yf) = (xi as f64, yi as f64);
                if 2.0 * xf + yf >= 7.0 && xf + 3.0 * yf >= 9.0 {
                    brute = brute.min(3.0 * xf + 2.0 * yf);
                }
            }
        }
        assert!((s.objective - brute).abs() < 1e-6);
    }

    #[test]
    fn unbounded_detected() {
        // Continuous: an unbounded *integer* is rejected by validation
        // before the solve (branch & bound cannot enumerate it).
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_continuous("x", 0.0, f64::INFINITY);
        p.set_objective(LinExpr::from(x));
        let s = Solver::new().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Unbounded);
    }

    #[test]
    fn unbounded_integer_rejected() {
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_integer("x", 0.0, f64::INFINITY);
        p.set_objective(LinExpr::from(x));
        assert!(matches!(
            Solver::new().solve(&p),
            Err(MipError::UnboundedInteger { .. })
        ));
    }

    #[test]
    fn node_limit_yields_feasible_or_limit() {
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..12).map(|i| p.add_binary(format!("v{i}"))).collect();
        let mut obj = LinExpr::new();
        let mut cons = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj.add_term(v, (i % 5 + 1) as f64);
            cons.add_term(v, ((i * 7) % 11 + 1) as f64);
        }
        p.set_objective(obj);
        p.add_constraint(cons, Cmp::Le, 20.0);
        let s = Solver::new().max_nodes(2).solve(&p).unwrap();
        assert!(matches!(
            s.status,
            SolveStatus::Feasible | SolveStatus::Optimal | SolveStatus::LimitReached
        ));
    }

    #[test]
    fn pure_lp_passthrough() {
        // No integer variables: one node, identical to simplex.
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_continuous("x", 0.0, 4.0);
        p.set_objective(LinExpr::from(x) * -1.0);
        let s = Solver::new().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective + 4.0).abs() < 1e-9);
        assert_eq!(s.nodes, 1);
    }

    #[test]
    fn presolve_fixes_forced_binaries() {
        // 5a + 5b <= 4 forces a = b = 0; presolve should prove the
        // optimum without branching.
        let mut p = Problem::new(Sense::Maximize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        let c = p.add_binary("c");
        p.set_objective(LinExpr::terms(&[(a, 1.0), (b, 1.0), (c, 1.0)]));
        p.add_constraint(LinExpr::terms(&[(a, 5.0), (b, 5.0)]), Cmp::Le, 4.0);
        let s = Solver::new().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert!((s.objective - 1.0).abs() < 1e-6);
        assert_eq!((s.int_value(a), s.int_value(b), s.int_value(c)), (0, 0, 1));
        assert_eq!(s.stats.presolve.vars_fixed, 2);
    }

    #[test]
    fn presolve_detects_plain_infeasibility() {
        // a + b >= 3 over two binaries is impossible; presolve catches it
        // before any simplex runs.
        let mut p = Problem::new(Sense::Minimize);
        let a = p.add_binary("a");
        let b = p.add_binary("b");
        p.set_objective(LinExpr::from(a));
        p.add_constraint(LinExpr::terms(&[(a, 1.0), (b, 1.0)]), Cmp::Ge, 3.0);
        let s = Solver::new().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Infeasible);
        assert_eq!(s.nodes, 0);
    }

    #[test]
    fn presolve_tightens_integer_bounds() {
        // 3x <= 10 with x integer -> x <= 3.
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_integer("x", 0.0, 100.0);
        p.set_objective(LinExpr::from(x));
        p.add_constraint(LinExpr::from(x) * 3.0, Cmp::Le, 10.0);
        let s = Solver::new().solve(&p).unwrap();
        assert_eq!(s.status, SolveStatus::Optimal);
        assert_eq!(s.int_value(x), 3);
        // Presolve makes the relaxation integral: exactly one node.
        assert_eq!(s.nodes, 1);
    }

    #[test]
    fn warm_start_seeds_incumbent() {
        // A tight node limit with a good warm start still yields the
        // seeded solution (or better); without it the search may time out
        // solutionless.
        let mut p = Problem::new(Sense::Maximize);
        let vars: Vec<_> = (0..14).map(|i| p.add_binary(format!("v{i}"))).collect();
        let mut obj = LinExpr::new();
        let mut cons = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            obj.add_term(v, ((i * 3) % 7 + 1) as f64);
            cons.add_term(v, ((i * 5) % 9 + 1) as f64);
        }
        p.set_objective(obj.clone());
        p.add_constraint(cons, Cmp::Le, 11.0);
        // Greedy feasible seed: take nothing (trivially feasible).
        let seed = vec![0.0; 14];
        let s = Solver::new()
            .max_nodes(1)
            .warm_start(seed.clone())
            .solve(&p)
            .unwrap();
        assert!(s.has_solution());
        assert!(s.objective >= 0.0);

        // Infeasible seeds are ignored without error.
        let bad = vec![1.0; 14];
        let s2 = Solver::new().warm_start(bad).solve(&p).unwrap();
        assert_eq!(s2.status, SolveStatus::Optimal);
    }

    #[test]
    fn warm_start_never_worsens_result() {
        let mut p = Problem::new(Sense::Minimize);
        let x = p.add_integer("x", 0.0, 50.0);
        let y = p.add_integer("y", 0.0, 50.0);
        p.set_objective(LinExpr::terms(&[(x, 3.0), (y, 2.0)]));
        p.add_constraint(LinExpr::terms(&[(x, 2.0), (y, 1.0)]), Cmp::Ge, 7.0);
        let plain = Solver::new().solve(&p).unwrap();
        let seeded = Solver::new().warm_start(vec![4.0, 0.0]).solve(&p).unwrap();
        assert!(seeded.objective <= plain.objective + 1e-9);
        assert_eq!(seeded.status, SolveStatus::Optimal);
    }

    #[test]
    fn determinism() {
        let build = || {
            let mut p = Problem::new(Sense::Maximize);
            let vars: Vec<_> = (0..8).map(|i| p.add_binary(format!("v{i}"))).collect();
            let mut obj = LinExpr::new();
            let mut c1 = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                obj.add_term(v, ((i * 3) % 7 + 1) as f64);
                c1.add_term(v, ((i * 5) % 9 + 1) as f64);
            }
            p.set_objective(obj);
            p.add_constraint(c1, Cmp::Le, 15.0);
            p
        };
        let a = Solver::new().solve(&build()).unwrap();
        let b = Solver::new().solve(&build()).unwrap();
        assert_eq!(a.values(), b.values());
        assert_eq!(a.nodes, b.nodes);
    }

    #[test]
    fn parallel_matches_serial_bitwise() {
        // The wave engine's core contract: the explored tree, the node
        // count, and every value bit are identical for any pool width.
        let build = || {
            let mut p = Problem::new(Sense::Maximize);
            let vars: Vec<_> = (0..10).map(|i| p.add_binary(format!("v{i}"))).collect();
            let mut obj = LinExpr::new();
            let mut c1 = LinExpr::new();
            let mut c2 = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                obj.add_term(v, ((i * 3) % 7 + 1) as f64);
                c1.add_term(v, ((i * 5) % 9 + 1) as f64);
                c2.add_term(v, ((i * 2) % 5 + 1) as f64);
            }
            p.set_objective(obj);
            p.add_constraint(c1, Cmp::Le, 17.0);
            p.add_constraint(c2, Cmp::Le, 12.0);
            p
        };
        let serial = Solver::new().threads(1).solve(&build()).unwrap();
        for threads in [2, 4] {
            let par = Solver::new().threads(threads).solve(&build()).unwrap();
            assert_eq!(par.status, serial.status, "threads {threads}");
            assert_eq!(
                par.objective.to_bits(),
                serial.objective.to_bits(),
                "threads {threads}"
            );
            assert_eq!(par.values(), serial.values(), "threads {threads}");
            assert_eq!(par.nodes, serial.nodes, "threads {threads}");
        }
    }

    #[test]
    fn warm_basis_chains_across_sweep_cells() {
        // Re-solving a structurally identical problem from the previous
        // cell's root basis must reproduce the cold answer and register a
        // warm hit (presolve off so the shapes line up exactly).
        let build = |budget: f64| {
            let mut p = Problem::new(Sense::Maximize);
            let vars: Vec<_> = (0..6).map(|i| p.add_binary(format!("v{i}"))).collect();
            let mut obj = LinExpr::new();
            let mut cons = LinExpr::new();
            for (i, &v) in vars.iter().enumerate() {
                obj.add_term(v, ((i * 3) % 7 + 2) as f64);
                cons.add_term(v, ((i * 5) % 9 + 1) as f64);
            }
            p.set_objective(obj);
            p.add_constraint(cons, Cmp::Le, budget);
            p
        };
        let first = Solver::new().presolve(false).solve(&build(9.0)).unwrap();
        let basis = first.root_basis().cloned().expect("root basis captured");
        let cold = Solver::new().presolve(false).solve(&build(11.0)).unwrap();
        let warm = Solver::new()
            .presolve(false)
            .warm_basis(basis)
            .solve(&build(11.0))
            .unwrap();
        assert_eq!(warm.status, cold.status);
        assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        assert_eq!(warm.values(), cold.values());
        assert!(
            warm.stats.warm_hits + warm.stats.warm_rejects > 0,
            "warm attempt recorded"
        );
    }

    #[test]
    fn solve_records_obs_counters() {
        // Counters are process-global and sibling tests may also solve
        // while this runs, so assert presence, not exact totals.
        obs::set_level(obs::Level::Summary);
        let mut p = Problem::new(Sense::Maximize);
        let x = p.add_integer("x", 0.0, 10.0);
        let y = p.add_integer("y", 0.0, 10.0);
        p.set_objective(LinExpr::terms(&[(x, 5.0), (y, 4.0)]));
        p.add_constraint(LinExpr::terms(&[(x, 6.0), (y, 4.0)]), Cmp::Le, 24.0);
        p.add_constraint(LinExpr::terms(&[(x, 1.0), (y, 2.0)]), Cmp::Le, 6.0);
        let sol = Solver::new().solve(&p).unwrap();
        assert_eq!(sol.status, SolveStatus::Optimal);

        let report = obs::snapshot();
        assert!(report.counter("mip.simplex.solves").unwrap_or(0) > 0);
        assert!(report.counter("mip.bnb.nodes").unwrap_or(0) > 0);
        assert!(report.counter("mip.bnb.incumbents").unwrap_or(0) > 0);
        assert!(report.span("mip.solve").is_some());
        obs::set_level(obs::Level::Off);
    }
}
