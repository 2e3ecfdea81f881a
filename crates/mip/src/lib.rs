//! A small, dependency-free mixed-integer linear programming (MILP) solver.
//!
//! DeepBurning-SEG formulates DNN model segmentation as a MIP (Section V-A
//! of the paper) and solves it with Gurobi. This crate is the from-scratch
//! substitute: a dense two-phase primal simplex LP solver wrapped in a
//! best-first branch-and-bound search over the integer variables.
//!
//! It is sized for the segmentation problems AutoSeg generates (hundreds of
//! binaries, a few hundred constraints), not for industrial instances.
//!
//! # Example
//!
//! A tiny knapsack: maximize `3x + 4y + 2z` with `2x + 3y + z <= 4`.
//!
//! ```
//! use mip::{Problem, Sense, Cmp, LinExpr, Solver, SolveStatus};
//!
//! let mut p = Problem::new(Sense::Maximize);
//! let x = p.add_binary("x");
//! let y = p.add_binary("y");
//! let z = p.add_binary("z");
//! p.set_objective(LinExpr::terms(&[(x, 3.0), (y, 4.0), (z, 2.0)]));
//! p.add_constraint(LinExpr::terms(&[(x, 2.0), (y, 3.0), (z, 1.0)]), Cmp::Le, 4.0);
//!
//! let sol = Solver::new().solve(&p)?;
//! assert_eq!(sol.status, SolveStatus::Optimal);
//! assert!((sol.objective - 6.0).abs() < 1e-6); // y + z
//! # Ok::<(), mip::MipError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

mod branch;
mod expr;
mod presolve;
mod problem;
mod simplex;
mod warmstart;

pub use branch::{SolveStats, Solver, SolverLimits};
pub use expr::{LinExpr, VarId};
pub use presolve::{presolve, Presolved, PresolveResult, PresolveStats};
pub use problem::{Cmp, Constraint, MipError, Problem, Sense, VarKind};
pub use simplex::{Basis, LpOutcome};
pub use warmstart::WarmReject;

/// Termination status of a solve.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveStatus {
    /// Proven optimal within tolerances.
    Optimal,
    /// A feasible incumbent was found but a limit stopped the proof of
    /// optimality.
    Feasible,
    /// The problem has no feasible solution.
    Infeasible,
    /// The relaxation is unbounded in the optimization direction.
    Unbounded,
    /// A limit was hit before any feasible solution was found.
    LimitReached,
}

/// Result of a MILP solve.
#[derive(Debug, Clone)]
pub struct Solution {
    /// Termination status.
    pub status: SolveStatus,
    /// Objective value of the incumbent (in the problem's original sense).
    /// Meaningful only when `status` is `Optimal` or `Feasible`.
    pub objective: f64,
    /// Value of every variable in the incumbent.
    values: Vec<f64>,
    /// Number of branch-and-bound nodes explored (`stats.nodes`,
    /// duplicated here for convenience).
    pub nodes: u64,
    /// Per-solve engine statistics (LP solves, pivots, warm-start hit
    /// counts, presolve reductions, ...).
    pub stats: SolveStats,
    /// Optimal basis of the root relaxation, when one was reached.
    root_basis: Option<Basis>,
}

impl Solution {
    pub(crate) fn new(
        status: SolveStatus,
        objective: f64,
        values: Vec<f64>,
        stats: SolveStats,
        root_basis: Option<Basis>,
    ) -> Self {
        Self {
            status,
            objective,
            values,
            nodes: stats.nodes,
            stats,
            root_basis,
        }
    }

    /// Value of a variable in the incumbent solution.
    ///
    /// # Panics
    ///
    /// Panics if `var` does not belong to the solved problem.
    pub fn value(&self, var: VarId) -> f64 {
        self.values[var.index()]
    }

    /// Value of a variable rounded to the nearest integer (useful for
    /// binaries, where LP arithmetic leaves values like `0.9999999`).
    pub fn int_value(&self, var: VarId) -> i64 {
        self.value(var).round() as i64 // saturating round of an LP value; lint: allow(as-cast)
    }

    /// `true` if the status carries a usable assignment.
    pub fn has_solution(&self) -> bool {
        matches!(self.status, SolveStatus::Optimal | SolveStatus::Feasible)
    }

    /// All variable values.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Optimal basis of the root relaxation, if the root solved to
    /// optimality. Feed it to [`Solver::warm_basis`] when solving the
    /// next structurally identical problem of a sweep.
    pub fn root_basis(&self) -> Option<&Basis> {
        self.root_basis.as_ref()
    }
}
