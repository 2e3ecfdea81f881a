//! AutoSeg: the HW/SW co-design engine of DeepBurning-SEG (Sections III
//! and V).
//!
//! Given a DNN model, a hardware resource budget and a design goal, AutoSeg
//! produces a customized [`spa_arch::SpaDesign`] in two decoupled steps:
//!
//! 1. **Model segmentation** ([`segment`]): partition the model's work
//!    items into segments and bind each item to a PU, maximizing the
//!    minimum segment CTC ratio and the similarity of per-PU operation
//!    distributions across segments (the paper's MIP of Eq. 2–11). Two
//!    exact-objective engines are provided — a MILP formulation solved with
//!    the `mip` crate and a chain dynamic program that scales to very deep
//!    models — plus random/Bayesian baselines.
//! 2. **Design generation** ([`allocate`]): the heuristic resource
//!    allocation of Algorithm 1 — PE quotas from the normalized operation
//!    distribution, bandwidth-driven sizing, power-of-two rounding, buffer
//!    minimums, dataflow selection, batch scaling and the
//!    upscale/downscale loop.
//!
//! The [`AutoSeg`] entry point enumerates `(N PUs, S segments)`
//! combinations, runs both steps and keeps the best design under the goal.
//!
//! # Anytime execution
//!
//! The two resumable searches — the engine sweep ([`AutoSeg::run_ctl`],
//! checkpoint kind `engine`) and the [`codesign`] methods
//! ([`codesign::run_codesign`], kind `codesign`) — run on one
//! generation loop driven by a [`RunCtl`]: cooperative deadlines,
//! cancellation and generation budgets (a typed [`RunStatus::Partial`]
//! with the best-so-far result instead of lost work), periodic versioned
//! [`Checkpoint`]s, and `--resume` that reconstructs optimizer state by
//! transcript replay so an interrupted-then-resumed search is
//! bit-identical to an uninterrupted one. See [`dse::control`] and
//! [`dse::checkpoint`].
//!
//! # Example
//!
//! ```
//! use autoseg::{AutoSeg, DesignGoal};
//! use nnmodel::zoo;
//! use spa_arch::HwBudget;
//!
//! let outcome = AutoSeg::new(HwBudget::eyeriss())
//!     .design_goal(DesignGoal::Latency)
//!     .max_pus(4)
//!     .run(&zoo::squeezenet1_0())?;
//! assert!(outcome.design.fits(&HwBudget::eyeriss()));
//! assert!(outcome.report.seconds > 0.0);
//! # Ok::<(), autoseg::AutoSegError>(())
//! ```

#![warn(missing_docs)]
#![warn(missing_debug_implementations)]

pub mod allocate;
pub mod codesign;
pub mod dse;
mod engine;
mod error;
pub mod generality;
pub mod multi;
pub mod segment;

pub use dse::checkpoint::{Checkpoint, CheckpointError};
pub use dse::control::{Partial, RunCtl, RunStatus, StopReason};
pub use engine::{AnytimeOutcome, AutoSeg, AutoSegOutcome, DesignGoal};
pub use error::AutoSegError;
