//! Anytime-execution control: deadlines, generation budgets, checkpoint
//! cadence.
//!
//! The resumable searches of this crate — the engine's `(N, S)` sweep
//! (checkpoint kind `engine`) and the co-design methods (kind
//! `codesign`) — are organized in *generations*: fixed work quanta
//! evaluated atomically, driven by one shared loop (`dse::sweep`). A
//! [`RunCtl`] tells such a search when to stop early and where to
//! persist progress; the search answers with a [`RunStatus`] that is
//! either `Complete` or a typed [`Partial`] carrying best-so-far
//! provenance. Stopping is cooperative and only happens **at generation
//! boundaries**, so a deadline never tears a half-observed optimizer
//! batch and a resumed run replays exactly the generations the
//! checkpoint recorded.
//!
//! Three stop conditions exist:
//!
//! * **Generation budget** ([`RunCtl::stop_after_gens`]) — fully
//!   deterministic; the reference "kill model" the resume-equivalence
//!   tests use to interrupt a run at a known point.
//! * **Deadline** ([`RunCtl::deadline`], the `--deadline` flag of
//!   `spa-gen` and `bench_dse`) — wall-clock, inherently nondeterministic
//!   in *where* it stops, but the result is still a valid best-so-far
//!   design set and the status records how far the search got.
//! * **Cancellation** ([`RunCtl::cancel_flag`]) — a shared flag another
//!   party raises, e.g. `spa-serve` on a `cancel` request or shutdown.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
// Wall-clock deadline support is the one sanctioned nondeterminism in
// this crate: it changes *when* a search stops, never *what* any
// completed generation computed. lint: allow(nondet-time)
use std::time::{Duration, Instant};

/// Why a search stopped before finishing its planned generations.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StopReason {
    /// The wall-clock deadline ([`RunCtl::deadline`]) expired.
    Deadline,
    /// The deterministic generation budget ([`RunCtl::stop_after_gens`])
    /// was exhausted.
    GenBudget,
    /// An external party raised the shared cancel flag
    /// ([`RunCtl::cancel_flag`]) — e.g. a `cancel` request or graceful
    /// shutdown in the serving layer.
    Cancelled,
}

impl std::fmt::Display for StopReason {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StopReason::Deadline => write!(f, "deadline"),
            StopReason::GenBudget => write!(f, "generation budget"),
            StopReason::Cancelled => write!(f, "cancelled"),
        }
    }
}

/// Provenance of an early stop: how much of the planned work finished.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Partial {
    /// Generations whose results are included in the returned output
    /// (restored-from-checkpoint generations count).
    pub completed_gens: u64,
    /// Generations the full search would have run.
    pub planned_gens: u64,
    /// What cut the run short.
    pub reason: StopReason,
}

/// Outcome classification of an anytime search.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunStatus {
    /// Every planned generation ran; the result equals the non-anytime
    /// API's.
    Complete,
    /// The search stopped early; the result is the best-so-far across
    /// [`Partial::completed_gens`] generations.
    Partial(Partial),
}

impl RunStatus {
    /// `true` iff the search finished all planned work.
    pub fn is_complete(&self) -> bool {
        matches!(self, RunStatus::Complete)
    }
}

/// Anytime-execution policy handed to the anytime entry points
/// ([`crate::AutoSeg::run_ctl`], [`crate::codesign::run_codesign`]).
///
/// The default ([`RunCtl::none`]) imposes nothing: no deadline, no
/// generation budget, no checkpointing — the search behaves exactly like
/// its plain counterpart.
#[derive(Debug, Clone, Default)]
pub struct RunCtl {
    // Monotonic stop instant; see the module docs for why wall-clock is
    // acceptable here. lint: allow(nondet-time)
    deadline: Option<Instant>,
    stop_after_gens: Option<u64>,
    cancel: Option<Arc<AtomicBool>>,
    checkpoint_path: Option<PathBuf>,
    checkpoint_every: u64,
    resume_from: Option<PathBuf>,
}

impl RunCtl {
    /// No limits, no checkpointing: the identity policy.
    pub fn none() -> Self {
        Self::default()
    }

    /// Stops the search (cooperatively, at the next generation boundary)
    /// once `budget` has elapsed from now.
    pub fn deadline(mut self, budget: Duration) -> Self {
        // lint: allow(nondet-time) — module-level rationale.
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Deterministic stop after exactly `gens` completed generations —
    /// the reproducible "kill" used by the resume-equivalence tests.
    pub fn stop_after_gens(mut self, gens: u64) -> Self {
        self.stop_after_gens = Some(gens);
        self
    }

    /// Shares a cancellation flag with the search: once any holder stores
    /// `true`, the search stops (cooperatively, at the next generation
    /// boundary) with [`StopReason::Cancelled`]. The serving layer uses
    /// this for client `cancel` requests and graceful shutdown.
    pub fn cancel_flag(mut self, flag: Arc<AtomicBool>) -> Self {
        self.cancel = Some(flag);
        self
    }

    /// Persists a checkpoint to `path` every `every` completed
    /// generations (and always on an early stop). `every` is clamped to
    /// at least 1.
    pub fn checkpoint(mut self, path: impl Into<PathBuf>, every: u64) -> Self {
        self.checkpoint_path = Some(path.into());
        self.checkpoint_every = every.max(1);
        self
    }

    /// Resumes from a checkpoint previously written by
    /// [`RunCtl::checkpoint`]. The run configuration (model, budget,
    /// seed, iteration counts, energy model) must match what the
    /// checkpoint recorded or the search fails with a typed mismatch.
    pub fn resume(mut self, path: impl Into<PathBuf>) -> Self {
        self.resume_from = Some(path.into());
        self
    }

    /// The checkpoint path, if checkpointing is enabled.
    pub fn checkpoint_path(&self) -> Option<&Path> {
        self.checkpoint_path.as_deref()
    }

    /// The resume source, if resuming was requested.
    pub fn resume_from(&self) -> Option<&Path> {
        self.resume_from.as_deref()
    }

    /// `true` when a checkpoint should be written after the
    /// `completed_gens`-th generation.
    pub fn should_checkpoint(&self, completed_gens: u64) -> bool {
        self.checkpoint_path.is_some()
            && completed_gens > 0
            && completed_gens % self.checkpoint_every.max(1) == 0
    }

    /// Checks the stop conditions with `completed_gens` generations done.
    /// The deterministic generation budget is checked first so that runs
    /// using it as a scripted kill are not raced by a deadline or a
    /// cancellation; cancellation outranks the deadline so a shutdown
    /// that also blows the deadline reports the explicit reason.
    pub fn should_stop(&self, completed_gens: u64) -> Option<StopReason> {
        if let Some(k) = self.stop_after_gens {
            if completed_gens >= k {
                return Some(StopReason::GenBudget);
            }
        }
        if let Some(flag) = &self.cancel {
            if flag.load(Ordering::SeqCst) {
                return Some(StopReason::Cancelled);
            }
        }
        if let Some(d) = self.deadline {
            // lint: allow(nondet-time) — module-level rationale.
            if Instant::now() >= d {
                return Some(StopReason::Deadline);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn none_never_stops_or_checkpoints() {
        let ctl = RunCtl::none();
        assert_eq!(ctl.should_stop(0), None);
        assert_eq!(ctl.should_stop(u64::MAX), None);
        assert!(!ctl.should_checkpoint(1));
        assert!(ctl.checkpoint_path().is_none());
        assert!(ctl.resume_from().is_none());
    }

    #[test]
    fn gen_budget_stops_deterministically() {
        let ctl = RunCtl::none().stop_after_gens(3);
        assert_eq!(ctl.should_stop(0), None);
        assert_eq!(ctl.should_stop(2), None);
        assert_eq!(ctl.should_stop(3), Some(StopReason::GenBudget));
        assert_eq!(ctl.should_stop(4), Some(StopReason::GenBudget));
    }

    #[test]
    fn gen_budget_outranks_deadline() {
        // An already-expired deadline plus an exhausted generation budget
        // must report the deterministic reason.
        let ctl = RunCtl::none().deadline(Duration::ZERO).stop_after_gens(0);
        assert_eq!(ctl.should_stop(0), Some(StopReason::GenBudget));
    }

    #[test]
    fn expired_deadline_stops() {
        let ctl = RunCtl::none().deadline(Duration::ZERO);
        assert_eq!(ctl.should_stop(0), Some(StopReason::Deadline));
        let far = RunCtl::none().deadline(Duration::from_secs(3600));
        assert_eq!(far.should_stop(1_000_000), None);
    }

    #[test]
    fn checkpoint_cadence() {
        let ctl = RunCtl::none().checkpoint("/tmp/x.ckpt", 3);
        assert!(!ctl.should_checkpoint(0));
        assert!(!ctl.should_checkpoint(1));
        assert!(ctl.should_checkpoint(3));
        assert!(!ctl.should_checkpoint(4));
        assert!(ctl.should_checkpoint(6));
        // every = 0 clamps to 1 rather than dividing by zero.
        let every_gen = RunCtl::none().checkpoint("/tmp/x.ckpt", 0);
        assert!(every_gen.should_checkpoint(1));
    }

    #[test]
    fn status_classification() {
        assert!(RunStatus::Complete.is_complete());
        let p = RunStatus::Partial(Partial {
            completed_gens: 2,
            planned_gens: 9,
            reason: StopReason::Deadline,
        });
        assert!(!p.is_complete());
        assert_eq!(StopReason::Deadline.to_string(), "deadline");
        assert_eq!(StopReason::GenBudget.to_string(), "generation budget");
        assert_eq!(StopReason::Cancelled.to_string(), "cancelled");
    }

    #[test]
    fn cancel_flag_stops_when_raised() {
        let flag = Arc::new(AtomicBool::new(false));
        let ctl = RunCtl::none().cancel_flag(Arc::clone(&flag));
        assert_eq!(ctl.should_stop(0), None);
        flag.store(true, Ordering::SeqCst);
        assert_eq!(ctl.should_stop(0), Some(StopReason::Cancelled));
        assert_eq!(ctl.should_stop(100), Some(StopReason::Cancelled));
    }

    #[test]
    fn cancel_outranks_deadline_but_not_gen_budget() {
        let flag = Arc::new(AtomicBool::new(true));
        let cancelled_and_late = RunCtl::none()
            .deadline(Duration::ZERO)
            .cancel_flag(Arc::clone(&flag));
        assert_eq!(
            cancelled_and_late.should_stop(0),
            Some(StopReason::Cancelled)
        );
        let all_three = RunCtl::none()
            .deadline(Duration::ZERO)
            .cancel_flag(flag)
            .stop_after_gens(0);
        assert_eq!(all_three.should_stop(0), Some(StopReason::GenBudget));
    }
}
