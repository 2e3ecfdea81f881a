//! The one anytime driver behind the resumable searches: the engine's
//! `(N, S)` sweep (checkpoint kind `engine`) and the co-design methods
//! (kind `codesign`).
//!
//! A search hands [`Sweep`] its configuration and a generation body; the
//! driver owns the rest:
//!
//! * **The checkpoint layout.** The caller's configuration `meta` lines
//!   in the caller's order, then `energy_model`, `gens_done` and
//!   `planned_gens`; then the caller's sections. Checkpoints already on
//!   disk (`spa-gen --resume`, `spa-serve`'s `SERVE_CACHE_DIR`) resume
//!   only while this layout holds.
//! * **Resume.** Kind and configuration are checked with
//!   [`Checkpoint::require`], and `gens_done` must not exceed the planned
//!   count. The caller then checks its own sections against `gens_done`
//!   and ignores any it does not read, such as the `cache` section older
//!   checkpoints carry: evaluation is deterministic, so a resumed search
//!   recomputes what the cost cache held.
//! * **The loop** over generations `from..planned`: a stop condition is
//!   checked before each generation (saving and returning `Partial`), a
//!   checkpoint is saved after each one the cadence asks for, and a
//!   finished run saves once more and returns `Complete`.

use super::checkpoint::{Checkpoint, CheckpointError};
use super::control::{Partial, RunCtl, RunStatus};
use crate::error::AutoSegError;

/// A search's named checkpoint sections, in the order they are written.
pub(crate) type Sections = Vec<(String, Vec<String>)>;

/// One anytime search: its checkpoint kind and configuration, its policy
/// and its planned generation count.
pub(crate) struct Sweep<'a> {
    kind: &'static str,
    /// Configuration `meta` lines, `energy_model` last.
    config: Vec<(&'static str, String)>,
    ctl: &'a RunCtl,
    planned: u64,
}

impl<'a> Sweep<'a> {
    /// A search of `kind` whose evaluations use the energy model with
    /// fingerprint `energy_model`.
    pub(crate) fn new(
        kind: &'static str,
        mut config: Vec<(&'static str, String)>,
        energy_model: u64,
        ctl: &'a RunCtl,
        planned: u64,
    ) -> Self {
        config.push(("energy_model", format!("{energy_model:016x}")));
        Self {
            kind,
            config,
            ctl,
            planned,
        }
    }

    /// Loads the ctl's resume source, if any, and returns it with its
    /// `gens_done`.
    ///
    /// # Errors
    ///
    /// [`CheckpointError::Mismatch`] when kind or configuration differ,
    /// [`CheckpointError::Corrupt`] when `gens_done` is missing or above
    /// the planned count, plus the load errors of [`Checkpoint::load`].
    pub(crate) fn resume(&self) -> Result<Option<(Checkpoint, u64)>, CheckpointError> {
        let Some(path) = self.ctl.resume_from() else {
            return Ok(None);
        };
        let ck = Checkpoint::load(path)?;
        let expect: Vec<(&str, &str)> = self.config.iter().map(|(k, v)| (*k, v.as_str())).collect();
        ck.require(self.kind, &expect)?;
        let gens = ck.meta_u64("gens_done")?;
        if gens > self.planned {
            return Err(CheckpointError::Corrupt {
                path: path.display().to_string(),
                reason: format!("gens_done {gens} exceeds the {} planned", self.planned),
            });
        }
        obs::event(
            "checkpoint.resume",
            &[("kind", self.kind.into()), ("gens", gens.into())],
        );
        Ok(Some((ck, gens)))
    }

    /// Runs generations `from..planned` of `state`: `generation(state, g)`
    /// evaluates generation `g`, and `sections(state)` renders what a
    /// checkpoint records of it.
    ///
    /// # Errors
    ///
    /// Whatever `generation` returns, plus [`AutoSegError::Checkpoint`]
    /// when a checkpoint cannot be written.
    pub(crate) fn run<S>(
        &self,
        state: &mut S,
        from: u64,
        mut generation: impl FnMut(&mut S, u64) -> Result<(), AutoSegError>,
        sections: impl Fn(&S) -> Sections,
    ) -> Result<RunStatus, AutoSegError> {
        for g in from..self.planned {
            if let Some(reason) = self.ctl.should_stop(g) {
                self.save(g, state, &sections)?;
                return Ok(RunStatus::Partial(Partial {
                    completed_gens: g,
                    planned_gens: self.planned,
                    reason,
                }));
            }
            generation(state, g)?;
            if self.ctl.should_checkpoint(g + 1) {
                self.save(g + 1, state, &sections)?;
            }
        }
        // Final checkpoint: resuming a finished run is then a cheap no-op
        // that returns the same Complete result.
        self.save(self.planned, state, &sections)?;
        Ok(RunStatus::Complete)
    }

    fn save<S>(
        &self,
        gens: u64,
        state: &S,
        sections: &impl Fn(&S) -> Sections,
    ) -> Result<(), CheckpointError> {
        let Some(path) = self.ctl.checkpoint_path() else {
            return Ok(());
        };
        let mut ck = Checkpoint::new(self.kind);
        for (k, v) in &self.config {
            ck.set_meta(k, v);
        }
        ck.set_meta("gens_done", &gens.to_string());
        ck.set_meta("planned_gens", &self.planned.to_string());
        for (name, lines) in sections(state) {
            ck.push_section(&name, lines);
        }
        ck.save(path)?;
        obs::event(
            "checkpoint.save",
            &[("kind", self.kind.into()), ("gens", gens.into())],
        );
        Ok(())
    }
}
