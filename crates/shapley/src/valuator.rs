//! The unified valuation-method interface.
//!
//! The paper treats ComFedSV, FedSV, TMC, group testing, and the exact
//! Shapley value as interchangeable estimators over one utility oracle;
//! this module is that framing as a type. The stack has three layers:
//!
//! 1. **[`Valuator`]** (this module) — a strategy object that turns a
//!    [`UtilityOracle`] into per-client values. Implemented by
//!    [`ComFedSv`](crate::pipeline::ComFedSv),
//!    [`FedSv`](crate::fedsv::FedSv), [`Tmc`](crate::tmc::Tmc),
//!    [`GroupTesting`](crate::group_testing::GroupTesting), and
//!    [`ExactShapley`](crate::pipeline::ExactShapley).
//! 2. **[`UtilityOracle`]** (`fedval_fl`) — the batched, cached
//!    evaluation of round utilities `U_t(S)` over a recorded run.
//! 3. **[`MatrixCompleter`](fedval_mc::MatrixCompleter)** (`fedval_mc`) —
//!    the pluggable solver that ComFedSV uses to fill in unobserved
//!    cells.
//!
//! Every implementation returns a [`ValuationReport`] (values plus
//! [`Diagnostics`]) or a typed
//! [`ValuationError`] — invalid
//! configurations never panic. Methods are driven either directly
//! (`valuator.value(&oracle, &mut RunContext::new())`) or through a
//! [`ValuationSession`](crate::session::ValuationSession), which owns
//! seeding, progress callbacks, and the built-in methods by name.

use crate::error::ValuationError;
use crate::fairness::ReferenceReport;
use fedval_fl::UtilityOracle;
use fedval_runtime::CancelToken;

/// How far along the reporting method is — the fine-grained payload of a
/// [`ProgressEvent`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Progress<'a> {
    /// A coarse stage boundary ("plan", "evaluate", "complete", …).
    Stage,
    /// One Monte-Carlo permutation finished (`index` of `total`,
    /// counting from 1) — emitted by TMC and FedSV-MC walks.
    Permutation {
        /// Permutations finished so far.
        index: usize,
        /// Total permutation budget of the run.
        total: usize,
    },
    /// One completion-solver sweep/epoch finished, with its objective —
    /// bridged from the solver's
    /// [`SolveHooks`](fedval_mc::SolveHooks) by the ComFedSV pipeline.
    Sweep {
        /// Sweep index, counting from 1.
        index: usize,
        /// Objective after the sweep.
        objective: f64,
    },
    /// The `run_all` envelope: method `index` of `total` (1-based) is
    /// about to start. Emitted by
    /// [`ValuationSession::run_all`](crate::session::ValuationSession::run_all)
    /// before each method, so CLIs can draw an overall progress bar
    /// around the per-method streams.
    Method {
        /// Position of the starting method, counting from 1.
        index: usize,
        /// Number of methods in the sweep.
        total: usize,
        /// Registry key of the starting method (also in
        /// [`ProgressEvent::method`]).
        name: &'a str,
    },
}

/// A progress notification emitted while a method runs.
#[derive(Debug, Clone, Copy)]
pub struct ProgressEvent<'a> {
    /// Which method is running ([`Valuator::name`]).
    pub method: &'a str,
    /// What it is doing right now ("plan", "evaluate", "complete", …).
    pub stage: &'a str,
    /// Fine-grained position within the stage.
    pub progress: Progress<'a>,
}

/// Per-run state a [`Valuator`] receives: the session-level seed
/// override, the progress sink and the cancellation token. A default
/// context (no override, no callback, fresh token) reproduces the
/// method's standalone behavior bit-for-bit. The numeric tier is the
/// oracle's: a session values on an oracle pinned to its tier.
#[derive(Default)]
pub struct RunContext<'a> {
    seed: Option<u64>,
    progress: Option<&'a mut dyn FnMut(ProgressEvent<'_>)>,
    cancel: CancelToken,
}

impl<'a> RunContext<'a> {
    /// A context with no seed override and no progress callback.
    pub fn new() -> Self {
        Self::default()
    }

    /// Overrides every method's own seed with `seed` (what
    /// [`ValuationSession::builder().seed(…)`](crate::session::ValuationSessionBuilder::seed)
    /// sets).
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Attaches a progress callback.
    pub fn with_progress(mut self, callback: &'a mut dyn FnMut(ProgressEvent<'_>)) -> Self {
        self.progress = Some(callback);
        self
    }

    /// Shares `token` as this run's cancellation flag (a session hands
    /// in the one
    /// [`ValuationSessionBuilder::cancel_token`](crate::session::ValuationSessionBuilder::cancel_token)
    /// gave it).
    pub fn with_cancel(mut self, token: CancelToken) -> Self {
        self.cancel = token;
        self
    }

    /// The run's cancellation token — methods pass it down to
    /// [`UtilityOracle::try_evaluate_plan`] and
    /// [`SolveHooks::with_cancel`](fedval_mc::SolveHooks::with_cancel).
    pub fn cancel_token(&self) -> &CancelToken {
        &self.cancel
    }

    /// `Err(ValuationError::Cancelled)` once the run's token is set —
    /// methods call this at permutation/batch boundaries
    /// (`ctx.check_cancelled()?`).
    pub fn check_cancelled(&self) -> Result<(), ValuationError> {
        self.cancel.check().map_err(ValuationError::from)
    }

    /// The seed a method should use: the session override if present,
    /// otherwise the method's own `default`.
    pub fn seed_or(&self, default: u64) -> u64 {
        self.seed.unwrap_or(default)
    }

    /// Emits a coarse stage-boundary event (no-op without a callback).
    pub fn emit(&mut self, method: &str, stage: &str) {
        self.emit_progress(method, stage, Progress::Stage);
    }

    /// Emits a permutation-level event (`index` of `total`, from 1).
    pub fn emit_permutation(&mut self, method: &str, index: usize, total: usize) {
        self.emit_progress(
            method,
            "permutation",
            Progress::Permutation { index, total },
        );
    }

    /// Emits a completion-sweep event.
    pub fn emit_sweep(&mut self, method: &str, index: usize, objective: f64) {
        self.emit_progress(method, "sweep", Progress::Sweep { index, objective });
    }

    /// Emits an event with an explicit [`Progress`] payload.
    pub fn emit_progress(&mut self, method: &str, stage: &str, progress: Progress<'_>) {
        if let Some(cb) = self.progress.as_mut() {
            cb(ProgressEvent {
                method,
                stage,
                progress,
            });
        }
    }
}

/// Everything a valuation run reports beyond the values themselves.
#[derive(Debug, Clone, Default)]
pub struct Diagnostics {
    /// Model loss evaluations performed during this run (the paper's
    /// Fig.-8 cost unit; cache hits on the oracle are free and excluded).
    pub cells_evaluated: u64,
    /// Utility cells this run needed that were already resident in the
    /// oracle's cache (private table, shared store, or disk-warmed) —
    /// work *avoided*. Reported separately so `cells_evaluated` keeps
    /// its strict "losses actually computed" meaning.
    pub cell_hits: u64,
    /// Completion-solver objective trajectory (empty for methods that do
    /// not complete a matrix).
    pub objective_trace: Vec<f64>,
    /// Permutations actually walked (0 for non-permutation methods).
    pub permutations_used: usize,
    /// Fraction of marginal evaluations skipped by truncation (TMC only).
    pub truncated_fraction: Option<f64>,
    /// ε-fairness against a reference valuation, filled in by the session
    /// when a ground truth was supplied.
    pub fairness: Option<ReferenceReport>,
}

/// The outcome of one valuation run: per-client values plus diagnostics.
#[derive(Debug, Clone)]
pub struct ValuationReport {
    /// Which method produced this ([`Valuator::name`]).
    pub method: &'static str,
    /// One value per client, indexed by client id.
    pub values: Vec<f64>,
    /// Run diagnostics.
    pub diagnostics: Diagnostics,
}

/// A data-valuation strategy over a recorded federated run.
///
/// Object-safe: the session builds its methods as `Box<dyn Valuator>`
/// and sweeps them uniformly. Implementations validate their
/// configuration against the oracle and return typed errors; they must
/// be deterministic given the oracle and the effective seed.
pub trait Valuator {
    /// Stable lowercase method key ("comfedsv", "fedsv-mc", "tmc", …).
    fn name(&self) -> &'static str;

    /// Values every client of `oracle`'s world.
    fn value(
        &self,
        oracle: &UtilityOracle<'_>,
        ctx: &mut RunContext<'_>,
    ) -> Result<ValuationReport, ValuationError>;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn context_seed_override() {
        let ctx = RunContext::new();
        assert_eq!(ctx.seed_or(7), 7);
        let ctx = RunContext::new().with_seed(42);
        assert_eq!(ctx.seed_or(7), 42);
    }

    #[test]
    fn context_emits_to_callback() {
        let mut events: Vec<(String, String)> = Vec::new();
        let mut sink = |e: ProgressEvent<'_>| {
            events.push((e.method.to_string(), e.stage.to_string()));
        };
        {
            let mut ctx = RunContext::new().with_progress(&mut sink);
            ctx.emit("tmc", "walk");
            ctx.emit("tmc", "done");
        }
        assert_eq!(events.len(), 2);
        assert_eq!(events[0], ("tmc".into(), "walk".into()));
    }

    #[test]
    fn emit_without_callback_is_a_noop() {
        let mut ctx = RunContext::new();
        ctx.emit("fedsv", "stage");
        ctx.emit_permutation("tmc", 1, 10);
        ctx.emit_sweep("comfedsv", 1, 0.5);
    }

    #[test]
    fn fine_grained_events_carry_their_payload() {
        // Progress borrows from the event (the Method variant carries
        // the method name), so the sink stores an owned rendering.
        let mut events: Vec<(String, String)> = Vec::new();
        let mut sink = |e: ProgressEvent<'_>| {
            events.push((e.stage.to_string(), format!("{:?}", e.progress)));
        };
        {
            let mut ctx = RunContext::new().with_progress(&mut sink);
            ctx.emit("tmc", "walk");
            ctx.emit_permutation("tmc", 3, 20);
            ctx.emit_sweep("comfedsv", 2, 1.25);
            ctx.emit_progress(
                "fedsv",
                "method",
                Progress::Method {
                    index: 2,
                    total: 7,
                    name: "fedsv",
                },
            );
        }
        assert_eq!(events[0], ("walk".into(), format!("{:?}", Progress::Stage)));
        assert_eq!(
            events[1],
            (
                "permutation".into(),
                format!(
                    "{:?}",
                    Progress::Permutation {
                        index: 3,
                        total: 20
                    }
                )
            )
        );
        assert_eq!(
            events[2],
            (
                "sweep".into(),
                format!(
                    "{:?}",
                    Progress::Sweep {
                        index: 2,
                        objective: 1.25
                    }
                )
            )
        );
        assert_eq!(
            events[3],
            (
                "method".into(),
                format!(
                    "{:?}",
                    Progress::Method {
                        index: 2,
                        total: 7,
                        name: "fedsv",
                    }
                )
            )
        );
    }

    #[test]
    fn default_context_is_never_cancelled() {
        let ctx = RunContext::new();
        assert!(ctx.check_cancelled().is_ok());
        let token = ctx.cancel_token().clone();
        token.cancel();
        assert_eq!(ctx.check_cancelled(), Err(ValuationError::Cancelled));
    }
}
