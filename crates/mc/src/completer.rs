//! The pluggable completion-solver interface.
//!
//! Every factorization solver in this crate (ALS, CCD++, SGD) minimizes
//! the same objective (9)/(13) over the same sparse
//! [`CompletionProblem`], so the valuation layer above should not care
//! which one runs. [`MatrixCompleter`] is the object-safe contract they
//! all satisfy: validate the configuration, solve, and return a
//! [`Completion`] (factors + objective trajectory) or a typed
//! [`CompletionError`] — never panic. Consumers hold a
//! `Box<dyn MatrixCompleter>` and stay solver-agnostic.
//!
//! The solver *configuration types* are the completers: [`AlsConfig`],
//! [`CcdConfig`], and [`SgdConfig`] each implement the trait, so a config
//! value doubles as a solver object.
//!
//! [`AlsConfig`]: crate::als::AlsConfig
//! [`CcdConfig`]: crate::ccd::CcdConfig
//! [`SgdConfig`]: crate::sgd::SgdConfig

use crate::factors::Factors;
use crate::problem::CompletionProblem;
use fedval_runtime::{CancelToken, Cancelled};
use std::fmt;

/// Typed failure modes of a completion solve.
#[derive(Debug, Clone, PartialEq)]
pub enum CompletionError {
    /// The factor rank was zero (every solver needs `r ≥ 1`).
    InvalidRank,
    /// The regularization weight is outside the solver's admissible range
    /// (ALS and CCD++ need a finite `λ > 0` for well-posed ridge
    /// sub-problems; SGD accepts `λ ≥ 0`).
    InvalidLambda {
        /// The rejected value.
        lambda: f64,
    },
    /// The objective became non-finite during the solve (step size too
    /// large, pathological data, …).
    SolverDiverged {
        /// Which solver diverged (its [`MatrixCompleter::name`]).
        solver: &'static str,
        /// Sweep/epoch index at which the objective first left ℝ.
        sweep: usize,
    },
    /// The solve was cancelled through the [`SolveHooks`] cancel token
    /// before it converged (observed at sweep boundaries).
    Cancelled,
}

impl fmt::Display for CompletionError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompletionError::InvalidRank => write!(f, "completion rank must be positive"),
            CompletionError::InvalidLambda { lambda } => {
                write!(f, "regularization lambda {lambda} is not admissible")
            }
            CompletionError::SolverDiverged { solver, sweep } => {
                write!(f, "{solver} solver diverged at sweep {sweep}")
            }
            CompletionError::Cancelled => write!(f, "completion solve was cancelled"),
        }
    }
}

impl std::error::Error for CompletionError {}

impl From<Cancelled> for CompletionError {
    fn from(_: Cancelled) -> Self {
        CompletionError::Cancelled
    }
}

/// Per-solve observation and cancellation hooks threaded through
/// [`MatrixCompleter::complete_with`].
///
/// The default value ([`SolveHooks::new`]) observes nothing and never
/// cancels — [`MatrixCompleter::complete`] is exactly
/// `complete_with(problem, SolveHooks::new())`.
#[derive(Default)]
pub struct SolveHooks<'a> {
    on_sweep: Option<&'a mut dyn FnMut(usize, f64)>,
    cancel: Option<&'a CancelToken>,
}

impl<'a> SolveHooks<'a> {
    /// No observer, no cancellation.
    pub fn new() -> Self {
        SolveHooks::default()
    }

    /// Calls `observer(sweep_index, objective)` after every completed
    /// sweep/epoch (`sweep_index` counts from 1; the post-init objective
    /// is not reported — it is `objective_trace[0]` in the result).
    pub fn with_on_sweep(mut self, observer: &'a mut dyn FnMut(usize, f64)) -> Self {
        self.on_sweep = Some(observer);
        self
    }

    /// Observes `cancel` at sweep boundaries; a cancelled solve returns
    /// [`CompletionError::Cancelled`] instead of partial factors.
    pub fn with_cancel(mut self, cancel: &'a CancelToken) -> Self {
        self.cancel = Some(cancel);
        self
    }

    /// Reports one finished sweep to the observer (no-op without one).
    pub(crate) fn sweep(&mut self, index: usize, objective: f64) {
        if let Some(observer) = self.on_sweep.as_mut() {
            observer(index, objective);
        }
    }

    /// `Err(Cancelled)` once the token (if any) is cancelled.
    pub(crate) fn check(&self) -> Result<(), CompletionError> {
        match self.cancel {
            Some(token) => token.check().map_err(CompletionError::from),
            None => Ok(()),
        }
    }
}

/// A solved completion: the `(W, H)` factor pair plus the objective value
/// after initialization and after every sweep (the "residual trajectory"
/// surfaced by valuation diagnostics).
#[derive(Debug, Clone)]
pub struct Completion {
    /// Solved factors.
    pub factors: Factors,
    /// Objective trajectory; `objective_trace[0]` is the post-init value.
    pub objective_trace: Vec<f64>,
}

/// Object-safe interface over the factorization solvers.
///
/// Implementations validate their configuration and return typed errors
/// instead of panicking, so a `Box<dyn MatrixCompleter>` can be driven by
/// user-supplied settings safely.
pub trait MatrixCompleter: Send + Sync {
    /// Short lowercase solver name ("als", "ccd", "sgd", …).
    fn name(&self) -> &'static str;

    /// Solves `problem`, returning factors and the objective trajectory.
    fn complete(&self, problem: &CompletionProblem) -> Result<Completion, CompletionError> {
        self.complete_with(problem, SolveHooks::new())
    }

    /// [`Self::complete`] with per-sweep observation and cooperative
    /// cancellation — the valuation layer bridges its progress stream
    /// and cancel token through these hooks.
    fn complete_with(
        &self,
        problem: &CompletionProblem,
        hooks: SolveHooks<'_>,
    ) -> Result<Completion, CompletionError>;
}

/// Shared post-solve check: a non-finite objective anywhere in the
/// trajectory means the solver diverged.
pub(crate) fn check_finite(
    solver: &'static str,
    factors: Factors,
    objective_trace: Vec<f64>,
) -> Result<Completion, CompletionError> {
    if let Some(sweep) = objective_trace.iter().position(|o| !o.is_finite()) {
        return Err(CompletionError::SolverDiverged { solver, sweep });
    }
    Ok(Completion {
        factors,
        objective_trace,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::als::AlsConfig;
    use crate::ccd::CcdConfig;
    use crate::sgd::SgdConfig;

    fn tiny_problem() -> CompletionProblem {
        let mut p = CompletionProblem::new(3);
        p.add_observation(0, 1, 1.0);
        p.add_observation(1, 1, 1.5);
        p.add_observation(2, 3, -0.5);
        p
    }

    #[test]
    fn all_solvers_run_behind_the_trait() {
        let p = tiny_problem();
        let solvers: Vec<Box<dyn MatrixCompleter>> = vec![
            Box::new(AlsConfig::new(2)),
            Box::new(CcdConfig::new(2)),
            Box::new(SgdConfig::new(2).with_epochs(20)),
        ];
        for s in solvers {
            let c = s.complete(&p).unwrap();
            assert_eq!(c.factors.rank(), 2, "{}", s.name());
            assert!(c.objective_trace.iter().all(|o| o.is_finite()));
        }
    }

    #[test]
    fn zero_rank_is_a_typed_error() {
        let p = tiny_problem();
        for s in [
            &AlsConfig::new(0) as &dyn MatrixCompleter,
            &CcdConfig::new(0),
            &SgdConfig::new(0),
        ] {
            assert!(
                matches!(s.complete(&p), Err(CompletionError::InvalidRank)),
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn infinite_lambda_is_rejected_by_the_ridge_solvers() {
        // λ = +∞ is positive, but no ridge system with it factors.
        let p = tiny_problem();
        for s in [
            &AlsConfig::new(2).with_lambda(f64::INFINITY) as &dyn MatrixCompleter,
            &CcdConfig::new(2).with_lambda(f64::INFINITY),
        ] {
            assert_eq!(
                s.complete(&p).unwrap_err(),
                CompletionError::InvalidLambda {
                    lambda: f64::INFINITY
                },
                "{}",
                s.name()
            );
        }
    }

    #[test]
    fn overflowing_observation_is_divergence_not_a_panic() {
        // 1e200 is finite, but its square (the initial objective) and the
        // ALS Gram it feeds overflow.
        let mut p = CompletionProblem::new(3);
        p.add_observation(0, 1, 1e200);
        p.add_observation(1, 1, 1.5);
        p.add_observation(2, 3, -0.5);
        for s in [
            &AlsConfig::new(2) as &dyn MatrixCompleter,
            &CcdConfig::new(2),
        ] {
            assert_eq!(
                s.complete(&p).unwrap_err(),
                CompletionError::SolverDiverged {
                    solver: s.name(),
                    sweep: 0
                },
            );
        }
    }

    #[test]
    fn divergent_sgd_is_reported_not_panicked() {
        // An absurd learning rate makes SGD blow up to infinity.
        let mut p = CompletionProblem::new(4);
        for i in 0..4u64 {
            for j in 0..4u64 {
                p.add_observation(i as usize, j, 10.0);
            }
        }
        let mut cfg = SgdConfig::new(3).with_epochs(200);
        cfg.learning_rate = 1e6;
        match cfg.complete(&p) {
            Err(CompletionError::SolverDiverged { solver: "sgd", .. }) => {}
            other => panic!("expected divergence, got {other:?}"),
        }
    }

    #[test]
    fn sweep_observer_sees_every_epoch() {
        let p = tiny_problem();
        let mut sweeps: Vec<(usize, f64)> = Vec::new();
        let mut observer = |i: usize, obj: f64| sweeps.push((i, obj));
        let c = AlsConfig::new(2)
            .complete_with(&p, SolveHooks::new().with_on_sweep(&mut observer))
            .unwrap();
        // One event per post-init trajectory entry, indices from 1, and
        // the reported objectives are exactly the trajectory.
        assert_eq!(sweeps.len(), c.objective_trace.len() - 1);
        for (k, &(i, obj)) in sweeps.iter().enumerate() {
            assert_eq!(i, k + 1);
            assert_eq!(obj.to_bits(), c.objective_trace[k + 1].to_bits());
        }
    }

    #[test]
    fn cancelled_solve_is_a_typed_error() {
        use fedval_runtime::CancelToken;
        let p = tiny_problem();
        let token = CancelToken::new();
        token.cancel();
        for s in [
            &AlsConfig::new(2) as &dyn MatrixCompleter,
            &CcdConfig::new(2),
            &SgdConfig::new(2),
        ] {
            assert_eq!(
                s.complete_with(&p, SolveHooks::new().with_cancel(&token))
                    .unwrap_err(),
                CompletionError::Cancelled,
                "{}",
                s.name()
            );
        }
        // Cancelling from the sweep observer stops at the next boundary
        // (SGD runs a fixed epoch budget, so the cut point is exact).
        let token = CancelToken::new();
        let mut seen = 0usize;
        let mut observer = |_: usize, _: f64| {
            seen += 1;
            if seen == 2 {
                token.cancel();
            }
        };
        let hooks = SolveHooks::new()
            .with_on_sweep(&mut observer)
            .with_cancel(&token);
        let err = SgdConfig::new(2).with_epochs(10).complete_with(&p, hooks);
        assert_eq!(err.unwrap_err(), CompletionError::Cancelled);
        assert_eq!(seen, 2, "solve stopped within one epoch of cancellation");
    }

    #[test]
    fn errors_display_human_readable() {
        let e = CompletionError::InvalidLambda { lambda: -1.0 };
        assert!(e.to_string().contains("-1"));
        let e = CompletionError::SolverDiverged {
            solver: "sgd",
            sweep: 3,
        };
        assert!(e.to_string().contains("sgd"));
    }
}
