//! Stochastic-gradient solver for the factorization problem.
//!
//! A second, independent optimizer for cross-checking ALS (the two must
//! agree on recovered entries for well-posed problems) and for very large
//! column counts where the per-column ridge solves dominate.
//!
//! Uses the standard biased-per-entry regularization: for each observed
//! entry the factors are shrunk by `λ / n_obs(row or col)` so a full epoch
//! applies the same total shrinkage as the global objective.
//!
//! The step size follows a configurable [`StepSchedule`]. The default,
//! [`StepSchedule::AdaptiveBackoff`], keeps the step at the configured
//! `learning_rate` while the objective decreases and shrinks it only on
//! an epoch that *increases* the objective — replacing the old
//! unconditional `lr / (1 + epoch/50)` decay, which starved the solver
//! long before it reached the ALS/CCD basin and left it stalled an
//! order of magnitude above their objective.

use crate::completer::{check_finite, Completion, CompletionError, MatrixCompleter, SolveHooks};
use crate::factors::Factors;
use crate::problem::CompletionProblem;
use fedval_linalg::Matrix;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::Rng;
use rand::SeedableRng;

/// How the SGD step size evolves across epochs.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum StepSchedule {
    /// The configured `learning_rate`, every epoch.
    Constant,
    /// `learning_rate / √(1 + epoch)` — the classical diminishing-step
    /// guarantee, for workloads where monotone decay is wanted.
    InvSqrt,
    /// Hold the step at `learning_rate` while the objective decreases;
    /// multiply it by `factor` after any epoch whose objective is not an
    /// improvement (including a non-finite one). Greedy but effective:
    /// the step stays large through the easy descent and only shrinks
    /// when it actually overshoots.
    AdaptiveBackoff {
        /// Multiplier applied on a non-improving epoch (`0 < factor < 1`).
        factor: f64,
    },
}

impl Default for StepSchedule {
    fn default() -> Self {
        StepSchedule::AdaptiveBackoff { factor: 0.5 }
    }
}

/// SGD configuration.
#[derive(Debug, Clone)]
pub struct SgdConfig {
    /// Factor rank `r`.
    pub rank: usize,
    /// Regularization `λ`.
    pub lambda: f64,
    /// Epochs (full shuffled passes over the observations).
    pub epochs: usize,
    /// Base step size (evolved per [`SgdConfig::schedule`]).
    pub learning_rate: f64,
    /// Step-size schedule across epochs.
    pub schedule: StepSchedule,
    /// RNG seed for init and shuffling.
    pub seed: u64,
}

impl SgdConfig {
    /// Defaults tuned for the utility matrices in the experiments.
    pub fn new(rank: usize) -> Self {
        SgdConfig {
            rank,
            lambda: 0.1,
            epochs: 200,
            learning_rate: 0.2,
            schedule: StepSchedule::default(),
            seed: 0,
        }
    }

    /// Builder-style override of `λ`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style override of the epoch budget.
    pub fn with_epochs(mut self, epochs: usize) -> Self {
        self.epochs = epochs;
        self
    }

    /// Builder-style override of the step schedule.
    pub fn with_schedule(mut self, schedule: StepSchedule) -> Self {
        self.schedule = schedule;
        self
    }
}

impl MatrixCompleter for SgdConfig {
    fn name(&self) -> &'static str {
        "sgd"
    }

    fn complete_with(
        &self,
        problem: &CompletionProblem,
        hooks: SolveHooks<'_>,
    ) -> Result<Completion, CompletionError> {
        if self.rank == 0 {
            return Err(CompletionError::InvalidRank);
        }
        if self.lambda.is_nan() || self.lambda < 0.0 {
            // SGD only shrinks, so λ = 0 is fine; negative λ amplifies.
            return Err(CompletionError::InvalidLambda {
                lambda: self.lambda,
            });
        }
        let (factors, trace) = run_sgd(problem, self, hooks)?;
        check_finite(self.name(), factors, trace)
    }
}

/// The SGD epochs themselves; configuration validity is the caller's
/// responsibility ([`MatrixCompleter::complete`] checks it).
fn run_sgd(
    problem: &CompletionProblem,
    config: &SgdConfig,
    mut hooks: SolveHooks<'_>,
) -> Result<(Factors, Vec<f64>), CompletionError> {
    let t = problem.num_rows();
    let c = problem.num_cols();
    let r = config.rank;

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mean_abs = if problem.num_observations() == 0 {
        1.0
    } else {
        problem
            .entries()
            .iter()
            .map(|&(_, _, v)| v.abs())
            .sum::<f64>()
            / problem.num_observations() as f64
    };
    let scale = (mean_abs.max(1e-6) / r as f64).sqrt();
    let mut factors = Factors {
        w: Matrix::from_fn(t, r, |_, _| (rng.random::<f64>() - 0.5) * 2.0 * scale),
        h: Matrix::from_fn(c, r, |_, _| (rng.random::<f64>() - 0.5) * 2.0 * scale),
    };

    // Per-row/column observation counts for regularization splitting.
    let row_counts: Vec<usize> = (0..t).map(|i| problem.row_entries(i).len()).collect();
    let col_counts: Vec<usize> = (0..c).map(|j| problem.col_entries(j).len()).collect();

    let mut order: Vec<usize> = (0..problem.num_observations()).collect();
    let mut trace = Vec::with_capacity(config.epochs + 1);
    trace.push(factors.objective(problem, config.lambda));
    let mut adaptive_lr = config.learning_rate;
    for epoch in 0..config.epochs {
        hooks.check()?;
        let lr = match config.schedule {
            StepSchedule::Constant => config.learning_rate,
            StepSchedule::InvSqrt => config.learning_rate / (1.0 + epoch as f64).sqrt(),
            StepSchedule::AdaptiveBackoff { .. } => adaptive_lr,
        };
        order.shuffle(&mut rng);
        for &eid in &order {
            let (row, col, value) = problem.entries()[eid];
            let pred = factors.predict(row, col);
            let err = value - pred;
            let reg_w = config.lambda / row_counts[row].max(1) as f64;
            let reg_h = config.lambda / col_counts[col].max(1) as f64;
            for k in 0..r {
                let wv = factors.w.get(row, k);
                let hv = factors.h.get(col, k);
                factors.w.set(row, k, wv + lr * (err * hv - reg_w * wv));
                factors.h.set(col, k, hv + lr * (err * wv - reg_h * hv));
            }
        }
        let objective = factors.objective(problem, config.lambda);
        if let StepSchedule::AdaptiveBackoff { factor } = config.schedule {
            let prev = *trace.last().expect("non-empty");
            // Negated so a NaN epoch (incomparable) also backs off.
            let improved = objective <= prev;
            if !improved {
                adaptive_lr *= factor;
            }
        }
        trace.push(objective);
        hooks.sweep(epoch + 1, objective);
    }
    // Columns never observed: pin to zero (the regularizer's fixed point).
    for j in 0..c {
        if col_counts[j] == 0 {
            factors.h.row_mut(j).iter_mut().for_each(|v| *v = 0.0);
        }
    }
    Ok((factors, trace))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trait-API shorthand used throughout these tests.
    fn solve_sgd(problem: &CompletionProblem, config: &SgdConfig) -> (Factors, Vec<f64>) {
        let c = config.complete(problem).unwrap();
        (c.factors, c.objective_trace)
    }

    fn masked_low_rank(
        t: usize,
        c: usize,
        rank: usize,
        keep: f64,
        seed: u64,
    ) -> (CompletionProblem, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Matrix::from_fn(t, rank, |_, _| rng.random::<f64>() * 2.0 - 1.0);
        let h = Matrix::from_fn(c, rank, |_, _| rng.random::<f64>() * 2.0 - 1.0);
        let full = w.matmul_transpose(&h).unwrap();
        let mut p = CompletionProblem::new(t);
        for j in 0..c {
            p.add_observation(0, j as u64, full.get(0, j));
        }
        for i in 1..t {
            for j in 0..c {
                if rng.random::<f64>() < keep {
                    p.add_observation(i, j as u64, full.get(i, j));
                }
            }
        }
        (p, full)
    }

    #[test]
    fn objective_trends_downward() {
        let (p, _) = masked_low_rank(10, 12, 2, 0.5, 1);
        let (_, trace) = solve_sgd(&p, &SgdConfig::new(2).with_epochs(50));
        assert!(trace.last().unwrap() < &(trace[0] * 0.5), "{trace:?}");
    }

    #[test]
    fn fits_observed_entries() {
        let (p, _) = masked_low_rank(12, 14, 2, 0.6, 2);
        let (factors, _) = solve_sgd(&p, &SgdConfig::new(3).with_lambda(1e-3).with_epochs(300));
        assert!(
            factors.observed_rmse(&p) < 0.05,
            "rmse {}",
            factors.observed_rmse(&p)
        );
    }

    #[test]
    fn agrees_with_als_on_recovered_entries() {
        let (p, full) = masked_low_rank(14, 16, 2, 0.6, 4);
        let (f_sgd, _) = solve_sgd(&p, &SgdConfig::new(2).with_lambda(1e-3).with_epochs(400));
        let f_als = crate::als::AlsConfig::new(2)
            .with_lambda(1e-3)
            .with_max_iters(200)
            .complete(&p)
            .unwrap()
            .factors;
        let rec_sgd = f_sgd.complete();
        let rec_als = f_als.complete();
        let denom = full.frobenius_norm();
        let d_sgd = rec_sgd.sub(&full).unwrap().frobenius_norm() / denom;
        let d_als = rec_als.sub(&full).unwrap().frobenius_norm() / denom;
        assert!(d_sgd < 0.15, "sgd recovery {d_sgd}");
        assert!(d_als < 0.05, "als recovery {d_als}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (p, _) = masked_low_rank(6, 8, 2, 0.5, 9);
        for schedule in [
            StepSchedule::Constant,
            StepSchedule::InvSqrt,
            StepSchedule::default(),
        ] {
            let cfg = SgdConfig::new(2).with_epochs(20).with_schedule(schedule);
            let (f1, _) = solve_sgd(&p, &cfg);
            let (f2, _) = solve_sgd(&p, &cfg);
            assert_eq!(f1.w.as_slice(), f2.w.as_slice(), "{schedule:?}");
        }
    }

    #[test]
    fn adaptive_backoff_beats_the_old_decay() {
        // The old unconditional `lr / (1 + epoch/50)` decay stalls well
        // above the optimum; the adaptive default keeps the step large
        // until it overshoots and must land at least as low. InvSqrt
        // reproduces the diminishing-step behavior for comparison.
        let (p, _) = masked_low_rank(12, 14, 2, 0.5, 21);
        let budget = 150;
        let adaptive = solve_sgd(&p, &SgdConfig::new(2).with_lambda(1e-3).with_epochs(budget)).1;
        let inv_sqrt = solve_sgd(
            &p,
            &SgdConfig::new(2)
                .with_lambda(1e-3)
                .with_epochs(budget)
                .with_schedule(StepSchedule::InvSqrt),
        )
        .1;
        let final_adaptive = *adaptive.last().unwrap();
        let final_inv_sqrt = *inv_sqrt.last().unwrap();
        assert!(
            final_adaptive <= final_inv_sqrt * 1.01,
            "adaptive {final_adaptive} vs inv-sqrt {final_inv_sqrt}"
        );
        // And it must come close to the exact ridge solves (the ~2×
        // criterion is asserted against ALS in the pipeline tests).
        let als = crate::als::AlsConfig::new(2)
            .with_lambda(1e-3)
            .with_max_iters(200)
            .complete(&p)
            .unwrap();
        let als_final = *als.objective_trace.last().unwrap();
        assert!(
            final_adaptive <= 2.0 * als_final.max(1e-12),
            "adaptive SGD {final_adaptive} not within 2x of ALS {als_final}"
        );
    }

    #[test]
    fn unobserved_column_pinned_to_zero() {
        let mut p = CompletionProblem::new(3);
        p.add_observation(0, 5, 2.0);
        p.add_observation(2, 5, 2.0);
        let ghost = p.ensure_column(77);
        let (factors, _) = solve_sgd(&p, &SgdConfig::new(2).with_epochs(10));
        assert!(factors.h.row(ghost).iter().all(|&v| v == 0.0));
    }
}
