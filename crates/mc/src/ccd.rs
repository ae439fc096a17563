//! CCD++ — the cyclic coordinate-descent solver used by LIBPMF.
//!
//! This is the algorithm the paper actually runs (via the LIBPMF package)
//! to solve problem (13). CCD++ sweeps over factor *dimensions*: for each
//! rank index `k` it alternately updates the k-th column of `W` and of `H`
//! against the rank-one residual, each scalar update being the exact
//! 1-D ridge minimizer. Like ALS it monotonically decreases the objective;
//! unlike ALS it needs no linear solves, so its per-sweep cost is linear
//! in the number of observations.
//!
//! The scalar updates within one rank dimension are independent across
//! rows (resp. columns) — each reads only the residuals and the *other*
//! factor's column — so large sweeps fan those loops out across the
//! persistent `fedval_runtime` pool (see `crate::parallel`) exactly
//! like the ALS half-steps, staying bit-identical to the serial order.

use crate::completer::{check_finite, Completion, CompletionError, MatrixCompleter, SolveHooks};
use crate::factors::Factors;
use crate::parallel::pooled_rows;
use crate::problem::CompletionProblem;
use fedval_linalg::Matrix;
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;

/// CCD++ configuration.
#[derive(Debug, Clone)]
pub struct CcdConfig {
    /// Factor rank `r`.
    pub rank: usize,
    /// Regularization `λ` (must be positive).
    pub lambda: f64,
    /// Outer sweeps (each touches every rank dimension once).
    pub max_iters: usize,
    /// Inner passes per rank dimension per sweep (LIBPMF default ~5).
    pub inner_iters: usize,
    /// Stop when the relative objective improvement falls below this.
    pub tol: f64,
    /// Seed for random initialization.
    pub seed: u64,
}

impl CcdConfig {
    /// Defaults matching the ALS configuration for comparability.
    pub fn new(rank: usize) -> Self {
        CcdConfig {
            rank,
            lambda: 0.1,
            max_iters: 30,
            inner_iters: 3,
            tol: 1e-8,
            seed: 0,
        }
    }

    /// Builder-style override of `λ`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style override of the sweep budget.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }
}

impl MatrixCompleter for CcdConfig {
    fn name(&self) -> &'static str {
        "ccd"
    }

    fn complete_with(
        &self,
        problem: &CompletionProblem,
        hooks: SolveHooks<'_>,
    ) -> Result<Completion, CompletionError> {
        if self.rank == 0 {
            return Err(CompletionError::InvalidRank);
        }
        if !(self.lambda > 0.0 && self.lambda.is_finite()) {
            // Each 1-D ridge update divides by λ + Σ h² — a finite λ > 0
            // keeps it safe.
            return Err(CompletionError::InvalidLambda {
                lambda: self.lambda,
            });
        }
        let (factors, trace) = run_ccd(problem, self, hooks)?;
        check_finite(self.name(), factors, trace)
    }
}

/// The CCD++ iteration itself; configuration validity is the caller's
/// responsibility ([`MatrixCompleter::complete`] checks it).
fn run_ccd(
    problem: &CompletionProblem,
    config: &CcdConfig,
    mut hooks: SolveHooks<'_>,
) -> Result<(Factors, Vec<f64>), CompletionError> {
    let t = problem.num_rows();
    let c = problem.num_cols();
    let r = config.rank;

    // Scale-aware random init (same convention as the ALS solver).
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
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut factors = Factors {
        w: Matrix::from_fn(t, r, |_, _| (rng.random::<f64>() - 0.5) * 2.0 * scale),
        h: Matrix::from_fn(c, r, |_, _| (rng.random::<f64>() - 0.5) * 2.0 * scale),
    };

    // Residuals r_e = value − w_rowᵀ h_col, maintained incrementally.
    let mut residuals: Vec<f64> = problem
        .entries()
        .iter()
        .map(|&(row, col, v)| v - factors.predict(row, col))
        .collect();

    // Per-dimension scratch columns. The factor matrices are row-major
    // (stride `r` between consecutive rows of one column), so the inner
    // products of a rank dimension would stride-gather through them on
    // every entry; instead, column `k` of each factor is mirrored in the
    // contiguous `wcol`/`hcol` caches (refreshed after each scatter) and
    // every fold/unfold/ridge pass reads those — same values, unit
    // stride. `wk`/`hk` receive the pooled per-row updates.
    let mut wk = vec![0.0; t];
    let mut hk = vec![0.0; c];
    let mut wcol = vec![0.0; t];
    let mut hcol = vec![0.0; c];

    let mut objective_trace = vec![objective(&factors, &residuals, config.lambda)];
    for sweep in 0..config.max_iters {
        hooks.check()?;
        for k in 0..r {
            for (row, v) in wcol.iter_mut().enumerate() {
                *v = factors.w.get(row, k);
            }
            for (col, v) in hcol.iter_mut().enumerate() {
                *v = factors.h.get(col, k);
            }
            // Fold dimension k back into the residual: r̂_e = r_e + w_tk h_ck.
            for (e, &(row, col, _)) in problem.entries().iter().enumerate() {
                residuals[e] += wcol[row] * hcol[col];
            }
            for _inner in 0..config.inner_iters {
                // Update column k of W: 1-D ridge per row. Rows read only
                // the residuals and H's cached column, so they fan out
                // across the pool.
                {
                    let hcol = &hcol;
                    let residuals = &residuals;
                    pooled_rows(&mut wk, 1, |row, out| {
                        let mut num = 0.0;
                        let mut den = config.lambda;
                        for &e in problem.row_entries(row) {
                            let (_, col, _) = problem.entries()[e];
                            let hv = hcol[col];
                            num += residuals[e] * hv;
                            den += hv * hv;
                        }
                        out[0] = num / den;
                    });
                }
                for (row, &v) in wk.iter().enumerate() {
                    factors.w.set(row, k, v);
                }
                wcol.copy_from_slice(&wk);
                // Update column k of H: 1-D ridge per column.
                {
                    let wcol = &wcol;
                    let residuals = &residuals;
                    pooled_rows(&mut hk, 1, |col, out| {
                        let mut num = 0.0;
                        let mut den = config.lambda;
                        for &e in problem.col_entries(col) {
                            let (row, _, _) = problem.entries()[e];
                            let wv = wcol[row];
                            num += residuals[e] * wv;
                            den += wv * wv;
                        }
                        out[0] = num / den;
                    });
                }
                for (col, &v) in hk.iter().enumerate() {
                    factors.h.set(col, k, v);
                }
                hcol.copy_from_slice(&hk);
            }
            // Subtract the refreshed rank-one term from the residual.
            for (e, &(row, col, _)) in problem.entries().iter().enumerate() {
                residuals[e] -= wcol[row] * hcol[col];
            }
        }
        let obj = objective(&factors, &residuals, config.lambda);
        let prev = *objective_trace.last().expect("non-empty");
        objective_trace.push(obj);
        hooks.sweep(sweep + 1, obj);
        if prev - obj <= config.tol * prev.abs().max(1e-12) {
            break;
        }
    }

    // Never-observed columns are pulled to exactly zero by the 1-D ridge
    // (numerator 0); pin explicitly so the invariant holds even with a
    // zero sweep budget.
    for col in 0..c {
        if problem.col_entries(col).is_empty() {
            factors.h.row_mut(col).iter_mut().for_each(|v| *v = 0.0);
        }
    }

    Ok((factors, objective_trace))
}

fn objective(factors: &Factors, residuals: &[f64], lambda: f64) -> f64 {
    let sse: f64 = residuals.iter().map(|r| r * r).sum();
    sse + lambda * (factors.w.frobenius_norm().powi(2) + factors.h.frobenius_norm().powi(2))
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trait-API shorthand used throughout these tests.
    fn solve_ccd(problem: &CompletionProblem, config: &CcdConfig) -> (Factors, Vec<f64>) {
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
    fn objective_is_monotone_nonincreasing() {
        let (p, _) = masked_low_rank(12, 16, 3, 0.4, 1);
        let (_, trace) = solve_ccd(&p, &CcdConfig::new(3).with_lambda(0.05));
        for w in trace.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "objective increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn recovers_low_rank_matrix() {
        let (p, full) = masked_low_rank(20, 24, 2, 0.5, 3);
        let (factors, _) = solve_ccd(&p, &CcdConfig::new(2).with_lambda(1e-3).with_max_iters(200));
        let rec = factors.complete();
        let rel = rec.sub(&full).unwrap().frobenius_norm() / full.frobenius_norm();
        assert!(rel < 0.05, "relative recovery error {rel}");
    }

    #[test]
    fn agrees_with_als_solution() {
        // Both solvers minimize the same objective; on a well-posed problem
        // the recovered matrices must agree closely.
        let (p, _) = masked_low_rank(14, 16, 2, 0.6, 4);
        let (f_ccd, _) = solve_ccd(&p, &CcdConfig::new(2).with_lambda(1e-3).with_max_iters(300));
        let f_als = crate::als::AlsConfig::new(2)
            .with_lambda(1e-3)
            .with_max_iters(300)
            .complete(&p)
            .unwrap()
            .factors;
        let a = f_ccd.complete();
        let b = f_als.complete();
        let rel = a.sub(&b).unwrap().frobenius_norm() / b.frobenius_norm().max(1e-12);
        assert!(rel < 0.05, "CCD vs ALS disagreement {rel}");
    }

    #[test]
    fn residual_bookkeeping_matches_direct_objective() {
        let (p, _) = masked_low_rank(8, 10, 2, 0.5, 7);
        let (factors, trace) = solve_ccd(&p, &CcdConfig::new(2).with_lambda(0.05));
        let direct = factors.objective(&p, 0.05);
        let tracked = *trace.last().unwrap();
        assert!(
            (direct - tracked).abs() < 1e-8 * direct.abs().max(1.0),
            "incremental residual drifted: {tracked} vs {direct}"
        );
    }

    #[test]
    fn deterministic_given_seed() {
        let (p, _) = masked_low_rank(6, 8, 2, 0.5, 9);
        let cfg = CcdConfig::new(2);
        let (f1, _) = solve_ccd(&p, &cfg);
        let (f2, _) = solve_ccd(&p, &cfg);
        assert_eq!(f1.w.as_slice(), f2.w.as_slice());
        assert_eq!(f1.h.as_slice(), f2.h.as_slice());
    }

    #[test]
    fn unobserved_column_stays_zero() {
        let mut p = CompletionProblem::new(3);
        p.add_observation(0, 1, 2.0);
        p.add_observation(2, 1, 2.0);
        let ghost = p.ensure_column(50);
        let (factors, _) = solve_ccd(&p, &CcdConfig::new(2));
        assert!(factors.h.row(ghost).iter().all(|&v| v == 0.0));
    }

    #[test]
    fn rejects_zero_rank() {
        let p = CompletionProblem::new(1);
        assert!(matches!(
            CcdConfig::new(0).complete(&p),
            Err(CompletionError::InvalidRank)
        ));
    }
}
