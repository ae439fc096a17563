//! Alternating least squares for the regularized factorization problem.
//!
//! Each ALS half-step solves, per row (resp. column), the exact ridge
//! sub-problem of objective (9)/(13) with the other factor fixed — so the
//! objective is monotonically non-increasing, which the tests verify.
//!
//! **One factorization per distinct system.** A target's ridge system is
//! `(AᵀA + λI) x = Aᵀb`, where the rows of `A` are the other factor's
//! rows at the target's observed entries, in entry order. Within a
//! half-step the other factor is fixed, so the left-hand side depends
//! only on that ordered sequence of other-side indices. A `Side` lays
//! out each target's `(other index, value)` pairs contiguously and
//! groups the targets by their sequence, once per solve: the grouping
//! cannot change across sweeps. Each sweep then factors every group once
//! ([`cholesky::ridge_factor_into`]), and each target only accumulates
//! its right-hand side and substitutes against its group's factor
//! ([`cholesky::ridge_solve_factored`]). The utility matrices ComFedSV
//! completes have thousands of subset columns but few distinct
//! observation patterns (about 80 for 3,000 columns in the benchmark's
//! warm jobs), so most Gram assemblies and factorizations are shared. A
//! problem whose sequences are all distinct pays one extra grouping pass
//! per solve, not per sweep.
//!
//! Targets are substituted one at a time. Interleaving four targets'
//! division chains made the column half-step 2.6–2.7× faster on an
//! otherwise idle core, but throughput-bound: on a shared 2-vCPU Xeon VM
//! it ran 1.6–1.9× slower whenever the host was busy, against about
//! 1.25× for one chain at a time, so job latency split into two modes.
//!
//! **Bit-identical to one ridge solve per target.** Every target still
//! goes through the same IEEE operations in the same order as a
//! [`cholesky::ridge_solve_into`] call on its own design: the Gram
//! summed in entry order with `λ` added last, the same factorization,
//! the right-hand side accumulated in entry order, then forward and back
//! substitution with true divisions. The group key is the *ordered*
//! sequence, not the set of rows, because the Gram's sums follow entry
//! order: the same rows hit in another order form another group. Targets
//! with no observations share the empty sequence's group; their system
//! `λI x = 0` solves to exactly `+0.0`, as the ridge solve of an empty
//! design does. The tests pin all of this against a per-target reference.
//!
//! Targets are independent within a half-step and are solved in
//! parallel through the persistent `fedval_runtime` pool (see
//! `crate::parallel`); each writes only its own factor row, so the
//! result does not depend on the pool size.

use crate::completer::{check_finite, Completion, CompletionError, MatrixCompleter, SolveHooks};
use crate::factors::Factors;
use crate::parallel::{pooled_rows, pooled_rows_init};
use crate::problem::CompletionProblem;
use fedval_linalg::{cholesky, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::HashMap;

/// ALS configuration.
#[derive(Debug, Clone)]
pub struct AlsConfig {
    /// Factor rank `r`.
    pub rank: usize,
    /// Regularization `λ` (must be positive — it also guarantees the ridge
    /// systems are well-posed).
    pub lambda: f64,
    /// Maximum full sweeps.
    pub max_iters: usize,
    /// Stop when the relative objective improvement falls below this.
    pub tol: f64,
    /// Seed for the random initialization.
    pub seed: u64,
}

impl AlsConfig {
    /// A sensible default for the paper's utility matrices.
    pub fn new(rank: usize) -> Self {
        AlsConfig {
            rank,
            lambda: 0.1,
            max_iters: 50,
            tol: 1e-8,
            seed: 0,
        }
    }

    /// Builder-style override of `λ`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style override of the iteration budget.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl MatrixCompleter for AlsConfig {
    fn name(&self) -> &'static str {
        "als"
    }

    fn complete_with(
        &self,
        problem: &CompletionProblem,
        hooks: SolveHooks<'_>,
    ) -> Result<Completion, CompletionError> {
        if self.rank == 0 {
            return Err(CompletionError::InvalidRank);
        }
        if self.lambda.is_nan() || self.lambda <= 0.0 {
            // The ridge sub-solves need λ > 0 to stay SPD.
            return Err(CompletionError::InvalidLambda {
                lambda: self.lambda,
            });
        }
        let (factors, trace) = run_als(problem, self, hooks)?;
        check_finite(self.name(), factors, trace)
    }
}

/// Runs ALS on `problem`, returning the factors and the per-sweep objective
/// trajectory (first entry = objective after initialization).
#[deprecated(
    since = "0.2.0",
    note = "use the `MatrixCompleter` impl: `config.complete(problem)`"
)]
pub fn solve_als(problem: &CompletionProblem, config: &AlsConfig) -> (Factors, Vec<f64>) {
    match config.complete(problem) {
        Ok(c) => (c.factors, c.objective_trace),
        Err(e) => panic!("{e}"),
    }
}

/// Small random init, scaled so initial predictions have the magnitude
/// of the observed values.
fn init_factors(problem: &CompletionProblem, config: &AlsConfig) -> Factors {
    let r = config.rank;
    let scale = {
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
        (mean_abs.max(1e-6) / r as f64).sqrt()
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    Factors {
        w: Matrix::from_fn(problem.num_rows(), r, |_, _| {
            (rng.random::<f64>() - 0.5) * 2.0 * scale
        }),
        h: Matrix::from_fn(problem.num_cols(), r, |_, _| {
            (rng.random::<f64>() - 0.5) * 2.0 * scale
        }),
    }
}

/// The ALS iteration itself; configuration validity is the caller's
/// responsibility ([`MatrixCompleter::complete`] checks it).
fn run_als(
    problem: &CompletionProblem,
    config: &AlsConfig,
    mut hooks: SolveHooks<'_>,
) -> Result<(Factors, Vec<f64>), CompletionError> {
    let mut factors = init_factors(problem, config);
    let rows = Side::rows(problem);
    let cols = Side::cols(problem);
    let mut chol = Vec::new();

    let mut objective_trace = vec![factors.objective(problem, config.lambda)];
    for sweep in 0..config.max_iters {
        hooks.check()?;
        let Factors { w, h } = &mut factors;
        rows.half_step(h, w, config.lambda, &mut chol);
        cols.half_step(w, h, config.lambda, &mut chol);
        let obj = factors.objective(problem, config.lambda);
        let prev = *objective_trace.last().expect("non-empty");
        objective_trace.push(obj);
        hooks.sweep(sweep + 1, obj);
        if prev - obj <= config.tol * prev.abs().max(1e-12) {
            break;
        }
    }
    Ok((factors, objective_trace))
}

/// One side of the factorization as a half-step sees it: the targets it
/// solves (the rows of `W`, or the rows of `H`), each with its observed
/// `(other index, value)` pairs laid out contiguously in entry order,
/// and the targets grouped by their ordered sequence of other indices.
struct Side {
    /// Target `t`'s pairs are at `starts[t]..starts[t + 1]`.
    starts: Vec<usize>,
    /// Other-side index (column for a row target, row for a column
    /// target) of each pair.
    others: Vec<usize>,
    /// Observed value of each pair.
    values: Vec<f64>,
    /// Each target's group. Targets with no observations share the
    /// group of the empty sequence, whose system `λI x = 0` solves to
    /// exactly `+0.0`.
    group: Vec<usize>,
    /// Per group, its first target, whose design defines the group's
    /// factor.
    leaders: Vec<usize>,
}

impl Side {
    /// The rows of `W`: each round against the columns it observed.
    fn rows(problem: &CompletionProblem) -> Side {
        Side::new(
            problem,
            problem.num_rows(),
            |t| problem.row_entries(t),
            |(_, col)| col,
        )
    }

    /// The rows of `H`: each subset column against the rounds that
    /// observed it.
    fn cols(problem: &CompletionProblem) -> Side {
        Side::new(
            problem,
            problem.num_cols(),
            |t| problem.col_entries(t),
            |(row, _)| row,
        )
    }

    fn new<'p>(
        problem: &'p CompletionProblem,
        targets: usize,
        entry_ids: impl Fn(usize) -> &'p [usize],
        other: impl Fn((usize, usize)) -> usize,
    ) -> Side {
        let n = problem.num_observations();
        let mut starts = Vec::with_capacity(targets + 1);
        let mut others = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        starts.push(0);
        for t in 0..targets {
            for &eid in entry_ids(t) {
                let (row, col, value) = problem.entries()[eid];
                others.push(other((row, col)));
                values.push(value);
            }
            starts.push(others.len());
        }
        let mut leaders = Vec::new();
        let mut by_sequence: HashMap<&[usize], usize> = HashMap::new();
        let group = (0..targets)
            .map(|t| {
                *by_sequence
                    .entry(&others[starts[t]..starts[t + 1]])
                    .or_insert_with(|| {
                        leaders.push(t);
                        leaders.len() - 1
                    })
            })
            .collect();
        Side {
            starts,
            others,
            values,
            group,
            leaders,
        }
    }

    /// Target `t`'s other-side indices, in entry order.
    fn others(&self, t: usize) -> &[usize] {
        &self.others[self.starts[t]..self.starts[t + 1]]
    }

    /// Ridge-solves every target row of `target` against the fixed
    /// `other` factor: factors each group's Gram once into `chol` (one
    /// `r × r` block per group), then per target accumulates the
    /// right-hand side in entry order and substitutes against its
    /// group's factor.
    fn half_step(&self, other: &Matrix, target: &mut Matrix, lambda: f64, chol: &mut Vec<f64>) {
        let r = other.cols();
        chol.resize(self.leaders.len() * r * r, 0.0);
        pooled_rows_init(chol, r * r, Matrix::default, |design, g, l| {
            let sequence = self.others(self.leaders[g]);
            // Every design row is fully overwritten below; skip the
            // zero-fill.
            design.resize_for_overwrite(sequence.len(), r);
            for (k, &o) in sequence.iter().enumerate() {
                design.row_mut(k).copy_from_slice(other.row(o));
            }
            cholesky::ridge_factor_into(design, lambda, l)
                .expect("ridge system is SPD for lambda > 0");
        });
        let factor = |t: usize| &chol[self.group[t] * r * r..(self.group[t] + 1) * r * r];
        pooled_rows(target.as_mut_slice(), r, |t, x| {
            x.iter_mut().for_each(|v| *v = 0.0);
            let span = self.starts[t]..self.starts[t + 1];
            for (&o, &v) in self.others[span.clone()].iter().zip(&self.values[span]) {
                fedval_linalg::vector::axpy(v, other.row(o), x);
            }
            cholesky::ridge_solve_factored(factor(t), x).expect("factor and solution ranks agree");
        });
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trait-API shorthand used throughout these tests.
    fn solve_als(problem: &CompletionProblem, config: &AlsConfig) -> (Factors, Vec<f64>) {
        let c = config.complete(problem).unwrap();
        (c.factors, c.objective_trace)
    }

    /// Builds a problem from a dense low-rank matrix with a random mask.
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
        // Ensure every column is seen at least once (Assumption 1 analogue):
        // row 0 observes everything.
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
        let (_, trace) = solve_als(&p, &AlsConfig::new(3).with_lambda(0.05));
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
    fn recovers_low_rank_matrix_from_partial_observations() {
        let (p, full) = masked_low_rank(20, 24, 2, 0.5, 3);
        let (factors, _) = solve_als(&p, &AlsConfig::new(2).with_lambda(1e-3).with_max_iters(200));
        let rec = factors.complete();
        let rel = rec.sub(&full).unwrap().frobenius_norm() / full.frobenius_norm();
        assert!(rel < 0.05, "relative recovery error {rel}");
    }

    #[test]
    fn observed_entries_fit_tightly() {
        let (p, _) = masked_low_rank(10, 12, 2, 0.6, 5);
        let (factors, _) = solve_als(&p, &AlsConfig::new(3).with_lambda(1e-4));
        assert!(factors.observed_rmse(&p) < 1e-2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (p, _) = masked_low_rank(8, 10, 2, 0.5, 7);
        let cfg = AlsConfig::new(2).with_seed(11);
        let (f1, _) = solve_als(&p, &cfg);
        let (f2, _) = solve_als(&p, &cfg);
        assert_eq!(f1.w.as_slice(), f2.w.as_slice());
        assert_eq!(f1.h.as_slice(), f2.h.as_slice());
    }

    #[test]
    fn unobserved_column_is_zero() {
        let mut p = CompletionProblem::new(4);
        p.add_observation(0, 1, 1.0);
        p.add_observation(1, 1, 1.0);
        let ghost = p.ensure_column(99);
        let (factors, _) = solve_als(&p, &AlsConfig::new(2));
        for v in factors.h.row(ghost) {
            assert_eq!(*v, 0.0);
        }
    }

    /// The per-target reference the grouped half-step must match bit
    /// for bit: one [`cholesky::ridge_solve_into`] per target, on its
    /// design gathered in entry order.
    fn reference_half_step(
        problem: &CompletionProblem,
        other: &Matrix,
        target: &mut Matrix,
        lambda: f64,
        entry_ids: impl Fn(usize) -> Vec<usize>,
        pick: impl Fn((usize, usize)) -> usize,
    ) {
        let mut scratch = cholesky::RidgeScratch::new();
        for t in 0..target.rows() {
            let ids = entry_ids(t);
            let entry = |k: usize| problem.entries()[ids[k]];
            let design = Matrix::from_fn(ids.len(), other.cols(), |k, p| {
                let (row, col, _) = entry(k);
                other.get(pick((row, col)), p)
            });
            let b: Vec<f64> = (0..ids.len()).map(|k| entry(k).2).collect();
            cholesky::ridge_solve_into(&design, &b, lambda, target.row_mut(t), &mut scratch)
                .unwrap();
        }
    }

    /// [`run_als`] with the reference half-steps.
    fn reference_als(problem: &CompletionProblem, config: &AlsConfig) -> (Factors, Vec<f64>) {
        let mut f = init_factors(problem, config);
        let mut trace = vec![f.objective(problem, config.lambda)];
        for _ in 0..config.max_iters {
            let Factors { w, h } = &mut f;
            let rows = |t| problem.row_entries(t).to_vec();
            let cols = |t| problem.col_entries(t).to_vec();
            reference_half_step(problem, h, w, config.lambda, rows, |(_, col)| col);
            reference_half_step(problem, w, h, config.lambda, cols, |(row, _)| row);
            let obj = f.objective(problem, config.lambda);
            let prev = *trace.last().unwrap();
            trace.push(obj);
            if prev - obj <= config.tol * prev.abs().max(1e-12) {
                break;
            }
        }
        (f, trace)
    }

    #[test]
    fn grouped_half_steps_match_per_target_solves_bitwise() {
        // The widest pool the CI runs (`FEDVAL_THREADS=4`).
        let threads = 4;
        let (t, rank) = (12, 3);
        let mut rng = StdRng::seed_from_u64(21);
        let w = Matrix::from_fn(t, rank, |_, _| rng.random::<f64>() * 2.0 - 1.0);
        let value = |rng: &mut StdRng, row: usize, key: u64| {
            let h: Vec<f64> = (0..rank)
                .map(|p| ((key as f64 + 1.0) * (p as f64 + 0.5)).sin())
                .collect();
            fedval_linalg::vector::dot(w.row(row), &h) + 0.01 * (rng.random::<f64>() - 0.5)
        };
        let mut p = CompletionProblem::new(t);
        // Random masks: mostly distinct sequences, most longer than the
        // rank.
        let mut key = 0u64;
        for _ in 0..640 {
            for row in 0..t {
                if rng.random::<f64>() < 0.5 {
                    let v = value(&mut rng, row, key);
                    p.add_observation(row, key, v);
                }
            }
            key += 1;
        }
        // Three shared patterns, twenty columns each.
        for pattern in [&[0usize, 3, 5, 9][..], &[2, 4], &[11, 1, 6, 7, 8]] {
            for _ in 0..20 {
                for &row in pattern {
                    let v = value(&mut rng, row, key);
                    p.add_observation(row, key, v);
                }
                key += 1;
            }
        }
        // The same rows hit in two orders, four times over.
        let mut reversed_pairs = Vec::new();
        for rows in [
            &[1usize, 4, 7, 10, 0, 3][..],
            &[2, 3, 5, 8, 9, 11, 6],
            &[0, 11, 5, 2],
            &[6, 7, 8, 9, 10],
        ] {
            for order in [rows.to_vec(), rows.iter().rev().copied().collect()] {
                for &row in &order {
                    let v = value(&mut rng, row, key);
                    p.add_observation(row, key, v);
                }
                key += 1;
            }
            reversed_pairs.push((key - 2, key - 1));
        }
        // A duplicated observation of one cell.
        let twice = key;
        for &row in &[2usize, 5, 2] {
            p.add_observation(row, twice, value(&mut rng, row, twice));
        }
        key += 1;
        // Columns nobody observed.
        let ghosts: Vec<usize> = (key..key + 5).map(|k| p.ensure_column(k)).collect();

        let cols = Side::cols(&p);
        for (forward, backward) in reversed_pairs {
            let (f, b) = (
                p.column_index(forward).unwrap(),
                p.column_index(backward).unwrap(),
            );
            let mut reversed = cols.others(b).to_vec();
            reversed.reverse();
            assert_eq!(cols.others(f), &reversed[..]);
            assert_ne!(
                cols.group[f], cols.group[b],
                "ordered sequences, not row sets"
            );
        }
        assert_eq!(cols.others(p.column_index(twice).unwrap()), &[2, 5, 2]);
        let shared = p.column_index(640).unwrap();
        assert_eq!(cols.group[shared], cols.group[shared + 19]);
        // Both phases of the column half-step take the pooled path.
        let min_rows = crate::parallel::MIN_ROWS_PER_WORKER * threads;
        assert!(cols.leaders.len() > min_rows);
        assert!(p.num_cols() > min_rows);

        let config = AlsConfig::new(rank).with_lambda(0.05).with_max_iters(8);
        let (grouped, trace) = solve_als(&p, &config);
        let (reference, ref_trace) = reference_als(&p, &config);
        let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(trace.len(), 9, "all sweeps ran");
        assert_eq!(bits(&trace), bits(&ref_trace));
        assert_eq!(bits(grouped.w.as_slice()), bits(reference.w.as_slice()));
        assert_eq!(bits(grouped.h.as_slice()), bits(reference.h.as_slice()));
        for &g in &ghosts {
            assert!(grouped.h.row(g).iter().all(|v| v.to_bits() == 0));
        }
    }

    #[test]
    fn higher_lambda_shrinks_factors() {
        let (p, _) = masked_low_rank(10, 10, 2, 0.7, 9);
        let (f_small, _) = solve_als(&p, &AlsConfig::new(2).with_lambda(1e-3));
        let (f_big, _) = solve_als(&p, &AlsConfig::new(2).with_lambda(10.0));
        let norm = |f: &Factors| f.w.frobenius_norm() + f.h.frobenius_norm();
        assert!(norm(&f_big) < norm(&f_small));
    }

    #[test]
    fn rank_one_problem_solved_by_rank_one_model() {
        // U = a bᵀ exactly; even with few observations ALS should fit the
        // observed entries nearly perfectly.
        let mut p = CompletionProblem::new(5);
        let a = [1.0, 2.0, -1.0, 0.5, 3.0];
        let b = [2.0, -1.0, 0.5, 1.5];
        for i in 0..5 {
            for j in 0..4 {
                if (i + j) % 2 == 0 || i == 0 {
                    p.add_observation(i, j as u64, a[i] * b[j]);
                }
            }
        }
        let (factors, _) = solve_als(&p, &AlsConfig::new(1).with_lambda(1e-5).with_max_iters(100));
        assert!(factors.observed_rmse(&p) < 1e-3);
    }

    #[test]
    fn rejects_zero_rank() {
        let p = CompletionProblem::new(1);
        assert!(matches!(
            AlsConfig::new(0).complete(&p),
            Err(CompletionError::InvalidRank)
        ));
    }

    #[test]
    fn rejects_zero_lambda() {
        let p = CompletionProblem::new(1);
        assert!(matches!(
            AlsConfig::new(1).with_lambda(0.0).complete(&p),
            Err(CompletionError::InvalidLambda { .. })
        ));
    }
}
