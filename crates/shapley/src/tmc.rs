//! Truncated Monte-Carlo Shapley (Ghorbani & Zou), adapted to the
//! federated whole-run utility.
//!
//! An extension beyond the paper's core method (its related-work section
//! discusses TMC as the standard data-Shapley accelerator): estimate the
//! ground-truth valuation `Φ(U)`, `U(S) = Σ_t U_t(S)`, by permutation
//! sampling with *early truncation* — once a prefix's utility is within a
//! tolerance of the grand coalition's, the remaining marginal
//! contributions are treated as zero and the (expensive) utility calls for
//! them are skipped.
//!
//! Truncation makes the walk inherently adaptive — which cells are
//! needed depends on values already computed — so a strictly lazy walk
//! degenerates into many tiny per-prefix batches that never saturate a
//! worker pool. This implementation instead *speculates*: the RNG
//! stream never depends on utility values, so all permutations are
//! drawn up front and the first [`Tmc::speculation`] prefix columns of
//! every permutation are planned as **one** cross-permutation
//! [`EvalPlan`] batch, evaluated in parallel on the persistent
//! `fedval_runtime` pool. The walk itself then runs off table hits,
//! checking cancellation and emitting a permutation-level progress
//! event per permutation. Speculation never changes the estimate (the
//! accumulation order is untouched); it can only evaluate cells that
//! truncation would have skipped — at most the truncated tail of each
//! permutation — which is the price of keeping the workers busy. Set
//! `speculation: 0` to recover the strictly lazy per-column batching.

use crate::error::ValuationError;
use crate::valuator::{Diagnostics, RunContext, ValuationReport, Valuator};
use fedval_fl::{EvalPlan, Subset, UtilityOracle};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// The truncated-Monte-Carlo valuation method (Ghorbani & Zou) as a
/// [`Valuator`] strategy object.
#[derive(Debug, Clone)]
pub struct Tmc {
    /// Number of sampled permutations.
    pub permutations: usize,
    /// Truncate a permutation once
    /// `|U(I) − U(prefix)| ≤ tol · |U(I)|`.
    pub truncation_tol: f64,
    /// How many leading prefixes of every permutation are speculatively
    /// planned as one cross-permutation batch (clamped to `N`; the
    /// default `usize::MAX` speculates whole permutations, wasting at
    /// most each truncated tail; `0` disables speculation).
    pub speculation: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for Tmc {
    fn default() -> Self {
        Tmc {
            permutations: 100,
            truncation_tol: 0.01,
            speculation: usize::MAX,
            seed: 0,
        }
    }
}

/// Output of a TMC run.
#[derive(Debug, Clone)]
pub struct TmcOutput {
    /// Estimated Shapley values.
    pub values: Vec<f64>,
    /// Fraction of marginal evaluations skipped by truncation.
    pub truncated_fraction: f64,
}

impl Tmc {
    /// Runs the truncated permutation walk, returning the rich
    /// [`TmcOutput`]; the [`Valuator`] impl wraps this into a
    /// [`ValuationReport`].
    pub fn run(&self, oracle: &UtilityOracle<'_>) -> Result<TmcOutput, ValuationError> {
        self.run_with(oracle, &mut RunContext::new())
    }

    /// [`Tmc::run`] under an explicit [`RunContext`]: honors its
    /// cancellation token (permutation-level, plus cell-level inside
    /// batches) and emits a permutation-level progress event per walked
    /// permutation. Note the context's seed override is *not* applied
    /// here — that is [`Valuator::value`]'s job.
    pub fn run_with(
        &self,
        oracle: &UtilityOracle<'_>,
        ctx: &mut RunContext<'_>,
    ) -> Result<TmcOutput, ValuationError> {
        if self.permutations == 0 {
            return Err(ValuationError::NoPermutations);
        }
        // NaN and ±∞ both fail is_finite; NaN < 0.0 is false, so the
        // order of the clauses does not matter.
        if !self.truncation_tol.is_finite() || self.truncation_tol < 0.0 {
            return Err(ValuationError::InvalidTolerance {
                value: self.truncation_tol,
            });
        }
        if oracle.num_rounds() == 0 {
            return Err(ValuationError::EmptyTrace);
        }
        run_tmc(oracle, self, ctx)
    }
}

impl Valuator for Tmc {
    fn name(&self) -> &'static str {
        "tmc"
    }

    fn value(
        &self,
        oracle: &UtilityOracle<'_>,
        ctx: &mut RunContext<'_>,
    ) -> Result<ValuationReport, ValuationError> {
        let mut cfg = self.clone();
        cfg.seed = ctx.seed_or(self.seed);
        let before = oracle.loss_evaluations();
        let hits_before = oracle.cell_hits();
        ctx.emit(self.name(), "truncated permutation walk");
        let out = cfg.run_with(oracle, ctx)?;
        Ok(ValuationReport {
            method: self.name(),
            values: out.values,
            diagnostics: Diagnostics {
                cells_evaluated: oracle.loss_evaluations() - before,
                cell_hits: oracle.cell_hits() - hits_before,
                permutations_used: self.permutations,
                truncated_fraction: Some(out.truncated_fraction),
                ..Diagnostics::default()
            },
        })
    }
}

/// The truncated walk itself; configuration validity is
/// [`Tmc::run_with`]'s responsibility.
fn run_tmc(
    oracle: &UtilityOracle<'_>,
    config: &Tmc,
    ctx: &mut RunContext<'_>,
) -> Result<TmcOutput, ValuationError> {
    let n = oracle.num_clients();
    let rounds = oracle.num_rounds();
    let grand = {
        let mut plan = EvalPlan::new();
        plan.add_column(rounds, Subset::full(n));
        oracle.try_evaluate_plan(&plan, ctx.cancel_token())?;
        oracle.total_utility(Subset::full(n))
    };
    let threshold = config.truncation_tol * grand.abs();

    // The RNG stream never depends on utility values, so all
    // permutations can be drawn up front — the exact sequence the lazy
    // walk would have drawn.
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut order: Vec<usize> = (0..n).collect();
    let permutations: Vec<Vec<usize>> = (0..config.permutations)
        .map(|_| {
            order.shuffle(&mut rng);
            order.clone()
        })
        .collect();

    // Batch-aware truncation: plan the first `speculation` prefix
    // columns of *every* permutation as one batch. The plan dedups
    // shared prefixes, and the engine fans the whole frontier across
    // the pool at once instead of T cells at a time.
    let speculation = config.speculation.min(n);
    if speculation > 0 {
        let mut plan = EvalPlan::new();
        for perm in &permutations {
            let mut prefix = Subset::EMPTY;
            for &i in &perm[..speculation] {
                prefix = prefix.with(i);
                plan.add_column(rounds, prefix);
            }
        }
        oracle.try_evaluate_plan(&plan, ctx.cancel_token())?;
    }

    let mut values = vec![0.0; n];
    let inv_m = 1.0 / config.permutations as f64;
    let mut evaluated = 0u64;
    let mut skipped = 0u64;
    for (walked, perm) in permutations.iter().enumerate() {
        ctx.check_cancelled()?;
        let mut prefix = Subset::EMPTY;
        let mut prefix_utility = 0.0;
        let mut truncated = false;
        for (position, &i) in perm.iter().enumerate() {
            if truncated {
                skipped += 1;
                continue;
            }
            prefix = prefix.with(i);
            // Speculated prefixes are table hits; beyond the horizon
            // (or with speculation disabled) each prefix's T-round
            // column is evaluated as one cancellable batch.
            if position >= speculation {
                let mut plan = EvalPlan::new();
                plan.add_column(rounds, prefix);
                oracle.try_evaluate_plan(&plan, ctx.cancel_token())?;
            }
            let u = oracle.total_utility(prefix);
            evaluated += 1;
            values[i] += (u - prefix_utility) * inv_m;
            prefix_utility = u;
            if (grand - prefix_utility).abs() <= threshold {
                truncated = true;
            }
        }
        ctx.emit_permutation("tmc", walked + 1, config.permutations);
    }
    let total = evaluated + skipped;
    Ok(TmcOutput {
        values,
        truncated_fraction: if total == 0 {
            0.0
        } else {
            skipped as f64 / total as f64
        },
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_data::Dataset;
    use fedval_fl::{train_federated, FlConfig};
    use fedval_linalg::Matrix;
    use fedval_models::LogisticRegression;

    fn setup(seed: u64) -> (fedval_fl::TrainingTrace, LogisticRegression, Dataset) {
        let clients: Vec<Dataset> = (0..5)
            .map(|i| {
                let f = Matrix::from_fn(12, 3, |r, c| {
                    (((r + 1) * (c + 2) + 3 * i) % 7) as f64 / 3.0 - 1.0
                });
                let labels: Vec<usize> = (0..12).map(|r| (r + i) % 2).collect();
                Dataset::new(f, labels, 2).unwrap()
            })
            .collect();
        let test = {
            let f = Matrix::from_fn(16, 3, |r, c| ((r * 3 + c) % 7) as f64 / 3.0 - 1.0);
            let labels: Vec<usize> = (0..16).map(|r| r % 2).collect();
            Dataset::new(f, labels, 2).unwrap()
        };
        let proto = LogisticRegression::new(3, 2, 0.01, 11);
        let trace = train_federated(&proto, &clients, &FlConfig::new(4, 3, 0.3, seed));
        (trace, proto, test)
    }

    #[test]
    fn untruncated_tmc_converges_to_exact() {
        let (trace, proto, test) = setup(1);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let exact = crate::pipeline::ExactShapley.run(&oracle).unwrap();
        let out = Tmc {
            permutations: 3000,
            truncation_tol: 0.0,
            seed: 5,
            ..Tmc::default()
        }
        .run(&oracle)
        .unwrap();
        for (a, b) in out.values.iter().zip(&exact) {
            assert!((a - b).abs() < 0.01, "tmc {a} vs exact {b}");
        }
    }

    #[test]
    fn balance_holds_without_truncation() {
        // Marginals telescope, so Σ_i values = U(I) exactly per permutation.
        let (trace, proto, test) = setup(2);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let out = Tmc {
            permutations: 20,
            truncation_tol: 0.0,
            seed: 7,
            ..Tmc::default()
        }
        .run(&oracle)
        .unwrap();
        let total: f64 = out.values.iter().sum();
        let grand = oracle.total_utility(Subset::full(5));
        assert!((total - grand).abs() < 1e-10);
        assert_eq!(out.truncated_fraction, 0.0);
    }

    #[test]
    fn truncation_saves_evaluations() {
        let (trace, proto, test) = setup(3);

        let oracle_a = UtilityOracle::new(&trace, &proto, &test);
        oracle_a.reset_counter();
        let _ = Tmc {
            permutations: 50,
            truncation_tol: 0.0,
            seed: 9,
            ..Tmc::default()
        }
        .run(&oracle_a)
        .unwrap();
        let full_calls = oracle_a.loss_evaluations();

        let oracle_b = UtilityOracle::new(&trace, &proto, &test);
        oracle_b.reset_counter();
        let out = Tmc {
            permutations: 50,
            truncation_tol: 0.5, // aggressive truncation
            seed: 9,
            ..Tmc::default()
        }
        .run(&oracle_b)
        .unwrap();
        let truncated_calls = oracle_b.loss_evaluations();
        assert!(out.truncated_fraction > 0.0, "expected some truncation");
        assert!(
            truncated_calls <= full_calls,
            "truncation should not increase calls: {truncated_calls} vs {full_calls}"
        );
    }

    #[test]
    fn aggressive_truncation_still_ranks_reasonably() {
        let (trace, proto, test) = setup(4);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let exact = crate::pipeline::ExactShapley.run(&oracle).unwrap();
        let out = Tmc {
            permutations: 2000,
            truncation_tol: 0.05,
            seed: 11,
            ..Tmc::default()
        }
        .run(&oracle)
        .unwrap();
        let rho = fedval_metrics::spearman_rho(&out.values, &exact).unwrap();
        assert!(rho > 0.6, "rank correlation under truncation {rho}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (trace, proto, test) = setup(5);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let cfg = Tmc {
            permutations: 25,
            truncation_tol: 0.1,
            seed: 13,
            ..Tmc::default()
        };
        let a = cfg.run(&oracle).unwrap();
        let b = cfg.run(&oracle).unwrap();
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn speculation_never_changes_the_estimate() {
        // Full, partial, and disabled speculation must agree bit-for-bit
        // with each other (only the evaluation cost may differ), and the
        // lazy walk must match the pre-speculation implementation's
        // access pattern (per-prefix columns only).
        let (trace, proto, test) = setup(8);
        let lazy_oracle = UtilityOracle::new(&trace, &proto, &test);
        let lazy = Tmc {
            permutations: 40,
            truncation_tol: 0.2,
            speculation: 0,
            seed: 17,
        }
        .run(&lazy_oracle)
        .unwrap();
        let lazy_calls = lazy_oracle.loss_evaluations();
        for speculation in [2, usize::MAX] {
            let oracle = UtilityOracle::new(&trace, &proto, &test);
            let out = Tmc {
                permutations: 40,
                truncation_tol: 0.2,
                speculation,
                seed: 17,
            }
            .run(&oracle)
            .unwrap();
            for (a, b) in lazy.values.iter().zip(&out.values) {
                assert_eq!(a.to_bits(), b.to_bits(), "speculation {speculation}");
            }
            assert_eq!(lazy.truncated_fraction, out.truncated_fraction);
            assert!(
                oracle.loss_evaluations() >= lazy_calls,
                "speculation can only add evaluations"
            );
        }
    }

    #[test]
    fn cancelled_walk_returns_cancelled_within_one_permutation() {
        use crate::valuator::Progress;
        let (trace, proto, test) = setup(9);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let cfg = Tmc {
            permutations: 500,
            truncation_tol: 0.0,
            seed: 3,
            ..Tmc::default()
        };
        let token = fedval_runtime::CancelToken::new();
        let canceller = token.clone();
        let mut walked = Vec::new();
        let mut sink = |e: crate::valuator::ProgressEvent<'_>| {
            if let Progress::Permutation { index, .. } = e.progress {
                walked.push(index);
                if index == 3 {
                    canceller.cancel();
                }
            }
        };
        let mut ctx = RunContext::new()
            .with_progress(&mut sink)
            .with_cancel(token);
        let err = cfg.run_with(&oracle, &mut ctx).unwrap_err();
        assert_eq!(err, ValuationError::Cancelled);
        drop(ctx);
        assert_eq!(
            walked,
            vec![1, 2, 3],
            "the walk stopped within one permutation of the cancel"
        );
    }

    #[test]
    fn rejects_zero_permutations() {
        let (trace, proto, test) = setup(6);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let err = Tmc {
            permutations: 0,
            truncation_tol: 0.0,
            seed: 0,
            ..Tmc::default()
        }
        .run(&oracle)
        .unwrap_err();
        assert_eq!(err, ValuationError::NoPermutations);
    }

    #[test]
    fn rejects_negative_tolerance() {
        let (trace, proto, test) = setup(7);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let err = Tmc {
            permutations: 5,
            truncation_tol: -0.1,
            seed: 0,
            ..Tmc::default()
        }
        .run(&oracle)
        .unwrap_err();
        assert_eq!(err, ValuationError::InvalidTolerance { value: -0.1 });
    }
}
