//! Group-testing Shapley estimation (Jia et al., AISTATS 2019).
//!
//! The second classical accelerator the paper's related-work section
//! surveys. Rather than walking permutations, it samples random coalitions
//! with the harmonic size distribution and estimates all *pairwise value
//! differences* simultaneously:
//!
//! ```text
//! s_i − s_j ≈ Ẑ/T · Σ_t U(S_t) (β_ti − β_tj),   Ẑ = 2 Σ_{k=1}^{N−1} 1/k
//! ```
//!
//! where `β_ti` indicates `i ∈ S_t` and the coalition size `k` is drawn
//! with probability ∝ `1/k + 1/(N−k)`. The individual values are then
//! recovered from the differences plus the balance equation
//! `Σ_i s_i = U(I)`.

use crate::error::ValuationError;
use crate::valuator::{Diagnostics, RunContext, ValuationReport, Valuator};
use fedval_fl::{EvalPlan, Subset, UtilityOracle};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::Rng;
use rand::SeedableRng;

/// The group-testing valuation method (Jia et al.) as a
/// [`Valuator`] strategy object.
#[derive(Debug, Clone)]
pub struct GroupTesting {
    /// Number of sampled coalitions `T` (Jia et al. need
    /// `O(N (log N)²)` for an ε-guarantee).
    pub num_samples: usize,
    /// RNG seed.
    pub seed: u64,
}

impl GroupTesting {
    /// `T = ⌈c · N (ln N)²⌉` samples for a given constant.
    pub fn scaled(n: usize, c: f64) -> Self {
        let ln = (n.max(2) as f64).ln();
        GroupTesting {
            num_samples: (c * n as f64 * ln * ln).ceil() as usize,
            seed: 0,
        }
    }

    /// Estimates the whole-run Shapley value by group testing.
    ///
    /// Requires `n ≥ 2`. Returns values satisfying the balance equation
    /// `Σ_i s_i = U(I)` exactly (it is imposed during recovery).
    pub fn run(&self, oracle: &UtilityOracle<'_>) -> Result<Vec<f64>, ValuationError> {
        self.run_inner(oracle, &mut RunContext::new())
    }

    fn run_inner(
        &self,
        oracle: &UtilityOracle<'_>,
        ctx: &mut RunContext<'_>,
    ) -> Result<Vec<f64>, ValuationError> {
        let n = oracle.num_clients();
        if n < 2 {
            return Err(ValuationError::NotEnoughClients { clients: n, min: 2 });
        }
        if self.num_samples == 0 {
            return Err(ValuationError::NoSamples);
        }
        if oracle.num_rounds() == 0 {
            return Err(ValuationError::EmptyTrace);
        }
        run_group_testing(oracle, self, ctx)
    }
}

impl Valuator for GroupTesting {
    fn name(&self) -> &'static str {
        "group-testing"
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
        ctx.emit(self.name(), "sample coalitions");
        let values = cfg.run_inner(oracle, ctx)?;
        Ok(ValuationReport {
            method: self.name(),
            values,
            diagnostics: Diagnostics {
                cells_evaluated: oracle.loss_evaluations() - before,
                cell_hits: oracle.cell_hits() - hits_before,
                ..Diagnostics::default()
            },
        })
    }
}

/// The sampling and recovery core; configuration validity is
/// [`GroupTesting::run`]'s responsibility.
fn run_group_testing(
    oracle: &UtilityOracle<'_>,
    config: &GroupTesting,
    ctx: &mut RunContext<'_>,
) -> Result<Vec<f64>, ValuationError> {
    let n = oracle.num_clients();
    // Harmonic size distribution over k = 1..N-1.
    let weights: Vec<f64> = (1..n)
        .map(|k| 1.0 / k as f64 + 1.0 / (n - k) as f64)
        .collect();
    let z: f64 = weights.iter().sum();
    let cumulative: Vec<f64> = weights
        .iter()
        .scan(0.0, |acc, &w| {
            *acc += w;
            Some(*acc / z)
        })
        .collect();

    let mut rng = StdRng::seed_from_u64(config.seed);
    // Draw every coalition up front (the RNG stream never depended on
    // utility values), evaluate all distinct cells as one parallel batch,
    // then accumulate in the original sample order.
    let draws: Vec<Vec<usize>> = (0..config.num_samples)
        .map(|_| {
            let u01: f64 = rng.random();
            let k = 1 + cumulative.partition_point(|&c| c < u01).min(n - 2);
            sample(&mut rng, n, k).into_vec()
        })
        .collect();
    let rounds = oracle.num_rounds();
    let mut plan = EvalPlan::new();
    for members in &draws {
        plan.add_column(rounds, Subset::from_indices(members));
    }
    plan.add_column(rounds, Subset::full(n));
    oracle.try_evaluate_plan(&plan, ctx.cancel_token())?;

    // Accumulate b_i = Σ_t U(S_t) β_ti and the sum of utilities, from
    // which every pairwise difference is (z / T)(b_i − b_j).
    let mut b = vec![0.0; n];
    for members in draws {
        let s = Subset::from_indices(&members);
        let utility = oracle.total_utility(s);
        for i in members {
            b[i] += utility;
        }
    }
    let scale = z / config.num_samples as f64;

    // Recover values: s_i − s_j = scale (b_i − b_j); with balance
    // Σ s_i = U(I) the unique solution is
    // s_i = U(I)/N + scale (b_i − mean(b)).
    let grand = oracle.total_utility(Subset::full(n));
    let mean_b: f64 = b.iter().sum::<f64>() / n as f64;
    Ok(b.iter()
        .map(|&bi| grand / n as f64 + scale * (bi - mean_b))
        .collect())
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
                    (((r + 2) * (c + 1) + 4 * i) % 7) as f64 / 3.0 - 1.0
                });
                let labels: Vec<usize> = (0..12).map(|r| (r + i) % 2).collect();
                Dataset::new(f, labels, 2).unwrap()
            })
            .collect();
        let test = {
            let f = Matrix::from_fn(16, 3, |r, c| ((r * 2 + c) % 7) as f64 / 3.0 - 1.0);
            let labels: Vec<usize> = (0..16).map(|r| r % 2).collect();
            Dataset::new(f, labels, 2).unwrap()
        };
        let proto = LogisticRegression::new(3, 2, 0.01, 11);
        let trace = train_federated(&proto, &clients, &FlConfig::new(4, 3, 0.3, seed));
        (trace, proto, test)
    }

    #[test]
    fn balance_holds_by_construction() {
        let (trace, proto, test) = setup(1);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let v = GroupTesting {
            num_samples: 50,
            seed: 3,
        }
        .run(&oracle)
        .unwrap();
        let total: f64 = v.iter().sum();
        let grand = oracle.total_utility(Subset::full(5));
        assert!((total - grand).abs() < 1e-10);
    }

    #[test]
    fn converges_to_exact_shapley() {
        let (trace, proto, test) = setup(2);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let exact = crate::pipeline::ExactShapley.run(&oracle).unwrap();
        let v = GroupTesting {
            num_samples: 60_000,
            seed: 5,
        }
        .run(&oracle)
        .unwrap();
        for (a, b) in v.iter().zip(&exact) {
            assert!((a - b).abs() < 0.02, "gt {a} vs exact {b}");
        }
    }

    #[test]
    fn ranking_agrees_at_moderate_budget() {
        let (trace, proto, test) = setup(3);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let exact = crate::pipeline::ExactShapley.run(&oracle).unwrap();
        let v = GroupTesting::scaled(5, 200.0).run(&oracle).unwrap();
        let rho = fedval_metrics::spearman_rho(&v, &exact).unwrap();
        assert!(rho > 0.6, "rank agreement {rho}");
    }

    #[test]
    fn deterministic_given_seed() {
        let (trace, proto, test) = setup(4);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let cfg = GroupTesting {
            num_samples: 200,
            seed: 9,
        };
        let a = cfg.run(&oracle).unwrap();
        let b = cfg.run(&oracle).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn scaled_budget_grows_superlinearly() {
        let small = GroupTesting::scaled(10, 1.0).num_samples;
        let large = GroupTesting::scaled(100, 1.0).num_samples;
        assert!(large > 10 * small, "{small} -> {large}");
    }

    #[test]
    fn rejects_single_client() {
        let (trace, proto, test) = setup(5);
        // Build a single-client trace.
        let clients = vec![test.clone()];
        let single = train_federated(&proto, &clients, &FlConfig::new(1, 1, 0.1, 1));
        let oracle = UtilityOracle::new(&single, &proto, &test);
        drop(trace);
        let err = GroupTesting {
            num_samples: 1,
            seed: 0,
        }
        .run(&oracle)
        .unwrap_err();
        assert_eq!(err, ValuationError::NotEnoughClients { clients: 1, min: 2 });
    }

    #[test]
    fn rejects_zero_samples() {
        let (trace, proto, test) = setup(6);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let err = GroupTesting {
            num_samples: 0,
            seed: 0,
        }
        .run(&oracle)
        .unwrap_err();
        assert_eq!(err, ValuationError::NoSamples);
    }
}
