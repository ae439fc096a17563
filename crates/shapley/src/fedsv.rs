//! Federated Shapley value (Wang et al., paper Definition 2).
//!
//! `s_{t,i}` is the Shapley value of client `i` within the round-`t`
//! cohort `I_t` (zero for unselected clients); the final FedSV is
//! `s_i = Σ_t s_{t,i}`. Exact enumeration is exponential in `|I_t|`, so a
//! permutation-sampling estimator is provided for large cohorts — the same
//! Monte-Carlo scheme the paper's cost model assumes (`O(T K² log K)`
//! utility calls).

use crate::coeffs::BinomialTable;
use crate::error::ValuationError;
use crate::valuator::{Diagnostics, RunContext, ValuationReport, Valuator};
use crate::MAX_EXACT_CLIENTS;
use fedval_fl::{EvalPlan, Subset, UtilityOracle};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;

/// Configuration for the Monte-Carlo FedSV estimator.
#[derive(Debug, Clone, Default)]
pub struct FedSvConfig {
    /// Permutations sampled per round; `None` chooses `⌈K ln K⌉ + 1`
    /// (the paper's `O(K log K)` sample complexity).
    pub permutations_per_round: Option<usize>,
    /// RNG seed.
    pub seed: u64,
}

/// The FedSV valuation method (Wang et al., paper Definition 2) as a
/// [`Valuator`] strategy object.
///
/// Two estimators, one method: [`FedSv::exact`] enumerates every
/// in-cohort coalition (gated to cohorts of
/// [`MAX_EXACT_CLIENTS`]); and
/// [`FedSv::monte_carlo`] walks sampled permutations per round,
/// absorbing [`FedSvConfig`].
#[derive(Debug, Clone, Default)]
pub struct FedSv {
    /// `None` → exact per-round enumeration; `Some` → Monte-Carlo
    /// permutation sampling with the given parameters.
    pub sampling: Option<FedSvConfig>,
}

impl FedSv {
    /// Exact per-round enumeration: per-round exact Shapley over the
    /// selected cohort. Costs `Σ_t 2^{|I_t|}` utility evaluations —
    /// fine for the paper's small experiments (`K = 3`), infeasible for
    /// Fig. 7's `K = 50` (use [`FedSv::monte_carlo`]).
    pub fn exact() -> Self {
        FedSv { sampling: None }
    }

    /// Monte-Carlo permutation sampling.
    pub fn monte_carlo(config: FedSvConfig) -> Self {
        FedSv {
            sampling: Some(config),
        }
    }

    /// Values every client; dispatches to the configured estimator.
    pub fn run(&self, oracle: &UtilityOracle<'_>) -> Result<Vec<f64>, ValuationError> {
        let mut ctx = RunContext::new();
        match &self.sampling {
            None => try_fedsv(oracle, &mut ctx),
            Some(cfg) => Ok(try_fedsv_monte_carlo(oracle, cfg, &mut ctx)?.0),
        }
    }
}

impl Valuator for FedSv {
    fn name(&self) -> &'static str {
        match self.sampling {
            None => "fedsv",
            Some(_) => "fedsv-mc",
        }
    }

    fn value(
        &self,
        oracle: &UtilityOracle<'_>,
        ctx: &mut RunContext<'_>,
    ) -> Result<ValuationReport, ValuationError> {
        let before = oracle.loss_evaluations();
        let hits_before = oracle.cell_hits();
        let (values, permutations_used) = match &self.sampling {
            None => {
                ctx.emit(self.name(), "enumerate per-round cohorts");
                (try_fedsv(oracle, ctx)?, 0)
            }
            Some(cfg) => {
                let mut cfg = cfg.clone();
                cfg.seed = ctx.seed_or(cfg.seed);
                ctx.emit(self.name(), "sample per-round permutations");
                try_fedsv_monte_carlo(oracle, &cfg, ctx)?
            }
        };
        Ok(ValuationReport {
            method: self.name(),
            values,
            diagnostics: Diagnostics {
                cells_evaluated: oracle.loss_evaluations() - before,
                cell_hits: oracle.cell_hits() - hits_before,
                permutations_used,
                ..Diagnostics::default()
            },
        })
    }
}

/// Fallible exact FedSV (see [`FedSv::exact`]).
fn try_fedsv(
    oracle: &UtilityOracle<'_>,
    ctx: &mut RunContext<'_>,
) -> Result<Vec<f64>, ValuationError> {
    let n = oracle.num_clients();
    if oracle.num_rounds() == 0 {
        return Err(ValuationError::EmptyTrace);
    }
    let table = BinomialTable::new(n.max(1));
    // Plan every in-cohort coalition of every round, evaluate in parallel,
    // then run the (now evaluation-free) weighted sums below.
    let mut plan = EvalPlan::new();
    for t in 0..oracle.num_rounds() {
        let cohort = oracle.trace().selected(t);
        if cohort.len() > MAX_EXACT_CLIENTS {
            return Err(ValuationError::CohortTooLarge {
                round: t,
                cohort: cohort.len(),
                max: MAX_EXACT_CLIENTS,
            });
        }
        plan.add_subsets_of(t, cohort);
    }
    oracle.try_evaluate_plan(&plan, ctx.cancel_token())?;
    let mut values = vec![0.0; n];
    for t in 0..oracle.num_rounds() {
        let cohort = oracle.trace().selected(t);
        let k = cohort.len();
        for i in cohort.members() {
            let others = cohort.without(i);
            let mut acc = 0.0;
            for s in others.subsets() {
                let weight = table.shapley_weight(k, s.len());
                acc += weight * oracle.marginal(t, s, i);
            }
            values[i] += acc;
        }
    }
    Ok(values)
}

/// Fallible Monte-Carlo FedSV (see [`FedSv::monte_carlo`]); the second
/// element is the number of permutations actually walked (the adaptive
/// `⌈K ln K⌉ + 1` default makes it data-dependent). Emits one
/// permutation-level progress event per walked permutation and observes
/// the context's cancellation token at permutation and batch boundaries.
fn try_fedsv_monte_carlo(
    oracle: &UtilityOracle<'_>,
    config: &FedSvConfig,
    ctx: &mut RunContext<'_>,
) -> Result<(Vec<f64>, usize), ValuationError> {
    let n = oracle.num_clients();
    if oracle.num_rounds() == 0 {
        return Err(ValuationError::EmptyTrace);
    }
    if config.permutations_per_round == Some(0) {
        return Err(ValuationError::NoPermutations);
    }
    let mut rng = StdRng::seed_from_u64(config.seed);

    // Draw every permutation up front (the RNG stream never depended on
    // utility values, so this is the exact sequence the serial version
    // drew), plan all prefix cells, and evaluate them as one batch.
    let mut per_round: Vec<(usize, Vec<Vec<usize>>)> = Vec::new();
    for t in 0..oracle.num_rounds() {
        let cohort = oracle.trace().selected(t);
        let k = cohort.len();
        if k == 0 {
            continue;
        }
        let m = config
            .permutations_per_round
            .unwrap_or_else(|| ((k as f64) * (k as f64).ln().max(1.0)).ceil() as usize + 1);
        let mut members = cohort.members();
        let perms: Vec<Vec<usize>> = (0..m)
            .map(|_| {
                members.shuffle(&mut rng);
                members.clone()
            })
            .collect();
        per_round.push((t, perms));
    }
    let mut plan = EvalPlan::new();
    for (t, perms) in &per_round {
        for perm in perms {
            plan.add_prefixes(*t, perm);
        }
    }
    oracle.try_evaluate_plan(&plan, ctx.cancel_token())?;

    // Accumulate marginals in the original serial order — every read is
    // now a table hit, and the float sums are bit-identical.
    let total: usize = per_round.iter().map(|(_, perms)| perms.len()).sum();
    let mut values = vec![0.0; n];
    let mut walked = 0usize;
    for (t, perms) in &per_round {
        let inv_m = 1.0 / perms.len() as f64;
        for perm in perms {
            ctx.check_cancelled()?;
            let mut prefix = Subset::EMPTY;
            for &i in perm {
                let marginal = oracle.marginal(*t, prefix, i);
                values[i] += marginal * inv_m;
                prefix = prefix.with(i);
            }
            walked += 1;
            ctx.emit_permutation("fedsv-mc", walked, total);
        }
    }
    Ok((values, walked))
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_data::Dataset;
    use fedval_fl::{train_federated, FlConfig, TrainingTrace};
    use fedval_linalg::Matrix;
    use fedval_models::LogisticRegression;

    fn make_clients(n: usize, seed_shift: usize) -> Vec<Dataset> {
        (0..n)
            .map(|i| {
                let f = Matrix::from_fn(12, 3, |r, c| {
                    (((r + 1) * (c + 2) + i + seed_shift) % 7) as f64 / 3.0 - 1.0
                });
                let labels: Vec<usize> = (0..12).map(|r| (r + i) % 2).collect();
                Dataset::new(f, labels, 2).unwrap()
            })
            .collect()
    }

    fn test_set() -> Dataset {
        let f = Matrix::from_fn(16, 3, |r, c| ((r * 3 + c) % 7) as f64 / 3.0 - 1.0);
        let labels: Vec<usize> = (0..16).map(|r| r % 2).collect();
        Dataset::new(f, labels, 2).unwrap()
    }

    fn run(
        n: usize,
        rounds: usize,
        k: usize,
        seed: u64,
    ) -> (TrainingTrace, LogisticRegression, Dataset) {
        let clients = make_clients(n, 0);
        let proto = LogisticRegression::new(3, 2, 0.01, 11);
        let trace = train_federated(&proto, &clients, &FlConfig::new(rounds, k, 0.3, seed));
        (trace, proto, test_set())
    }

    #[test]
    fn unselected_clients_can_get_zero() {
        // With 1 round beyond the full round and tiny cohorts, clients
        // outside every I_t (t ≥ 1) only earn from round 0.
        let (trace, proto, test) = run(5, 1, 2, 1);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let v = FedSv::exact().run(&oracle).unwrap();
        assert_eq!(v.len(), 5);
        // Round 0 selects everyone, so nobody is structurally zero here;
        // instead check that a no-everyone-heard run zeroes the unselected.
        let clients = make_clients(5, 0);
        let cfg = FlConfig::new(1, 2, 0.3, 7).with_everyone_heard(false);
        let trace2 = train_federated(&proto, &clients, &cfg);
        let oracle2 = UtilityOracle::new(&trace2, &proto, &test);
        let v2 = FedSv::exact().run(&oracle2).unwrap();
        let cohort = trace2.selected(0);
        for i in 0..5 {
            if !cohort.contains(i) {
                assert_eq!(v2[i], 0.0, "unselected client {i} must get zero");
            }
        }
        let _ = v;
    }

    #[test]
    fn single_round_full_cohort_matches_classical_shapley() {
        let (trace, proto, test) = run(4, 1, 4, 1);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let v = FedSv::exact().run(&oracle).unwrap();
        let classical = crate::exact::exact_shapley(4, |s| oracle.utility(0, s));
        for (a, b) in v.iter().zip(&classical) {
            assert!((a - b).abs() < 1e-12, "{a} vs {b}");
        }
    }

    #[test]
    fn per_round_values_sum_to_round_utility() {
        // Balance within each round: Σ_{i∈I_t} s_{t,i} = U_t(I_t).
        let (trace, proto, test) = run(4, 3, 3, 5);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let v = FedSv::exact().run(&oracle).unwrap();
        let expected: f64 = (0..3).map(|t| oracle.utility(t, trace.selected(t))).sum();
        let total: f64 = v.iter().sum();
        assert!((total - expected).abs() < 1e-10, "{total} vs {expected}");
    }

    #[test]
    fn monte_carlo_converges_to_exact() {
        let (trace, proto, test) = run(5, 3, 3, 9);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let exact = FedSv::exact().run(&oracle).unwrap();
        let mc = FedSv::monte_carlo(FedSvConfig {
            permutations_per_round: Some(4000),
            seed: 3,
        })
        .run(&oracle)
        .unwrap();
        for (a, b) in exact.iter().zip(&mc) {
            assert!((a - b).abs() < 5e-3, "exact {a} vs mc {b}");
        }
    }

    #[test]
    fn monte_carlo_deterministic_given_seed() {
        let (trace, proto, test) = run(4, 2, 2, 2);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let cfg = FedSvConfig {
            permutations_per_round: Some(50),
            seed: 42,
        };
        let a = FedSv::monte_carlo(cfg.clone()).run(&oracle).unwrap();
        let b = FedSv::monte_carlo(cfg.clone()).run(&oracle).unwrap();
        assert_eq!(a, b);
    }

    #[test]
    fn default_sample_count_scales_with_cohort() {
        let cfg = FedSvConfig::default();
        assert!(cfg.permutations_per_round.is_none());
        // Indirectly exercised via a small run: should not panic and should
        // produce finite values.
        let (trace, proto, test) = run(4, 2, 3, 8);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let v = FedSv::monte_carlo(cfg.clone()).run(&oracle).unwrap();
        assert!(v.iter().all(|x| x.is_finite()));
    }

    #[test]
    fn duplicated_clients_can_diverge_under_fedsv() {
        // The paper's Observation 1: identical clients receive different
        // FedSV when selection treats them differently. With K=1 cohorts
        // (and no full round) only the selected twin earns.
        let mut clients = make_clients(4, 3);
        clients[3] = clients[0].clone();
        let proto = LogisticRegression::new(3, 2, 0.01, 11);
        let cfg = FlConfig::new(4, 1, 0.3, 13).with_everyone_heard(false);
        let trace = train_federated(&proto, &clients, &cfg);
        let test = test_set();
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let v = FedSv::exact().run(&oracle).unwrap();
        // At least one round selected exactly one of the twins; unless both
        // twins were selected equally often the values differ.
        let times_0 = (0..4).filter(|&t| trace.selected(t).contains(0)).count();
        let times_3 = (0..4).filter(|&t| trace.selected(t).contains(3)).count();
        if times_0 != times_3 {
            assert_ne!(v[0], v[3], "identical clients diverged by selection");
        }
    }
}
