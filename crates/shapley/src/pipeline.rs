//! Algorithm 1 end-to-end: observe → complete → value.
//!
//! The pipeline consumes a [`UtilityOracle`] (wrapping a recorded FedAvg
//! run), builds the partially observed completion problem, solves it with
//! a pluggable [`MatrixCompleter`], and evaluates ComFedSV — exactly (full
//! coalition space, Definition 4) or by Monte-Carlo permutation sampling
//! (Algorithm 1 / equation (12)). The method struct [`ComFedSv`]
//! implements [`Valuator`]; its fallible
//! [`ComFedSv::run`] returns the rich [`ValuationOutput`] for callers
//! that need the factors and the completion problem.

use crate::comfedsv::{comfedsv_from_factors, comfedsv_monte_carlo};
use crate::error::ValuationError;
use crate::exact::exact_shapley_unchecked;
use crate::valuator::{Diagnostics, RunContext, ValuationReport, Valuator};
use crate::MAX_EXACT_CLIENTS;
use fedval_fl::{EvalPlan, Subset, UtilityOracle};
use fedval_mc::{
    AlsConfig, CcdConfig, CompletionProblem, Factors, MatrixCompleter, SgdConfig, SolveHooks,
};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::HashSet;

/// Which ComFedSV estimator the pipeline runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EstimatorKind {
    /// Register all `2^N` coalition columns and evaluate Definition 4
    /// exactly (requires `N ≤` [`MAX_EXACT_CLIENTS`]).
    ExactSubsets,
    /// Algorithm 1: `M` sampled permutations, reduced problem (13),
    /// estimator (12).
    MonteCarlo {
        /// Number of sampled permutations `M`. The paper cites
        /// `M = O(N log N)` for a good approximation.
        num_permutations: usize,
    },
}

/// Which factorization solver completes the utility matrix. Each variant
/// materializes as a [`MatrixCompleter`] via
/// [`CompletionSolver::completer`], so the pipeline itself is
/// solver-agnostic.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum CompletionSolver {
    /// Alternating least squares (exact ridge sub-solves; default).
    #[default]
    Als,
    /// CCD++ — the LIBPMF algorithm the paper's released code uses.
    Ccd,
    /// Stochastic gradient descent — the cheap baseline for very large
    /// column counts (sweep budget is interpreted as epochs).
    Sgd,
}

impl CompletionSolver {
    /// Builds the boxed solver for this variant with the pipeline's
    /// hyper-parameters (`max_iters` = ALS/CCD sweeps or SGD epochs).
    pub fn completer(
        &self,
        rank: usize,
        lambda: f64,
        max_iters: usize,
        seed: u64,
    ) -> Box<dyn MatrixCompleter> {
        match self {
            CompletionSolver::Als => Box::new(AlsConfig {
                rank,
                lambda,
                max_iters,
                tol: 1e-9,
                seed,
            }),
            CompletionSolver::Ccd => Box::new(CcdConfig {
                rank,
                lambda,
                max_iters,
                inner_iters: 3,
                tol: 1e-9,
                seed,
            }),
            CompletionSolver::Sgd => {
                let mut cfg = SgdConfig::new(rank)
                    .with_lambda(lambda)
                    .with_epochs(max_iters);
                cfg.seed = seed;
                Box::new(cfg)
            }
        }
    }
}

/// The ComFedSV valuation method (paper Algorithm 1): train-trace
/// observation, matrix completion, Definition-4 / equation-(12) values.
///
/// This struct is both the configuration and the
/// [`Valuator`] strategy object.
#[derive(Debug, Clone)]
pub struct ComFedSv {
    /// Completion rank `r` (Propositions 1–2 justify `O(log T)`).
    pub rank: usize,
    /// Regularization `λ` of problem (9)/(13).
    pub lambda: f64,
    /// Estimator variant.
    pub estimator: EstimatorKind,
    /// Solver sweep budget (epochs for the SGD solver).
    pub als_max_iters: usize,
    /// Which completion solver to run.
    pub solver: CompletionSolver,
    /// Seed for permutation sampling and solver initialization.
    pub seed: u64,
}

impl ComFedSv {
    /// Defaults for the paper's small experiments (exact subsets, rank 5).
    pub fn exact(rank: usize) -> Self {
        ComFedSv {
            rank,
            lambda: 0.1,
            estimator: EstimatorKind::ExactSubsets,
            als_max_iters: 100,
            solver: CompletionSolver::Als,
            seed: 0,
        }
    }

    /// Defaults for Algorithm 1 with `M = ⌈N ln N⌉ + 1` permutations.
    pub fn monte_carlo(rank: usize, n: usize) -> Self {
        let m = ((n as f64) * (n as f64).ln().max(1.0)).ceil() as usize + 1;
        ComFedSv {
            rank,
            lambda: 0.1,
            estimator: EstimatorKind::MonteCarlo {
                num_permutations: m,
            },
            als_max_iters: 100,
            solver: CompletionSolver::Als,
            seed: 0,
        }
    }

    /// Builder-style override of `λ`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Builder-style override of the completion solver.
    pub fn with_solver(mut self, solver: CompletionSolver) -> Self {
        self.solver = solver;
        self
    }

    /// Runs the full pipeline with the solver configured in
    /// [`solver`](ComFedSv::solver). Returns the rich
    /// [`ValuationOutput`]; the [`Valuator`] impl wraps this into a
    /// [`ValuationReport`].
    pub fn run(&self, oracle: &UtilityOracle<'_>) -> Result<ValuationOutput, ValuationError> {
        let completer =
            self.solver
                .completer(self.rank, self.lambda, self.als_max_iters, self.seed);
        self.run_with(oracle, completer.as_ref())
    }

    /// Runs the pipeline with a caller-supplied completion solver —
    /// anything implementing [`MatrixCompleter`], including solvers not
    /// covered by the [`CompletionSolver`] enum.
    pub fn run_with(
        &self,
        oracle: &UtilityOracle<'_>,
        completer: &dyn MatrixCompleter,
    ) -> Result<ValuationOutput, ValuationError> {
        self.run_inner(oracle, completer, &mut RunContext::new())
    }

    /// The pipeline body under an explicit [`RunContext`]: observation
    /// batches honor the cancellation token, and the completion solve
    /// reports sweep-level progress through the context (bridged via
    /// [`SolveHooks`]).
    fn run_inner(
        &self,
        oracle: &UtilityOracle<'_>,
        completer: &dyn MatrixCompleter,
        ctx: &mut RunContext<'_>,
    ) -> Result<ValuationOutput, ValuationError> {
        let n = oracle.num_clients();
        let t = oracle.num_rounds();
        if t == 0 {
            return Err(ValuationError::EmptyTrace);
        }
        match self.estimator {
            EstimatorKind::ExactSubsets => {
                if n > MAX_EXACT_CLIENTS {
                    return Err(ValuationError::TooManyClients {
                        clients: n,
                        max: MAX_EXACT_CLIENTS,
                    });
                }
                // Plan every in-cohort coalition, evaluate the batch in
                // parallel, then replay the plan into the completion problem
                // (plan order == the former serial observation order).
                let mut plan = EvalPlan::new();
                for round in 0..t {
                    plan.add_subsets_of(round, oracle.trace().selected(round));
                }
                let values = oracle.try_evaluate_plan(&plan, ctx.cancel_token())?;
                let mut problem = CompletionProblem::new(t);
                problem.add_observations(
                    plan.cells()
                        .iter()
                        .zip(values)
                        .map(|(&(round, s), v)| (round, s.bits(), v)),
                );
                // Register the full coalition space so Definition 4's sum sees
                // a factor row for every subset.
                for bits in 1..(1u64 << n) {
                    problem.ensure_column(bits);
                }
                let completion = complete_with_context(self.name(), completer, &problem, ctx)?;
                let values = comfedsv_from_factors(&completion.factors, &problem, n);
                Ok(ValuationOutput {
                    values,
                    factors: completion.factors,
                    problem,
                    objective_trace: completion.objective_trace,
                    permutations: Vec::new(),
                })
            }
            EstimatorKind::MonteCarlo { num_permutations } => {
                if num_permutations == 0 {
                    return Err(ValuationError::NoPermutations);
                }
                let mut rng = StdRng::seed_from_u64(self.seed);
                let mut base: Vec<usize> = (0..n).collect();
                let permutations: Vec<Vec<usize>> = (0..num_permutations)
                    .map(|_| {
                        base.shuffle(&mut rng);
                        base.clone()
                    })
                    .collect();

                // Distinct non-empty prefixes across all permutations.
                let mut prefixes: Vec<Subset> = Vec::new();
                let mut seen: HashSet<u64> = HashSet::new();
                for perm in &permutations {
                    let mut prefix = Subset::EMPTY;
                    for &i in perm {
                        prefix = prefix.with(i);
                        if seen.insert(prefix.bits()) {
                            prefixes.push(prefix);
                        }
                    }
                }

                // Observe each prefix in every round whose cohort contains it
                // (Algorithm 1's `π_m(i) ⊆ I_t` test): plan the cells, batch
                // evaluate, then replay the plan into the problem.
                let mut plan = EvalPlan::new();
                for round in 0..t {
                    let cohort = oracle.trace().selected(round);
                    for &p in &prefixes {
                        if p.is_subset_of(cohort) {
                            plan.add(round, p);
                        }
                    }
                }
                let values = oracle.try_evaluate_plan(&plan, ctx.cancel_token())?;
                let mut problem = CompletionProblem::new(t);
                for &p in &prefixes {
                    problem.ensure_column(p.bits());
                }
                problem.add_observations(
                    plan.cells()
                        .iter()
                        .zip(values)
                        .map(|(&(round, p), v)| (round, p.bits(), v)),
                );

                let completion = complete_with_context(self.name(), completer, &problem, ctx)?;
                let values = comfedsv_monte_carlo(&completion.factors, &problem, n, &permutations);
                Ok(ValuationOutput {
                    values,
                    factors: completion.factors,
                    problem,
                    objective_trace: completion.objective_trace,
                    permutations,
                })
            }
        }
    }
}

impl Valuator for ComFedSv {
    fn name(&self) -> &'static str {
        match self.estimator {
            EstimatorKind::ExactSubsets => "comfedsv",
            EstimatorKind::MonteCarlo { .. } => "comfedsv-mc",
        }
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
        ctx.emit(self.name(), "observe + complete + value");
        let completer = cfg
            .solver
            .completer(cfg.rank, cfg.lambda, cfg.als_max_iters, cfg.seed);
        let out = cfg.run_inner(oracle, completer.as_ref(), ctx)?;
        Ok(ValuationReport {
            method: self.name(),
            values: out.values,
            diagnostics: Diagnostics {
                cells_evaluated: oracle.loss_evaluations() - before,
                cell_hits: oracle.cell_hits() - hits_before,
                permutations_used: out.permutations.len(),
                objective_trace: out.objective_trace,
                ..Diagnostics::default()
            },
        })
    }
}

/// Runs a completion solve with the context's cancel token and a
/// sweep-progress bridge: every solver sweep/epoch surfaces as a
/// [`Progress::Sweep`](crate::valuator::Progress::Sweep) event on the
/// context's callback.
fn complete_with_context(
    method: &str,
    completer: &dyn MatrixCompleter,
    problem: &CompletionProblem,
    ctx: &mut RunContext<'_>,
) -> Result<fedval_mc::Completion, ValuationError> {
    let token = ctx.cancel_token().clone();
    let mut on_sweep = |index: usize, objective: f64| ctx.emit_sweep(method, index, objective);
    let hooks = SolveHooks::new()
        .with_on_sweep(&mut on_sweep)
        .with_cancel(&token);
    completer
        .complete_with(problem, hooks)
        .map_err(ValuationError::from)
}

/// The exact-Shapley ground-truth valuation as a
/// [`Valuator`] strategy: equation (14)
/// evaluated from the *full* utility matrix (exponential — gated to
/// `N ≤` [`MAX_EXACT_CLIENTS`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ExactShapley;

impl ExactShapley {
    /// The ground-truth valuation of every client (classical Shapley
    /// value of the summed utility `U(S) = Σ_t U_t(S)`).
    pub fn run(&self, oracle: &UtilityOracle<'_>) -> Result<Vec<f64>, ValuationError> {
        self.run_inner(oracle, &mut RunContext::new())
    }

    fn run_inner(
        &self,
        oracle: &UtilityOracle<'_>,
        ctx: &mut RunContext<'_>,
    ) -> Result<Vec<f64>, ValuationError> {
        let n = oracle.num_clients();
        if n == 0 {
            return Err(ValuationError::NotEnoughClients { clients: 0, min: 1 });
        }
        // Gate before planning: the batch below is T · (2^N − 1) model
        // evaluations, so an oversized N must fail here, not after hours of
        // work when the Shapley sum finally checks.
        if n > MAX_EXACT_CLIENTS {
            return Err(ValuationError::TooManyClients {
                clients: n,
                max: MAX_EXACT_CLIENTS,
            });
        }
        if oracle.num_rounds() == 0 {
            return Err(ValuationError::EmptyTrace);
        }
        // The exact value reads the entire T × 2^N grid; evaluate it as one
        // parallel batch up front.
        let mut plan = EvalPlan::new();
        for round in 0..oracle.num_rounds() {
            plan.add_subsets_of(round, Subset::full(n));
        }
        oracle.try_evaluate_plan(&plan, ctx.cancel_token())?;
        Ok(exact_shapley_unchecked(n, |s| oracle.total_utility(s)))
    }
}

impl Valuator for ExactShapley {
    fn name(&self) -> &'static str {
        "exact"
    }

    fn value(
        &self,
        oracle: &UtilityOracle<'_>,
        ctx: &mut RunContext<'_>,
    ) -> Result<ValuationReport, ValuationError> {
        let before = oracle.loss_evaluations();
        let hits_before = oracle.cell_hits();
        ctx.emit(self.name(), "evaluate full utility grid");
        let values = self.run_inner(oracle, ctx)?;
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

/// Everything the pipeline produces (kept for diagnostics and the
/// experiment harnesses).
#[derive(Debug)]
pub struct ValuationOutput {
    /// The ComFedSV of every client.
    pub values: Vec<f64>,
    /// Solved completion factors.
    pub factors: Factors,
    /// The observed problem that was completed.
    pub problem: CompletionProblem,
    /// ALS objective trajectory.
    pub objective_trace: Vec<f64>,
    /// Permutations used (empty for the exact path).
    pub permutations: Vec<Vec<usize>>,
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_data::Dataset;
    use fedval_fl::{train_federated, FlConfig};
    use fedval_linalg::Matrix;
    use fedval_models::LogisticRegression;

    fn make_world(
        n: usize,
        rounds: usize,
        k: usize,
        seed: u64,
        duplicate: bool,
    ) -> (Vec<Dataset>, LogisticRegression, Dataset, FlConfig) {
        let mut clients: Vec<Dataset> = (0..n)
            .map(|i| {
                let f = Matrix::from_fn(14, 3, |r, c| {
                    (((r + 2) * (c + 3) + 5 * i) % 9) as f64 / 4.0 - 1.0
                });
                let labels: Vec<usize> = (0..14).map(|r| (r + i) % 2).collect();
                Dataset::new(f, labels, 2).unwrap()
            })
            .collect();
        if duplicate {
            let last = clients.len() - 1;
            clients[last] = clients[0].clone();
        }
        let test = {
            let f = Matrix::from_fn(20, 3, |r, c| ((r * 3 + 2 * c) % 9) as f64 / 4.0 - 1.0);
            let labels: Vec<usize> = (0..20).map(|r| r % 2).collect();
            Dataset::new(f, labels, 2).unwrap()
        };
        let proto = LogisticRegression::new(3, 2, 0.05, 17);
        let cfg = FlConfig::new(rounds, k, 0.3, seed);
        (clients, proto, test, cfg)
    }

    #[test]
    fn fully_observed_pipeline_matches_ground_truth() {
        // K = N every round ⇒ every coalition observed ⇒ near-perfect
        // completion ⇒ ComFedSV ≈ ground truth.
        let (clients, proto, test, cfg) = make_world(4, 4, 4, 1, false);
        let trace = train_federated(&proto, &clients, &cfg);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let gt = ExactShapley.run(&oracle).unwrap();
        let out = ComFedSv::exact(4).with_lambda(1e-6).run(&oracle).unwrap();
        for (a, b) in out.values.iter().zip(&gt) {
            assert!((a - b).abs() < 5e-3, "comfedsv {a} vs ground truth {b}");
        }
    }

    #[test]
    fn partial_observation_recovers_ranking() {
        let (clients, proto, test, cfg) = make_world(5, 8, 3, 3, false);
        let trace = train_federated(&proto, &clients, &cfg);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let gt = ExactShapley.run(&oracle).unwrap();
        let out = ComFedSv::exact(4).with_lambda(1e-3).run(&oracle).unwrap();
        let rho = fedval_metrics::spearman_rho(&out.values, &gt).unwrap();
        assert!(rho > 0.7, "rank correlation with ground truth: {rho}");
    }

    #[test]
    fn duplicated_clients_get_similar_comfedsv() {
        // The headline fairness property (Theorem 1): identical clients
        // receive (approximately) identical values despite asymmetric
        // selection.
        let (clients, proto, test, cfg) = make_world(5, 8, 2, 7, true);
        let trace = train_federated(&proto, &clients, &cfg);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let out = ComFedSv::exact(4).with_lambda(1e-3).run(&oracle).unwrap();
        let d_com = fedval_metrics::relative_difference(out.values[0], out.values[4]);
        let fed = crate::fedsv::FedSv::exact().run(&oracle).unwrap();
        let d_fed = fedval_metrics::relative_difference(fed[0], fed[4]);
        // ComFedSV must not be less fair than FedSV on this construction
        // (a strict improvement is typical but selection noise exists).
        assert!(
            d_com <= d_fed + 0.05,
            "ComFedSV relative difference {d_com} vs FedSV {d_fed}"
        );
    }

    #[test]
    fn monte_carlo_pipeline_approximates_exact_pipeline() {
        let (clients, proto, test, cfg) = make_world(5, 6, 3, 5, false);
        let trace = train_federated(&proto, &clients, &cfg);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let exact = ComFedSv::exact(4).with_lambda(1e-3).run(&oracle).unwrap();
        let mc_cfg = ComFedSv {
            rank: 4,
            lambda: 1e-3,
            estimator: EstimatorKind::MonteCarlo {
                num_permutations: 200,
            },
            als_max_iters: 100,
            solver: Default::default(),
            seed: 2,
        };
        let mc = mc_cfg.run(&oracle).unwrap();
        let rho = fedval_metrics::spearman_rho(&mc.values, &exact.values).unwrap();
        assert!(rho >= 0.7, "MC vs exact rank correlation {rho}");
    }

    #[test]
    fn monte_carlo_observes_only_prefixes() {
        let (clients, proto, test, cfg) = make_world(4, 4, 2, 9, false);
        let trace = train_federated(&proto, &clients, &cfg);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let cfg2 = ComFedSv {
            rank: 3,
            lambda: 0.01,
            estimator: EstimatorKind::MonteCarlo {
                num_permutations: 5,
            },
            als_max_iters: 20,
            solver: Default::default(),
            seed: 4,
        };
        let out = cfg2.run(&oracle).unwrap();
        assert_eq!(out.permutations.len(), 5);
        // Every registered column must be a prefix of some permutation.
        let mut prefix_keys = HashSet::new();
        for perm in &out.permutations {
            let mut p = Subset::EMPTY;
            for &i in perm {
                p = p.with(i);
                prefix_keys.insert(p.bits());
            }
        }
        for col in 0..out.problem.num_cols() {
            assert!(prefix_keys.contains(&out.problem.column_key(col)));
        }
        // Assumption 1: round 0 selects everyone, so every prefix is
        // observed at least once.
        assert!(out.problem.every_column_observed());
    }

    #[test]
    fn pipeline_deterministic_given_seed() {
        let (clients, proto, test, cfg) = make_world(4, 3, 2, 11, false);
        let trace = train_federated(&proto, &clients, &cfg);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let c = ComFedSv::exact(3).with_seed(5);
        let a = c.run(&oracle).unwrap();
        let b = c.run(&oracle).unwrap();
        assert_eq!(a.values, b.values);
    }

    #[test]
    fn sgd_solver_is_reachable_with_als_like_trajectory() {
        // The SGD baseline runs through the same pluggable-completer
        // pipeline; its residual trajectory must have the ALS shape
        // (monotone-ish decrease to a small fraction of the initial
        // objective) and its values must agree with ALS on ranking.
        let (clients, proto, test, cfg) = make_world(4, 5, 3, 15, false);
        let trace = train_federated(&proto, &clients, &cfg);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let als = ComFedSv::exact(3).with_lambda(1e-3).run(&oracle).unwrap();
        let mut sgd_cfg = ComFedSv::exact(3)
            .with_lambda(1e-3)
            .with_solver(CompletionSolver::Sgd);
        // SGD epochs are much cheaper than ALS sweeps; give it a
        // comparable total budget.
        sgd_cfg.als_max_iters = 600;
        let sgd = sgd_cfg.run(&oracle).unwrap();
        for t in [&als.objective_trace, &sgd.objective_trace] {
            assert!(t.len() >= 2);
            assert!(
                t.last().unwrap() < &t[0],
                "objective did not decrease: {} -> {}",
                t[0],
                t.last().unwrap()
            );
        }
        // Same objective, same λ: with the adaptive-backoff schedule SGD
        // must land within ~2× of the ALS optimum (the old unconditional
        // decay stalled an order of magnitude above it).
        let als_final = *als.objective_trace.last().unwrap();
        let sgd_final = *sgd.objective_trace.last().unwrap();
        assert!(
            sgd_final <= 2.0 * als_final.max(1e-12),
            "SGD objective {sgd_final} not within 2x of ALS {als_final}"
        );
        let rho = fedval_metrics::spearman_rho(&sgd.values, &als.values).unwrap();
        assert!(rho > 0.6, "SGD vs ALS pipeline agreement {rho}");
    }

    #[test]
    fn invalid_configs_are_typed_errors() {
        use crate::error::ValuationError;
        let (clients, proto, test, cfg) = make_world(4, 3, 2, 17, false);
        let trace = train_federated(&proto, &clients, &cfg);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        // Zero permutations.
        let mut mc = ComFedSv::monte_carlo(3, 4);
        mc.estimator = EstimatorKind::MonteCarlo {
            num_permutations: 0,
        };
        assert_eq!(mc.run(&oracle).unwrap_err(), ValuationError::NoPermutations);
        // Bad solver config surfaces as a completion error.
        let bad = ComFedSv::exact(0);
        assert!(matches!(
            bad.run(&oracle).unwrap_err(),
            ValuationError::Completion(fedval_mc::CompletionError::InvalidRank)
        ));
    }

    #[test]
    fn empty_trace_is_a_typed_error() {
        use crate::error::ValuationError;
        let (clients, proto, test, _) = make_world(4, 3, 2, 19, false);
        let trace = train_federated(&proto, &clients, &FlConfig::new(0, 2, 0.3, 19));
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        assert_eq!(
            ComFedSv::exact(3).run(&oracle).unwrap_err(),
            ValuationError::EmptyTrace
        );
        assert_eq!(
            ExactShapley.run(&oracle).unwrap_err(),
            ValuationError::EmptyTrace
        );
    }

    #[test]
    fn ground_truth_balance() {
        // Ground truth is a classical Shapley value of the total utility,
        // so it satisfies balance: Σ_i s_i = U(I).
        let (clients, proto, test, cfg) = make_world(4, 5, 2, 13, false);
        let trace = train_federated(&proto, &clients, &cfg);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let gt = ExactShapley.run(&oracle).unwrap();
        let total: f64 = gt.iter().sum();
        let grand = oracle.total_utility(Subset::full(4));
        assert!((total - grand).abs() < 1e-10);
    }
}
