//! One harness for every valuation method.
//!
//! A [`ValuationSession`] owns the cross-method run state — the seed
//! override, the progress callback, an optional ground-truth reference —
//! and builds each method's [`Valuator`] from its string key, so
//! experiment harnesses sweep every method through one loop:
//!
//! ```
//! use fedval_shapley::session::ValuationSession;
//! # use fedval_data::Dataset;
//! # use fedval_fl::{train_federated, FlConfig, UtilityOracle};
//! # use fedval_linalg::Matrix;
//! # use fedval_models::LogisticRegression;
//! # let clients: Vec<Dataset> = (0..4)
//! #     .map(|i| {
//! #         let f = Matrix::from_fn(10, 3, |r, c| (((r + 1) * (c + 2) + i) % 7) as f64 / 3.0 - 1.0);
//! #         let labels: Vec<usize> = (0..10).map(|r| (r + i) % 2).collect();
//! #         Dataset::new(f, labels, 2).unwrap()
//! #     })
//! #     .collect();
//! # let test = {
//! #     let f = Matrix::from_fn(10, 3, |r, c| ((r * 3 + c) % 7) as f64 / 3.0 - 1.0);
//! #     let labels: Vec<usize> = (0..10).map(|r| r % 2).collect();
//! #     Dataset::new(f, labels, 2).unwrap()
//! # };
//! # let proto = LogisticRegression::new(3, 2, 0.05, 17);
//! # let trace = train_federated(&proto, &clients, &FlConfig::new(3, 2, 0.3, 7));
//! # let oracle = UtilityOracle::new(&trace, &proto, &test);
//! let mut session = ValuationSession::builder().rank(3).seed(7).build();
//! for name in session.method_names() {
//!     let report = session.run(&name, &oracle).unwrap();
//!     assert_eq!(report.values.len(), 4, "{name}");
//! }
//! ```
//!
//! [`METHOD_NAMES`] covers the paper's full method matrix: the exact
//! ground truth, both FedSV estimators, both ComFedSV estimators, TMC,
//! and group testing. A custom strategy runs through
//! [`ValuationSession::run_valuator`].

use crate::error::ValuationError;
use crate::fairness::reference_report;
use crate::fedsv::{FedSv, FedSvConfig};
use crate::group_testing::GroupTesting;
use crate::pipeline::{ComFedSv, CompletionSolver, EstimatorKind, ExactShapley};
use crate::tmc::Tmc;
use crate::valuator::{ProgressEvent, RunContext, ValuationReport, Valuator};
use fedval_fl::UtilityOracle;
use fedval_runtime::CancelToken;

/// The method keys [`ValuationSession::valuator`] accepts, in the order
/// [`ValuationSession::run_all`] runs them.
pub const METHOD_NAMES: [&str; 7] = [
    "exact",
    "fedsv",
    "fedsv-mc",
    "comfedsv",
    "comfedsv-mc",
    "tmc",
    "group-testing",
];

/// Hyper-parameter defaults the session hands to each method.
#[derive(Debug, Clone)]
pub struct MethodDefaults {
    /// Completion rank `r` for ComFedSV.
    pub rank: usize,
    /// Completion regularization `λ`.
    pub lambda: f64,
    /// Completion-solver sweep budget.
    pub max_iters: usize,
    /// Which completion solver ComFedSV uses.
    pub solver: CompletionSolver,
    /// Permutation budget for the whole-run Monte-Carlo methods
    /// ("comfedsv-mc" and "tmc"). "fedsv-mc" keeps its per-cohort
    /// `⌈K ln K⌉ + 1` adaptive default.
    pub permutations: usize,
    /// Coalition samples for "group-testing".
    pub samples: usize,
    /// TMC truncation tolerance.
    pub truncation_tol: f64,
    /// Seed handed to every method (overridable per run by the session
    /// seed).
    pub seed: u64,
}

impl Default for MethodDefaults {
    fn default() -> Self {
        MethodDefaults {
            rank: 5,
            lambda: 1e-3,
            max_iters: 100,
            solver: CompletionSolver::Als,
            permutations: 200,
            samples: 400,
            truncation_tol: 0.01,
            seed: 0,
        }
    }
}

/// Boxed progress callback stored by the session.
type ProgressSink = Box<dyn FnMut(ProgressEvent<'_>)>;

/// Builder for [`ValuationSession`]; start with
/// [`ValuationSession::builder`].
pub struct ValuationSessionBuilder {
    defaults: MethodDefaults,
    seed: Option<u64>,
    progress: Option<ProgressSink>,
    ground_truth: Option<Vec<f64>>,
    isolated_runs: bool,
    cancel: Option<CancelToken>,
}

impl ValuationSessionBuilder {
    /// Session-wide seed: overrides every built-in method's own seed
    /// (and is passed through [`RunContext`] to custom valuators).
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = Some(seed);
        self
    }

    /// Completion rank for the ComFedSV methods.
    pub fn rank(mut self, rank: usize) -> Self {
        self.defaults.rank = rank;
        self
    }

    /// Completion regularization `λ`.
    pub fn lambda(mut self, lambda: f64) -> Self {
        self.defaults.lambda = lambda;
        self
    }

    /// Completion-solver sweep budget.
    pub fn max_iters(mut self, iters: usize) -> Self {
        self.defaults.max_iters = iters;
        self
    }

    /// Completion solver for the ComFedSV methods.
    pub fn solver(mut self, solver: CompletionSolver) -> Self {
        self.defaults.solver = solver;
        self
    }

    /// Permutation budget for "comfedsv-mc" and "tmc".
    pub fn permutations(mut self, m: usize) -> Self {
        self.defaults.permutations = m;
        self
    }

    /// Coalition-sample budget for "group-testing".
    pub fn samples(mut self, t: usize) -> Self {
        self.defaults.samples = t;
        self
    }

    /// TMC truncation tolerance.
    pub fn truncation_tol(mut self, tol: f64) -> Self {
        self.defaults.truncation_tol = tol;
        self
    }

    /// A trusted reference valuation (one value per client); every
    /// report's diagnostics then carry an ε-fairness
    /// [`ReferenceReport`](crate::fairness::ReferenceReport) against it.
    pub fn ground_truth(mut self, values: Vec<f64>) -> Self {
        self.ground_truth = Some(values);
        self
    }

    /// Progress callback invoked by methods at stage boundaries and —
    /// for the Monte-Carlo walks and the completion solvers — at
    /// permutation/sweep granularity (see
    /// [`Progress`](crate::valuator::Progress)).
    pub fn progress(mut self, callback: impl FnMut(ProgressEvent<'_>) + 'static) -> Self {
        self.progress = Some(Box::new(callback));
        self
    }

    /// Gives every run its own fresh, private cell store
    /// ([`UtilityOracle::isolated`]), so each method's
    /// `cells_evaluated` is its full standalone cost rather than "new
    /// cells the previous methods happened not to need" — the stable
    /// per-method accounting Fig.-8-style comparisons want. The clone
    /// never reads or writes a shared cache the oracle is attached to.
    /// Costs more wall clock (cells are re-evaluated per method); values
    /// are unchanged either way.
    pub fn isolated_runs(mut self, isolated: bool) -> Self {
        self.isolated_runs = isolated;
        self
    }

    /// The token every run of the session observes (a fresh one by
    /// default). Whoever holds a clone — the `fedval_service` job
    /// manager hands one to its HTTP `DELETE` handler at submission
    /// time; a progress callback, another thread or a signal handler
    /// can too — cancels the in-flight method at its next
    /// permutation/sweep/batch boundary, which then returns
    /// [`ValuationError::Cancelled`]. The token stays cancelled, so
    /// later runs of the session report `Cancelled` too.
    pub fn cancel_token(mut self, token: CancelToken) -> Self {
        self.cancel = Some(token);
        self
    }

    /// Finalizes the session.
    pub fn build(mut self) -> ValuationSession {
        if let Some(seed) = self.seed {
            self.defaults.seed = seed;
        }
        ValuationSession {
            defaults: self.defaults,
            seed: self.seed,
            progress: self.progress,
            ground_truth: self.ground_truth,
            isolated_runs: self.isolated_runs,
            cancel: self.cancel.unwrap_or_default(),
        }
    }
}

/// The cross-method harness: seeding, progress, ground-truth comparison,
/// and the string-keyed built-in methods. Construct with
/// [`ValuationSession::builder`].
pub struct ValuationSession {
    defaults: MethodDefaults,
    seed: Option<u64>,
    progress: Option<ProgressSink>,
    ground_truth: Option<Vec<f64>>,
    isolated_runs: bool,
    cancel: CancelToken,
}

impl ValuationSession {
    /// Starts a builder with [`MethodDefaults::default`].
    pub fn builder() -> ValuationSessionBuilder {
        ValuationSessionBuilder {
            defaults: MethodDefaults::default(),
            seed: None,
            progress: None,
            ground_truth: None,
            isolated_runs: false,
            cancel: None,
        }
    }

    /// The method keys, [`METHOD_NAMES`] as owned strings.
    pub fn method_names(&self) -> Vec<String> {
        METHOD_NAMES.iter().map(|n| n.to_string()).collect()
    }

    /// Constructs the method keyed `name` with the session's defaults.
    pub fn valuator(&self, name: &str) -> Result<Box<dyn Valuator>, ValuationError> {
        let d = &self.defaults;
        let comfedsv = || {
            ComFedSv::exact(d.rank)
                .with_lambda(d.lambda)
                .with_solver(d.solver)
                .with_seed(d.seed)
        };
        Ok(match name {
            "exact" => Box::new(ExactShapley),
            "fedsv" => Box::new(FedSv::exact()),
            "fedsv-mc" => Box::new(FedSv::monte_carlo(FedSvConfig {
                permutations_per_round: None,
                seed: d.seed,
            })),
            "comfedsv" => Box::new(comfedsv()),
            "comfedsv-mc" => {
                let mut cfg = comfedsv();
                cfg.estimator = EstimatorKind::MonteCarlo {
                    num_permutations: d.permutations,
                };
                Box::new(cfg)
            }
            "tmc" => Box::new(Tmc {
                permutations: d.permutations,
                truncation_tol: d.truncation_tol,
                seed: d.seed,
                ..Tmc::default()
            }),
            "group-testing" => Box::new(GroupTesting {
                num_samples: d.samples,
                seed: d.seed,
            }),
            _ => return Err(ValuationError::UnknownMethod { name: name.into() }),
        })
    }

    /// Runs the method keyed `name` against `oracle`.
    pub fn run(
        &mut self,
        name: &str,
        oracle: &UtilityOracle<'_>,
    ) -> Result<ValuationReport, ValuationError> {
        let valuator = self.valuator(name)?;
        self.run_valuator(valuator.as_ref(), oracle)
    }

    /// Runs an explicit valuator with this session's seed, progress
    /// callback, cancellation token and ground-truth comparison, on
    /// `oracle` at its tier — or, with
    /// [`isolated_runs`](ValuationSessionBuilder::isolated_runs) set, on
    /// its fresh-cache clone [`UtilityOracle::isolated`].
    pub fn run_valuator(
        &mut self,
        valuator: &dyn Valuator,
        oracle: &UtilityOracle<'_>,
    ) -> Result<ValuationReport, ValuationError> {
        let mut ctx = RunContext::new().with_cancel(self.cancel.clone());
        if let Some(seed) = self.seed {
            ctx = ctx.with_seed(seed);
        }
        let isolated = self.isolated_runs.then(|| oracle.isolated());
        let oracle = isolated.as_ref().unwrap_or(oracle);
        let mut report = match self.progress.as_mut() {
            Some(cb) => valuator.value(oracle, &mut ctx.with_progress(&mut **cb))?,
            None => valuator.value(oracle, &mut ctx)?,
        };
        if let Some(gt) = &self.ground_truth {
            if gt.len() != report.values.len() {
                return Err(ValuationError::ReferenceMismatch {
                    reference: gt.len(),
                    valued: report.values.len(),
                });
            }
            report.diagnostics.fairness = Some(reference_report(&report.values, gt));
        }
        Ok(report)
    }

    /// Runs every method of [`METHOD_NAMES`] in order, pairing each key
    /// with its outcome.
    /// Methods that reject the oracle (e.g. "exact" beyond the
    /// enumeration gate) report their error instead of aborting the
    /// sweep.
    ///
    /// Before each method starts, the progress callback (if any)
    /// receives a
    /// [`Progress::Method`](crate::valuator::Progress::Method) envelope
    /// event (`index` of `total`, 1-based, stage `"method"`), so a CLI
    /// can draw an overall sweep bar around the per-method streams.
    pub fn run_all(
        &mut self,
        oracle: &UtilityOracle<'_>,
    ) -> Vec<(String, Result<ValuationReport, ValuationError>)> {
        let total = METHOD_NAMES.len();
        METHOD_NAMES
            .iter()
            .enumerate()
            .map(|(i, &name)| {
                if let Some(cb) = self.progress.as_mut() {
                    cb(ProgressEvent {
                        method: name,
                        stage: "method",
                        progress: crate::valuator::Progress::Method {
                            index: i + 1,
                            total,
                            name,
                        },
                    });
                }
                (name.to_string(), self.run(name, oracle))
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::valuator::Diagnostics;
    use fedval_data::Dataset;
    use fedval_fl::{train_federated, FlConfig};
    use fedval_linalg::Matrix;
    use fedval_models::LogisticRegression;

    fn world(seed: u64) -> (fedval_fl::TrainingTrace, LogisticRegression, Dataset) {
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
    fn default_registry_covers_all_methods() {
        // `run_all`'s progress indices and the service's method listing
        // follow this order.
        let session = ValuationSession::builder().build();
        let names = session.method_names();
        assert_eq!(
            names,
            [
                "exact",
                "fedsv",
                "fedsv-mc",
                "comfedsv",
                "comfedsv-mc",
                "tmc",
                "group-testing",
            ]
        );
        // Every key builds the method it names.
        for name in &names {
            let valuator = session.valuator(name).unwrap();
            assert_eq!(valuator.name(), name);
        }
    }

    #[test]
    fn every_builtin_method_runs() {
        let (trace, proto, test) = world(1);
        let oracle = fedval_fl::UtilityOracle::new(&trace, &proto, &test);
        let mut session = ValuationSession::builder().rank(3).permutations(40).build();
        for (name, outcome) in session.run_all(&oracle) {
            let report = outcome.unwrap_or_else(|e| panic!("{name}: {e}"));
            assert_eq!(report.values.len(), 5, "{name}");
            assert!(report.values.iter().all(|v| v.is_finite()), "{name}");
        }
    }

    #[test]
    fn unknown_method_is_a_typed_error() {
        let session = ValuationSession::builder().build();
        assert_eq!(
            session.valuator("nope").err().unwrap(),
            ValuationError::UnknownMethod {
                name: "nope".into()
            }
        );
    }

    #[test]
    fn ground_truth_attaches_fairness_report() {
        let (trace, proto, test) = world(2);
        let oracle = fedval_fl::UtilityOracle::new(&trace, &proto, &test);
        let gt = ExactShapley.run(&oracle).unwrap();
        let mut session = ValuationSession::builder()
            .rank(3)
            .ground_truth(gt.clone())
            .build();
        let report = session.run("exact", &oracle).unwrap();
        let fairness = report.diagnostics.fairness.expect("fairness report");
        // Exact vs itself: zero epsilon, perfect rank agreement.
        assert!(fairness.epsilon < 1e-15);
        assert!((fairness.spearman_rho.unwrap() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mismatched_ground_truth_is_a_typed_error() {
        let (trace, proto, test) = world(6);
        let oracle = fedval_fl::UtilityOracle::new(&trace, &proto, &test);
        // Reference from a 3-client world, oracle has 5 clients.
        let mut session = ValuationSession::builder()
            .rank(3)
            .ground_truth(vec![0.0; 3])
            .build();
        assert_eq!(
            session.run("fedsv", &oracle).unwrap_err(),
            ValuationError::ReferenceMismatch {
                reference: 3,
                valued: 5
            }
        );
    }

    #[test]
    fn progress_events_flow_through() {
        use std::cell::RefCell;
        use std::rc::Rc;
        let (trace, proto, test) = world(3);
        let oracle = fedval_fl::UtilityOracle::new(&trace, &proto, &test);
        let events: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&events);
        let mut session = ValuationSession::builder()
            .rank(3)
            .progress(move |e| sink.borrow_mut().push(format!("{}:{}", e.method, e.stage)))
            .build();
        session.run("fedsv", &oracle).unwrap();
        assert!(events.borrow().iter().any(|e| e.starts_with("fedsv:")));
    }

    #[test]
    fn run_all_emits_method_envelope_events() {
        use crate::valuator::Progress;
        use std::cell::RefCell;
        use std::rc::Rc;
        let (trace, proto, test) = world(10);
        let oracle = fedval_fl::UtilityOracle::new(&trace, &proto, &test);
        let envelopes: Rc<RefCell<Vec<(usize, usize, String)>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&envelopes);
        let mut session = ValuationSession::builder()
            .rank(3)
            .permutations(10)
            .progress(move |e| {
                if let Progress::Method { index, total, name } = e.progress {
                    assert_eq!(name, e.method, "envelope name mirrors the event method");
                    sink.borrow_mut().push((index, total, name.to_string()));
                }
            })
            .build();
        let outcomes = session.run_all(&oracle);
        let envelopes = envelopes.borrow();
        assert_eq!(envelopes.len(), outcomes.len(), "one envelope per method");
        for (i, ((index, total, name), (method, _))) in envelopes.iter().zip(&outcomes).enumerate()
        {
            assert_eq!(*index, i + 1, "1-based position");
            assert_eq!(*total, outcomes.len());
            assert_eq!(name, method);
        }
    }

    #[test]
    fn session_seed_overrides_method_seed() {
        let (trace, proto, test) = world(4);
        let oracle = fedval_fl::UtilityOracle::new(&trace, &proto, &test);
        let run_with_seed = |seed: u64| {
            let mut s = ValuationSession::builder()
                .rank(3)
                .permutations(30)
                .seed(seed)
                .build();
            s.run("tmc", &oracle).unwrap().values
        };
        assert_eq!(run_with_seed(9), run_with_seed(9));
        assert_ne!(run_with_seed(9), run_with_seed(10));
    }

    #[test]
    fn cancel_token_stops_a_tmc_run_mid_walk() {
        use crate::valuator::Progress;
        use std::cell::RefCell;
        use std::rc::Rc;
        let (trace, proto, test) = world(7);
        let oracle = fedval_fl::UtilityOracle::new(&trace, &proto, &test);
        let events: Rc<RefCell<Vec<usize>>> = Rc::new(RefCell::new(Vec::new()));
        let sink = Rc::clone(&events);
        let token = CancelToken::new();
        let handle = token.clone();
        let mut session = ValuationSession::builder()
            .permutations(300)
            .seed(5)
            .cancel_token(token)
            .progress(move |e| {
                if let Progress::Permutation { index, .. } = e.progress {
                    sink.borrow_mut().push(index);
                    if index == 2 {
                        handle.cancel();
                    }
                }
            })
            .build();
        let err = session.run("tmc", &oracle).unwrap_err();
        assert_eq!(err, ValuationError::Cancelled);
        assert_eq!(
            *events.borrow(),
            vec![1, 2],
            "permutation-level events flowed and the walk stopped within one"
        );
        // The token stays set: the next run reports Cancelled too.
        assert_eq!(
            session.run("tmc", &oracle).unwrap_err(),
            ValuationError::Cancelled
        );
    }

    #[test]
    fn external_cancel_token_is_adopted_by_the_session() {
        let (trace, proto, test) = world(12);
        let oracle = fedval_fl::UtilityOracle::new(&trace, &proto, &test);
        // A controller creates the token before the session exists (the
        // service wires DELETE /jobs/{id} to it at submission time)…
        let token = CancelToken::new();
        let mut session = ValuationSession::builder()
            .rank(3)
            .cancel_token(token.clone())
            .build();
        assert!(session.run("fedsv", &oracle).is_ok());
        // …and cancelling the external token stops the session's runs.
        token.cancel();
        assert_eq!(
            session.run("fedsv", &oracle).unwrap_err(),
            ValuationError::Cancelled
        );
    }

    #[test]
    fn isolated_runs_make_per_method_cost_stable() {
        let (trace, proto, test) = world(8);
        let oracle = fedval_fl::UtilityOracle::new(&trace, &proto, &test);
        // Shared cache: the second method drafts behind the first, so its
        // reported cost understates its standalone cost.
        let mut shared = ValuationSession::builder().rank(3).seed(2).build();
        let exact_shared = shared.run("exact", &oracle).unwrap();
        let fedsv_shared = shared.run("fedsv", &oracle).unwrap();

        // Isolated: every run pays — and reports — its full cost, equal to
        // what a standalone run against a fresh oracle would report.
        let mut isolated = ValuationSession::builder()
            .rank(3)
            .seed(2)
            .isolated_runs(true)
            .build();
        let exact_iso = isolated.run("exact", &oracle).unwrap();
        let fedsv_iso = isolated.run("fedsv", &oracle).unwrap();
        let fedsv_standalone = {
            let fresh = fedval_fl::UtilityOracle::new(&trace, &proto, &test);
            let mut s = ValuationSession::builder().rank(3).seed(2).build();
            s.run("fedsv", &fresh).unwrap()
        };
        assert_eq!(
            fedsv_iso.diagnostics.cells_evaluated, fedsv_standalone.diagnostics.cells_evaluated,
            "isolated cost equals standalone cost"
        );
        assert!(
            fedsv_shared.diagnostics.cells_evaluated < fedsv_iso.diagnostics.cells_evaluated,
            "shared-cache cost {} must understate the isolated cost {}",
            fedsv_shared.diagnostics.cells_evaluated,
            fedsv_iso.diagnostics.cells_evaluated
        );
        // Values are identical either way; only the accounting differs.
        assert_eq!(exact_shared.values, exact_iso.values);
        assert_eq!(fedsv_shared.values, fedsv_iso.values);
        // And the caller's oracle cache was left untouched by the
        // isolated runs beyond what the shared session already put there.
        assert_eq!(
            exact_shared.diagnostics.cells_evaluated,
            exact_iso.diagnostics.cells_evaluated
        );
    }

    #[test]
    fn run_all_reuses_the_pool_across_calls() {
        // Two consecutive run_all sweeps over one session: the second
        // reuses both the oracle cache and the persistent global pool.
        // (Worker persistence itself is asserted in fedval_runtime; here
        // we pin the cross-call behavioral contract: identical values,
        // zero re-evaluation.)
        let (trace, proto, test) = world(9);
        let oracle = fedval_fl::UtilityOracle::new(&trace, &proto, &test);
        let mut session = ValuationSession::builder()
            .rank(3)
            .permutations(25)
            .seed(4)
            .build();
        let first = session.run_all(&oracle);
        let evals_after_first = oracle.loss_evaluations();
        let second = session.run_all(&oracle);
        assert_eq!(
            oracle.loss_evaluations(),
            evals_after_first,
            "second sweep is served entirely from the result table"
        );
        for ((name_a, a), (name_b, b)) in first.iter().zip(&second) {
            assert_eq!(name_a, name_b);
            assert_eq!(
                a.as_ref().unwrap().values,
                b.as_ref().unwrap().values,
                "{name_a}: pool reuse must not perturb values"
            );
        }
    }

    #[test]
    fn custom_valuator_runs_through_run_valuator() {
        struct Zeros;
        impl Valuator for Zeros {
            fn name(&self) -> &'static str {
                "zeros"
            }
            fn value(
                &self,
                oracle: &fedval_fl::UtilityOracle<'_>,
                _ctx: &mut RunContext<'_>,
            ) -> Result<ValuationReport, ValuationError> {
                Ok(ValuationReport {
                    method: "zeros",
                    values: vec![0.0; oracle.num_clients()],
                    diagnostics: Diagnostics::default(),
                })
            }
        }
        let (trace, proto, test) = world(5);
        let oracle = fedval_fl::UtilityOracle::new(&trace, &proto, &test);
        let mut session = ValuationSession::builder()
            .ground_truth(vec![0.0; 5])
            .build();
        let report = session.run_valuator(&Zeros, &oracle).unwrap();
        assert_eq!(report.values, vec![0.0; 5]);
        // The session's ground-truth comparison applies to it as well.
        assert_eq!(report.diagnostics.fairness.unwrap().epsilon, 0.0);
        assert!(session.valuator("zeros").is_err(), "no key to register");
    }
}
