//! # ComFedSV — fair data valuation for horizontal federated learning
//!
//! A from-scratch Rust reproduction of *"Improving Fairness for Data
//! Valuation in Horizontal Federated Learning"* (Fan et al., ICDE 2022):
//! federated training (FedAvg), the utility matrix and its low-rank theory,
//! matrix completion, and the completed federated Shapley value
//! (**ComFedSV**), together with the baseline **FedSV** and a ground-truth
//! valuation.
//!
//! ## Quickstart
//!
//! Every valuation method is a [`Valuator`](fedval_shapley::Valuator)
//! strategy driven through one [`ValuationSession`] harness:
//!
//! ```
//! use comfedsv::prelude::*;
//!
//! // 1. A federated world: 6 clients with heterogeneous synthetic data.
//! let world = ExperimentBuilder::synthetic(true)
//!     .num_clients(6)
//!     .samples_per_client(40)
//!     .seed(7)
//!     .build();
//!
//! // 2. Train with FedAvg: 5 rounds, 3 clients per round.
//! let trace = world.train(&FlConfig::new(5, 3, 0.3, 7));
//!
//! // 3. Value every client with ComFedSV (Algorithm 1).
//! let oracle = world.oracle(&trace);
//! let out = ComFedSv::exact(4).run(&oracle).unwrap();
//! assert_eq!(out.values.len(), 6);
//!
//! // 4. Or sweep the whole method matrix through one session.
//! let mut session = ValuationSession::builder().rank(4).seed(7).build();
//! for name in session.method_names() {
//!     let report = session.run(&name, &oracle).unwrap();
//!     assert_eq!(report.values.len(), 6, "{name}");
//! }
//! ```
//!
//! The trait layering is `Valuator` (strategy) over
//! [`UtilityOracle`](fedval_fl::UtilityOracle) (batched utility
//! evaluation) over [`MatrixCompleter`](fedval_mc::MatrixCompleter)
//! (pluggable completion solver); failures are typed
//! [`ValuationError`](fedval_shapley::ValuationError)s. MIGRATION.md
//! maps each removed legacy name to its replacement.
//!
//! The [`prelude`] re-exports the types needed by typical users; the
//! [`experiments`] module hosts the configured dataset/model pairings used
//! by the paper's evaluation and by this repo's examples and benchmark
//! harnesses.
//!
//! [`ValuationSession`]: fedval_shapley::ValuationSession

pub use fedval_data as data;
pub use fedval_fl as fl;
pub use fedval_linalg as linalg;
pub use fedval_mc as mc;
pub use fedval_metrics as metrics;
pub use fedval_models as models;
pub use fedval_shapley as shapley;

pub mod experiments;

/// The types most users need.
pub mod prelude {
    pub use crate::experiments::{DatasetKind, ExperimentBuilder, Scenario, World};
    pub use fedval_data::{Dataset, DirichletSkew, SyntheticConfig};
    pub use fedval_fl::{ClientBehavior, FlConfig, Subset, TrainingTrace, UtilityOracle};
    pub use fedval_mc::{AlsConfig, CompletionError, CompletionProblem, Factors, MatrixCompleter};
    pub use fedval_metrics::{detection_auc, precision_at_k, DetectionError};
    pub use fedval_models::{LearningRate, Model};
    pub use fedval_shapley::{
        ComFedSv, CompletionSolver, Diagnostics, EstimatorKind, ExactShapley, FedSv, FedSvConfig,
        GroupTesting, MethodDefaults, RunContext, Tmc, ValuationError, ValuationReport,
        ValuationSession, Valuator,
    };
}
