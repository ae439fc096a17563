//! Shapley-value data valuation for horizontal federated learning.
//!
//! Every method is a strategy object implementing the
//! [`Valuator`] trait over a shared
//! [`UtilityOracle`](fedval_fl::UtilityOracle), swept uniformly through a
//! [`ValuationSession`]; failures are typed
//! [`ValuationError`]s, never panics. The layering
//! is `Valuator` → `UtilityOracle` → [`MatrixCompleter`](fedval_mc::MatrixCompleter)
//! (see [`valuator`] for the full picture).
//!
//! This crate is the paper's primary contribution:
//!
//! * [`valuator`] — the [`Valuator`] trait,
//!   [`RunContext`], and
//!   [`ValuationReport`] diagnostics;
//! * [`session`] — the [`ValuationSession`]
//!   harness: seeding, progress callbacks, the methods by name;
//! * [`error`] — the [`ValuationError`] type;
//! * [`exact`] — the classical Shapley value (equation (5)) for arbitrary
//!   utility functions over few players;
//! * [`mod@fedsv`] — Wang et al.'s federated Shapley value (Definition 2),
//!   exact for small per-round cohorts and permutation-sampled for large
//!   ones ([`FedSv`]);
//! * [`comfedsv`] — the completed federated Shapley value (Definition 4)
//!   computed from matrix-completion factors, both the exact full-subset
//!   sum and the Monte-Carlo estimator (equation (12));
//! * [`pipeline`] — Algorithm 1 end-to-end (train → observe → complete →
//!   value) as [`ComFedSv`], plus the ground-truth
//!   valuation [`ExactShapley`];
//! * [`fairness`] — ε-Shapley-fairness checks (Definition 1) and the
//!   Theorem-1 tolerance `4δ/N`;
//! * [`observation`] — the analytic unfairness probability `P_s` of
//!   Observation 1 (paper Fig. 1);
//! * [`theory`] — the ε-rank bounds of Propositions 1 and 2;
//! * [`tmc`] — truncated Monte-Carlo Shapley (Ghorbani–Zou,
//!   [`Tmc`]), an efficiency extension for the ground-truth
//!   valuation;
//! * [`group_testing`] — the group-testing estimator (Jia et al.,
//!   [`GroupTesting`]), the other classical
//!   accelerator surveyed by the paper;
//! * [`coeffs`] — Shapley weights and log-factorial utilities.

// Index-driven loops are deliberate in the numeric kernels: the loop
// variable simultaneously drives several arrays/offsets and mirrors the
// textbook formulas, which iterator chains would obscure.
#![allow(clippy::needless_range_loop)]

// The exact-enumeration gate lives in `fedval_fl` (the bottom of the
// valuation stack) so that `full_utility_matrix` and every estimator in
// this crate share one constant; re-exported here for compatibility.
pub use fedval_fl::MAX_EXACT_CLIENTS;

pub mod coeffs;
pub mod comfedsv;
pub mod error;
pub mod exact;
pub mod fairness;
pub mod fedsv;
pub mod group_testing;
pub mod observation;
pub mod pipeline;
pub mod session;
pub mod theory;
pub mod tmc;
pub mod valuator;

pub use comfedsv::{
    comfedsv_antithetic, comfedsv_from_factors, comfedsv_monte_carlo, SubsetColumns,
};
pub use error::ValuationError;
pub use exact::{exact_shapley, try_exact_shapley};
pub use fairness::{
    epsilon_fair_report, reference_report, theorem1_tolerance, FairnessReport, ReferenceReport,
};
pub use fedsv::{FedSv, FedSvConfig};
pub use group_testing::GroupTesting;
pub use observation::{unfairness_probability, UnfairnessParams};
pub use pipeline::{ComFedSv, CompletionSolver, EstimatorKind, ExactShapley, ValuationOutput};
pub use session::{MethodDefaults, ValuationSession, ValuationSessionBuilder, METHOD_NAMES};
pub use theory::{path_length, prop1_rank_bound, prop2_rank_bound};
pub use tmc::{Tmc, TmcOutput};
pub use valuator::{Diagnostics, Progress, ProgressEvent, RunContext, ValuationReport, Valuator};

// The cancellation vocabulary comes from the shared execution layer;
// re-exported so session users need not depend on `fedval_runtime`
// directly.
pub use fedval_runtime::CancelToken;
