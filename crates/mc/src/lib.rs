//! Low-rank matrix completion for partially observed utility matrices.
//!
//! Solves the paper's regularized factorization problem (equations (9) and
//! (13)):
//!
//! ```text
//! minimize_{W ∈ R^{T×r}, H ∈ R^{C×r}}
//!     Σ_{(t,S) observed} (U_{t,S} − w_tᵀ h_S)² + λ (‖W‖_F² + ‖H‖_F²)
//! ```
//!
//! The paper uses LIBPMF (CCD++); this crate provides that algorithm
//! ([`ccd`]) plus a deterministic ALS solver (the default — same
//! objective, same fixed points) and an SGD solver for cross-checking,
//! all over a shared sparse [`CompletionProblem`] representation whose
//! columns are keyed by subset bitmasks.
//!
//! All three solvers are driven through the object-safe
//! [`MatrixCompleter`] trait (implemented by their config types), which
//! validates inputs and returns typed [`CompletionError`]s instead of
//! panicking — the valuation layer above holds a
//! `Box<dyn MatrixCompleter>` and never cares which algorithm runs.
//!
//! * [`problem`] — observed-entry store with row/column adjacency.
//! * [`completer`] — the [`MatrixCompleter`] trait and its error type.
//! * [`als`] — alternating least squares via ridge sub-solves.
//! * [`ccd`] — CCD++ cyclic coordinate descent (the LIBPMF algorithm).
//! * [`sgd`] — stochastic gradient solver.
//! * [`factors`] — the `(W, H)` output pair and prediction helpers.

// Index-driven loops are deliberate in the numeric kernels: the loop
// variable simultaneously drives several arrays/offsets and mirrors the
// textbook formulas, which iterator chains would obscure.
#![allow(clippy::needless_range_loop)]

pub mod als;
pub mod ccd;
pub mod completer;
pub mod factors;
mod parallel;
pub mod problem;
pub mod sgd;

pub use als::AlsConfig;
pub use ccd::CcdConfig;
pub use completer::{Completion, CompletionError, MatrixCompleter, SolveHooks};
pub use factors::Factors;
pub use problem::CompletionProblem;
pub use sgd::{SgdConfig, StepSchedule};
