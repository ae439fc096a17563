//! Dense linear algebra substrate for the ComFedSV reproduction.
//!
//! The paper's pipeline needs a small but complete set of dense kernels:
//!
//! * a row-major [`Matrix`] with BLAS-1/2/3 style operations ([`matrix`]),
//! * the cache-blocked, bit-deterministic GEMM family behind the
//!   minibatch model kernels and the ALS normal equations ([`gemm`]),
//! * vector kernels shared by the model/optimizer code ([`vector`]),
//! * a Cholesky SPD solver used by the ALS matrix-completion sub-problems
//!   ([`cholesky`]), with its four-lane kernels ([`lanes`]),
//! * a one-sided Jacobi SVD used to reproduce the singular-value study of
//!   the utility matrix (paper Fig. 2) ([`svd`]),
//! * truncated-SVD based `ε`-rank estimation (paper Definition 3)
//!   ([`low_rank`]).
//!
//! Everything is `f64`, allocation-conscious, and dependency-free.

// Index-driven loops are deliberate in the numeric kernels: the loop
// variable simultaneously drives several arrays/offsets and mirrors the
// textbook formulas, which iterator chains would obscure.
#![allow(clippy::needless_range_loop)]

pub mod cholesky;
pub mod cpu;
pub mod error;
pub mod gemm;
pub mod lanes;
pub mod low_rank;
pub mod matrix;
pub mod svd;
pub mod tier;
pub mod vector;

pub use cholesky::CholeskyFactor;
pub use cpu::{CpuFeatures, KernelIsa};
pub use error::LinalgError;
pub use lanes::Lanes;
pub use low_rank::{eps_rank_upper_bound, truncated_reconstruction};
pub use matrix::Matrix;
pub use svd::{singular_values, Svd};
pub use tier::DeterminismTier;

/// Result alias used across the crate.
pub type Result<T> = std::result::Result<T, LinalgError>;
