//! Typed failure modes of the valuation methods.
//!
//! Every public valuation entry point ([`Valuator::value`] and the
//! fallible `run` methods on the method structs) reports invalid
//! configurations and runtime failures as [`ValuationError`] values —
//! never panics. Errors from the layers below are converted on the way
//! up: [`fedval_fl::OracleError`] (exact-enumeration gates, empty
//! traces) and [`fedval_mc::CompletionError`] (solver validation and
//! divergence) both embed losslessly.
//!
//! [`Valuator::value`]: crate::valuator::Valuator::value

use fedval_fl::OracleError;
use fedval_mc::CompletionError;
use std::fmt;

/// Why a valuation run could not produce values.
#[derive(Debug, Clone, PartialEq)]
pub enum ValuationError {
    /// An exact-enumeration method was asked to enumerate `2^clients`
    /// coalitions with `clients` above
    /// [`MAX_EXACT_CLIENTS`](crate::MAX_EXACT_CLIENTS).
    TooManyClients {
        /// Requested client count `N`.
        clients: usize,
        /// The enforced ceiling.
        max: usize,
    },
    /// The method needs more clients than the world provides (e.g. group
    /// testing estimates pairwise differences, so it needs `N ≥ 2`).
    NotEnoughClients {
        /// Actual client count.
        clients: usize,
        /// Required minimum.
        min: usize,
    },
    /// The recorded training trace has no rounds — nothing to value.
    EmptyTrace,
    /// A round's cohort exceeds the exact-enumeration gate; use the
    /// Monte-Carlo estimator for that method instead.
    CohortTooLarge {
        /// Round index `t` with the oversized cohort.
        round: usize,
        /// Cohort size `|I_t|`.
        cohort: usize,
        /// The enforced ceiling.
        max: usize,
    },
    /// A permutation-sampling estimator was configured with zero
    /// permutations.
    NoPermutations,
    /// A coalition-sampling estimator was configured with zero samples.
    NoSamples,
    /// A tolerance parameter is outside its admissible range (negative or
    /// non-finite).
    InvalidTolerance {
        /// The rejected value.
        value: f64,
    },
    /// The matrix-completion stage failed (bad solver configuration or a
    /// divergent solve).
    Completion(CompletionError),
    /// A [`ValuationSession`](crate::session::ValuationSession) was asked
    /// for a method name that is not one of
    /// [`METHOD_NAMES`](crate::session::METHOD_NAMES).
    UnknownMethod {
        /// The unrecognized key.
        name: String,
    },
    /// The session's ground-truth reference has a different client count
    /// than the valuation it should grade (the reference came from a
    /// different world).
    ReferenceMismatch {
        /// Clients in the supplied ground truth.
        reference: usize,
        /// Clients the method valued.
        valued: usize,
    },
    /// The run was cancelled through its
    /// [`CancelToken`](fedval_runtime::CancelToken) (e.g. the one
    /// handed to
    /// [`ValuationSessionBuilder::cancel_token`](crate::session::ValuationSessionBuilder::cancel_token))
    /// before it finished. No partial values are returned.
    Cancelled,
    /// The run exceeded its wall-clock deadline and was stopped at the
    /// next cancellation checkpoint. No partial values are returned.
    Deadline {
        /// The configured limit in milliseconds.
        limit_ms: u64,
    },
}

impl fmt::Display for ValuationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValuationError::TooManyClients { clients, max } => write!(
                f,
                "exact valuation over {clients} clients is exponential (max {max}); \
                 use a sampling estimator"
            ),
            ValuationError::NotEnoughClients { clients, min } => {
                write!(f, "method needs at least {min} clients, got {clients}")
            }
            ValuationError::EmptyTrace => {
                write!(f, "training trace has no rounds; nothing to value")
            }
            ValuationError::CohortTooLarge { round, cohort, max } => write!(
                f,
                "round {round} cohort of {cohort} clients exceeds the exact gate \
                 (max {max}); use the Monte-Carlo estimator"
            ),
            ValuationError::NoPermutations => {
                write!(f, "need at least one permutation")
            }
            ValuationError::NoSamples => write!(f, "need at least one sample"),
            ValuationError::InvalidTolerance { value } => {
                write!(f, "tolerance {value} must be finite and non-negative")
            }
            ValuationError::Completion(e) => write!(f, "matrix completion failed: {e}"),
            ValuationError::UnknownMethod { name } => {
                write!(f, "no valuation method registered under {name:?}")
            }
            ValuationError::ReferenceMismatch { reference, valued } => write!(
                f,
                "ground-truth reference covers {reference} clients but the \
                 valuation covers {valued}; it must come from the same world"
            ),
            ValuationError::Cancelled => write!(f, "the valuation run was cancelled"),
            ValuationError::Deadline { limit_ms } => {
                write!(f, "deadline exceeded after {limit_ms} ms")
            }
        }
    }
}

impl std::error::Error for ValuationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ValuationError::Completion(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CompletionError> for ValuationError {
    fn from(e: CompletionError) -> Self {
        match e {
            // A cancelled solve is the run's cancellation, not a solver
            // failure — surface it uniformly.
            CompletionError::Cancelled => ValuationError::Cancelled,
            other => ValuationError::Completion(other),
        }
    }
}

impl From<fedval_runtime::Cancelled> for ValuationError {
    fn from(_: fedval_runtime::Cancelled) -> Self {
        ValuationError::Cancelled
    }
}

impl From<OracleError> for ValuationError {
    fn from(e: OracleError) -> Self {
        match e {
            OracleError::TooManyClients { clients, max } => {
                ValuationError::TooManyClients { clients, max }
            }
            OracleError::EmptyTrace => ValuationError::EmptyTrace,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn oracle_errors_convert_losslessly() {
        let e: ValuationError = OracleError::TooManyClients {
            clients: 20,
            max: 16,
        }
        .into();
        assert_eq!(
            e,
            ValuationError::TooManyClients {
                clients: 20,
                max: 16
            }
        );
        let e: ValuationError = OracleError::EmptyTrace.into();
        assert_eq!(e, ValuationError::EmptyTrace);
    }

    #[test]
    fn cancellation_converts_from_every_layer() {
        let e: ValuationError = fedval_runtime::Cancelled.into();
        assert_eq!(e, ValuationError::Cancelled);
        let e: ValuationError = CompletionError::Cancelled.into();
        assert_eq!(e, ValuationError::Cancelled, "not wrapped as Completion");
    }

    #[test]
    fn completion_errors_keep_their_source() {
        use std::error::Error;
        let e: ValuationError = CompletionError::InvalidRank.into();
        assert!(e.source().is_some());
        assert!(e.to_string().contains("completion"));
    }

    #[test]
    fn display_is_actionable() {
        let e = ValuationError::TooManyClients {
            clients: 17,
            max: 16,
        };
        assert!(e.to_string().contains("sampling"));
        let e = ValuationError::UnknownMethod {
            name: "frobnicate".into(),
        };
        assert!(e.to_string().contains("frobnicate"));
    }
}
