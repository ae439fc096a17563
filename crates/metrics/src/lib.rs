//! Evaluation metrics used by the ComFedSV experiments.
//!
//! * [`spearman`] — Spearman's rank correlation (paper Fig. 6, noisy-data
//!   detection against the ground-truth noise ranking).
//! * [`jaccard`] — Jaccard coefficient between client sets (paper Fig. 7,
//!   noisy-label detection).
//! * [`ecdf`] — empirical cumulative distribution functions (paper Fig. 5,
//!   fairness of `d_{0,9}`).
//! * [`detection`] — bad-client detection scores (rank-based ROC-AUC and
//!   precision@k) for the robustness harness.
//! * [`ranking`] — ranking helpers (bottom-k selection, rank assignment with
//!   tie handling).
//! * [`stats`] — the share of a sample meeting a predicate (Example 1's
//!   `P(d_{0,9} > 0.5)`).
//! * [`relative_difference`] — the paper's fairness statistic
//!   `d_{i,j} = |s_i − s_j| / max(s_i, s_j)` (equation (7)).

pub mod detection;
pub mod ecdf;
pub mod jaccard;
pub mod ranking;
pub mod spearman;
pub mod stats;

pub use detection::{detection_auc, precision_at_k, DetectionError};
pub use ecdf::Ecdf;
pub use jaccard::jaccard_index;
pub use ranking::{bottom_k_indices, ranks_average_ties};
pub use spearman::spearman_rho;

/// Relative difference between two valuations (paper equation (7)):
/// `d_{i,j} = |s_i − s_j| / max{s_i, s_j}`.
///
/// The paper applies this to the (positive) valuations of two clients with
/// identical data. When the plain max is not positive the paper's formula is
/// undefined; we fall back to dividing by `max(|s_i|, |s_j|)`, and define
/// `d = 0` when both values are exactly zero.
pub fn relative_difference(si: f64, sj: f64) -> f64 {
    let num = (si - sj).abs();
    if num == 0.0 {
        return 0.0;
    }
    let denom = si.max(sj);
    let denom = if denom > 0.0 {
        denom
    } else {
        si.abs().max(sj.abs())
    };
    (num / denom).clamp(0.0, f64::INFINITY)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn relative_difference_of_equal_values_is_zero() {
        assert_eq!(relative_difference(2.0, 2.0), 0.0);
        assert_eq!(relative_difference(0.0, 0.0), 0.0);
    }

    #[test]
    fn relative_difference_matches_paper_formula() {
        // |3 - 1| / max(3, 1) = 2/3.
        assert!((relative_difference(3.0, 1.0) - 2.0 / 3.0).abs() < 1e-15);
        assert!((relative_difference(1.0, 3.0) - 2.0 / 3.0).abs() < 1e-15);
    }

    #[test]
    fn relative_difference_one_when_one_value_is_zero() {
        assert!((relative_difference(5.0, 0.0) - 1.0).abs() < 1e-15);
    }

    #[test]
    fn relative_difference_handles_negative_values() {
        let d = relative_difference(-1.0, -3.0);
        assert!(d.is_finite());
        assert!(d > 0.0);
    }
}
