//! Materializing the utility matrix.
//!
//! The paper's matrix `U ∈ R^{T × 2^N}` holds `U_t(S)` for every round and
//! every coalition. Two views are needed:
//!
//! * [`full_utility_matrix`] — the complete matrix (only feasible for small
//!   `N`; used for the ground-truth metric, the Fig.-2 singular-value study
//!   and the Fig.-3 rank sweep);
//! * [`observed_entries`] — the entries a real deployment observes,
//!   `{(t, S) : S ⊆ I_t}`, which feed the matrix-completion problem (9).

use crate::error::OracleError;
use crate::subset::Subset;
use crate::utility::{EvalPlan, UtilityOracle};
use crate::MAX_EXACT_CLIENTS;
use fedval_linalg::Matrix;

/// One observed utility-matrix entry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObservedEntry {
    /// Round index `t` (row).
    pub round: usize,
    /// Coalition `S` (column key).
    pub subset: Subset,
    /// `U_t(S)`.
    pub value: f64,
}

/// Builds the full `T × 2^N` utility matrix. Column `j` corresponds to the
/// subset with bitmask `j` (column 0, the empty coalition, is all zeros).
///
/// Gated to `N ≤` [`MAX_EXACT_CLIENTS`] — beyond that the matrix itself
/// (let alone the loss evaluations) is impractical, which is exactly the
/// paper's motivation for the Monte-Carlo estimator. Panics on violation;
/// [`try_full_utility_matrix`] is the fallible variant.
pub fn full_utility_matrix(oracle: &UtilityOracle<'_>) -> Matrix {
    match try_full_utility_matrix(oracle) {
        Ok(m) => m,
        Err(e) => panic!("{e}"),
    }
}

/// Fallible [`full_utility_matrix`]: rejects `N >` [`MAX_EXACT_CLIENTS`]
/// with a typed error instead of panicking.
pub fn try_full_utility_matrix(oracle: &UtilityOracle<'_>) -> Result<Matrix, OracleError> {
    let n = oracle.num_clients();
    if n > MAX_EXACT_CLIENTS {
        return Err(OracleError::TooManyClients {
            clients: n,
            max: MAX_EXACT_CLIENTS,
        });
    }
    if oracle.num_rounds() == 0 {
        // A 0 × 2^N matrix has no utilities to study; reject it the same
        // way the valuation layer rejects empty traces.
        return Err(OracleError::EmptyTrace);
    }
    let t = oracle.num_rounds();
    let cols = 1usize << n;
    // Evaluate the whole grid as one parallel batch, then place each
    // value at its column (column 0, the empty coalition, stays zero).
    let mut plan = EvalPlan::new();
    for round in 0..t {
        plan.add_subsets_of(round, Subset::full(n));
    }
    let values = oracle.evaluate_plan(&plan);
    let mut m = Matrix::zeros(t, cols);
    for (&(round, s), v) in plan.cells().iter().zip(values) {
        m.set(round, s.bits() as usize, v);
    }
    Ok(m)
}

/// Collects every observed entry `{(t, S) : S ⊆ I_t, S ≠ ∅}` — the
/// training process evaluates utilities only for coalitions inside the
/// selected set of the round.
pub fn observed_entries(oracle: &UtilityOracle<'_>) -> Vec<ObservedEntry> {
    let t = oracle.num_rounds();
    let mut plan = EvalPlan::new();
    for round in 0..t {
        plan.add_subsets_of(round, oracle.trace().selected(round));
    }
    let values = oracle.evaluate_plan(&plan);
    plan.cells()
        .iter()
        .zip(values)
        .map(|(&(round, subset), value)| ObservedEntry {
            round,
            subset,
            value,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::trainer::train_federated;
    use fedval_data::Dataset;
    use fedval_linalg::Matrix as M;
    use fedval_models::LogisticRegression;

    fn setup(
        n: usize,
        rounds: usize,
        k: usize,
    ) -> (crate::TrainingTrace, LogisticRegression, Dataset) {
        let clients: Vec<Dataset> = (0..n)
            .map(|i| {
                let f = M::from_fn(6, 2, |r, c| ((r + c + i) % 3) as f64 - 1.0);
                let labels: Vec<usize> = (0..6).map(|r| (r + i) % 2).collect();
                Dataset::new(f, labels, 2).unwrap()
            })
            .collect();
        let test = {
            let f = M::from_fn(6, 2, |r, c| ((r * 2 + c) % 3) as f64 - 1.0);
            let labels: Vec<usize> = (0..6).map(|r| r % 2).collect();
            Dataset::new(f, labels, 2).unwrap()
        };
        let proto = LogisticRegression::new(2, 2, 0.01, 5);
        let trace = train_federated(&proto, &clients, &FlConfig::new(rounds, k, 0.2, 1));
        (trace, proto, test)
    }

    #[test]
    fn full_matrix_shape_and_empty_column() {
        let (trace, proto, test) = setup(3, 4, 2);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let m = full_utility_matrix(&oracle);
        assert_eq!(m.shape(), (4, 8));
        for t in 0..4 {
            assert_eq!(m.get(t, 0), 0.0);
        }
    }

    #[test]
    fn full_matrix_entries_match_oracle() {
        let (trace, proto, test) = setup(3, 2, 2);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let m = full_utility_matrix(&oracle);
        for t in 0..2 {
            for bits in 1u64..8 {
                assert_eq!(
                    m.get(t, bits as usize),
                    oracle.utility(t, Subset::from_bits(bits))
                );
            }
        }
    }

    #[test]
    fn observed_entries_are_subsets_of_selected() {
        let (trace, proto, test) = setup(5, 6, 2);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let obs = observed_entries(&oracle);
        assert!(!obs.is_empty());
        for e in &obs {
            assert!(e.subset.is_subset_of(trace.selected(e.round)));
            assert!(!e.subset.is_empty());
        }
    }

    #[test]
    fn observed_count_matches_formula() {
        // Round 0 selects all 5 clients (2^5 - 1 = 31 non-empty subsets);
        // later rounds select 2 (3 non-empty subsets each).
        let (trace, proto, test) = setup(5, 4, 2);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let obs = observed_entries(&oracle);
        assert_eq!(obs.len(), 31 + 3 * 3);
    }

    #[test]
    fn observed_values_agree_with_full_matrix() {
        let (trace, proto, test) = setup(4, 3, 2);
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let full = full_utility_matrix(&oracle);
        for e in observed_entries(&oracle) {
            assert_eq!(e.value, full.get(e.round, e.subset.bits() as usize));
        }
    }

    #[test]
    fn full_matrix_rejects_empty_trace() {
        let (_, proto, test) = setup(3, 1, 1);
        let clients: Vec<Dataset> = (0..3)
            .map(|i| {
                let f = M::from_fn(4, 2, |r, c| ((r + c + i) % 3) as f64 - 1.0);
                let labels: Vec<usize> = (0..4).map(|r| (r + i) % 2).collect();
                Dataset::new(f, labels, 2).unwrap()
            })
            .collect();
        let trace = train_federated(&proto, &clients, &FlConfig::new(0, 2, 0.2, 1));
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        assert_eq!(
            try_full_utility_matrix(&oracle).unwrap_err(),
            OracleError::EmptyTrace
        );
    }

    #[test]
    fn full_matrix_rejects_large_n() {
        let (_, _, test) = setup(3, 1, 1);
        let clients: Vec<Dataset> = (0..17)
            .map(|i| {
                let f = M::from_fn(4, 2, |r, c| ((r + c + i) % 3) as f64 - 1.0);
                let labels: Vec<usize> = (0..4).map(|r| (r + i) % 2).collect();
                Dataset::new(f, labels, 2).unwrap()
            })
            .collect();
        let proto = LogisticRegression::new(2, 2, 0.01, 5);
        let trace = train_federated(&proto, &clients, &FlConfig::new(1, 2, 0.2, 1));
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        assert_eq!(
            try_full_utility_matrix(&oracle).unwrap_err(),
            OracleError::TooManyClients {
                clients: 17,
                max: MAX_EXACT_CLIENTS
            }
        );
    }
}
