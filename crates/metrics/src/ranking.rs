//! Ranking helpers: rank assignment with average-tie handling and
//! bottom-k selection used by the detection experiments.

/// Assigns fractional ranks (1-based) to `values`, averaging tied groups.
///
/// The smallest value receives rank 1. This is the standard convention for
/// Spearman correlation with ties.
pub fn ranks_average_ties(values: &[f64]) -> Vec<f64> {
    let n = values.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
    });
    let mut ranks = vec![0.0; n];
    let mut i = 0;
    while i < n {
        let mut j = i;
        while j + 1 < n && values[order[j + 1]] == values[order[i]] {
            j += 1;
        }
        // Positions i..=j hold equal values: average rank (1-based).
        let avg = (i + j) as f64 / 2.0 + 1.0;
        for &idx in &order[i..=j] {
            ranks[idx] = avg;
        }
        i = j + 1;
    }
    ranks
}

/// Indices of the `k` smallest values (ties broken by index for
/// determinism). Used for "the 10 clients with the lowest evaluations".
pub fn bottom_k_indices(values: &[f64], k: usize) -> Vec<usize> {
    let mut order: Vec<usize> = (0..values.len()).collect();
    order.sort_by(|&a, &b| {
        values[a]
            .partial_cmp(&values[b])
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.cmp(&b))
    });
    order.truncate(k.min(values.len()));
    order
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ranks_simple_ascending() {
        assert_eq!(ranks_average_ties(&[10.0, 20.0, 30.0]), vec![1.0, 2.0, 3.0]);
    }

    #[test]
    fn ranks_with_ties_are_averaged() {
        // values: [1, 2, 2, 3] -> ranks [1, 2.5, 2.5, 4]
        assert_eq!(
            ranks_average_ties(&[1.0, 2.0, 2.0, 3.0]),
            vec![1.0, 2.5, 2.5, 4.0]
        );
    }

    #[test]
    fn ranks_all_equal() {
        let r = ranks_average_ties(&[5.0; 4]);
        assert!(r.iter().all(|&x| (x - 2.5).abs() < 1e-15));
    }

    #[test]
    fn ranks_empty_input() {
        assert!(ranks_average_ties(&[]).is_empty());
    }

    #[test]
    fn bottom_k_picks_smallest() {
        assert_eq!(bottom_k_indices(&[3.0, 1.0, 2.0, 0.5], 2), vec![3, 1]);
    }

    #[test]
    fn bottom_k_tie_breaks_by_index() {
        assert_eq!(bottom_k_indices(&[1.0, 1.0, 1.0], 2), vec![0, 1]);
    }

    #[test]
    fn bottom_k_clamps_to_length() {
        assert_eq!(bottom_k_indices(&[2.0, 1.0], 10), vec![1, 0]);
    }
}
