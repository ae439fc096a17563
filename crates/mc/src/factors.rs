//! The `(W, H)` factor pair produced by the completion solvers.

use crate::problem::CompletionProblem;
use fedval_linalg::Matrix;

/// Low-rank factors `W ∈ R^{T×r}` (rows: rounds) and `H ∈ R^{C×r}` (rows:
/// subset columns), approximating the observed matrix by `W Hᵀ`.
#[derive(Debug, Clone)]
pub struct Factors {
    /// Round factor.
    pub w: Matrix,
    /// Column (subset) factor.
    pub h: Matrix,
}

impl Factors {
    /// Factor rank `r`.
    pub fn rank(&self) -> usize {
        self.w.cols()
    }

    /// Predicted value at `(row, col)`: `w_rowᵀ h_col`.
    pub fn predict(&self, row: usize, col: usize) -> f64 {
        fedval_linalg::vector::dot(self.w.row(row), self.h.row(col))
    }

    /// The completed dense matrix `W Hᵀ` (feasible only for modest sizes).
    pub fn complete(&self) -> Matrix {
        self.w
            .matmul_transpose(&self.h)
            .expect("factor ranks agree by construction")
    }

    /// Sum of the `W` rows — the vector `Σ_t w_t` that turns the
    /// ComFedSV double sum into a single pass over subset columns.
    pub fn row_factor_sum(&self) -> Vec<f64> {
        let r = self.rank();
        let mut out = vec![0.0; r];
        for t in 0..self.w.rows() {
            fedval_linalg::vector::axpy(1.0, self.w.row(t), &mut out);
        }
        out
    }

    /// Squared-error part of the paper's objective on the observed entries.
    pub fn observed_sse(&self, problem: &CompletionProblem) -> f64 {
        problem
            .entries()
            .iter()
            .map(|&(row, col, v)| squared_error(self.w.row(row), self.h.row(col), v))
            .sum()
    }

    /// The full regularized objective of problem (9)/(13).
    pub fn objective(&self, problem: &CompletionProblem, lambda: f64) -> f64 {
        objective_of(&self.w, &self.h, self.h.rows(), |c| c, problem, lambda)
    }

    /// Root-mean-square error over the observed entries.
    pub fn observed_rmse(&self, problem: &CompletionProblem) -> f64 {
        let n = problem.num_observations();
        if n == 0 {
            return 0.0;
        }
        (self.observed_sse(problem) / n as f64).sqrt()
    }
}

/// [`Factors::objective`] of `w` and the `cols` column factors, with
/// column `c`'s row of `H` at row `h_row(c)` of `h`: `H`'s rows may be
/// kept in any order.
///
/// The sum of squared errors over the entries and `‖H‖²` are each one
/// in-order chain from `-0.0`, as Rust's `.sum()` runs them, but the
/// two chains advance in the same loop so their additions overlap;
/// `‖H‖²` visits the columns in order through `h_row`. The residual's
/// dot product is specialized per rank. `‖W‖²` and the square root
/// squared again are kept as they were, so the objective has the bits
/// of `observed_sse + λ (‖W‖_F² + ‖H‖_F²)` on the column-ordered
/// factors.
pub(crate) fn objective_of(
    w: &Matrix,
    h: &Matrix,
    cols: usize,
    h_row: impl Fn(usize) -> usize,
    problem: &CompletionProblem,
    lambda: f64,
) -> f64 {
    let entries = problem.entries();
    let (sse, h_squares) = match w.cols() {
        1 => sse_and_squares::<1>(w, h, cols, &h_row, entries),
        2 => sse_and_squares::<2>(w, h, cols, &h_row, entries),
        3 => sse_and_squares::<3>(w, h, cols, &h_row, entries),
        4 => sse_and_squares::<4>(w, h, cols, &h_row, entries),
        5 => sse_and_squares::<5>(w, h, cols, &h_row, entries),
        6 => sse_and_squares::<6>(w, h, cols, &h_row, entries),
        7 => sse_and_squares::<7>(w, h, cols, &h_row, entries),
        8 => sse_and_squares::<8>(w, h, cols, &h_row, entries),
        _ => sse_and_squares::<0>(w, h, cols, &h_row, entries),
    };
    let reg = w.frobenius_norm().powi(2) + h_squares.sqrt().powi(2);
    sse + lambda * reg
}

/// The two chains of [`objective_of`]: the squared errors and `‖H‖²`.
/// `R` is the rank, or 0 for a rank known only at run time.
fn sse_and_squares<const R: usize>(
    w: &Matrix,
    h: &Matrix,
    cols: usize,
    h_row: &impl Fn(usize) -> usize,
    entries: &[(usize, usize, f64)],
) -> (f64, f64) {
    let r = if R == 0 { w.cols() } else { R };
    let h_at = |col: usize| &h.row(h_row(col))[..r];
    let (mut sse, mut h_squares) = (-0.0, -0.0);
    let both = entries.len().min(cols);
    for (col, &(row, c, v)) in entries[..both].iter().enumerate() {
        sse += squared_error(&w.row(row)[..r], h_at(c), v);
        add_squares(&mut h_squares, h_at(col));
    }
    for &(row, c, v) in &entries[both..] {
        sse += squared_error(&w.row(row)[..r], h_at(c), v);
    }
    for col in both..cols {
        add_squares(&mut h_squares, h_at(col));
    }
    (sse, h_squares)
}

/// `(v - a·b)²`, the dot product summed in order from `-0.0`.
#[inline(always)]
fn squared_error(a: &[f64], b: &[f64], v: f64) -> f64 {
    let mut dot = -0.0;
    for (x, y) in a.iter().zip(b) {
        dot += x * y;
    }
    let e = v - dot;
    e * e
}

/// Adds the squares of `row`'s entries to `sum`, in order.
#[inline(always)]
fn add_squares(sum: &mut f64, row: &[f64]) {
    for v in row {
        *sum += v * v;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn simple_factors() -> Factors {
        Factors {
            w: Matrix::from_rows(&[&[1.0, 0.0], &[0.0, 2.0]]).unwrap(),
            h: Matrix::from_rows(&[&[3.0, 1.0], &[0.5, -1.0]]).unwrap(),
        }
    }

    #[test]
    fn predict_is_dot_product() {
        let f = simple_factors();
        assert_eq!(f.predict(0, 0), 3.0);
        assert_eq!(f.predict(1, 1), -2.0);
        assert_eq!(f.rank(), 2);
    }

    #[test]
    fn complete_matches_predict() {
        let f = simple_factors();
        let m = f.complete();
        for i in 0..2 {
            for j in 0..2 {
                assert_eq!(m.get(i, j), f.predict(i, j));
            }
        }
    }

    #[test]
    fn row_factor_sum_sums_rows() {
        let f = simple_factors();
        assert_eq!(f.row_factor_sum(), vec![1.0, 2.0]);
    }

    #[test]
    fn objective_components() {
        let f = simple_factors();
        let mut p = CompletionProblem::new(2);
        p.add_observation(0, 10, 3.0); // predicted exactly
        p.add_observation(1, 11, 0.0); // predicted -2, error 2
        let sse = f.observed_sse(&p);
        assert!((sse - 4.0).abs() < 1e-12);
        let reg = f.w.frobenius_norm().powi(2) + f.h.frobenius_norm().powi(2);
        assert!((f.objective(&p, 0.5) - (4.0 + 0.5 * reg)).abs() < 1e-12);
        assert!((f.observed_rmse(&p) - (4.0f64 / 2.0).sqrt()).abs() < 1e-12);
    }

    /// The objective as it was before the one-pass evaluation: the
    /// squared errors, then `‖W‖_F²` and `‖H‖_F²`, each its own `.sum()`.
    fn objective_as_three_sums(f: &Factors, p: &CompletionProblem, lambda: f64) -> f64 {
        let sse: f64 = p
            .entries()
            .iter()
            .map(|&(row, col, v)| {
                let dot: f64 =
                    f.w.row(row)
                        .iter()
                        .zip(f.h.row(col))
                        .map(|(x, y)| x * y)
                        .sum();
                let e = v - dot;
                e * e
            })
            .sum();
        let norm = |m: &Matrix| m.as_slice().iter().map(|v| v * v).sum::<f64>().sqrt();
        sse + lambda * (norm(&f.w).powi(2) + norm(&f.h).powi(2))
    }

    #[test]
    fn one_pass_objective_matches_three_sums_bitwise() {
        let mut state = 0x2545_F491_4F6C_DD1Du64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 13 {
                0 => -0.0,
                1 => 0.0,
                2 => -3e-310,
                3 => 2e-308,
                _ => (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0,
            }
        };
        let bits = |v: f64| v.to_bits();
        for rank in 1..=9 {
            // More columns than entries, and more entries than columns.
            for (cols, observed) in [(7, 3), (5, 12)] {
                let mut p = CompletionProblem::new(4);
                for key in 0..cols as u64 {
                    p.ensure_column(key);
                }
                for k in 0..observed {
                    p.add_observation(k % 4, (k % (cols - 2)) as u64, next());
                }
                // A duplicated cell; the last two columns stay unobserved.
                p.add_observation(1, 0, next());
                p.add_observation(1, 0, -0.0);
                let f = Factors {
                    w: Matrix::from_fn(4, rank, |_, _| next()),
                    h: Matrix::from_fn(cols, rank, |_, _| next()),
                };
                let expect = objective_as_three_sums(&f, &p, 0.3);
                assert_eq!(bits(f.objective(&p, 0.3)), bits(expect), "rank {rank}");
                // `H`'s rows stored in reverse, found through the map.
                let reversed = Matrix::from_fn(cols, rank, |i, q| f.h.get(cols - 1 - i, q));
                let mapped = objective_of(&f.w, &reversed, cols, |c| cols - 1 - c, &p, 0.3);
                assert_eq!(bits(mapped), bits(expect), "rank {rank}");
            }
        }
        // An empty problem and factors of all signed zeros.
        let p = CompletionProblem::new(2);
        for fill in [0.0, -0.0] {
            let f = Factors {
                w: Matrix::from_fn(2, 3, |_, _| fill),
                h: Matrix::from_fn(0, 3, |_, _| fill),
            };
            let expect = objective_as_three_sums(&f, &p, 0.5);
            assert_eq!(bits(f.objective(&p, 0.5)), bits(expect));
        }
    }

    #[test]
    fn rmse_of_empty_problem_is_zero() {
        let f = simple_factors();
        let p = CompletionProblem::new(2);
        assert_eq!(f.observed_rmse(&p), 0.0);
    }
}
