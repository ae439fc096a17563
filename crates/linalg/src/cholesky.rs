//! Cholesky factorization and SPD solves.
//!
//! The ALS solver for the paper's matrix-completion problem (13) repeatedly
//! solves small ridge systems `(AᵀA + λI) x = b` whose left-hand side is
//! symmetric positive definite with dimension equal to the factor rank
//! (≤ ~20). A dense Cholesky is the right tool: deterministic, fast, and
//! failure (loss of positive definiteness) is an informative error.

use crate::{LinalgError, Matrix, Result};

/// Lower-triangular Cholesky factor `L` with `A = L Lᵀ`.
#[derive(Debug, Clone)]
pub struct CholeskyFactor {
    l: Matrix,
}

impl CholeskyFactor {
    /// Factorizes a symmetric positive definite matrix.
    ///
    /// Only the lower triangle of `a` is read. Returns
    /// [`LinalgError::NotPositiveDefinite`] when a pivot is not strictly
    /// positive.
    pub fn new(a: &Matrix) -> Result<Self> {
        let (n, m) = a.shape();
        if n != m {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky",
                lhs: a.shape(),
                rhs: a.shape(),
            });
        }
        // Copy the lower triangle only: the strict upper triangle of `l`
        // stays zero, so `l()` is the true triangular factor.
        let mut l = Matrix::zeros(n, n);
        for i in 0..n {
            l.row_mut(i)[..=i].copy_from_slice(&a.row(i)[..=i]);
        }
        factor_in_place(l.as_mut_slice(), n)?;
        Ok(CholeskyFactor { l })
    }

    /// Dimension of the factored matrix.
    pub fn dim(&self) -> usize {
        self.l.rows()
    }

    /// The lower-triangular factor.
    pub fn l(&self) -> &Matrix {
        &self.l
    }

    /// Solves `A x = b` via forward/backward substitution.
    pub fn solve(&self, b: &[f64]) -> Result<Vec<f64>> {
        let n = self.dim();
        if b.len() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve",
                lhs: (n, n),
                rhs: (b.len(), 1),
            });
        }
        let mut y = b.to_vec();
        substitute(self.l.as_slice(), &mut y, n);
        Ok(y)
    }

    /// Solves `A X = B` column by column.
    pub fn solve_matrix(&self, b: &Matrix) -> Result<Matrix> {
        let n = self.dim();
        if b.rows() != n {
            return Err(LinalgError::ShapeMismatch {
                op: "cholesky_solve_matrix",
                lhs: (n, n),
                rhs: b.shape(),
            });
        }
        let mut out = Matrix::zeros(n, b.cols());
        for j in 0..b.cols() {
            let col = b.col(j);
            let x = self.solve(&col)?;
            for (i, v) in x.into_iter().enumerate() {
                out.set(i, j, v);
            }
        }
        Ok(out)
    }
}

/// Overwrites the lower triangle of the row-major `n × n` matrix `g`
/// with its Cholesky factor `L` (`G = L Lᵀ`); only the lower triangle
/// is read, and the strict upper triangle is left as it was. In place is
/// exact: step `j` reads column `j` of `G` before writing it, and the
/// columns `k < j` of `L` it has already written.
fn factor_in_place(g: &mut [f64], n: usize) -> Result<()> {
    debug_assert_eq!(g.len(), n * n);
    for j in 0..n {
        let mut diag = g[j * n + j];
        for k in 0..j {
            let v = g[j * n + k];
            diag -= v * v;
        }
        if diag <= 0.0 || !diag.is_finite() {
            return Err(LinalgError::NotPositiveDefinite { pivot: j });
        }
        let d = diag.sqrt();
        g[j * n + j] = d;
        let inv_d = 1.0 / d;
        for i in (j + 1)..n {
            let mut v = g[i * n + j];
            for k in 0..j {
                v -= g[i * n + k] * g[j * n + k];
            }
            g[i * n + j] = v * inv_d;
        }
    }
    Ok(())
}

/// Forward/backward substitution `A x = b` with `A = L Lᵀ`, in place
/// over `x` (`b` on entry, `x` on exit), against the row-major `n × n`
/// factor `l`, of which only the lower triangle is read.
fn substitute(l: &[f64], x: &mut [f64], n: usize) {
    debug_assert_eq!(x.len(), n);
    // Forward: L y = b.
    for i in 0..n {
        let mut v = x[i];
        for k in 0..i {
            v -= l[i * n + k] * x[k];
        }
        x[i] = v / l[i * n + i];
    }
    // Backward: Lᵀ x = y.
    for i in (0..n).rev() {
        let mut v = x[i];
        for k in (i + 1)..n {
            v -= l[k * n + i] * x[k];
        }
        x[i] = v / l[i * n + i];
    }
}

/// Reusable buffer for [`ridge_solve_into`]: the Gram matrix, factored
/// in place. One per caller; grows to the largest rank seen and never
/// allocates again.
#[derive(Debug, Clone, Default)]
pub struct RidgeScratch {
    l: Vec<f64>,
}

impl RidgeScratch {
    /// Empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        RidgeScratch::default()
    }
}

/// Solves the ridge-regularized normal equations `(AᵀA + λI) x = Aᵀ b`.
///
/// This is the exact sub-problem of the ALS pass over problem (13): each row
/// of `W` (resp. `H`) is the ridge solution against the observed entries of
/// its row (resp. column). `λ` must be strictly positive, which also
/// guarantees positive definiteness regardless of `A`'s rank.
pub fn ridge_solve(a: &Matrix, b: &[f64], lambda: f64) -> Result<Vec<f64>> {
    let mut out = vec![0.0; a.cols()];
    ridge_solve_into(a, b, lambda, &mut out, &mut RidgeScratch::new())?;
    Ok(out)
}

/// [`ridge_solve`] into a caller-provided solution slice (`a.cols()`
/// long) with reusable [`RidgeScratch`] buffers. It is
/// [`ridge_factor_into`], then the right-hand side `Aᵀ b` accumulated
/// into `out` row by row (`i` ascending, one
/// [`axpy`](crate::vector::axpy) per row of `a`), then
/// [`ridge_solve_factored`]. A caller that solves many right-hand sides
/// against one design can run the two steps itself and factor once;
/// every solution is bit-identical to this call's.
pub fn ridge_solve_into(
    a: &Matrix,
    b: &[f64],
    lambda: f64,
    out: &mut [f64],
    scratch: &mut RidgeScratch,
) -> Result<()> {
    if a.rows() != b.len() || out.len() != a.cols() {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge_solve",
            lhs: a.shape(),
            rhs: (b.len(), 1),
        });
    }
    let r = a.cols();
    scratch.l.resize(r * r, 0.0);
    ridge_factor_into(a, lambda, &mut scratch.l)?;
    out.iter_mut().for_each(|v| *v = 0.0);
    for (i, &bi) in b.iter().enumerate() {
        crate::vector::axpy(bi, a.row(i), out);
    }
    ridge_solve_factored(&scratch.l, out)
}

/// Factor step of [`ridge_solve_into`]: assembles `G = AᵀA + λI` into
/// `l` (`r × r` row-major, `r = a.cols()`) through
/// [`gemm::gram_into`](crate::gemm::gram_into), then overwrites
/// its lower triangle with the Cholesky factor `L` (`G = L Lᵀ`). The
/// strict upper triangle keeps `G`'s entries; [`ridge_solve_factored`]
/// never reads it.
///
/// The Gram sums each element over `a`'s rows in ascending order and
/// adds `λ` to the diagonal last, so the factor depends only on the
/// sequence of `a`'s rows: two designs with the same rows in the same
/// order give the same bits. (Exact-zero products are not skipped; on
/// finite inputs, which the completion problem enforces at observation
/// insert, adding a `±0.0` product can only alter a sum's bits in
/// signed-zero cases that accumulators starting from `+0.0` do not
/// reach.) `λ` must be strictly positive.
pub fn ridge_factor_into(a: &Matrix, lambda: f64, l: &mut [f64]) -> Result<()> {
    if lambda <= 0.0 {
        return Err(LinalgError::InvalidDimension {
            what: "ridge lambda must be positive",
        });
    }
    let r = a.cols();
    if l.len() != r * r {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge_factor",
            lhs: a.shape(),
            rhs: (l.len(), 1),
        });
    }
    crate::gemm::gram_into(a.as_slice(), a.rows(), r, lambda, l);
    factor_in_place(l, r)
}

/// Solve step of [`ridge_solve_into`]: `x` holds the right-hand side
/// `Aᵀ b` (length `r`) on entry and the solution of `L Lᵀ x = Aᵀ b` on
/// exit, with `L` from [`ridge_factor_into`] (`r²` long; only its lower
/// triangle is read). Forward then back substitution, each step a true
/// division by the pivot.
pub fn ridge_solve_factored(l: &[f64], x: &mut [f64]) -> Result<()> {
    let r = x.len();
    if l.len() != r * r {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge_solve_factored",
            lhs: (l.len(), 1),
            rhs: (r, 1),
        });
    }
    substitute(l, x, r);
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64, tol: f64) -> bool {
        (a - b).abs() < tol
    }

    fn spd_example() -> Matrix {
        // A = Mᵀ M + I is SPD for any M.
        let m =
            Matrix::from_rows(&[&[1.0, 2.0, 0.5], &[0.0, 1.0, -1.0], &[2.0, 0.0, 1.0]]).unwrap();
        let mut a = m.transpose().matmul(&m).unwrap();
        for i in 0..3 {
            a.set(i, i, a.get(i, i) + 1.0);
        }
        a
    }

    #[test]
    fn factor_reconstructs_matrix() {
        let a = spd_example();
        let ch = CholeskyFactor::new(&a).unwrap();
        let rec = ch.l().matmul(&ch.l().transpose()).unwrap();
        for (x, y) in rec.as_slice().iter().zip(a.as_slice()) {
            assert!(approx(*x, *y, 1e-10));
        }
    }

    #[test]
    fn solve_recovers_known_solution() {
        let a = spd_example();
        let x_true = vec![1.0, -2.0, 3.0];
        let b = a.matvec(&x_true).unwrap();
        let x = CholeskyFactor::new(&a).unwrap().solve(&b).unwrap();
        for (u, v) in x.iter().zip(&x_true) {
            assert!(approx(*u, *v, 1e-9));
        }
    }

    #[test]
    fn solve_matrix_handles_multiple_rhs() {
        let a = spd_example();
        let x_true = Matrix::from_rows(&[&[1.0, 0.0], &[0.5, 2.0], &[-1.0, 1.0]]).unwrap();
        let b = a.matmul(&x_true).unwrap();
        let x = CholeskyFactor::new(&a).unwrap().solve_matrix(&b).unwrap();
        for (u, v) in x.as_slice().iter().zip(x_true.as_slice()) {
            assert!(approx(*u, *v, 1e-9));
        }
    }

    #[test]
    fn rejects_non_square() {
        assert!(CholeskyFactor::new(&Matrix::zeros(2, 3)).is_err());
    }

    #[test]
    fn rejects_indefinite() {
        let a = Matrix::from_rows(&[&[1.0, 2.0], &[2.0, 1.0]]).unwrap(); // eigenvalues 3, -1
        match CholeskyFactor::new(&a) {
            Err(LinalgError::NotPositiveDefinite { pivot }) => assert_eq!(pivot, 1),
            other => panic!("expected NotPositiveDefinite, got {other:?}"),
        }
    }

    #[test]
    fn solve_rejects_wrong_rhs_length() {
        let ch = CholeskyFactor::new(&spd_example()).unwrap();
        assert!(ch.solve(&[1.0, 2.0]).is_err());
    }

    #[test]
    fn ridge_solution_satisfies_normal_equations() {
        let a = Matrix::from_rows(&[&[1.0, 0.0], &[1.0, 1.0], &[1.0, 2.0], &[1.0, 3.0]]).unwrap();
        let b = [1.0, 2.0, 2.5, 4.0];
        let lambda = 0.1;
        let x = ridge_solve(&a, &b, lambda).unwrap();
        // Check (AᵀA + λI)x = Aᵀb directly.
        let ax = a.matvec(&x).unwrap();
        let residual_grad: Vec<f64> = {
            let atax = a.matvec_transpose(&ax).unwrap();
            let atb = a.matvec_transpose(&b).unwrap();
            (0..2).map(|i| atax[i] + lambda * x[i] - atb[i]).collect()
        };
        for g in residual_grad {
            assert!(approx(g, 0.0, 1e-9));
        }
    }

    #[test]
    fn ridge_handles_rank_deficient_design() {
        // Two identical columns: ordinary least squares is singular but
        // the ridge system must still solve.
        let a = Matrix::from_rows(&[&[1.0, 1.0], &[2.0, 2.0], &[3.0, 3.0]]).unwrap();
        let b = [1.0, 2.0, 3.0];
        let x = ridge_solve(&a, &b, 1e-3).unwrap();
        // Symmetry of the problem forces x[0] == x[1].
        assert!(approx(x[0], x[1], 1e-9));
    }

    #[test]
    fn ridge_solve_into_matches_allocating_form_bitwise() {
        let a = Matrix::from_rows(&[&[1.0, 0.3], &[0.2, 1.1], &[-0.5, 2.0], &[1.5, -0.4]]).unwrap();
        let b = [0.5, -1.0, 2.0, 0.25];
        let expect = ridge_solve(&a, &b, 0.05).unwrap();
        let mut scratch = RidgeScratch::new();
        let mut out = vec![0.0; 2];
        // Two calls through the same scratch: the second reuses buffers.
        for _ in 0..2 {
            ridge_solve_into(&a, &b, 0.05, &mut out, &mut scratch).unwrap();
            for (x, y) in out.iter().zip(&expect) {
                assert_eq!(x.to_bits(), y.to_bits());
            }
        }
        // The two public steps, run by hand with the right-hand side
        // accumulated in row order, give the same bits.
        let mut l = vec![0.0; 4];
        ridge_factor_into(&a, 0.05, &mut l).unwrap();
        let mut x = vec![0.0; 2];
        for (i, &bi) in b.iter().enumerate() {
            crate::vector::axpy(bi, a.row(i), &mut x);
        }
        ridge_solve_factored(&l, &mut x).unwrap();
        for (x, y) in x.iter().zip(&expect) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        // The factor is the Cholesky factor of AᵀA + λI, bit for bit.
        let mut gram = Matrix::zeros(2, 2);
        for i in 0..a.rows() {
            for p in 0..2 {
                for q in 0..2 {
                    gram.set(p, q, gram.get(p, q) + a.get(i, p) * a.get(i, q));
                }
            }
        }
        for p in 0..2 {
            gram.set(p, p, gram.get(p, p) + 0.05);
        }
        let reference = CholeskyFactor::new(&gram).unwrap();
        for i in 0..2 {
            for k in 0..=i {
                assert_eq!(l[i * 2 + k].to_bits(), reference.l().get(i, k).to_bits());
            }
        }
        // Wrong output length is a shape error, not a panic.
        let mut short = vec![0.0; 1];
        assert!(ridge_solve_into(&a, &b, 0.05, &mut short, &mut scratch).is_err());
        assert!(ridge_factor_into(&a, 0.05, &mut short).is_err());
        assert!(ridge_solve_factored(&l, &mut short).is_err());
    }

    #[test]
    fn zero_rank_systems_solve_to_empty() {
        let a = Matrix::zeros(3, 0);
        assert_eq!(
            ridge_solve(&a, &[1.0, 2.0, 3.0], 0.1).unwrap(),
            Vec::<f64>::new()
        );
        let mut empty: Vec<f64> = Vec::new();
        ridge_solve_factored(&[], &mut empty).unwrap();
    }

    #[test]
    fn ridge_rejects_nonpositive_lambda() {
        let a = Matrix::zeros(2, 2);
        assert!(ridge_solve(&a, &[0.0, 0.0], 0.0).is_err());
        assert!(ridge_solve(&a, &[0.0, 0.0], -1.0).is_err());
    }
}
