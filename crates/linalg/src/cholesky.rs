//! Cholesky factorization and SPD solves.
//!
//! The ALS solver for the paper's matrix-completion problem (13) repeatedly
//! solves small ridge systems `(AᵀA + λI) x = b` whose left-hand side is
//! symmetric positive definite with dimension equal to the factor rank
//! (≤ ~20). A dense Cholesky is the right tool: deterministic, fast, and
//! failure (loss of positive definiteness) is an informative error.
//!
//! A ridge solve is two public steps, so a caller with many right-hand
//! sides per design can factor once: [`ridge_factor_rows_into`] (or
//! [`ridge_factor_into`] for a [`Matrix`] design) builds the Gram in one
//! pass over the design's rows, read where they lie, and factors it in
//! place; [`ridge_solve_factored`] substitutes one right-hand side.
//! [`ridge_solve_into`] is the two steps, with the same bits, and
//! [`ridge_solve_rows_into`] is them too for a design read where it
//! lies, summing the Gram and the right-hand side in one pass.

use crate::lanes::{F64x4, Isa, Lanes};
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

/// Factor step of [`ridge_solve_into`]: [`ridge_factor_rows_into`] over
/// `a`'s rows in order, with `r = a.cols()`.
pub fn ridge_factor_into(a: &Matrix, lambda: f64, l: &mut [f64]) -> Result<()> {
    ridge_factor_rows_into((0..a.rows()).map(|i| a.row(i)), a.cols(), lambda, l)
}

/// Assembles `G = AᵀA + λI` for the design whose rows, in order, are
/// `rows` (each `r` long) into `l` (`r × r` row-major), then overwrites
/// its lower triangle with the Cholesky factor `L` (`G = L Lᵀ`). The
/// strict upper triangle keeps `G`'s entries; [`ridge_solve_factored`]
/// never reads it.
///
/// The rows are read where they lie, in one pass, so a design that
/// selects rows of another matrix (an ALS target's observed entries)
/// needs no gathered copy. Each of the `r(r+1)/2` lower-triangle sums
/// starts at `+0.0` and adds its products row by row in order; `λ` is
/// added to the diagonal last. For ranks up to 8 the sums are kept one
/// `f64` lane per Gram column ([`Lanes`]): Gram row `p` adds
/// `row[p] · row` to its lanes, and `row[p] · row[q]` is the product
/// the scalar sum adds, so the lower triangle has the same bits. So the
/// factor depends only on the sequence of rows: the same rows in the
/// same order give the same bits. (Exact-zero products are not skipped;
/// on finite inputs, which the completion problem enforces at
/// observation insert, adding a `±0.0` product can only alter a sum's
/// bits in signed-zero cases that accumulators starting from `+0.0` do
/// not reach.)
///
/// `λ` must be positive and finite. A Gram that overflows, or is not
/// positive definite for any other reason, is
/// [`LinalgError::NotPositiveDefinite`].
pub fn ridge_factor_rows_into<'a>(
    rows: impl IntoIterator<Item = &'a [f64]>,
    r: usize,
    lambda: f64,
    l: &mut [f64],
) -> Result<()> {
    let rows = rows.into_iter().map(|row| (row, 0.0));
    ridge_factor_lanes(Lanes::detect(), rows, r, lambda, l, &mut [])
}

/// One ridge solve in one pass over its design: `rows` yields each
/// design row (`r` long) with its observed value `bᵢ`, in order, and
/// `x` (`r` long) receives the solution of `(AᵀA + λI) x = Aᵀb`. The
/// Gram and the right-hand side are summed in the same pass, so the
/// rows are read once; the bits are those of [`ridge_factor_rows_into`]
/// over the rows, then `Aᵀb` summed from `+0.0` by one
/// [`axpy`](crate::vector::axpy) per row, then [`ridge_solve_factored`].
pub fn ridge_solve_rows_into<'a>(
    rows: impl IntoIterator<Item = (&'a [f64], f64)>,
    r: usize,
    lambda: f64,
    x: &mut [f64],
) -> Result<()> {
    ridge_solve_rows_lanes(Lanes::detect(), rows.into_iter(), r, lambda, x)
}

/// [`ridge_solve_rows_into`] on the `lanes` instantiation.
fn ridge_solve_rows_lanes<'a>(
    lanes: Lanes,
    rows: impl Iterator<Item = (&'a [f64], f64)>,
    r: usize,
    lambda: f64,
    x: &mut [f64],
) -> Result<()> {
    if x.len() != r {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge_solve_rows",
            lhs: (r, r),
            rhs: (x.len(), 1),
        });
    }
    // The factor of a rank with lane kernels fits on the stack.
    let (mut stack, mut heap) = ([0.0; 64], Vec::new());
    let l = if r <= 8 {
        &mut stack[..r * r]
    } else {
        heap.resize(r * r, 0.0);
        &mut heap[..]
    };
    ridge_factor_lanes(lanes, rows, r, lambda, l, x)?;
    substitute(l, x, r);
    Ok(())
}

/// [`ridge_factor_rows_into`] on the `lanes` instantiation. With `x`
/// empty the rows' values are ignored; with `x` `r` long it also
/// receives the right-hand side `Σ bᵢ rowᵢ`, summed from `+0.0`.
fn ridge_factor_lanes<'a>(
    lanes: Lanes,
    rows: impl Iterator<Item = (&'a [f64], f64)>,
    r: usize,
    lambda: f64,
    l: &mut [f64],
    x: &mut [f64],
) -> Result<()> {
    if !(lambda > 0.0 && lambda.is_finite()) {
        return Err(LinalgError::InvalidDimension {
            what: "ridge lambda must be positive and finite",
        });
    }
    if l.len() != r * r {
        return Err(LinalgError::ShapeMismatch {
            op: "ridge_factor",
            lhs: (r, r),
            rhs: (l.len(), 1),
        });
    }
    debug_assert!(x.is_empty() || x.len() == r);
    macro_rules! by_rank {
        ($kernel:ident, $rhs:literal) => {
            match r {
                1 => $kernel::<_, 1, $rhs>(rows, l, x),
                2 => $kernel::<_, 2, $rhs>(rows, l, x),
                3 => $kernel::<_, 3, $rhs>(rows, l, x),
                4 => $kernel::<_, 4, $rhs>(rows, l, x),
                5 => $kernel::<_, 5, $rhs>(rows, l, x),
                6 => $kernel::<_, 6, $rhs>(rows, l, x),
                7 => $kernel::<_, 7, $rhs>(rows, l, x),
                8 => $kernel::<_, 8, $rhs>(rows, l, x),
                _ => gram_any(rows, r, l, x),
            }
        };
    }
    match (lanes.isa(), x.is_empty()) {
        (Isa::Portable, true) => by_rank!(gram_portable, false),
        (Isa::Portable, false) => by_rank!(gram_portable, true),
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, true) => by_rank!(gram_avx2, false),
        #[cfg(target_arch = "x86_64")]
        (Isa::Avx2, false) => by_rank!(gram_avx2, true),
        #[cfg(not(target_arch = "x86_64"))]
        (Isa::Avx2, _) => unreachable!("Lanes::avx2 is None off x86-64"),
    }?;
    for p in 0..r {
        for q in 0..p {
            l[q * r + p] = l[p * r + q];
        }
        l[p * r + p] += lambda;
    }
    factor_in_place(l, r)
}

/// A design row whose length is not the rank.
fn row_mismatch(r: usize, len: usize) -> LinalgError {
    LinalgError::ShapeMismatch {
        op: "ridge_factor",
        lhs: (r, r),
        rhs: (1, len),
    }
}

/// The AVX2 instantiation of [`gram_lanes`].
#[cfg(target_arch = "x86_64")]
fn gram_avx2<'a, I, const R: usize, const RHS: bool>(
    rows: I,
    g: &mut [f64],
    x: &mut [f64],
) -> Result<()>
where
    I: Iterator<Item = (&'a [f64], f64)>,
{
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2<'a, I, const R: usize, const RHS: bool>(
        rows: I,
        g: &mut [f64],
        x: &mut [f64],
    ) -> Result<()>
    where
        I: Iterator<Item = (&'a [f64], f64)>,
    {
        gram_lanes::<std::arch::x86_64::__m256d, I, R, RHS>(rows, g, x)
    }
    // SAFETY: only `ridge_factor_lanes` calls this, for `Lanes(Isa::Avx2)`,
    // which `Lanes::avx2` makes only after detecting AVX2 on this CPU.
    unsafe { avx2::<I, R, RHS>(rows, g, x) }
}

/// The portable instantiation of [`gram_lanes`].
fn gram_portable<'a, I, const R: usize, const RHS: bool>(
    rows: I,
    g: &mut [f64],
    x: &mut [f64],
) -> Result<()>
where
    I: Iterator<Item = (&'a [f64], f64)>,
{
    gram_lanes::<[f64; 4], I, R, RHS>(rows, g, x)
}

/// The lower triangle of `Σ rowᵀ row` into `g` (`R × R`, `R ≤ 8`) and,
/// with `RHS`, `Σ b · row` into `x`, with the rank fixed at compile time
/// so every running sum is a register. Gram row `p` keeps column `q` in
/// lane `q % 4` of its vector `q / 4`; only the vectors that hold a
/// lower-triangle column are summed, and the other lanes are thrown
/// away.
#[inline(always)]
fn gram_lanes<'a, V: F64x4, I, const R: usize, const RHS: bool>(
    rows: I,
    g: &mut [f64],
    x: &mut [f64],
) -> Result<()>
where
    I: Iterator<Item = (&'a [f64], f64)>,
{
    let mut sums = [[V::splat(0.0); 2]; R];
    let mut rhs = [V::splat(0.0); 2];
    for (row, b) in rows {
        let row: &[f64; R] = row.try_into().map_err(|_| row_mismatch(R, row.len()))?;
        // `row` in lanes, zero-padded past `R`.
        let cols: [V; 2] = std::array::from_fn(|c| {
            let mut lanes = [0.0; 4];
            let tail = &row[(4 * c).min(R)..];
            let width = tail.len().min(4);
            lanes[..width].copy_from_slice(&tail[..width]);
            V::from_array(lanes)
        });
        for p in 0..R {
            let rp = V::splat(row[p]);
            for c in 0..=p / 4 {
                sums[p][c] = sums[p][c].add(rp.mul(cols[c]));
            }
        }
        if RHS {
            let b = V::splat(b);
            for c in 0..R.div_ceil(4) {
                rhs[c] = rhs[c].add(b.mul(cols[c]));
            }
        }
    }
    for p in 0..R {
        let lanes = sums[p].map(V::to_array);
        for q in 0..=p {
            g[p * R + q] = lanes[q / 4][q % 4];
        }
    }
    if RHS {
        let lanes = rhs.map(V::to_array);
        for p in 0..R {
            x[p] = lanes[p / 4][p % 4];
        }
    }
    Ok(())
}

/// [`gram_lanes`] for any rank, summing in place in `g` (and in `x`
/// when it is not empty).
fn gram_any<'a>(
    rows: impl Iterator<Item = (&'a [f64], f64)>,
    r: usize,
    g: &mut [f64],
    x: &mut [f64],
) -> Result<()> {
    for p in 0..r {
        g[p * r..=p * r + p].fill(0.0);
    }
    x.fill(0.0);
    for (row, b) in rows {
        if row.len() != r {
            return Err(row_mismatch(r, row.len()));
        }
        for p in 0..r {
            for q in 0..=p {
                g[p * r + q] += row[p] * row[q];
            }
        }
        if !x.is_empty() {
            crate::vector::axpy(b, row, x);
        }
    }
    Ok(())
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
    fn ridge_factor_rows_matches_unblocked_assembly() {
        // Ranks 1–8 take the lane kernels and 9 the in-place sums; m = 0
        // is an unobserved ALS target (G = λI). Row entries include
        // signed zeros and subnormals. Both lane instantiations run, each
        // on the Gram alone and on the Gram with its right-hand side.
        let instantiations: Vec<Lanes> = [Some(Lanes::portable()), Lanes::avx2()]
            .into_iter()
            .flatten()
            .collect();
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            match state % 11 {
                0 => -0.0,
                1 => 4e-310,
                _ => (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0,
            }
        };
        let bits = |v: &[f64]| v.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        let lambda = 0.37;
        for r in 1..=9 {
            for m in [0, 1, 2, 7, 23] {
                let a = Matrix::from_fn(m, r, |_, _| next());
                let b: Vec<f64> = (0..m).map(|_| next()).collect();
                // The unblocked assembly: i outer, every element summed
                // from +0.0 with i ascending, λ added after.
                let mut gram = Matrix::zeros(r, r);
                for i in 0..m {
                    for p in 0..r {
                        for q in 0..r {
                            gram.set(p, q, gram.get(p, q) + a.get(i, p) * a.get(i, q));
                        }
                    }
                }
                for p in 0..r {
                    gram.set(p, p, gram.get(p, p) + lambda);
                }
                let reference = CholeskyFactor::new(&gram).unwrap();
                let mut expect = vec![0.0; r * r];
                for p in 0..r {
                    for q in 0..r {
                        expect[p * r + q] = if q <= p {
                            reference.l().get(p, q)
                        } else {
                            gram.get(p, q)
                        };
                    }
                }
                // The right-hand side by one axpy per row, then the
                // substitution against the reference factor.
                let mut solution = vec![0.0; r];
                for i in 0..m {
                    crate::vector::axpy(b[i], a.row(i), &mut solution);
                }
                ridge_solve_factored(&expect, &mut solution).unwrap();
                let rows = || (0..m).map(|i| (a.row(i), b[i]));
                for &lanes in &instantiations {
                    let mut l = vec![f64::NAN; r * r];
                    ridge_factor_lanes(lanes, rows(), r, lambda, &mut l, &mut []).unwrap();
                    assert_eq!(bits(&l), bits(&expect), "{lanes:?} r {r} m {m}");
                    let mut x = vec![f64::NAN; r];
                    ridge_solve_rows_lanes(lanes, rows(), r, lambda, &mut x).unwrap();
                    assert_eq!(bits(&x), bits(&solution), "{lanes:?} r {r} m {m}");
                }
                let mut l = vec![f64::NAN; r * r];
                ridge_factor_rows_into((0..m).map(|i| a.row(i)), r, lambda, &mut l).unwrap();
                assert_eq!(bits(&l), bits(&expect));
                let mut x = vec![f64::NAN; r];
                ridge_solve_rows_into(rows(), r, lambda, &mut x).unwrap();
                assert_eq!(bits(&x), bits(&solution));
                // The same rows picked by index, one of them twice, equal
                // the gathered design's factor.
                let picks: Vec<usize> = (0..m).chain((0..m).take(1)).rev().collect();
                let gathered = Matrix::from_fn(picks.len(), r, |k, p| a.get(picks[k], p));
                let mut by_index = vec![0.0; r * r];
                let rows = picks.iter().map(|&i| a.row(i));
                ridge_factor_rows_into(rows, r, lambda, &mut by_index).unwrap();
                ridge_factor_into(&gathered, lambda, &mut l).unwrap();
                assert_eq!(bits(&by_index), bits(&l));
            }
        }
        // A row of the wrong length, a solution of the wrong length and
        // an overflowing Gram are errors.
        let mut l = vec![0.0; 4];
        let short = [1.0];
        assert!(ridge_factor_rows_into([&short[..]], 2, lambda, &mut l).is_err());
        assert!(ridge_solve_rows_into([(&short[..], 1.0)], 2, lambda, &mut [0.0; 2]).is_err());
        assert!(ridge_solve_rows_into([(&short[..], 1.0)], 1, lambda, &mut [0.0; 2]).is_err());
        let mut l = vec![0.0; 81];
        assert!(ridge_factor_rows_into([&short[..]], 9, lambda, &mut l).is_err());
        let huge = [1e200, 1.0];
        assert!(matches!(
            ridge_factor_rows_into([&huge[..]], 2, lambda, &mut [0.0; 4]),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
        assert!(matches!(
            ridge_solve_rows_into([(&huge[..], 1.0)], 2, lambda, &mut [0.0; 2]),
            Err(LinalgError::NotPositiveDefinite { .. })
        ));
    }

    #[test]
    fn ridge_rejects_nonpositive_lambda() {
        let a = Matrix::zeros(2, 2);
        for lambda in [0.0, -1.0, f64::INFINITY, f64::NAN] {
            assert!(ridge_solve(&a, &[0.0, 0.0], lambda).is_err(), "{lambda}");
        }
    }
}
