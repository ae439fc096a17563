//! BLAS-1 style vector kernels.
//!
//! These are the primitives shared by the model gradients, the FedAvg
//! aggregation step, and the ALS solver. They operate on plain slices so
//! every layer can keep its parameters as a flat `Vec<f64>` (which is what
//! makes model averaging in FedAvg a one-liner).

use crate::lanes::FusedLanes;

/// Dot product of two equal-length slices.
///
/// Panics in debug builds when lengths differ; in release the shorter length
/// wins (the callers all guarantee equal lengths).
#[inline]
pub fn dot(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter().zip(b).map(|(&x, &y)| x * y).sum()
}

/// `y += alpha * x`.
#[inline]
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    debug_assert_eq!(x.len(), y.len());
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// `y *= alpha`.
#[inline]
pub fn scale(alpha: f64, y: &mut [f64]) {
    for yi in y.iter_mut() {
        *yi *= alpha;
    }
}

/// Euclidean norm.
#[inline]
pub fn norm2(a: &[f64]) -> f64 {
    dot(a, a).sqrt()
}

/// Euclidean distance between two equal-length slices.
#[inline]
pub fn dist2(a: &[f64], b: &[f64]) -> f64 {
    debug_assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| (x - y) * (x - y))
        .sum::<f64>()
        .sqrt()
}

/// Element-wise mean of a set of equal-length vectors.
///
/// This is exactly the FedAvg aggregation `w = (1/|S|) Σ_{k∈S} w_k`.
/// Returns `None` for an empty set (an empty coalition has no model).
pub fn mean_of<'a, I>(vectors: I) -> Option<Vec<f64>>
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let mut it = vectors.into_iter();
    let first = it.next()?;
    let mut acc = first.to_vec();
    let mut count = 1usize;
    for v in it {
        debug_assert_eq!(v.len(), acc.len());
        for (a, &x) in acc.iter_mut().zip(v) {
            *a += x;
        }
        count += 1;
    }
    let inv = 1.0 / count as f64;
    for a in &mut acc {
        *a *= inv;
    }
    Some(acc)
}

/// [`mean_of`] into a caller-provided buffer: `out` is overwritten with
/// the element-wise mean and `true` is returned, or left untouched with
/// `false` for an empty set. Bit-identical to [`mean_of`] (same
/// accumulate-then-scale order); the allocation-free form the utility
/// oracle uses for its per-cell FedAvg aggregates.
pub fn mean_into<'a, I>(vectors: I, out: &mut Vec<f64>) -> bool
where
    I: IntoIterator<Item = &'a [f64]>,
{
    let mut it = vectors.into_iter();
    let Some(first) = it.next() else {
        return false;
    };
    out.clear();
    out.extend_from_slice(first);
    let mut count = 1usize;
    for v in it {
        debug_assert_eq!(v.len(), out.len());
        for (a, &x) in out.iter_mut().zip(v) {
            *a += x;
        }
        count += 1;
    }
    let inv = 1.0 / count as f64;
    for a in out.iter_mut() {
        *a *= inv;
    }
    true
}

/// Index of the maximum entry (first one wins on ties).
pub fn argmax(a: &[f64]) -> usize {
    let mut best = 0;
    let mut best_v = f64::NEG_INFINITY;
    for (i, &v) in a.iter().enumerate() {
        if v > best_v {
            best_v = v;
            best = i;
        }
    }
    best
}

/// Numerically stable softmax, written into `out`. Its `exp` is
/// glibc's algorithm, ported bit for bit (see
/// [`tier`](crate::tier)), not the host's libm.
pub fn softmax_into(logits: &[f64], out: &mut [f64]) {
    debug_assert_eq!(logits.len(), out.len());
    let lanes = FusedLanes::detect();
    let m = logits.iter().fold(f64::NEG_INFINITY, |a, &b| a.max(b));
    let mut sum = 0.0;
    for (o, &l) in out.iter_mut().zip(logits) {
        let e = lanes.exp(l - m);
        *o = e;
        sum += e;
    }
    let inv = 1.0 / sum;
    for o in out.iter_mut() {
        *o *= inv;
    }
}

/// Numerically stable `log(Σ exp(a_i))`. Its `exp` is glibc's
/// algorithm, as in [`softmax_into`]; its `ln` is the host's libm.
pub fn log_sum_exp(a: &[f64]) -> f64 {
    let m = a.iter().fold(f64::NEG_INFINITY, |x, &y| x.max(y));
    if m.is_infinite() {
        return m;
    }
    let lanes = FusedLanes::detect();
    m + a.iter().map(|&x| lanes.exp(x - m)).sum::<f64>().ln()
}

/// `total` plus, row by row in order, `log_sum_exp(row) − row[y]`: the
/// summed cross-entropy of the row-major `logits` (`labels.len()` rows
/// of `classes`) against `labels`, one row per `f64` lane. Bit-identical
/// to that loop over [`log_sum_exp`].
pub fn cross_entropy_rows(logits: &[f64], classes: usize, labels: &[usize], total: f64) -> f64 {
    FusedLanes::detect().cross_entropy_rows(logits, classes, labels, total)
}

/// [`softmax_into`] on every row of the row-major `logits` (rows of
/// `classes`), into the same place in `out`, one row per `f64` lane.
/// Bit-identical to the row loop.
pub fn softmax_rows(logits: &[f64], classes: usize, out: &mut [f64]) {
    FusedLanes::detect().softmax_rows(logits, classes, out);
}

#[cfg(test)]
mod tests {
    use super::*;

    fn approx(a: f64, b: f64) -> bool {
        (a - b).abs() < 1e-12
    }

    #[test]
    fn dot_hand_computed() {
        assert!(approx(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0));
    }

    #[test]
    fn axpy_accumulates() {
        let mut y = vec![1.0, 1.0];
        axpy(2.0, &[3.0, -1.0], &mut y);
        assert_eq!(y, vec![7.0, -1.0]);
    }

    #[test]
    fn scale_scales() {
        let mut y = vec![2.0, -4.0];
        scale(0.5, &mut y);
        assert_eq!(y, vec![1.0, -2.0]);
    }

    #[test]
    fn norm_and_distance() {
        assert!(approx(norm2(&[3.0, 4.0]), 5.0));
        assert!(approx(dist2(&[1.0, 1.0], &[4.0, 5.0]), 5.0));
    }

    #[test]
    fn mean_of_vectors_is_fedavg_aggregate() {
        let a = vec![1.0, 2.0];
        let b = vec![3.0, 6.0];
        let m = mean_of([a.as_slice(), b.as_slice()]).unwrap();
        assert_eq!(m, vec![2.0, 4.0]);
    }

    #[test]
    fn mean_of_empty_is_none() {
        assert!(mean_of(std::iter::empty::<&[f64]>()).is_none());
    }

    #[test]
    fn mean_of_single_is_identity() {
        let a = vec![1.5, -2.5];
        assert_eq!(mean_of([a.as_slice()]).unwrap(), a);
    }

    #[test]
    fn mean_into_matches_mean_of_bits_and_reuses_buffer() {
        let a = vec![1.0, 2.0, 3.0];
        let b = vec![0.3, -0.7, 10.0];
        let c = vec![5.5, 0.1, -2.0];
        let expect = mean_of([a.as_slice(), b.as_slice(), c.as_slice()]).unwrap();
        let mut out = vec![9.0; 7]; // wrong size on purpose
        assert!(mean_into(
            [a.as_slice(), b.as_slice(), c.as_slice()],
            &mut out
        ));
        assert_eq!(out.len(), 3);
        for (x, y) in out.iter().zip(&expect) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
        assert!(!mean_into(std::iter::empty::<&[f64]>(), &mut out));
        assert_eq!(out.len(), 3, "empty set leaves the buffer alone");
    }

    #[test]
    fn argmax_first_tie_wins() {
        assert_eq!(argmax(&[0.0, 3.0, 3.0, 1.0]), 1);
        assert_eq!(argmax(&[-1.0]), 0);
    }

    #[test]
    fn softmax_sums_to_one_and_is_stable() {
        let logits = [1000.0, 1001.0, 1002.0];
        let mut out = [0.0; 3];
        softmax_into(&logits, &mut out);
        let s: f64 = out.iter().sum();
        assert!(approx(s, 1.0));
        assert!(out[2] > out[1] && out[1] > out[0]);
        assert!(out.iter().all(|v| v.is_finite()));
    }

    #[test]
    fn log_sum_exp_matches_naive_for_small_values() {
        let a = [0.1_f64, 0.2, 0.3];
        let naive = a.iter().map(|x| x.exp()).sum::<f64>().ln();
        assert!(approx(log_sum_exp(&a), naive));
    }

    #[test]
    fn log_sum_exp_stable_for_large_values() {
        let a = [1000.0, 1000.0];
        assert!(approx(log_sum_exp(&a), 1000.0 + 2.0_f64.ln()));
    }
}
