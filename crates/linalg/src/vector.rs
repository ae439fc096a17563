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
/// [`mean_into`] into a fresh vector, so the same bits.
pub fn mean_of<'a, I>(vectors: I) -> Option<Vec<f64>>
where
    I: IntoIterator<Item = &'a [f64]>,
    I::IntoIter: Clone,
{
    let vectors = vectors.into_iter();
    let mut out = vec![0.0; vectors.clone().next()?.len()];
    mean_into(vectors, &mut out);
    Some(out)
}

/// The element-wise mean of `vectors` into `out`: returns `true`, or
/// `false` with `out` untouched for an empty set. This is the utility
/// oracle's per-cell FedAvg aggregate, so it allocates nothing.
///
/// Each element starts from the first vector's, adds the others' in
/// order, and is multiplied by `1 / count`. The elements are summed 32
/// at a time, each block held in registers while every member is added
/// (hence the iterator is walked once per block, and must be `Clone`);
/// that reorders memory traffic, not the per-element operations.
///
/// # Panics
///
/// If a vector's length differs from `out`'s.
pub fn mean_into<'a, I>(vectors: I, out: &mut [f64]) -> bool
where
    I: IntoIterator<Item = &'a [f64]>,
    I::IntoIter: Clone,
{
    let vectors = vectors.into_iter();
    let mut count = 0usize;
    for v in vectors.clone() {
        assert_eq!(v.len(), out.len(), "mean_into: vector length mismatch");
        count += 1;
    }
    if count == 0 {
        return false;
    }
    let inv = 1.0 / count as f64;
    #[cfg(target_arch = "x86_64")]
    if crate::cpu::features().avx2 {
        // SAFETY: the feature was detected at runtime (cached probe).
        unsafe { mean_blocks_avx2(vectors, inv, out) };
        return true;
    }
    mean_blocks(vectors, inv, out);
    true
}

/// Elements [`mean_into`] sums at once: eight AVX2 registers.
const MEAN_BLOCK: usize = 32;

/// AVX2-compiled instantiation of [`mean_blocks`].
///
/// # Safety
///
/// The CPU must support AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn mean_blocks_avx2<'a, I>(vectors: I, inv: f64, out: &mut [f64])
where
    I: Iterator<Item = &'a [f64]> + Clone,
{
    mean_blocks(vectors, inv, out);
}

/// See [`mean_into`]: `vectors` is non-empty and each is `out.len()`
/// long.
#[inline(always)]
fn mean_blocks<'a, I>(vectors: I, inv: f64, out: &mut [f64])
where
    I: Iterator<Item = &'a [f64]> + Clone,
{
    for (b, out) in out.chunks_mut(MEAN_BLOCK).enumerate() {
        let span = b * MEAN_BLOCK..b * MEAN_BLOCK + out.len();
        let mut members = vectors.clone().map(|v| &v[span.clone()]);
        let first = members.next().expect("a non-empty set");
        if let Ok(out) = <&mut [f64; MEAN_BLOCK]>::try_from(&mut *out) {
            let mut acc: [f64; MEAN_BLOCK] = first.try_into().expect("a whole block");
            for v in members {
                let v: &[f64; MEAN_BLOCK] = v.try_into().expect("a whole block");
                for (a, &x) in acc.iter_mut().zip(v) {
                    *a += x;
                }
            }
            for (o, a) in out.iter_mut().zip(acc) {
                *o = a * inv;
            }
        } else {
            out.copy_from_slice(first);
            for v in members {
                for (o, &x) in out.iter_mut().zip(v) {
                    *o += x;
                }
            }
            for o in out.iter_mut() {
                *o *= inv;
            }
        }
    }
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

/// Widest class count [`linear_cross_entropy`] serves: one accumulator
/// register per class, twelve of the sixteen AVX2 registers (of the
/// thirty-two under AVX-512).
pub const LINEAR_MAX_CLASSES: usize = 12;

/// Rows per block of the lane-packed layout [`linear_cross_entropy`]
/// reads ([`pack_rows`]): one AVX-512 register of `f64`.
pub const PACK_ROWS: usize = 8;

/// The length of [`pack_rows`]' output for `rows` rows of `k`: whole
/// blocks of [`PACK_ROWS`] rows.
pub fn packed_len(rows: usize, k: usize) -> usize {
    rows.div_ceil(PACK_ROWS) * PACK_ROWS * k
}

/// The rows of row-major `x` (rows of `k`), lane-packed for
/// [`linear_cross_entropy`]: blocks of [`PACK_ROWS`] rows, each block
/// k-major, so value `kk` of the block's row `j` sits at
/// `kk · PACK_ROWS + j` in it. A partial last block repeats its last
/// row. With `k = 0` there is nothing to pack.
///
/// # Panics
///
/// If `x.len()` is not a multiple of a nonzero `k`.
pub fn pack_rows(x: &[f64], k: usize) -> Vec<f64> {
    if k == 0 {
        return Vec::new();
    }
    assert_eq!(x.len() % k, 0, "x is rows × k");
    let rows = x.len() / k;
    let mut packed = Vec::with_capacity(packed_len(rows, k));
    for first in (0..rows).step_by(PACK_ROWS) {
        let block: [&[f64]; PACK_ROWS] = std::array::from_fn(|j| {
            let r = (first + j).min(rows - 1);
            &x[r * k..(r + 1) * k]
        });
        for kk in 0..k {
            packed.extend(block.map(|row| row[kk]));
        }
    }
    packed
}

/// `total` plus, row by row in order, the cross-entropy of the logits
/// `x_r · Wᵀ + bias` against `labels`: a logistic model's summed loss,
/// with `packed` the `labels.len()` rows `x_r` of `k` as [`pack_rows`]
/// lays them out, and `w` `bias.len()` rows of `k`, row-major. One pass,
/// eight rows at a time on AVX-512 (four elsewhere, from half-blocks),
/// the logits never written out; bit-identical to
/// [`gemm::gemm_nt_into`](crate::gemm::gemm_nt_into),
/// [`gemm::add_bias_rows`](crate::gemm::add_bias_rows) and
/// [`cross_entropy_rows`] on the unpacked rows.
///
/// # Panics
///
/// Unless `1 ≤ bias.len() ≤` [`LINEAR_MAX_CLASSES`],
/// `w.len() == classes · k` and
/// `packed.len() ==` [`packed_len`]`(labels.len(), k)` for one `k`; or
/// if a label is not below `classes`.
pub fn linear_cross_entropy(
    packed: &[f64],
    w: &[f64],
    bias: &[f64],
    labels: &[usize],
    total: f64,
) -> f64 {
    FusedLanes::detect().linear_cross_entropy(packed, w, bias, labels, total)
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
    fn mean_into_leaves_out_alone_for_an_empty_set_and_checks_lengths() {
        let mut out = vec![9.0; 3];
        assert!(!mean_into(std::iter::empty::<&[f64]>(), &mut out));
        assert_eq!(out, vec![9.0; 3], "empty set leaves the buffer alone");
        let short = [1.0, 2.0];
        let result = std::panic::catch_unwind(move || {
            let mut out = vec![0.0; 3];
            mean_into([short.as_slice()], &mut out)
        });
        assert!(result.is_err(), "a vector of another length is rejected");
    }

    /// The unblocked aggregate: per element, the first vector's value
    /// plus the others' in order, times `1 / count`.
    fn mean_per_element(vectors: &[Vec<f64>]) -> Vec<f64> {
        let inv = 1.0 / vectors.len() as f64;
        (0..vectors[0].len())
            .map(|e| vectors[1..].iter().fold(vectors[0][e], |a, v| a + v[e]) * inv)
            .collect()
    }

    #[test]
    fn blocked_mean_equals_the_per_element_loop_bitwise() {
        let mut state = 0x2545_f491_4f6c_dd1d_u64;
        let mut next = move || {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            state
        };
        let edges = [0.0, -0.0, f64::INFINITY, f64::NEG_INFINITY, 5e-324, 1e308];
        for len in [
            1,
            5,
            MEAN_BLOCK - 1,
            MEAN_BLOCK + 1,
            3 * MEAN_BLOCK + 7,
            610,
        ] {
            for members in 1..=40 {
                let vectors: Vec<Vec<f64>> = (0..members)
                    .map(|_| {
                        (0..len)
                            .map(|_| match next() % 50 {
                                e @ 0..=5 => edges[e as usize],
                                _ => (next() >> 11) as f64 / (1u64 << 40) as f64 - 4096.0,
                            })
                            .collect()
                    })
                    .collect();
                let want = mean_per_element(&vectors);
                let slices = vectors.iter().map(Vec::as_slice);
                let mut outs = vec![("dispatched", vec![f64::NAN; len])];
                assert!(mean_into(slices.clone(), &mut outs[0].1));
                let mut portable = vec![f64::NAN; len];
                mean_blocks(slices.clone(), 1.0 / members as f64, &mut portable);
                outs.push(("portable", portable));
                #[cfg(target_arch = "x86_64")]
                if crate::cpu::features().avx2 {
                    let mut avx2 = vec![f64::NAN; len];
                    // SAFETY: AVX2 was detected.
                    unsafe { mean_blocks_avx2(slices.clone(), 1.0 / members as f64, &mut avx2) };
                    outs.push(("avx2", avx2));
                }
                let of = mean_of(slices).expect("a non-empty set");
                outs.push(("mean_of", of));
                for (name, got) in &outs {
                    for (e, (x, y)) in got.iter().zip(&want).enumerate() {
                        assert!(
                            x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan()),
                            "{name}: {members} members of {len}, element {e}: {x:e} vs {y:e}"
                        );
                    }
                }
            }
        }
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
