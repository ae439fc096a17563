//! Multinomial logistic regression with optional L2 regularization.
//!
//! This is the strongly convex workhorse of the paper's theory: with
//! regularization strength `μ > 0` the loss is `μ`-strongly convex, and on
//! bounded data it is Lipschitz and smooth, so Propositions 1–2 apply and
//! the utility matrix it generates must be approximately low-rank.

use crate::init::xavier_fill;
use crate::traits::Model;
use crate::workspace::{chunks, softmax_delta, Workspace};
use fedval_data::Dataset;
use fedval_linalg::{gemm, vector, DeterminismTier};
use fedval_runtime::{CancelToken, Cancelled};

/// Multinomial (softmax) logistic regression.
///
/// Parameter layout: the weight matrix `W` (`num_classes × dim`) stored
/// row-major, followed by the bias vector (`num_classes`). Loss is mean
/// cross-entropy plus `reg/2 · ‖params‖²`.
#[derive(Debug, Clone)]
pub struct LogisticRegression {
    dim: usize,
    num_classes: usize,
    reg: f64,
    params: Vec<f64>,
}

impl LogisticRegression {
    /// Creates a model with Xavier-initialized weights.
    pub fn new(dim: usize, num_classes: usize, reg: f64, seed: u64) -> Self {
        assert!(num_classes >= 2, "need at least two classes");
        assert!(reg >= 0.0, "regularization must be non-negative");
        let mut params = vec![0.0; num_classes * dim + num_classes];
        xavier_fill(&mut params[..num_classes * dim], dim, num_classes, seed);
        LogisticRegression {
            dim,
            num_classes,
            reg,
            params,
        }
    }

    /// Creates a model with all-zero parameters (useful for tests that need
    /// an exactly known starting point).
    pub fn zeros(dim: usize, num_classes: usize, reg: f64) -> Self {
        LogisticRegression {
            dim,
            num_classes,
            reg,
            params: vec![0.0; num_classes * dim + num_classes],
        }
    }

    /// Regularization strength `μ` (the strong-convexity modulus).
    pub fn regularization(&self) -> f64 {
        self.reg
    }

    /// Input dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of classes.
    pub fn num_classes(&self) -> usize {
        self.num_classes
    }

    #[inline]
    fn logits_into(&self, x: &[f64], out: &mut [f64]) {
        let c = self.num_classes;
        let d = self.dim;
        for (k, o) in out.iter_mut().enumerate() {
            let w_row = &self.params[k * d..(k + 1) * d];
            *o = vector::dot(w_row, x) + self.params[c * d + k];
        }
    }

    fn reg_term(&self) -> f64 {
        if self.reg == 0.0 {
            0.0
        } else {
            0.5 * self.reg * vector::dot(&self.params, &self.params)
        }
    }

    /// Fills `logits` (`rows × num_classes`) for a chunk of examples:
    /// one `X · Wᵀ` GEMM plus the fused bias add — per element the same
    /// `dot + bias` the per-sample path computes.
    fn logits_chunk(
        &self,
        x: &[f64],
        rows: usize,
        logits: &mut fedval_linalg::Matrix,
        scratch: &mut gemm::Scratch,
        tier: DeterminismTier,
    ) {
        let (c, d) = (self.num_classes, self.dim);
        logits.resize_for_overwrite(rows, c);
        gemm::gemm_nt_tiered(
            x,
            &self.params[..c * d],
            logits.as_mut_slice(),
            rows,
            d,
            c,
            scratch,
            tier,
        );
        gemm::add_bias_rows(logits.as_mut_slice(), c, &self.params[c * d..]);
    }

    /// The pre-batching per-sample loss loop, retained verbatim as the
    /// naive reference the equivalence tests and the `cell_throughput`
    /// benchmark compare against.
    #[doc(hidden)]
    pub fn loss_per_sample(&self, data: &Dataset) -> f64 {
        assert_eq!(data.dim(), self.dim, "dataset dimension mismatch");
        if data.is_empty() {
            return self.reg_term();
        }
        let c = self.num_classes;
        let mut logits = vec![0.0; c];
        let mut total = 0.0;
        for i in 0..data.len() {
            let (x, y) = data.example(i);
            self.logits_into(x, &mut logits);
            total += vector::log_sum_exp(&logits) - logits[y];
        }
        total / data.len() as f64 + self.reg_term()
    }

    /// The pre-batching per-sample gradient loop (see
    /// [`loss_per_sample`](LogisticRegression::loss_per_sample)).
    #[doc(hidden)]
    pub fn grad_per_sample(&self, data: &Dataset, out: &mut [f64]) -> f64 {
        assert_eq!(out.len(), self.params.len(), "gradient buffer mismatch");
        assert_eq!(data.dim(), self.dim, "dataset dimension mismatch");
        out.iter_mut().for_each(|v| *v = 0.0);
        let c = self.num_classes;
        let d = self.dim;
        if data.is_empty() {
            vector::axpy(self.reg, &self.params, out);
            return self.reg_term();
        }
        let inv_n = 1.0 / data.len() as f64;
        let mut logits = vec![0.0; c];
        let mut probs = vec![0.0; c];
        let mut total = 0.0;
        for i in 0..data.len() {
            let (x, y) = data.example(i);
            self.logits_into(x, &mut logits);
            total += vector::log_sum_exp(&logits) - logits[y];
            vector::softmax_into(&logits, &mut probs);
            for k in 0..c {
                let coeff = (probs[k] - f64::from(u8::from(k == y))) * inv_n;
                if coeff == 0.0 {
                    continue;
                }
                vector::axpy(coeff, x, &mut out[k * d..(k + 1) * d]);
                out[c * d + k] += coeff;
            }
        }
        vector::axpy(self.reg, &self.params, out);
        total * inv_n + self.reg_term()
    }
}

impl Model for LogisticRegression {
    fn params(&self) -> &[f64] {
        &self.params
    }

    fn cache_descriptor(&self) -> String {
        format!(
            "logreg:dim={}:classes={}:reg={:x}",
            self.dim,
            self.num_classes,
            self.reg.to_bits()
        )
    }

    fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    fn loss_with(
        &self,
        data: &Dataset,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<f64, Cancelled> {
        assert_eq!(data.dim(), self.dim, "dataset dimension mismatch");
        if data.is_empty() {
            return Ok(self.reg_term());
        }
        let (c, d) = (self.num_classes, self.dim);
        let feat = data.features().as_slice();
        let labels = data.labels();
        let tier = ws.tier();
        // BitExact: the logits, bias and epilogue in one pass over the
        // dataset's lane-packed rows that never writes the logits out,
        // with the three steps' bits.
        let one_pass = tier == DeterminismTier::BitExact && c <= vector::LINEAR_MAX_CLASSES;
        let packed = if one_pass {
            data.packed_features()
        } else {
            &[]
        };
        let (w, bias) = self.params.split_at(c * d);
        let (bufs, gemm_scratch) = ws.parts(1);
        let mut total = 0.0;
        for (start, end) in chunks(data.len()) {
            cancel.check()?;
            let labels = &labels[start..end];
            total = if one_pass {
                // Each chunk starts a pack block (`CHUNK_ROWS` is a
                // multiple of `PACK_ROWS`).
                let x = &packed[start * d..vector::packed_len(end, d)];
                vector::linear_cross_entropy(x, w, bias, labels, total)
            } else {
                let x = &feat[start * d..end * d];
                self.logits_chunk(x, end - start, &mut bufs[0], gemm_scratch, tier);
                vector::cross_entropy_rows(bufs[0].as_slice(), c, labels, total)
            };
        }
        Ok(total / data.len() as f64 + self.reg_term())
    }

    fn grad_with(&self, data: &Dataset, out: &mut [f64], ws: &mut Workspace) -> f64 {
        assert_eq!(out.len(), self.params.len(), "gradient buffer mismatch");
        assert_eq!(data.dim(), self.dim, "dataset dimension mismatch");
        out.iter_mut().for_each(|v| *v = 0.0);
        let (c, d) = (self.num_classes, self.dim);
        if data.is_empty() {
            vector::axpy(self.reg, &self.params, out);
            return self.reg_term();
        }
        let inv_n = 1.0 / data.len() as f64;
        let feat = data.features().as_slice();
        let labels = data.labels();
        let tier = ws.tier();
        let (bufs, gemm_scratch) = ws.parts(2);
        let mut total = 0.0;
        for (start, end) in chunks(data.len()) {
            let rows = end - start;
            let x = &feat[start * d..end * d];
            let (logits, coeff) = {
                let (a, b) = bufs.split_at_mut(1);
                (&mut a[0], &mut b[0])
            };
            self.logits_chunk(x, rows, logits, gemm_scratch, tier);
            // coeff row = (softmax(logits) − onehot(y)) · inv_n.
            total = softmax_delta(logits, &labels[start..end], coeff, total);
            coeff.as_mut_slice().iter_mut().for_each(|v| *v *= inv_n);
            // W += coeffᵀ X, bias += column sums — sample-ascending
            // accumulation, bit-identical to the per-sample axpy loop in
            // the BitExact tier.
            gemm::gemm_tn_acc_tiered(coeff.as_slice(), x, &mut out[..c * d], rows, c, d, tier);
            gemm::col_sums_acc(coeff.as_slice(), c, &mut out[c * d..]);
        }
        vector::axpy(self.reg, &self.params, out);
        total * inv_n + self.reg_term()
    }

    fn predict(&self, x: &[f64]) -> usize {
        let mut logits = vec![0.0; self.num_classes];
        self.logits_into(x, &mut logits);
        vector::argmax(&logits)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::finite_difference_check;
    use fedval_linalg::Matrix;

    fn two_blob_dataset() -> Dataset {
        // Two well separated clusters in 2D.
        let mut rows: Vec<Vec<f64>> = Vec::new();
        let mut labels = Vec::new();
        for i in 0..20 {
            let t = i as f64 / 10.0;
            rows.push(vec![2.0 + t.sin() * 0.2, 2.0 + t.cos() * 0.2]);
            labels.push(0);
            rows.push(vec![-2.0 + t.cos() * 0.2, -2.0 + t.sin() * 0.2]);
            labels.push(1);
        }
        let refs: Vec<&[f64]> = rows.iter().map(|r| r.as_slice()).collect();
        Dataset::new(Matrix::from_rows(&refs).unwrap(), labels, 2).unwrap()
    }

    #[test]
    fn zero_model_has_log_c_loss() {
        let m = LogisticRegression::zeros(2, 2, 0.0);
        let d = two_blob_dataset();
        assert!((m.loss(&d) - 2.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut m = LogisticRegression::new(2, 3, 0.0, 42);
        let f = Matrix::from_rows(&[&[0.5, -1.0], &[1.5, 2.0], &[-0.5, 0.3]]).unwrap();
        let d = Dataset::new(f, vec![0, 1, 2], 3).unwrap();
        let coords: Vec<usize> = (0..m.num_params()).collect();
        let err = finite_difference_check(&mut m, &d, &coords, 1e-6);
        assert!(err < 1e-6, "fd mismatch {err}");
    }

    #[test]
    fn regularized_gradient_matches_finite_differences() {
        let mut m = LogisticRegression::new(3, 2, 0.5, 7);
        let f = Matrix::from_rows(&[&[1.0, 0.0, 2.0], &[0.0, 1.0, -1.0]]).unwrap();
        let d = Dataset::new(f, vec![0, 1], 2).unwrap();
        let coords: Vec<usize> = (0..m.num_params()).collect();
        let err = finite_difference_check(&mut m, &d, &coords, 1e-6);
        assert!(err < 1e-6, "fd mismatch {err}");
    }

    #[test]
    fn gradient_descent_separates_blobs() {
        let d = two_blob_dataset();
        let mut m = LogisticRegression::new(2, 2, 1e-4, 1);
        let mut g = vec![0.0; m.num_params()];
        let mut prev = f64::INFINITY;
        for _ in 0..200 {
            let loss = m.grad(&d, &mut g);
            assert!(
                loss <= prev + 1e-9,
                "loss must not increase: {loss} > {prev}"
            );
            prev = loss;
            vector::axpy(-0.5, &g, m.params_mut());
        }
        assert!(m.accuracy(&d) > 0.99);
        assert!(m.loss(&d) < 0.1);
    }

    #[test]
    fn regularization_penalizes_large_weights() {
        let mut a = LogisticRegression::zeros(2, 2, 1.0);
        let d = two_blob_dataset();
        let base = a.loss(&d);
        a.params_mut()[0] = 10.0;
        // ℓ(w) ≥ reg term = 50 for this parameter change.
        assert!(a.loss(&d) > base + 49.0);
    }

    #[test]
    fn predict_is_argmax_of_logits() {
        let mut m = LogisticRegression::zeros(2, 3, 0.0);
        // Give class 2 a big bias.
        let n = m.num_params();
        m.params_mut()[n - 1] = 5.0;
        assert_eq!(m.predict(&[0.1, -0.2]), 2);
    }

    #[test]
    fn loss_on_empty_dataset_is_reg_term_only() {
        let d = two_blob_dataset().subset(&[]);
        let mut m = LogisticRegression::zeros(2, 2, 2.0);
        m.params_mut()[0] = 3.0;
        assert!((m.loss(&d) - 9.0).abs() < 1e-12);
    }

    #[test]
    fn batched_paths_match_per_sample_reference_bitwise() {
        // More examples than one minibatch chunk, with a ragged tail, so
        // the chunked reductions cross chunk boundaries. Up to 12 classes
        // the BitExact loss takes the one-pass kernel; 13 takes the
        // three steps.
        let n = crate::workspace::CHUNK_ROWS * 2 + 37;
        for classes in [
            3,
            vector::LINEAR_MAX_CLASSES,
            vector::LINEAR_MAX_CLASSES + 1,
        ] {
            let f = Matrix::from_fn(n, 3, |r, c| (((r + 2) * (c + 3)) % 11) as f64 / 5.0 - 1.0);
            let labels: Vec<usize> = (0..n).map(|r| r % classes).collect();
            let d = Dataset::new(f, labels, classes).unwrap();
            let m = LogisticRegression::new(3, classes, 0.05, 13);

            // Pinned to BitExact: this contract must hold regardless of
            // the FEDVAL_TIER environment the suite runs under.
            let mut ws = crate::workspace::Workspace::bit_exact();
            assert_eq!(
                m.loss_with(&d, &mut ws, &CancelToken::new())
                    .unwrap()
                    .to_bits(),
                m.loss_per_sample(&d).to_bits(),
                "{classes} classes"
            );

            let mut g_batched = vec![0.0; m.num_params()];
            let mut g_ref = vec![0.0; m.num_params()];
            let lb = m.grad_with(&d, &mut g_batched, &mut ws);
            let lr = m.grad_per_sample(&d, &mut g_ref);
            assert_eq!(lb.to_bits(), lr.to_bits(), "{classes} classes");
            for (a, b) in g_batched.iter().zip(&g_ref) {
                assert_eq!(a.to_bits(), b.to_bits(), "{classes} classes");
            }
        }
    }

    #[test]
    fn bit_exact_loss_never_reads_a_stale_packed_copy() {
        let loss = |m: &LogisticRegression, d: &Dataset| {
            m.loss_with(
                d,
                &mut crate::workspace::Workspace::bit_exact(),
                &CancelToken::new(),
            )
            .unwrap()
        };
        let fresh = |d: &Dataset| {
            Dataset::new(d.features().clone(), d.labels().to_vec(), d.num_classes()).unwrap()
        };
        let n = crate::workspace::CHUNK_ROWS + 37;
        let f = Matrix::from_fn(n, 5, |r, c| (((r + 2) * (c + 3)) % 13) as f64 / 6.0 - 1.0);
        let labels: Vec<usize> = (0..n).map(|r| r % 4).collect();
        let mut d = Dataset::new(f, labels, 4).unwrap();
        let m = LogisticRegression::new(5, 4, 0.05, 17);
        let before = loss(&m, &d);
        assert_eq!(before.to_bits(), loss(&m, &fresh(&d)).to_bits());

        // Edited in place: a row in the first chunk and one in the last
        // partial block.
        for r in [3, n - 1] {
            d.features_mut()
                .row_mut(r)
                .iter_mut()
                .for_each(|v| *v = -*v * 2.0);
        }
        let edited = loss(&m, &d);
        assert_ne!(
            edited.to_bits(),
            before.to_bits(),
            "the edit moves the loss"
        );
        assert_eq!(edited.to_bits(), loss(&m, &fresh(&d)).to_bits());

        // A reused minibatch refilled with other rows of the same count.
        let (first, second): (Vec<usize>, Vec<usize>) = ((0..40).collect(), (50..90).collect());
        let mut out = d.subset(&first);
        let on_first = loss(&m, &out);
        d.subset_into(&second, &mut out);
        let refilled = loss(&m, &out);
        assert_ne!(
            refilled.to_bits(),
            on_first.to_bits(),
            "other rows, other loss"
        );
        assert_eq!(refilled.to_bits(), loss(&m, &d.subset(&second)).to_bits());
    }

    #[test]
    fn fast_tier_matches_reference_within_tolerance() {
        let n = crate::workspace::CHUNK_ROWS + 19;
        let f = Matrix::from_fn(n, 3, |r, c| (((r + 2) * (c + 3)) % 11) as f64 / 5.0 - 1.0);
        let labels: Vec<usize> = (0..n).map(|r| r % 3).collect();
        let d = Dataset::new(f, labels, 3).unwrap();
        let m = LogisticRegression::new(3, 3, 0.05, 13);
        let tol = |reference: f64| 1e-9 * (1.0 + reference.abs());
        let mut ws = crate::workspace::Workspace::new().with_tier(DeterminismTier::Fast);
        let lf = m.loss_with(&d, &mut ws, &CancelToken::new()).unwrap();
        let lr = m.loss_per_sample(&d);
        assert!((lf - lr).abs() <= tol(lr), "loss {lf} vs {lr}");
        let mut g_fast = vec![0.0; m.num_params()];
        let mut g_ref = vec![0.0; m.num_params()];
        m.grad_with(&d, &mut g_fast, &mut ws);
        m.grad_per_sample(&d, &mut g_ref);
        for (i, (a, b)) in g_fast.iter().zip(&g_ref).enumerate() {
            assert!((a - b).abs() <= tol(*b), "param {i}: {a} vs {b}");
        }
    }

    #[test]
    fn clone_model_is_independent() {
        let m = LogisticRegression::new(2, 2, 0.0, 3);
        let mut b = m.clone_model();
        b.params_mut()[0] += 1.0;
        assert_ne!(m.params()[0], b.params()[0]);
    }

    #[test]
    fn identical_params_same_loss() {
        // The property behind "same data + same model ⇒ same utility".
        let d = two_blob_dataset();
        let m1 = LogisticRegression::new(2, 2, 0.1, 5);
        let mut m2 = LogisticRegression::zeros(2, 2, 0.1);
        m2.set_params(m1.params());
        assert_eq!(m1.loss(&d), m2.loss(&d));
    }
}
