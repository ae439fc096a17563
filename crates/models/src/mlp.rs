//! Fully connected neural network with manual backpropagation.
//!
//! Plays the role of the paper's "simple fully connected network" on MNIST.
//! Supports ReLU and Tanh activations and any number of hidden layers; the
//! output layer is linear with softmax cross-entropy loss.

use crate::init::xavier_fill;
use crate::traits::Model;
use crate::workspace::{chunks, softmax_delta, Workspace};
use fedval_data::Dataset;
use fedval_linalg::{gemm, vector, DeterminismTier, Matrix};
use fedval_runtime::{CancelToken, Cancelled};

/// Hidden-layer activation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Activation {
    /// `max(0, x)`.
    Relu,
    /// Hyperbolic tangent (smooth, useful when the theory prefers
    /// smoothness).
    Tanh,
}

impl Activation {
    #[inline]
    fn apply(self, x: f64) -> f64 {
        match self {
            Activation::Relu => x.max(0.0),
            Activation::Tanh => x.tanh(),
        }
    }

    /// Derivative expressed in terms of the *activated* value `a = σ(x)`.
    #[inline]
    fn derivative_from_output(self, a: f64) -> f64 {
        match self {
            Activation::Relu => {
                if a > 0.0 {
                    1.0
                } else {
                    0.0
                }
            }
            Activation::Tanh => 1.0 - a * a,
        }
    }
}

/// Layer extents: weight matrix `out × in` then bias `out`, flattened in
/// order of layers.
#[derive(Debug, Clone)]
struct LayerShape {
    input: usize,
    output: usize,
    /// Offset of the weight block in the flat parameter vector.
    w_off: usize,
    /// Offset of the bias block.
    b_off: usize,
}

/// Multi-layer perceptron with softmax cross-entropy loss and optional L2.
#[derive(Debug, Clone)]
pub struct Mlp {
    sizes: Vec<usize>,
    shapes: Vec<LayerShape>,
    activation: Activation,
    reg: f64,
    params: Vec<f64>,
}

impl Mlp {
    /// Creates an MLP with the given layer sizes, e.g. `[64, 32, 10]` for
    /// one hidden layer of 32 units. The last size is the class count.
    pub fn new(sizes: &[usize], activation: Activation, reg: f64, seed: u64) -> Self {
        assert!(sizes.len() >= 2, "need at least input and output sizes");
        assert!(sizes.iter().all(|&s| s > 0), "layer sizes must be positive");
        assert!(reg >= 0.0);
        let mut shapes = Vec::with_capacity(sizes.len() - 1);
        let mut off = 0;
        for w in sizes.windows(2) {
            let (input, output) = (w[0], w[1]);
            shapes.push(LayerShape {
                input,
                output,
                w_off: off,
                b_off: off + input * output,
            });
            off += input * output + output;
        }
        let mut params = vec![0.0; off];
        for (li, s) in shapes.iter().enumerate() {
            xavier_fill(
                &mut params[s.w_off..s.w_off + s.input * s.output],
                s.input,
                s.output,
                seed.wrapping_add(li as u64),
            );
        }
        Mlp {
            sizes: sizes.to_vec(),
            shapes,
            activation,
            reg,
            params,
        }
    }

    /// Layer sizes, including input and output.
    pub fn sizes(&self) -> &[usize] {
        &self.sizes
    }

    /// Number of classes (output size).
    pub fn num_classes(&self) -> usize {
        *self.sizes.last().expect("validated at construction")
    }

    fn reg_term(&self) -> f64 {
        if self.reg == 0.0 {
            0.0
        } else {
            0.5 * self.reg * vector::dot(&self.params, &self.params)
        }
    }

    /// Runs a forward pass, storing each layer's activated output in
    /// `acts` (layer 0 output at index 0, etc.). The final entry holds the
    /// raw logits (no softmax). Per-sample path: used by `predict` and
    /// the retained reference loops.
    fn forward_into(&self, x: &[f64], acts: &mut Vec<Vec<f64>>) {
        acts.clear();
        let mut current: &[f64] = x;
        let last = self.shapes.len() - 1;
        for (li, s) in self.shapes.iter().enumerate() {
            let mut out = vec![0.0; s.output];
            for (o, outv) in out.iter_mut().enumerate() {
                let w_row = &self.params[s.w_off + o * s.input..s.w_off + (o + 1) * s.input];
                *outv = vector::dot(w_row, current) + self.params[s.b_off + o];
            }
            if li != last {
                for v in &mut out {
                    *v = self.activation.apply(*v);
                }
            }
            acts.push(out);
            current = acts.last().expect("just pushed").as_slice();
        }
    }

    /// Batched forward over a chunk of `rows` examples: per layer one
    /// `X · Wᵀ` GEMM, fused bias add, and the activation map. `acts[li]`
    /// holds layer `li`'s activated output (`rows × width`); the last
    /// entry holds raw logits. Per element this is the same
    /// `dot + bias` (then `σ`) as [`forward_into`](Mlp::forward_into).
    fn forward_chunk(
        &self,
        x: &[f64],
        rows: usize,
        acts: &mut [Matrix],
        scratch: &mut gemm::Scratch,
        tier: DeterminismTier,
    ) {
        let last = self.shapes.len() - 1;
        for li in 0..self.shapes.len() {
            let s = &self.shapes[li];
            let (prev, rest) = acts.split_at_mut(li);
            let cur = &mut rest[0];
            let input: &[f64] = if li == 0 { x } else { prev[li - 1].as_slice() };
            cur.resize_for_overwrite(rows, s.output);
            gemm::gemm_nt_tiered(
                input,
                &self.params[s.w_off..s.w_off + s.output * s.input],
                cur.as_mut_slice(),
                rows,
                s.input,
                s.output,
                scratch,
                tier,
            );
            gemm::add_bias_rows(
                cur.as_mut_slice(),
                s.output,
                &self.params[s.b_off..s.b_off + s.output],
            );
            if li != last {
                for v in cur.as_mut_slice() {
                    *v = self.activation.apply(*v);
                }
            }
        }
    }

    /// The pre-batching per-sample loss loop, retained verbatim as the
    /// naive reference the equivalence tests and the `cell_throughput`
    /// benchmark compare against.
    #[doc(hidden)]
    pub fn loss_per_sample(&self, data: &Dataset) -> f64 {
        assert_eq!(data.dim(), self.sizes[0], "dataset dimension mismatch");
        if data.is_empty() {
            return self.reg_term();
        }
        let mut acts: Vec<Vec<f64>> = Vec::new();
        let mut total = 0.0;
        for i in 0..data.len() {
            let (x, y) = data.example(i);
            self.forward_into(x, &mut acts);
            let logits = acts.last().expect("non-empty network");
            total += vector::log_sum_exp(logits) - logits[y];
        }
        total / data.len() as f64 + self.reg_term()
    }

    /// The pre-batching per-sample gradient loop (see
    /// [`loss_per_sample`](Mlp::loss_per_sample)).
    #[doc(hidden)]
    pub fn grad_per_sample(&self, data: &Dataset, out: &mut [f64]) -> f64 {
        assert_eq!(out.len(), self.params.len(), "gradient buffer mismatch");
        assert_eq!(data.dim(), self.sizes[0], "dataset dimension mismatch");
        out.iter_mut().for_each(|v| *v = 0.0);
        if data.is_empty() {
            vector::axpy(self.reg, &self.params, out);
            return self.reg_term();
        }
        let inv_n = 1.0 / data.len() as f64;
        let mut acts: Vec<Vec<f64>> = Vec::new();
        let mut total = 0.0;
        for i in 0..data.len() {
            let (x, y) = data.example(i);
            self.forward_into(x, &mut acts);
            let logits = acts.last().expect("non-empty network");
            total += vector::log_sum_exp(logits) - logits[y];

            // delta at the output: softmax(logits) - onehot(y).
            let mut delta = vec![0.0; logits.len()];
            vector::softmax_into(logits, &mut delta);
            delta[y] -= 1.0;

            // Backward through layers.
            for li in (0..self.shapes.len()).rev() {
                let s = &self.shapes[li];
                let input: &[f64] = if li == 0 { x } else { &acts[li - 1] };
                // Accumulate weight/bias gradients.
                for (o, &dv) in delta.iter().enumerate() {
                    if dv == 0.0 {
                        continue;
                    }
                    let w_grad = &mut out[s.w_off + o * s.input..s.w_off + (o + 1) * s.input];
                    vector::axpy(dv * inv_n, input, w_grad);
                    out[s.b_off + o] += dv * inv_n;
                }
                if li == 0 {
                    break;
                }
                // Propagate delta to the previous layer (through the
                // activation derivative of that layer's output).
                let mut prev_delta = vec![0.0; s.input];
                for (o, &dv) in delta.iter().enumerate() {
                    if dv == 0.0 {
                        continue;
                    }
                    let w_row = &self.params[s.w_off + o * s.input..s.w_off + (o + 1) * s.input];
                    vector::axpy(dv, w_row, &mut prev_delta);
                }
                let prev_act = &acts[li - 1];
                for (pd, &a) in prev_delta.iter_mut().zip(prev_act) {
                    *pd *= self.activation.derivative_from_output(a);
                }
                delta = prev_delta;
            }
        }
        vector::axpy(self.reg, &self.params, out);
        total * inv_n + self.reg_term()
    }
}

impl Model for Mlp {
    fn params(&self) -> &[f64] {
        &self.params
    }

    fn cache_descriptor(&self) -> String {
        format!(
            "mlp:sizes={:?}:act={:?}:reg={:x}",
            self.sizes,
            self.activation,
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
        assert_eq!(data.dim(), self.sizes[0], "dataset dimension mismatch");
        if data.is_empty() {
            return Ok(self.reg_term());
        }
        let nl = self.shapes.len();
        let d = self.sizes[0];
        let feat = data.features().as_slice();
        let labels = data.labels();
        let tier = ws.tier();
        let (acts, gemm_scratch) = ws.parts(nl);
        let mut total = 0.0;
        for (start, end) in chunks(data.len()) {
            cancel.check()?;
            self.forward_chunk(
                &feat[start * d..end * d],
                end - start,
                acts,
                gemm_scratch,
                tier,
            );
            let logits = &acts[nl - 1];
            total = vector::cross_entropy_rows(
                logits.as_slice(),
                logits.cols(),
                &labels[start..end],
                total,
            );
        }
        Ok(total / data.len() as f64 + self.reg_term())
    }

    fn grad_with(&self, data: &Dataset, out: &mut [f64], ws: &mut Workspace) -> f64 {
        assert_eq!(out.len(), self.params.len(), "gradient buffer mismatch");
        assert_eq!(data.dim(), self.sizes[0], "dataset dimension mismatch");
        out.iter_mut().for_each(|v| *v = 0.0);
        if data.is_empty() {
            vector::axpy(self.reg, &self.params, out);
            return self.reg_term();
        }
        let nl = self.shapes.len();
        let d = self.sizes[0];
        let inv_n = 1.0 / data.len() as f64;
        let feat = data.features().as_slice();
        let labels = data.labels();
        let tier = ws.tier();
        // Buffers: nl activations, then delta / delta_prev / delta_scaled.
        let (bufs, gemm_scratch) = ws.parts(nl + 3);
        let mut total = 0.0;
        for (start, end) in chunks(data.len()) {
            let rows = end - start;
            let x = &feat[start * d..end * d];
            let (acts, rest) = bufs.split_at_mut(nl);
            let (delta_buf, rest) = rest.split_at_mut(1);
            let (prev_buf, ds_buf) = rest.split_at_mut(1);
            let (delta, delta_prev, ds) = (&mut delta_buf[0], &mut prev_buf[0], &mut ds_buf[0]);

            self.forward_chunk(x, rows, acts, gemm_scratch, tier);
            // delta row = softmax(logits) − onehot(y), unscaled.
            total = softmax_delta(&acts[nl - 1], &labels[start..end], delta, total);

            for li in (0..nl).rev() {
                let s = &self.shapes[li];
                let input: &[f64] = if li == 0 { x } else { acts[li - 1].as_slice() };
                // Scaled copy ds = delta · inv_n: the per-sample code
                // multiplied each coefficient by inv_n at use.
                ds.resize_for_overwrite(rows, s.output);
                for (dsv, &dv) in ds.as_mut_slice().iter_mut().zip(delta.as_slice()) {
                    *dsv = dv * inv_n;
                }
                // W += dsᵀ · input, bias += column sums of ds —
                // sample-ascending, bit-identical to the per-sample axpy.
                gemm::gemm_tn_acc_tiered(
                    ds.as_slice(),
                    input,
                    &mut out[s.w_off..s.w_off + s.output * s.input],
                    rows,
                    s.output,
                    s.input,
                    tier,
                );
                gemm::col_sums_acc(
                    ds.as_slice(),
                    s.output,
                    &mut out[s.b_off..s.b_off + s.output],
                );
                if li == 0 {
                    break;
                }
                // delta_prev = (delta · W) ⊙ σ'(act), unscaled delta as
                // in the per-sample path.
                delta_prev.resize_for_overwrite(rows, s.input);
                gemm::gemm_nn_tiered(
                    delta.as_slice(),
                    &self.params[s.w_off..s.w_off + s.output * s.input],
                    delta_prev.as_mut_slice(),
                    rows,
                    s.output,
                    s.input,
                    tier,
                );
                for (pd, &a) in delta_prev
                    .as_mut_slice()
                    .iter_mut()
                    .zip(acts[li - 1].as_slice())
                {
                    *pd *= self.activation.derivative_from_output(a);
                }
                std::mem::swap(delta, delta_prev);
            }
        }
        vector::axpy(self.reg, &self.params, out);
        total * inv_n + self.reg_term()
    }

    fn predict(&self, x: &[f64]) -> usize {
        let mut acts: Vec<Vec<f64>> = Vec::new();
        self.forward_into(x, &mut acts);
        vector::argmax(acts.last().expect("non-empty network"))
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

    fn xor_dataset() -> Dataset {
        let f = Matrix::from_rows(&[&[0.0, 0.0], &[0.0, 1.0], &[1.0, 0.0], &[1.0, 1.0]]).unwrap();
        Dataset::new(f, vec![0, 1, 1, 0], 2).unwrap()
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let m = Mlp::new(&[4, 8, 3], Activation::Relu, 0.0, 1);
        // 4*8 + 8 + 8*3 + 3 = 67.
        assert_eq!(m.num_params(), 67);
        assert_eq!(m.num_classes(), 3);
    }

    #[test]
    fn gradient_matches_finite_differences_tanh() {
        let mut m = Mlp::new(&[3, 5, 4], Activation::Tanh, 0.0, 11);
        let f = Matrix::from_rows(&[&[0.2, -0.4, 0.9], &[1.0, 0.5, -0.2]]).unwrap();
        let d = Dataset::new(f, vec![1, 3], 4).unwrap();
        let coords: Vec<usize> = (0..m.num_params()).step_by(3).collect();
        let err = finite_difference_check(&mut m, &d, &coords, 1e-6);
        assert!(err < 1e-5, "fd mismatch {err}");
    }

    #[test]
    fn gradient_matches_finite_differences_relu() {
        // ReLU is non-smooth at 0; generic (non-zero) parameters and inputs
        // keep every pre-activation away from the kink.
        let mut m = Mlp::new(&[2, 6, 2], Activation::Relu, 0.01, 5);
        crate::init::gaussian_fill(m.params_mut(), 0.7, 21);
        let f = Matrix::from_rows(&[&[0.3, -0.8], &[1.1, 0.4], &[-0.6, 0.9]]).unwrap();
        let d = Dataset::new(f, vec![0, 1, 0], 2).unwrap();
        let coords: Vec<usize> = (0..m.num_params()).collect();
        let err = finite_difference_check(&mut m, &d, &coords, 1e-6);
        assert!(err < 1e-5, "fd mismatch {err}");
    }

    #[test]
    fn training_solves_xor() {
        let d = xor_dataset();
        let mut m = Mlp::new(&[2, 16, 2], Activation::Tanh, 0.0, 3);
        let mut g = vec![0.0; m.num_params()];
        for _ in 0..2000 {
            m.grad(&d, &mut g);
            vector::axpy(-0.5, &g, m.params_mut());
        }
        assert_eq!(m.accuracy(&d), 1.0, "XOR not solved, loss {}", m.loss(&d));
    }

    #[test]
    fn deeper_network_builds_and_learns_something() {
        let d = xor_dataset();
        let mut m = Mlp::new(&[2, 8, 8, 2], Activation::Relu, 0.0, 9);
        let start = m.loss(&d);
        let mut g = vec![0.0; m.num_params()];
        for _ in 0..300 {
            m.grad(&d, &mut g);
            vector::axpy(-0.3, &g, m.params_mut());
        }
        assert!(m.loss(&d) < start);
    }

    #[test]
    fn loss_is_log_c_at_zero_params() {
        let mut m = Mlp::new(&[2, 4, 3], Activation::Relu, 0.0, 1);
        m.params_mut().iter_mut().for_each(|v| *v = 0.0);
        let f = Matrix::from_rows(&[&[1.0, 2.0]]).unwrap();
        let d = Dataset::new(f, vec![2], 3).unwrap();
        assert!((m.loss(&d) - 3.0_f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn batched_paths_match_per_sample_reference_bitwise() {
        // Cross minibatch-chunk boundaries with a ragged tail; two
        // hidden layers so the batched backprop swaps delta buffers.
        let n = crate::workspace::CHUNK_ROWS + 91;
        let f = Matrix::from_fn(n, 5, |r, c| (((r + 1) * (c + 2)) % 13) as f64 / 6.0 - 1.0);
        let labels: Vec<usize> = (0..n).map(|r| (r * 7) % 4).collect();
        let d = Dataset::new(f, labels, 4).unwrap();
        for activation in [Activation::Tanh, Activation::Relu] {
            let m = Mlp::new(&[5, 9, 6, 4], activation, 0.02, 23);
            // Pinned to BitExact: this contract must hold regardless of
            // the FEDVAL_TIER environment the suite runs under.
            let mut ws = crate::workspace::Workspace::bit_exact();
            assert_eq!(
                m.loss_with(&d, &mut ws, &CancelToken::new())
                    .unwrap()
                    .to_bits(),
                m.loss_per_sample(&d).to_bits()
            );
            let mut g_batched = vec![0.0; m.num_params()];
            let mut g_ref = vec![0.0; m.num_params()];
            let lb = m.grad_with(&d, &mut g_batched, &mut ws);
            let lr = m.grad_per_sample(&d, &mut g_ref);
            assert_eq!(lb.to_bits(), lr.to_bits());
            for (a, b) in g_batched.iter().zip(&g_ref) {
                assert_eq!(a.to_bits(), b.to_bits(), "{activation:?}");
            }
        }
    }

    #[test]
    fn fast_tier_matches_reference_within_tolerance() {
        let n = crate::workspace::CHUNK_ROWS + 91;
        let f = Matrix::from_fn(n, 5, |r, c| (((r + 1) * (c + 2)) % 13) as f64 / 6.0 - 1.0);
        let labels: Vec<usize> = (0..n).map(|r| (r * 7) % 4).collect();
        let d = Dataset::new(f, labels, 4).unwrap();
        let tol = |reference: f64| 1e-9 * (1.0 + reference.abs());
        for activation in [Activation::Tanh, Activation::Relu] {
            let m = Mlp::new(&[5, 9, 6, 4], activation, 0.02, 23);
            let mut ws = crate::workspace::Workspace::new().with_tier(DeterminismTier::Fast);
            let lf = m.loss_with(&d, &mut ws, &CancelToken::new()).unwrap();
            let lr = m.loss_per_sample(&d);
            assert!(
                (lf - lr).abs() <= tol(lr),
                "{activation:?}: loss {lf} vs {lr}"
            );
            let mut g_fast = vec![0.0; m.num_params()];
            let mut g_ref = vec![0.0; m.num_params()];
            m.grad_with(&d, &mut g_fast, &mut ws);
            m.grad_per_sample(&d, &mut g_ref);
            for (i, (a, b)) in g_fast.iter().zip(&g_ref).enumerate() {
                assert!(
                    (a - b).abs() <= tol(*b),
                    "{activation:?} param {i}: {a} vs {b}"
                );
            }
        }
    }

    #[test]
    fn models_with_same_params_agree() {
        let d = xor_dataset();
        let m1 = Mlp::new(&[2, 4, 2], Activation::Tanh, 0.0, 8);
        let mut m2 = Mlp::new(&[2, 4, 2], Activation::Tanh, 0.0, 99);
        m2.set_params(m1.params());
        assert_eq!(m1.loss(&d), m2.loss(&d));
    }

    #[test]
    #[should_panic(expected = "at least input and output")]
    fn rejects_single_layer_spec() {
        let _ = Mlp::new(&[4], Activation::Relu, 0.0, 1);
    }
}
