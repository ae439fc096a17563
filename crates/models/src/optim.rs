//! SGD steps, minibatch SGD, and the paper's learning-rate schedules.

use crate::traits::Model;
use crate::workspace::Workspace;
use fedval_data::Dataset;
use fedval_linalg::vector;
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// Learning-rate schedule `η_t` (t is the 0-based round index).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum LearningRate {
    /// Constant rate.
    Constant(f64),
    /// The schedule of Proposition 2: `η_t = 2 / (μ (γ + t))` with
    /// `γ = max(8 L₂ / μ, 1)` — non-increasing, as the theory requires.
    ///
    /// Note the paper's text writes `γ = max(8μ/L₂, 1)`, but the cited
    /// convergence result (Li et al., Theorem 1) and the decay analysis in
    /// Appendix D require `γ = max(8 L₂/μ, 1)`; we implement the latter
    /// (see "Departures from the paper" in the README).
    InverseDecay {
        /// Strong-convexity modulus `μ`.
        mu: f64,
        /// Offset `γ`.
        gamma: f64,
    },
}

impl LearningRate {
    /// Builds the Proposition-2 schedule from `μ` and smoothness `L₂`.
    pub fn proposition2(mu: f64, l2: f64) -> Self {
        assert!(mu > 0.0 && l2 > 0.0);
        LearningRate::InverseDecay {
            mu,
            gamma: (8.0 * l2 / mu).max(1.0),
        }
    }

    /// Rate at round `t` (0-based).
    pub fn at(&self, t: usize) -> f64 {
        match *self {
            LearningRate::Constant(eta) => eta,
            LearningRate::InverseDecay { mu, gamma } => 2.0 / (mu * (gamma + t as f64)),
        }
    }

    /// `true` when the schedule is non-increasing (required by
    /// Proposition 1). Both variants are, by construction.
    pub fn is_non_increasing(&self) -> bool {
        true
    }
}

/// Reusable buffers for the SGD helpers: the gradient vector, the
/// model's minibatch [`Workspace`], and the gathered-minibatch dataset.
/// One per trainer worker; a steady-state training loop allocates
/// nothing per step.
#[derive(Default)]
pub struct SgdScratch {
    grad: Vec<f64>,
    /// The model workspace, exposed so callers driving `loss_with`
    /// directly (benchmarks, evaluators) can share it.
    pub ws: Workspace,
    minibatch: Option<Dataset>,
}

impl SgdScratch {
    /// Empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        SgdScratch::default()
    }
}

/// One full-batch gradient-descent step `w ← w − η ∇F(w)` on `data`.
/// Returns the loss at the *pre-step* parameters. This mirrors the paper's
/// local update (equation (3)): one deterministic step per round.
pub fn sgd_step(model: &mut dyn Model, data: &Dataset, eta: f64) -> f64 {
    sgd_step_with(model, data, eta, &mut SgdScratch::new())
}

/// [`sgd_step`] with reusable buffers: the gradient runs through the
/// model's batched `grad_with` kernel and the scratch's workspace.
pub fn sgd_step_with(
    model: &mut dyn Model,
    data: &Dataset,
    eta: f64,
    scratch: &mut SgdScratch,
) -> f64 {
    let n = model.num_params();
    scratch.grad.resize(n, 0.0);
    let loss = model.grad_with(data, &mut scratch.grad, &mut scratch.ws);
    vector::axpy(-eta, &scratch.grad, model.params_mut());
    loss
}

/// Runs `steps` local gradient steps (the paper's theory uses one; the
/// simulator supports more, matching "an arbitrary number of local
/// updates"). Returns the loss before the first step.
pub fn local_updates(model: &mut dyn Model, data: &Dataset, eta: f64, steps: usize) -> f64 {
    local_updates_with(model, data, eta, steps, &mut SgdScratch::new())
}

/// [`local_updates`] with reusable buffers.
pub fn local_updates_with(
    model: &mut dyn Model,
    data: &Dataset,
    eta: f64,
    steps: usize,
    scratch: &mut SgdScratch,
) -> f64 {
    let mut first_loss = 0.0;
    for s in 0..steps {
        let loss = sgd_step_with(model, data, eta, scratch);
        if s == 0 {
            first_loss = loss;
        }
    }
    first_loss
}

/// True minibatch SGD: each step samples a fresh size-`batch` minibatch
/// without replacement (clamped to the dataset size) and takes one
/// gradient step on it through the batched kernels. Deterministic given
/// the seed — the sampling (seeded [`StdRng`], indices sorted ascending)
/// is exactly the trainer's historical scheme, and a clamped
/// `batch == data.len()` short-circuits to the deterministic full-batch
/// path with no RNG draws, so existing traces reproduce bit-for-bit.
///
/// With `batch == 1` this reproduces the pre-batching per-sample
/// trajectories bit-for-bit (asserted in
/// `crates/fl/tests/batch_compat.rs`).
pub fn minibatch_updates(
    model: &mut dyn Model,
    data: &Dataset,
    eta: f64,
    steps: usize,
    batch: usize,
    seed: u64,
    scratch: &mut SgdScratch,
) {
    let b = batch.min(data.len()).max(1);
    if b == data.len() {
        // Clamped to the full dataset: identical to the deterministic path
        // (and bit-identical — no index reshuffling of the summation).
        local_updates_with(model, data, eta, steps, scratch);
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    let mut minibatch = scratch.minibatch.take().unwrap_or_else(|| data.subset(&[]));
    for _ in 0..steps {
        let mut picks = sample(&mut rng, data.len(), b).into_vec();
        picks.sort_unstable();
        data.subset_into(&picks, &mut minibatch);
        sgd_step_with(model, &minibatch, eta, scratch);
    }
    scratch.minibatch = Some(minibatch);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::linear::LogisticRegression;
    use fedval_linalg::Matrix;

    fn blobs() -> Dataset {
        let f =
            Matrix::from_rows(&[&[2.0, 2.0], &[2.2, 1.8], &[-2.0, -2.0], &[-1.8, -2.2]]).unwrap();
        Dataset::new(f, vec![0, 0, 1, 1], 2).unwrap()
    }

    #[test]
    fn constant_schedule_is_constant() {
        let lr = LearningRate::Constant(0.3);
        assert_eq!(lr.at(0), 0.3);
        assert_eq!(lr.at(100), 0.3);
    }

    #[test]
    fn inverse_decay_matches_formula_and_decreases() {
        let lr = LearningRate::proposition2(0.5, 1.0);
        // gamma = max(8*1/0.5, 1) = 16; eta_0 = 2/(0.5*16) = 0.25.
        assert!((lr.at(0) - 0.25).abs() < 1e-12);
        let mut prev = f64::INFINITY;
        for t in 0..50 {
            let e = lr.at(t);
            assert!(e < prev);
            prev = e;
        }
    }

    #[test]
    fn proposition2_gamma_floor_is_one() {
        // Large mu relative to L2 forces the floor.
        let lr = LearningRate::proposition2(100.0, 1.0);
        match lr {
            LearningRate::InverseDecay { gamma, .. } => assert_eq!(gamma, 1.0),
            _ => unreachable!(),
        }
    }

    #[test]
    fn sgd_step_decreases_loss_on_convex_problem() {
        let d = blobs();
        let mut m = LogisticRegression::new(2, 2, 0.01, 2);
        let before = m.loss(&d);
        let reported = sgd_step(&mut m, &d, 0.1);
        assert!((reported - before).abs() < 1e-12, "returns pre-step loss");
        assert!(m.loss(&d) < before);
    }

    #[test]
    fn local_updates_runs_requested_steps() {
        let d = blobs();
        let mut m1 = LogisticRegression::new(2, 2, 0.01, 2);
        let mut m2 = m1.clone();
        local_updates(&mut m1, &d, 0.1, 3);
        for _ in 0..3 {
            sgd_step(&mut m2, &d, 0.1);
        }
        assert_eq!(m1.params(), m2.params());
    }

    #[test]
    fn zero_steps_is_noop() {
        let d = blobs();
        let mut m = LogisticRegression::new(2, 2, 0.0, 2);
        let before = m.params().to_vec();
        local_updates(&mut m, &d, 0.1, 0);
        assert_eq!(m.params(), &before[..]);
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_buffers() {
        let d = blobs();
        let mut with_scratch = LogisticRegression::new(2, 2, 0.01, 2);
        let mut fresh = with_scratch.clone();
        let mut scratch = SgdScratch::new();
        for _ in 0..4 {
            sgd_step_with(&mut with_scratch, &d, 0.1, &mut scratch);
            sgd_step(&mut fresh, &d, 0.1);
        }
        assert_eq!(with_scratch.params(), fresh.params());
    }

    #[test]
    fn minibatch_updates_is_seeded_and_reuses_buffers() {
        let d = blobs();
        let mut a = LogisticRegression::new(2, 2, 0.01, 3);
        let mut b = a.clone();
        let mut scratch_a = SgdScratch::new();
        let mut scratch_b = SgdScratch::new();
        minibatch_updates(&mut a, &d, 0.1, 5, 2, 42, &mut scratch_a);
        minibatch_updates(&mut b, &d, 0.1, 5, 2, 42, &mut scratch_b);
        assert_eq!(a.params(), b.params(), "same seed, same trajectory");
        // Scratch from a previous run perturbs nothing.
        let mut c = LogisticRegression::new(2, 2, 0.01, 3);
        minibatch_updates(&mut c, &d, 0.1, 5, 2, 42, &mut scratch_a);
        assert_eq!(a.params(), c.params());
    }

    #[test]
    fn minibatch_clamped_to_full_dataset_is_deterministic_path() {
        let d = blobs();
        let mut a = LogisticRegression::new(2, 2, 0.01, 5);
        let mut b = a.clone();
        minibatch_updates(&mut a, &d, 0.2, 3, 100, 7, &mut SgdScratch::new());
        local_updates(&mut b, &d, 0.2, 3);
        assert_eq!(a.params(), b.params());
    }
}
