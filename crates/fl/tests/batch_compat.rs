//! Compatibility contracts of the batched numeric kernels (PR 5):
//!
//! 1. **Training trajectories are unchanged.** Full-batch local updates
//!    and seeded minibatch SGD — including the `batch_size = 1`
//!    per-sample regime — produce bit-identical parameter trajectories
//!    to the pre-refactor per-sample loops (retained on each model as
//!    `grad_per_sample`), on the same seeded 6-client world the
//!    valuation suites use.
//! 2. **Cancellation lands inside a cell.** A token cancelled while the
//!    model is mid-way through a batched loss evaluation aborts that
//!    cell between minibatch chunks: the batch reports `Cancelled`, the
//!    half-evaluated cell is neither stored nor counted, and a retry
//!    completes it exactly once with unchanged values.

use fedval_data::Dataset;
use fedval_fl::{train_federated, EvalPlan, FlConfig, Subset, UtilityOracle};
use fedval_linalg::{vector, Matrix};
use fedval_models::{
    optim, Activation, DeterminismTier, LogisticRegression, Mlp, Model, Workspace,
};
use fedval_runtime::{CancelToken, Cancelled};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// The seeded 6-client world shared with the valuation test suites.
fn six_client_world() -> (Vec<Dataset>, Dataset) {
    let clients: Vec<Dataset> = (0..6)
        .map(|i| {
            let f = Matrix::from_fn(12, 3, |r, c| {
                (((r + 1) * (c + 2) + 3 * i) % 7) as f64 / 3.0 - 1.0
            });
            let labels: Vec<usize> = (0..12).map(|r| (r + i) % 2).collect();
            Dataset::new(f, labels, 2).unwrap()
        })
        .collect();
    let test = {
        let f = Matrix::from_fn(16, 3, |r, c| ((r * 3 + c) % 7) as f64 / 3.0 - 1.0);
        let labels: Vec<usize> = (0..16).map(|r| r % 2).collect();
        Dataset::new(f, labels, 2).unwrap()
    };
    (clients, test)
}

/// The pre-refactor local-update loop: per-sample gradients
/// (`grad_per_sample`, evaluated at the evolving parameters), fresh
/// buffers per step, `Dataset::subset` per minibatch — exactly what the
/// trainer ran before the batched kernels.
fn reference_minibatch_updates<M: Model>(
    model: &mut M,
    grad_per_sample: &dyn Fn(&M, &Dataset, &mut [f64]) -> f64,
    data: &Dataset,
    eta: f64,
    steps: usize,
    batch: usize,
    seed: u64,
) {
    let b = batch.min(data.len()).max(1);
    let mut grad = vec![0.0; model.num_params()];
    if b == data.len() {
        for _ in 0..steps {
            grad_per_sample(model, data, &mut grad);
            vector::axpy(-eta, &grad, model.params_mut());
        }
        return;
    }
    let mut rng = StdRng::seed_from_u64(seed);
    for _ in 0..steps {
        let mut picks = sample(&mut rng, data.len(), b).into_vec();
        picks.sort_unstable();
        let minibatch = data.subset(&picks);
        grad_per_sample(model, &minibatch, &mut grad);
        vector::axpy(-eta, &grad, model.params_mut());
    }
}

#[test]
fn minibatch_sgd_bit_identical_to_per_sample_reference() {
    let (clients, _) = six_client_world();
    // batch 1 (the per-sample regime), a mid-size batch, and a clamped
    // over-large batch, for both model families.
    for batch in [1usize, 4, 64] {
        for (ci, data) in clients.iter().enumerate() {
            let seed = 100 + ci as u64;

            // Logistic regression. The per-sample reference loops are
            // inherently bit-exact, so the batched side is pinned to
            // BitExact regardless of the FEDVAL_TIER environment.
            let mut batched = LogisticRegression::new(3, 2, 0.01, 7);
            let mut reference = batched.clone();
            let mut scratch = optim::SgdScratch::new();
            scratch.ws.set_tier(DeterminismTier::BitExact);
            optim::minibatch_updates(&mut batched, data, 0.2, 5, batch, seed, &mut scratch);
            reference_minibatch_updates(
                &mut reference,
                &|m: &LogisticRegression, d, g| m.grad_per_sample(d, g),
                data,
                0.2,
                5,
                batch,
                seed,
            );
            for (a, b) in batched.params().iter().zip(reference.params()) {
                assert_eq!(a.to_bits(), b.to_bits(), "logreg batch={batch} client={ci}");
            }

            // MLP.
            let mut batched = Mlp::new(&[3, 8, 2], Activation::Tanh, 0.01, 7);
            let mut reference = batched.clone();
            optim::minibatch_updates(&mut batched, data, 0.2, 5, batch, seed, &mut scratch);
            reference_minibatch_updates(
                &mut reference,
                &|m: &Mlp, d, g| m.grad_per_sample(d, g),
                data,
                0.2,
                5,
                batch,
                seed,
            );
            for (a, b) in batched.params().iter().zip(reference.params()) {
                assert_eq!(a.to_bits(), b.to_bits(), "mlp batch={batch} client={ci}");
            }
        }
    }
}

#[test]
fn federated_training_trajectories_unchanged_across_batch_sizes() {
    // train_federated through the batched kernels is deterministic and
    // the batch_size knob keeps its semantics: None == full batch,
    // clamped large batch == full batch, small batches differ.
    let (clients, _) = six_client_world();
    let proto = LogisticRegression::new(3, 2, 0.01, 11);
    let full = train_federated(&proto, &clients, &FlConfig::new(4, 3, 0.3, 5));
    let clamped = train_federated(
        &proto,
        &clients,
        &FlConfig::new(4, 3, 0.3, 5).with_batch_size(10_000),
    );
    assert_eq!(full.final_params, clamped.final_params);
    let mb1_a = train_federated(
        &proto,
        &clients,
        &FlConfig::new(4, 3, 0.3, 5).with_batch_size(1),
    );
    let mb1_b = train_federated(
        &proto,
        &clients,
        &FlConfig::new(4, 3, 0.3, 5).with_batch_size(1),
    );
    assert_eq!(mb1_a.final_params, mb1_b.final_params);
    assert_ne!(mb1_a.final_params, full.final_params);
}

#[test]
fn oracle_cells_match_per_sample_loss_reference() {
    // Every utility cell evaluated through the batched kernels equals
    // base_loss − per-sample loss of the aggregate, to the bit. The
    // oracle is pinned to BitExact (the per-sample reference loop is
    // inherently bit-exact), and both sides subtract from the oracle's
    // own base loss.
    let (clients, test) = six_client_world();
    let proto = LogisticRegression::new(3, 2, 0.01, 11);
    let trace = train_federated(&proto, &clients, &FlConfig::new(4, 3, 0.3, 5));
    let oracle = UtilityOracle::new(&trace, &proto, &test).with_tier(DeterminismTier::BitExact);
    let mut plan = EvalPlan::new();
    for t in 0..trace.num_rounds() {
        plan.add_subsets_of(t, Subset::full(6));
    }
    oracle.evaluate_plan(&plan);
    let mut scratch = proto.clone();
    for &(t, s) in plan.cells() {
        let aggregate = trace.aggregate(t, s).unwrap();
        scratch.set_params(&aggregate);
        let expect = oracle.base_loss(t) - scratch.loss_per_sample(&test);
        assert_eq!(
            oracle.utility(t, s).to_bits(),
            expect.to_bits(),
            "({t}, {s:?})"
        );
    }
}

/// Wrapper model that cancels the batch's token at the start of its
/// `trigger`-th loss evaluation — the cancellation then lands *inside*
/// that cell, at the first minibatch-chunk check, which sees it only if
/// the oracle handed the batch's token down to the model. The oracle's
/// base losses pass through here too, so the test resets `calls` after
/// building the oracle: the count is of cell evaluations only.
struct MidCellCancel {
    inner: LogisticRegression,
    calls: Arc<AtomicU64>,
    trigger: u64,
    token: CancelToken,
}

impl Model for MidCellCancel {
    fn params(&self) -> &[f64] {
        self.inner.params()
    }
    fn params_mut(&mut self) -> &mut [f64] {
        self.inner.params_mut()
    }
    fn loss_with(
        &self,
        data: &Dataset,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<f64, Cancelled> {
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.trigger {
            self.token.cancel();
        }
        self.inner.loss_with(data, ws, cancel)
    }
    fn grad_with(&self, data: &Dataset, out: &mut [f64], ws: &mut Workspace) -> f64 {
        self.inner.grad_with(data, out, ws)
    }
    fn predict(&self, x: &[f64]) -> usize {
        self.inner.predict(x)
    }
    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(MidCellCancel {
            inner: self.inner.clone(),
            calls: Arc::clone(&self.calls),
            trigger: self.trigger,
            token: self.token.clone(),
        })
    }
}

#[test]
fn mid_cell_cancellation_discards_the_in_flight_cell_and_retries_cleanly() {
    let (clients, test) = six_client_world();
    let proto = LogisticRegression::new(3, 2, 0.01, 11);
    let trace = train_federated(&proto, &clients, &FlConfig::new(4, 3, 0.3, 5));

    let trigger = 6u64;
    let token = CancelToken::new();
    let wrapper = MidCellCancel {
        inner: proto.clone(),
        calls: Arc::new(AtomicU64::new(0)),
        trigger,
        token: token.clone(),
    };
    let oracle = UtilityOracle::new(&trace, &wrapper, &test).with_parallelism(1);
    oracle.reset_counter();
    wrapper.calls.store(0, Ordering::SeqCst);

    let mut plan = EvalPlan::new();
    for t in 0..trace.num_rounds() {
        plan.add_subsets_of(t, Subset::full(6));
    }
    assert_eq!(oracle.try_evaluate_plan(&plan, &token), Err(Cancelled));
    assert_eq!(
        oracle.loss_evaluations(),
        trigger - 1,
        "the cell whose evaluation was cancelled mid-loss is not counted"
    );

    // Retry: the abandoned cell was left unset, so the remainder —
    // including it — completes exactly once and values match a clean
    // oracle bit-for-bit.
    let fresh = CancelToken::new();
    oracle.try_evaluate_plan(&plan, &fresh).unwrap();
    assert_eq!(oracle.loss_evaluations(), plan.len() as u64);
    let reference = UtilityOracle::new(&trace, &proto, &test).with_parallelism(1);
    for &(t, s) in plan.cells() {
        assert_eq!(
            oracle.utility(t, s).to_bits(),
            reference.utility(t, s).to_bits()
        );
    }
}
