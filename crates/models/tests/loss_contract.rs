//! The `Model::loss_with` contract, for every built-in model on a test
//! set that spans several minibatch chunks: a fired token abandons the
//! evaluation with `Err(Cancelled)`, and a token that never fires
//! changes nothing — the result is bit-identical to `Model::loss` at the
//! same tier, even on a workspace a cancelled evaluation used before.

use fedval_data::Dataset;
use fedval_linalg::Matrix;
use fedval_models::workspace::CHUNK_ROWS;
use fedval_models::{
    Activation, Cnn, CnnConfig, DeterminismTier, LogisticRegression, Mlp, Model, Workspace,
};
use fedval_runtime::{CancelToken, Cancelled};

fn dataset(rows: usize, dim: usize, classes: usize) -> Dataset {
    let f = Matrix::from_fn(rows, dim, |r, c| {
        (((r + 1) * (c + 3)) % 11) as f64 / 5.0 - 1.0
    });
    let labels = (0..rows).map(|r| (r * 7) % classes).collect();
    Dataset::new(f, labels, classes).unwrap()
}

#[test]
fn loss_with_cancels_on_a_fired_token_and_is_loss_on_a_live_one() {
    let rows = 2 * CHUNK_ROWS + 17;
    let models: Vec<(Box<dyn Model>, Dataset)> = vec![
        (
            Box::new(LogisticRegression::new(6, 3, 0.01, 1)),
            dataset(rows, 6, 3),
        ),
        (
            Box::new(Mlp::new(&[6, 5, 3], Activation::Tanh, 0.01, 2)),
            dataset(rows, 6, 3),
        ),
        (
            Box::new(Cnn::new(CnnConfig::small(6, 6, 3), 3)),
            dataset(rows, 36, 3),
        ),
    ];
    // Both tiers: the BitExact logistic loss runs a one-pass kernel per
    // chunk, the Fast one the logits GEMM and the epilogue.
    for tier in [DeterminismTier::BitExact, DeterminismTier::Fast] {
        for (model, data) in &models {
            let name = format!("{} at {tier:?}", model.cache_descriptor());
            let mut ws = Workspace::new().with_tier(tier);
            let fired = CancelToken::new();
            fired.cancel();
            assert_eq!(
                model.loss_with(data, &mut ws, &fired),
                Err(Cancelled),
                "{name}: a fired token must abandon the evaluation"
            );
            let live = model
                .loss_with(data, &mut ws, &CancelToken::new())
                .unwrap_or_else(|_| panic!("{name}: a live token was reported cancelled"));
            let fresh = model
                .loss_with(
                    data,
                    &mut Workspace::new().with_tier(tier),
                    &CancelToken::new(),
                )
                .expect("a fresh token is never cancelled");
            assert_eq!(
                live.to_bits(),
                fresh.to_bits(),
                "{name}: a live token changed the loss"
            );
        }
    }
}
