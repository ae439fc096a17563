//! End-to-end determinism-tier equivalence: the `Fast` tier may reorder
//! floating-point reductions within the documented ε, but a valuation
//! run's *conclusions* — which clients matter most — must not change.
//! Five seeded worlds, FedSV and ComFedSV, `BitExact` vs `Fast`.

use comfedsv::prelude::*;
use fedval_linalg::DeterminismTier;

/// Client indices sorted by descending value — the ranking a valuation
/// consumer would act on. Ties broken by client index so the comparison
/// is deterministic.
fn ranking(values: &[f64]) -> Vec<usize> {
    let mut idx: Vec<usize> = (0..values.len()).collect();
    idx.sort_by(|&a, &b| {
        values[b]
            .partial_cmp(&values[a])
            .expect("valuation produced NaN")
            .then(a.cmp(&b))
    });
    idx
}

#[test]
fn fast_tier_preserves_client_ranking_across_seeded_worlds() {
    for seed in [1u64, 7, 11, 21, 42] {
        let world = ExperimentBuilder::synthetic(true)
            .num_clients(6)
            .samples_per_client(40)
            .test_samples(80)
            .seed(seed)
            .duplicate(0, 5)
            .build();
        let trace = world.train(&FlConfig::new(6, 3, 0.2, seed));
        let oracle = world.oracle(&trace);
        // Fresh-cache oracles pinned to each tier: cached cells from one
        // tier must never leak into the other run.
        let exact_oracle = oracle.isolated().with_tier(DeterminismTier::BitExact);
        let fast_oracle = oracle.isolated().with_tier(DeterminismTier::Fast);

        let fed_exact = FedSv::exact().run(&exact_oracle).unwrap();
        let fed_fast = FedSv::exact().run(&fast_oracle).unwrap();
        assert_eq!(
            ranking(&fed_exact),
            ranking(&fed_fast),
            "seed {seed}: FedSV ranking diverged between tiers\n  bit_exact {fed_exact:?}\n  fast      {fed_fast:?}"
        );

        let com_exact = ComFedSv::exact(5)
            .with_lambda(1e-3)
            .run(&exact_oracle)
            .unwrap();
        let com_fast = ComFedSv::exact(5)
            .with_lambda(1e-3)
            .run(&fast_oracle)
            .unwrap();
        assert_eq!(
            ranking(&com_exact.values),
            ranking(&com_fast.values),
            "seed {seed}: ComFedSV ranking diverged between tiers\n  bit_exact {:?}\n  fast      {:?}",
            com_exact.values,
            com_fast.values
        );

        // The values themselves stay close in absolute terms — the tiers
        // disagree by reduction-reorder noise, not by model quality.
        let scale = fed_exact
            .iter()
            .map(|v| v.abs())
            .fold(f64::MIN_POSITIVE, f64::max);
        for (a, b) in fed_exact.iter().zip(&fed_fast) {
            assert!(
                (a - b).abs() <= 1e-6 * scale.max(1.0),
                "seed {seed}: FedSV value drift {a} vs {b}"
            );
        }
    }
}
