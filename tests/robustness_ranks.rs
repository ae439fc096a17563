//! Tier-1 robustness contract: valuation must expose free riders.
//!
//! A free rider returns the broadcast model unchanged every round, so its
//! marginal contribution to any coalition is (approximately) zero; a
//! Shapley-style valuation that cannot put such clients *strictly below
//! every honest client* is not fit for the paper's reward-allocation use
//! case. This test pins that guarantee for FedSV and ComFedSV on the
//! robustness catalog's `free_riders` scenario, at both determinism
//! tiers and across seeds — so neither kernel work nor valuation
//! refactors can silently trade it away.

use comfedsv::prelude::*;
use fedval_linalg::DeterminismTier;

/// Asserts every bad client's value is strictly below every honest
/// client's value.
fn assert_bad_strictly_below_honest(label: &str, values: &[f64], bad: &[bool]) {
    let worst_honest = values
        .iter()
        .zip(bad)
        .filter(|&(_, &b)| !b)
        .map(|(v, _)| *v)
        .fold(f64::INFINITY, f64::min);
    for (i, (&v, &b)) in values.iter().zip(bad).enumerate() {
        if b {
            assert!(
                v < worst_honest,
                "{label}: free rider {i} (value {v}) not strictly below the \
                 worst honest client ({worst_honest}); values {values:?}"
            );
        }
    }
}

#[test]
fn fedsv_and_comfedsv_rank_free_riders_below_honest_clients_at_both_tiers() {
    let scenario = Scenario::free_riders();
    let bad = scenario.bad_clients();
    assert_eq!(scenario.num_bad(), 2, "catalog scenario changed shape");

    for seed in [3u64, 17, 29] {
        let world = scenario.build(seed);
        let trace = world.train(&scenario.fl_config(seed));
        let oracle = world.oracle(&trace);

        for tier in [DeterminismTier::BitExact, DeterminismTier::Fast] {
            // Fresh-cache oracle pinned to the tier: no cross-tier leaks.
            let tiered = oracle.isolated().with_tier(tier);

            let fed = FedSv::exact().run(&tiered).unwrap();
            assert_bad_strictly_below_honest(
                &format!("seed {seed} / {tier:?} / FedSV"),
                &fed,
                &bad,
            );

            let com = ComFedSv::exact(4)
                .with_lambda(1e-3)
                .with_seed(seed)
                .run(&tiered)
                .unwrap();
            assert_bad_strictly_below_honest(
                &format!("seed {seed} / {tier:?} / ComFedSV"),
                &com.values,
                &bad,
            );
        }
    }
}

#[test]
fn world_behaviors_flow_through_training_without_config_plumbing() {
    // The scenario's world carries its behaviors: training with a plain
    // behavior-free FlConfig must still produce free riders (their local
    // params equal the broadcast global every round).
    let scenario = Scenario::free_riders();
    let world = scenario.build(17);
    let trace = world.train(&FlConfig::new(4, 8, 0.2, 17));
    for round in &trace.rounds {
        assert_eq!(round.local_params[2], round.global_params);
        assert_eq!(round.local_params[5], round.global_params);
        assert_ne!(round.local_params[0], round.global_params);
    }
}
