//! Federated-learning simulation configuration.

use crate::behavior::ClientBehavior;
use fedval_models::{DeterminismTier, LearningRate};

/// Configuration of one FedAvg run.
#[derive(Debug, Clone)]
pub struct FlConfig {
    /// Number of training rounds `T`.
    pub rounds: usize,
    /// Number of clients selected per round (`|I_t| = K`); clamped to the
    /// client count. Round 0 always selects everyone (Assumption 1).
    pub clients_per_round: usize,
    /// Local gradient steps per round (the paper's theory uses 1).
    pub local_steps: usize,
    /// Learning-rate schedule `η_t`.
    pub learning_rate: LearningRate,
    /// RNG seed for client selection (and minibatch sampling when
    /// `batch_size` is set).
    pub seed: u64,
    /// When `false`, round 0 samples like every other round instead of
    /// selecting everyone — used to ablate Assumption 1.
    pub everyone_heard_round: bool,
    /// Minibatch size for local steps. `None` (the default) runs the
    /// paper's deterministic full-batch update (equation (3)), which the
    /// theory sections assume; `Some(b)` runs standard FedAvg stochastic
    /// local steps on random size-`b` minibatches.
    ///
    /// Note: minibatch draws are seeded per client, so two clients with
    /// identical data produce (slightly) different local models in this
    /// mode — use full batch for the identical-client fairness
    /// constructions, as the paper's theory does.
    pub batch_size: Option<usize>,
    /// Numeric tier of the local-update kernels. The default is the
    /// process default ([`DeterminismTier::default_tier`], i.e.
    /// `FEDVAL_TIER` or `BitExact`). `Fast` trades the bit-exact
    /// reduction order for FMA-fused GEMM kernels — trajectories remain
    /// deterministic run-to-run at a fixed tier, but differ across tiers
    /// within the documented ε per operation.
    pub tier: DeterminismTier,
    /// Per-client protocol behavior (index = client id); clients beyond
    /// the list's length are [`ClientBehavior::Honest`]. Empty (the
    /// default) is the exact legacy all-honest code path — behaviors
    /// never touch the selection RNG stream, so honest traces are
    /// bit-identical with or without this field. See
    /// [`crate::behavior`].
    pub behaviors: Vec<ClientBehavior>,
}

impl FlConfig {
    /// A configuration matching the paper's small experiments: `T` rounds,
    /// `K` clients per round, one local step, constant rate.
    pub fn new(rounds: usize, clients_per_round: usize, eta: f64, seed: u64) -> Self {
        FlConfig {
            rounds,
            clients_per_round,
            local_steps: 1,
            learning_rate: LearningRate::Constant(eta),
            seed,
            everyone_heard_round: true,
            batch_size: None,
            tier: DeterminismTier::default_tier(),
            behaviors: Vec::new(),
        }
    }

    /// Builder-style override of the learning-rate schedule.
    pub fn with_learning_rate(mut self, lr: LearningRate) -> Self {
        self.learning_rate = lr;
        self
    }

    /// Builder-style override of local step count.
    pub fn with_local_steps(mut self, steps: usize) -> Self {
        assert!(steps >= 1, "need at least one local step");
        self.local_steps = steps;
        self
    }

    /// Builder-style toggle for the Assumption-1 full round.
    pub fn with_everyone_heard(mut self, on: bool) -> Self {
        self.everyone_heard_round = on;
        self
    }

    /// Builder-style override of the minibatch size (stochastic local
    /// updates, as in standard FedAvg).
    pub fn with_batch_size(mut self, batch: usize) -> Self {
        assert!(batch >= 1, "batch size must be positive");
        self.batch_size = Some(batch);
        self
    }

    /// Builder-style override of the numeric tier the local-update
    /// kernels run at (see [`DeterminismTier`]).
    pub fn with_tier(mut self, tier: DeterminismTier) -> Self {
        self.tier = tier;
        self
    }

    /// Builder-style per-client behavior injection (index = client id;
    /// missing entries are honest). See [`crate::behavior`].
    pub fn with_behaviors(mut self, behaviors: Vec<ClientBehavior>) -> Self {
        self.behaviors = behaviors;
        self
    }

    /// A stable fingerprint of every field that shapes a training run,
    /// for keying persisted traces by `(scenario, seed, fl-config)`
    /// *before* training happens. Hashes the `Debug` rendering — floats
    /// print shortest-round-trip, so distinct bit patterns render
    /// distinctly — and any drift in the rendering across versions is a
    /// cache miss (a retrain), never a wrong hit.
    pub fn cache_fingerprint(&self) -> fedval_cache::Fingerprint {
        let mut h = fedval_cache::FingerprintHasher::new("fedval-flconfig-v1");
        h.write_bytes(format!("{self:?}").as_bytes());
        h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn new_sets_paper_defaults() {
        let c = FlConfig::new(10, 3, 0.1, 7);
        assert_eq!(c.rounds, 10);
        assert_eq!(c.clients_per_round, 3);
        assert_eq!(c.local_steps, 1);
        assert!(c.everyone_heard_round);
        assert!(c.batch_size.is_none());
        assert!(c.behaviors.is_empty());
        assert_eq!(c.learning_rate.at(0), 0.1);
    }

    #[test]
    fn builders_override() {
        let c = FlConfig::new(5, 2, 0.1, 1)
            .with_local_steps(4)
            .with_everyone_heard(false)
            .with_learning_rate(LearningRate::proposition2(0.5, 2.0));
        assert_eq!(c.local_steps, 4);
        assert!(!c.everyone_heard_round);
        assert!(c.learning_rate.at(1) < c.learning_rate.at(0));
    }

    #[test]
    #[should_panic(expected = "at least one local step")]
    fn zero_local_steps_rejected() {
        let _ = FlConfig::new(1, 1, 0.1, 1).with_local_steps(0);
    }

    #[test]
    fn batch_size_builder() {
        let c = FlConfig::new(1, 1, 0.1, 1).with_batch_size(16);
        assert_eq!(c.batch_size, Some(16));
    }

    #[test]
    fn tier_defaults_to_process_default_and_overrides() {
        let c = FlConfig::new(1, 1, 0.1, 1);
        assert_eq!(c.tier, DeterminismTier::default_tier());
        let c = c.with_tier(DeterminismTier::Fast);
        assert_eq!(c.tier, DeterminismTier::Fast);
    }

    #[test]
    #[should_panic(expected = "batch size must be positive")]
    fn zero_batch_rejected() {
        let _ = FlConfig::new(1, 1, 0.1, 1).with_batch_size(0);
    }

    #[test]
    fn cache_fingerprint_tracks_training_relevant_fields() {
        // Pin the tier: the process default depends on FEDVAL_TIER.
        let cfg =
            |r, k, eta, seed| FlConfig::new(r, k, eta, seed).with_tier(DeterminismTier::BitExact);
        let base = cfg(5, 2, 0.1, 1);
        assert_eq!(
            base.cache_fingerprint(),
            cfg(5, 2, 0.1, 1).cache_fingerprint(),
            "identical configurations share a world"
        );
        for other in [
            cfg(6, 2, 0.1, 1),
            cfg(5, 3, 0.1, 1),
            cfg(5, 2, 0.2, 1),
            cfg(5, 2, 0.1, 2),
            cfg(5, 2, 0.1, 1).with_tier(DeterminismTier::Fast),
            cfg(5, 2, 0.1, 1).with_behaviors(vec![ClientBehavior::FreeRider]),
            cfg(5, 2, 0.1, 1).with_everyone_heard(false),
        ] {
            assert_ne!(
                base.cache_fingerprint(),
                other.cache_fingerprint(),
                "changed field must change the world key: {other:?}"
            );
        }
    }

    #[test]
    fn behaviors_builder_indexes_per_client() {
        let c = FlConfig::new(1, 1, 0.1, 1)
            .with_behaviors(vec![ClientBehavior::Honest, ClientBehavior::FreeRider]);
        assert_eq!(
            c.behaviors,
            vec![ClientBehavior::Honest, ClientBehavior::FreeRider]
        );
    }
}
