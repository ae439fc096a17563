//! Configured dataset/model pairings matching the paper's evaluation.
//!
//! The paper evaluates four tasks: synthetic data with logistic regression,
//! MNIST with a fully connected network, Fashion-MNIST with a small CNN,
//! and CIFAR10 with a larger CNN. This module packages each pairing (with
//! the simulated image stand-ins described in `DESIGN.md`) behind one
//! builder so that examples, tests, and the per-figure benchmark harnesses
//! construct identical worlds.

use fedval_data::images::SimImageSource;
use fedval_data::{
    add_feature_noise, apply_label_corruption, duplicate_client, partition_dirichlet,
    partition_iid, partition_shards, Dataset, LabelCorruption, SimImageConfig, SyntheticConfig,
    SyntheticFederated,
};
use fedval_fl::{
    train_federated, try_train_federated, ClientBehavior, FlConfig, TrainingTrace, UtilityOracle,
};
use fedval_models::{Activation, Cnn, CnnConfig, LogisticRegression, Mlp, Model};
use fedval_runtime::{CancelToken, Cancelled};

/// Which of the paper's four tasks to build.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DatasetKind {
    /// FedProx-style synthetic data + logistic regression.
    Synthetic {
        /// `α = β = 1` (non-IID) when `true`, else `α = β = 0`.
        non_iid: bool,
    },
    /// Simulated MNIST + fully connected network.
    SimMnist {
        /// Label-shard partitioning (two classes per client) when `true`.
        non_iid: bool,
    },
    /// Simulated Fashion-MNIST + small CNN.
    SimFashion {
        /// Label-shard partitioning when `true`.
        non_iid: bool,
    },
    /// Simulated CIFAR10 + larger CNN.
    SimCifar {
        /// Label-shard partitioning when `true`.
        non_iid: bool,
    },
}

impl DatasetKind {
    /// Short name used in harness output ("synthetic", "mnist", …).
    pub fn name(&self) -> &'static str {
        match self {
            DatasetKind::Synthetic { .. } => "synthetic",
            DatasetKind::SimMnist { .. } => "mnist",
            DatasetKind::SimFashion { .. } => "fmnist",
            DatasetKind::SimCifar { .. } => "cifar10",
        }
    }

    /// The paper's four-dataset suite in its usual order.
    pub fn suite(non_iid: bool) -> [DatasetKind; 4] {
        [
            DatasetKind::Synthetic { non_iid },
            DatasetKind::SimMnist { non_iid },
            DatasetKind::SimFashion { non_iid },
            DatasetKind::SimCifar { non_iid },
        ]
    }
}

/// Builder for a federated [`World`].
#[derive(Debug, Clone)]
pub struct ExperimentBuilder {
    kind: DatasetKind,
    num_clients: usize,
    samples_per_client: usize,
    test_samples: usize,
    seed: u64,
    regularization: f64,
    duplicate_pair: Option<(usize, usize)>,
    /// Per-client feature-noise fractions (index = client id).
    feature_noise: Vec<f64>,
    /// Clients receiving label flips, with the flip fraction.
    label_noise: Vec<(usize, f64)>,
    /// Dirichlet label-skew concentration for the pooled image kinds.
    dirichlet_alpha: Option<f64>,
    /// Per-client protocol behaviors for the robustness scenarios.
    behaviors: Vec<ClientBehavior>,
}

impl ExperimentBuilder {
    /// Starts a builder for the given task.
    pub fn new(kind: DatasetKind) -> Self {
        ExperimentBuilder {
            kind,
            num_clients: 10,
            samples_per_client: 80,
            test_samples: 200,
            seed: 0,
            regularization: 1e-3,
            duplicate_pair: None,
            feature_noise: Vec::new(),
            label_noise: Vec::new(),
            dirichlet_alpha: None,
            behaviors: Vec::new(),
        }
    }

    /// Synthetic-data shorthand.
    pub fn synthetic(non_iid: bool) -> Self {
        Self::new(DatasetKind::Synthetic { non_iid })
    }

    /// Simulated-MNIST shorthand.
    pub fn sim_mnist(non_iid: bool) -> Self {
        Self::new(DatasetKind::SimMnist { non_iid })
    }

    /// Number of clients `N`.
    pub fn num_clients(mut self, n: usize) -> Self {
        self.num_clients = n;
        self
    }

    /// Training examples per client.
    pub fn samples_per_client(mut self, n: usize) -> Self {
        self.samples_per_client = n;
        self
    }

    /// Server-side test examples.
    pub fn test_samples(mut self, n: usize) -> Self {
        self.test_samples = n;
        self
    }

    /// RNG seed for data generation and partitioning.
    pub fn seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// L2 regularization of the model (strong-convexity modulus for
    /// logistic regression).
    pub fn regularization(mut self, reg: f64) -> Self {
        self.regularization = reg;
        self
    }

    /// Gives client `dst` an exact copy of client `src`'s data (the
    /// paper's fairness construction: clients 0 and 9).
    pub fn duplicate(mut self, src: usize, dst: usize) -> Self {
        self.duplicate_pair = Some((src, dst));
        self
    }

    /// Adds Gaussian feature noise to a fraction of each client's data
    /// (`fractions[i]` for client `i`) — the Fig. 6 construction.
    pub fn feature_noise(mut self, fractions: Vec<f64>) -> Self {
        self.feature_noise = fractions;
        self
    }

    /// Flips a fraction of labels for the given clients — the Fig. 7
    /// construction.
    pub fn label_noise(mut self, clients: Vec<(usize, f64)>) -> Self {
        self.label_noise = clients;
        self
    }

    /// Partitions the pooled image datasets with Dirichlet(α) label skew
    /// instead of IID/sharding (Hsu et al.; see
    /// [`DirichletSkew`](fedval_data::DirichletSkew) for named presets).
    /// The synthetic task generates per-client data directly — its
    /// heterogeneity knob is `non_iid` — so the setting is ignored there.
    pub fn dirichlet(mut self, alpha: f64) -> Self {
        self.dirichlet_alpha = Some(alpha);
        self
    }

    /// Assigns per-client protocol behaviors (`behaviors[i]` for client
    /// `i`; missing tail = honest). [`ClientBehavior::NoisyLabels`] is a
    /// *data*-level behavior and is applied here, at world build; the
    /// protocol-level behaviors travel with the world into
    /// [`World::train`] and its [`FlConfig`].
    pub fn behaviors(mut self, behaviors: Vec<ClientBehavior>) -> Self {
        self.behaviors = behaviors;
        self
    }

    /// Materializes the world.
    pub fn build(self) -> World {
        let (mut clients, test) = self.build_datasets();
        if let Some((src, dst)) = self.duplicate_pair {
            duplicate_client(&mut clients, src, dst);
        }
        for (i, &frac) in self.feature_noise.iter().enumerate() {
            if i < clients.len() && frac > 0.0 {
                // The paper adds Gaussian noise with the data's own scale.
                add_feature_noise(&mut clients[i], frac, 1.0, self.seed ^ (0xA5A5 + i as u64));
            }
        }
        // Legacy label_noise keeps its historical seeding (bit-identical
        // pre-existing worlds); behavior-driven corruption uses a distinct
        // seed so stacking both on one client never cancels out.
        let legacy: Vec<LabelCorruption> = self
            .label_noise
            .iter()
            .map(|&(client, fraction)| LabelCorruption { client, fraction })
            .collect();
        apply_label_corruption(&mut clients, &legacy, self.seed);
        let behavioral: Vec<LabelCorruption> = self
            .behaviors
            .iter()
            .enumerate()
            .map(|(client, b)| LabelCorruption {
                client,
                fraction: b.label_noise_fraction(),
            })
            .filter(|spec| spec.fraction > 0.0)
            .collect();
        apply_label_corruption(&mut clients, &behavioral, self.seed ^ 0xBAD);
        let prototype = self.build_model(&test);
        World {
            clients,
            test,
            prototype,
            kind: self.kind,
            behaviors: self.behaviors,
        }
    }

    fn build_datasets(&self) -> (Vec<Dataset>, Dataset) {
        match self.kind {
            DatasetKind::Synthetic { non_iid } => {
                let base = if non_iid {
                    SyntheticConfig::non_iid()
                } else {
                    SyntheticConfig::iid()
                };
                let cfg = SyntheticConfig {
                    num_clients: self.num_clients,
                    samples_per_client: self.samples_per_client,
                    test_samples: self.test_samples,
                    seed: self.seed,
                    ..base
                };
                let fed = SyntheticFederated::generate(&cfg);
                (fed.client_data, fed.test_data)
            }
            DatasetKind::SimMnist { non_iid }
            | DatasetKind::SimFashion { non_iid }
            | DatasetKind::SimCifar { non_iid } => {
                let img_cfg = match self.kind {
                    DatasetKind::SimMnist { .. } => SimImageConfig::mnist(),
                    DatasetKind::SimFashion { .. } => SimImageConfig::fashion_mnist(),
                    _ => SimImageConfig::cifar10(),
                };
                let source = SimImageSource::new(img_cfg);
                let total = self.num_clients * self.samples_per_client;
                let pool = source.sample(total, self.seed);
                let clients = if let Some(alpha) = self.dirichlet_alpha {
                    partition_dirichlet(&pool, self.num_clients, alpha, self.seed ^ 0x1234)
                } else if non_iid {
                    partition_shards(&pool, self.num_clients, self.seed ^ 0x1234)
                } else {
                    partition_iid(&pool, self.num_clients, self.seed ^ 0x1234)
                };
                let test = source.sample(self.test_samples, self.seed ^ 0x9999);
                (clients, test)
            }
        }
    }

    fn build_model(&self, test: &Dataset) -> Box<dyn Model> {
        let dim = test.dim();
        let classes = test.num_classes();
        match self.kind {
            DatasetKind::Synthetic { .. } => Box::new(LogisticRegression::new(
                dim,
                classes,
                self.regularization,
                self.seed ^ 0x40de1,
            )),
            DatasetKind::SimMnist { .. } => Box::new(Mlp::new(
                &[dim, 32, classes],
                Activation::Relu,
                self.regularization,
                self.seed ^ 0x40de1,
            )),
            DatasetKind::SimFashion { .. } => {
                // 64 = 8×8 images, small CNN.
                Box::new(Cnn::new(
                    CnnConfig {
                        height: 8,
                        width: 8,
                        filters: 6,
                        num_classes: classes,
                        reg: self.regularization,
                    },
                    self.seed ^ 0x40de1,
                ))
            }
            DatasetKind::SimCifar { .. } => {
                // 144 = 12×12 images, larger CNN (the paper's VGG role).
                Box::new(Cnn::new(
                    CnnConfig {
                        height: 12,
                        width: 12,
                        filters: 10,
                        num_classes: classes,
                        reg: self.regularization,
                    },
                    self.seed ^ 0x40de1,
                ))
            }
        }
    }
}

/// A materialized federated task: client datasets, the server-held test
/// set, the model prototype, and (for robustness scenarios) the
/// per-client behaviors baked into the world.
pub struct World {
    /// Per-client local datasets.
    pub clients: Vec<Dataset>,
    /// Server-held test set defining the utility function.
    pub test: Dataset,
    /// Model prototype (architecture + initial parameters).
    pub prototype: Box<dyn Model>,
    /// Which task this world is.
    pub kind: DatasetKind,
    /// Per-client protocol behaviors (empty = everyone honest).
    pub behaviors: Vec<ClientBehavior>,
}

impl World {
    /// Number of clients.
    pub fn num_clients(&self) -> usize {
        self.clients.len()
    }

    /// Ground-truth "is this client bad?" labels, one per client, derived
    /// from the behaviors the world was built with (see
    /// [`ClientBehavior::is_bad`]). All `false` for behavior-free worlds.
    pub fn bad_clients(&self) -> Vec<bool> {
        (0..self.num_clients())
            .map(|i| self.behaviors.get(i).copied().unwrap_or_default().is_bad())
            .collect()
    }

    /// Runs FedAvg and records the trace. When the world carries
    /// behaviors and `config` does not set any of its own, the world's
    /// behaviors are applied — so scenario worlds misbehave without the
    /// caller re-plumbing them. Behavior-free worlds pass `config`
    /// through untouched (the exact legacy path).
    pub fn train(&self, config: &FlConfig) -> TrainingTrace {
        if config.behaviors.is_empty() && !self.behaviors.is_empty() {
            let merged = config.clone().with_behaviors(self.behaviors.clone());
            return train_federated(self.prototype.as_ref(), &self.clients, &merged);
        }
        train_federated(self.prototype.as_ref(), &self.clients, config)
    }

    /// [`Self::train`] with cooperative cancellation: `cancel` is
    /// checked at every round boundary, so a service job whose client
    /// disconnects mid-training stops within one round instead of
    /// training to completion first. A fresh token never fires, making
    /// this a drop-in superset of [`Self::train`].
    pub fn try_train(
        &self,
        config: &FlConfig,
        cancel: &CancelToken,
    ) -> Result<TrainingTrace, Cancelled> {
        if config.behaviors.is_empty() && !self.behaviors.is_empty() {
            let merged = config.clone().with_behaviors(self.behaviors.clone());
            return try_train_federated(self.prototype.as_ref(), &self.clients, &merged, cancel);
        }
        try_train_federated(self.prototype.as_ref(), &self.clients, config, cancel)
    }

    /// Builds a utility oracle over a recorded trace.
    pub fn oracle<'a>(&'a self, trace: &'a TrainingTrace) -> UtilityOracle<'a> {
        UtilityOracle::new(trace, self.prototype.as_ref(), &self.test)
    }

    /// Accuracy of a parameter vector on the test set (harness helper).
    pub fn test_accuracy(&self, params: &[f64]) -> f64 {
        let mut m = self.prototype.clone_model();
        m.set_params(params);
        m.accuracy(&self.test)
    }
}

/// One adversarial-client world recipe from the robustness catalog: a
/// dataset layout plus per-client behaviors with ground-truth bad-client
/// labels. Scenarios are what the robustness harness
/// (`fedval_bench`'s `robustness` bin), the detection examples, and the
/// tier-1 ranking tests all build from, so they agree on what
/// "free riders" or "noisy labels" means.
///
/// Sizes are deliberately small (8 clients, synthetic/logistic for the
/// behavioral scenarios) so a full method × scenario sweep stays
/// CI-friendly; `dirichlet_skew` uses the pooled simulated-MNIST task
/// because Dirichlet label skew needs a pooled multi-class dataset.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Catalog name ("free_riders", "noisy_labels", …).
    pub name: &'static str,
    /// Dataset/model pairing the world is built on.
    pub kind: DatasetKind,
    /// Dirichlet concentration, for the skew scenarios.
    pub dirichlet_alpha: Option<f64>,
    /// Number of clients.
    pub num_clients: usize,
    /// Training examples per client.
    pub samples_per_client: usize,
    /// Server-side test examples.
    pub test_samples: usize,
    /// FedAvg rounds.
    pub rounds: usize,
    /// Clients selected per round.
    pub clients_per_round: usize,
    /// FedAvg learning rate.
    pub learning_rate: f64,
    /// Per-client behaviors (`behaviors[i]` for client `i`).
    pub behaviors: Vec<ClientBehavior>,
}

impl Scenario {
    fn base(name: &'static str, behaviors: Vec<ClientBehavior>) -> Self {
        Scenario {
            name,
            kind: DatasetKind::Synthetic { non_iid: true },
            dirichlet_alpha: None,
            num_clients: 8,
            samples_per_client: 40,
            test_samples: 160,
            rounds: 8,
            clients_per_round: 5,
            learning_rate: 0.2,
            behaviors,
        }
    }

    /// Everyone honest, IID synthetic data — the control world.
    pub fn iid_baseline() -> Self {
        let mut s = Self::base("iid_baseline", Vec::new());
        s.kind = DatasetKind::Synthetic { non_iid: false };
        s
    }

    /// Everyone honest, Dirichlet(α) label skew over pooled simulated
    /// MNIST. Low α is *heterogeneity*, not misbehavior: there are no
    /// bad clients here, and the harness reports how skew alone moves
    /// valuations.
    pub fn dirichlet_skew(alpha: f64) -> Self {
        let mut s = Self::base("dirichlet_skew", Vec::new());
        s.kind = DatasetKind::SimMnist { non_iid: false };
        s.dirichlet_alpha = Some(alpha);
        s
    }

    /// Three clients with a large fraction of flipped labels (the
    /// paper's Fig.-7-style corruption, driven through
    /// [`ClientBehavior::NoisyLabels`]). Built on *IID* synthetic data:
    /// with heterogeneous local distributions, label corruption is
    /// confounded with benign skew (even exact Shapley separates poorly),
    /// whereas on IID data a low value cleanly indicts the labels.
    pub fn noisy_labels() -> Self {
        let mut behaviors = vec![ClientBehavior::Honest; 8];
        behaviors[1] = ClientBehavior::NoisyLabels(0.8);
        behaviors[4] = ClientBehavior::NoisyLabels(0.8);
        behaviors[6] = ClientBehavior::NoisyLabels(0.8);
        let mut s = Self::base("noisy_labels", behaviors);
        s.kind = DatasetKind::Synthetic { non_iid: false };
        s
    }

    /// Two clients contribute nothing: they return the broadcast model
    /// unchanged every round.
    pub fn free_riders() -> Self {
        let mut behaviors = vec![ClientBehavior::Honest; 8];
        behaviors[2] = ClientBehavior::FreeRider;
        behaviors[5] = ClientBehavior::FreeRider;
        Self::base("free_riders", behaviors)
    }

    /// Two clients only manage to train in ~25% of their selected
    /// rounds (deterministic per-round coin).
    pub fn stragglers() -> Self {
        let mut behaviors = vec![ClientBehavior::Honest; 8];
        behaviors[2] = ClientBehavior::Straggler(0.25);
        behaviors[5] = ClientBehavior::Straggler(0.25);
        Self::base("stragglers", behaviors)
    }

    /// Two clients are only present for part of training: one leaves
    /// after the first quarter, one joins for the final quarter.
    pub fn churn() -> Self {
        let mut behaviors = vec![ClientBehavior::Honest; 8];
        behaviors[2] = ClientBehavior::Churn {
            join_round: 0,
            leave_round: 2,
        };
        behaviors[5] = ClientBehavior::Churn {
            join_round: 6,
            leave_round: 8,
        };
        Self::base("churn", behaviors)
    }

    /// One of each adversary class in a single world.
    pub fn mixed() -> Self {
        let mut behaviors = vec![ClientBehavior::Honest; 8];
        behaviors[1] = ClientBehavior::FreeRider;
        behaviors[3] = ClientBehavior::NoisyLabels(0.7);
        behaviors[6] = ClientBehavior::Straggler(0.25);
        Self::base("mixed", behaviors)
    }

    /// The full catalog, in harness order.
    pub fn catalog() -> Vec<Scenario> {
        vec![
            Scenario::iid_baseline(),
            Scenario::dirichlet_skew(0.1),
            Scenario::noisy_labels(),
            Scenario::free_riders(),
            Scenario::stragglers(),
            Scenario::churn(),
            Scenario::mixed(),
        ]
    }

    /// Looks a scenario up by its catalog name.
    pub fn by_name(name: &str) -> Option<Scenario> {
        Scenario::catalog().into_iter().find(|s| s.name == name)
    }

    /// Materializes the scenario's world for a seed. The returned world
    /// carries the behaviors, so `world.train(&scenario.fl_config(seed))`
    /// — or any behavior-free config — misbehaves as specified.
    pub fn build(&self, seed: u64) -> World {
        let mut builder = ExperimentBuilder::new(self.kind)
            .num_clients(self.num_clients)
            .samples_per_client(self.samples_per_client)
            .test_samples(self.test_samples)
            .seed(seed)
            .behaviors(self.behaviors.clone());
        if let Some(alpha) = self.dirichlet_alpha {
            builder = builder.dirichlet(alpha);
        }
        builder.build()
    }

    /// The FedAvg configuration the harness trains this scenario with
    /// (behaviors included).
    pub fn fl_config(&self, seed: u64) -> FlConfig {
        FlConfig::new(
            self.rounds,
            self.clients_per_round,
            self.learning_rate,
            seed,
        )
        .with_behaviors(self.behaviors.clone())
    }

    /// Ground-truth bad-client labels, one per client.
    pub fn bad_clients(&self) -> Vec<bool> {
        (0..self.num_clients)
            .map(|i| self.behaviors.get(i).copied().unwrap_or_default().is_bad())
            .collect()
    }

    /// Number of injected bad clients.
    pub fn num_bad(&self) -> usize {
        self.bad_clients().iter().filter(|&&b| b).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_world_builds_with_requested_shape() {
        let w = ExperimentBuilder::synthetic(false)
            .num_clients(5)
            .samples_per_client(30)
            .test_samples(40)
            .seed(3)
            .build();
        assert_eq!(w.num_clients(), 5);
        assert_eq!(w.clients[0].len(), 30);
        assert_eq!(w.test.len(), 40);
        assert_eq!(w.kind.name(), "synthetic");
    }

    #[test]
    fn image_worlds_build_for_all_kinds() {
        for kind in DatasetKind::suite(true).into_iter().skip(1) {
            let w = ExperimentBuilder::new(kind)
                .num_clients(4)
                .samples_per_client(20)
                .test_samples(30)
                .build();
            assert_eq!(w.num_clients(), 4);
            assert!(w.test.dim() > 0);
            assert_eq!(w.prototype.params().len(), w.prototype.num_params());
        }
    }

    #[test]
    fn duplicate_builder_copies_data() {
        let w = ExperimentBuilder::sim_mnist(true)
            .num_clients(5)
            .samples_per_client(20)
            .duplicate(0, 4)
            .build();
        assert_eq!(
            w.clients[0].features().as_slice(),
            w.clients[4].features().as_slice()
        );
    }

    #[test]
    fn feature_noise_applies_per_client() {
        let clean = ExperimentBuilder::synthetic(false)
            .num_clients(3)
            .samples_per_client(20)
            .build();
        let noisy = ExperimentBuilder::synthetic(false)
            .num_clients(3)
            .samples_per_client(20)
            .feature_noise(vec![0.0, 0.0, 1.0])
            .build();
        assert_eq!(
            clean.clients[0].features().as_slice(),
            noisy.clients[0].features().as_slice()
        );
        assert_ne!(
            clean.clients[2].features().as_slice(),
            noisy.clients[2].features().as_slice()
        );
    }

    #[test]
    fn label_noise_applies_to_listed_clients() {
        let clean = ExperimentBuilder::sim_mnist(false)
            .num_clients(3)
            .samples_per_client(30)
            .build();
        let noisy = ExperimentBuilder::sim_mnist(false)
            .num_clients(3)
            .samples_per_client(30)
            .label_noise(vec![(1, 0.5)])
            .build();
        assert_eq!(clean.clients[0].labels(), noisy.clients[0].labels());
        assert_ne!(clean.clients[1].labels(), noisy.clients[1].labels());
    }

    #[test]
    fn train_and_oracle_roundtrip() {
        let w = ExperimentBuilder::synthetic(true)
            .num_clients(4)
            .samples_per_client(25)
            .seed(5)
            .build();
        let trace = w.train(&FlConfig::new(3, 2, 0.2, 5));
        assert_eq!(trace.num_rounds(), 3);
        let oracle = w.oracle(&trace);
        let u = oracle.utility(0, fedval_fl::Subset::full(4));
        assert!(u.is_finite());
        let acc = w.test_accuracy(&trace.final_params);
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    fn behavior_noisy_labels_corrupts_data_at_build() {
        let clean = ExperimentBuilder::synthetic(false)
            .num_clients(3)
            .samples_per_client(30)
            .seed(4)
            .build();
        let noisy = ExperimentBuilder::synthetic(false)
            .num_clients(3)
            .samples_per_client(30)
            .seed(4)
            .behaviors(vec![
                ClientBehavior::Honest,
                ClientBehavior::NoisyLabels(0.6),
                ClientBehavior::FreeRider,
            ])
            .build();
        assert_eq!(clean.clients[0].labels(), noisy.clients[0].labels());
        assert_ne!(clean.clients[1].labels(), noisy.clients[1].labels());
        // FreeRider is protocol-level: its data is untouched.
        assert_eq!(clean.clients[2].labels(), noisy.clients[2].labels());
        assert_eq!(noisy.bad_clients(), vec![false, true, true]);
    }

    #[test]
    fn behavior_and_legacy_label_noise_stack_without_cancelling() {
        // Same client, same fraction through both mechanisms: distinct
        // seeds mean the second pass must not exactly undo the first.
        let once = ExperimentBuilder::synthetic(false)
            .num_clients(2)
            .samples_per_client(40)
            .seed(4)
            .label_noise(vec![(1, 0.5)])
            .build();
        let both = ExperimentBuilder::synthetic(false)
            .num_clients(2)
            .samples_per_client(40)
            .seed(4)
            .label_noise(vec![(1, 0.5)])
            .behaviors(vec![
                ClientBehavior::Honest,
                ClientBehavior::NoisyLabels(0.5),
            ])
            .build();
        let clean = ExperimentBuilder::synthetic(false)
            .num_clients(2)
            .samples_per_client(40)
            .seed(4)
            .build();
        assert_ne!(once.clients[1].labels(), both.clients[1].labels());
        assert_ne!(clean.clients[1].labels(), both.clients[1].labels());
    }

    #[test]
    fn world_train_applies_world_behaviors_by_default() {
        let scenario = Scenario::free_riders();
        let world = scenario.build(3);
        // Behavior-free config: World::train merges the world's behaviors.
        let trace = world.train(&FlConfig::new(4, 8, 0.2, 3));
        let global0 = &trace.rounds[0].global_params;
        assert_eq!(&trace.rounds[0].local_params[2], global0);
        assert_ne!(&trace.rounds[0].local_params[0], global0);
    }

    #[test]
    fn dirichlet_builder_skews_image_partitions() {
        let skewed = ExperimentBuilder::sim_mnist(false)
            .num_clients(6)
            .samples_per_client(40)
            .seed(2)
            .dirichlet(0.05)
            .build();
        let iid = ExperimentBuilder::sim_mnist(false)
            .num_clients(6)
            .samples_per_client(40)
            .seed(2)
            .build();
        let max_class_frac = |w: &World| {
            w.clients
                .iter()
                .map(|c| *c.class_counts().iter().max().unwrap() as f64 / c.len() as f64)
                .fold(0.0_f64, f64::max)
        };
        assert!(max_class_frac(&skewed) > max_class_frac(&iid));
        for c in &skewed.clients {
            assert!(!c.is_empty());
        }
    }

    #[test]
    fn scenario_catalog_names_are_unique_and_buildable() {
        let catalog = Scenario::catalog();
        assert_eq!(catalog.len(), 7);
        let names: std::collections::HashSet<_> = catalog.iter().map(|s| s.name).collect();
        assert_eq!(names.len(), catalog.len());
        for s in &catalog {
            let w = s.build(1);
            assert_eq!(w.num_clients(), s.num_clients);
            assert_eq!(w.bad_clients(), s.bad_clients());
            assert_eq!(s.num_bad(), s.bad_clients().iter().filter(|&&b| b).count());
            for c in &w.clients {
                assert!(!c.is_empty(), "{}: empty client dataset", s.name);
            }
        }
        assert!(Scenario::by_name("free_riders").is_some());
        assert!(Scenario::by_name("nonsense").is_none());
        assert_eq!(Scenario::free_riders().num_bad(), 2);
        assert_eq!(Scenario::iid_baseline().num_bad(), 0);
    }

    #[test]
    fn deterministic_given_seed() {
        let build = || {
            ExperimentBuilder::sim_mnist(true)
                .num_clients(4)
                .samples_per_client(20)
                .seed(11)
                .build()
        };
        let a = build();
        let b = build();
        assert_eq!(
            a.clients[2].features().as_slice(),
            b.clients[2].features().as_slice()
        );
        assert_eq!(a.prototype.params(), b.prototype.params());
    }
}
