//! The FedAvg training loop with full trace recording.

use crate::behavior::ClientBehavior;
use crate::config::FlConfig;
use crate::subset::Subset;
use fedval_data::Dataset;
use fedval_models::{optim, DeterminismTier, Model};
use fedval_runtime::{CancelToken, Cancelled};
use rand::rngs::StdRng;
use rand::seq::index::sample;
use rand::SeedableRng;

/// Everything recorded about one training round `t`.
#[derive(Debug, Clone)]
pub struct RoundRecord {
    /// Global model `w_t` broadcast at the start of the round.
    pub global_params: Vec<f64>,
    /// Every client's locally updated model `w^{t+1}_i` (the valuation
    /// pipeline needs all of them, not just the selected ones — this is
    /// how the paper computes ground-truth utilities).
    pub local_params: Vec<Vec<f64>>,
    /// The subset `I_t` whose models were aggregated.
    pub selected: Subset,
    /// Learning rate `η_t` used this round.
    pub eta: f64,
}

/// A complete FedAvg run: per-round records plus the final global model.
#[derive(Debug, Clone)]
pub struct TrainingTrace {
    /// One record per round, `t = 0..T`.
    pub rounds: Vec<RoundRecord>,
    /// Final aggregated global parameters `w_T`.
    pub final_params: Vec<f64>,
    /// Number of participating clients `N`.
    pub num_clients: usize,
}

impl TrainingTrace {
    /// Number of rounds `T`.
    pub fn num_rounds(&self) -> usize {
        self.rounds.len()
    }

    /// Convenience accessor for round `t`'s selected subset.
    pub fn selected(&self, t: usize) -> Subset {
        self.rounds[t].selected
    }

    /// FedAvg aggregate of the round-`t` local models over subset `s`
    /// (`w̄_S = mean_{k∈S} w^{t+1}_k`). `None` for the empty subset.
    pub fn aggregate(&self, t: usize, s: Subset) -> Option<Vec<f64>> {
        fedval_linalg::vector::mean_of(self.members_of(t, s))
    }

    /// [`aggregate`](TrainingTrace::aggregate) into a caller-provided
    /// buffer of the parameter count, such as a scratch model's
    /// parameters (the oracle's per-cell allocation-free path); returns
    /// `false` without touching `out` for the empty subset.
    pub fn aggregate_into(&self, t: usize, s: Subset, out: &mut [f64]) -> bool {
        fedval_linalg::vector::mean_into(self.members_of(t, s), out)
    }

    /// The round-`t` local models of `s`'s members, in member order.
    fn members_of(&self, t: usize, s: Subset) -> impl Iterator<Item = &[f64]> + Clone {
        let local = &self.rounds[t].local_params;
        s.iter().map(move |k| local[k].as_slice())
    }
}

/// Runs FedAvg over `clients` starting from `prototype`'s parameters,
/// following the protocol of the paper's Section III, and records the full
/// trace. Client local updates within a round run in parallel.
pub fn train_federated(
    prototype: &dyn Model,
    clients: &[Dataset],
    config: &FlConfig,
) -> TrainingTrace {
    try_train_federated(prototype, clients, config, &CancelToken::new())
        .expect("fresh token is never cancelled")
}

/// [`train_federated`] with cooperative cancellation: `cancel` is
/// observed at round boundaries, and once set the remaining rounds are
/// abandoned with `Err(Cancelled)` — this is what lets a service
/// `DELETE` stop a job during its training stage instead of waiting the
/// whole run out. A run with a never-fired token is bit-identical to
/// [`train_federated`] (same RNG draws, same aggregation order).
pub fn try_train_federated(
    prototype: &dyn Model,
    clients: &[Dataset],
    config: &FlConfig,
    cancel: &CancelToken,
) -> Result<TrainingTrace, Cancelled> {
    let n = clients.len();
    assert!(n > 0, "need at least one client");
    assert!(
        n <= Subset::MAX_CLIENTS,
        "too many clients for subset masks"
    );
    let k = config.clients_per_round.clamp(1, n);

    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut global = prototype.params().to_vec();
    let mut rounds = Vec::with_capacity(config.rounds);

    for t in 0..config.rounds {
        cancel.check()?;
        let eta = config.learning_rate.at(t);

        // Every client computes its local update in parallel. Behavior
        // injection happens here: clients whose behavior skips this
        // round submit the broadcast model unchanged (see
        // `crate::behavior`).
        let local_params = parallel_local_updates(
            prototype,
            clients,
            &global,
            eta,
            config.local_steps,
            config.batch_size,
            config.seed ^ (t as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
            config.tier,
            &config.behaviors,
            config.seed,
            t,
        );

        // Client selection: round 0 selects everyone (Assumption 1).
        let selected = if t == 0 && config.everyone_heard_round {
            Subset::full(n)
        } else {
            let picks = sample(&mut rng, n, k);
            Subset::from_indices(&picks.into_vec())
        };

        // Aggregate the selected local models into the next global model.
        let next_global = {
            let vectors = selected.iter().map(|i| local_params[i].as_slice());
            fedval_linalg::vector::mean_of(vectors).expect("selected set is non-empty")
        };

        rounds.push(RoundRecord {
            global_params: std::mem::replace(&mut global, next_global),
            local_params,
            selected,
            eta,
        });
    }

    Ok(TrainingTrace {
        rounds,
        final_params: global,
        num_clients: n,
    })
}

/// Computes `w^{t+1}_i` for every client, chunked across the persistent
/// `fedval_runtime` pool with one scratch model per chunk. Each client's
/// update depends only on its own data and the (fixed) global model, so
/// results are bit-identical for any pool size (at any fixed `tier` —
/// the tier is pinned on every worker's workspace, so concurrent runs at
/// different tiers share the global pool safely).
///
/// `behaviors` (indexed by client, honest beyond its length) decides per
/// client whether round `round` trains at all: non-training clients
/// (free riders, skipped stragglers, churned-out clients) submit
/// `global` unchanged. The decision is a pure function of
/// `(behavior_seed, client, round)`, so behavior injection is
/// deterministic for any pool width — and with no behaviors configured
/// this is the exact legacy code path.
#[allow(clippy::too_many_arguments)]
fn parallel_local_updates(
    prototype: &dyn Model,
    clients: &[Dataset],
    global: &[f64],
    eta: f64,
    local_steps: usize,
    batch_size: Option<usize>,
    round_seed: u64,
    tier: DeterminismTier,
    behaviors: &[ClientBehavior],
    behavior_seed: u64,
    round: usize,
) -> Vec<Vec<f64>> {
    let n = clients.len();
    let pool = fedval_runtime::Pool::global();
    let workers = pool.threads().min(n).max(1);
    let chunk = n.div_ceil(workers);
    let mut out: Vec<Vec<f64>> = vec![Vec::new(); n];

    pool.scope(|scope| {
        for (chunk_idx, out_chunk) in out.chunks_mut(chunk).enumerate() {
            let start = chunk_idx * chunk;
            scope.spawn(move || {
                // One scratch model + one set of minibatch buffers per
                // worker chunk, reused across every client it handles.
                let mut model = prototype.clone_model();
                let mut scratch = optim::SgdScratch::new();
                scratch.ws.set_tier(tier);
                for (offset, slot) in out_chunk.iter_mut().enumerate() {
                    let i = start + offset;
                    let behavior = behaviors.get(i).copied().unwrap_or_default();
                    if !behavior.trains(behavior_seed, i, round) {
                        // Zero update: the client submits the broadcast
                        // model unchanged (free rider / skipped round).
                        *slot = global.to_vec();
                        continue;
                    }
                    model.set_params(global);
                    match batch_size {
                        None => {
                            optim::local_updates_with(
                                model.as_mut(),
                                &clients[i],
                                eta,
                                local_steps,
                                &mut scratch,
                            );
                        }
                        Some(batch) => {
                            optim::minibatch_updates(
                                model.as_mut(),
                                &clients[i],
                                eta,
                                local_steps,
                                batch,
                                round_seed ^ (i as u64).wrapping_mul(0xD134_2543_DE82_EF95),
                                &mut scratch,
                            );
                        }
                    }
                    *slot = model.params().to_vec();
                }
            });
        }
    });

    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use fedval_linalg::Matrix;
    use fedval_models::LogisticRegression;

    fn clients(n: usize) -> Vec<Dataset> {
        (0..n)
            .map(|i| {
                let f = Matrix::from_fn(8, 2, |r, c| {
                    ((r * 2 + c + i) % 5) as f64 - 2.0 + i as f64 * 0.1
                });
                let labels: Vec<usize> = (0..8).map(|r| (r + i) % 2).collect();
                Dataset::new(f, labels, 2).unwrap()
            })
            .collect()
    }

    fn proto() -> LogisticRegression {
        LogisticRegression::new(2, 2, 0.01, 42)
    }

    #[test]
    fn try_train_with_fresh_token_matches_uncancellable_path() {
        let cl = clients(4);
        let config = FlConfig::new(3, 2, 0.1, 9);
        let a = train_federated(&proto(), &cl, &config);
        let b = try_train_federated(&proto(), &cl, &config, &CancelToken::new()).unwrap();
        assert_eq!(a.final_params, b.final_params);
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(ra.global_params, rb.global_params);
            assert_eq!(ra.selected, rb.selected);
        }
    }

    #[test]
    fn try_train_observes_cancellation_between_rounds() {
        let cl = clients(4);
        let token = CancelToken::new();
        token.cancel();
        // Pre-fired token: not a single round runs.
        assert!(try_train_federated(&proto(), &cl, &FlConfig::new(50, 2, 0.1, 9), &token).is_err());
    }

    #[test]
    fn trace_has_expected_shape() {
        let cl = clients(5);
        let trace = train_federated(&proto(), &cl, &FlConfig::new(4, 2, 0.1, 1));
        assert_eq!(trace.num_rounds(), 4);
        assert_eq!(trace.num_clients, 5);
        for r in &trace.rounds {
            assert_eq!(r.local_params.len(), 5);
            assert_eq!(r.global_params.len(), proto().num_params());
        }
        assert_eq!(trace.final_params.len(), proto().num_params());
    }

    #[test]
    fn round_zero_selects_everyone() {
        let cl = clients(6);
        let trace = train_federated(&proto(), &cl, &FlConfig::new(3, 2, 0.1, 1));
        assert_eq!(trace.selected(0), Subset::full(6));
        for t in 1..3 {
            assert_eq!(trace.selected(t).len(), 2);
        }
    }

    #[test]
    fn everyone_heard_can_be_disabled() {
        let cl = clients(6);
        let cfg = FlConfig::new(3, 2, 0.1, 1).with_everyone_heard(false);
        let trace = train_federated(&proto(), &cl, &cfg);
        assert_eq!(trace.selected(0).len(), 2);
    }

    #[test]
    fn local_update_is_one_gradient_step() {
        // With a single client and full selection, the trace must match a
        // hand-rolled gradient descent.
        let cl = clients(1);
        let cfg = FlConfig::new(2, 1, 0.2, 3);
        let trace = train_federated(&proto(), &cl, &cfg);

        let mut manual = proto();
        let mut g = vec![0.0; manual.num_params()];
        for t in 0..2 {
            assert_eq!(trace.rounds[t].global_params, manual.params());
            manual.grad(&cl[0], &mut g);
            fedval_linalg::vector::axpy(-0.2, &g, manual.params_mut());
            assert_eq!(trace.rounds[t].local_params[0], manual.params());
        }
        assert_eq!(trace.final_params, manual.params());
    }

    #[test]
    fn aggregation_is_mean_of_selected() {
        let cl = clients(4);
        let trace = train_federated(&proto(), &cl, &FlConfig::new(2, 2, 0.1, 5));
        let sel = trace.selected(1);
        let agg = trace.aggregate(1, sel).unwrap();
        // Round 2's global (= final here) must equal the round-1 aggregate.
        assert_eq!(trace.final_params, agg);
    }

    #[test]
    fn aggregate_of_empty_subset_is_none() {
        let cl = clients(3);
        let trace = train_federated(&proto(), &cl, &FlConfig::new(1, 1, 0.1, 1));
        assert!(trace.aggregate(0, Subset::EMPTY).is_none());
    }

    #[test]
    fn identical_clients_produce_identical_local_models() {
        // The premise of the paper's fairness analysis: same data + same
        // broadcast model ⇒ same local model.
        let mut cl = clients(4);
        cl[3] = cl[0].clone();
        let trace = train_federated(&proto(), &cl, &FlConfig::new(3, 2, 0.1, 2));
        for r in &trace.rounds {
            assert_eq!(r.local_params[0], r.local_params[3]);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let cl = clients(5);
        let a = train_federated(&proto(), &cl, &FlConfig::new(3, 2, 0.1, 9));
        let b = train_federated(&proto(), &cl, &FlConfig::new(3, 2, 0.1, 9));
        assert_eq!(a.final_params, b.final_params);
        for (ra, rb) in a.rounds.iter().zip(&b.rounds) {
            assert_eq!(ra.selected, rb.selected);
        }
    }

    #[test]
    fn different_selection_seeds_differ() {
        let cl = clients(8);
        let a = train_federated(&proto(), &cl, &FlConfig::new(5, 2, 0.1, 1));
        let b = train_federated(&proto(), &cl, &FlConfig::new(5, 2, 0.1, 2));
        let same = a
            .rounds
            .iter()
            .zip(&b.rounds)
            .all(|(x, y)| x.selected == y.selected);
        assert!(!same, "selection should depend on the seed");
    }

    #[test]
    fn selection_is_approximately_uniform() {
        // Over many rounds, each client should be selected about T·K/N
        // times (uniform sampling without replacement).
        let cl = clients(6);
        let rounds = 600;
        let cfg = FlConfig::new(rounds, 2, 0.0, 17).with_everyone_heard(false);
        let trace = train_federated(&proto(), &cl, &cfg);
        let mut counts = [0usize; 6];
        for t in 0..rounds {
            for i in trace.selected(t).members() {
                counts[i] += 1;
            }
        }
        let expected = rounds as f64 * 2.0 / 6.0;
        for (i, &c) in counts.iter().enumerate() {
            let dev = (c as f64 - expected).abs() / expected;
            assert!(
                dev < 0.2,
                "client {i} selected {c} times (expected ~{expected})"
            );
        }
    }

    #[test]
    fn minibatch_training_is_deterministic_and_differs_from_full_batch() {
        let cl = clients(4);
        let cfg = FlConfig::new(3, 2, 0.1, 5).with_batch_size(4);
        let a = train_federated(&proto(), &cl, &cfg);
        let b = train_federated(&proto(), &cl, &cfg);
        assert_eq!(
            a.final_params, b.final_params,
            "seeded minibatches are reproducible"
        );
        let full = train_federated(&proto(), &cl, &FlConfig::new(3, 2, 0.1, 5));
        assert_ne!(
            a.final_params, full.final_params,
            "stochastic and deterministic updates should differ"
        );
    }

    #[test]
    fn minibatch_larger_than_dataset_clamps() {
        let cl = clients(2);
        let cfg = FlConfig::new(2, 2, 0.1, 3).with_batch_size(10_000);
        let trace = train_federated(&proto(), &cl, &cfg);
        // Clamped batch = full dataset: must equal the full-batch run.
        let full = train_federated(&proto(), &cl, &FlConfig::new(2, 2, 0.1, 3));
        assert_eq!(trace.final_params, full.final_params);
    }

    #[test]
    fn fast_tier_training_is_deterministic_and_close_to_bit_exact() {
        let cl = clients(4);
        let fast_cfg = FlConfig::new(3, 2, 0.1, 5).with_tier(DeterminismTier::Fast);
        let a = train_federated(&proto(), &cl, &fast_cfg);
        let b = train_federated(&proto(), &cl, &fast_cfg);
        assert_eq!(
            a.final_params, b.final_params,
            "fast tier is deterministic run-to-run"
        );
        let exact_cfg = FlConfig::new(3, 2, 0.1, 5).with_tier(DeterminismTier::BitExact);
        let exact = train_federated(&proto(), &cl, &exact_cfg);
        for (x, y) in a.final_params.iter().zip(&exact.final_params) {
            // Composite model-level bound; the per-op GEMM ε is far
            // tighter (see fedval_linalg::gemm::fast_epsilon).
            assert!((x - y).abs() <= 1e-9 * (1.0 + y.abs()), "{x} vs {y}");
        }
    }

    #[test]
    fn empty_behaviors_are_bit_identical_to_explicit_all_honest() {
        let cl = clients(5);
        let legacy = train_federated(&proto(), &cl, &FlConfig::new(4, 2, 0.1, 9));
        let cfg =
            FlConfig::new(4, 2, 0.1, 9).with_behaviors(vec![ClientBehavior::Honest; cl.len()]);
        let honest = train_federated(&proto(), &cl, &cfg);
        assert_eq!(legacy.final_params, honest.final_params);
        for (a, b) in legacy.rounds.iter().zip(&honest.rounds) {
            assert_eq!(a.local_params, b.local_params);
            assert_eq!(a.selected, b.selected);
        }
    }

    #[test]
    fn free_rider_submits_the_broadcast_model_unchanged() {
        let cl = clients(4);
        let mut behaviors = vec![ClientBehavior::Honest; 4];
        behaviors[2] = ClientBehavior::FreeRider;
        let cfg = FlConfig::new(3, 2, 0.1, 7).with_behaviors(behaviors);
        let trace = train_federated(&proto(), &cl, &cfg);
        for r in &trace.rounds {
            assert_eq!(
                r.local_params[2], r.global_params,
                "free rider = zero update"
            );
            // Honest clients actually moved.
            assert_ne!(r.local_params[0], r.global_params);
        }
        // And the honest clients' updates are bit-identical to the
        // all-honest run: behavior injection never perturbs other
        // clients or the selection stream.
        let legacy = train_federated(&proto(), &cl, &FlConfig::new(3, 2, 0.1, 7));
        assert_eq!(
            trace.rounds[0].local_params[0],
            legacy.rounds[0].local_params[0]
        );
        assert_eq!(trace.rounds[0].selected, legacy.rounds[0].selected);
    }

    #[test]
    fn straggler_skips_rounds_deterministically() {
        let cl = clients(4);
        let mut behaviors = vec![ClientBehavior::Honest; 4];
        behaviors[1] = ClientBehavior::Straggler(0.5);
        let cfg = FlConfig::new(12, 2, 0.1, 3).with_behaviors(behaviors);
        let a = train_federated(&proto(), &cl, &cfg);
        let b = train_federated(&proto(), &cl, &cfg);
        assert_eq!(a.final_params, b.final_params, "seeded coins reproduce");
        let skipped = a
            .rounds
            .iter()
            .filter(|r| r.local_params[1] == r.global_params)
            .count();
        assert!(
            (1..12).contains(&skipped),
            "Straggler(0.5) should skip some but not all of 12 rounds (skipped {skipped})"
        );
    }

    #[test]
    fn churned_client_is_inactive_outside_its_window() {
        let cl = clients(3);
        let mut behaviors = vec![ClientBehavior::Honest; 3];
        behaviors[0] = ClientBehavior::Churn {
            join_round: 1,
            leave_round: 3,
        };
        let cfg = FlConfig::new(4, 3, 0.1, 5).with_behaviors(behaviors);
        let trace = train_federated(&proto(), &cl, &cfg);
        let active: Vec<bool> = trace
            .rounds
            .iter()
            .map(|r| r.local_params[0] != r.global_params)
            .collect();
        assert_eq!(active, [false, true, true, false]);
    }

    #[test]
    fn training_reduces_global_loss() {
        let cl = clients(3);
        let all = Dataset::concat(&cl.iter().collect::<Vec<_>>()).unwrap();
        let model = proto();
        let before = model.loss(&all);
        let trace = train_federated(&model, &cl, &FlConfig::new(30, 3, 0.3, 1));
        let mut after_model = proto();
        after_model.set_params(&trace.final_params);
        assert!(after_model.loss(&all) < before);
    }
}
