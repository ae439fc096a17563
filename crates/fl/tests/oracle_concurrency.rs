//! Concurrency guarantees of the batch utility-evaluation engine:
//!
//! 1. **Exactly-once**: no matter how many threads race on overlapping
//!    plans and single-cell queries, each distinct `(round, subset)` cell
//!    is evaluated exactly once (`loss_evaluations()` equals the number
//!    of distinct cells).
//! 2. **Determinism**: values produced under contention — and across
//!    worker pools of any size — are bit-identical to a single-threaded
//!    run with the same seed.
//! 3. **Cancellation**: a cancelled batch stops at a cell boundary,
//!    reports [`Cancelled`], and leaves already-evaluated cells valid.
//!
//! (The `std::thread::scope` uses below are the *test harness* hammering
//! the oracle from many threads; the oracle itself routes all batch
//! parallelism through `fedval_runtime::Pool`.)

use fedval_cache::{CellCache, DEFAULT_MEM_BUDGET_BYTES};
use fedval_data::Dataset;
use fedval_fl::{train_federated, EvalPlan, FlConfig, Subset, UtilityOracle};
use fedval_linalg::Matrix;
use fedval_models::{LogisticRegression, Model, Workspace};
use fedval_runtime::{CancelToken, Cancelled, Pool, PoolHandle};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Test double: a model that cancels a [`CancelToken`] from inside its
/// own loss evaluation after a fixed number of evaluations (counted
/// across all clones). It fires the token *after* its own evaluation
/// has finished, pinning the cancellation to an exact cell boundary.
struct CancellingModel {
    inner: LogisticRegression,
    calls: Arc<AtomicU64>,
    trigger: u64,
    token: CancelToken,
}

impl Model for CancellingModel {
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
        let loss = self.inner.loss_with(data, ws, cancel);
        if self.calls.fetch_add(1, Ordering::SeqCst) + 1 == self.trigger {
            self.token.cancel();
        }
        loss
    }

    fn grad_with(&self, data: &Dataset, out: &mut [f64], ws: &mut Workspace) -> f64 {
        self.inner.grad_with(data, out, ws)
    }

    fn predict(&self, x: &[f64]) -> usize {
        self.inner.predict(x)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(CancellingModel {
            inner: self.inner.clone(),
            calls: Arc::clone(&self.calls),
            trigger: self.trigger,
            token: self.token.clone(),
        })
    }
}

fn world(
    n: usize,
    rounds: usize,
    k: usize,
) -> (fedval_fl::TrainingTrace, LogisticRegression, Dataset) {
    let clients: Vec<Dataset> = (0..n)
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
    let proto = LogisticRegression::new(3, 2, 0.01, 11);
    let trace = train_federated(&proto, &clients, &FlConfig::new(rounds, k, 0.3, 5));
    (trace, proto, test)
}

/// The full grid of distinct cells for an `n`-client, `rounds`-round run.
fn full_plan(n: usize, rounds: usize) -> EvalPlan {
    let mut plan = EvalPlan::new();
    for t in 0..rounds {
        plan.add_subsets_of(t, Subset::full(n));
    }
    plan
}

#[test]
fn hammered_oracle_evaluates_each_cell_exactly_once() {
    let (trace, proto, test) = world(6, 4, 3);
    let n = 6;
    let rounds = 4;
    let plan = full_plan(n, rounds);
    let distinct = plan.len() as u64; // (2^6 − 1) · 4 non-empty cells

    let oracle = UtilityOracle::new(&trace, &proto, &test);
    oracle.reset_counter();

    // 8 hammer threads: half replay the full overlapping plan through the
    // batch engine, half walk the same cells through the single-cell API.
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let oracle = &oracle;
            let plan = &plan;
            scope.spawn(move || {
                if worker % 2 == 0 {
                    oracle.evaluate_plan(plan);
                } else {
                    // Walk in a worker-dependent order to maximize races.
                    let mut cells: Vec<_> = plan.cells().to_vec();
                    if worker % 4 == 1 {
                        cells.reverse();
                    }
                    for (t, s) in cells {
                        let v = oracle.utility(t, s);
                        assert!(v.is_finite());
                    }
                }
            });
        }
    });

    assert_eq!(
        oracle.loss_evaluations(),
        distinct,
        "every distinct cell must be evaluated exactly once under contention"
    );
}

#[test]
fn hammered_values_are_bit_identical_to_single_threaded() {
    let (trace, proto, test) = world(5, 4, 3);
    let plan = full_plan(5, 4);

    // Reference: strictly single-threaded evaluation.
    let serial = UtilityOracle::new(&trace, &proto, &test).with_parallelism(1);
    serial.evaluate_plan(&plan);

    // Contended: many batch workers plus racing readers.
    let parallel = UtilityOracle::new(&trace, &proto, &test).with_parallelism(8);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let parallel = &parallel;
            let plan = &plan;
            scope.spawn(move || parallel.evaluate_plan(plan));
        }
    });

    for &(t, s) in plan.cells() {
        assert_eq!(
            serial.utility(t, s).to_bits(),
            parallel.utility(t, s).to_bits(),
            "cell ({t}, {s:?}) must be bit-identical under contention"
        );
    }
}

#[test]
fn concurrent_column_prefetches_share_the_table() {
    let (trace, proto, test) = world(6, 5, 3);
    let oracle = UtilityOracle::new(&trace, &proto, &test);
    oracle.reset_counter();

    // Many threads prefetch overlapping columns (the TMC access pattern).
    let subsets: Vec<Subset> = (1u64..32).map(Subset::from_bits).collect();
    std::thread::scope(|scope| {
        for chunk in subsets.chunks(8) {
            let oracle = &oracle;
            scope.spawn(move || {
                for &s in chunk {
                    let mut column = EvalPlan::new();
                    column.add_column(oracle.num_rounds(), s);
                    let a: f64 = oracle.evaluate_plan(&column).iter().sum();
                    let b = oracle.total_utility(s);
                    assert_eq!(a.to_bits(), b.to_bits());
                }
            });
        }
    });

    // 31 subsets × 5 rounds distinct cells, each exactly once.
    assert_eq!(oracle.loss_evaluations(), 31 * 5);
}

#[test]
fn valuations_bit_identical_across_pool_sizes_and_serial_path() {
    let (trace, proto, test) = world(6, 4, 3);
    let plan = full_plan(6, 4);
    let distinct = plan.len() as u64;

    // Pre-refactor serial reference: `with_parallelism(1)` takes the
    // inline scratch-model loop — the code path that predates the pool.
    let serial = UtilityOracle::new(&trace, &proto, &test).with_parallelism(1);
    serial.reset_counter();
    serial.evaluate_plan(&plan);
    assert_eq!(serial.loss_evaluations(), distinct);

    for pool_size in [1usize, 2, 4] {
        let oracle = UtilityOracle::new(&trace, &proto, &test)
            .with_pool(PoolHandle::owned(Pool::new(pool_size)));
        assert_eq!(oracle.parallelism(), pool_size);
        oracle.reset_counter();
        oracle.evaluate_plan(&plan);
        assert_eq!(
            oracle.loss_evaluations(),
            distinct,
            "pool size {pool_size}: each distinct cell exactly once"
        );
        for &(t, s) in plan.cells() {
            assert_eq!(
                serial.utility(t, s).to_bits(),
                oracle.utility(t, s).to_bits(),
                "cell ({t}, {s:?}) diverged from the serial path at pool size {pool_size}"
            );
        }
    }
}

#[test]
fn cancelled_batch_reports_cancelled_and_keeps_partial_results() {
    let (trace, proto, test) = world(6, 4, 3);
    let plan = full_plan(6, 4);

    // Pre-cancelled: nothing is evaluated at all.
    let oracle = UtilityOracle::new(&trace, &proto, &test);
    oracle.reset_counter();
    let token = CancelToken::new();
    token.cancel();
    assert_eq!(oracle.try_evaluate_plan(&plan, &token), Err(Cancelled));
    assert_eq!(oracle.loss_evaluations(), 0);

    // Cancelled mid-batch, deterministically: a wrapper model flips the
    // token from inside its own `loss()` once a budget of evaluations is
    // spent, so the cut lands at an exact cell boundary — the serial
    // path must stop within one cell of it.
    let budget = 7u64;
    let token = CancelToken::new();
    let wrapper = CancellingModel {
        inner: proto.clone(),
        // The oracle's constructor itself evaluates the 4 per-round base
        // losses through this model; spend the budget after those.
        calls: Arc::new(AtomicU64::new(0)),
        trigger: 4 + budget,
        token: token.clone(),
    };
    let oracle = UtilityOracle::new(&trace, &wrapper, &test).with_parallelism(1);
    oracle.reset_counter();
    assert_eq!(oracle.try_evaluate_plan(&plan, &token), Err(Cancelled));
    let after_cancel = oracle.loss_evaluations();
    assert_eq!(
        after_cancel, budget,
        "the batch stopped exactly one cell after the cancellation"
    );

    // Partial results are valid and a retry completes the remainder
    // exactly once.
    let fresh = CancelToken::new();
    oracle.try_evaluate_plan(&plan, &fresh).unwrap();
    assert_eq!(oracle.loss_evaluations(), plan.len() as u64);
    let reference = UtilityOracle::new(&trace, &proto, &test).with_parallelism(1);
    for &(t, s) in plan.cells() {
        assert_eq!(
            reference.utility(t, s).to_bits(),
            oracle.utility(t, s).to_bits()
        );
    }
}

/// Asserts `values` holds `reference`'s `U_t(S)` for every planned cell,
/// in plan order, bit for bit.
fn assert_plan_values(values: &[f64], plan: &EvalPlan, reference: &UtilityOracle<'_>, what: &str) {
    assert_eq!(values.len(), plan.len(), "{what}: one value per cell");
    for (&(t, s), v) in plan.cells().iter().zip(values) {
        assert_eq!(
            v.to_bits(),
            reference.utility(t, s).to_bits(),
            "{what}: cell ({t}, {s:?})"
        );
    }
}

#[test]
fn plan_values_equal_utility_bitwise_cold_warm_and_after_a_cancelled_retry() {
    let (trace, proto, test) = world(6, 4, 3);
    let plan = full_plan(6, 4);
    let reference = UtilityOracle::new(&trace, &proto, &test).with_parallelism(1);
    // The first half of the cells, in a plan of its own.
    let mut half = EvalPlan::new();
    for &(t, s) in &plan.cells()[..plan.len() / 2] {
        half.add(t, s);
    }
    for width in [1usize, 4] {
        let oracle = UtilityOracle::new(&trace, &proto, &test)
            .with_pool(PoolHandle::owned(Pool::new(width)))
            .with_parallelism(width);
        oracle.reset_counter();
        let cold = oracle.evaluate_plan(&half);
        assert_plan_values(&cold, &half, &reference, &format!("cold, width {width}"));
        let partly = oracle.evaluate_plan(&plan);
        assert_plan_values(&partly, &plan, &oracle, &format!("partly warm, {width}"));
        assert_plan_values(&partly, &plan, &reference, &format!("partly warm, {width}"));
        let warm = oracle.evaluate_plan(&plan);
        assert_plan_values(&warm, &plan, &reference, &format!("warm, width {width}"));
        assert_eq!(oracle.loss_evaluations(), plan.len() as u64);
        assert_eq!(oracle.cell_hits(), (half.len() + plan.len()) as u64);
    }

    // A batch cancelled mid-way, then retried: the retry returns every
    // value, those evaluated before the cut included.
    let token = CancelToken::new();
    let wrapper = CancellingModel {
        inner: proto.clone(),
        calls: Arc::new(AtomicU64::new(0)),
        // After the oracle's 4 base losses, 9 cells.
        trigger: 4 + 9,
        token: token.clone(),
    };
    let oracle = UtilityOracle::new(&trace, &wrapper, &test).with_parallelism(1);
    assert_eq!(oracle.try_evaluate_plan(&plan, &token), Err(Cancelled));
    let retried = oracle
        .try_evaluate_plan(&plan, &CancelToken::new())
        .unwrap();
    assert_plan_values(&retried, &plan, &reference, "after a cancelled batch");
    assert_plan_values(&retried, &plan, &oracle, "after a cancelled batch");
}

#[test]
fn isolated_oracle_starts_with_an_empty_cache() {
    let (trace, proto, test) = world(5, 3, 3);
    let plan = full_plan(5, 3);
    let shared = CellCache::in_memory(DEFAULT_MEM_BUDGET_BYTES);
    let private_parent = UtilityOracle::new(&trace, &proto, &test);
    let shared_parent =
        UtilityOracle::new(&trace, &proto, &test).with_shared_cache(Arc::clone(&shared));
    for oracle in [private_parent, shared_parent] {
        oracle.reset_counter();
        oracle.evaluate_plan(&plan);
        let cost = oracle.loss_evaluations();
        assert_eq!(cost, plan.len() as u64);

        // Each isolated clone re-pays the full cost, agrees bit-for-bit,
        // and never reads or writes the parent's shared cache.
        let resident = shared.stats().resident_cells;
        for iso in [
            oracle.isolated(),
            oracle.isolated().with_tier(oracle.tier()),
        ] {
            assert_eq!(iso.loss_evaluations(), 0, "counter starts at zero");
            iso.evaluate_plan(&plan);
            assert_eq!(iso.loss_evaluations(), cost, "full cost paid again");
            assert_eq!(
                shared.stats().resident_cells,
                resident,
                "an isolated clone must leave the shared cache alone"
            );
            for &(t, s) in plan.cells() {
                assert_eq!(oracle.utility(t, s).to_bits(), iso.utility(t, s).to_bits());
            }
            // Base losses were copied, not recounted.
            for t in 0..3 {
                assert_eq!(oracle.base_loss(t).to_bits(), iso.base_loss(t).to_bits());
            }
        }
    }
}
