//! The round-utility oracle and its parallel batch evaluation engine.
//!
//! Implements the paper's per-round utility (equations (6) and the
//! definition of `U_t`):
//!
//! ```text
//! u_t(w)  = ℓ(w_t; D_c) − ℓ(w; D_c)
//! U_t(S)  = u_t(w̄_S),   w̄_S = mean_{k∈S} w^{t+1}_k
//! ```
//!
//! Test-loss evaluations of `U_t(S)` dominate the cost of every valuation
//! method — they are the unit in which the paper's Fig. 8 compares running
//! times — so this module is built around evaluating *batches* of them in
//! parallel rather than one call at a time.
//!
//! # Architecture: plan → parallel evaluate → read
//!
//! 1. **Plan.** A caller (the ComFedSV pipeline, FedSV, TMC, group
//!    testing, the utility-matrix builders) first collects the distinct
//!    `(round, subset)` cells it will need into an [`EvalPlan`]. The plan
//!    deduplicates cells and preserves first-insertion order, so callers
//!    can also replay it to build downstream structures (e.g. a
//!    completion problem) in a deterministic order.
//! 2. **Parallel evaluate.** [`UtilityOracle::evaluate_plan`] submits
//!    the not-yet-evaluated cells to a persistent
//!    [`fedval_runtime::Pool`] in contiguous chunks — by default the
//!    process-wide [`Pool::global`](fedval_runtime::Pool::global)
//!    (sized by `FEDVAL_THREADS`), overridable per oracle with
//!    [`UtilityOracle::with_pool`]. Each chunk clones the model
//!    prototype once ([`Model::clone_model`] is a plain deep copy of
//!    the flat parameter vector, so per-worker scratch models are
//!    cheap) and writes each result into that cell's compute-once slot.
//!    Slots are compute-once cells (initialized under the cell's write
//!    lock): a cell is computed exactly once no matter how many threads
//!    race on it, and reads after initialization take an uncontended
//!    read lock. [`UtilityOracle::try_evaluate_plan`] is the
//!    cancellable variant: a [`CancelToken`] is observed at cell
//!    boundaries *and between minibatch chunks inside a cell* (the
//!    token is handed to [`Model::loss_with`], which checks it every
//!    `fedval_models::workspace::CHUNK_ROWS` examples), so even a huge
//!    single evaluation stops promptly; a cell abandoned mid-evaluation
//!    is left unset — not stored, not counted — and a retry resumes it.
//! 3. **Read.** Both batch calls return the planned cells' values in
//!    plan order, read from the slots the batch already holds, so a
//!    caller replaying the plan needs no second lookup per cell.
//!    [`UtilityOracle::utility`] is the single-cell API, a thin shim
//!    over the cell store. A cache miss (a cell outside any evaluated
//!    plan) is evaluated as a one-cell batch, so incremental callers
//!    keep working unchanged.
//!
//! Determinism: `U_t(S)` depends only on the recorded trace, the model
//! architecture, and the test set — not on which worker computes it or in
//! what order — so valuations are bit-for-bit identical between serial
//! and parallel runs. The engine's tests and
//! `crates/fl/tests/oracle_concurrency.rs` assert both that and the
//! exactly-once evaluation guarantee.
//!
//! The oracle also counts test-loss evaluations
//! ([`UtilityOracle::loss_evaluations`]) — the paper's cost unit.
//!
//! # The cell store
//!
//! Every oracle keeps its cells in a [`fedval_cache::CellCache`]. A
//! fresh oracle owns a private, unbounded one, so each cell is evaluated
//! exactly once. [`UtilityOracle::with_shared_cache`] swaps in a shared,
//! bounded one keyed by `(trace fingerprint, tier, round, subset)`:
//! oracles over the same trace share completed cells, memory pressure
//! evicts (and optionally spills to disk) cold cells, and a disk-backed
//! cache warm-starts repeat valuations across processes. Cells are pure
//! functions of the fingerprinted inputs, so eviction and sharing can
//! change *when* a cell is computed — never its bits; an evicted cell
//! may be recomputed if asked for again. Hits are tallied in
//! [`UtilityOracle::cell_hits`], never in the loss-evaluation counter.

use crate::subset::Subset;
use crate::trainer::TrainingTrace;
use fedval_cache::{CellCache, CellKey, CellSlot, Fingerprint, FingerprintHasher};
use fedval_data::Dataset;
use fedval_models::{DeterminismTier, Model, Workspace};
use fedval_runtime::{CancelToken, Cancelled, PoolHandle};
use std::collections::HashSet;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// An ordered, deduplicated batch of `(round, subset)` utility cells to
/// evaluate. Empty subsets are skipped on insertion (`U_t(∅) = 0` by
/// convention and needs no model evaluation).
#[derive(Debug, Clone, Default)]
pub struct EvalPlan {
    cells: Vec<(usize, Subset)>,
    seen: HashSet<(usize, Subset)>,
}

impl EvalPlan {
    /// An empty plan.
    pub fn new() -> Self {
        EvalPlan::default()
    }

    /// Adds one cell. Duplicates and empty subsets are ignored.
    pub fn add(&mut self, round: usize, subset: Subset) {
        if !subset.is_empty() && self.seen.insert((round, subset)) {
            self.cells.push((round, subset));
        }
    }

    /// Adds every subset of `universe` (the in-cohort coalitions of a
    /// round), in the subset-enumeration order of [`Subset::subsets`].
    pub fn add_subsets_of(&mut self, round: usize, universe: Subset) {
        for s in universe.subsets() {
            self.add(round, s);
        }
    }

    /// Adds the cell `(t, subset)` for every round `t < rounds` — the
    /// column of the utility matrix needed by `U(S) = Σ_t U_t(S)`.
    pub fn add_column(&mut self, rounds: usize, subset: Subset) {
        for t in 0..rounds {
            self.add(t, subset);
        }
    }

    /// Adds every non-empty prefix coalition of a permutation walk
    /// (the cells a per-round permutation estimator reads).
    pub fn add_prefixes(&mut self, round: usize, order: &[usize]) {
        let mut prefix = Subset::EMPTY;
        for &i in order {
            prefix = prefix.with(i);
            self.add(round, prefix);
        }
    }

    /// The planned cells in insertion order.
    pub fn cells(&self) -> &[(usize, Subset)] {
        &self.cells
    }

    /// Number of distinct planned cells.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when nothing is planned.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }
}

/// Per-worker evaluation state: a scratch model, whose parameters each
/// cell's FedAvg aggregate overwrites, and its reusable minibatch
/// [`Workspace`] (the batched loss kernels run allocation-free through
/// it). One per batch chunk.
struct CellScratch {
    model: Box<dyn Model>,
    ws: Workspace,
}

impl CellScratch {
    fn new(model: Box<dyn Model>, tier: DeterminismTier) -> Self {
        CellScratch {
            model,
            ws: Workspace::new().with_tier(tier),
        }
    }
}

/// Evaluates `U_t(S)` against a recorded [`TrainingTrace`].
pub struct UtilityOracle<'a> {
    trace: &'a TrainingTrace,
    test_data: &'a Dataset,
    /// Architecture + initial parameters; cloned once per batch chunk.
    prototype: Box<dyn Model>,
    /// `ℓ(w_t; D_c)` per round, evaluated at `tier`.
    base_losses: Vec<f64>,
    /// The cell store: one compute-once slot per evaluated cell.
    cache: Arc<CellCache>,
    /// Trace prefix of this oracle's cell keys: the fingerprint once a
    /// shared cache is attached. A private cache holds one trace only,
    /// so until then a constant stands in and the trace is not hashed.
    key_trace: Fingerprint,
    /// [`Self::fingerprint`], computed on first use.
    fingerprint: OnceLock<Fingerprint>,
    calls: AtomicU64,
    /// Cells served without a loss evaluation (see
    /// [`Self::cell_hits`]).
    hits: AtomicU64,
    /// Cells this oracle's trace found already persisted on disk when
    /// it attached to the shared cache.
    disk_warm: u64,
    /// Which pool [`Self::evaluate_plan`] submits batches to.
    pool: PoolHandle,
    /// Optional cap on workers per batch; `None` uses the pool width.
    parallelism: Option<usize>,
    /// Numeric tier every cell evaluation runs at (pinned on each
    /// chunk's workspace).
    tier: DeterminismTier,
}

impl<'a> UtilityOracle<'a> {
    /// Builds an oracle at the process-default tier
    /// ([`DeterminismTier::default_tier`]). Evaluates the `T` per-round
    /// base losses eagerly (they are shared by every utility query in
    /// the round).
    pub fn new(trace: &'a TrainingTrace, prototype: &dyn Model, test_data: &'a Dataset) -> Self {
        let tier = DeterminismTier::default_tier();
        let mut oracle = Self::from_parts(trace, test_data, prototype, Vec::new(), tier);
        oracle.evaluate_base_losses();
        oracle
    }

    /// [`Self::new`] with the per-round base losses supplied instead of
    /// recomputed — the service's world memo evaluates them once per
    /// trained trace and every subsequent job's oracle reuses them, so
    /// repeat jobs start with a zero call counter (the memoized base
    /// losses were already paid for and reported by the first job).
    ///
    /// `base_losses` must come from an oracle over the *same* trace,
    /// model, and test set at the process-default tier, which is how
    /// the service's world memo makes them (the trace fingerprint
    /// hashes them, so a mismatch would also change the cache
    /// identity). A later [`Self::set_tier`] to another tier
    /// re-evaluates them.
    pub fn with_base_losses(
        trace: &'a TrainingTrace,
        prototype: &dyn Model,
        test_data: &'a Dataset,
        base_losses: Vec<f64>,
    ) -> Self {
        assert_eq!(
            base_losses.len(),
            trace.num_rounds(),
            "one base loss per round"
        );
        let tier = DeterminismTier::default_tier();
        Self::from_parts(trace, test_data, prototype, base_losses, tier)
    }

    /// The one constructor: an oracle on the global pool whose cells live
    /// in a fresh private cache. Its budget is unbounded, so it never
    /// evicts and every cell is evaluated exactly once.
    fn from_parts(
        trace: &'a TrainingTrace,
        test_data: &'a Dataset,
        prototype: &dyn Model,
        base_losses: Vec<f64>,
        tier: DeterminismTier,
    ) -> Self {
        UtilityOracle {
            trace,
            test_data,
            prototype: prototype.clone_model(),
            base_losses,
            cache: CellCache::in_memory(usize::MAX),
            key_trace: Fingerprint::from_bits(0),
            fingerprint: OnceLock::new(),
            calls: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            disk_warm: 0,
            pool: PoolHandle::Global,
            parallelism: None,
            tier,
        }
    }

    /// Overrides the number of workers a batch may fan out to
    /// (`1` forces the serial path; used by the throughput benchmarks).
    /// Chunks beyond the pool's width simply queue — the cap bounds
    /// concurrency, not correctness.
    pub fn with_parallelism(mut self, threads: usize) -> Self {
        self.set_parallelism(threads);
        self
    }

    /// See [`Self::with_parallelism`].
    pub fn set_parallelism(&mut self, threads: usize) {
        self.parallelism = Some(threads.max(1));
    }

    /// Worker cap for batch evaluation: the explicit override if one was
    /// set, otherwise the width of the configured pool.
    pub fn parallelism(&self) -> usize {
        self.parallelism.unwrap_or_else(|| self.pool.threads())
    }

    /// Sets the numeric tier every loss evaluation runs at (builder
    /// style), the per-round base losses included: a change of tier
    /// re-evaluates them (counted as `T` loss evaluations), so a value
    /// depends on the tier it was pinned to and never on
    /// `FEDVAL_TIER`. Floating-point rounding does not cancel out of
    /// `ℓ(w_t) − ℓ(w̄_S)`, so a base loss from another tier would move
    /// the low bits of every utility.
    ///
    /// Call this before querying or batch-evaluating any cells: the
    /// cell store caches values at whatever tier computed them, and
    /// mixed-tier cell caches are not meaningful; call it on
    /// [`Self::isolated`] for a fresh-cache oracle instead.
    pub fn with_tier(mut self, tier: DeterminismTier) -> Self {
        self.set_tier(tier);
        self
    }

    /// See [`Self::with_tier`].
    pub fn set_tier(&mut self, tier: DeterminismTier) {
        let retier = tier != self.tier;
        self.tier = tier;
        if retier {
            self.evaluate_base_losses();
            // The fingerprint hashes the base losses; an attached
            // shared cache keys this oracle's cells by it.
            if self.key_trace != Fingerprint::from_bits(0) {
                self.key_trace = self.fingerprint();
            }
        }
        // The cache keys on the tier, so a retiered oracle reads and
        // writes a disjoint cell namespace — but a disk-backed cache may
        // hold segments for the new tier that deserve loading.
        self.disk_warm += self.cache.attach(self.key_trace, tier.id());
    }

    /// Evaluates `ℓ(w_t; D_c)` for every round at this oracle's tier,
    /// counts the `T` evaluations, and drops the memoized fingerprint,
    /// which hashes the base losses.
    fn evaluate_base_losses(&mut self) {
        let mut scratch = CellScratch::new(self.prototype.clone_model(), self.tier);
        let never = CancelToken::new();
        self.base_losses = self
            .trace
            .rounds
            .iter()
            .map(|r| {
                scratch.model.set_params(&r.global_params);
                scratch
                    .model
                    .loss_with(self.test_data, &mut scratch.ws, &never)
                    .expect("a fresh token is never cancelled")
            })
            .collect();
        *self.calls.get_mut() += self.trace.num_rounds() as u64;
        self.fingerprint = OnceLock::new();
    }

    /// Attaches this oracle to the process-shared cell cache (builder
    /// style): `cache` replaces the oracle's private store, with cells
    /// keyed by `(trace fingerprint, tier, round, subset)`, so
    /// concurrent and future oracles over the same trace share every
    /// completed cell — and, when the cache has a disk directory,
    /// persisted cells from previous processes are loaded now.
    ///
    /// Sharing never changes values: cells are pure functions of the
    /// fingerprinted inputs, and the compute-once slot discipline is
    /// the same in every store. Call before evaluating any cells —
    /// cells already in the private store are not migrated.
    pub fn with_shared_cache(mut self, cache: Arc<CellCache>) -> Self {
        self.set_shared_cache(cache);
        self
    }

    /// See [`Self::with_shared_cache`].
    pub fn set_shared_cache(&mut self, cache: Arc<CellCache>) {
        self.key_trace = self.fingerprint();
        self.disk_warm += cache.attach(self.key_trace, self.tier.id());
        self.cache = cache;
    }

    /// The 128-bit identity of everything a cell value depends on:
    /// model architecture descriptor + initial parameters, the full
    /// training trace, the test set, and the base losses (which also
    /// pin the tier they were evaluated at). Deterministic across
    /// processes — this is the on-disk cache key prefix. Hashed once
    /// per oracle and memoized, unless [`Self::set_fingerprint`]
    /// supplied it.
    pub fn fingerprint(&self) -> Fingerprint {
        *self.fingerprint.get_or_init(|| self.hash_inputs())
    }

    /// Hands this oracle its [`Self::fingerprint`] instead of hashing
    /// the trace again — the service's world memo keeps one per trained
    /// trace and tier, and every later job's oracle takes it from
    /// there. `fingerprint` must be what an oracle over the same trace,
    /// model, test set and base losses returns; debug builds check it
    /// against a fresh hash. A later [`Self::set_tier`] to another tier
    /// drops it, as it drops a computed one.
    pub fn set_fingerprint(&mut self, fingerprint: Fingerprint) {
        debug_assert_eq!(
            fingerprint,
            self.hash_inputs(),
            "handed fingerprint differs from this oracle's inputs"
        );
        self.fingerprint = OnceLock::from(fingerprint);
    }

    fn hash_inputs(&self) -> Fingerprint {
        let mut h = FingerprintHasher::new("fedval-trace-v1");
        h.write_bytes(self.prototype.cache_descriptor().as_bytes());
        h.write_f64s(self.prototype.params());
        h.write_usize(self.trace.num_clients);
        h.write_len(self.trace.rounds.len());
        for r in &self.trace.rounds {
            h.write_f64s(&r.global_params);
            h.write_len(r.local_params.len());
            for lp in &r.local_params {
                h.write_f64s(lp);
            }
            h.write_u64(r.selected.bits());
            h.write_f64(r.eta);
        }
        h.write_f64s(&self.trace.final_params);
        h.write_usize(self.test_data.num_classes());
        h.write_f64s(self.test_data.features().as_slice());
        h.write_len(self.test_data.labels().len());
        for &label in self.test_data.labels() {
            h.write_usize(label);
        }
        h.write_f64s(&self.base_losses);
        h.finish()
    }

    /// The tier cell evaluations run at.
    pub fn tier(&self) -> DeterminismTier {
        self.tier
    }

    /// Submits batches to `pool` instead of the process-wide
    /// [`Pool::global`](fedval_runtime::Pool::global) — tests pin exact
    /// pool sizes this way without perturbing the global pool.
    pub fn with_pool(mut self, pool: PoolHandle) -> Self {
        self.set_pool(pool);
        self
    }

    /// See [`Self::with_pool`].
    pub fn set_pool(&mut self, pool: PoolHandle) {
        self.pool = pool;
    }

    /// A fresh-cache clone of this oracle over the same trace, model
    /// architecture, test set and tier: the per-round base losses are
    /// copied (not recounted), the cell store starts empty, and the call
    /// counter starts at zero. Used by `ValuationSession`'s
    /// isolated-runs mode so every method pays — and reports — its full
    /// evaluation cost instead of drafting behind an earlier method's
    /// cache. The clone gets a private store even when this oracle is
    /// attached to a shared cache: drafting behind the shared cache
    /// would hide that cost. `oracle.isolated().with_tier(tier)` pins
    /// the fresh store to another tier, re-evaluating (and counting) the
    /// base losses there.
    pub fn isolated(&self) -> UtilityOracle<'a> {
        UtilityOracle {
            fingerprint: self.fingerprint.clone(),
            pool: self.pool.clone(),
            parallelism: self.parallelism,
            ..Self::from_parts(
                self.trace,
                self.test_data,
                &*self.prototype,
                self.base_losses.clone(),
                self.tier,
            )
        }
    }

    /// The trace this oracle reads.
    pub fn trace(&self) -> &TrainingTrace {
        self.trace
    }

    /// Number of rounds `T`.
    pub fn num_rounds(&self) -> usize {
        self.trace.num_rounds()
    }

    /// Number of clients `N`.
    pub fn num_clients(&self) -> usize {
        self.trace.num_clients
    }

    /// Server-side base loss `ℓ(w_t; D_c)`.
    pub fn base_loss(&self, t: usize) -> f64 {
        self.base_losses[t]
    }

    /// All per-round base losses, in round order — the slice to hand to
    /// [`Self::with_base_losses`] when memoizing a trained trace.
    pub fn base_losses(&self) -> &[f64] {
        &self.base_losses
    }

    /// Total test-loss evaluations so far (the paper's cost unit).
    /// Cache hits — in-process or disk-warm — are *not* loss
    /// evaluations and never inflate this counter; they are tallied
    /// separately in [`Self::cell_hits`].
    pub fn loss_evaluations(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }

    /// Planned cells served from an already-completed slot without a
    /// loss evaluation — the cache's contribution, counted when a batch
    /// plan filters out resident cells (in a private store or a shared
    /// cache alike). Repeat *reads* of a cell the same caller
    /// already paid for are not hits; this counts work avoided, not
    /// lookups made.
    pub fn cell_hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Cells found persisted on disk for this oracle's trace when it
    /// attached to the shared cache (0 without a disk-backed cache).
    pub fn disk_warm_cells(&self) -> u64 {
        self.disk_warm
    }

    /// Resets the call and hit counters (used between timed phases in
    /// Fig. 8).
    pub fn reset_counter(&self) {
        self.calls.store(0, Ordering::Relaxed);
        self.hits.store(0, Ordering::Relaxed);
    }

    /// The cache key for a cell of this oracle.
    fn cell_key(&self, cell: (usize, Subset)) -> CellKey {
        CellKey {
            trace: self.key_trace,
            tier: self.tier.id(),
            round: cell.0 as u32,
            subset: cell.1.bits(),
        }
    }

    /// The compute-once slot for a cell, reserving it if needed.
    fn slot(&self, cell: (usize, Subset)) -> CellSlot {
        self.cache.slot(self.cell_key(cell))
    }

    /// Evaluates one cell into `slot` on the given scratch state,
    /// unless another evaluator filled it first: the FedAvg aggregate is
    /// written into the scratch model's parameters and the batched loss
    /// runs through its workspace, observing `cancel` between minibatch
    /// chunks. This runs under the cell's write lock, so racing
    /// evaluators block, then observe the stored value — never
    /// recompute. When the token fires *inside* the model's minibatch
    /// loops the guard drops with the slot still empty: the cell is not
    /// stored, not counted, and a retry recomputes it.
    fn fill_cell(
        &self,
        scratch: &mut CellScratch,
        (t, s): (usize, Subset),
        slot: &CellSlot,
        cancel: &CancelToken,
    ) {
        let mut guard = slot.write();
        if guard.is_some() {
            return;
        }
        // The parameters are a model's only state (the `Model`
        // contract), so the aggregate is written straight into them.
        let found = self.trace.aggregate_into(t, s, scratch.model.params_mut());
        assert!(found, "non-empty subset aggregates");
        let Ok(loss) = scratch
            .model
            .loss_with(self.test_data, &mut scratch.ws, cancel)
        else {
            return;
        };
        let v = self.base_losses[t] - loss;
        *guard = Some(v);
        self.calls.fetch_add(1, Ordering::Relaxed);
        // The cache completion, which makes the cell an evictable,
        // spillable resident, runs after the cell lock is released: the
        // cache may evict (and read) other unpinned slots under its own
        // mutex, and must never see us holding a slot it manages.
        drop(guard);
        self.cache.complete(self.cell_key((t, s)), v);
    }

    /// Evaluates every planned cell that is not yet in the cell store,
    /// in parallel across at most [`Self::parallelism`] chunks submitted
    /// to the configured pool, with per-chunk scratch models, and
    /// returns the planned cells' values in plan order. Each cell is
    /// evaluated exactly once even when plans overlap or other threads
    /// query concurrently.
    pub fn evaluate_plan(&self, plan: &EvalPlan) -> Vec<f64> {
        // A fresh token is never cancelled, so the batch cannot fail.
        self.try_evaluate_plan(plan, &CancelToken::new())
            .expect("fresh token is never cancelled")
    }

    /// [`Self::evaluate_plan`] with cooperative cancellation: `cancel`
    /// is observed at cell boundaries, and once set the not-yet-started
    /// remainder of the batch is abandoned and `Err(Cancelled)` is
    /// returned. Cells evaluated before the cut stay in the store (they
    /// are correct and already stored), so a retry resumes where the
    /// cancelled batch stopped.
    ///
    /// On success the result holds one value per planned cell, in the
    /// order of [`EvalPlan::cells`], each bit-identical to what
    /// [`Self::utility`] returns for that cell. They are read from the
    /// slots this call looked up anyway — a resident cell when it is
    /// counted as a hit, a computed one once its batch is done — so a
    /// caller that fills a problem from them looks no cell up twice.
    pub fn try_evaluate_plan(
        &self,
        plan: &EvalPlan,
        cancel: &CancelToken,
    ) -> Result<Vec<f64>, Cancelled> {
        cancel.check()?;
        let mut values = Vec::with_capacity(plan.len());
        let mut pending: Vec<(usize, (usize, Subset), CellSlot)> = Vec::new();
        for (i, &cell) in plan.cells().iter().enumerate() {
            assert!(cell.0 < self.trace.num_rounds(), "round out of range");
            let slot = self.slot(cell);
            let resident = *slot.read();
            match resident {
                // Already resident (an earlier plan, a concurrent
                // oracle over the same trace, or a disk-warm cell):
                // work avoided, counted as a hit — never as a call.
                Some(v) => values.push(v),
                // Its place is filled once the batch below is done.
                None => {
                    values.push(0.0);
                    pending.push((i, cell, slot));
                }
            }
        }
        let hits = (plan.len() - pending.len()) as u64;
        if hits > 0 {
            self.hits.fetch_add(hits, Ordering::Relaxed);
        }
        if pending.is_empty() {
            return Ok(values);
        }
        self.compute_pending(&pending, cancel)?;
        // Slots are write-once and a batch that was not cancelled has
        // filled every one of them.
        for (i, _, slot) in &pending {
            values[*i] = slot.read().expect("an uncancelled batch fills its slots");
        }
        Ok(values)
    }

    /// Computes the not-yet-resident cells of a plan, each into its
    /// slot (a slot another evaluator filled meanwhile is left as is).
    fn compute_pending(
        &self,
        pending: &[(usize, (usize, Subset), CellSlot)],
        cancel: &CancelToken,
    ) -> Result<(), Cancelled> {
        // A chunk costs a queue push + wakeup and one model clone; on
        // cheap models a loss evaluation is single-digit µs. Only fan
        // out when each chunk gets enough cells to amortize that setup:
        // a smaller batch (e.g. TMC's per-prefix T-cell columns, or one
        // `utility` miss) is one chunk, which the pool runs inline on
        // the calling thread.
        const MIN_CELLS_PER_WORKER: usize = 16;
        let workers = self.parallelism().min(pending.len() / MIN_CELLS_PER_WORKER);
        self.pool.get().for_each_init(
            pending.iter().collect(),
            workers,
            || CellScratch::new(self.prototype.clone_model(), self.tier),
            // A mid-cell cancellation leaves the slot unset; the pool
            // observes the shared token at the next item boundary and
            // reports Cancelled for the whole batch.
            |scratch, (_, cell, slot)| self.fill_cell(scratch, *cell, slot, cancel),
            Some(cancel),
        )
    }

    /// The round utility `U_t(S)`. Empty coalitions produce no model, so
    /// `U_t(∅) = 0` by convention (no contribution, no utility).
    ///
    /// A thin shim over the cell store: planned-and-evaluated cells
    /// cost one store lookup and an uncontended read lock; anything
    /// else is evaluated as a one-cell batch and stored.
    pub fn utility(&self, t: usize, s: Subset) -> f64 {
        assert!(t < self.trace.num_rounds(), "round out of range");
        if s.is_empty() {
            return 0.0;
        }
        let slot = self.slot((t, s));
        if let Some(v) = *slot.read() {
            return v;
        }
        let pending = [(0, (t, s), slot)];
        self.compute_pending(&pending, &CancelToken::new())
            .expect("a fresh token is never cancelled");
        let value = *pending[0].2.read();
        value.expect("an uncancelled batch fills its slots")
    }

    /// Marginal contribution `U_t(S ∪ {i}) − U_t(S)`.
    pub fn marginal(&self, t: usize, s: Subset, client: usize) -> f64 {
        debug_assert!(!s.contains(client));
        self.utility(t, s.with(client)) - self.utility(t, s)
    }

    /// Total utility over all rounds `U(S) = Σ_t U_t(S)` — the whole-run
    /// utility function of Theorem 1. Reads cells one at a time; plan a
    /// column with [`EvalPlan::add_column`] to evaluate its missing
    /// cells as one batch first.
    pub fn total_utility(&self, s: Subset) -> f64 {
        (0..self.num_rounds()).map(|t| self.utility(t, s)).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::FlConfig;
    use crate::trainer::train_federated;
    use fedval_linalg::Matrix;
    use fedval_models::LogisticRegression;

    fn setup() -> (TrainingTrace, LogisticRegression, Dataset) {
        let clients: Vec<Dataset> = (0..4)
            .map(|i| {
                let f = Matrix::from_fn(10, 2, |r, c| ((r + c + i) % 4) as f64 - 1.5);
                let labels: Vec<usize> = (0..10).map(|r| (r + i) % 2).collect();
                Dataset::new(f, labels, 2).unwrap()
            })
            .collect();
        let test = {
            let f = Matrix::from_fn(12, 2, |r, c| ((r * 2 + c) % 4) as f64 - 1.5);
            let labels: Vec<usize> = (0..12).map(|r| r % 2).collect();
            Dataset::new(f, labels, 2).unwrap()
        };
        let proto = LogisticRegression::new(2, 2, 0.01, 7);
        let trace = train_federated(&proto, &clients, &FlConfig::new(3, 2, 0.2, 1));
        (trace, proto, test)
    }

    #[test]
    fn empty_subset_has_zero_utility() {
        let (trace, proto, test) = setup();
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        for t in 0..trace.num_rounds() {
            assert_eq!(oracle.utility(t, Subset::EMPTY), 0.0);
        }
    }

    #[test]
    fn utility_matches_direct_computation() {
        let (trace, proto, test) = setup();
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let s = Subset::from_indices(&[0, 2]);
        let expected = {
            let mut m = proto.clone();
            m.set_params(&trace.rounds[1].global_params);
            let base = m.loss(&test);
            let agg = trace.aggregate(1, s).unwrap();
            m.set_params(&agg);
            base - m.loss(&test)
        };
        assert!((oracle.utility(1, s) - expected).abs() < 1e-14);
    }

    #[test]
    fn cache_prevents_recomputation() {
        let (trace, proto, test) = setup();
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let s = Subset::from_indices(&[1, 3]);
        let base = oracle.loss_evaluations();
        let v1 = oracle.utility(0, s);
        let after_first = oracle.loss_evaluations();
        let v2 = oracle.utility(0, s);
        let after_second = oracle.loss_evaluations();
        assert_eq!(v1, v2);
        assert_eq!(after_first, base + 1);
        assert_eq!(after_second, after_first, "second call must hit cache");
    }

    #[test]
    fn counter_reset_works() {
        let (trace, proto, test) = setup();
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        oracle.utility(0, Subset::from_indices(&[0]));
        assert!(oracle.loss_evaluations() > 0);
        oracle.reset_counter();
        assert_eq!(oracle.loss_evaluations(), 0);
    }

    #[test]
    fn marginal_is_difference_of_utilities() {
        let (trace, proto, test) = setup();
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let s = Subset::from_indices(&[1]);
        let m = oracle.marginal(2, s, 3);
        let direct = oracle.utility(2, s.with(3)) - oracle.utility(2, s);
        assert_eq!(m, direct);
    }

    #[test]
    fn total_utility_sums_rounds() {
        let (trace, proto, test) = setup();
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let s = Subset::full(4);
        let total = oracle.total_utility(s);
        let manual: f64 = (0..trace.num_rounds()).map(|t| oracle.utility(t, s)).sum();
        assert_eq!(total, manual);
    }

    #[test]
    fn identical_clients_have_identical_singleton_utilities() {
        // Duplicate client data ⇒ identical local models ⇒ identical
        // utilities for the two singletons — Symmetry at the oracle level.
        let mut clients: Vec<Dataset> = (0..4)
            .map(|i| {
                let f = Matrix::from_fn(10, 2, |r, c| ((r + 2 * c + i) % 5) as f64 - 2.0);
                let labels: Vec<usize> = (0..10).map(|r| (r + i) % 2).collect();
                Dataset::new(f, labels, 2).unwrap()
            })
            .collect();
        clients[3] = clients[0].clone();
        let test = {
            let f = Matrix::from_fn(8, 2, |r, c| ((r + c) % 4) as f64 - 1.5);
            let labels: Vec<usize> = (0..8).map(|r| r % 2).collect();
            Dataset::new(f, labels, 2).unwrap()
        };
        let proto = LogisticRegression::new(2, 2, 0.01, 3);
        let trace = train_federated(&proto, &clients, &FlConfig::new(3, 2, 0.2, 1));
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        for t in 0..3 {
            let u0 = oracle.utility(t, Subset::from_indices(&[0]));
            let u3 = oracle.utility(t, Subset::from_indices(&[3]));
            assert!((u0 - u3).abs() < 1e-14);
            // And jointly with a third client.
            let u01 = oracle.utility(t, Subset::from_indices(&[0, 1]));
            let u31 = oracle.utility(t, Subset::from_indices(&[3, 1]));
            assert!((u01 - u31).abs() < 1e-14);
        }
    }

    #[test]
    fn plan_dedups_and_skips_empty() {
        let mut plan = EvalPlan::new();
        plan.add(0, Subset::EMPTY);
        plan.add(0, Subset::from_indices(&[1]));
        plan.add(0, Subset::from_indices(&[1]));
        plan.add(1, Subset::from_indices(&[1]));
        assert_eq!(plan.len(), 2);
        assert_eq!(
            plan.cells(),
            &[
                (0, Subset::from_indices(&[1])),
                (1, Subset::from_indices(&[1]))
            ]
        );
    }

    #[test]
    fn plan_subsets_matches_enumeration_order() {
        let mut plan = EvalPlan::new();
        let u = Subset::from_indices(&[0, 2]);
        plan.add_subsets_of(3, u);
        let expected: Vec<(usize, Subset)> = u
            .subsets()
            .filter(|s| !s.is_empty())
            .map(|s| (3, s))
            .collect();
        assert_eq!(plan.cells(), expected.as_slice());
    }

    #[test]
    fn plan_prefixes_adds_the_permutation_walk() {
        let mut plan = EvalPlan::new();
        plan.add_prefixes(0, &[2, 0, 1]);
        assert_eq!(
            plan.cells(),
            &[
                (0, Subset::from_indices(&[2])),
                (0, Subset::from_indices(&[0, 2])),
                (0, Subset::from_indices(&[0, 1, 2])),
            ]
        );
    }

    #[test]
    fn batch_evaluation_matches_serial_and_counts_once() {
        let (trace, proto, test) = setup();

        // Serial reference.
        let serial = UtilityOracle::new(&trace, &proto, &test).with_parallelism(1);
        // Parallel engine.
        let parallel = UtilityOracle::new(&trace, &proto, &test).with_parallelism(4);

        let mut plan = EvalPlan::new();
        for t in 0..trace.num_rounds() {
            plan.add_subsets_of(t, Subset::full(4));
        }
        serial.reset_counter();
        parallel.reset_counter();
        serial.evaluate_plan(&plan);
        parallel.evaluate_plan(&plan);

        assert_eq!(serial.loss_evaluations(), plan.len() as u64);
        assert_eq!(parallel.loss_evaluations(), plan.len() as u64);
        for &(t, s) in plan.cells() {
            let a = serial.utility(t, s);
            let b = parallel.utility(t, s);
            assert_eq!(a.to_bits(), b.to_bits(), "cell ({t}, {s:?}) diverged");
        }
        // Re-evaluating the same plan is free.
        parallel.evaluate_plan(&plan);
        assert_eq!(parallel.loss_evaluations(), plan.len() as u64);
    }

    #[test]
    fn batch_then_single_cell_reads_are_consistent() {
        let (trace, proto, test) = setup();
        let oracle = UtilityOracle::new(&trace, &proto, &test);
        let s = Subset::from_indices(&[0, 1]);
        let mut plan = EvalPlan::new();
        plan.add_column(trace.num_rounds(), s);
        let column = oracle.evaluate_plan(&plan);
        let before = oracle.loss_evaluations();
        let total = oracle.total_utility(s);
        assert_eq!(
            oracle.loss_evaluations(),
            before,
            "column reads must all hit the table"
        );
        assert_eq!(total.to_bits(), column.iter().sum::<f64>().to_bits());
    }

    #[test]
    fn base_losses_are_evaluated_at_the_oracle_tier() {
        // Wide enough that the Fast kernels round differently from
        // BitExact somewhere in the loss.
        let data = |rows: usize, seed: usize| {
            let f = Matrix::from_fn(rows, 24, |r, c| {
                (((r + 1) * (c + 3) + seed) % 11) as f64 / 5.0 - 1.0
            });
            let labels: Vec<usize> = (0..rows).map(|r| (r * 3 + seed) % 5).collect();
            Dataset::new(f, labels, 5).unwrap()
        };
        let clients: Vec<Dataset> = (0..4).map(|i| data(30, i)).collect();
        let test = data(40, 9);
        let proto = LogisticRegression::new(24, 5, 0.01, 3);
        // Training pinned too, so the trace is the same under any
        // `FEDVAL_TIER`.
        let cfg = FlConfig::new(3, 2, 0.2, 1).with_tier(DeterminismTier::BitExact);
        let trace = train_federated(&proto, &clients, &cfg);
        let bits = |losses: &[f64]| losses.iter().map(|l| l.to_bits()).collect::<Vec<_>>();
        for (tier, other) in [
            (DeterminismTier::BitExact, DeterminismTier::Fast),
            (DeterminismTier::Fast, DeterminismTier::BitExact),
        ] {
            let mut model = proto.clone_model();
            let mut ws = Workspace::new().with_tier(tier);
            let expect: Vec<f64> = trace
                .rounds
                .iter()
                .map(|r| {
                    model.set_params(&r.global_params);
                    model
                        .loss_with(&test, &mut ws, &CancelToken::new())
                        .unwrap()
                })
                .collect();
            let pinned = UtilityOracle::new(&trace, &proto, &test).with_tier(tier);
            assert_eq!(
                bits(pinned.base_losses()),
                bits(&expect),
                "with_tier({tier:?})"
            );
            // Retiering a clone re-evaluates them too, and the clone's
            // fingerprint (which hashes them) follows.
            let retiered = UtilityOracle::new(&trace, &proto, &test)
                .with_tier(other)
                .isolated()
                .with_tier(tier);
            assert_eq!(
                bits(retiered.base_losses()),
                bits(&expect),
                "isolated().with_tier({tier:?})"
            );
            assert_eq!(retiered.fingerprint(), pinned.fingerprint());

            // Retiering after attaching a shared cache re-keys the
            // oracle's cells by the new fingerprint, so it drafts behind
            // an oracle pinned to `tier` from the start.
            let cache = fedval_cache::CellCache::in_memory(usize::MAX);
            let plan = full_plan(trace.num_rounds(), 4);
            pinned
                .with_shared_cache(Arc::clone(&cache))
                .evaluate_plan(&plan);
            // An oracle over the same trace at the other tier shares the
            // cache but none of its cells.
            let apart = UtilityOracle::new(&trace, &proto, &test)
                .with_tier(other)
                .with_shared_cache(Arc::clone(&cache));
            apart.evaluate_plan(&plan);
            assert_eq!(apart.cell_hits(), 0, "{other:?} beside {tier:?}");
            let late = UtilityOracle::new(&trace, &proto, &test)
                .with_tier(other)
                .with_shared_cache(Arc::clone(&cache))
                .with_tier(tier);
            late.evaluate_plan(&plan);
            assert_eq!(late.cell_hits(), plan.len() as u64, "{tier:?}");
        }
    }

    #[test]
    fn fast_tier_oracle_is_deterministic_and_close_to_bit_exact() {
        let (trace, proto, test) = setup();
        let exact = UtilityOracle::new(&trace, &proto, &test).with_tier(DeterminismTier::BitExact);
        let fast = exact.isolated().with_tier(DeterminismTier::Fast);
        let fast2 = exact.isolated().with_tier(DeterminismTier::Fast);
        assert_eq!(fast.tier(), DeterminismTier::Fast);
        assert_eq!(exact.tier(), DeterminismTier::BitExact);
        for t in 0..trace.num_rounds() {
            for bits in 1u64..16 {
                let s = Subset::from_bits(bits);
                let a = exact.utility(t, s);
                let b = fast.utility(t, s);
                // Composite model-level bound; per-op ε is far tighter.
                assert!(
                    (a - b).abs() <= 1e-9 * (1.0 + a.abs()),
                    "({t}, {s:?}): {a} vs {b}"
                );
                assert_eq!(
                    b.to_bits(),
                    fast2.utility(t, s).to_bits(),
                    "fast tier is deterministic"
                );
            }
        }
    }

    fn full_plan(rounds: usize, clients: usize) -> EvalPlan {
        let mut plan = EvalPlan::new();
        for t in 0..rounds {
            plan.add_subsets_of(t, Subset::full(clients));
        }
        plan
    }

    #[test]
    fn shared_cache_serves_bit_identical_values_and_counts_hits() {
        let (trace, proto, test) = setup();
        let solo = UtilityOracle::new(&trace, &proto, &test);
        let cache = fedval_cache::CellCache::in_memory(fedval_cache::DEFAULT_MEM_BUDGET_BYTES);
        let first = UtilityOracle::new(&trace, &proto, &test).with_shared_cache(Arc::clone(&cache));
        let second =
            UtilityOracle::new(&trace, &proto, &test).with_shared_cache(Arc::clone(&cache));

        let plan = full_plan(trace.num_rounds(), 4);
        solo.evaluate_plan(&plan);
        first.reset_counter();
        first.evaluate_plan(&plan);
        assert_eq!(first.loss_evaluations(), plan.len() as u64);
        assert_eq!(first.cell_hits(), 0);

        // The second oracle drafts entirely behind the first.
        second.reset_counter();
        second.evaluate_plan(&plan);
        assert_eq!(second.loss_evaluations(), 0, "hits must not count as calls");
        assert_eq!(second.cell_hits(), plan.len() as u64);

        for &(t, s) in plan.cells() {
            let expect = solo.utility(t, s).to_bits();
            assert_eq!(first.utility(t, s).to_bits(), expect);
            assert_eq!(second.utility(t, s).to_bits(), expect);
        }
    }

    #[test]
    fn adversarially_small_budget_is_bit_identical_to_unbounded() {
        let (trace, proto, test) = setup();
        let solo = UtilityOracle::new(&trace, &proto, &test);
        // One-cell budget: effectively evict-everything.
        let cache = fedval_cache::CellCache::in_memory(1);
        let starved =
            UtilityOracle::new(&trace, &proto, &test).with_shared_cache(Arc::clone(&cache));
        let plan = full_plan(trace.num_rounds(), 4);
        starved.evaluate_plan(&plan);
        for &(t, s) in plan.cells() {
            assert_eq!(
                starved.utility(t, s).to_bits(),
                solo.utility(t, s).to_bits(),
                "cell ({t}, {s:?}) diverged under eviction pressure"
            );
        }
        assert!(
            cache.stats().evictions > 0,
            "a one-cell budget must actually evict"
        );
    }

    #[test]
    fn eviction_is_bit_identical_across_tiers_and_pool_widths() {
        use fedval_runtime::Pool;
        let (trace, proto, test) = setup();
        let plan = full_plan(trace.num_rounds(), 4);
        for tier in [DeterminismTier::BitExact, DeterminismTier::Fast] {
            let baseline = UtilityOracle::new(&trace, &proto, &test).with_tier(tier);
            baseline.evaluate_plan(&plan);
            for width in [1usize, 4] {
                // A fresh one-cell cache per leg so every width fights
                // full eviction pressure on its own.
                let cache = fedval_cache::CellCache::in_memory(1);
                let starved = UtilityOracle::new(&trace, &proto, &test)
                    .with_tier(tier)
                    .with_pool(PoolHandle::owned(Pool::new(width)))
                    .with_parallelism(width)
                    .with_shared_cache(Arc::clone(&cache));
                starved.evaluate_plan(&plan);
                for &(t, s) in plan.cells() {
                    assert_eq!(
                        starved.utility(t, s).to_bits(),
                        baseline.utility(t, s).to_bits(),
                        "cell ({t}, {s:?}) diverged at tier {tier:?}, width {width}"
                    );
                }
                assert!(
                    cache.stats().evictions > 0,
                    "{tier:?}/{width} never evicted"
                );
            }
        }
    }

    #[test]
    fn disk_warm_start_serves_cells_without_recompute() {
        let (trace, proto, test) = setup();
        let dir =
            std::env::temp_dir().join(format!("fedval-oracle-warm-test-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let plan = full_plan(trace.num_rounds(), 4);
        let solo = UtilityOracle::new(&trace, &proto, &test);

        {
            let cache =
                fedval_cache::CellCache::with_dir(fedval_cache::DEFAULT_MEM_BUDGET_BYTES, &dir);
            let cold =
                UtilityOracle::new(&trace, &proto, &test).with_shared_cache(Arc::clone(&cache));
            assert_eq!(cold.disk_warm_cells(), 0);
            cold.evaluate_plan(&plan);
            assert!(cache.flush() >= plan.len() as u64);
        }

        // Fresh cache = simulated process restart.
        let cache = fedval_cache::CellCache::with_dir(fedval_cache::DEFAULT_MEM_BUDGET_BYTES, &dir);
        let warm = UtilityOracle::new(&trace, &proto, &test).with_shared_cache(Arc::clone(&cache));
        assert_eq!(warm.disk_warm_cells(), plan.len() as u64);
        warm.reset_counter();
        warm.evaluate_plan(&plan);
        assert_eq!(
            warm.loss_evaluations(),
            0,
            "disk-warm cells must not recompute"
        );
        assert_eq!(warm.cell_hits(), plan.len() as u64);
        for &(t, s) in plan.cells() {
            assert_eq!(warm.utility(t, s).to_bits(), solo.utility(t, s).to_bits());
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fingerprint_distinguishes_trace_tier_and_model() {
        let (trace, proto, test) = setup();
        let a = UtilityOracle::new(&trace, &proto, &test);
        let b = UtilityOracle::new(&trace, &proto, &test);
        assert_eq!(
            a.fingerprint(),
            b.fingerprint(),
            "same inputs, same identity"
        );
        // A different model (other regularization) must change identity.
        let proto2 = LogisticRegression::new(2, 2, 0.5, 7);
        let c = UtilityOracle::new(&trace, &proto2, &test);
        assert_ne!(a.fingerprint(), c.fingerprint());
        // A different trace must change identity.
        let clients: Vec<Dataset> = (0..4)
            .map(|i| {
                let f = Matrix::from_fn(10, 2, |r, c| ((r + c + i) % 3) as f64 - 1.0);
                let labels: Vec<usize> = (0..10).map(|r| (r + i) % 2).collect();
                Dataset::new(f, labels, 2).unwrap()
            })
            .collect();
        let trace2 = train_federated(&proto, &clients, &FlConfig::new(3, 2, 0.2, 1));
        let d = UtilityOracle::new(&trace2, &proto, &test);
        assert_ne!(a.fingerprint(), d.fingerprint());
    }

    #[test]
    fn handed_fingerprint_keys_the_cells_and_a_retier_drops_it() {
        let (trace, proto, test) = setup();
        let hashed = UtilityOracle::new(&trace, &proto, &test).fingerprint();
        let cache = fedval_cache::CellCache::in_memory(usize::MAX);
        let plan = full_plan(trace.num_rounds(), 4);
        UtilityOracle::new(&trace, &proto, &test)
            .with_shared_cache(Arc::clone(&cache))
            .evaluate_plan(&plan);

        let mut handed = UtilityOracle::new(&trace, &proto, &test);
        handed.set_fingerprint(hashed);
        assert_eq!(handed.fingerprint(), hashed);
        let handed = handed.with_shared_cache(Arc::clone(&cache));
        handed.evaluate_plan(&plan);
        assert_eq!(handed.cell_hits(), plan.len() as u64, "same cell keys");

        let other = match DeterminismTier::default_tier() {
            DeterminismTier::BitExact => DeterminismTier::Fast,
            DeterminismTier::Fast => DeterminismTier::BitExact,
        };
        let mut retiered = UtilityOracle::new(&trace, &proto, &test);
        retiered.set_fingerprint(hashed);
        retiered.set_tier(other);
        let fresh = UtilityOracle::new(&trace, &proto, &test).with_tier(other);
        assert_eq!(retiered.fingerprint(), fresh.fingerprint());
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "handed fingerprint differs")]
    fn a_wrong_handed_fingerprint_panics_in_debug_builds() {
        let (trace, proto, test) = setup();
        let mut oracle = UtilityOracle::new(&trace, &proto, &test);
        let wrong = Fingerprint::from_bits(oracle.fingerprint().bits() ^ 1);
        oracle.set_fingerprint(wrong);
    }
}
