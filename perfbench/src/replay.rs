//! The traced run's layer-by-layer replay of a valuation job.
//!
//! [`Shadow`] mirrors the state a `JobManager` keeps (one cell cache over
//! one directory plus a memo of trained worlds) and [`Shadow::replay`]
//! walks a job's pipeline by calling each layer's public functions in the
//! order the service calls them, timing each call. Nothing is timed
//! inside the program: every span wraps one call made from this file.
//! The replay's values are compared bit for bit with the real job's.

use comfedsv::experiments::{Scenario, World};
use fedval_cache::{CellCache, Fingerprint, FingerprintHasher, TraceLoad, TraceRecord, TraceRound};
use fedval_fl::{EvalPlan, Subset, TrainingTrace, UtilityOracle};
use fedval_mc::{Completion, CompletionError, CompletionProblem, MatrixCompleter, SolveHooks};
use fedval_runtime::{CancelToken, PoolHandle};
use fedval_service::JobSpec;
use fedval_shapley::{comfedsv_monte_carlo, ComFedSv, EstimatorKind, MethodDefaults};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use std::collections::{HashMap, HashSet};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Per-layer measurements of one replayed job. Times are milliseconds
/// of the call named in the comment; a layer the job does not reach
/// stays 0.
#[derive(Debug, Clone, Default)]
pub struct Layers {
    /// `Scenario::build`.
    pub world_build_ms: f64,
    /// `World::try_train`.
    pub train_ms: f64,
    /// `UtilityOracle::new` (evaluates the per-round base losses).
    pub base_losses_ms: f64,
    /// `UtilityOracle::try_evaluate_plan` on the job's plan.
    pub eval_plan_ms: f64,
    pub cells_planned: u64,
    pub cells_computed: u64,
    pub cell_hits: u64,
    /// Completion solve inside `ComFedSv::run_with`.
    pub solve_ms: f64,
    pub sweeps: u64,
    pub columns: u64,
    pub observations: u64,
    /// Planning and problem assembly: `run_with` minus solve and
    /// estimate.
    pub observe_ms: f64,
    /// The estimator on the solved factors.
    pub estimate_ms: f64,
    /// `CellCache::with_dir`, charged to the first job on the cache.
    pub open_ms: f64,
    pub attach_ms: f64,
    pub attach_cells: u64,
    pub load_trace_ms: f64,
    pub store_trace_ms: f64,
    pub flush_ms: f64,
    pub spilled_cells: u64,
    pub resident_bytes: u64,
    pub corrupt_events: u64,
    pub disk_bytes: u64,
    /// Wall time of the whole replay.
    pub total_ms: f64,
}

/// A replayed job: its values and layer measurements.
pub struct Replay {
    pub values: Vec<f64>,
    /// Whether the world came from the memo, as the job's
    /// `JobCacheInfo::world_reused` reports it.
    pub world_reused: bool,
    pub layers: Layers,
}

fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Runs `f`, adding its wall time in milliseconds to `slot`.
fn span<R>(slot: &mut f64, f: impl FnOnce() -> R) -> R {
    let start = Instant::now();
    let out = f();
    *slot += ms_since(start);
    out
}

/// The trained product the service memoizes per world.
struct Trained {
    world: World,
    trace: TrainingTrace,
    base_losses: Vec<f64>,
}

/// The replay's counterpart of one `JobManager`: a cell cache over its
/// own directory and a world memo.
pub struct Shadow {
    cache: Arc<CellCache>,
    dir: PathBuf,
    worlds: HashMap<Fingerprint, Arc<Trained>>,
    /// Open time not yet charged to a replayed job.
    pending_open_ms: f64,
}

impl Shadow {
    /// Opens a cache over `dir` the way the workload opens the job's.
    pub fn open(dir: PathBuf) -> Self {
        let start = Instant::now();
        let cache = CellCache::with_dir(fedval_cache::DEFAULT_MEM_BUDGET_BYTES, &dir);
        Shadow {
            cache,
            dir,
            worlds: HashMap::new(),
            pending_open_ms: ms_since(start),
        }
    }

    /// Replays `spec` through the layers the service passes, in order:
    /// world memo → trace lookup, build, train, base losses and trace
    /// store → oracle → attach → plan evaluation → valuation → flush.
    pub fn replay(&mut self, spec: &JobSpec) -> Result<Replay, String> {
        let start = Instant::now();
        let mut l = Layers {
            open_ms: std::mem::take(&mut self.pending_open_ms),
            ..Layers::default()
        };
        let scenario = spec
            .resolve_scenario()
            .ok_or_else(|| format!("unknown scenario {:?}", spec.scenario))?;
        let world_fp = world_fingerprint(&scenario, spec.seed);
        let (trained, world_reused) = match self.worlds.get(&world_fp) {
            Some(trained) => (Arc::clone(trained), true),
            None => {
                let trained = Arc::new(self.train_world(&scenario, spec.seed, world_fp, &mut l)?);
                self.worlds.insert(world_fp, Arc::clone(&trained));
                (trained, false)
            }
        };

        let mut oracle = UtilityOracle::with_base_losses(
            &trained.trace,
            trained.world.prototype.as_ref(),
            &trained.world.test,
            trained.base_losses.clone(),
        );
        // The service's settings: the global pool, fanned out to at
        // least two chunks.
        oracle.set_pool(PoolHandle::Global);
        oracle.set_parallelism(PoolHandle::Global.threads().max(2));
        let trace_fp = oracle.fingerprint();
        let tier = oracle.tier().id();
        l.attach_cells = span(&mut l.attach_ms, || self.cache.attach(trace_fp, tier));
        // Already attached above, so this only routes the oracle's slots.
        oracle.set_shared_cache(Arc::clone(&self.cache));

        if spec.method != "comfedsv-mc" {
            return Err(format!(
                "the replay does not cover method {:?}",
                spec.method
            ));
        }
        let values = value_comfedsv_mc(&oracle, spec, &mut l)?;

        l.spilled_cells = span(&mut l.flush_ms, || self.cache.flush());
        let stats = self.cache.stats();
        l.resident_bytes = stats.resident_bytes as u64;
        l.corrupt_events = stats.corrupt_events;
        l.disk_bytes = crate::stats::cache_data_bytes(&self.dir);
        l.total_ms = ms_since(start);
        Ok(Replay {
            values,
            world_reused,
            layers: l,
        })
    }

    /// The service's path for a world it has not trained: look for a
    /// persisted trace, then build, train, evaluate base losses and
    /// persist. The workloads never leave a trace for the replay to find.
    fn train_world(
        &self,
        scenario: &Scenario,
        seed: u64,
        world_fp: Fingerprint,
        l: &mut Layers,
    ) -> Result<Trained, String> {
        if let TraceLoad::Ready(_) = span(&mut l.load_trace_ms, || self.cache.load_trace(world_fp))
        {
            return Err("the replay found a persisted trace for a cold world".into());
        }
        let _election = self.cache.try_train_lock(world_fp);
        let world = span(&mut l.world_build_ms, || scenario.build(seed));
        let trace = span(&mut l.train_ms, || {
            world.try_train(&scenario.fl_config(seed), &CancelToken::new())
        })
        .map_err(|_| "training cancelled".to_string())?;
        let base_losses = span(&mut l.base_losses_ms, || {
            UtilityOracle::new(&trace, world.prototype.as_ref(), &world.test)
                .base_losses()
                .to_vec()
        });
        let record = trace_to_record(&trace, &base_losses);
        if !span(&mut l.store_trace_ms, || {
            self.cache.store_trace(world_fp, &record)
        }) {
            return Err("store_trace did not persist the trace".into());
        }
        Ok(Trained {
            world,
            trace,
            base_losses,
        })
    }
}

/// The service's world identity: resolved scenario, seed and the FL
/// config the trainer runs. It keys the persisted trace, so a replay
/// that finds the trace the job wrote has the same key.
fn world_fingerprint(scenario: &Scenario, seed: u64) -> Fingerprint {
    let mut h = FingerprintHasher::new("fedval-world-v1");
    h.write_bytes(format!("{scenario:?}").as_bytes());
    h.write_u64(seed);
    let fl = scenario.fl_config(seed).cache_fingerprint();
    h.write_u64(fl.bits() as u64);
    h.write_u64((fl.bits() >> 64) as u64);
    h.finish()
}

fn trace_to_record(trace: &TrainingTrace, base_losses: &[f64]) -> TraceRecord {
    TraceRecord {
        num_clients: trace.num_clients as u64,
        rounds: trace
            .rounds
            .iter()
            .map(|r| TraceRound {
                global: r.global_params.clone(),
                locals: r.local_params.clone(),
                selected: r.selected.bits(),
                eta: r.eta,
            })
            .collect(),
        final_params: trace.final_params.clone(),
        base_losses: base_losses.to_vec(),
    }
}

/// Times the wrapped solver's `complete_with` calls.
struct TimedCompleter {
    inner: Box<dyn MatrixCompleter>,
    nanos: AtomicU64,
}

impl MatrixCompleter for TimedCompleter {
    fn name(&self) -> &'static str {
        self.inner.name()
    }

    fn complete_with(
        &self,
        problem: &CompletionProblem,
        hooks: SolveHooks<'_>,
    ) -> Result<Completion, CompletionError> {
        let start = Instant::now();
        let out = self.inner.complete_with(problem, hooks);
        self.nanos
            .fetch_add(start.elapsed().as_nanos() as u64, Ordering::Relaxed);
        out
    }
}

/// Runs `plan` through the oracle and records the cell counters.
fn evaluate(oracle: &UtilityOracle<'_>, plan: &EvalPlan, l: &mut Layers) -> Result<(), String> {
    let (calls, hits) = (oracle.loss_evaluations(), oracle.cell_hits());
    span(&mut l.eval_plan_ms, || {
        oracle.try_evaluate_plan(plan, &CancelToken::new())
    })
    .map_err(|_| "plan evaluation cancelled".to_string())?;
    l.cells_planned = plan.len() as u64;
    l.cells_computed = oracle.loss_evaluations() - calls;
    l.cell_hits = oracle.cell_hits() - hits;
    Ok(())
}

/// "comfedsv-mc" as the session registry builds it: the plan of
/// Algorithm 1 evaluated up front, then `ComFedSv::run_with` (whose own
/// observation step then only reads resident cells) with a timed solver.
fn value_comfedsv_mc(
    oracle: &UtilityOracle<'_>,
    spec: &JobSpec,
    l: &mut Layers,
) -> Result<Vec<f64>, String> {
    let n = oracle.num_clients();
    let defaults = MethodDefaults::default();
    let mut method = ComFedSv::exact(spec.rank)
        .with_lambda(defaults.lambda)
        .with_solver(defaults.solver)
        .with_seed(spec.seed);
    method.estimator = EstimatorKind::MonteCarlo {
        num_permutations: spec.permutations,
    };

    // The pipeline's plan: seeded permutations, their distinct
    // prefixes, each observed in every round whose cohort contains it.
    let mut rng = StdRng::seed_from_u64(spec.seed);
    let mut base: Vec<usize> = (0..n).collect();
    let permutations: Vec<Vec<usize>> = (0..spec.permutations)
        .map(|_| {
            base.shuffle(&mut rng);
            base.clone()
        })
        .collect();
    let mut prefixes = Vec::new();
    let mut seen = HashSet::new();
    for perm in &permutations {
        let mut prefix = Subset::EMPTY;
        for &i in perm {
            prefix = prefix.with(i);
            if seen.insert(prefix.bits()) {
                prefixes.push(prefix);
            }
        }
    }
    let mut plan = EvalPlan::new();
    for round in 0..oracle.num_rounds() {
        let cohort = oracle.trace().selected(round);
        for &p in &prefixes {
            if p.is_subset_of(cohort) {
                plan.add(round, p);
            }
        }
    }
    evaluate(oracle, &plan, l)?;

    let solver = TimedCompleter {
        inner: defaults.solver.completer(
            spec.rank,
            defaults.lambda,
            method.als_max_iters,
            spec.seed,
        ),
        nanos: AtomicU64::new(0),
    };
    let mut run_with_ms = 0.0;
    let out = span(&mut run_with_ms, || method.run_with(oracle, &solver))
        .map_err(|e| format!("run_with: {e}"))?;
    if out.permutations != permutations {
        return Err("the replayed plan's permutations differ from the pipeline's".into());
    }
    let estimate = span(&mut l.estimate_ms, || {
        comfedsv_monte_carlo(&out.factors, &out.problem, n, &out.permutations)
    });
    if crate::stats::value_checksum(&estimate) != crate::stats::value_checksum(&out.values) {
        return Err("the replayed estimator disagrees with run_with".into());
    }
    l.solve_ms = solver.nanos.load(Ordering::Relaxed) as f64 / 1e6;
    l.sweeps = out.objective_trace.len().saturating_sub(1) as u64;
    l.columns = out.problem.num_cols() as u64;
    l.observations = out.problem.num_observations() as u64;
    l.observe_ms = (run_with_ms - l.solve_ms - l.estimate_ms).max(0.0);
    Ok(out.values)
}
