//! The job layer: specs, lifecycle state, and the [`JobManager`] that
//! multiplexes concurrent valuation jobs onto one worker pool.
//!
//! Each submitted [`JobSpec`] becomes a [`Job`] running on its own
//! manager thread: the thread materializes the scenario world, trains
//! the federated trace (cancellably — a `DELETE` during training stops
//! at the next round boundary), and drives a [`ValuationSession`]
//! against a per-job [`UtilityOracle`]. Jobs
//! share *compute* (the pool) and *read-only derived state* — the
//! manager memoizes each `(scenario, seed)` world + trained trace, and
//! every oracle attaches to one process-shared
//! [`CellCache`] so a utility cell any job
//! evaluated is free for all later jobs — but never mutable state:
//! each job keeps its own RNG seeding and cancel token, and cache
//! sharing is invisible in result bytes (cells are pure functions of
//! the fingerprinted trace). The whole run is wrapped in
//! [`with_job_class`], so every pool submission the valuation stack
//! makes — oracle batches, completion solves, nested training scopes —
//! inherits the job's priority class and lands in that class's queues
//! under fair-share scheduling.
//!
//! Because work placement never affects results (the `fedval_runtime`
//! determinism contract), a job's report is bit-identical whether it
//! ran alone or interleaved with any number of concurrent jobs — the
//! service's core correctness property, asserted in this crate's
//! `concurrency` test.

use comfedsv::experiments::{Scenario, World};
use fedval_cache::{
    CacheStats, CellCache, Fingerprint, FingerprintHasher, TraceLoad, TraceRecord, TraceRound,
};
use fedval_fl::trainer::RoundRecord;
use fedval_fl::{ClientBehavior, Subset, TrainingTrace, UtilityOracle};
use fedval_linalg::DeterminismTier;
use fedval_runtime::{with_job_class, CancelToken, Cancelled, JobClass, PoolHandle};
use fedval_shapley::{ValuationError, ValuationReport, ValuationSession};
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// What to value and how, as submitted by a client.
///
/// `method` keys the [`ValuationSession`] registry; `scenario` keys
/// [`Scenario::catalog`]. The optional overrides reshape the scenario's
/// world (clients, data sizes, training length) without defining new
/// scenarios; method hyper-parameters mirror the session builder's.
#[derive(Debug, Clone)]
pub struct JobSpec {
    /// Registry key: "exact", "fedsv", "comfedsv", "tmc", ….
    pub method: String,
    /// Catalog scenario the world is built from.
    pub scenario: String,
    /// Seed for world generation, training, and valuation.
    pub seed: u64,
    /// Numeric tier override (`None`: the oracle's default tier).
    pub tier: Option<DeterminismTier>,
    /// Scheduling class of every pool submission this job makes.
    pub class: JobClass,
    /// Completion rank for the ComFedSV methods.
    pub rank: usize,
    /// Permutation budget for "comfedsv-mc" and "tmc".
    pub permutations: usize,
    /// Coalition-sample budget for "group-testing".
    pub samples: usize,
    /// Override: number of clients in the world (1 to
    /// [`Subset::MAX_CLIENTS`]; more is rejected at submission).
    pub num_clients: Option<usize>,
    /// Override: training examples per client.
    pub samples_per_client: Option<usize>,
    /// Override: FedAvg rounds.
    pub rounds: Option<usize>,
    /// Override: clients selected per round.
    pub clients_per_round: Option<usize>,
    /// Wall-clock deadline in milliseconds. A job still running when it
    /// expires is stopped at its next cancellation checkpoint and fails
    /// with [`ValuationError::Deadline`]'s message (`None`: no limit).
    pub deadline_ms: Option<u64>,
}

impl JobSpec {
    /// A spec for `method` with the service defaults: "iid_baseline",
    /// seed 0, batch class, rank 4, 80 permutations, 200 samples, no
    /// world overrides.
    pub fn new(method: impl Into<String>) -> Self {
        JobSpec {
            method: method.into(),
            scenario: "iid_baseline".into(),
            seed: 0,
            tier: None,
            class: JobClass::Batch,
            rank: 4,
            permutations: 80,
            samples: 200,
            num_clients: None,
            samples_per_client: None,
            rounds: None,
            clients_per_round: None,
            deadline_ms: None,
        }
    }

    /// The scenario with this spec's world overrides applied, or `None`
    /// for an unknown scenario name. Behavior vectors are resized along
    /// with `num_clients` (added clients are honest), and
    /// `clients_per_round` is clamped to the client count.
    pub fn resolve_scenario(&self) -> Option<Scenario> {
        let mut scenario = Scenario::by_name(&self.scenario)?;
        if let Some(n) = self.num_clients {
            scenario.num_clients = n;
            scenario.behaviors.resize(n, ClientBehavior::Honest);
        }
        if let Some(n) = self.samples_per_client {
            scenario.samples_per_client = n;
        }
        if let Some(n) = self.rounds {
            scenario.rounds = n;
        }
        if let Some(n) = self.clients_per_round {
            scenario.clients_per_round = n;
        }
        scenario.clients_per_round = scenario.clients_per_round.min(scenario.num_clients).max(1);
        Some(scenario)
    }
}

/// Lifecycle of a [`Job`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStatus {
    /// Accepted; the job thread has not started valuing yet.
    Queued,
    /// World building, training, or valuation in progress.
    Running,
    /// Finished with a report.
    Done,
    /// Stopped by [`JobManager::cancel`] (or a pre-cancelled token).
    Cancelled,
    /// Finished with an error (bad method for the oracle, panic, …).
    Failed,
}

impl JobStatus {
    /// Stable lowercase wire name.
    pub fn name(self) -> &'static str {
        match self {
            JobStatus::Queued => "queued",
            JobStatus::Running => "running",
            JobStatus::Done => "done",
            JobStatus::Cancelled => "cancelled",
            JobStatus::Failed => "failed",
        }
    }

    /// Whether the job has stopped (successfully or not).
    pub fn is_terminal(self) -> bool {
        matches!(
            self,
            JobStatus::Done | JobStatus::Cancelled | JobStatus::Failed
        )
    }
}

/// How a job's oracle interacted with the shared cell-cache tier,
/// captured when the job finishes and echoed in its status document.
#[derive(Debug, Clone, Copy, Default)]
pub struct JobCacheInfo {
    /// Whether the trained world/trace came from the manager's memo
    /// (true: this job skipped world building and training entirely).
    pub world_reused: bool,
    /// Planned utility cells served from the shared cache without a
    /// loss evaluation.
    pub cell_hits: u64,
    /// Loss evaluations this job actually performed.
    pub cells_computed: u64,
    /// Cells found already persisted on disk when the oracle attached
    /// (0 without a `FEDVAL_CACHE_DIR`-backed cache).
    pub disk_warm_cells: u64,
    /// Whether the shared cache's disk tier was degraded (unusable or
    /// abandoned after repeated write failures) when this job finished
    /// — the job still completed, served from memory.
    pub cache_degraded: bool,
}

/// Mutable run state guarded by the job's mutex.
struct JobState {
    status: JobStatus,
    report: Option<ValuationReport>,
    error: Option<String>,
    cache: Option<JobCacheInfo>,
    started: Option<Instant>,
    finished: Option<Instant>,
}

/// Append-only log of line-delimited JSON event strings, with a
/// condition variable so streamers can block for new entries.
struct EventLog {
    entries: Mutex<Vec<String>>,
    appended: Condvar,
}

impl EventLog {
    fn push(&self, line: String) {
        let mut entries = self.entries.lock().unwrap_or_else(|e| e.into_inner());
        entries.push(line);
        drop(entries);
        self.appended.notify_all();
    }
}

/// One submitted valuation job. Obtained from [`JobManager::submit`] /
/// [`JobManager::get`]; shared between the job thread, the HTTP layer,
/// and event streamers.
pub struct Job {
    id: u64,
    spec: JobSpec,
    cancel: CancelToken,
    submitted: Instant,
    state: Mutex<JobState>,
    state_changed: Condvar,
    events: EventLog,
    /// Set by the deadline watcher before it cancels: distinguishes a
    /// deadline stop (→ `Failed`) from a client cancel (→ `Cancelled`).
    deadline_fired: AtomicBool,
}

impl std::fmt::Debug for Job {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Job")
            .field("id", &self.id)
            .field("method", &self.spec.method)
            .field("status", &self.status())
            .finish_non_exhaustive()
    }
}

impl Job {
    /// The manager-assigned job id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The spec this job was submitted with.
    pub fn spec(&self) -> &JobSpec {
        &self.spec
    }

    /// Current lifecycle status.
    pub fn status(&self) -> JobStatus {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).status
    }

    /// The finished report, when [`JobStatus::Done`].
    pub fn report(&self) -> Option<ValuationReport> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .report
            .clone()
    }

    /// The failure message, when [`JobStatus::Failed`].
    pub fn error(&self) -> Option<String> {
        self.state
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .error
            .clone()
    }

    /// Shared-cache accounting for this job, filled in when the job's
    /// valuation finishes (`None` while queued/training, or when the
    /// job never reached the oracle).
    pub fn cache_info(&self) -> Option<JobCacheInfo> {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).cache
    }

    fn set_cache_info(&self, info: JobCacheInfo) {
        self.state.lock().unwrap_or_else(|e| e.into_inner()).cache = Some(info);
    }

    /// Milliseconds from submission until the job thread started
    /// valuing (so far, if still queued).
    pub fn queued_ms(&self) -> f64 {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let end = state.started.unwrap_or_else(Instant::now);
        end.duration_since(self.submitted).as_secs_f64() * 1e3
    }

    /// Milliseconds the job has been (or was) running; 0 while queued.
    pub fn run_ms(&self) -> f64 {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        match state.started {
            Some(started) => {
                let end = state.finished.unwrap_or_else(Instant::now);
                end.duration_since(started).as_secs_f64() * 1e3
            }
            None => 0.0,
        }
    }

    /// Milliseconds from submission to completion (so far, if not
    /// terminal) — the end-to-end latency the service benchmark reports.
    pub fn total_ms(&self) -> f64 {
        let state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        let end = state.finished.unwrap_or_else(Instant::now);
        end.duration_since(self.submitted).as_secs_f64() * 1e3
    }

    /// Cancels the job: in-flight training stops at its next round
    /// boundary, and an in-flight valuation stops at its next
    /// permutation/sweep/batch boundary. If this job was training a
    /// memoized world that other jobs are waiting on, one of the
    /// waiters takes over the training.
    pub fn cancel(&self) {
        self.cancel.cancel();
        self.events.push(format!(
            "{{\"job\": {}, \"stage\": \"cancel_requested\"}}",
            self.id
        ));
    }

    /// Blocks until the job is terminal, returning the final status.
    pub fn wait(&self) -> JobStatus {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        while !state.status.is_terminal() {
            state = self
                .state_changed
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
        state.status
    }

    /// Event lines from index `from` onward, plus whether more may
    /// still arrive (`false` once the job is terminal and the log is
    /// fully drained). Blocks up to `timeout` waiting for news when
    /// nothing is pending.
    pub fn events_since(&self, from: usize, timeout: Duration) -> (Vec<String>, bool) {
        let mut entries = self
            .events
            .entries
            .lock()
            .unwrap_or_else(|e| e.into_inner());
        if entries.len() <= from && !self.status().is_terminal() {
            let (guard, _) = self
                .events
                .appended
                .wait_timeout(entries, timeout)
                .unwrap_or_else(|e| e.into_inner());
            entries = guard;
        }
        let fresh: Vec<String> = entries[from.min(entries.len())..].to_vec();
        let drained_len = entries.len();
        drop(entries);
        // More events can only arrive while the job is live; if it went
        // terminal we must re-check the log *after* reading status so a
        // terminal event pushed between our snapshot and the status
        // read is not lost.
        let live = !self.status().is_terminal();
        let more = live || {
            let entries = self
                .events
                .entries
                .lock()
                .unwrap_or_else(|e| e.into_inner());
            entries.len() > drained_len
        };
        (fresh, more)
    }

    fn set_status(&self, status: JobStatus) {
        let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
        state.status = status;
        match status {
            JobStatus::Running => state.started = Some(Instant::now()),
            s if s.is_terminal() => state.finished = Some(Instant::now()),
            _ => {}
        }
        drop(state);
        self.state_changed.notify_all();
    }

    fn finish(&self, outcome: Result<ValuationReport, String>, cancelled: bool) {
        let status = if cancelled {
            JobStatus::Cancelled
        } else if outcome.is_ok() {
            JobStatus::Done
        } else {
            JobStatus::Failed
        };
        {
            let mut state = self.state.lock().unwrap_or_else(|e| e.into_inner());
            match outcome {
                Ok(report) => state.report = Some(report),
                Err(message) => state.error = Some(message),
            }
        }
        self.events.push(format!(
            "{{\"job\": {}, \"stage\": \"{}\"}}",
            self.id,
            status.name()
        ));
        self.set_status(status);
    }

    /// Terminal transition after a cancellation checkpoint fired:
    /// `Failed` with the deadline error if the deadline watcher pulled
    /// the token, `Cancelled` otherwise.
    fn finish_interrupted(&self, what: &str) {
        if self.deadline_fired.load(Ordering::Acquire) {
            let limit_ms = self.spec.deadline_ms.unwrap_or(0);
            self.finish(
                Err(ValuationError::Deadline { limit_ms }.to_string()),
                false,
            );
        } else {
            self.finish(Err(what.into()), true);
        }
    }
}

/// Errors [`JobManager::submit`] reports without creating a job.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SubmitError {
    /// `method` is not in the session registry.
    UnknownMethod(String),
    /// `scenario` is not in the catalog.
    UnknownScenario(String),
    /// The manager is at its concurrent-job capacity.
    AtCapacity(usize),
    /// A structurally invalid spec (zero clients, …).
    InvalidSpec(String),
    /// The manager is draining for shutdown and accepts no new jobs.
    ShuttingDown,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::UnknownMethod(m) => write!(f, "unknown method {m:?}"),
            SubmitError::UnknownScenario(s) => write!(f, "unknown scenario {s:?}"),
            SubmitError::AtCapacity(n) => write!(f, "at capacity ({n} active jobs)"),
            SubmitError::InvalidSpec(msg) => write!(f, "invalid spec: {msg}"),
            SubmitError::ShuttingDown => write!(f, "service is shutting down"),
        }
    }
}

impl std::error::Error for SubmitError {}

/// A memoized `(scenario, seed)` product: the built world, its trained
/// trace, and the per-round base losses the first oracle evaluated.
/// Shared read-only between every job with the same key, so repeat and
/// concurrent submissions train once and value many times.
struct TrainedWorld {
    world: World,
    trace: TrainingTrace,
    base_losses: Vec<f64>,
}

/// State of one world-memo slot.
enum WorldState {
    /// Some job thread is building/training this world right now;
    /// waiters block on the memo condvar. If the builder is cancelled
    /// or panics it removes the entry, and a waiter takes over.
    Building,
    /// Trained and immutable.
    Ready(Arc<TrainedWorld>),
}

/// The world/trace memo: one slot per [`world_fingerprint`] (hex), the
/// same key the disk cache persists traces and runs training elections
/// under — so the in-process memo and the cross-process protocol agree
/// on world identity.
struct WorldMemo {
    map: Mutex<HashMap<String, WorldState>>,
    changed: Condvar,
}

/// Removes a `Building` slot on unwind so a panicking builder never
/// strands waiters; disarmed when the slot transitions normally.
struct BuildGuard<'a> {
    memo: &'a WorldMemo,
    key: &'a str,
    armed: bool,
}

impl Drop for BuildGuard<'_> {
    fn drop(&mut self) {
        if self.armed {
            let mut map = self.memo.map.lock().unwrap_or_else(|e| e.into_inner());
            map.remove(self.key);
            drop(map);
            self.memo.changed.notify_all();
        }
    }
}

struct ManagerInner {
    pool: PoolHandle,
    /// Oracle parallelism per job (`None`: `max(2, pool width)` so even
    /// a 1-core host fans cells out into schedulable chunks instead of
    /// taking the oracle's inline path).
    parallelism: Option<usize>,
    /// The process-shared utility-cell cache every job's oracle
    /// attaches to (possibly disk-backed via `FEDVAL_CACHE_DIR`).
    cache: Arc<CellCache>,
    /// Trained-world memo keyed by resolved scenario + seed.
    worlds: WorldMemo,
    max_active: usize,
    active: AtomicUsize,
    next_id: AtomicU64,
    jobs: Mutex<Vec<Arc<Job>>>,
    /// Set by [`JobManager::begin_shutdown`]: submissions are refused
    /// while running jobs drain.
    draining: AtomicBool,
}

/// Multiplexes concurrent valuation jobs onto one worker pool.
///
/// Each job runs on its own thread; the shared pool's fair-share
/// scheduler arbitrates compute between job classes, the manager's
/// world memo lets jobs with the same `(scenario, seed)` share one
/// trained trace, and every job's oracle attaches to the manager's
/// shared [`CellCache`] so evaluated utility cells are reused across
/// jobs (and across processes, when the cache is disk-backed). The
/// manager retains every job handle, so status and reports stay
/// queryable after completion.
#[derive(Clone)]
pub struct JobManager {
    inner: Arc<ManagerInner>,
}

impl Default for JobManager {
    fn default() -> Self {
        Self::new()
    }
}

impl JobManager {
    /// Default capacity for concurrently active jobs.
    pub const DEFAULT_MAX_ACTIVE: usize = 32;

    /// A manager submitting to [`Pool::global`](fedval_runtime::Pool::global).
    pub fn new() -> Self {
        Self::with_pool(PoolHandle::Global)
    }

    /// A manager submitting to `pool` (benchmarks pin owned pools with
    /// a chosen [`SchedPolicy`](fedval_runtime::SchedPolicy)). The cell
    /// cache comes from the environment
    /// ([`CellCache::from_env`]: `FEDVAL_CACHE_MEM_MB`,
    /// `FEDVAL_CACHE_DIR`).
    pub fn with_pool(pool: PoolHandle) -> Self {
        Self::with_pool_and_cache(pool, CellCache::from_env())
    }

    /// [`Self::with_pool`] with an explicit cell cache — benchmarks and
    /// tests pin disk directories and adversarially small memory
    /// budgets this way.
    pub fn with_pool_and_cache(pool: PoolHandle, cache: Arc<CellCache>) -> Self {
        JobManager {
            inner: Arc::new(ManagerInner {
                pool,
                parallelism: None,
                cache,
                worlds: WorldMemo {
                    map: Mutex::new(HashMap::new()),
                    changed: Condvar::new(),
                },
                max_active: Self::DEFAULT_MAX_ACTIVE,
                active: AtomicUsize::new(0),
                next_id: AtomicU64::new(1),
                jobs: Mutex::new(Vec::new()),
                draining: AtomicBool::new(false),
            }),
        }
    }

    /// The shared utility-cell cache this manager's oracles attach to.
    pub fn cache(&self) -> &Arc<CellCache> {
        &self.inner.cache
    }

    /// Current occupancy/eviction/spill statistics of the shared cache.
    pub fn cache_stats(&self) -> CacheStats {
        self.inner.cache.stats()
    }

    /// The registry method keys jobs may request.
    pub fn method_names() -> Vec<String> {
        ValuationSession::builder().build().method_names()
    }

    /// The catalog scenario names jobs may request.
    pub fn scenario_names() -> Vec<String> {
        Scenario::catalog()
            .into_iter()
            .map(|s| s.name.to_string())
            .collect()
    }

    /// The pool this manager's jobs submit to.
    pub fn pool(&self) -> &PoolHandle {
        &self.inner.pool
    }

    /// Number of jobs currently queued or running.
    pub fn active_jobs(&self) -> usize {
        self.inner.active.load(Ordering::Acquire)
    }

    /// Maximum concurrently active (queued + running) jobs; submissions
    /// beyond it are shed with [`SubmitError::AtCapacity`].
    pub fn capacity(&self) -> usize {
        self.inner.max_active
    }

    /// Validates `spec`, spawns its job thread, and returns the job
    /// handle. The call returns as soon as the job is accepted; poll
    /// [`Job::status`] / block on [`Job::wait`] for completion.
    pub fn submit(&self, spec: JobSpec) -> Result<Arc<Job>, SubmitError> {
        if self.is_draining() {
            return Err(SubmitError::ShuttingDown);
        }
        if !Self::method_names().contains(&spec.method) {
            return Err(SubmitError::UnknownMethod(spec.method));
        }
        let scenario = spec
            .resolve_scenario()
            .ok_or_else(|| SubmitError::UnknownScenario(spec.scenario.clone()))?;
        if scenario.num_clients == 0 {
            return Err(SubmitError::InvalidSpec("num_clients must be > 0".into()));
        }
        if scenario.num_clients > Subset::MAX_CLIENTS {
            return Err(SubmitError::InvalidSpec(format!(
                "num_clients must be <= {}",
                Subset::MAX_CLIENTS
            )));
        }
        if scenario.samples_per_client == 0 {
            return Err(SubmitError::InvalidSpec(
                "samples_per_client must be > 0".into(),
            ));
        }
        if scenario.rounds == 0 {
            return Err(SubmitError::InvalidSpec("rounds must be > 0".into()));
        }
        // Reserve an active slot before spawning; releases at job end.
        let active = self.inner.active.fetch_add(1, Ordering::AcqRel);
        if active >= self.inner.max_active {
            self.inner.active.fetch_sub(1, Ordering::AcqRel);
            return Err(SubmitError::AtCapacity(self.inner.max_active));
        }
        let id = self.inner.next_id.fetch_add(1, Ordering::Relaxed);
        let job = Arc::new(Job {
            id,
            spec,
            cancel: CancelToken::new(),
            submitted: Instant::now(),
            state: Mutex::new(JobState {
                status: JobStatus::Queued,
                report: None,
                error: None,
                cache: None,
                started: None,
                finished: None,
            }),
            state_changed: Condvar::new(),
            events: EventLog {
                entries: Mutex::new(Vec::new()),
                appended: Condvar::new(),
            },
            deadline_fired: AtomicBool::new(false),
        });
        self.inner
            .jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .push(Arc::clone(&job));
        job.events.push(format!(
            "{{\"job\": {id}, \"stage\": \"submitted\", \"method\": \"{}\", \"scenario\": \"{}\", \"class\": \"{}\"}}",
            fedval_jsonio::escaped(&job.spec.method),
            fedval_jsonio::escaped(&job.spec.scenario),
            job.spec.class
        ));
        if let Some(limit_ms) = job.spec.deadline_ms {
            spawn_deadline_watcher(Arc::clone(&job), limit_ms);
        }
        let inner = Arc::clone(&self.inner);
        let thread_job = Arc::clone(&job);
        std::thread::Builder::new()
            .name(format!("fedval-job-{id}"))
            .spawn(move || {
                run_job(&inner, &thread_job, scenario);
                inner.active.fetch_sub(1, Ordering::AcqRel);
            })
            .expect("spawn job thread");
        Ok(job)
    }

    /// The job with this id, if it exists.
    pub fn get(&self, id: u64) -> Option<Arc<Job>> {
        self.inner
            .jobs
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .iter()
            .find(|j| j.id == id)
            .cloned()
    }

    /// Cancels the job with this id; returns its handle, or `None` for
    /// an unknown id. Cancelling a terminal job is a no-op.
    pub fn cancel(&self, id: u64) -> Option<Arc<Job>> {
        let job = self.get(id)?;
        if !job.status().is_terminal() {
            job.cancel();
        }
        Some(job)
    }

    /// Stops accepting new jobs ([`SubmitError::ShuttingDown`]); running
    /// jobs continue. Idempotent; the first step of [`Self::shutdown`].
    pub fn begin_shutdown(&self) {
        self.inner.draining.store(true, Ordering::Release);
    }

    /// Whether the manager is refusing new submissions for shutdown.
    pub fn is_draining(&self) -> bool {
        self.inner.draining.load(Ordering::Acquire)
    }

    /// Graceful shutdown: stop accepting, let running jobs drain for
    /// half of `grace`, checkpoint-cancel any stragglers (they stop at
    /// their next round/permutation boundary) within the remainder,
    /// then flush the shared cache so the directory is warm for the
    /// next process. Blocks up to ~`grace`; the summary reports what
    /// happened. Safe to call more than once.
    pub fn shutdown(&self, grace: Duration) -> ShutdownSummary {
        self.begin_shutdown();
        let deadline = Instant::now() + grace;
        let drain_until = Instant::now() + grace / 2;
        while self.active_jobs() > 0 && Instant::now() < drain_until {
            std::thread::sleep(Duration::from_millis(5));
        }
        let mut jobs_cancelled = 0usize;
        if self.active_jobs() > 0 {
            let live: Vec<Arc<Job>> = self
                .inner
                .jobs
                .lock()
                .unwrap_or_else(|e| e.into_inner())
                .iter()
                .filter(|j| !j.status().is_terminal())
                .cloned()
                .collect();
            for job in &live {
                job.cancel();
                jobs_cancelled += 1;
            }
            while self.active_jobs() > 0 && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(5));
            }
        }
        let drained = self.active_jobs() == 0;
        // Let in-flight pool work settle, then persist everything dirty.
        self.inner
            .pool
            .get()
            .wait_idle(deadline.saturating_duration_since(Instant::now()));
        let cells_flushed = self.inner.cache.flush();
        ShutdownSummary {
            drained,
            jobs_cancelled,
            cells_flushed,
        }
    }
}

/// What a [`JobManager::shutdown`] call accomplished.
#[derive(Debug, Clone, Copy)]
pub struct ShutdownSummary {
    /// Every job reached a terminal state within the grace period.
    pub drained: bool,
    /// Jobs that were checkpoint-cancelled because they outlived the
    /// drain phase.
    pub jobs_cancelled: usize,
    /// Dirty cells persisted by the final flush.
    pub cells_flushed: u64,
}

/// Arms a job's wall-clock deadline: a watcher thread blocks on the
/// job's state condvar until it turns terminal (watcher exits quietly)
/// or the deadline passes (watcher records the deadline and pulls the
/// cancel token, stopping the job at its next checkpoint).
fn spawn_deadline_watcher(job: Arc<Job>, limit_ms: u64) {
    let spawned = std::thread::Builder::new()
        .name(format!("fedval-deadline-{}", job.id))
        .spawn(move || {
            let deadline = Instant::now() + Duration::from_millis(limit_ms);
            let mut state = job.state.lock().unwrap_or_else(|e| e.into_inner());
            loop {
                if state.status.is_terminal() {
                    return;
                }
                let now = Instant::now();
                if now >= deadline {
                    break;
                }
                let (guard, _) = job
                    .state_changed
                    .wait_timeout(state, deadline - now)
                    .unwrap_or_else(|e| e.into_inner());
                state = guard;
            }
            drop(state);
            job.deadline_fired.store(true, Ordering::Release);
            job.events.push(format!(
                "{{\"job\": {}, \"stage\": \"deadline\", \"limit_ms\": {limit_ms}}}",
                job.id
            ));
            job.cancel.cancel();
        });
    if let Err(e) = spawned {
        // No watcher means no deadline enforcement; the job itself is
        // unaffected. Enforce what we can: log and move on.
        eprintln!("fedval_service: deadline watcher spawn failed: {e}");
    }
}

/// The job thread body: world → trace → oracle → session → report,
/// entirely under the job's class tag.
fn run_job(inner: &ManagerInner, job: &Arc<Job>, scenario: Scenario) {
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        with_job_class(job.spec.class, || run_job_inner(inner, job, scenario))
    }));
    match outcome {
        Ok(()) => {}
        Err(payload) => {
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| s.to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_else(|| "job panicked".into());
            job.finish(Err(format!("panic: {message}")), false);
        }
    }
}

/// The cross-process identity of a job's world: the resolved scenario,
/// the seed, and the fl-config the trainer will run (which carries the
/// training tier, so `FEDVAL_TIER=fast` and bit-exact processes never
/// share a trace). Computable *before* training — this is what keys the
/// persisted trace and the training-election lock.
fn world_fingerprint(scenario: &Scenario, seed: u64) -> Fingerprint {
    let mut h = FingerprintHasher::new("fedval-world-v1");
    h.write_bytes(format!("{scenario:?}").as_bytes());
    h.write_u64(seed);
    let fl = scenario.fl_config(seed).cache_fingerprint();
    h.write_u64(fl.bits() as u64);
    h.write_u64((fl.bits() >> 64) as u64);
    h.finish()
}

/// Returns the memoized trained world for `scenario` + the job's seed,
/// rehydrating it from a persisted trace or building and training it
/// (cancellably) if this job gets there first. The boolean is `true`
/// when training was skipped (in-process memo hit or persisted trace).
fn obtain_world(
    inner: &ManagerInner,
    job: &Arc<Job>,
    scenario: &Scenario,
) -> Result<(Arc<TrainedWorld>, bool), Cancelled> {
    let world = world_fingerprint(scenario, job.spec.seed);
    let key = world.to_hex();
    {
        let mut map = inner.worlds.map.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            match map.get(&key) {
                Some(WorldState::Ready(trained)) => return Ok((Arc::clone(trained), true)),
                Some(WorldState::Building) => {
                    // A peer is training this world. Wait with a
                    // timeout so our own cancellation stays live: the
                    // builder only notifies on completion or
                    // abandonment.
                    job.cancel.check()?;
                    let (guard, _) = inner
                        .worlds
                        .changed
                        .wait_timeout(map, Duration::from_millis(25))
                        .unwrap_or_else(|e| e.into_inner());
                    map = guard;
                }
                None => {
                    map.insert(key.clone(), WorldState::Building);
                    break;
                }
            }
        }
    }
    // This job is the process's builder. The guard clears the slot if
    // the build is cancelled or panics, waking a waiter to take over.
    let mut guard = BuildGuard {
        memo: &inner.worlds,
        key: &key,
        armed: true,
    };
    let (trained, reused) = obtain_world_cross_process(inner, job, scenario, world)?;
    let mut map = inner.worlds.map.lock().unwrap_or_else(|e| e.into_inner());
    map.insert(key.clone(), WorldState::Ready(Arc::clone(&trained)));
    guard.armed = false;
    drop(map);
    inner.worlds.changed.notify_all();
    Ok((trained, reused))
}

/// The cross-process half of [`obtain_world`], entered by the single
/// in-process builder: prefer a persisted trace; otherwise run the
/// per-world training election — the winner trains and persists, losers
/// poll for the winner's trace (and inherit the election if the winner
/// dies: the kernel releases its lock). Every path yields bit-identical
/// state, so the election is purely an optimization against duplicated
/// work — an unavailable lock degrades to uncoordinated training.
fn obtain_world_cross_process(
    inner: &ManagerInner,
    job: &Arc<Job>,
    scenario: &Scenario,
    world: Fingerprint,
) -> Result<(Arc<TrainedWorld>, bool), Cancelled> {
    let mut waiting_logged = false;
    loop {
        if let TraceLoad::Ready(record) = inner.cache.load_trace(world) {
            match rehydrate(record, scenario, job.spec.seed) {
                Some(trained) => {
                    job.events.push(format!(
                        "{{\"job\": {}, \"stage\": \"trace_rehydrated\", \"world\": \"{}\"}}",
                        job.id,
                        world.to_hex()
                    ));
                    return Ok((trained, true));
                }
                None => {
                    // Checksum-valid but inconsistent with the world it
                    // claims to be (should be unreachable) — retrain.
                    eprintln!(
                        "fedval_service: persisted trace {} inconsistent with its world; \
                         retraining",
                        world.to_hex()
                    );
                }
            }
        }
        match inner.cache.try_train_lock(world) {
            Some(_election) => {
                // Won. Re-check under the lock: the previous holder may
                // have persisted between our load and this acquisition.
                if let TraceLoad::Ready(record) = inner.cache.load_trace(world) {
                    if let Some(trained) = rehydrate(record, scenario, job.spec.seed) {
                        return Ok((trained, true));
                    }
                }
                let trained = build_and_train(job, scenario)?;
                inner.cache.store_trace(
                    world,
                    &trace_to_record(&trained.trace, &trained.base_losses),
                );
                return Ok((trained, false));
            }
            None => {
                // Another process is training this exact world; poll
                // for its persisted trace, staying cancellable.
                if !waiting_logged {
                    waiting_logged = true;
                    job.events.push(format!(
                        "{{\"job\": {}, \"stage\": \"train_wait\", \"world\": \"{}\"}}",
                        job.id,
                        world.to_hex()
                    ));
                }
                job.cancel.check()?;
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
}

/// Converts a trained product into the cache crate's neutral persisted
/// form (floats and masks only).
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

/// Rebuilds a [`TrainedWorld`] from a verified persisted trace: the
/// world itself is deterministic from `(scenario, seed)`, so only the
/// training products travel through disk. Cross-checks the record
/// against the freshly built world — any inconsistency (which the
/// checksum should make unreachable) rejects the record and retrains.
fn rehydrate(record: TraceRecord, scenario: &Scenario, seed: u64) -> Option<Arc<TrainedWorld>> {
    let world = scenario.build(seed);
    let config = scenario.fl_config(seed);
    let num_clients = record.num_clients as usize;
    if num_clients != world.clients.len()
        || num_clients > Subset::MAX_CLIENTS
        || record.params_len() != world.prototype.num_params()
        || record.rounds.len() != config.rounds
        || record.base_losses.len() != record.rounds.len()
    {
        return None;
    }
    let full = Subset::full(num_clients).bits();
    let mut rounds = Vec::with_capacity(record.rounds.len());
    for r in record.rounds {
        if r.selected & !full != 0 || r.selected == 0 {
            return None;
        }
        rounds.push(RoundRecord {
            global_params: r.global,
            local_params: r.locals,
            selected: Subset::from_bits(r.selected),
            eta: r.eta,
        });
    }
    let trace = TrainingTrace {
        rounds,
        final_params: record.final_params,
        num_clients,
    };
    Some(Arc::new(TrainedWorld {
        world,
        trace,
        base_losses: record.base_losses,
    }))
}

/// The builder side of [`obtain_world`]: world construction, one
/// cancellable FedAvg run, and the one-time base-loss evaluation every
/// later oracle over this trace reuses.
fn build_and_train(job: &Arc<Job>, scenario: &Scenario) -> Result<Arc<TrainedWorld>, Cancelled> {
    job.cancel.check()?;
    job.events.push(format!(
        "{{\"job\": {}, \"stage\": \"build_world\", \"clients\": {}}}",
        job.id, scenario.num_clients
    ));
    let world = scenario.build(job.spec.seed);
    job.events.push(format!(
        "{{\"job\": {}, \"stage\": \"train\", \"rounds\": {}}}",
        job.id, scenario.rounds
    ));
    let trace = world.try_train(&scenario.fl_config(job.spec.seed), &job.cancel)?;
    let base_losses = {
        let oracle = world.oracle(&trace);
        oracle.base_losses().to_vec()
    };
    Ok(Arc::new(TrainedWorld {
        world,
        trace,
        base_losses,
    }))
}

fn run_job_inner(inner: &ManagerInner, job: &Arc<Job>, scenario: Scenario) {
    job.set_status(JobStatus::Running);
    let spec = &job.spec;
    if job.cancel.is_cancelled() {
        job.finish_interrupted("cancelled before start");
        return;
    }
    let (trained, world_reused) = match obtain_world(inner, job, &scenario) {
        Ok(pair) => pair,
        Err(Cancelled) => {
            job.finish_interrupted("cancelled during training");
            return;
        }
    };
    if world_reused {
        job.events.push(format!(
            "{{\"job\": {}, \"stage\": \"world_reused\", \"clients\": {}}}",
            job.id, scenario.num_clients
        ));
    }
    let mut oracle = UtilityOracle::with_base_losses(
        &trained.trace,
        trained.world.prototype.as_ref(),
        &trained.world.test,
        trained.base_losses.clone(),
    );
    oracle.set_pool(inner.pool.clone());
    // Fan cells out into schedulable chunks even on narrow pools: at
    // parallelism 1 the oracle takes a fully-inline path that the
    // fair-share scheduler never sees.
    oracle.set_parallelism(
        inner
            .parallelism
            .unwrap_or_else(|| inner.pool.threads().max(2)),
    );
    // Apply the spec's tier to the oracle itself (not just the session)
    // so the session never needs a fresh-cache retier clone — which
    // would detach the shared cache. Tier before attaching: the cache
    // keys cells by tier, and attaching loads that tier's disk
    // segments.
    if let Some(tier) = spec.tier {
        oracle.set_tier(tier);
    }
    oracle.set_shared_cache(Arc::clone(&inner.cache));
    let progress_job = Arc::clone(job);
    let mut builder = ValuationSession::builder()
        .rank(spec.rank)
        .permutations(spec.permutations)
        .samples(spec.samples)
        .seed(spec.seed)
        .cancel_token(job.cancel.clone())
        .progress(move |event| {
            progress_job
                .events
                .push(crate::wire::render_progress(progress_job.id, &event));
        });
    if let Some(tier) = spec.tier {
        builder = builder.tier(tier);
    }
    let mut session = builder.build();
    let outcome = session.run(&spec.method, &oracle);
    job.set_cache_info(JobCacheInfo {
        world_reused,
        cell_hits: oracle.cell_hits(),
        cells_computed: oracle.loss_evaluations(),
        disk_warm_cells: oracle.disk_warm_cells(),
        cache_degraded: inner.cache.is_degraded(),
    });
    // Persist whatever this job computed before reporting terminal
    // state: a disk-backed cache must be warm for the next process by
    // the time the client sees "done".
    inner.cache.flush();
    match outcome {
        Ok(report) => job.finish(Ok(report), false),
        Err(ValuationError::Cancelled) => job.finish_interrupted("cancelled"),
        Err(e) => job.finish(Err(e.to_string()), false),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_spec(method: &str) -> JobSpec {
        let mut spec = JobSpec::new(method);
        spec.num_clients = Some(5);
        spec.samples_per_client = Some(12);
        spec.rounds = Some(3);
        spec.clients_per_round = Some(3);
        spec.seed = 11;
        spec
    }

    #[test]
    fn submit_runs_a_job_to_done() {
        let manager = JobManager::new();
        let job = manager.submit(tiny_spec("fedsv")).unwrap();
        assert_eq!(job.wait(), JobStatus::Done);
        let report = job.report().expect("report");
        assert_eq!(report.values.len(), 5);
        assert!(report.values.iter().all(|v| v.is_finite()));
        assert!(job.queued_ms() >= 0.0);
        assert!(job.run_ms() > 0.0);
        // Lifecycle events bracket the run.
        let (events, more) = job.events_since(0, Duration::from_millis(10));
        assert!(!more, "terminal job with drained log");
        assert!(events.first().unwrap().contains("\"submitted\""));
        assert!(events.last().unwrap().contains("\"done\""));
    }

    #[test]
    fn unknown_method_and_scenario_are_rejected() {
        let manager = JobManager::new();
        assert_eq!(
            manager.submit(JobSpec::new("nope")).unwrap_err(),
            SubmitError::UnknownMethod("nope".into())
        );
        let mut spec = JobSpec::new("fedsv");
        spec.scenario = "mars".into();
        assert_eq!(
            manager.submit(spec).unwrap_err(),
            SubmitError::UnknownScenario("mars".into())
        );
        let mut spec = JobSpec::new("fedsv");
        spec.num_clients = Some(0);
        assert!(matches!(
            manager.submit(spec).unwrap_err(),
            SubmitError::InvalidSpec(_)
        ));
        // More clients than a subset mask holds is a spec error, not a
        // panic inside the job.
        let mut spec = JobSpec::new("fedsv");
        spec.num_clients = Some(Subset::MAX_CLIENTS + 1);
        assert_eq!(
            manager.submit(spec).unwrap_err(),
            SubmitError::InvalidSpec(format!("num_clients must be <= {}", Subset::MAX_CLIENTS))
        );
        assert_eq!(manager.active_jobs(), 0, "a rejected spec holds no slot");
    }

    #[test]
    fn cancel_stops_a_long_job() {
        let manager = JobManager::new();
        let mut spec = tiny_spec("tmc");
        spec.permutations = 500_000;
        let job = manager.submit(spec).unwrap();
        // Let it get into the permutation walk, then cancel.
        while job.status() == JobStatus::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(30));
        manager.cancel(job.id()).unwrap();
        assert_eq!(job.wait(), JobStatus::Cancelled);
        assert!(job.report().is_none());
    }

    #[test]
    fn jobs_remain_queryable_after_completion() {
        let manager = JobManager::new();
        let job = manager.submit(tiny_spec("fedsv")).unwrap();
        let id = job.id();
        job.wait();
        let fetched = manager.get(id).expect("retained job");
        assert_eq!(fetched.status(), JobStatus::Done);
        assert!(manager.get(id + 999).is_none());
        // The active count drops just *after* the job turns terminal
        // (the job thread decrements on exit); give it a beat.
        let deadline = Instant::now() + Duration::from_secs(2);
        while manager.active_jobs() != 0 && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(manager.active_jobs(), 0);
    }

    #[test]
    fn failed_methods_surface_as_failed_jobs() {
        let manager = JobManager::new();
        // "exact" refuses large worlds: 2^20 subsets is beyond its
        // enumeration gate, which must surface as Failed, not a hang.
        let mut spec = tiny_spec("exact");
        spec.num_clients = Some(20);
        let job = manager.submit(spec).unwrap();
        assert_eq!(job.wait(), JobStatus::Failed);
        assert!(job.error().is_some());
    }

    #[test]
    fn deadline_fails_a_job_that_runs_too_long() {
        let manager = JobManager::new();
        let mut spec = tiny_spec("tmc");
        spec.permutations = 500_000;
        spec.deadline_ms = Some(60);
        let job = manager.submit(spec).unwrap();
        assert_eq!(
            job.wait(),
            JobStatus::Failed,
            "deadline is a failure, not a cancel"
        );
        let err = job.error().expect("deadline error");
        assert!(
            err.contains("deadline exceeded after 60 ms"),
            "typed deadline message, got {err:?}"
        );
        assert!(job.report().is_none());
        let (events, _) = job.events_since(0, Duration::from_millis(10));
        assert!(
            events.iter().any(|e| e.contains("\"deadline\"")),
            "deadline event logged: {events:?}"
        );
    }

    #[test]
    fn generous_deadline_never_fires() {
        let manager = JobManager::new();
        let mut spec = tiny_spec("fedsv");
        spec.deadline_ms = Some(300_000);
        let job = manager.submit(spec).unwrap();
        assert_eq!(job.wait(), JobStatus::Done);
        assert!(job.report().is_some());
    }

    #[test]
    fn shutdown_drains_quick_jobs_and_rejects_new_ones() {
        let manager = JobManager::new();
        let job = manager.submit(tiny_spec("fedsv")).unwrap();
        let summary = manager.shutdown(Duration::from_secs(120));
        assert!(summary.drained, "short job finishes within the grace");
        assert_eq!(summary.jobs_cancelled, 0);
        assert_eq!(job.wait(), JobStatus::Done);
        assert_eq!(
            manager.submit(tiny_spec("fedsv")).unwrap_err(),
            SubmitError::ShuttingDown
        );
    }

    #[test]
    fn shutdown_checkpoint_cancels_stragglers() {
        let manager = JobManager::new();
        let mut spec = tiny_spec("tmc");
        spec.permutations = 500_000;
        let job = manager.submit(spec).unwrap();
        while job.status() == JobStatus::Queued {
            std::thread::sleep(Duration::from_millis(1));
        }
        std::thread::sleep(Duration::from_millis(30));
        // Small grace: the drain phase (grace/2 = 150 ms) gives up long
        // before the job could finish (about a second even in a release
        // build) and the checkpoint-cancel phase takes over.
        let summary = manager.shutdown(Duration::from_millis(300));
        assert_eq!(
            summary.jobs_cancelled, 1,
            "long job is checkpoint-cancelled"
        );
        assert_eq!(job.wait(), JobStatus::Cancelled);
    }

    #[test]
    fn resolve_scenario_applies_overrides() {
        let mut spec = JobSpec::new("fedsv");
        spec.scenario = "free_riders".into();
        spec.num_clients = Some(12);
        spec.clients_per_round = Some(50);
        let s = spec.resolve_scenario().unwrap();
        assert_eq!(s.num_clients, 12);
        assert_eq!(s.behaviors.len(), 12);
        assert_eq!(s.clients_per_round, 12, "clamped to the client count");
        // The original free riders kept their behaviors.
        assert_eq!(s.num_bad(), 2);
    }
}
