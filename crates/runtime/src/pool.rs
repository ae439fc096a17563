//! The persistent worker pool.
//!
//! Workers are spawned once — when the pool is created — and park on a
//! condition variable between batches, so submitting a batch costs a
//! queue push and a wakeup instead of a `std::thread::spawn` per chunk.
//! Two entry points cover the workspace's needs:
//!
//! * [`Pool::scope`] — structured borrowing like `std::thread::scope`:
//!   spawned closures may borrow the caller's stack, and the scope joins
//!   every spawn (propagating panics) before returning.
//! * [`Pool::for_each_init`] — the chunked batch API the utility oracle
//!   and the solvers use: items are split into contiguous chunks, each
//!   chunk initializes per-chunk scratch state once, and an optional
//!   [`CancelToken`] is observed at item boundaries.
//!
//! While a submitting thread waits for its batch it *helps*: it pops and
//! runs queued jobs instead of blocking, so a pool is never a deadlock
//! risk for its own callers and a 1-worker pool on a 1-core host behaves
//! like the old inline loop.
//!
//! ## Scheduling
//!
//! Queued jobs carry the submitting scope's identity and [`JobClass`]
//! (inherited from the submitting thread — see
//! [`with_job_class`](crate::with_job_class)). How they are drained is
//! the pool's [`SchedPolicy`]:
//!
//! * [`SchedPolicy::FairShare`] (default) — one FIFO queue per
//!   *(class, scope)*; workers drain classes by weighted round-robin
//!   ([`JobClass::weight`], interactive:batch = 4:1) and rotate between
//!   scopes of the same class per job, so concurrent tenants interleave
//!   instead of running in submission order. A thread helping while it
//!   waits for its own scope runs its *own* scope's jobs first, and only
//!   helps other tenants when its scope's queue is empty.
//! * [`SchedPolicy::Fifo`] — the original single strict-FIFO queue,
//!   kept as the measurable baseline ([`Pool::with_policy`]): one tenant's
//!   large batch makes every later submitter wait, and a helping thread
//!   is conscripted into whatever sits at the queue head.
//!
//! The policy never changes *what* a batch computes — work items write
//! into disjoint or write-once slots, so results are bit-identical under
//! either policy and any pool width; only cross-batch interleaving (and
//! therefore latency) differs.

use crate::cancel::{CancelToken, Cancelled};
use crate::class::{
    current_job_class, set_current_class, ClassGuard, JobClass, SchedPolicy, CLASSES,
};
use std::any::Any;
use std::collections::VecDeque;
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::thread::JoinHandle;

/// A type-erased unit of queued work.
///
/// Jobs are `'static` from the queue's point of view; [`Scope::spawn`]
/// is the only producer and guarantees (by joining before its borrows
/// end) that the erasure is sound.
type Job = Box<dyn FnOnce() + Send + 'static>;

/// Upper bound on items per [`Pool::for_each_init`] chunk. Large batches
/// therefore become *many* queued jobs rather than one job per worker,
/// giving the scheduler preemption points at chunk granularity: an
/// interactive job queued behind a million-cell batch starts within one
/// chunk's worth of work instead of after the whole batch.
const MAX_CHUNK_ITEMS: usize = 64;

/// The process-wide pool backing [`Pool::global`].
static GLOBAL: OnceLock<Pool> = OnceLock::new();

/// Monotonic scope-identity source (process-wide, never reused).
static NEXT_SCOPE_ID: AtomicU64 = AtomicU64::new(1);

/// State shared between the pool handle and its workers.
struct Shared {
    queue: Mutex<QueueState>,
    /// Signalled when a job is pushed or shutdown begins.
    work_available: Condvar,
    /// Jobs currently executing (on workers or helping threads).
    /// Incremented under the queue lock at pop time so there is no
    /// window where a job is neither queued nor counted as running —
    /// [`Pool::wait_idle`] depends on that invariant.
    running: AtomicUsize,
}

/// The FIFO of one scope's queued jobs within a class ring.
struct ScopeQueue {
    scope: u64,
    jobs: VecDeque<Job>,
}

/// All queued work of one class: scope queues in rotation order.
#[derive(Default)]
struct ClassRing {
    scopes: VecDeque<ScopeQueue>,
}

impl ClassRing {
    fn is_empty(&self) -> bool {
        self.scopes.is_empty()
    }

    fn push(&mut self, scope: u64, job: Job) {
        if let Some(queue) = self.scopes.iter_mut().find(|q| q.scope == scope) {
            queue.jobs.push_back(job);
        } else {
            let mut jobs = VecDeque::new();
            jobs.push_back(job);
            self.scopes.push_back(ScopeQueue { scope, jobs });
        }
    }

    /// Pops the next job in rotation order: front scope's oldest job,
    /// then that scope moves to the back so same-class tenants
    /// interleave at job granularity.
    fn pop_rotating(&mut self) -> Option<Job> {
        let mut queue = self.scopes.pop_front()?;
        let job = queue.jobs.pop_front();
        debug_assert!(job.is_some(), "empty scope queues are removed eagerly");
        if !queue.jobs.is_empty() {
            self.scopes.push_back(queue);
        }
        job
    }

    /// Pops the oldest job of `scope`, if that scope has queued work.
    fn pop_scope(&mut self, scope: u64) -> Option<Job> {
        let idx = self.scopes.iter().position(|q| q.scope == scope)?;
        let job = self.scopes[idx].jobs.pop_front();
        if self.scopes[idx].jobs.is_empty() {
            self.scopes.remove(idx);
        }
        job
    }
}

struct QueueState {
    policy: SchedPolicy,
    /// The single queue used under [`SchedPolicy::Fifo`].
    fifo: VecDeque<Job>,
    /// Per-class scope rings used under [`SchedPolicy::FairShare`].
    rings: [ClassRing; JobClass::COUNT],
    /// Remaining weighted-round-robin credits per class; refilled from
    /// [`JobClass::weight`] when every class that has work is exhausted.
    credits: [u32; JobClass::COUNT],
    shutdown: bool,
}

impl QueueState {
    fn new(policy: SchedPolicy) -> Self {
        QueueState {
            policy,
            fifo: VecDeque::new(),
            rings: Default::default(),
            credits: CLASSES.map(JobClass::weight),
            shutdown: false,
        }
    }

    fn push(&mut self, class: JobClass, scope: u64, job: Job) {
        match self.policy {
            SchedPolicy::Fifo => self.fifo.push_back(job),
            SchedPolicy::FairShare => self.rings[class.index()].push(scope, job),
        }
    }

    /// The next job under the pool's policy; `None` when idle.
    ///
    /// Fair share: classes are served by weighted round-robin — a class
    /// with work and remaining credits is drained (highest-priority
    /// first); when every class with work has spent its credits, all
    /// credits refill from the weights. A class without queued work
    /// neither spends nor blocks credits, so a lone class drains at
    /// full speed.
    fn next_job(&mut self) -> Option<Job> {
        match self.policy {
            SchedPolicy::Fifo => self.fifo.pop_front(),
            SchedPolicy::FairShare => loop {
                let mut any_work = false;
                for class in CLASSES {
                    let i = class.index();
                    if self.rings[i].is_empty() {
                        continue;
                    }
                    any_work = true;
                    if self.credits[i] > 0 {
                        self.credits[i] -= 1;
                        return self.rings[i].pop_rotating();
                    }
                }
                if !any_work {
                    return None;
                }
                self.credits = CLASSES.map(JobClass::weight);
            },
        }
    }

    /// Jobs currently queued (all classes and scopes; excludes jobs
    /// already running on workers).
    fn len(&self) -> usize {
        self.fifo.len()
            + self
                .rings
                .iter()
                .flat_map(|ring| ring.scopes.iter())
                .map(|queue| queue.jobs.len())
                .sum::<usize>()
    }

    /// Like [`QueueState::next_job`] but serves `scope`'s own queued
    /// jobs first (fair share only; a FIFO pool keeps strict order, so
    /// a helping thread there takes whatever is at the head — that
    /// conscription is exactly the baseline behavior the fairness
    /// benchmark measures). Own-scope pops don't spend class credits:
    /// the helper burns its own blocked thread, not shared capacity.
    fn next_job_preferring(&mut self, scope: u64) -> Option<Job> {
        if self.policy == SchedPolicy::FairShare {
            for ring in &mut self.rings {
                if let Some(job) = ring.pop_scope(scope) {
                    return Some(job);
                }
            }
        }
        self.next_job()
    }
}

impl Shared {
    fn push(&self, class: JobClass, scope: u64, job: Job) {
        let mut state = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        state.push(class, scope, job);
        drop(state);
        self.work_available.notify_one();
    }

    fn try_pop_preferring(&self, scope: u64) -> Option<Job> {
        let mut state = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        let job = state.next_job_preferring(scope);
        if job.is_some() {
            self.running.fetch_add(1, Ordering::Release);
        }
        job
    }

    /// Marks one popped job finished (pops count it as running).
    fn job_done(&self) {
        self.running.fetch_sub(1, Ordering::Release);
    }

    /// Blocking pop for workers; `None` means shutdown.
    fn pop(&self) -> Option<Job> {
        let mut state = self.queue.lock().unwrap_or_else(|e| e.into_inner());
        loop {
            if let Some(job) = state.next_job() {
                self.running.fetch_add(1, Ordering::Release);
                return Some(job);
            }
            if state.shutdown {
                return None;
            }
            state = self
                .work_available
                .wait(state)
                .unwrap_or_else(|e| e.into_inner());
        }
    }
}

/// A persistent pool of worker threads.
///
/// Construct a sized pool with [`Pool::new`] / [`Pool::with_policy`]
/// (tests, benchmarks) or use the lazily initialized process-wide
/// [`Pool::global`]. Owned pools shut their workers down on drop; the
/// global pool lives for the whole process.
pub struct Pool {
    shared: Arc<Shared>,
    threads: usize,
    policy: SchedPolicy,
    workers: Vec<JoinHandle<()>>,
}

impl Pool {
    /// Spawns a pool with exactly `threads` workers (clamped to ≥ 1)
    /// and the default [`SchedPolicy::FairShare`] scheduler.
    pub fn new(threads: usize) -> Self {
        Pool::with_policy(threads, SchedPolicy::default())
    }

    /// Spawns a pool with exactly `threads` workers (clamped to ≥ 1)
    /// draining its queue under `policy`.
    pub fn with_policy(threads: usize, policy: SchedPolicy) -> Self {
        let threads = threads.max(1);
        let shared = Arc::new(Shared {
            queue: Mutex::new(QueueState::new(policy)),
            work_available: Condvar::new(),
            running: AtomicUsize::new(0),
        });
        let workers = (0..threads)
            .map(|i| {
                let shared = Arc::clone(&shared);
                std::thread::Builder::new()
                    .name(format!("fedval-worker-{i}"))
                    .spawn(move || {
                        while let Some(job) = shared.pop() {
                            // Jobs are panic-wrapped (and class-tagged)
                            // by `Scope::spawn`; nothing to do here.
                            job();
                            shared.job_done();
                        }
                    })
                    .expect("spawn pool worker")
            })
            .collect();
        Pool {
            shared,
            threads,
            policy,
            workers,
        }
    }

    /// The process-wide pool, created on first use.
    ///
    /// Its size is the `FEDVAL_THREADS` environment variable when that
    /// parses as a single positive integer, otherwise the hardware
    /// parallelism. Its policy is fair share.
    pub fn global() -> &'static Pool {
        GLOBAL.get_or_init(|| Pool::new(global_threads()))
    }

    /// The width [`Pool::global`] has — or will have when first used —
    /// *without* forcing its construction, so purely-serial workloads
    /// that only consult the width never spawn the worker threads.
    pub fn global_width() -> usize {
        match GLOBAL.get() {
            Some(pool) => pool.threads(),
            None => global_threads(),
        }
    }

    /// Number of worker threads.
    pub fn threads(&self) -> usize {
        self.threads
    }

    /// Number of jobs currently waiting in the queue (excluding jobs
    /// already running on workers) — a load signal for benchmarks and
    /// service back-pressure, racy by nature.
    pub fn queued_jobs(&self) -> usize {
        self.shared
            .queue
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .len()
    }

    /// The scheduling policy this pool drains its queue under.
    pub fn policy(&self) -> SchedPolicy {
        self.policy
    }

    /// Whether the pool has neither queued nor executing jobs right
    /// now. Racy by nature (new work may arrive immediately after), so
    /// only meaningful once submission has stopped — the graceful
    /// shutdown path.
    pub fn is_idle(&self) -> bool {
        // A job moves queue → running under the queue lock (the pop
        // increments `running` before releasing it), so with submission
        // stopped a job in flight is visible to one of the two reads.
        self.queued_jobs() == 0 && self.shared.running.load(Ordering::Acquire) == 0
    }

    /// Blocks until the pool is idle (see [`Pool::is_idle`]) or
    /// `timeout` elapses; returns whether it drained. A polling wait —
    /// it costs nothing during normal operation and the shutdown path
    /// is the only caller.
    pub fn wait_idle(&self, timeout: std::time::Duration) -> bool {
        let deadline = std::time::Instant::now() + timeout;
        loop {
            if self.is_idle() {
                return true;
            }
            if std::time::Instant::now() >= deadline {
                return false;
            }
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }

    /// Runs `f` with a [`Scope`] on which borrowed closures can be
    /// spawned; joins every spawn (running queued jobs on this thread
    /// while waiting) before returning. Panics from spawned jobs are
    /// propagated here, after all sibling jobs have finished.
    ///
    /// The scope is tagged with the calling thread's current
    /// [`JobClass`] and a fresh scope identity: under fair-share
    /// scheduling its jobs queue separately from other scopes', and
    /// while this thread waits it drains *this* scope's jobs before
    /// helping anyone else — so nested scopes spawned from inside pool
    /// jobs make progress on their own work instead of being conscripted
    /// into unrelated backlogs.
    pub fn scope<'env, R>(&self, f: impl FnOnce(&Scope<'_, 'env>) -> R) -> R {
        let scope = Scope {
            pool: self,
            tracker: Arc::new(Tracker::default()),
            id: NEXT_SCOPE_ID.fetch_add(1, Ordering::Relaxed),
            class: current_job_class(),
            _env: std::marker::PhantomData,
        };
        // Join even when `f` itself panics: spawned jobs still borrow
        // the caller's stack and must finish before we unwind past it.
        let result = catch_unwind(AssertUnwindSafe(|| f(&scope)));
        self.wait(&scope.tracker, scope.id);
        let job_panic = scope.tracker.take_panic();
        match (result, job_panic) {
            (Err(payload), _) => resume_unwind(payload),
            (_, Some(payload)) => resume_unwind(payload),
            (Ok(value), None) => value,
        }
    }

    /// The chunked batch primitive: splits `items` into contiguous
    /// chunks of at most `len / max_workers` (rounded up) and at most
    /// `MAX_CHUNK_ITEMS` (64) items, runs each chunk as one pool job that
    /// calls `init()` once (per-chunk scratch state) and then
    /// `work(&mut scratch, item)` per item, and joins the batch.
    ///
    /// `cancel` is observed before every item; once cancelled, the
    /// not-yet-started remainder of every chunk is abandoned and the
    /// call returns [`Cancelled`]. Items must write their results into
    /// slots they own or that are write-once — under that contract the
    /// outcome is bit-identical for every `max_workers` and either
    /// [`SchedPolicy`], including the inline `max_workers == 1` fast
    /// path.
    pub fn for_each_init<T, S>(
        &self,
        items: Vec<T>,
        max_workers: usize,
        init: impl Fn() -> S + Sync,
        work: impl Fn(&mut S, T) + Sync,
        cancel: Option<&CancelToken>,
    ) -> Result<(), Cancelled>
    where
        T: Send,
    {
        let check = |c: Option<&CancelToken>| c.map_or(Ok(()), CancelToken::check);
        check(cancel)?;
        if items.is_empty() {
            return Ok(());
        }
        let workers = max_workers.min(items.len()).max(1);
        if workers == 1 {
            let mut scratch = init();
            for item in items {
                check(cancel)?;
                work(&mut scratch, item);
            }
            // Trailing check, matching the parallel path below: a token
            // cancelled during the final item reports Cancelled for
            // every pool size.
            return check(cancel);
        }
        let chunk_len = items.len().div_ceil(workers).min(MAX_CHUNK_ITEMS);
        let mut chunks: Vec<Vec<T>> = Vec::with_capacity(items.len().div_ceil(chunk_len));
        let mut items = items.into_iter();
        loop {
            let chunk: Vec<T> = items.by_ref().take(chunk_len).collect();
            if chunk.is_empty() {
                break;
            }
            chunks.push(chunk);
        }
        self.scope(|scope| {
            for chunk in chunks {
                let init = &init;
                let work = &work;
                scope.spawn(move || {
                    let mut scratch = init();
                    for item in chunk {
                        if cancel.is_some_and(CancelToken::is_cancelled) {
                            break;
                        }
                        work(&mut scratch, item);
                    }
                });
            }
        });
        check(cancel)
    }

    /// Waits for `tracker` to reach zero pending jobs, running queued
    /// jobs on the calling thread while any are available — preferring
    /// jobs of scope `scope_id` (its own batch) over other tenants'.
    fn wait(&self, tracker: &Tracker, scope_id: u64) {
        loop {
            if tracker.pending.load(Ordering::Acquire) == 0 {
                return;
            }
            if let Some(job) = self.shared.try_pop_preferring(scope_id) {
                job();
                self.shared.job_done();
                continue;
            }
            // Queue empty, jobs still in flight on workers: block until
            // the tracker signals completion. No new jobs for this
            // tracker can appear (only this thread spawns into it).
            let mut done = tracker.done.lock().unwrap_or_else(|e| e.into_inner());
            while tracker.pending.load(Ordering::Acquire) != 0 {
                done = tracker
                    .completed
                    .wait(done)
                    .unwrap_or_else(|e| e.into_inner());
            }
            return;
        }
    }
}

impl Drop for Pool {
    fn drop(&mut self) {
        {
            let mut state = self.shared.queue.lock().unwrap_or_else(|e| e.into_inner());
            state.shutdown = true;
        }
        self.shared.work_available.notify_all();
        for worker in self.workers.drain(..) {
            let _ = worker.join();
        }
    }
}

/// Per-batch bookkeeping: pending-job count, completion signal, and the
/// first panic payload (re-raised by [`Pool::scope`]).
#[derive(Default)]
struct Tracker {
    pending: AtomicUsize,
    done: Mutex<()>,
    completed: Condvar,
    panic: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Tracker {
    fn complete(&self, panic: Option<Box<dyn Any + Send>>) {
        if let Some(payload) = panic {
            let mut slot = self.panic.lock().unwrap_or_else(|e| e.into_inner());
            slot.get_or_insert(payload);
        }
        // Hold the completion lock across the decrement so a waiter
        // cannot observe pending != 0, miss this notify, and sleep.
        let guard = self.done.lock().unwrap_or_else(|e| e.into_inner());
        if self.pending.fetch_sub(1, Ordering::AcqRel) == 1 {
            self.completed.notify_all();
        }
        drop(guard);
    }

    fn take_panic(&self) -> Option<Box<dyn Any + Send>> {
        self.panic.lock().unwrap_or_else(|e| e.into_inner()).take()
    }
}

/// A batch scope tied to a [`Pool`]; created by [`Pool::scope`].
///
/// The `'env` lifetime plays the same role as in `std::thread::scope`:
/// spawned closures may borrow anything that outlives the `scope` call.
pub struct Scope<'pool, 'env> {
    pool: &'pool Pool,
    tracker: Arc<Tracker>,
    /// Queue identity: jobs spawned here share one per-scope FIFO under
    /// fair-share scheduling, and the waiting thread prefers this id.
    id: u64,
    /// Priority class inherited from the submitting thread.
    class: JobClass,
    _env: std::marker::PhantomData<&'env mut &'env ()>,
}

impl<'pool, 'env> Scope<'pool, 'env> {
    /// Queues `job` on the pool, tagged with this scope's identity and
    /// [`JobClass`]. The closure may borrow from `'env`; the enclosing
    /// [`Pool::scope`] call joins it before those borrows end. A
    /// panicking job is recorded and re-raised by `scope` after the
    /// whole batch has drained. Whichever thread runs the job adopts
    /// this scope's class for its duration, so nested submissions made
    /// by the job inherit the tenant's class.
    pub fn spawn(&self, job: impl FnOnce() + Send + 'env) {
        self.tracker.pending.fetch_add(1, Ordering::AcqRel);
        let tracker = Arc::clone(&self.tracker);
        let class = self.class;
        let wrapped: Box<dyn FnOnce() + Send + 'env> = Box::new(move || {
            let _restore = ClassGuard(set_current_class(class));
            let outcome = catch_unwind(AssertUnwindSafe(job));
            tracker.complete(outcome.err());
        });
        // SAFETY: the job borrows at most `'env` data. `Pool::scope`
        // always waits for the tracker to drain — on success *and* on
        // unwind — before returning, so the closure finishes (on a
        // worker or on the waiting thread itself) strictly before any
        // `'env` borrow can expire. Erasing the lifetime only changes
        // what the queue's type says, not when the job actually runs.
        let erased: Job = unsafe {
            std::mem::transmute::<Box<dyn FnOnce() + Send + 'env>, Box<dyn FnOnce() + Send + 'static>>(
                wrapped,
            )
        };
        self.pool.shared.push(class, self.id, erased);
    }

    /// Number of worker threads in the owning pool (chunking hint).
    pub fn threads(&self) -> usize {
        self.pool.threads()
    }

    /// The [`JobClass`] this scope's jobs are queued under.
    pub fn class(&self) -> JobClass {
        self.class
    }
}

/// Which pool a component submits to: the process-wide singleton or an
/// owned instance (tests pin sizes with owned pools without perturbing
/// the global one).
#[derive(Clone, Default)]
pub enum PoolHandle {
    /// Use [`Pool::global`].
    #[default]
    Global,
    /// Use a shared owned pool.
    Owned(Arc<Pool>),
}

impl PoolHandle {
    /// Wraps an owned pool.
    pub fn owned(pool: Pool) -> Self {
        PoolHandle::Owned(Arc::new(pool))
    }

    /// The pool this handle designates.
    pub fn get(&self) -> &Pool {
        match self {
            PoolHandle::Global => Pool::global(),
            PoolHandle::Owned(pool) => pool,
        }
    }

    /// Worker-thread count of the designated pool. For
    /// [`PoolHandle::Global`] this does not force pool construction
    /// (see [`Pool::global_width`]).
    pub fn threads(&self) -> usize {
        match self {
            PoolHandle::Global => Pool::global_width(),
            PoolHandle::Owned(pool) => pool.threads(),
        }
    }
}

impl std::fmt::Debug for PoolHandle {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PoolHandle::Global => write!(f, "PoolHandle::Global({} threads)", self.threads()),
            PoolHandle::Owned(p) => write!(f, "PoolHandle::Owned({} threads)", p.threads()),
        }
    }
}

/// Size of [`Pool::global`]: `FEDVAL_THREADS` when it is a single
/// positive integer, else the hardware parallelism. A set-but-invalid
/// value logs one warning and degrades to the hardware default — a bad
/// env var must never take the process down.
fn global_threads() -> usize {
    if let Ok(spec) = std::env::var("FEDVAL_THREADS") {
        match spec.trim().parse::<usize>() {
            Ok(n) if n > 0 => return n,
            _ => {
                static WARNED: std::sync::Once = std::sync::Once::new();
                WARNED.call_once(|| {
                    eprintln!(
                        "fedval_runtime: FEDVAL_THREADS={spec:?} is not a positive thread \
                         count; using the hardware parallelism"
                    );
                });
            }
        }
    }
    std::thread::available_parallelism()
        .map(|p| p.get())
        .unwrap_or(1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::class::with_job_class;
    use std::collections::HashSet;
    use std::thread::ThreadId;

    #[test]
    fn scope_runs_every_spawn_and_joins() {
        let pool = Pool::new(3);
        let counter = AtomicU64::new(0);
        pool.scope(|scope| {
            for _ in 0..100 {
                let counter = &counter;
                scope.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 100);
    }

    #[test]
    fn scope_spawns_may_borrow_locals() {
        let pool = Pool::new(2);
        let input = [1u64, 2, 3, 4, 5, 6, 7, 8];
        let mut output = vec![0u64; input.len()];
        pool.scope(|scope| {
            for (out, chunk) in output.chunks_mut(2).zip(input.chunks(2)) {
                scope.spawn(move || {
                    for (o, i) in out.iter_mut().zip(chunk) {
                        *o = i * 10;
                    }
                });
            }
        });
        assert_eq!(output, vec![10, 20, 30, 40, 50, 60, 70, 80]);
    }

    #[test]
    fn wait_idle_observes_drain() {
        let pool = Pool::new(2);
        assert!(pool.is_idle(), "fresh pool is idle");
        let gate = Arc::new(AtomicU64::new(0));
        pool.scope(|scope| {
            for _ in 0..8 {
                let gate = Arc::clone(&gate);
                scope.spawn(move || {
                    while gate.load(Ordering::Acquire) == 0 {
                        std::thread::yield_now();
                    }
                });
            }
            assert!(
                !pool.wait_idle(std::time::Duration::from_millis(20)),
                "gated jobs keep the pool busy"
            );
            gate.store(1, Ordering::Release);
        });
        assert!(pool.wait_idle(std::time::Duration::from_secs(10)));
    }

    #[test]
    fn workers_are_reused_across_batches() {
        let pool = Pool::new(2);
        let ids = Mutex::new(HashSet::<ThreadId>::new());
        let caller = std::thread::current().id();
        for _ in 0..50 {
            pool.scope(|scope| {
                for _ in 0..4 {
                    let ids = &ids;
                    scope.spawn(move || {
                        ids.lock().unwrap().insert(std::thread::current().id());
                    });
                }
            });
        }
        // 200 jobs ran on at most the 2 workers plus the helping caller:
        // the pool persists; nothing was respawned per batch.
        let ids = ids.into_inner().unwrap();
        let worker_ids: Vec<_> = ids.iter().filter(|&&id| id != caller).collect();
        assert!(
            worker_ids.len() <= 2,
            "expected at most 2 distinct worker threads, saw {}",
            worker_ids.len()
        );
    }

    #[test]
    fn panics_propagate_after_the_batch_drains() {
        let pool = Pool::new(2);
        let finished = AtomicU64::new(0);
        let result = catch_unwind(AssertUnwindSafe(|| {
            pool.scope(|scope| {
                scope.spawn(|| panic!("boom"));
                for _ in 0..10 {
                    let finished = &finished;
                    scope.spawn(move || {
                        finished.fetch_add(1, Ordering::Relaxed);
                    });
                }
            });
        }));
        assert!(result.is_err(), "job panic must surface from scope()");
        assert_eq!(
            finished.load(Ordering::Relaxed),
            10,
            "sibling jobs still ran to completion"
        );
        // The pool survives a panicked batch.
        let ok = AtomicU64::new(0);
        pool.scope(|scope| {
            let ok = &ok;
            scope.spawn(move || {
                ok.fetch_add(1, Ordering::Relaxed);
            });
        });
        assert_eq!(ok.load(Ordering::Relaxed), 1);
    }

    #[test]
    fn for_each_init_places_results_deterministically() {
        let items: Vec<usize> = (0..257).collect();
        let expect: Vec<u64> = items.iter().map(|&i| (i as u64) * 3 + 1).collect();
        for workers in [1, 2, 4, 7] {
            for policy in [SchedPolicy::FairShare, SchedPolicy::Fifo] {
                let pool = Pool::with_policy(workers, policy);
                let out: Vec<OnceLock<u64>> = (0..items.len()).map(|_| OnceLock::new()).collect();
                let inits = AtomicU64::new(0);
                pool.for_each_init(
                    items.clone(),
                    workers,
                    || inits.fetch_add(1, Ordering::Relaxed),
                    |_, i| {
                        out[i].set((i as u64) * 3 + 1).unwrap();
                    },
                    None,
                )
                .unwrap();
                let got: Vec<u64> = out.iter().map(|c| *c.get().unwrap()).collect();
                assert_eq!(got, expect, "workers={workers} policy={policy}");
                // Scratch is initialized once per chunk: chunks are
                // sized len/workers rounded up, capped at
                // MAX_CHUNK_ITEMS.
                let chunk_len = items.len().div_ceil(workers).min(MAX_CHUNK_ITEMS);
                let max_chunks = items.len().div_ceil(chunk_len) as u64;
                assert!(
                    inits.load(Ordering::Relaxed) <= max_chunks,
                    "scratch initialized once per chunk at most (workers={workers})"
                );
            }
        }
    }

    #[test]
    fn large_batches_are_split_into_bounded_chunks() {
        // 1000 items on 2 workers must become many small jobs (the
        // scheduler's preemption points), not 2 jobs of 500.
        let pool = Pool::new(2);
        let inits = AtomicU64::new(0);
        pool.for_each_init(
            vec![(); 1000],
            2,
            || inits.fetch_add(1, Ordering::Relaxed),
            |_, _| {},
            None,
        )
        .unwrap();
        let chunks = inits.load(Ordering::Relaxed);
        assert!(
            chunks >= (1000 / MAX_CHUNK_ITEMS) as u64,
            "expected >= {} chunks, saw {chunks}",
            1000 / MAX_CHUNK_ITEMS
        );
    }

    #[test]
    fn for_each_init_observes_cancellation() {
        let pool = Pool::new(2);
        // Pre-cancelled: nothing runs at all.
        let token = CancelToken::new();
        token.cancel();
        let ran = AtomicU64::new(0);
        let err = pool.for_each_init(
            vec![(); 64],
            2,
            || (),
            |_, _| {
                ran.fetch_add(1, Ordering::Relaxed);
            },
            Some(&token),
        );
        assert_eq!(err, Err(Cancelled));
        assert_eq!(ran.load(Ordering::Relaxed), 0);

        // Cancelled mid-batch: the remainder is abandoned.
        let token = CancelToken::new();
        let ran = AtomicU64::new(0);
        let cancel_after = 5u64;
        let err = pool.for_each_init(
            vec![(); 10_000],
            1, // inline path: deterministic item order
            || (),
            |_, _| {
                if ran.fetch_add(1, Ordering::Relaxed) + 1 == cancel_after {
                    token.cancel();
                }
            },
            Some(&token),
        );
        assert_eq!(err, Err(Cancelled));
        assert_eq!(ran.load(Ordering::Relaxed), cancel_after);
    }

    #[test]
    fn single_worker_pool_does_not_deadlock_when_caller_waits() {
        // The caller helps drain the queue, so even a 1-worker pool
        // processes a batch wider than itself.
        let pool = Pool::new(1);
        let counter = AtomicU64::new(0);
        pool.scope(|scope| {
            for _ in 0..32 {
                let counter = &counter;
                scope.spawn(move || {
                    counter.fetch_add(1, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(counter.load(Ordering::Relaxed), 32);
    }

    #[test]
    fn global_pool_is_a_singleton() {
        // Width is observable before construction and consistent after.
        let width = Pool::global_width();
        assert!(width >= 1);
        let a = Pool::global() as *const Pool;
        let b = Pool::global() as *const Pool;
        assert_eq!(a, b);
        assert_eq!(Pool::global().threads(), width);
        assert_eq!(Pool::global_width(), width);
        assert_eq!(PoolHandle::Global.get() as *const Pool, a);
        assert_eq!(PoolHandle::Global.threads(), width);
    }

    #[test]
    fn concurrent_scopes_share_one_pool() {
        let pool = Arc::new(Pool::new(2));
        let total = Arc::new(AtomicU64::new(0));
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let pool = Arc::clone(&pool);
                let total = Arc::clone(&total);
                std::thread::spawn(move || {
                    for _ in 0..20 {
                        pool.scope(|scope| {
                            for _ in 0..8 {
                                let total = &total;
                                scope.spawn(move || {
                                    total.fetch_add(1, Ordering::Relaxed);
                                });
                            }
                        });
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(total.load(Ordering::Relaxed), 4 * 20 * 8);
    }

    #[test]
    fn scope_inherits_thread_job_class() {
        let pool = Pool::new(1);
        pool.scope(|scope| {
            assert_eq!(scope.class(), JobClass::Batch);
        });
        with_job_class(JobClass::Interactive, || {
            pool.scope(|scope| {
                assert_eq!(scope.class(), JobClass::Interactive);
            });
        });
    }

    #[test]
    fn jobs_run_under_their_scope_class() {
        // A job spawned from an interactive scope must see Interactive
        // as the current class on whatever thread runs it — that is the
        // inheritance path for nested submissions.
        let pool = Pool::new(2);
        let seen = Mutex::new(Vec::new());
        with_job_class(JobClass::Interactive, || {
            pool.scope(|scope| {
                for _ in 0..8 {
                    let seen = &seen;
                    scope.spawn(move || {
                        seen.lock().unwrap().push(current_job_class());
                    });
                }
            });
        });
        let seen = seen.into_inner().unwrap();
        assert_eq!(seen.len(), 8);
        assert!(seen.iter().all(|&c| c == JobClass::Interactive));
    }

    // --- direct QueueState scheduler tests (deterministic, no threads) ---

    /// Queues a job that records `tag` into `log` when run.
    fn tag_job(log: &Arc<Mutex<Vec<&'static str>>>, tag: &'static str) -> Job {
        let log = Arc::clone(log);
        Box::new(move || log.lock().unwrap().push(tag))
    }

    fn drain(state: &mut QueueState) {
        while let Some(job) = state.next_job() {
            job();
        }
    }

    #[test]
    fn fifo_policy_preserves_submission_order() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut q = QueueState::new(SchedPolicy::Fifo);
        q.push(JobClass::Batch, 1, tag_job(&log, "b1"));
        q.push(JobClass::Interactive, 2, tag_job(&log, "i1"));
        q.push(JobClass::Batch, 1, tag_job(&log, "b2"));
        q.push(JobClass::Interactive, 2, tag_job(&log, "i2"));
        drain(&mut q);
        // Strict submission order: class and scope are ignored.
        assert_eq!(*log.lock().unwrap(), vec!["b1", "i1", "b2", "i2"]);
    }

    #[test]
    fn fair_share_drains_classes_by_weight() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut q = QueueState::new(SchedPolicy::FairShare);
        for _ in 0..6 {
            q.push(JobClass::Batch, 1, tag_job(&log, "b"));
        }
        for _ in 0..6 {
            q.push(JobClass::Interactive, 2, tag_job(&log, "i"));
        }
        drain(&mut q);
        // Weighted round-robin at 4:1, then the survivor drains solo.
        assert_eq!(
            *log.lock().unwrap(),
            vec!["i", "i", "i", "i", "b", "i", "i", "b", "b", "b", "b", "b"]
        );
    }

    #[test]
    fn fair_share_rotates_between_scopes_of_one_class() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut q = QueueState::new(SchedPolicy::FairShare);
        for tag in ["a1", "a2", "a3"] {
            q.push(JobClass::Batch, 1, tag_job(&log, tag));
        }
        for tag in ["b1", "b2", "b3"] {
            q.push(JobClass::Batch, 2, tag_job(&log, tag));
        }
        drain(&mut q);
        // Tenants of equal class interleave per job, each FIFO within
        // its own scope.
        assert_eq!(
            *log.lock().unwrap(),
            vec!["a1", "b1", "a2", "b2", "a3", "b3"]
        );
    }

    #[test]
    fn fair_share_helpers_prefer_their_own_scope() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut q = QueueState::new(SchedPolicy::FairShare);
        // An interactive tenant's jobs would win weighted round-robin…
        q.push(JobClass::Interactive, 9, tag_job(&log, "other"));
        q.push(JobClass::Batch, 1, tag_job(&log, "mine1"));
        q.push(JobClass::Batch, 1, tag_job(&log, "mine2"));
        // …but a thread waiting on scope 1 drains scope 1 first.
        for _ in 0..2 {
            q.next_job_preferring(1).expect("own-scope job")();
        }
        assert_eq!(*log.lock().unwrap(), vec!["mine1", "mine2"]);
        // With its own scope empty, it helps the remaining tenant.
        q.next_job_preferring(1).expect("fallback to other scopes")();
        assert_eq!(*log.lock().unwrap(), vec!["mine1", "mine2", "other"]);
        assert!(q.next_job().is_none());
    }

    #[test]
    fn fair_share_lone_class_drains_at_full_speed() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut q = QueueState::new(SchedPolicy::FairShare);
        // More jobs than the batch weight (1): credits must refill
        // without interactive work blocking the loop.
        for _ in 0..5 {
            q.push(JobClass::Batch, 1, tag_job(&log, "b"));
        }
        drain(&mut q);
        assert_eq!(log.lock().unwrap().len(), 5);
    }
}
