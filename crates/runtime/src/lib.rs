//! Shared execution layer for the valuation stack.
//!
//! Every hot path in this workspace — the utility oracle's batch
//! evaluation in `fedval_fl`, the ALS/CCD row and column sub-solves in
//! `fedval_mc`, and the permutation walks driven by `fedval_shapley` —
//! has the same shape: many small, independent work items whose results
//! land in pre-determined slots. Before this crate each of those sites
//! paid a fresh `std::thread::scope` spawn per batch; with batches of a
//! few dozen microsecond-scale items (the TMC pattern), spawn and join
//! overhead rivaled the work itself.
//!
//! # The plan → submit → join discipline
//!
//! 1. **Plan.** The caller collects its work items up front (an
//!    `EvalPlan` of utility cells, the rows of a factor half-step, …).
//!    Each item carries — or indexes — its own output slot, so result
//!    placement is deterministic no matter which worker runs it or in
//!    what order.
//! 2. **Submit.** The batch is split into contiguous chunks and pushed
//!    onto a persistent [`Pool`] — either the process-wide
//!    [`Pool::global`] (sized by the `FEDVAL_THREADS` environment
//!    variable, falling back to the hardware parallelism) or an owned
//!    [`Pool::new`] for tests that need a specific size. Workers park
//!    between batches instead of being respawned; each chunk may
//!    initialize per-worker scratch state (e.g. a cloned model) once.
//! 3. **Join.** The submitting thread waits for its batch — helping to
//!    drain the queue while it waits, so a one-worker pool still makes
//!    progress when the caller blocks — and only then reads the results.
//!    A [`CancelToken`] is checked at item boundaries: cancellation
//!    abandons the not-yet-started remainder of the batch and surfaces
//!    as [`Cancelled`].
//!
//! Determinism contract: the pool never changes *what* is computed, only
//! *where*. Work items must write to disjoint (or write-once) slots and
//! must not depend on execution order; under that contract, results are
//! bit-identical across pool sizes, which the consuming crates assert in
//! their tests.
//!
//! # Multi-tenant scheduling
//!
//! When several tenants share one pool (the `fedval_service` job
//! manager), submissions are tagged with a [`JobClass`] — set for a
//! region of code with [`with_job_class`] and inherited by everything
//! spawned inside it, including nested scopes started from within pool
//! jobs. Under the default [`SchedPolicy::FairShare`] policy the queue
//! keeps one FIFO per *(class, scope)* and drains classes by weighted
//! round-robin (interactive : batch = 4 : 1), rotating between tenants
//! of equal class, while helping threads prefer their own scope's jobs.
//! [`SchedPolicy::Fifo`] keeps the original single strict-FIFO queue as
//! a measurable baseline for pools built with [`Pool::with_policy`].
//! Because of the determinism contract the policy affects latency only,
//! never results.

pub mod cancel;
pub mod class;
pub mod pool;

pub use cancel::{CancelToken, Cancelled};
pub use class::{current_job_class, with_job_class, JobClass, SchedPolicy};
pub use pool::{Pool, PoolHandle, Scope};
