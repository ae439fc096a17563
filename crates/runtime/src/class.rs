//! Job classes and scheduling policies for the worker pool.
//!
//! Multi-tenant callers (the `fedval_service` job manager) tag the work
//! they submit with a [`JobClass`] so the pool can keep small
//! interactive jobs responsive while a large batch job is in flight.
//! The tag is carried in a thread-local: [`with_job_class`] sets it for
//! the duration of a closure, every [`Pool::scope`](crate::Pool::scope)
//! (and therefore every
//! [`Pool::for_each_init`](crate::Pool::for_each_init) batch) started
//! inside inherits it, and workers re-establish the tag of the job they
//! are running — so *nested* submissions made from inside pool jobs
//! keep their tenant's class without any explicit plumbing through the
//! oracle/solver layers.
//!
//! How tagged jobs are drained is the pool's [`SchedPolicy`]:
//!
//! * [`SchedPolicy::FairShare`] (the default) keeps one FIFO queue per
//!   *(class, scope)* and serves classes by weighted round-robin
//!   ([`JobClass::weight`]), rotating between scopes of equal class so
//!   concurrent tenants interleave at job granularity. Threads that
//!   help drain the queue while waiting for their own batch prefer
//!   their own scope's jobs before taking anyone else's.
//! * [`SchedPolicy::Fifo`] is the single strict-FIFO queue the pool
//!   shipped with — kept as the measurable baseline (`service_load`
//!   benchmarks one against the other) on pools built with
//!   [`Pool::with_policy`](crate::Pool::with_policy).
//!
//! Neither policy changes *what* is computed: work items write to
//! disjoint or write-once slots (the crate-wide determinism contract),
//! so per-batch results are bit-identical under either policy — only
//! inter-batch interleaving and therefore latency differs.

use std::cell::Cell;

/// Priority class of submitted pool work.
///
/// The class is a *scheduling* hint only; it never affects results.
/// Untagged work (everything outside [`with_job_class`]) is
/// [`JobClass::Batch`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum JobClass {
    /// Latency-sensitive work: small jobs a caller is actively waiting
    /// on. Served preferentially (but not exclusively — see
    /// [`JobClass::weight`]) under [`SchedPolicy::FairShare`].
    Interactive,
    /// Throughput work: large sweeps whose completion time is measured
    /// in seconds or minutes. The default class.
    #[default]
    Batch,
}

/// All classes, in drain-priority order (index = [`JobClass::index`]).
pub(crate) const CLASSES: [JobClass; JobClass::COUNT] = [JobClass::Interactive, JobClass::Batch];

impl JobClass {
    /// Number of distinct classes.
    pub const COUNT: usize = 2;

    /// Dense index used by the scheduler's per-class tables.
    pub(crate) fn index(self) -> usize {
        match self {
            JobClass::Interactive => 0,
            JobClass::Batch => 1,
        }
    }

    /// Weighted-round-robin share: how many jobs of this class a worker
    /// drains per refill cycle while other classes also have work.
    /// Interactive outweighs batch 4:1, so an interactive tenant gets
    /// ~80% of the pool while it has queued work but a batch tenant is
    /// never starved outright.
    pub fn weight(self) -> u32 {
        match self {
            JobClass::Interactive => 4,
            JobClass::Batch => 1,
        }
    }

    /// Stable lowercase name ("interactive" / "batch").
    pub fn name(self) -> &'static str {
        match self {
            JobClass::Interactive => "interactive",
            JobClass::Batch => "batch",
        }
    }

    /// Parses [`JobClass::name`] back (case-sensitive, lowercase).
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "interactive" => Some(JobClass::Interactive),
            "batch" => Some(JobClass::Batch),
            _ => None,
        }
    }
}

impl std::fmt::Display for JobClass {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// How a [`Pool`](crate::Pool) orders queued jobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SchedPolicy {
    /// Per-(class, scope) queues, weighted round-robin across classes,
    /// round-robin across scopes, scope-preferring helpers. The
    /// default.
    #[default]
    FairShare,
    /// One strict-FIFO queue, ignoring class and scope — the
    /// pre-fair-share behavior, kept as the measurable baseline.
    Fifo,
}

impl SchedPolicy {
    /// Stable lowercase name ("fair" / "fifo").
    pub fn name(self) -> &'static str {
        match self {
            SchedPolicy::FairShare => "fair",
            SchedPolicy::Fifo => "fifo",
        }
    }
}

impl std::fmt::Display for SchedPolicy {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

thread_local! {
    /// The class newly created scopes on this thread are tagged with.
    static CURRENT_CLASS: Cell<JobClass> = const { Cell::new(JobClass::Batch) };
}

/// The class work submitted from this thread is currently tagged with
/// ([`JobClass::Batch`] unless inside [`with_job_class`] or a pool job
/// carrying another class).
pub fn current_job_class() -> JobClass {
    CURRENT_CLASS.with(Cell::get)
}

/// Runs `f` with this thread's submission class set to `class`,
/// restoring the previous class afterwards (also on unwind). Every
/// [`Pool::scope`](crate::Pool::scope) started inside `f` — directly or
/// transitively on workers running `f`'s jobs — is tagged `class`.
pub fn with_job_class<R>(class: JobClass, f: impl FnOnce() -> R) -> R {
    let _restore = ClassGuard(set_current_class(class));
    f()
}

/// Replaces the thread's current class, returning the previous one.
/// Workers use this to adopt the class of the job they run.
pub(crate) fn set_current_class(class: JobClass) -> JobClass {
    CURRENT_CLASS.with(|c| c.replace(class))
}

/// Restores a saved class on drop (unwind-safe restoration for
/// [`with_job_class`] and job execution sites).
pub(crate) struct ClassGuard(pub(crate) JobClass);

impl Drop for ClassGuard {
    fn drop(&mut self) {
        CURRENT_CLASS.with(|c| c.set(self.0));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_class_is_batch() {
        assert_eq!(current_job_class(), JobClass::Batch);
        assert_eq!(JobClass::default(), JobClass::Batch);
    }

    #[test]
    fn with_job_class_scopes_and_restores() {
        assert_eq!(current_job_class(), JobClass::Batch);
        let seen = with_job_class(JobClass::Interactive, || {
            let inner = current_job_class();
            // Nesting restores to the *enclosing* class, not the default.
            with_job_class(JobClass::Batch, || {
                assert_eq!(current_job_class(), JobClass::Batch);
            });
            assert_eq!(current_job_class(), JobClass::Interactive);
            inner
        });
        assert_eq!(seen, JobClass::Interactive);
        assert_eq!(current_job_class(), JobClass::Batch);
    }

    #[test]
    fn with_job_class_restores_on_unwind() {
        let result = std::panic::catch_unwind(|| {
            with_job_class(JobClass::Interactive, || panic!("boom"));
        });
        assert!(result.is_err());
        assert_eq!(current_job_class(), JobClass::Batch);
    }

    #[test]
    fn names_round_trip() {
        for class in [JobClass::Interactive, JobClass::Batch] {
            assert_eq!(JobClass::parse(class.name()), Some(class));
            assert_eq!(format!("{class}"), class.name());
        }
        assert_eq!(JobClass::parse("nope"), None);
        for policy in [SchedPolicy::FairShare, SchedPolicy::Fifo] {
            assert_eq!(format!("{policy}"), policy.name());
        }
    }

    #[test]
    fn weights_prefer_interactive() {
        assert!(JobClass::Interactive.weight() > JobClass::Batch.weight());
        assert!(JobClass::Batch.weight() >= 1, "no class is starved");
    }
}
