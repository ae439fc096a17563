//! Pooled row-sweep helper shared by the ALS and CCD++ solvers.
//!
//! Both solvers' sweeps decompose into independent per-row (or
//! per-column, or per-coordinate) sub-solves whose outputs land in
//! disjoint slices of one buffer. [`pooled_rows`] is the thin wrapper
//! that submits those sub-solves to the persistent
//! [`fedval_runtime::Pool`] in contiguous chunks — replacing the old
//! spawn-scoped-threads-per-sweep pattern whose setup cost dominated
//! the many-small-sweep workloads TMC produces.
//!
//! Determinism: each row's result depends only on its index and the
//! (read-only) captured state, and every row writes only its own
//! `width`-wide slice, so the outcome is bit-identical for any pool
//! size — including the inline path taken when the batch is too small
//! to amortize a submission.

use fedval_runtime::Pool;

/// Rows-per-worker below which a sweep stays on the calling thread: a
/// ridge sub-solve is microseconds, so tiny sweeps (every bundled
/// quick/default profile) would pay more in queue traffic than they
/// save.
pub(crate) const MIN_ROWS_PER_WORKER: usize = 32;

/// Applies `f(i, row_i)` for every `width`-wide row `i` of `target`,
/// fanning contiguous row chunks out across the global pool. `f` must
/// be a pure function of `i` and captured read-only state.
pub(crate) fn pooled_rows(target: &mut [f64], width: usize, f: impl Fn(usize, &mut [f64]) + Sync) {
    pooled_rows_init(target, width, || (), |(), i, row| f(i, row));
}

/// [`pooled_rows`] with per-worker scratch state: `init()` runs once
/// per chunk (on the worker that takes it) and `f(&mut scratch, i,
/// row_i)` per row. This is how the ALS half-steps reuse their design
/// buffer across the systems they factor in a sweep instead of
/// allocating per factorization. Determinism is unchanged: scratch is
/// write-only state from `f`'s perspective between rows (each row's
/// result must not depend on which rows shared its scratch).
pub(crate) fn pooled_rows_init<S>(
    target: &mut [f64],
    width: usize,
    init: impl Fn() -> S + Sync,
    f: impl Fn(&mut S, usize, &mut [f64]) + Sync,
) {
    assert!(width > 0, "row width must be positive");
    let n = target.len() / width;
    if n == 0 {
        return;
    }
    let pool = Pool::global();
    let workers = pool.threads().min(n / MIN_ROWS_PER_WORKER).max(1).min(n);
    if workers == 1 {
        let mut scratch = init();
        for (i, row) in target.chunks_mut(width).enumerate() {
            f(&mut scratch, i, row);
        }
        return;
    }
    let chunk_rows = n.div_ceil(workers);
    pool.scope(|scope| {
        for (chunk_idx, chunk) in target.chunks_mut(chunk_rows * width).enumerate() {
            let start = chunk_idx * chunk_rows;
            let init = &init;
            let f = &f;
            scope.spawn(move || {
                let mut scratch = init();
                for (local, row) in chunk.chunks_mut(width).enumerate() {
                    f(&mut scratch, start + local, row);
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn writes_every_row_exactly_once() {
        let mut buf = vec![0.0; 300 * 3];
        pooled_rows(&mut buf, 3, |i, row| {
            for (k, v) in row.iter_mut().enumerate() {
                *v = (i * 3 + k) as f64;
            }
        });
        for (j, v) in buf.iter().enumerate() {
            assert_eq!(*v, j as f64);
        }
    }

    #[test]
    fn init_variant_reuses_scratch_within_a_chunk() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let inits = AtomicUsize::new(0);
        let mut buf = vec![0.0; 4096];
        pooled_rows_init(
            &mut buf,
            1,
            || {
                inits.fetch_add(1, Ordering::Relaxed);
                vec![0.0f64; 8]
            },
            |scratch, i, row| {
                scratch[0] = i as f64;
                row[0] = scratch[0] * 2.0;
            },
        );
        for (i, v) in buf.iter().enumerate() {
            assert_eq!(*v, i as f64 * 2.0);
        }
        assert!(
            inits.load(Ordering::Relaxed) <= fedval_runtime::Pool::global().threads().max(1),
            "scratch created at most once per chunk"
        );
    }

    #[test]
    fn small_sweeps_stay_inline_and_match_large() {
        // 4 rows (inline) and 4096 rows (pooled) both produce the pure
        // function of the index.
        for n in [4usize, 4096] {
            let mut buf = vec![0.0; n];
            pooled_rows(&mut buf, 1, |i, row| row[0] = (i as f64).sqrt());
            for (i, v) in buf.iter().enumerate() {
                assert_eq!(v.to_bits(), (i as f64).sqrt().to_bits(), "n={n}, i={i}");
            }
        }
    }
}
