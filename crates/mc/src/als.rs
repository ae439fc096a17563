//! Alternating least squares for the regularized factorization problem.
//!
//! Each ALS half-step solves, per row (resp. column), the exact ridge
//! sub-problem of objective (9)/(13) with the other factor fixed — so the
//! objective is monotonically non-increasing, which the tests verify.
//!
//! **One factorization per distinct system.** A target's ridge system is
//! `(AᵀA + λI) x = Aᵀb`, where the rows of `A` are the other factor's
//! rows at the target's observed entries, in entry order. Within a
//! half-step the other factor is fixed, so the left-hand side depends
//! only on that ordered sequence of other-side indices. A `Side` lays
//! out each target's `(other index, value)` pairs contiguously and
//! groups the targets by their sequence, once per solve: the grouping
//! cannot change across sweeps. Each sweep then factors every group
//! once, and each target only accumulates its right-hand side and
//! substitutes against its group's factor. The utility matrices ComFedSV
//! completes have thousands of subset columns but few distinct
//! observation patterns (about 80 for 3,000 columns in the benchmark's
//! warm jobs), so most Gram assemblies and factorizations are shared. A
//! problem whose sequences are all distinct pays one extra grouping pass
//! per solve, not per sweep.
//!
//! **Packed lanes.** `Side` also lays its targets out by group once per
//! solve, in *slots*. A shared group's Gram is built in one pass over
//! the other factor's rows where they lie
//! ([`cholesky::ridge_factor_rows_into`], one `f64` lane per Gram column
//! for ranks up to 8); no design is gathered. Its targets are then
//! solved four at a time, one per lane: one broadcast design row and
//! factor entry serve all four lanes, and each pivot is one packed true
//! division (`vdivpd` on AVX2). A group's last 1–3 targets fill a pack
//! too, whose empty lanes repeat the group's last target; their outputs
//! land in padding slots that nothing reads. The pack kernels are
//! const-generic over the rank (1–8, chosen at run time; other ranks
//! take the scalar path). A target alone in its group (every round on
//! the row side) sums its Gram and right-hand side in the same pass
//! ([`cholesky::ridge_solve_rows_into`]) and substitutes. An earlier
//! variant interleaved four targets' *scalar* division chains. It was
//! throughput bound: on a shared 2-vCPU VM it slowed 1.6–1.9× whenever
//! the host was busy, and job latency split into two modes. Packing
//! issues a quarter of the scalar path's division µops, so it leans far
//! less on the core's spare throughput.
//!
//! **No per-sweep scatter.** `H` stays in the column side's slot order
//! for the whole solve: the column half-step writes its slots in place,
//! the row side names columns by slot (relabeled once per solve), and
//! `H` is put back in column order once, at the end. Only `W` (one row
//! per round) is copied out of its slots each sweep.
//!
//! **Where a sweep's time goes.** On the benchmark's seed-10 warm world
//! (rank 4, 10 × 3,019, 3,487 observations, one thread on one CPU of a
//! shared 2-vCPU VM), a solve of 100 sweeps took a median of 12.0–12.2
//! ms in a harness timing each phase, against 18.2–20.0 ms before the
//! lane-wide Gram, the one-pass objective, the padded packs and the
//! slot-ordered `H`. Of that: the packs 5.4–5.6 ms (about 700 of a
//! column half-step's ~755 packs belong to the ~2,800 columns observed
//! in round 0 only, the sequence `[0]`; round 0 selects every client, so
//! every column is observed and none solves to `+0.0`), the
//! single-target solves 2.6–2.8 ms (1.7 ms of it the row side's ten
//! rounds), the objective 2–3 ms for 101 evaluations (its `‖H‖²` chain
//! of ~12,000 in-order additions is the floor), the shared groups'
//! factors 0.45 ms, and the once-per-solve grouping 0.65 ms.
//!
//! **Bit-identical to one ridge solve per target.** Every target still
//! goes through the same IEEE operations in the same order as a
//! [`cholesky::ridge_solve_into`] call on its own design, in a packed
//! lane or alone: the Gram summed in entry order from `+0.0` with `λ`
//! added last (a lane holds the product `row[p] · row[q]` the scalar sum
//! adds), the same factorization, the right-hand side accumulated in
//! entry order from `+0.0` (multiply, then add; never fused), then
//! forward and back substitution with true divisions. A padding lane
//! computes a real target's solution again and is thrown away. The
//! group key is the *ordered* sequence, not the set of rows, because the
//! Gram's sums follow entry order: the same rows hit in another order
//! form another group. Targets with no observations share the empty
//! sequence's group; their system `λI x = 0` solves to exactly `+0.0`,
//! as the ridge solve of an empty design does. The objective's chains
//! keep their summands, order and `-0.0` start (see
//! `factors::objective_of`), and reading `H` through the slot map only
//! moves where a row is stored. The tests pin all of this against a
//! per-target reference and the three-sum objective.
//!
//! Groups, packs and single targets are independent within a
//! half-step and are solved in parallel through the persistent
//! `fedval_runtime` pool (see `crate::parallel`). Each writes only its
//! own slots, so the result does not depend on the pool size.

use crate::completer::{check_finite, Completion, CompletionError, MatrixCompleter, SolveHooks};
use crate::factors::{self, Factors};
use crate::parallel::pooled_rows;
use crate::problem::CompletionProblem;
use fedval_linalg::{cholesky, Lanes, LinalgError, Matrix};
use rand::rngs::StdRng;
use rand::Rng;
use rand::SeedableRng;
use std::collections::HashMap;
use std::sync::OnceLock;

/// ALS configuration.
#[derive(Debug, Clone)]
pub struct AlsConfig {
    /// Factor rank `r`.
    pub rank: usize,
    /// Regularization `λ` (must be positive — it also guarantees the ridge
    /// systems are well-posed).
    pub lambda: f64,
    /// Maximum full sweeps.
    pub max_iters: usize,
    /// Stop when the relative objective improvement falls below this.
    pub tol: f64,
    /// Seed for the random initialization.
    pub seed: u64,
}

impl AlsConfig {
    /// A sensible default for the paper's utility matrices.
    pub fn new(rank: usize) -> Self {
        AlsConfig {
            rank,
            lambda: 0.1,
            max_iters: 50,
            tol: 1e-8,
            seed: 0,
        }
    }

    /// Builder-style override of `λ`.
    pub fn with_lambda(mut self, lambda: f64) -> Self {
        self.lambda = lambda;
        self
    }

    /// Builder-style override of the iteration budget.
    pub fn with_max_iters(mut self, iters: usize) -> Self {
        self.max_iters = iters;
        self
    }

    /// Builder-style override of the seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }
}

impl MatrixCompleter for AlsConfig {
    fn name(&self) -> &'static str {
        "als"
    }

    fn complete_with(
        &self,
        problem: &CompletionProblem,
        hooks: SolveHooks<'_>,
    ) -> Result<Completion, CompletionError> {
        if self.rank == 0 {
            return Err(CompletionError::InvalidRank);
        }
        if !(self.lambda > 0.0 && self.lambda.is_finite()) {
            // The ridge sub-solves need a finite λ > 0 to stay SPD.
            return Err(CompletionError::InvalidLambda {
                lambda: self.lambda,
            });
        }
        let (factors, trace) = run_als(problem, self, hooks)?;
        check_finite(self.name(), factors, trace)
    }
}

/// Small random init, scaled so initial predictions have the magnitude
/// of the observed values.
fn init_factors(problem: &CompletionProblem, config: &AlsConfig) -> Factors {
    let r = config.rank;
    let scale = {
        let mean_abs = if problem.num_observations() == 0 {
            1.0
        } else {
            problem
                .entries()
                .iter()
                .map(|&(_, _, v)| v.abs())
                .sum::<f64>()
                / problem.num_observations() as f64
        };
        (mean_abs.max(1e-6) / r as f64).sqrt()
    };
    let mut rng = StdRng::seed_from_u64(config.seed);
    Factors {
        w: Matrix::from_fn(problem.num_rows(), r, |_, _| {
            (rng.random::<f64>() - 0.5) * 2.0 * scale
        }),
        h: Matrix::from_fn(problem.num_cols(), r, |_, _| {
            (rng.random::<f64>() - 0.5) * 2.0 * scale
        }),
    }
}

/// The ALS iteration itself; configuration validity is the caller's
/// responsibility ([`MatrixCompleter::complete`] checks it).
///
/// `H` is kept in the column side's slot order for the whole solve (see
/// [`Side`]): the column half-step writes it in place, the row side
/// reads it through indices relabeled once, and the objective sums
/// `‖H‖²` in column order through the slot map. `H` is put back in
/// column order once, at the end.
fn run_als(
    problem: &CompletionProblem,
    config: &AlsConfig,
    mut hooks: SolveHooks<'_>,
) -> Result<(Factors, Vec<f64>), CompletionError> {
    let Factors { mut w, h: init_h } = init_factors(problem, config);
    let cols = Side::cols(problem);
    let rows = Side::rows(problem, &cols.slot);
    let r = config.rank;
    let mut h = Matrix::zeros(cols.order.len(), r);
    for (c, &s) in cols.slot.iter().enumerate() {
        h.row_mut(s).copy_from_slice(init_h.row(c));
    }
    let lanes = Lanes::detect();
    let mut chol = Vec::new();
    let mut w_slots = vec![0.0; rows.order.len() * r];
    let objective = |w: &Matrix, h: &Matrix| {
        let slot = |c: usize| cols.slot[c];
        factors::objective_of(w, h, problem.num_cols(), slot, problem, config.lambda)
    };

    let mut objective_trace = vec![objective(&w, &h)];
    for sweep in 0..config.max_iters {
        hooks.check()?;
        let step = rows
            .half_step(&h, &mut w_slots, config.lambda, lanes, &mut chol)
            .and_then(|()| {
                for (t, &s) in rows.slot.iter().enumerate() {
                    w.row_mut(t).copy_from_slice(&w_slots[s * r..(s + 1) * r]);
                }
                cols.half_step(&w, h.as_mut_slice(), config.lambda, lanes, &mut chol)
            });
        if step.is_err() {
            // A Gram that overflowed does not factor: the solve has
            // left ℝ, at the first non-finite objective if there is one.
            let first = objective_trace.iter().position(|o| !o.is_finite());
            return Err(CompletionError::SolverDiverged {
                solver: "als",
                sweep: first.unwrap_or(sweep + 1),
            });
        }
        let obj = objective(&w, &h);
        let prev = *objective_trace.last().expect("non-empty");
        objective_trace.push(obj);
        hooks.sweep(sweep + 1, obj);
        if prev - obj <= config.tol * prev.abs().max(1e-12) {
            break;
        }
    }
    let h = Matrix::from_fn(problem.num_cols(), r, |c, p| h.get(cols.slot[c], p));
    Ok((Factors { w, h }, objective_trace))
}

/// One side of the factorization as a half-step sees it: the targets it
/// solves (the rows of `W`, or the rows of `H`), each with its observed
/// `(other index, value)` pairs laid out contiguously in entry order,
/// and the targets grouped by their ordered sequence of other indices.
///
/// A half-step writes its solutions to *slots*, in `order`: first every
/// shared group's targets, padded with copies of its last target to a
/// whole number of packs of four, then every single-target group's
/// target. The padding slots hold duplicate solutions that nothing
/// reads.
struct Side {
    /// Target `t`'s pairs are at `starts[t]..starts[t + 1]`.
    starts: Vec<usize>,
    /// Other-side index of each pair: the row for a column target, and
    /// the column's slot (see [`Side::rows`]) for a row target.
    others: Vec<usize>,
    /// Observed value of each pair.
    values: Vec<f64>,
    /// Each target's group. Targets with no observations share the
    /// group of the empty sequence, whose system `λI x = 0` solves to
    /// exactly `+0.0`.
    group: Vec<usize>,
    /// Per group, its first target, whose design defines the group's
    /// factor. The first `shared` groups have two or more targets.
    leaders: Vec<usize>,
    /// How many groups have two or more targets; each is factored once
    /// per sweep and its targets substituted in packs.
    shared: usize,
    /// The target of each slot: `packs` packs of four, then the
    /// single-target groups' targets.
    order: Vec<usize>,
    /// How many packs of four lead `order`.
    packs: usize,
    /// Each target's slot.
    slot: Vec<usize>,
}

impl Side {
    /// The rows of `W`: each round against the columns it observed. The
    /// columns are named by their slot on the column side (`col_slot`),
    /// where the solve keeps `H`'s rows.
    fn rows(problem: &CompletionProblem, col_slot: &[usize]) -> Side {
        Side::new(
            problem,
            problem.num_rows(),
            |t| problem.row_entries(t),
            |(_, col)| col_slot[col],
        )
    }

    /// The rows of `H`: each subset column against the rounds that
    /// observed it.
    fn cols(problem: &CompletionProblem) -> Side {
        Side::new(
            problem,
            problem.num_cols(),
            |t| problem.col_entries(t),
            |(row, _)| row,
        )
    }

    fn new<'p>(
        problem: &'p CompletionProblem,
        targets: usize,
        entry_ids: impl Fn(usize) -> &'p [usize],
        other: impl Fn((usize, usize)) -> usize,
    ) -> Side {
        let n = problem.num_observations();
        let mut starts = Vec::with_capacity(targets + 1);
        let mut others = Vec::with_capacity(n);
        let mut values = Vec::with_capacity(n);
        starts.push(0);
        for t in 0..targets {
            for &eid in entry_ids(t) {
                let (row, col, value) = problem.entries()[eid];
                others.push(other((row, col)));
                values.push(value);
            }
            starts.push(others.len());
        }
        let mut by_sequence: HashMap<&[usize], usize> = HashMap::new();
        let seen: Vec<usize> = (0..targets)
            .map(|t| {
                let next = by_sequence.len();
                *by_sequence
                    .entry(&others[starts[t]..starts[t + 1]])
                    .or_insert(next)
            })
            .collect();
        let mut size = vec![0usize; by_sequence.len()];
        seen.iter().for_each(|&g| size[g] += 1);
        // Shared groups first, each kind in order of first appearance.
        let mut by_group: Vec<usize> = (0..targets).collect();
        by_group.sort_by_key(|&t| (size[seen[t]] < 2, seen[t]));
        let (mut group, mut leaders, mut shared) = (vec![0; targets], Vec::new(), 0);
        let mut order = Vec::with_capacity(targets);
        for members in by_group.chunk_by(|&a, &b| seen[a] == seen[b]) {
            members.iter().for_each(|&t| group[t] = leaders.len());
            leaders.push(members[0]);
            order.extend_from_slice(members);
            if members.len() > 1 {
                shared += 1;
                let last = members[members.len() - 1];
                order.resize(order.len().next_multiple_of(4), last);
            }
        }
        let packs = (order.len() - (leaders.len() - shared)) / 4;
        let mut slot = vec![0; targets];
        for (s, &t) in order.iter().enumerate().rev() {
            slot[t] = s;
        }
        Side {
            starts,
            others,
            values,
            group,
            leaders,
            shared,
            order,
            packs,
            slot,
        }
    }

    /// Target `t`'s other-side indices, in entry order.
    fn others(&self, t: usize) -> &[usize] {
        &self.others[self.starts[t]..self.starts[t + 1]]
    }

    /// Target `t`'s observed values, in entry order.
    fn values(&self, t: usize) -> &[f64] {
        &self.values[self.starts[t]..self.starts[t + 1]]
    }

    /// Ridge-solves every target against the fixed `other` factor (whose
    /// rows the other-side indices name) into `slots`, `r` per slot, in
    /// `order`. Factors each shared group's Gram once, reading the
    /// group's rows of `other` in place, into `chol`, and solves its
    /// packs of four with the `lanes` kernel for the rank (or one slot
    /// at a time when the rank has none). A single-target group sums its
    /// Gram and its right-hand side in one pass and substitutes. Every
    /// target's solution depends only on its own data, so the result is
    /// the same for any pool size.
    ///
    /// A Gram that does not factor (it overflowed) is an error, and
    /// `slots` is then in an unspecified state.
    fn half_step(
        &self,
        other: &Matrix,
        slots: &mut [f64],
        lambda: f64,
        lanes: Lanes,
        chol: &mut Vec<f64>,
    ) -> Result<(), LinalgError> {
        let r = other.cols();
        chol.resize(self.shared * r * r, 0.0);
        let mut failure = OnceLock::new();
        pooled_rows(chol, r * r, |g, l| {
            let rows = self.others(self.leaders[g]).iter().map(|&o| other.row(o));
            if let Err(e) = cholesky::ridge_factor_rows_into(rows, r, lambda, l) {
                let _ = failure.set(e);
            }
        });
        if let Some(e) = failure.take() {
            return Err(e);
        }
        let factor = |t: usize| &chol[self.group[t] * r * r..(self.group[t] + 1) * r * r];
        let (in_packs, in_singles) = slots.split_at_mut(self.packs * 4 * r);
        match lanes.pack_kernel(r) {
            Some(solve_pack) => pooled_rows(in_packs, 4 * r, |k, out| {
                let pack: [usize; 4] = self.order[4 * k..4 * k + 4].try_into().expect("four");
                let values = pack.map(|t| self.values(t));
                solve_pack(factor(pack[0]), other, self.others(pack[0]), values, out);
            }),
            None => pooled_rows(in_packs, r, |s, x| {
                let t = self.order[s];
                x.fill(0.0);
                for (&o, &v) in self.others(t).iter().zip(self.values(t)) {
                    fedval_linalg::vector::axpy(v, other.row(o), x);
                }
                cholesky::ridge_solve_factored(factor(t), x).expect("factor and slot ranks agree");
            }),
        }
        let singles = &self.order[4 * self.packs..];
        pooled_rows(in_singles, r, |i, x| {
            let t = singles[i];
            let rows = self.others(t).iter().zip(self.values(t));
            let rows = rows.map(|(&o, &v)| (other.row(o), v));
            if let Err(e) = cholesky::ridge_solve_rows_into(rows, r, lambda, x) {
                let _ = failure.set(e);
            }
        });
        failure.take().map_or(Ok(()), Err)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Trait-API shorthand used throughout these tests.
    fn solve_als(problem: &CompletionProblem, config: &AlsConfig) -> (Factors, Vec<f64>) {
        let c = config.complete(problem).unwrap();
        (c.factors, c.objective_trace)
    }

    /// Builds a problem from a dense low-rank matrix with a random mask.
    fn masked_low_rank(
        t: usize,
        c: usize,
        rank: usize,
        keep: f64,
        seed: u64,
    ) -> (CompletionProblem, Matrix) {
        let mut rng = StdRng::seed_from_u64(seed);
        let w = Matrix::from_fn(t, rank, |_, _| rng.random::<f64>() * 2.0 - 1.0);
        let h = Matrix::from_fn(c, rank, |_, _| rng.random::<f64>() * 2.0 - 1.0);
        let full = w.matmul_transpose(&h).unwrap();
        let mut p = CompletionProblem::new(t);
        // Ensure every column is seen at least once (Assumption 1 analogue):
        // row 0 observes everything.
        for j in 0..c {
            p.add_observation(0, j as u64, full.get(0, j));
        }
        for i in 1..t {
            for j in 0..c {
                if rng.random::<f64>() < keep {
                    p.add_observation(i, j as u64, full.get(i, j));
                }
            }
        }
        (p, full)
    }

    #[test]
    fn objective_is_monotone_nonincreasing() {
        let (p, _) = masked_low_rank(12, 16, 3, 0.4, 1);
        let (_, trace) = solve_als(&p, &AlsConfig::new(3).with_lambda(0.05));
        for w in trace.windows(2) {
            assert!(
                w[1] <= w[0] + 1e-9,
                "objective increased: {} -> {}",
                w[0],
                w[1]
            );
        }
    }

    #[test]
    fn recovers_low_rank_matrix_from_partial_observations() {
        let (p, full) = masked_low_rank(20, 24, 2, 0.5, 3);
        let (factors, _) = solve_als(&p, &AlsConfig::new(2).with_lambda(1e-3).with_max_iters(200));
        let rec = factors.complete();
        let rel = rec.sub(&full).unwrap().frobenius_norm() / full.frobenius_norm();
        assert!(rel < 0.05, "relative recovery error {rel}");
    }

    #[test]
    fn observed_entries_fit_tightly() {
        let (p, _) = masked_low_rank(10, 12, 2, 0.6, 5);
        let (factors, _) = solve_als(&p, &AlsConfig::new(3).with_lambda(1e-4));
        assert!(factors.observed_rmse(&p) < 1e-2);
    }

    #[test]
    fn deterministic_given_seed() {
        let (p, _) = masked_low_rank(8, 10, 2, 0.5, 7);
        let cfg = AlsConfig::new(2).with_seed(11);
        let (f1, _) = solve_als(&p, &cfg);
        let (f2, _) = solve_als(&p, &cfg);
        assert_eq!(f1.w.as_slice(), f2.w.as_slice());
        assert_eq!(f1.h.as_slice(), f2.h.as_slice());
    }

    #[test]
    fn unobserved_column_is_zero() {
        let mut p = CompletionProblem::new(4);
        p.add_observation(0, 1, 1.0);
        p.add_observation(1, 1, 1.0);
        let ghost = p.ensure_column(99);
        let (factors, _) = solve_als(&p, &AlsConfig::new(2));
        for v in factors.h.row(ghost) {
            assert_eq!(*v, 0.0);
        }
    }

    /// The per-target reference the grouped half-step must match bit
    /// for bit: one [`cholesky::ridge_solve_into`] per target, on its
    /// design gathered in entry order.
    fn reference_half_step(
        problem: &CompletionProblem,
        other: &Matrix,
        target: &mut Matrix,
        lambda: f64,
        entry_ids: impl Fn(usize) -> Vec<usize>,
        pick: impl Fn((usize, usize)) -> usize,
    ) {
        let mut scratch = cholesky::RidgeScratch::new();
        for t in 0..target.rows() {
            let ids = entry_ids(t);
            let entry = |k: usize| problem.entries()[ids[k]];
            let design = Matrix::from_fn(ids.len(), other.cols(), |k, p| {
                let (row, col, _) = entry(k);
                other.get(pick((row, col)), p)
            });
            let b: Vec<f64> = (0..ids.len()).map(|k| entry(k).2).collect();
            cholesky::ridge_solve_into(&design, &b, lambda, target.row_mut(t), &mut scratch)
                .unwrap();
        }
    }

    /// [`run_als`] with the reference half-steps.
    fn reference_als(problem: &CompletionProblem, config: &AlsConfig) -> (Factors, Vec<f64>) {
        let mut f = init_factors(problem, config);
        let mut trace = vec![f.objective(problem, config.lambda)];
        for _ in 0..config.max_iters {
            let Factors { w, h } = &mut f;
            let rows = |t| problem.row_entries(t).to_vec();
            let cols = |t| problem.col_entries(t).to_vec();
            reference_half_step(problem, h, w, config.lambda, rows, |(_, col)| col);
            reference_half_step(problem, w, h, config.lambda, cols, |(row, _)| row);
            let obj = f.objective(problem, config.lambda);
            let prev = *trace.last().unwrap();
            trace.push(obj);
            if prev - obj <= config.tol * prev.abs().max(1e-12) {
                break;
            }
        }
        (f, trace)
    }

    #[test]
    fn grouped_half_steps_match_per_target_solves_bitwise() {
        // Rank 3 and 4 take the packed kernels, rank 9 the scalar path;
        // the small problem stays inline, the large one takes the pooled
        // path in every phase at the widest pool the CI runs
        // (`FEDVAL_THREADS=4`).
        for rank in [3, 4, 9] {
            grouped_case(rank, false);
            grouped_case(rank, true);
        }
    }

    fn grouped_case(rank: usize, pooled: bool) {
        let threads = 4;
        let t = 12;
        let mut rng = StdRng::seed_from_u64(21);
        let w = Matrix::from_fn(t, rank, |_, _| rng.random::<f64>() * 2.0 - 1.0);
        let value = |rng: &mut StdRng, row: usize, key: u64| {
            let h: Vec<f64> = (0..rank)
                .map(|p| ((key as f64 + 1.0) * (p as f64 + 0.5)).sin())
                .collect();
            fedval_linalg::vector::dot(w.row(row), &h) + 0.01 * (rng.random::<f64>() - 0.5)
        };
        let mut p = CompletionProblem::new(t);
        // Random masks: mostly distinct sequences, most longer than the
        // rank.
        let mut key = 0u64;
        let random = if pooled { 640 } else { 16 };
        for _ in 0..random {
            for row in 0..t {
                if rng.random::<f64>() < 0.5 {
                    let v = value(&mut rng, row, key);
                    p.add_observation(row, key, v);
                }
            }
            key += 1;
        }
        // Three shared patterns, each ending in a pack tail of 1, 2 and
        // 3 targets.
        let shared = key;
        let extra = if pooled { 152 } else { 0 };
        for (pattern, copies) in [
            (&[0usize, 3, 5, 9][..], 21),
            (&[2, 4], 22),
            (&[11, 1, 6, 7, 8], 23),
        ] {
            for _ in 0..copies + extra {
                for &row in pattern {
                    let v = value(&mut rng, row, key);
                    p.add_observation(row, key, v);
                }
                key += 1;
            }
        }
        // The same rows hit in two orders, four times over.
        let mut reversed_pairs = Vec::new();
        for rows in [
            &[1usize, 4, 7, 10, 0, 3][..],
            &[2, 3, 5, 8, 9, 11, 6],
            &[0, 11, 5, 2],
            &[6, 7, 8, 9, 10],
        ] {
            for order in [rows.to_vec(), rows.iter().rev().copied().collect()] {
                for &row in &order {
                    let v = value(&mut rng, row, key);
                    p.add_observation(row, key, v);
                }
                key += 1;
            }
            reversed_pairs.push((key - 2, key - 1));
        }
        // A duplicated observation of one cell.
        let twice = key;
        for &row in &[2usize, 5, 2] {
            p.add_observation(row, twice, value(&mut rng, row, twice));
        }
        key += 1;
        // Columns nobody observed.
        let ghosts: Vec<usize> = (key..key + 5).map(|k| p.ensure_column(k)).collect();

        let cols = Side::cols(&p);
        for (forward, backward) in reversed_pairs {
            let (f, b) = (
                p.column_index(forward).unwrap(),
                p.column_index(backward).unwrap(),
            );
            let mut reversed = cols.others(b).to_vec();
            reversed.reverse();
            assert_eq!(cols.others(f), &reversed[..]);
            assert_ne!(
                cols.group[f], cols.group[b],
                "ordered sequences, not row sets"
            );
        }
        assert_eq!(cols.others(p.column_index(twice).unwrap()), &[2, 5, 2]);
        let shared = p.column_index(shared).unwrap();
        assert_eq!(cols.group[shared], cols.group[shared + 19]);
        let tails = cols.order.len() - 4 * cols.packs;
        if pooled {
            // Every phase of the column half-step takes the pooled path.
            let min_rows = crate::parallel::MIN_ROWS_PER_WORKER * threads;
            assert!(cols.leaders.len() > min_rows);
            assert!(cols.packs > min_rows);
            assert!(tails > min_rows);
            assert!(p.num_cols() > min_rows);
        } else {
            // Every phase stays inline at any pool width.
            let max_rows = 2 * crate::parallel::MIN_ROWS_PER_WORKER;
            assert!(cols.leaders.len().max(cols.packs).max(tails) < max_rows);
        }

        let config = AlsConfig::new(rank).with_lambda(0.05).with_max_iters(8);
        let (grouped, trace) = solve_als(&p, &config);
        let (reference, ref_trace) = reference_als(&p, &config);
        let bits = |m: &[f64]| m.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        assert_eq!(trace.len(), 9, "all sweeps ran");
        assert_eq!(bits(&trace), bits(&ref_trace), "rank {rank}");
        assert_eq!(bits(grouped.w.as_slice()), bits(reference.w.as_slice()));
        assert_eq!(bits(grouped.h.as_slice()), bits(reference.h.as_slice()));
        for &g in &ghosts {
            assert!(grouped.h.row(g).iter().all(|v| v.to_bits() == 0));
        }
    }

    #[test]
    fn packed_half_step_matches_per_target_solves_bitwise() {
        // Every rank with a pack kernel plus the first without, every
        // padded pack tail, single-target groups, and both kernel
        // instantiations called explicitly.
        let instantiations: Vec<Lanes> = [Some(Lanes::portable()), Lanes::avx2()]
            .into_iter()
            .flatten()
            .collect();
        let mut rng = StdRng::seed_from_u64(33);
        for rank in 1..=9 {
            assert_eq!(Lanes::portable().pack_kernel(rank).is_some(), rank <= 8);
            // Row 4 holds signed zeros and subnormals.
            let other = Matrix::from_fn(6, rank, |i, p| match (i, p % 2) {
                (4, 0) => -0.0,
                (4, _) => 3e-310,
                _ => rng.random::<f64>() * 2.0 - 1.0,
            });
            for size in 1..=9usize {
                let mut p = CompletionProblem::new(6);
                let mut key = 0u64;
                // A sequence with a duplicated cell, then one that only
                // hits row 4: its right-hand side is `+0.0 + (v · -0.0)`,
                // which must come out `+0.0`, and subnormal products.
                for rows in [&[1usize, 4, 3, 1][..], &[4]] {
                    for _ in 0..size {
                        for &row in rows {
                            let v = 0.25 + rng.random::<f64>();
                            p.add_observation(row, key, v);
                        }
                        key += 1;
                    }
                }
                // The empty sequence's group.
                let ghosts: Vec<usize> = (key..key + size as u64)
                    .map(|k| p.ensure_column(k))
                    .collect();
                let cols = Side::cols(&p);
                if size == 1 {
                    // Three single-target groups: no packs.
                    assert_eq!((cols.shared, cols.packs, cols.order.len()), (0, 0, 3));
                } else {
                    // Every target, a group's last 1–3 included, is in a
                    // pack; the empty lanes repeat the group's last target.
                    assert_eq!(cols.shared, 3);
                    assert_eq!(cols.packs, 3 * size.div_ceil(4));
                    assert_eq!(cols.order.len(), 4 * cols.packs);
                    for pack in cols.order.chunks(4) {
                        assert!(pack.iter().all(|&t| cols.group[t] == cols.group[pack[0]]));
                        assert!(pack.windows(2).all(|w| w[0] <= w[1]));
                    }
                }
                let mut expect = Matrix::zeros(p.num_cols(), rank);
                let col_entries = |c| p.col_entries(c).to_vec();
                reference_half_step(&p, &other, &mut expect, 0.3, col_entries, |(r, _)| r);
                for &lanes in &instantiations {
                    let mut slots = vec![f64::NAN; cols.order.len() * rank];
                    cols.half_step(&other, &mut slots, 0.3, lanes, &mut Vec::new())
                        .unwrap();
                    for c in 0..p.num_cols() {
                        let s = cols.slot[c];
                        assert_eq!(cols.order[s], c);
                        for (x, y) in slots[s * rank..(s + 1) * rank].iter().zip(expect.row(c)) {
                            assert_eq!(
                                x.to_bits(),
                                y.to_bits(),
                                "{lanes:?} rank {rank} size {size}"
                            );
                        }
                    }
                    for &g in &ghosts {
                        let s = cols.slot[g];
                        assert!(slots[s * rank..(s + 1) * rank]
                            .iter()
                            .all(|v| v.to_bits() == 0));
                    }
                }
            }
        }
    }

    #[test]
    fn higher_lambda_shrinks_factors() {
        let (p, _) = masked_low_rank(10, 10, 2, 0.7, 9);
        let (f_small, _) = solve_als(&p, &AlsConfig::new(2).with_lambda(1e-3));
        let (f_big, _) = solve_als(&p, &AlsConfig::new(2).with_lambda(10.0));
        let norm = |f: &Factors| f.w.frobenius_norm() + f.h.frobenius_norm();
        assert!(norm(&f_big) < norm(&f_small));
    }

    #[test]
    fn rank_one_problem_solved_by_rank_one_model() {
        // U = a bᵀ exactly; even with few observations ALS should fit the
        // observed entries nearly perfectly.
        let mut p = CompletionProblem::new(5);
        let a = [1.0, 2.0, -1.0, 0.5, 3.0];
        let b = [2.0, -1.0, 0.5, 1.5];
        for i in 0..5 {
            for j in 0..4 {
                if (i + j) % 2 == 0 || i == 0 {
                    p.add_observation(i, j as u64, a[i] * b[j]);
                }
            }
        }
        let (factors, _) = solve_als(&p, &AlsConfig::new(1).with_lambda(1e-5).with_max_iters(100));
        assert!(factors.observed_rmse(&p) < 1e-3);
    }

    #[test]
    fn rejects_zero_rank() {
        let p = CompletionProblem::new(1);
        assert!(matches!(
            AlsConfig::new(0).complete(&p),
            Err(CompletionError::InvalidRank)
        ));
    }

    #[test]
    fn rejects_zero_lambda() {
        let p = CompletionProblem::new(1);
        assert!(matches!(
            AlsConfig::new(1).with_lambda(0.0).complete(&p),
            Err(CompletionError::InvalidLambda { .. })
        ));
    }
}
