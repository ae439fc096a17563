//! Reusable minibatch workspaces for the batched model kernels.
//!
//! Every model's `loss`/`grad` is evaluated as a sequence of minibatch
//! chunks of at most [`CHUNK_ROWS`] examples, each chunk one set of
//! GEMM calls over `(batch × features)` matrices. The per-layer
//! activation/gradient buffers those calls need live in a [`Workspace`]:
//! create one per worker (the utility oracle keeps one per scratch
//! model, the trainer one per chunk worker) and every subsequent
//! evaluation reuses the same allocations — the pre-batching code paid
//! a `Vec<Vec<f64>>` of allocations *per sample*.
//!
//! The chunked loop of [`Model::loss_with`](crate::Model::loss_with)
//! observes the caller's cancellation token between minibatches, so a
//! cancelled valuation stops *inside* a utility cell instead of
//! finishing an arbitrarily large model evaluation first.

use fedval_linalg::{gemm, vector, DeterminismTier, Matrix};

/// Rows per minibatch chunk of the batched kernels. Large enough that
/// the GEMM calls amortize their setup, small enough that one chunk's
/// activations stay modest and cancellation latency is bounded.
pub const CHUNK_ROWS: usize = 256;

// A chunk starts a block of the lane-packed rows the one-pass logistic
// loss reads.
const _: () = assert!(CHUNK_ROWS.is_multiple_of(fedval_linalg::vector::PACK_ROWS));

/// Reusable per-worker buffers for the batched model kernels.
///
/// The workspace also carries the evaluation's [`DeterminismTier`]: the
/// batched model kernels read it to pick between the bit-exact and the
/// FMA-fused `Fast` GEMM paths, so the tier travels with the worker
/// state rather than living in a global — concurrent evaluations can
/// mix tiers safely.
pub struct Workspace {
    bufs: Vec<Matrix>,
    gemm: gemm::Scratch,
    tier: DeterminismTier,
}

impl Default for Workspace {
    fn default() -> Self {
        Workspace::new()
    }
}

impl Workspace {
    /// An empty workspace at the process default tier
    /// ([`DeterminismTier::default_tier`], i.e. `FEDVAL_TIER` or
    /// `BitExact`); buffers are grown by the first evaluation.
    pub fn new() -> Self {
        Workspace {
            bufs: Vec::new(),
            gemm: gemm::Scratch::new(),
            tier: DeterminismTier::default_tier(),
        }
    }

    /// An empty workspace pinned to [`DeterminismTier::BitExact`] —
    /// what the bitwise equivalence tests and reference baselines use
    /// regardless of the `FEDVAL_TIER` environment.
    pub fn bit_exact() -> Self {
        Workspace::new().with_tier(DeterminismTier::BitExact)
    }

    /// Sets the tier (builder style).
    pub fn with_tier(mut self, tier: DeterminismTier) -> Self {
        self.tier = tier;
        self
    }

    /// Replaces the tier in place.
    pub fn set_tier(&mut self, tier: DeterminismTier) {
        self.tier = tier;
    }

    /// The tier evaluations through this workspace run at.
    pub fn tier(&self) -> DeterminismTier {
        self.tier
    }

    /// The first `count` scratch matrices (created empty on first use)
    /// plus the shared GEMM packing scratch. Models carve their
    /// activation/delta buffers out of the slice with `split_at_mut`.
    pub(crate) fn parts(&mut self, count: usize) -> (&mut [Matrix], &mut gemm::Scratch) {
        if self.bufs.len() < count {
            self.bufs.resize_with(count, Matrix::default);
        }
        (&mut self.bufs[..count], &mut self.gemm)
    }
}

/// A chunk's loss-and-gradient epilogue: returns `total` plus the rows'
/// cross-entropy ([`vector::cross_entropy_rows`]) and writes each row's
/// `softmax(logits) − onehot(y)` to `delta` ([`vector::softmax_rows`]),
/// so per element the operations of the per-sample loops.
pub(crate) fn softmax_delta(
    logits: &Matrix,
    labels: &[usize],
    delta: &mut Matrix,
    total: f64,
) -> f64 {
    let classes = logits.cols();
    delta.resize_for_overwrite(labels.len(), classes);
    let total = vector::cross_entropy_rows(logits.as_slice(), classes, labels, total);
    vector::softmax_rows(logits.as_slice(), classes, delta.as_mut_slice());
    for (row, &y) in delta.as_mut_slice().chunks_exact_mut(classes).zip(labels) {
        row[y] -= 1.0;
    }
    total
}

/// The `[start, end)` minibatch chunks covering `n` examples, in
/// ascending order (ascending order is load-bearing: it keeps the
/// chunked reductions bit-identical to the per-sample loops).
pub(crate) fn chunks(n: usize) -> impl Iterator<Item = (usize, usize)> {
    (0..n.div_ceil(CHUNK_ROWS)).map(move |c| (c * CHUNK_ROWS, ((c + 1) * CHUNK_ROWS).min(n)))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn chunks_cover_everything_in_order() {
        for n in [
            0,
            1,
            CHUNK_ROWS - 1,
            CHUNK_ROWS,
            CHUNK_ROWS + 1,
            3 * CHUNK_ROWS + 7,
        ] {
            let mut expect_start = 0;
            for (start, end) in chunks(n) {
                assert_eq!(start, expect_start);
                assert!(end > start && end <= n);
                expect_start = end;
            }
            assert_eq!(expect_start, n, "n={n}");
        }
    }

    #[test]
    fn workspace_buffers_persist_across_parts_calls() {
        let mut ws = Workspace::new();
        {
            let (bufs, _) = ws.parts(3);
            bufs[2].resize(4, 5);
        }
        let (bufs, _) = ws.parts(2);
        assert_eq!(bufs.len(), 2);
        let (bufs, _) = ws.parts(3);
        assert_eq!(bufs[2].shape(), (4, 5), "buffer three survived");
    }

    #[test]
    fn tier_roundtrip_and_bit_exact_pin() {
        let mut ws = Workspace::new().with_tier(DeterminismTier::Fast);
        assert_eq!(ws.tier(), DeterminismTier::Fast);
        ws.set_tier(DeterminismTier::BitExact);
        assert_eq!(ws.tier(), DeterminismTier::BitExact);
        assert_eq!(Workspace::bit_exact().tier(), DeterminismTier::BitExact);
        // The default constructor follows the process-wide default.
        assert_eq!(Workspace::new().tier(), DeterminismTier::default_tier());
    }
}
