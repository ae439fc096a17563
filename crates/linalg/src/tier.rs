//! The determinism/performance knob of the numeric kernels.
//!
//! PRs 1–5 kept every kernel **bit-exact**: each output element is one
//! full-length, in-order sequential sum, so batched, blocked, and
//! SIMD-dispatched code produces bit-identical results to the naive
//! per-sample loops. That contract is what [`DeterminismTier::BitExact`]
//! (the default) continues to guarantee. [`DeterminismTier::Fast`]
//! relaxes *only* the within-element reduction order and floating-point
//! contraction, in exchange for FMA-fused, wider-SIMD kernels and a
//! GEMM-routed convolution — with a documented per-op error bound
//! ([`fast_epsilon`](crate::gemm::fast_epsilon)) against the bit-exact
//! reference.
//!
//! The tier is a *per-session* property: it is carried by value through
//! `Workspace` → model kernels → `UtilityOracle` → `ValuationSession`,
//! never stored in a global, so concurrent sessions sharing one worker
//! pool can mix tiers safely.
//!
//! # The loss's `exp` is an algorithm, not the host's libm
//!
//! In both tiers the loss epilogue's `exp` (softmax and log-sum-exp, in
//! [`vector`](crate::vector) and every model's batched and per-sample
//! paths) is glibc's table-driven `exp` as built for x86-64 with FMA,
//! ported bit for bit (the `lanes::fused` module). Its
//! fused multiply-adds round once on every host, so its bits do not
//! depend on the CPU or the libm. On glibc x86-64 hosts with FMA, where
//! every pinned checksum was made, they also equal libm's `exp`. On a
//! CPU without FMA each fused multiply-add is a libm `fma` call instead
//! of one instruction: the bits stay, but the epilogue runs about 3×
//! slower than a per-row loop over libm's `exp` (57–62 µs against 18 µs
//! for a 160 × 10 epilogue, measured on an FMA host with the portable
//! instantiation forced).
//!
//! # The `BitExact` logistic loss is one kernel
//!
//! A `BitExact` logistic model with at most
//! [`LINEAR_MAX_CLASSES`](crate::vector::LINEAR_MAX_CLASSES) classes
//! computes its loss with
//! [`vector::linear_cross_entropy`](crate::vector::linear_cross_entropy):
//! the logits `x · Wᵀ + bias` and the epilogue in one pass over the
//! dataset's lane-packed rows, the logits kept in registers: eight rows
//! per pack on the AVX-512F+FMA instantiation, four on the AVX2+FMA and
//! portable ones (`cpu::fused_isa` names the one that runs). Each logit
//! is still one accumulator from `+0.0` that adds separately rounded
//! products in ascending `k`, then the bias; each row then takes the
//! epilogue's operations in its order. So the loss has the bits of
//! `gemm::gemm_nt_into`, `gemm::add_bias_rows` and
//! `vector::cross_entropy_rows` run one after another. The `Fast` tier,
//! the gradients, logistic heads wider than 12 classes and the MLP and
//! CNN keep those separate steps.
//!
//! The other transcendental calls still go to the host's libm, so a
//! host whose libm rounds differently can still move bits through them:
//!
//! * `ln` in the loss epilogue (`vector::log_sum_exp`,
//!   `vector::cross_entropy_rows`, `vector::linear_cross_entropy`);
//! * `tanh` in `fedval_models`' MLP activation;
//! * `ln`, `sin` and `cos` in `fedval_data`'s Gaussian sampler
//!   (`randn.rs`), `ln` and `powf` in its Dirichlet partitioner
//!   (`partition.rs`), and `powf` in its synthetic covariance
//!   (`synthetic.rs`);
//! * `exp` and `ln` in `fedval_shapley`'s observation weights
//!   (`observation.rs`) and log-factorials (`coeffs.rs`), and `ln` in
//!   the default sample counts (`pipeline.rs`, `fedsv.rs`,
//!   `group_testing.rs`).

use std::sync::OnceLock;

/// Which arithmetic contract the numeric kernels honor.
///
/// # Exactly which operations may reorder under `Fast`
///
/// `Fast` changes the floating-point *result* of these operations, and
/// only these:
///
/// * **GEMM reductions** ([`gemm_nn_tiered`](crate::gemm::gemm_nn_tiered),
///   [`gemm_nt_tiered`](crate::gemm::gemm_nt_tiered),
///   [`gemm_tn_acc_tiered`](crate::gemm::gemm_tn_acc_tiered)): the
///   per-element dot over the shared dimension is split into **two
///   interleaved partial chains** (even/odd terms of each 8-term block)
///   combined pairwise at the end, and each multiply–add is **FMA-fused**
///   (one rounding instead of two). Memory-traffic blocking is unchanged.
/// * **CNN convolution forward/backward** (`fedval_models`): the conv
///   layer routes through im2col + the tiered GEMM family, so each conv
///   activation becomes a kernel-row-major 9-term FMA dot instead of the
///   scalar row-by-row accumulation, and the conv weight gradient
///   accumulates over `samples × positions` in the tiered `tn` kernel's
///   order instead of sample-by-sample. ReLU, average pooling, bias
///   addition, and the loss epilogue are element-wise and unchanged.
///
/// Everything else — `add_bias_rows`, `col_sums_acc`, `vector::dot` /
/// `axpy`, softmax/log-sum-exp and their row-per-lane forms
/// (`vector::softmax_rows`, `vector::cross_entropy_rows`,
/// `vector::linear_cross_entropy`),
/// Cholesky/QR/SVD, the ALS matrix completion (its ridge Grams stay
/// bit-exact on purpose), and all per-sample reference paths — is
/// identical in both tiers. The epilogue's `exp` is a fixed algorithm
/// in both (see the module docs).
///
/// `Fast` is still **deterministic**: the alternative reduction order is
/// fixed and the kernel instantiation is chosen once per process
/// ([`kernel_isa`](crate::cpu::kernel_isa)), so two `Fast` runs of the
/// same computation on the same machine are bit-identical *to each
/// other* — serial-vs-parallel equivalence holds within a tier. Only the
/// cross-tier comparison is relaxed, to within
/// [`fast_epsilon`](crate::gemm::fast_epsilon).
///
/// On hardware without runtime-detected FMA support, `Fast` falls back
/// to the bit-exact kernels (the tiers then coincide).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum DeterminismTier {
    /// Reference arithmetic: every reduction is one in-order sequential
    /// sum; results are bit-identical across blocking, threading, and
    /// SIMD width. The default.
    #[default]
    BitExact,
    /// FMA-fused, reduction-reordered kernels within a documented ε of
    /// [`BitExact`](Self::BitExact); deterministic within the tier.
    Fast,
}

impl DeterminismTier {
    /// Parses a tier name: `fast` → `Fast`; `bitexact` / `bit_exact` /
    /// `bit-exact` / `exact` → `BitExact` (ASCII case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        let lower = s.trim().to_ascii_lowercase();
        match lower.as_str() {
            "fast" => Some(DeterminismTier::Fast),
            "bitexact" | "bit_exact" | "bit-exact" | "exact" => Some(DeterminismTier::BitExact),
            _ => None,
        }
    }

    /// The tier requested by the `FEDVAL_TIER` environment variable, if
    /// set to a recognized value (see [`parse`](Self::parse)). A set
    /// but unrecognized value logs one warning and reads as unset — a
    /// bad env var must never take the process down.
    pub fn from_env() -> Option<Self> {
        let raw = std::env::var("FEDVAL_TIER").ok()?;
        let tier = Self::parse(&raw);
        if tier.is_none() {
            static WARNED: std::sync::Once = std::sync::Once::new();
            WARNED.call_once(|| {
                eprintln!(
                    "fedval_linalg: FEDVAL_TIER={raw:?} is not a tier name \
                     (expected \"fast\" or \"bit_exact\"); using the default"
                );
            });
        }
        tier
    }

    /// The process-wide default tier: `FEDVAL_TIER` if set and valid,
    /// otherwise [`BitExact`](Self::BitExact). Read once and cached —
    /// this is what `Workspace::new()` and the oracle/trainer
    /// constructors use, so the env override flows through the whole
    /// stack while explicit `with_tier(..)` calls still win.
    pub fn default_tier() -> Self {
        static DEFAULT: OnceLock<DeterminismTier> = OnceLock::new();
        *DEFAULT.get_or_init(|| Self::from_env().unwrap_or_default())
    }

    /// Stable lowercase name (`"bit_exact"` / `"fast"`) — used by the
    /// bench JSON schema and log lines.
    pub fn name(self) -> &'static str {
        match self {
            DeterminismTier::BitExact => "bit_exact",
            DeterminismTier::Fast => "fast",
        }
    }

    /// Stable one-byte identifier (`BitExact` = 0, `Fast` = 1) — part of
    /// the on-disk cell-cache key, so it must never be renumbered. New
    /// tiers take fresh values.
    pub fn id(self) -> u8 {
        match self {
            DeterminismTier::BitExact => 0,
            DeterminismTier::Fast => 1,
        }
    }
}

impl std::fmt::Display for DeterminismTier {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_bit_exact() {
        assert_eq!(DeterminismTier::default(), DeterminismTier::BitExact);
    }

    #[test]
    fn parse_accepts_spellings_and_rejects_junk() {
        assert_eq!(DeterminismTier::parse("fast"), Some(DeterminismTier::Fast));
        assert_eq!(
            DeterminismTier::parse(" FAST "),
            Some(DeterminismTier::Fast)
        );
        for s in ["bitexact", "bit_exact", "bit-exact", "exact", "BitExact"] {
            assert_eq!(
                DeterminismTier::parse(s),
                Some(DeterminismTier::BitExact),
                "{s}"
            );
        }
        assert_eq!(DeterminismTier::parse("turbo"), None);
        assert_eq!(DeterminismTier::parse(""), None);
    }

    #[test]
    fn names_round_trip() {
        for t in [DeterminismTier::BitExact, DeterminismTier::Fast] {
            assert_eq!(DeterminismTier::parse(t.name()), Some(t));
            assert_eq!(format!("{t}"), t.name());
        }
    }

    #[test]
    fn ids_are_pinned() {
        // On-disk cache keys depend on these exact values.
        assert_eq!(DeterminismTier::BitExact.id(), 0);
        assert_eq!(DeterminismTier::Fast.id(), 1);
    }
}
