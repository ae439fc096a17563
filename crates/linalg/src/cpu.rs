//! One cached CPU-feature probe for the whole kernel family.
//!
//! Every GEMM dispatcher used to call `is_x86_feature_detected!` at its
//! own entry point; this module performs the probe **once**, caches it,
//! and exposes a single policy function, [`kernel_isa`], mapping a
//! [`DeterminismTier`] to the instantiation that tier selects on this
//! machine, plus [`fused_isa`], the instantiation of the fused op set
//! the loss runs in both tiers. The bench harness and log lines print
//! both, so a run records which kernels it actually executed.

use crate::tier::DeterminismTier;
use std::sync::OnceLock;

/// The runtime-detected instruction-set features the kernels care about.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuFeatures {
    /// 256-bit AVX2 (the bit-exact kernels' wide instantiation).
    pub avx2: bool,
    /// Fused multiply–add (required by every `Fast`-tier kernel).
    pub fma: bool,
    /// AVX-512 foundation (the `Fast` tier's wider-SIMD instantiation).
    pub avx512f: bool,
}

/// The detected features, probed once per process and cached.
pub fn features() -> CpuFeatures {
    static FEATURES: OnceLock<CpuFeatures> = OnceLock::new();
    *FEATURES.get_or_init(|| {
        #[cfg(target_arch = "x86_64")]
        {
            CpuFeatures {
                avx2: std::arch::is_x86_feature_detected!("avx2"),
                fma: std::arch::is_x86_feature_detected!("fma"),
                avx512f: std::arch::is_x86_feature_detected!("avx512f"),
            }
        }
        #[cfg(not(target_arch = "x86_64"))]
        {
            CpuFeatures {
                avx2: false,
                fma: false,
                avx512f: false,
            }
        }
    })
}

/// Which compiled instantiation of the GEMM family a tier runs
/// ([`kernel_isa`]), or of the fused op set the loss runs in both tiers
/// ([`fused_isa`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum KernelIsa {
    /// Portable baseline (also the non-x86-64 answer for every tier).
    Scalar,
    /// AVX2, no contraction — bit-exact.
    Avx2,
    /// AVX2 + FMA: the GEMM family's reduction-reordered `Fast`
    /// kernels, or the fused op set's four lanes.
    Avx2Fma,
    /// AVX-512 + FMA: the GEMM family's reduction-reordered `Fast`
    /// kernels, or the fused op set's eight-lane logistic loss.
    Avx512Fma,
}

impl KernelIsa {
    /// Stable lowercase name for logs and the bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelIsa::Scalar => "scalar",
            KernelIsa::Avx2 => "avx2",
            KernelIsa::Avx2Fma => "avx2+fma",
            KernelIsa::Avx512Fma => "avx512+fma",
        }
    }
}

impl std::fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// The instantiation `tier` selects on this machine — the single
/// dispatch policy shared by every tiered kernel entry point.
///
/// * `BitExact` picks the widest **non-contracting** instantiation:
///   AVX2 when available, otherwise scalar. Lane width cannot change
///   bit-exact results (each lane is a different output element). Under
///   AVX2 a narrow `A · Bᵀ` (`n ≤ 12`) runs the register-tiled
///   `gemm_nt_narrow_avx2` instead of the panel kernel: still one
///   multiply-then-add chain per element from `+0.0`, so the same bits.
/// * `Fast` picks the widest **FMA** instantiation: AVX-512+FMA, then
///   AVX2+FMA. Without runtime FMA support it falls back to the
///   bit-exact choice, so `Fast` never runs a slow unfused `mul_add`.
pub fn kernel_isa(tier: DeterminismTier) -> KernelIsa {
    let f = features();
    let exact = if f.avx2 {
        KernelIsa::Avx2
    } else {
        KernelIsa::Scalar
    };
    match tier {
        DeterminismTier::BitExact => exact,
        DeterminismTier::Fast => {
            if f.avx512f && f.fma {
                KernelIsa::Avx512Fma
            } else if f.avx2 && f.fma {
                KernelIsa::Avx2Fma
            } else {
                exact
            }
        }
    }
}

/// The instantiation of the fused op set this machine runs in both
/// tiers: glibc's `exp`, the loss epilogue
/// ([`vector::cross_entropy_rows`](crate::vector::cross_entropy_rows))
/// and the one-pass `BitExact` logistic loss
/// ([`vector::linear_cross_entropy`](crate::vector::linear_cross_entropy)).
/// AVX-512+FMA where AVX-512F and FMA are detected, then AVX2+FMA, then
/// the portable one; every instantiation gives the same bits.
pub fn fused_isa() -> KernelIsa {
    crate::lanes::FusedLanes::detect().kernel_isa()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn probe_is_stable() {
        assert_eq!(features(), features());
    }

    #[test]
    fn bit_exact_never_selects_a_contracting_kernel() {
        let isa = kernel_isa(DeterminismTier::BitExact);
        assert!(matches!(isa, KernelIsa::Scalar | KernelIsa::Avx2), "{isa}");
    }

    #[test]
    fn fast_selects_fma_only_when_detected() {
        let f = features();
        let isa = kernel_isa(DeterminismTier::Fast);
        match isa {
            KernelIsa::Avx512Fma => assert!(f.avx512f && f.fma),
            KernelIsa::Avx2Fma => assert!(f.avx2 && f.fma),
            KernelIsa::Avx2 | KernelIsa::Scalar => {
                assert!(
                    !f.fma || (!f.avx2 && !f.avx512f),
                    "FMA available but unused: {f:?}"
                )
            }
        }
    }

    /// `FusedLanes::detect` picks the eight lanes exactly where AVX-512F
    /// and FMA are detected, else AVX2+FMA, else the portable lanes.
    #[test]
    fn fused_isa_follows_the_detected_features() {
        let f = features();
        let want = if cfg!(target_arch = "x86_64") && f.avx512f && f.fma {
            KernelIsa::Avx512Fma
        } else if cfg!(target_arch = "x86_64") && f.avx2 && f.fma {
            KernelIsa::Avx2Fma
        } else {
            KernelIsa::Scalar
        };
        assert_eq!(fused_isa(), want, "{f:?}");
    }

    #[test]
    fn isa_names_are_stable() {
        assert_eq!(KernelIsa::Scalar.name(), "scalar");
        assert_eq!(KernelIsa::Avx2.name(), "avx2");
        assert_eq!(KernelIsa::Avx2Fma.name(), "avx2+fma");
        assert_eq!(KernelIsa::Avx512Fma.name(), "avx512+fma");
    }
}
