//! Cache-blocked GEMM family: the allocation-free batch kernels behind
//! the minibatch model math, the ALS normal equations, and the factor
//! products.
//!
//! # The determinism contract
//!
//! Every kernel here computes each output element as **one full-length,
//! in-order sequential sum over the shared dimension** — exactly the
//! arithmetic of the naive per-element loop ([`mod@reference`]), and exactly
//! the arithmetic of the per-sample `vector::dot`/`vector::axpy` loops
//! the models used before they were batched. Blocking reorders *memory
//! traffic* (which panel of the operands is resident in cache), never
//! the floating-point reductions, so results are bit-identical to the
//! naive loops for every shape — including ragged block edges. The
//! property tests in `crates/linalg/tests/properties.rs` assert this
//! bit-for-bit on random shapes, and the repo's wider determinism
//! contract (parallel-vs-serial valuations compare equal to the bit)
//! rests on it.
//!
//! Because of that contract, none of these kernels split a *reduction*
//! across multiple accumulators (no SIMD-style partial sums within one
//! output element). The speed comes from three things that reorder
//! memory traffic only:
//!
//! * **panel blocking** — packed/transposed-`B` panels sized to stay
//!   cache-resident while every row of `A` streams past;
//! * **register blocking** — the k (or sample) loop is unrolled eight
//!   wide so each output element is loaded/stored once per eight
//!   contributions, with the adds written as one left-to-right chain
//!   (`((c + p₀) + p₁) + p₂ …`), i.e. the same reduction order;
//! * **vectorization across output elements** — the inner loops run
//!   over a contiguous span of *independent* outputs, which the
//!   compiler turns into SIMD; on x86-64 each kernel also has an
//!   AVX2-compiled instantiation selected by runtime feature detection.
//!   Lane width cannot change results: every lane is a different output
//!   element, and rustc performs no floating-point contraction (no FMA
//!   fusing), so each element's mul/add sequence is exactly the naive
//!   one.
//!
//! # The `Fast` tier
//!
//! Each of the three GEMMs also has a *tiered* entry point
//! ([`gemm_nn_tiered`], [`gemm_nt_tiered`], [`gemm_tn_acc_tiered`])
//! taking a [`DeterminismTier`]. `BitExact` delegates to the contract
//! kernels above. `Fast` — when runtime FMA support is detected
//! ([`cpu::kernel_isa`](crate::cpu::kernel_isa)) — runs FMA-fused
//! instantiations whose 8-term register blocks accumulate through **two
//! interleaved partial chains** (even/odd terms) combined at the end,
//! breaking the sequential-add dependency chain. The result differs from
//! the bit-exact reference by at most [`fast_epsilon`] per output
//! element; the `Fast` ordering itself is fixed, so the tier is still
//! deterministic run-to-run on one machine.
//!
//! # Layout conventions
//!
//! All kernels operate on row-major `&[f64]` views with explicit
//! dimensions, so callers with flat parameter vectors (the models) and
//! callers with [`Matrix`](crate::Matrix) values share one code path.
//! `Matrix::matmul` and `Matrix::matmul_transpose` are thin wrappers
//! over [`gemm_nn_into`] / [`gemm_nt_into`].

#[cfg(target_arch = "x86_64")]
use crate::cpu::KernelIsa;
use crate::tier::DeterminismTier;
use crate::vector;

/// Reusable packing buffer for the kernels that transpose a panel of
/// `B` ([`gemm_nt_into`]). Create once, pass to every call: the buffer
/// grows to the largest panel it has seen and is never shrunk, so a
/// steady-state caller performs no allocation at all.
#[derive(Debug, Clone, Default)]
pub struct Scratch {
    packed: Vec<f64>,
}

impl Scratch {
    /// An empty scratch; buffers are grown on first use.
    pub fn new() -> Self {
        Scratch::default()
    }
}

/// Target footprint of one packed/resident `B` panel. Half of a
/// conservative 256 KiB L2: large enough to amortize packing, small
/// enough that the panel survives a full sweep of `A`'s rows.
const PANEL_BYTES: usize = 128 * 1024;

/// Number of `B` columns (or rows, for the `nt` variant) per panel for
/// a shared dimension of `k`.
#[inline]
fn panel_width(k: usize) -> usize {
    (PANEL_BYTES / (8 * k.max(1))).clamp(8, 512)
}

/// Rows per panel in the `tn` (accumulating) kernel: bounds how much of
/// `A`/`B` is touched between revisits of an output row.
const TN_ROW_PANEL: usize = 128;

/// Output columns per panel in the `tn` kernel: keeps the active slab of
/// `C` (`m × TN_COL_PANEL` doubles) and the matching `B` panel columns
/// cache-resident when `n` is wide (e.g. a 784-dim input layer's weight
/// gradient). Panelling `n` splits independent outputs only.
const TN_COL_PANEL: usize = 256;

/// `C = A · B` — `a` is `m × k`, `b` is `k × n`, `c` is `m × n`, all
/// row-major; `c` is overwritten.
///
/// The loop nest is i-k-j over panels of `b` columns: the inner loop is
/// `c[i][j] += a[i][kk] · b[kk][j]` across a contiguous run of `j` —
/// independent output accumulators, so the compiler vectorizes it, while
/// each element still accumulates `kk` in ascending order through one
/// accumulator (its slot in `c`), bit-identical to the naive dot. The
/// panel bound keeps `b[.., j0..j1]` and the active `c` row slice
/// cache-resident across the full `k` sweep.
pub fn gemm_nn_into(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), k * n);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if crate::cpu::features().avx2 {
        // SAFETY: the feature was detected at runtime (cached probe).
        unsafe { gemm_nn_avx2(a, b, c, m, k, n) };
        return;
    }
    gemm_nn_impl(a, b, c, m, k, n);
}

/// AVX2-compiled instantiation of [`gemm_nn_impl`] (see the module docs
/// on why wider lanes cannot change the bits).
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_nn_avx2(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_nn_impl(a, b, c, m, k, n);
}

#[inline(always)]
fn gemm_nn_impl(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    c.iter_mut().for_each(|v| *v = 0.0);
    let jb = panel_width(k);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + jb).min(n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n + j0..i * n + j1];
            accumulate_rows(a_row, b, n, j0, j1, c_row);
        }
        j0 = j1;
    }
}

/// `c_row[j] += Σ_kk coeffs[kk] · rows[kk·stride + j0 + j]`, `kk`
/// ascending per element. The kk loop is register-blocked eight wide:
/// each `c_row` element is loaded and stored once per eight
/// contributions, but the adds are written as one left-to-right chain —
/// `((c + p₀) + p₁) + p₂ …` — so the reduction order (and the bits)
/// match the plain one-at-a-time loop exactly.
#[inline]
fn accumulate_rows(
    coeffs: &[f64],
    rows: &[f64],
    stride: usize,
    j0: usize,
    j1: usize,
    c_row: &mut [f64],
) {
    debug_assert_eq!(c_row.len(), j1 - j0);
    let k = coeffs.len();
    let row = |kk: usize| &rows[kk * stride + j0..kk * stride + j1];
    let mut kk = 0;
    while kk + 8 <= k {
        let a: [f64; 8] = coeffs[kk..kk + 8].try_into().expect("length 8");
        let (b0, b1, b2, b3) = (row(kk), row(kk + 1), row(kk + 2), row(kk + 3));
        let (b4, b5, b6, b7) = (row(kk + 4), row(kk + 5), row(kk + 6), row(kk + 7));
        for (j, cv) in c_row.iter_mut().enumerate() {
            // Slices all have c_row's length; LLVM hoists the bounds
            // checks and vectorizes across j.
            let s = *cv + a[0] * b0[j];
            let s = s + a[1] * b1[j];
            let s = s + a[2] * b2[j];
            let s = s + a[3] * b3[j];
            let s = s + a[4] * b4[j];
            let s = s + a[5] * b5[j];
            let s = s + a[6] * b6[j];
            *cv = s + a[7] * b7[j];
        }
        kk += 8;
    }
    while kk < k {
        vector::axpy(coeffs[kk], row(kk), c_row);
        kk += 1;
    }
}

/// `C = A · Bᵀ` — `a` is `m × k`, `b` is `n × k`, `c` is `m × n`, all
/// row-major; `c` is overwritten. The models' forward passes
/// (`X · Wᵀ` with `W` stored `out × in`) and the factor product `W Hᵀ`
/// land here.
///
/// Each panel of `b` rows is packed (transposed) into `scratch` once —
/// `packed[kk][jj] = b[j0 + jj][kk]` — and reused across all `m` rows
/// of `a`, turning the computation into the vectorizable i-k-j nest of
/// [`gemm_nn_into`]. The packing is a pure copy; `c[i][j]` is still one
/// in-order sum over `k`.
pub fn gemm_nt_into(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut Scratch,
) {
    debug_assert_eq!(a.len(), m * k);
    debug_assert_eq!(b.len(), n * k);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if crate::cpu::features().avx2 {
        // SAFETY: the feature was detected at runtime (cached probe).
        unsafe { gemm_nt_avx2(a, b, c, m, k, n, scratch) };
        return;
    }
    gemm_nt_impl(a, b, c, m, k, n, scratch);
}

/// AVX2-compiled instantiation of [`gemm_nt_impl`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_nt_avx2(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut Scratch,
) {
    gemm_nt_impl(a, b, c, m, k, n, scratch);
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_nt_impl(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut Scratch,
) {
    c.iter_mut().for_each(|v| *v = 0.0);
    // Cap the panel at n: a narrow product must not size (and zero) the
    // packing buffer for columns that do not exist.
    let jb = panel_width(k).min(n.max(1));
    if scratch.packed.len() < jb * k {
        scratch.packed.resize(jb * k, 0.0);
    }
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + jb).min(n);
        let w = j1 - j0;
        // Pack rows j0..j1 of b transposed: packed[kk][jj] = b[j0+jj][kk].
        for jj in 0..w {
            for (kk, &v) in b[(j0 + jj) * k..(j0 + jj + 1) * k].iter().enumerate() {
                scratch.packed[kk * w + jj] = v;
            }
        }
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n + j0..i * n + j1];
            accumulate_rows(a_row, &scratch.packed[..k * w], w, 0, w, c_row);
        }
        j0 = j1;
    }
}

/// `C += Aᵀ · B` — `a` is `l × m`, `b` is `l × n`, `c` is `m × n`, all
/// row-major; `c` accumulates.
///
/// `c[p][q] += Σ_i a[i][p] · b[i][q]` with `i` strictly ascending per
/// element — the batched form of "for each sample, `axpy` its
/// contribution into the gradient", bit-identical to that per-sample
/// loop. `l` is panelled so each output row is
/// revisited while the `a`/`b` panel is still resident, and wide `n` is
/// panelled so the active `C` slab stays cache-resident; panels are
/// processed in ascending order, preserving the per-element sum order.
pub fn gemm_tn_acc(a: &[f64], b: &[f64], c: &mut [f64], l: usize, m: usize, n: usize) {
    debug_assert_eq!(a.len(), l * m);
    debug_assert_eq!(b.len(), l * n);
    debug_assert_eq!(c.len(), m * n);
    #[cfg(target_arch = "x86_64")]
    if crate::cpu::features().avx2 {
        // SAFETY: the feature was detected at runtime (cached probe).
        unsafe { gemm_tn_avx2(a, b, c, l, m, n) };
        return;
    }
    gemm_tn_impl(a, b, c, l, m, n);
}

/// AVX2-compiled instantiation of [`gemm_tn_impl`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn gemm_tn_avx2(a: &[f64], b: &[f64], c: &mut [f64], l: usize, m: usize, n: usize) {
    gemm_tn_impl(a, b, c, l, m, n);
}

#[inline(always)]
fn gemm_tn_impl(a: &[f64], b: &[f64], c: &mut [f64], l: usize, m: usize, n: usize) {
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + TN_COL_PANEL).min(n);
        let mut i0 = 0;
        while i0 < l {
            let i1 = (i0 + TN_ROW_PANEL).min(l);
            for p in 0..m {
                let c_row = &mut c[p * n + j0..p * n + j1];
                // Register-blocked over samples: c_row is loaded/stored
                // once per eight contributions, adds in strict
                // i-ascending order (per element, across panels too) —
                // bit-identical to one axpy per i.
                let brow = |i: usize| &b[i * n + j0..i * n + j1];
                let mut i = i0;
                while i + 8 <= i1 {
                    let mut ai = [0.0f64; 8];
                    for (u, av) in ai.iter_mut().enumerate() {
                        *av = a[(i + u) * m + p];
                    }
                    let (b0, b1, b2, b3) = (brow(i), brow(i + 1), brow(i + 2), brow(i + 3));
                    let (b4, b5, b6, b7) = (brow(i + 4), brow(i + 5), brow(i + 6), brow(i + 7));
                    for (j, cv) in c_row.iter_mut().enumerate() {
                        let s = *cv + ai[0] * b0[j];
                        let s = s + ai[1] * b1[j];
                        let s = s + ai[2] * b2[j];
                        let s = s + ai[3] * b3[j];
                        let s = s + ai[4] * b4[j];
                        let s = s + ai[5] * b5[j];
                        let s = s + ai[6] * b6[j];
                        *cv = s + ai[7] * b7[j];
                    }
                    i += 8;
                }
                while i < i1 {
                    vector::axpy(a[i * m + p], brow(i), c_row);
                    i += 1;
                }
            }
            i0 = i1;
        }
        j0 = j1;
    }
}

/// Adds `bias` to every row of the `rows × cols` matrix `c` — the fused
/// epilogue of a forward pass (`logits = dot + bias`, one addition per
/// element, applied after the full dot like the per-sample code did).
pub fn add_bias_rows(c: &mut [f64], cols: usize, bias: &[f64]) {
    debug_assert_eq!(bias.len(), cols);
    debug_assert_eq!(c.len() % cols.max(1), 0);
    for row in c.chunks_exact_mut(cols) {
        for (cv, &bv) in row.iter_mut().zip(bias) {
            *cv += bv;
        }
    }
}

/// Accumulates column sums: `out[j] += Σ_i a[i][j]`, `i` ascending —
/// the batched bias gradient.
pub fn col_sums_acc(a: &[f64], cols: usize, out: &mut [f64]) {
    debug_assert_eq!(out.len(), cols);
    debug_assert_eq!(a.len() % cols.max(1), 0);
    for row in a.chunks_exact(cols) {
        vector::axpy(1.0, row, out);
    }
}

/// Ridge Gram matrix `G = AᵀA + λI` — `a` is `m × r`, `out` is `r × r`,
/// overwritten. The assembly half of the ALS normal equations. Per
/// element the sum runs over `a`'s rows with `i` ascending from `+0.0`,
/// and `λ` is added to the diagonal afterwards — the order the unblocked
/// assembly used, so the bits match it.
///
/// Only the lower triangle is summed, four elements per pass over `a`,
/// so each running sum stays in a register instead of making a round
/// trip through `out` per row; the upper triangle is a mirror (the
/// products commute, so its bits are the same).
pub fn gram_into(a: &[f64], m: usize, r: usize, lambda: f64, out: &mut [f64]) {
    debug_assert_eq!(a.len(), m * r);
    debug_assert_eq!(out.len(), r * r);
    let mut pairs = (0..r).flat_map(|p| (0..=p).map(move |q| (p, q)));
    while let Some(first) = pairs.next() {
        // A short last block repeats its first element; the repeat
        // writes the same bits to the same place.
        let block = [
            first,
            pairs.next().unwrap_or(first),
            pairs.next().unwrap_or(first),
            pairs.next().unwrap_or(first),
        ];
        let mut sums = [0.0f64; 4];
        for row in a[..m * r].chunks_exact(r) {
            for (s, &(p, q)) in sums.iter_mut().zip(&block) {
                *s += row[p] * row[q];
            }
        }
        for (&s, &(p, q)) in sums.iter().zip(&block) {
            out[p * r + q] = s;
            out[q * r + p] = s;
        }
    }
    for p in 0..r {
        out[p * r + p] += lambda;
    }
}

// ---------------------------------------------------------------------
// Tiered entry points and the Fast (FMA, reduction-reordered) family.
// ---------------------------------------------------------------------

/// Per-element error bound between a `Fast`-tier reduction and the
/// bit-exact reference: for an output element accumulated over `depth`
/// multiply–add terms whose absolute-value sum is at most `magnitude`
/// (`Σᵢ |aᵢ·bᵢ| ≤ magnitude`),
///
/// ```text
/// |fast − bit_exact| ≤ fast_epsilon(depth, magnitude)
///                    = 2 · (depth + 2) · ε_f64 · magnitude
/// ```
///
/// Derivation: recursive summation of `depth` products has forward error
/// at most `γ_depth · Σ|aᵢbᵢ|` with `γ_k ≈ k·ε` (Higham, *Accuracy and
/// Stability of Numerical Algorithms*, §3.1); the `Fast` ordering
/// (two interleaved FMA chains, pairwise combine) satisfies the same
/// bound with fewer roundings, so the *difference* of the two computed
/// values is at most twice the bound. The `+2` covers the final
/// pairwise combine and a fused bias/accumulate term. This is the ε the
/// property tests and the bench harness assert.
pub fn fast_epsilon(depth: usize, magnitude: f64) -> f64 {
    2.0 * (depth as f64 + 2.0) * f64::EPSILON * magnitude
}

/// `C = A · B` at the requested [`DeterminismTier`].
///
/// `BitExact` is [`gemm_nn_into`]. `Fast` runs the FMA-fused,
/// reduction-reordered instantiation when the CPU supports it
/// ([`cpu::kernel_isa`](crate::cpu::kernel_isa)); each output element is
/// then within [`fast_epsilon`]`(k, Σ|a·b|)` of the bit-exact value.
pub fn gemm_nn_tiered(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    tier: DeterminismTier,
) {
    if tier == DeterminismTier::Fast {
        #[cfg(target_arch = "x86_64")]
        match crate::cpu::kernel_isa(tier) {
            // SAFETY: kernel_isa only returns FMA variants when the
            // matching features were detected at runtime.
            KernelIsa::Avx512Fma => {
                unsafe { gemm_nn_fast_avx512(a, b, c, m, k, n) };
                return;
            }
            KernelIsa::Avx2Fma => {
                unsafe { gemm_nn_fast_avx2(a, b, c, m, k, n) };
                return;
            }
            _ => {}
        }
    }
    gemm_nn_into(a, b, c, m, k, n);
}

/// `C = A · Bᵀ` at the requested [`DeterminismTier`] (see
/// [`gemm_nt_into`] for layout and [`gemm_nn_tiered`] for the tier
/// semantics).
#[allow(clippy::too_many_arguments)]
pub fn gemm_nt_tiered(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut Scratch,
    tier: DeterminismTier,
) {
    if tier == DeterminismTier::Fast {
        #[cfg(target_arch = "x86_64")]
        match crate::cpu::kernel_isa(tier) {
            // SAFETY: features detected at runtime (see kernel_isa).
            KernelIsa::Avx512Fma => {
                unsafe { gemm_nt_fast_avx512(a, b, c, m, k, n, scratch) };
                return;
            }
            KernelIsa::Avx2Fma => {
                unsafe { gemm_nt_fast_avx2(a, b, c, m, k, n, scratch) };
                return;
            }
            _ => {}
        }
    }
    gemm_nt_into(a, b, c, m, k, n, scratch);
}

/// `C += Aᵀ · B` at the requested [`DeterminismTier`] (see
/// [`gemm_tn_acc`] for layout and [`gemm_nn_tiered`] for the tier
/// semantics; in `Fast`, each element's sum over `l` reorders within
/// 8-sample register blocks).
pub fn gemm_tn_acc_tiered(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    l: usize,
    m: usize,
    n: usize,
    tier: DeterminismTier,
) {
    if tier == DeterminismTier::Fast {
        #[cfg(target_arch = "x86_64")]
        match crate::cpu::kernel_isa(tier) {
            // SAFETY: features detected at runtime (see kernel_isa).
            KernelIsa::Avx512Fma => {
                unsafe { gemm_tn_fast_avx512(a, b, c, l, m, n) };
                return;
            }
            KernelIsa::Avx2Fma => {
                unsafe { gemm_tn_fast_avx2(a, b, c, l, m, n) };
                return;
            }
            _ => {}
        }
    }
    gemm_tn_acc(a, b, c, l, m, n);
}

/// Padded register width for the small-shape `Fast` kernels: the
/// smallest of {4, 8, 16} that holds `n` output columns, so the
/// accumulator row is exactly one (or two) SIMD registers.
#[inline(always)]
fn small_reg_width(n: usize) -> usize {
    if n <= 4 {
        4
    } else if n <= 8 {
        8
    } else {
        16
    }
}

/// Small-`n` `Fast` kernel for `C = A · Bᵀ` (`n ≤ 16`): the whole output
/// row fits in registers, so each row of `A` streams once through a
/// register-resident accumulator — one broadcast-FMA per shared-dim
/// step — instead of the panel kernel's load/store-per-block pattern.
/// This is what makes tiny products (a conv's `9 → filters` contraction,
/// a narrow classifier head) run at vector speed. `bt` is `B` packed
/// `k × NR` row-major, zero-padded beyond column `n`; each element is
/// one in-order `mul_add` chain over `k`, within [`fast_epsilon`].
#[inline(always)]
fn gemm_small_n_fast<const NR: usize>(
    a: &[f64],
    bt: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
) {
    debug_assert!(n <= NR);
    debug_assert_eq!(bt.len(), k * NR);
    let brow =
        |kk: usize| -> &[f64; NR] { bt[kk * NR..(kk + 1) * NR].try_into().expect("width NR") };
    // 4-row register tile, each element two interleaved chains
    // (even/odd shared-dim steps, combined pairwise at the end — the
    // documented Fast ordering): eight independent FMA chains in flight,
    // so tiny-k products are throughput-bound instead of serialized on
    // FMA latency. Accumulators are named locals and the inner loop is
    // one flat `j` sweep so LLVM register-allocates the whole tile.
    let mut i = 0;
    while i + 4 <= m {
        let a0 = &a[i * k..(i + 1) * k];
        let a1 = &a[(i + 1) * k..(i + 2) * k];
        let a2 = &a[(i + 2) * k..(i + 3) * k];
        let a3 = &a[(i + 3) * k..(i + 4) * k];
        let mut e0 = [0.0f64; NR];
        let mut e1 = [0.0f64; NR];
        let mut e2 = [0.0f64; NR];
        let mut e3 = [0.0f64; NR];
        let mut o0 = [0.0f64; NR];
        let mut o1 = [0.0f64; NR];
        let mut o2 = [0.0f64; NR];
        let mut o3 = [0.0f64; NR];
        let mut kk = 0;
        while kk + 2 <= k {
            let (b0, b1) = (brow(kk), brow(kk + 1));
            let (x0, y0) = (a0[kk], a0[kk + 1]);
            let (x1, y1) = (a1[kk], a1[kk + 1]);
            let (x2, y2) = (a2[kk], a2[kk + 1]);
            let (x3, y3) = (a3[kk], a3[kk + 1]);
            for j in 0..NR {
                e0[j] = x0.mul_add(b0[j], e0[j]);
                o0[j] = y0.mul_add(b1[j], o0[j]);
                e1[j] = x1.mul_add(b0[j], e1[j]);
                o1[j] = y1.mul_add(b1[j], o1[j]);
                e2[j] = x2.mul_add(b0[j], e2[j]);
                o2[j] = y2.mul_add(b1[j], o2[j]);
                e3[j] = x3.mul_add(b0[j], e3[j]);
                o3[j] = y3.mul_add(b1[j], o3[j]);
            }
            kk += 2;
        }
        if kk < k {
            let b0 = brow(kk);
            let (x0, x1, x2, x3) = (a0[kk], a1[kk], a2[kk], a3[kk]);
            for j in 0..NR {
                e0[j] = x0.mul_add(b0[j], e0[j]);
                e1[j] = x1.mul_add(b0[j], e1[j]);
                e2[j] = x2.mul_add(b0[j], e2[j]);
                e3[j] = x3.mul_add(b0[j], e3[j]);
            }
        }
        for (r, (ev, od)) in [(&e0, &o0), (&e1, &o1), (&e2, &o2), (&e3, &o3)]
            .into_iter()
            .enumerate()
        {
            let c_row = &mut c[(i + r) * n..(i + r + 1) * n];
            for (cv, (&x, &y)) in c_row.iter_mut().zip(ev.iter().zip(od)) {
                *cv = x + y;
            }
        }
        i += 4;
    }
    while i < m {
        let a_row = &a[i * k..(i + 1) * k];
        let mut even = [0.0f64; NR];
        let mut odd = [0.0f64; NR];
        let mut kk = 0;
        while kk + 2 <= k {
            let (av0, av1) = (a_row[kk], a_row[kk + 1]);
            let (b0, b1) = (brow(kk), brow(kk + 1));
            for j in 0..NR {
                even[j] = av0.mul_add(b0[j], even[j]);
                odd[j] = av1.mul_add(b1[j], odd[j]);
            }
            kk += 2;
        }
        if kk < k {
            let av = a_row[kk];
            let b0 = brow(kk);
            for j in 0..NR {
                even[j] = av.mul_add(b0[j], even[j]);
            }
        }
        for (cv, (&x, &y)) in c[i * n..(i + 1) * n].iter_mut().zip(even.iter().zip(&odd)) {
            *cv = x + y;
        }
        i += 1;
    }
}

/// Packs `b` (`n × k` row-major) transposed into `scratch` as `k × NR`
/// with zero padding, the layout [`gemm_small_n_fast`] consumes.
#[inline(always)]
fn pack_bt_small(b: &[f64], k: usize, n: usize, nr: usize, scratch: &mut Scratch) {
    if scratch.packed.len() < k * nr {
        scratch.packed.resize(k * nr, 0.0);
    }
    for kk in 0..k {
        let row = &mut scratch.packed[kk * nr..(kk + 1) * nr];
        for (j, rv) in row.iter_mut().enumerate() {
            *rv = if j < n { b[j * k + kk] } else { 0.0 };
        }
    }
}

/// Loads `src` into a zero-padded `[f64; NR]` without a runtime-length
/// copy (LLVM turns those into memcpy libcalls, and a call inside the
/// accumulation loops spills every register-resident accumulator):
/// full 8-wide chunks are constant-size array copies, the ragged chunk
/// is constant-trip conditional scalar loads.
#[inline(always)]
fn load_padded<const NR: usize>(src: &[f64]) -> [f64; NR] {
    let n = src.len();
    debug_assert!(n <= NR);
    let mut out = [0.0f64; NR];
    let mut j = 0;
    while j + 8 <= NR {
        if j + 8 <= n {
            let chunk: &[f64; 8] = src[j..j + 8].try_into().expect("width 8");
            out[j..j + 8].copy_from_slice(chunk);
            j += 8;
        } else {
            break;
        }
    }
    while j < NR {
        out[j] = if j < n { src[j] } else { 0.0 };
        j += 1;
    }
    out
}

/// Small-output `Fast` kernel for `C += Aᵀ · B` (`m ≤ MR ≤ 16`,
/// `n ≤ NR ≤ 16`): the entire `m × n` output lives in a flat register
/// file (`acc`, constant-indexed after the `MR`/`NR` loops unroll), and
/// the `l` sample rows stream through it with one broadcast-FMA per
/// `(p, j)` cell — no strided column gathers, no per-block output
/// traffic. This is the batched weight-gradient of a small layer (e.g. a
/// conv's `filters × patch` kernel). Each element is one in-order
/// `mul_add` chain over `l`, within [`fast_epsilon`].
#[inline(always)]
fn gemm_tn_small_fast<const MR: usize, const NR: usize>(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    l: usize,
    m: usize,
    n: usize,
) {
    debug_assert!(m <= MR && n <= NR);
    let mut acc = [[0.0f64; NR]; MR];
    for i in 0..l {
        let ar = &a[i * m..(i + 1) * m];
        let brow = &b[i * n..(i + 1) * n];
        let br = load_padded::<NR>(brow);
        for (p, accp) in acc.iter_mut().enumerate() {
            let av = if p < m { ar[p] } else { 0.0 };
            for (av_j, &bv) in accp.iter_mut().zip(&br) {
                *av_j = av.mul_add(bv, *av_j);
            }
        }
    }
    for (p, accp) in acc.iter().enumerate().take(m) {
        for (cv, &av) in c[p * n..(p + 1) * n].iter_mut().zip(accp) {
            *cv += av;
        }
    }
}

/// Monomorphized dispatch for [`gemm_tn_small_fast`] on the padded
/// register widths of `m` and `n`.
#[inline(always)]
fn gemm_tn_small_dispatch(a: &[f64], b: &[f64], c: &mut [f64], l: usize, m: usize, n: usize) {
    match (small_reg_width(m), small_reg_width(n)) {
        (4, 4) => gemm_tn_small_fast::<4, 4>(a, b, c, l, m, n),
        (4, 8) => gemm_tn_small_fast::<4, 8>(a, b, c, l, m, n),
        (4, _) => gemm_tn_small_fast::<4, 16>(a, b, c, l, m, n),
        (8, 4) => gemm_tn_small_fast::<8, 4>(a, b, c, l, m, n),
        (8, 8) => gemm_tn_small_fast::<8, 8>(a, b, c, l, m, n),
        (8, _) => gemm_tn_small_fast::<8, 16>(a, b, c, l, m, n),
        (_, 4) => gemm_tn_small_fast::<16, 4>(a, b, c, l, m, n),
        (_, 8) => gemm_tn_small_fast::<16, 8>(a, b, c, l, m, n),
        _ => gemm_tn_small_fast::<16, 16>(a, b, c, l, m, n),
    }
}

/// The `Fast` counterpart of [`accumulate_rows`]: the 8-term register
/// block accumulates through two interleaved `mul_add` chains (even and
/// odd terms), combined pairwise — breaking the serial dependency chain
/// and fusing each multiply–add into one rounding. Only ever compiled
/// inside `fma`-enabled instantiations, where `mul_add` lowers to a
/// single `vfmadd`.
#[inline(always)]
fn accumulate_rows_fast(
    coeffs: &[f64],
    rows: &[f64],
    stride: usize,
    j0: usize,
    j1: usize,
    c_row: &mut [f64],
) {
    debug_assert_eq!(c_row.len(), j1 - j0);
    let k = coeffs.len();
    let row = |kk: usize| &rows[kk * stride + j0..kk * stride + j1];
    let mut kk = 0;
    while kk + 8 <= k {
        let a: [f64; 8] = coeffs[kk..kk + 8].try_into().expect("length 8");
        let (b0, b1, b2, b3) = (row(kk), row(kk + 1), row(kk + 2), row(kk + 3));
        let (b4, b5, b6, b7) = (row(kk + 4), row(kk + 5), row(kk + 6), row(kk + 7));
        for (j, cv) in c_row.iter_mut().enumerate() {
            let s0 = a[0].mul_add(
                b0[j],
                a[2].mul_add(b2[j], a[4].mul_add(b4[j], a[6] * b6[j])),
            );
            let s1 = a[1].mul_add(
                b1[j],
                a[3].mul_add(b3[j], a[5].mul_add(b5[j], a[7] * b7[j])),
            );
            *cv += s0 + s1;
        }
        kk += 8;
    }
    while kk < k {
        let av = coeffs[kk];
        let bv = row(kk);
        for (j, cv) in c_row.iter_mut().enumerate() {
            *cv = av.mul_add(bv[j], *cv);
        }
        kk += 1;
    }
}

#[inline(always)]
fn gemm_nn_fast_impl(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    c.iter_mut().for_each(|v| *v = 0.0);
    let jb = panel_width(k);
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + jb).min(n);
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n + j0..i * n + j1];
            accumulate_rows_fast(a_row, b, n, j0, j1, c_row);
        }
        j0 = j1;
    }
}

#[inline(always)]
#[allow(clippy::too_many_arguments)]
fn gemm_nt_fast_impl(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut Scratch,
) {
    if n <= 16 {
        let nr = small_reg_width(n);
        pack_bt_small(b, k, n, nr, scratch);
        let bt = &scratch.packed[..k * nr];
        match nr {
            4 => gemm_small_n_fast::<4>(a, bt, c, m, k, n),
            8 => gemm_small_n_fast::<8>(a, bt, c, m, k, n),
            _ => gemm_small_n_fast::<16>(a, bt, c, m, k, n),
        }
        return;
    }
    c.iter_mut().for_each(|v| *v = 0.0);
    let jb = panel_width(k).min(n.max(1));
    if scratch.packed.len() < jb * k {
        scratch.packed.resize(jb * k, 0.0);
    }
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + jb).min(n);
        let w = j1 - j0;
        for jj in 0..w {
            for (kk, &v) in b[(j0 + jj) * k..(j0 + jj + 1) * k].iter().enumerate() {
                scratch.packed[kk * w + jj] = v;
            }
        }
        for i in 0..m {
            let a_row = &a[i * k..(i + 1) * k];
            let c_row = &mut c[i * n + j0..i * n + j1];
            accumulate_rows_fast(a_row, &scratch.packed[..k * w], w, 0, w, c_row);
        }
        j0 = j1;
    }
}

#[inline(always)]
fn gemm_tn_fast_impl(a: &[f64], b: &[f64], c: &mut [f64], l: usize, m: usize, n: usize) {
    if m <= 16 && n <= 16 {
        gemm_tn_small_dispatch(a, b, c, l, m, n);
        return;
    }
    let mut j0 = 0;
    while j0 < n {
        let j1 = (j0 + TN_COL_PANEL).min(n);
        let mut i0 = 0;
        while i0 < l {
            let i1 = (i0 + TN_ROW_PANEL).min(l);
            for p in 0..m {
                let c_row = &mut c[p * n + j0..p * n + j1];
                let brow = |i: usize| &b[i * n + j0..i * n + j1];
                let mut i = i0;
                while i + 8 <= i1 {
                    let mut ai = [0.0f64; 8];
                    for (u, av) in ai.iter_mut().enumerate() {
                        *av = a[(i + u) * m + p];
                    }
                    let (b0, b1, b2, b3) = (brow(i), brow(i + 1), brow(i + 2), brow(i + 3));
                    let (b4, b5, b6, b7) = (brow(i + 4), brow(i + 5), brow(i + 6), brow(i + 7));
                    for (j, cv) in c_row.iter_mut().enumerate() {
                        let s0 = ai[0].mul_add(
                            b0[j],
                            ai[2].mul_add(b2[j], ai[4].mul_add(b4[j], ai[6] * b6[j])),
                        );
                        let s1 = ai[1].mul_add(
                            b1[j],
                            ai[3].mul_add(b3[j], ai[5].mul_add(b5[j], ai[7] * b7[j])),
                        );
                        *cv += s0 + s1;
                    }
                    i += 8;
                }
                while i < i1 {
                    let av = a[i * m + p];
                    let bv = brow(i);
                    for (j, cv) in c_row.iter_mut().enumerate() {
                        *cv = av.mul_add(bv[j], *cv);
                    }
                    i += 1;
                }
            }
            i0 = i1;
        }
        j0 = j1;
    }
}

/// AVX2+FMA instantiation of [`gemm_nn_fast_impl`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_nn_fast_avx2(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_nn_fast_impl(a, b, c, m, k, n);
}

/// AVX-512+FMA instantiation of [`gemm_nn_fast_impl`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn gemm_nn_fast_avx512(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
    gemm_nn_fast_impl(a, b, c, m, k, n);
}

/// AVX2+FMA instantiation of [`gemm_nt_fast_impl`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_nt_fast_avx2(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut Scratch,
) {
    gemm_nt_fast_impl(a, b, c, m, k, n, scratch);
}

/// AVX-512+FMA instantiation of [`gemm_nt_fast_impl`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
#[allow(clippy::too_many_arguments)]
unsafe fn gemm_nt_fast_avx512(
    a: &[f64],
    b: &[f64],
    c: &mut [f64],
    m: usize,
    k: usize,
    n: usize,
    scratch: &mut Scratch,
) {
    gemm_nt_fast_impl(a, b, c, m, k, n, scratch);
}

/// AVX2+FMA instantiation of [`gemm_tn_fast_impl`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn gemm_tn_fast_avx2(a: &[f64], b: &[f64], c: &mut [f64], l: usize, m: usize, n: usize) {
    gemm_tn_fast_impl(a, b, c, l, m, n);
}

/// AVX-512+FMA instantiation of [`gemm_tn_fast_impl`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn gemm_tn_fast_avx512(a: &[f64], b: &[f64], c: &mut [f64], l: usize, m: usize, n: usize) {
    gemm_tn_fast_impl(a, b, c, l, m, n);
}

/// Unblocked reference kernels: the semantic spec the blocked family is
/// tested against (bit-for-bit, see `tests/properties.rs`). Retained as
/// plain per-element loops on purpose — slow, obviously correct.
pub mod reference {
    use crate::vector;

    /// `C = A · B`, per element one in-order dot over `k`.
    pub fn gemm_nn(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                let mut acc = 0.0;
                for kk in 0..k {
                    acc += a[i * k + kk] * b[kk * n + j];
                }
                c[i * n + j] = acc;
            }
        }
    }

    /// `C = A · Bᵀ`, per element one in-order dot over `k`.
    pub fn gemm_nt(a: &[f64], b: &[f64], c: &mut [f64], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                c[i * n + j] = vector::dot(&a[i * k..(i + 1) * k], &b[j * k..(j + 1) * k]);
            }
        }
    }

    /// `C += Aᵀ · B`, per element `i` ascending.
    pub fn gemm_tn_acc(a: &[f64], b: &[f64], c: &mut [f64], l: usize, m: usize, n: usize) {
        for i in 0..l {
            for p in 0..m {
                for q in 0..n {
                    c[p * n + q] += a[i * m + p] * b[i * n + q];
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Deterministic pseudo-random fill (xorshift-ish; no rand dep here).
    fn fill(seed: u64, len: usize) -> Vec<f64> {
        let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
        (0..len)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 11) as f64 / (1u64 << 53) as f64 * 4.0 - 2.0
            })
            .collect()
    }

    #[test]
    fn nt_matches_reference_bits_on_ragged_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 33, 9),
            (5, 600, 13),
            (64, 7, 530),
        ] {
            let a = fill(m as u64 * 31 + k as u64, m * k);
            let b = fill(n as u64 * 17 + 3, n * k);
            let mut fast = vec![0.0; m * n];
            let mut slow = vec![1.0; m * n];
            let mut scratch = Scratch::new();
            gemm_nt_into(&a, &b, &mut fast, m, k, n, &mut scratch);
            reference::gemm_nt(&a, &b, &mut slow, m, k, n);
            for (x, y) in fast.iter().zip(&slow) {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn nn_matches_reference_bits_on_ragged_shapes() {
        for &(m, k, n) in &[(1, 1, 1), (4, 6, 5), (9, 520, 11), (30, 3, 700)] {
            let a = fill(m as u64 + 7, m * k);
            let b = fill(k as u64 + 11, k * n);
            let mut fast = vec![0.0; m * n];
            let mut slow = vec![2.0; m * n];
            gemm_nn_into(&a, &b, &mut fast, m, k, n);
            reference::gemm_nn(&a, &b, &mut slow, m, k, n);
            for (x, y) in fast.iter().zip(&slow) {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{k},{n})");
            }
        }
    }

    #[test]
    fn tn_acc_matches_reference_bits_and_accumulates() {
        for &(l, m, n) in &[(1, 1, 1), (5, 3, 4), (300, 6, 9), (129, 2, 2)] {
            let a = fill(l as u64 * 3, l * m);
            let b = fill(l as u64 * 5 + 1, l * n);
            let init = fill(9, m * n);
            let mut fast = init.clone();
            let mut slow = init;
            gemm_tn_acc(&a, &b, &mut fast, l, m, n);
            reference::gemm_tn_acc(&a, &b, &mut slow, l, m, n);
            for (x, y) in fast.iter().zip(&slow) {
                assert_eq!(x.to_bits(), y.to_bits(), "({l},{m},{n})");
            }
        }
    }

    #[test]
    fn bias_and_col_sums_match_hand_loops() {
        let a = fill(1, 4 * 3);
        let bias = fill(2, 3);
        let mut c = a.clone();
        add_bias_rows(&mut c, 3, &bias);
        for i in 0..4 {
            for j in 0..3 {
                assert_eq!(c[i * 3 + j].to_bits(), (a[i * 3 + j] + bias[j]).to_bits());
            }
        }
        let mut sums = vec![0.5; 3];
        let mut expect = sums.clone();
        col_sums_acc(&a, 3, &mut sums);
        for i in 0..4 {
            for j in 0..3 {
                expect[j] += a[i * 3 + j];
            }
        }
        for (x, y) in sums.iter().zip(&expect) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn gram_matches_unblocked_assembly() {
        // Ragged ranks exercise the short last block of four elements;
        // m = 0 is an unobserved ALS target (G = λI).
        for &(m, r) in &[(23, 4), (0, 3), (1, 1), (9, 5), (40, 7)] {
            let a = fill(5 + r as u64, m * r);
            let lambda = 0.37;
            let mut fast = vec![f64::NAN; r * r];
            gram_into(&a, m, r, lambda, &mut fast);
            // The pre-refactor assembly: i outer, per-element i ascending,
            // lambda added after.
            let mut slow = vec![0.0; r * r];
            for i in 0..m {
                let row = &a[i * r..(i + 1) * r];
                for p in 0..r {
                    for q in 0..r {
                        slow[p * r + q] += row[p] * row[q];
                    }
                }
            }
            for p in 0..r {
                slow[p * r + p] += lambda;
            }
            for (x, y) in fast.iter().zip(&slow) {
                assert_eq!(x.to_bits(), y.to_bits(), "({m},{r})");
            }
        }
    }

    #[test]
    fn scratch_is_reused_across_shapes() {
        let mut scratch = Scratch::new();
        let a = fill(1, 6 * 520);
        let b = fill(2, 9 * 520);
        let mut c = vec![0.0; 6 * 9];
        gemm_nt_into(&a, &b, &mut c, 6, 520, 9, &mut scratch);
        let cap = scratch.packed.capacity();
        // A smaller problem must not grow the buffer.
        let a2 = fill(3, 2 * 8);
        let b2 = fill(4, 3 * 8);
        let mut c2 = vec![0.0; 2 * 3];
        gemm_nt_into(&a2, &b2, &mut c2, 2, 8, 3, &mut scratch);
        assert_eq!(scratch.packed.capacity(), cap);
    }

    /// Per-element ε bound for one output: `fast_epsilon(k, Σ|aᵢ||bᵢ|)`.
    fn elem_bound(ar: &[f64], bc: impl Iterator<Item = f64>) -> f64 {
        let mag: f64 = ar.iter().zip(bc).map(|(x, y)| (x * y).abs()).sum();
        fast_epsilon(ar.len(), mag)
    }

    #[test]
    fn tiered_bit_exact_is_the_reference_path_bitwise() {
        let (m, k, n) = (13, 37, 11);
        let a = fill(3, m * k);
        let b = fill(4, k * n);
        let bt = fill(4, n * k);
        let mut scratch = Scratch::new();

        let mut exact = vec![0.0; m * n];
        let mut tiered = vec![1.0; m * n];
        gemm_nn_into(&a, &b, &mut exact, m, k, n);
        gemm_nn_tiered(&a, &b, &mut tiered, m, k, n, DeterminismTier::BitExact);
        assert!(exact
            .iter()
            .zip(&tiered)
            .all(|(x, y)| x.to_bits() == y.to_bits()));

        let mut exact_nt = vec![0.0; m * n];
        let mut tiered_nt = vec![1.0; m * n];
        gemm_nt_into(&a, &bt, &mut exact_nt, m, k, n, &mut scratch);
        gemm_nt_tiered(
            &a,
            &bt,
            &mut tiered_nt,
            m,
            k,
            n,
            &mut scratch,
            DeterminismTier::BitExact,
        );
        assert!(exact_nt
            .iter()
            .zip(&tiered_nt)
            .all(|(x, y)| x.to_bits() == y.to_bits()));

        let at = fill(5, k * m);
        let mut exact_tn = fill(6, m * n);
        let mut tiered_tn = exact_tn.clone();
        gemm_tn_acc(&at, &b, &mut exact_tn, k, m, n);
        gemm_tn_acc_tiered(&at, &b, &mut tiered_tn, k, m, n, DeterminismTier::BitExact);
        assert!(exact_tn
            .iter()
            .zip(&tiered_tn)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn fast_nn_within_epsilon_of_reference_on_ragged_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 33, 9),
            (5, 600, 13),
            (64, 7, 530),
        ] {
            let a = fill(m as u64 * 13 + k as u64, m * k);
            let b = fill(n as u64 * 7 + 5, k * n);
            let mut fast = vec![0.0; m * n];
            let mut slow = vec![2.0; m * n];
            gemm_nn_tiered(&a, &b, &mut fast, m, k, n, DeterminismTier::Fast);
            reference::gemm_nn(&a, &b, &mut slow, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let eps = elem_bound(&a[i * k..(i + 1) * k], (0..k).map(|kk| b[kk * n + j]));
                    let d = (fast[i * n + j] - slow[i * n + j]).abs();
                    assert!(d <= eps, "({m},{k},{n}) at ({i},{j}): |Δ|={d} > ε={eps}");
                }
            }
        }
    }

    #[test]
    fn fast_nt_within_epsilon_of_reference_on_ragged_shapes() {
        for &(m, k, n) in &[
            (1, 1, 1),
            (3, 5, 7),
            (17, 33, 9),
            (5, 600, 13),
            (64, 7, 530),
        ] {
            let a = fill(m as u64 * 29 + k as u64, m * k);
            let b = fill(n as u64 * 23 + 1, n * k);
            let mut fast = vec![0.0; m * n];
            let mut slow = vec![2.0; m * n];
            let mut scratch = Scratch::new();
            gemm_nt_tiered(
                &a,
                &b,
                &mut fast,
                m,
                k,
                n,
                &mut scratch,
                DeterminismTier::Fast,
            );
            reference::gemm_nt(&a, &b, &mut slow, m, k, n);
            for i in 0..m {
                for j in 0..n {
                    let eps = elem_bound(
                        &a[i * k..(i + 1) * k],
                        b[j * k..(j + 1) * k].iter().copied(),
                    );
                    let d = (fast[i * n + j] - slow[i * n + j]).abs();
                    assert!(d <= eps, "({m},{k},{n}) at ({i},{j}): |Δ|={d} > ε={eps}");
                }
            }
        }
    }

    #[test]
    fn fast_tn_acc_within_epsilon_and_accumulates() {
        for &(l, m, n) in &[
            (1, 1, 1),
            (5, 3, 4),
            (300, 6, 9),
            (129, 2, 2),
            (260, 9, 300),
        ] {
            let a = fill(l as u64 * 3 + 7, l * m);
            let b = fill(l as u64 * 5 + 2, l * n);
            let init = fill(11, m * n);
            let mut fast = init.clone();
            let mut slow = init.clone();
            gemm_tn_acc_tiered(&a, &b, &mut fast, l, m, n, DeterminismTier::Fast);
            reference::gemm_tn_acc(&a, &b, &mut slow, l, m, n);
            for p in 0..m {
                for q in 0..n {
                    let col_a: Vec<f64> = (0..l).map(|i| a[i * m + p]).collect();
                    let eps = elem_bound(&col_a, (0..l).map(|i| b[i * n + q]))
                        + fast_epsilon(1, init[p * n + q].abs());
                    let d = (fast[p * n + q] - slow[p * n + q]).abs();
                    assert!(d <= eps, "({l},{m},{n}) at ({p},{q}): |Δ|={d} > ε={eps}");
                }
            }
        }
    }

    #[test]
    fn fast_tier_is_deterministic_run_to_run() {
        let (m, k, n) = (19, 70, 23);
        let a = fill(77, m * k);
        let b = fill(78, k * n);
        let mut first = vec![0.0; m * n];
        let mut second = vec![9.0; m * n];
        gemm_nn_tiered(&a, &b, &mut first, m, k, n, DeterminismTier::Fast);
        gemm_nn_tiered(&a, &b, &mut second, m, k, n, DeterminismTier::Fast);
        assert!(first
            .iter()
            .zip(&second)
            .all(|(x, y)| x.to_bits() == y.to_bits()));
    }

    #[test]
    fn fast_epsilon_grows_with_depth_and_magnitude() {
        assert!(fast_epsilon(10, 1.0) < fast_epsilon(100, 1.0));
        assert!(fast_epsilon(10, 1.0) < fast_epsilon(10, 5.0));
        assert_eq!(fast_epsilon(0, 0.0), 0.0);
    }
}
