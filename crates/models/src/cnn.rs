//! Small convolutional network with manual backpropagation.
//!
//! Plays the role of the paper's CNN / VGG16 on the simulated
//! Fashion-MNIST and CIFAR10 tasks: single-channel `H × W` inputs, one
//! 3×3 valid convolution with `K` filters, ReLU, 2×2 average pooling, then
//! a dense softmax head. Deliberately small — what the experiments need is
//! "the hardest model on the hardest data", not ImageNet capacity.

use crate::init::xavier_fill;
use crate::traits::Model;
use crate::workspace::{chunks, softmax_delta, Workspace};
use fedval_data::Dataset;
#[cfg(target_arch = "x86_64")]
use fedval_linalg::KernelIsa;
use fedval_linalg::{gemm, vector, DeterminismTier, Matrix};
use fedval_runtime::{CancelToken, Cancelled};

/// Architecture of [`Cnn`].
#[derive(Debug, Clone)]
pub struct CnnConfig {
    /// Image height (input dim must be `height * width`).
    pub height: usize,
    /// Image width.
    pub width: usize,
    /// Number of 3×3 convolution filters.
    pub filters: usize,
    /// Number of output classes.
    pub num_classes: usize,
    /// L2 regularization strength.
    pub reg: f64,
}

impl CnnConfig {
    /// A small default suitable for the simulated image datasets.
    pub fn small(height: usize, width: usize, num_classes: usize) -> Self {
        CnnConfig {
            height,
            width,
            filters: 8,
            num_classes,
            reg: 0.0,
        }
    }
}

const KERNEL: usize = 3;

/// Sub-block rows for the `Fast`-tier gradient: small enough that the
/// channel-last conv activations, pooled maps, and deltas for one
/// sub-block fit in L2 together, so the fused backward re-reads the
/// forward's conv buffer without an L3 round trip.
const FAST_GRAD_ROWS: usize = 64;

/// Convolutional classifier: conv3×3(K) → ReLU → avgpool2×2 → dense.
#[derive(Debug, Clone)]
pub struct Cnn {
    config: CnnConfig,
    /// Conv output spatial dims (valid convolution).
    conv_h: usize,
    conv_w: usize,
    /// Pool output spatial dims.
    pool_h: usize,
    pool_w: usize,
    /// Offsets into the flat parameter vector.
    conv_w_off: usize,
    conv_b_off: usize,
    dense_w_off: usize,
    dense_b_off: usize,
    params: Vec<f64>,
}

impl Cnn {
    /// Builds a CNN; panics when the image is too small for a 3×3 valid
    /// convolution followed by 2×2 pooling.
    pub fn new(config: CnnConfig, seed: u64) -> Self {
        assert!(
            config.height > KERNEL && config.width > KERNEL,
            "image too small for conv3x3 + pool2x2"
        );
        assert!(config.filters > 0 && config.num_classes >= 2);
        let conv_h = config.height - KERNEL + 1;
        let conv_w = config.width - KERNEL + 1;
        let pool_h = conv_h / 2;
        let pool_w = conv_w / 2;
        assert!(pool_h > 0 && pool_w > 0, "pooled feature map is empty");

        let conv_w_off = 0;
        let conv_b_off = conv_w_off + config.filters * KERNEL * KERNEL;
        let dense_w_off = conv_b_off + config.filters;
        let dense_in = config.filters * pool_h * pool_w;
        let dense_b_off = dense_w_off + config.num_classes * dense_in;
        let total = dense_b_off + config.num_classes;

        let mut params = vec![0.0; total];
        xavier_fill(
            &mut params[conv_w_off..conv_b_off],
            KERNEL * KERNEL,
            config.filters,
            seed,
        );
        xavier_fill(
            &mut params[dense_w_off..dense_b_off],
            dense_in,
            config.num_classes,
            seed.wrapping_add(1),
        );
        Cnn {
            config,
            conv_h,
            conv_w,
            pool_h,
            pool_w,
            conv_w_off,
            conv_b_off,
            dense_w_off,
            dense_b_off,
            params,
        }
    }

    /// Flattened input dimension this model expects.
    pub fn input_dim(&self) -> usize {
        self.config.height * self.config.width
    }

    /// The architecture config.
    pub fn config(&self) -> &CnnConfig {
        &self.config
    }

    fn dense_in(&self) -> usize {
        self.config.filters * self.pool_h * self.pool_w
    }

    fn reg_term(&self) -> f64 {
        if self.config.reg == 0.0 {
            0.0
        } else {
            0.5 * self.config.reg * vector::dot(&self.params, &self.params)
        }
    }

    /// Conv + pool for one sample, writing the post-ReLU conv maps into
    /// `conv_row` and the pooled maps into `pooled_row`. The scalar
    /// kernel loop keeps its original accumulation order (`acc = bias`,
    /// then one 3-wide dot per kernel row) — the batched path reuses it
    /// per row, so conv results stay bit-identical to the per-sample
    /// code.
    fn conv_pool_sample(&self, x: &[f64], conv_row: &mut [f64], pooled_row: &mut [f64]) {
        let w = self.config.width;
        debug_assert_eq!(x.len(), self.config.height * w);
        let k = self.config.filters;
        for f in 0..k {
            let wf = &self.params[self.conv_w_off + f * KERNEL * KERNEL
                ..self.conv_w_off + (f + 1) * KERNEL * KERNEL];
            let bias = self.params[self.conv_b_off + f];
            for i in 0..self.conv_h {
                for j in 0..self.conv_w {
                    let mut acc = bias;
                    for ki in 0..KERNEL {
                        let row = &x[(i + ki) * w + j..(i + ki) * w + j + KERNEL];
                        let wrow = &wf[ki * KERNEL..(ki + 1) * KERNEL];
                        acc += vector::dot(row, wrow);
                    }
                    // ReLU applied in place.
                    conv_row[f * self.conv_h * self.conv_w + i * self.conv_w + j] = acc.max(0.0);
                }
            }
        }
        // 2x2 average pooling (stride 2, trailing row/col dropped).
        for f in 0..k {
            let plane =
                &conv_row[f * self.conv_h * self.conv_w..(f + 1) * self.conv_h * self.conv_w];
            for i in 0..self.pool_h {
                for j in 0..self.pool_w {
                    let a = plane[(2 * i) * self.conv_w + 2 * j];
                    let b = plane[(2 * i) * self.conv_w + 2 * j + 1];
                    let c = plane[(2 * i + 1) * self.conv_w + 2 * j];
                    let d = plane[(2 * i + 1) * self.conv_w + 2 * j + 1];
                    pooled_row[f * self.pool_h * self.pool_w + i * self.pool_w + j] =
                        0.25 * (a + b + c + d);
                }
            }
        }
    }

    /// Forward pass for one sample. Writes the post-ReLU conv maps,
    /// pooled maps, and logits into the provided buffers (resized as
    /// needed). Used by `predict` and the retained reference loops.
    fn forward_into(
        &self,
        x: &[f64],
        conv_out: &mut Vec<f64>,
        pooled: &mut Vec<f64>,
        logits: &mut Vec<f64>,
    ) {
        let k = self.config.filters;
        conv_out.clear();
        conv_out.resize(k * self.conv_h * self.conv_w, 0.0);
        pooled.clear();
        pooled.resize(self.dense_in(), 0.0);
        self.conv_pool_sample(x, conv_out, pooled);
        // Dense head.
        let dense_in = self.dense_in();
        logits.clear();
        logits.resize(self.config.num_classes, 0.0);
        for (c, l) in logits.iter_mut().enumerate() {
            let wrow = &self.params
                [self.dense_w_off + c * dense_in..self.dense_w_off + (c + 1) * dense_in];
            *l = vector::dot(wrow, pooled) + self.params[self.dense_b_off + c];
        }
    }

    /// Batched forward over a chunk: per-sample conv/pool into workspace
    /// matrix rows (no per-sample allocation), then one `pooled · Wᵀ`
    /// GEMM plus fused bias add for the dense head.
    fn forward_chunk(
        &self,
        x: &[f64],
        rows: usize,
        conv: &mut Matrix,
        pooled: &mut Matrix,
        logits: &mut Matrix,
        scratch: &mut gemm::Scratch,
    ) {
        let in_dim = self.input_dim();
        let dense_in = self.dense_in();
        let classes = self.config.num_classes;
        conv.resize_for_overwrite(rows, self.config.filters * self.conv_h * self.conv_w);
        pooled.resize_for_overwrite(rows, dense_in);
        for r in 0..rows {
            self.conv_pool_sample(
                &x[r * in_dim..(r + 1) * in_dim],
                conv.row_mut(r),
                pooled.row_mut(r),
            );
        }
        logits.resize_for_overwrite(rows, classes);
        gemm::gemm_nt_into(
            pooled.as_slice(),
            &self.params[self.dense_w_off..self.dense_b_off],
            logits.as_mut_slice(),
            rows,
            dense_in,
            classes,
            scratch,
        );
        gemm::add_bias_rows(
            logits.as_mut_slice(),
            classes,
            &self.params[self.dense_b_off..],
        );
    }

    /// `Fast`-tier batched forward: one fused conv+bias+ReLU+pool pass
    /// straight from the input rows (see [`conv_forward_fused`]) writing
    /// the **channel-last** conv activations (`convf[pos][f]`) the
    /// backward pass masks against and the f-major `pooled` rows the
    /// dense head expects, then the tiered dense GEMM. Reorders the conv
    /// reduction (tap-order broadcast FMA instead of the scalar
    /// accumulation) — within the documented ε of [`forward_chunk`].
    fn forward_chunk_fast(
        &self,
        x: &[f64],
        rows: usize,
        convf: &mut Matrix,
        pooled: &mut Matrix,
        logits: &mut Matrix,
        scratch: &mut gemm::Scratch,
    ) {
        let tier = DeterminismTier::Fast;
        let in_dim = self.input_dim();
        let k = self.config.filters;
        let (ch, cw) = (self.conv_h, self.conv_w);
        let positions = ch * cw;
        let dense_in = self.dense_in();
        let classes = self.config.num_classes;

        // Conv positions outside every pool window (odd conv dims) are
        // left unwritten in `convf`; nothing downstream reads them — the
        // backward ReLU mask only visits pooled positions.
        convf.resize_for_overwrite(rows * positions, k);
        pooled.resize_for_overwrite(rows, dense_in);
        conv_forward_fused(
            &ConvFwd {
                x,
                rows,
                in_dim,
                width: self.config.width,
                conv_h: ch,
                conv_w: cw,
                pool_h: self.pool_h,
                pool_w: self.pool_w,
                filters: k,
                weights: &self.params[self.conv_w_off..self.conv_b_off],
                bias: &self.params[self.conv_b_off..self.dense_w_off],
                dense_in,
            },
            convf.as_mut_slice(),
            pooled.as_mut_slice(),
        );
        logits.resize_for_overwrite(rows, classes);
        gemm::gemm_nt_tiered(
            pooled.as_slice(),
            &self.params[self.dense_w_off..self.dense_b_off],
            logits.as_mut_slice(),
            rows,
            dense_in,
            classes,
            scratch,
            tier,
        );
        gemm::add_bias_rows(
            logits.as_mut_slice(),
            classes,
            &self.params[self.dense_b_off..],
        );
    }
}

/// Per-chunk inputs for the fused `Fast`-tier conv forward pass.
struct ConvFwd<'a> {
    /// Input rows for the chunk, `rows × in_dim`.
    x: &'a [f64],
    rows: usize,
    in_dim: usize,
    /// Image width (row stride within one input row).
    width: usize,
    conv_h: usize,
    conv_w: usize,
    pool_h: usize,
    pool_w: usize,
    filters: usize,
    /// Conv weights in the filter-major parameter layout (`filters × 9`).
    weights: &'a [f64],
    /// Conv bias, one per filter.
    bias: &'a [f64],
    dense_in: usize,
}

/// Register-tiled body of the fused conv forward: the filter weights are
/// hoisted into a tap-major `[tap][filter]` register file once, then
/// every pool window computes its four conv positions as nine broadcast
/// FMAs each — straight from the input row, no im2col expansion — fuses
/// bias + ReLU, stores the channel-last activation row, and accumulates
/// the 2×2 average into the f-major pooled plane.
///
/// `KF` is the padded filter width (4/8/16); lanes `f ≥ filters` hold
/// zero weights/bias so they stay zero throughout, and the activation
/// store narrows back to `filters` lanes (constant-trip conditional
/// stores — a runtime-length `copy_from_slice` here becomes a memcpy
/// libcall that spills the register file per position).
#[inline(always)]
fn conv_forward_fused_body<const KF: usize>(p: &ConvFwd, conv: &mut [f64], pooled: &mut [f64]) {
    let k = p.filters;
    let pool_plane = p.pool_h * p.pool_w;
    let positions = p.conv_h * p.conv_w;
    let mut wreg = [[0.0f64; KF]; KERNEL * KERNEL];
    let mut breg = [0.0f64; KF];
    for f in 0..k {
        for (t, wt) in wreg.iter_mut().enumerate() {
            wt[f] = p.weights[f * KERNEL * KERNEL + t];
        }
        breg[f] = p.bias[f];
    }
    for r in 0..p.rows {
        let xr = &p.x[r * p.in_dim..(r + 1) * p.in_dim];
        let base = r * positions;
        let prow = &mut pooled[r * p.dense_in..(r + 1) * p.dense_in];
        for pi in 0..p.pool_h {
            for pj in 0..p.pool_w {
                let mut pacc = [0.0f64; KF];
                for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    let ci = 2 * pi + di;
                    let cj = 2 * pj + dj;
                    let mut acc = breg;
                    for (t, wt) in wreg.iter().enumerate() {
                        let xv = xr[(ci + t / KERNEL) * p.width + cj + t % KERNEL];
                        for (av, &wv) in acc.iter_mut().zip(wt) {
                            *av = xv.mul_add(wv, *av);
                        }
                    }
                    for av in &mut acc {
                        *av = av.max(0.0);
                    }
                    let pos = base + ci * p.conv_w + cj;
                    let crow = &mut conv[pos * k..(pos + 1) * k];
                    if k == KF {
                        let dst: &mut [f64; KF] = crow.try_into().unwrap();
                        *dst = acc;
                    } else {
                        for (f, &av) in acc.iter().enumerate() {
                            if f < k {
                                crow[f] = av;
                            }
                        }
                    }
                    for (pv, &av) in pacc.iter_mut().zip(&acc) {
                        *pv += av;
                    }
                }
                let widx = pi * p.pool_w + pj;
                for (f, &pv) in pacc.iter().enumerate() {
                    if f < k {
                        prow[f * pool_plane + widx] = pv * 0.25;
                    }
                }
            }
        }
    }
}

/// AVX2+FMA instantiation of [`conv_forward_fused_body`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn conv_forward_fused_avx2(p: &ConvFwd, conv: &mut [f64], pooled: &mut [f64]) {
    match p.filters {
        0..=4 => conv_forward_fused_body::<4>(p, conv, pooled),
        5..=8 => conv_forward_fused_body::<8>(p, conv, pooled),
        _ => conv_forward_fused_body::<16>(p, conv, pooled),
    }
}

/// AVX-512+FMA instantiation of [`conv_forward_fused_body`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn conv_forward_fused_avx512(p: &ConvFwd, conv: &mut [f64], pooled: &mut [f64]) {
    match p.filters {
        0..=4 => conv_forward_fused_body::<4>(p, conv, pooled),
        5..=8 => conv_forward_fused_body::<8>(p, conv, pooled),
        _ => conv_forward_fused_body::<16>(p, conv, pooled),
    }
}

/// Portable fallback for wide filter counts or CPUs without runtime
/// FMA: same window-order traversal, runtime-length filter loop, plain
/// multiply-add (`mul_add` without FMA codegen is a libm call).
fn conv_forward_fused_scalar(p: &ConvFwd, conv: &mut [f64], pooled: &mut [f64]) {
    let k = p.filters;
    let pool_plane = p.pool_h * p.pool_w;
    let positions = p.conv_h * p.conv_w;
    for r in 0..p.rows {
        let xr = &p.x[r * p.in_dim..(r + 1) * p.in_dim];
        let base = r * positions;
        let prow = &mut pooled[r * p.dense_in..(r + 1) * p.dense_in];
        for pi in 0..p.pool_h {
            for pj in 0..p.pool_w {
                let widx = pi * p.pool_w + pj;
                for f in 0..k {
                    let wf = &p.weights[f * KERNEL * KERNEL..(f + 1) * KERNEL * KERNEL];
                    let mut pacc = 0.0;
                    for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        let ci = 2 * pi + di;
                        let cj = 2 * pj + dj;
                        let mut acc = p.bias[f];
                        for ki in 0..KERNEL {
                            for kj in 0..KERNEL {
                                acc += xr[(ci + ki) * p.width + cj + kj] * wf[ki * KERNEL + kj];
                            }
                        }
                        let act = acc.max(0.0);
                        conv[(base + ci * p.conv_w + cj) * k + f] = act;
                        pacc += act;
                    }
                    prow[f * pool_plane + widx] = pacc * 0.25;
                }
            }
        }
    }
}

/// Fused `Fast`-tier conv forward: dispatches on the cached CPU feature
/// probe (same policy as the tiered GEMMs). Replaces the im2col buffer +
/// conv GEMM + bias/ReLU sweep + pool gather with a single pass over the
/// input rows; the conv reduction runs in tap order, which is what the
/// `Fast` tier's ε contract licenses.
fn conv_forward_fused(p: &ConvFwd, conv: &mut [f64], pooled: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if p.filters <= 16 {
        match fedval_linalg::cpu::kernel_isa(DeterminismTier::Fast) {
            KernelIsa::Avx512Fma => {
                // SAFETY: `kernel_isa` reports these variants only when
                // the corresponding features are present at runtime.
                unsafe { conv_forward_fused_avx512(p, conv, pooled) };
                return;
            }
            KernelIsa::Avx2Fma => {
                // SAFETY: as above.
                unsafe { conv_forward_fused_avx2(p, conv, pooled) };
                return;
            }
            _ => {}
        }
    }
    conv_forward_fused_scalar(p, conv, pooled);
}

/// Per-chunk inputs for the fused `Fast`-tier conv backward pass.
///
/// The fused kernel reads the raw input rows directly instead of the
/// im2col expansion, so the backward pass touches `rows · in_dim`
/// doubles where the materialized `dcols`/`cols` route streamed
/// `2 · rows · positions · max(9, filters)` — the difference is what
/// keeps the chunk L2-resident.
struct ConvBack<'a> {
    /// Input rows for the chunk, `rows × in_dim`.
    x: &'a [f64],
    rows: usize,
    in_dim: usize,
    /// Image width (row stride within one input row).
    width: usize,
    conv_h: usize,
    conv_w: usize,
    pool_h: usize,
    pool_w: usize,
    filters: usize,
    /// Post-ReLU conv activations in channel-last layout
    /// (`conv[pos · filters + f]`), as produced by the fast forward.
    conv: &'a [f64],
    /// Upstream pooled deltas, `rows × dense_in`, f-major planes.
    pooled_delta: &'a [f64],
    dense_in: usize,
}

/// Register-tiled body of the fused conv backward: for every pool
/// window, broadcast the pooled delta once, then for each of its four
/// conv positions mask by the forward ReLU and accumulate the bias and
/// the nine tap gradients into a `[tap][filter]` register file. The
/// accumulators only spill to memory once per chunk, and positions
/// outside any pool window (odd conv dims) contribute nothing — exactly
/// as in the per-sample backward.
///
/// `KF` is the padded filter width (4/8/16); lanes `f ≥ filters` are
/// forced to zero via constant-trip conditional loads — a runtime-length
/// `copy_from_slice` here becomes a memcpy libcall that spills every
/// accumulator per position.
#[inline(always)]
fn conv_backward_fused_body<const KF: usize>(p: &ConvBack, wgrad: &mut [f64], bgrad: &mut [f64]) {
    let k = p.filters;
    let pool_plane = p.pool_h * p.pool_w;
    let positions = p.conv_h * p.conv_w;
    let mut wacc = [[0.0f64; KF]; KERNEL * KERNEL];
    let mut bacc = [0.0f64; KF];
    for r in 0..p.rows {
        let xr = &p.x[r * p.in_dim..(r + 1) * p.in_dim];
        let pdrow = &p.pooled_delta[r * p.dense_in..(r + 1) * p.dense_in];
        let base = r * positions;
        for pi in 0..p.pool_h {
            for pj in 0..p.pool_w {
                let widx = pi * p.pool_w + pj;
                let mut pd = [0.0f64; KF];
                for (f, v) in pd.iter_mut().enumerate() {
                    *v = if f < k {
                        pdrow[f * pool_plane + widx] * 0.25
                    } else {
                        0.0
                    };
                }
                for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    let ci = 2 * pi + di;
                    let cj = 2 * pj + dj;
                    let pos = base + ci * p.conv_w + cj;
                    let crow = &p.conv[pos * k..(pos + 1) * k];
                    let mut drow = [0.0f64; KF];
                    for (f, v) in drow.iter_mut().enumerate() {
                        let act = if f < k { crow[f] } else { 0.0 };
                        *v = if act > 0.0 { pd[f] } else { 0.0 };
                    }
                    for (bv, &dv) in bacc.iter_mut().zip(&drow) {
                        *bv += dv;
                    }
                    for (t, wt) in wacc.iter_mut().enumerate() {
                        let xv = xr[(ci + t / KERNEL) * p.width + cj + t % KERNEL];
                        for (wv, &dv) in wt.iter_mut().zip(&drow) {
                            *wv = xv.mul_add(dv, *wv);
                        }
                    }
                }
            }
        }
    }
    // Spill once: `wacc` is tap-major, the parameter layout is
    // filter-major (`wgrad[f · 9 + tap]`).
    for f in 0..k {
        for (t, wt) in wacc.iter().enumerate() {
            wgrad[f * KERNEL * KERNEL + t] += wt[f];
        }
        bgrad[f] += bacc[f];
    }
}

/// AVX2+FMA instantiation of [`conv_backward_fused_body`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn conv_backward_fused_avx2(p: &ConvBack, wgrad: &mut [f64], bgrad: &mut [f64]) {
    match p.filters {
        0..=4 => conv_backward_fused_body::<4>(p, wgrad, bgrad),
        5..=8 => conv_backward_fused_body::<8>(p, wgrad, bgrad),
        _ => conv_backward_fused_body::<16>(p, wgrad, bgrad),
    }
}

/// AVX-512+FMA instantiation of [`conv_backward_fused_body`].
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn conv_backward_fused_avx512(p: &ConvBack, wgrad: &mut [f64], bgrad: &mut [f64]) {
    match p.filters {
        0..=4 => conv_backward_fused_body::<4>(p, wgrad, bgrad),
        5..=8 => conv_backward_fused_body::<8>(p, wgrad, bgrad),
        _ => conv_backward_fused_body::<16>(p, wgrad, bgrad),
    }
}

/// Portable fallback for wide filter counts or CPUs without runtime
/// FMA: same window-order traversal, runtime-length filter loop, plain
/// multiply-add (`mul_add` without FMA codegen is a libm call).
fn conv_backward_fused_scalar(p: &ConvBack, wgrad: &mut [f64], bgrad: &mut [f64]) {
    let k = p.filters;
    let pool_plane = p.pool_h * p.pool_w;
    let positions = p.conv_h * p.conv_w;
    for r in 0..p.rows {
        let xr = &p.x[r * p.in_dim..(r + 1) * p.in_dim];
        let pdrow = &p.pooled_delta[r * p.dense_in..(r + 1) * p.dense_in];
        let base = r * positions;
        for pi in 0..p.pool_h {
            for pj in 0..p.pool_w {
                let widx = pi * p.pool_w + pj;
                for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                    let ci = 2 * pi + di;
                    let cj = 2 * pj + dj;
                    let pos = base + ci * p.conv_w + cj;
                    let crow = &p.conv[pos * k..(pos + 1) * k];
                    for (f, &act) in crow.iter().enumerate() {
                        if act <= 0.0 {
                            continue;
                        }
                        let dv = pdrow[f * pool_plane + widx] * 0.25;
                        if dv == 0.0 {
                            continue;
                        }
                        bgrad[f] += dv;
                        let wf = &mut wgrad[f * KERNEL * KERNEL..(f + 1) * KERNEL * KERNEL];
                        for ki in 0..KERNEL {
                            for kj in 0..KERNEL {
                                wf[ki * KERNEL + kj] += xr[(ci + ki) * p.width + cj + kj] * dv;
                            }
                        }
                    }
                }
            }
        }
    }
}

/// Fused `Fast`-tier conv backward: dispatches on the cached CPU
/// feature probe (same policy as the tiered GEMMs) and accumulates into
/// the conv weight/bias gradient slices. Replaces the materialized
/// `dcols` build + `dcolsᵀ·cols` GEMM + column sums with one pass that
/// never leaves registers; the reduction order (row → pool window →
/// position → tap) differs from both, which is what the `Fast` tier's ε
/// contract licenses.
fn conv_backward_fused(p: &ConvBack, wgrad: &mut [f64], bgrad: &mut [f64]) {
    #[cfg(target_arch = "x86_64")]
    if p.filters <= 16 {
        match fedval_linalg::cpu::kernel_isa(DeterminismTier::Fast) {
            KernelIsa::Avx512Fma => {
                // SAFETY: `kernel_isa` reports these variants only when
                // the corresponding features are present at runtime.
                unsafe { conv_backward_fused_avx512(p, wgrad, bgrad) };
                return;
            }
            KernelIsa::Avx2Fma => {
                // SAFETY: as above.
                unsafe { conv_backward_fused_avx2(p, wgrad, bgrad) };
                return;
            }
            _ => {}
        }
    }
    conv_backward_fused_scalar(p, wgrad, bgrad);
}

impl Cnn {
    /// Pool + ReLU backward and conv weight/bias accumulation for one
    /// sample — the original scalar loop, accumulation order unchanged.
    fn conv_backward_sample(
        &self,
        x: &[f64],
        conv_row: &[f64],
        pooled_delta: &[f64],
        out: &mut [f64],
    ) {
        let k = self.config.filters;
        let w = self.config.width;
        for f in 0..k {
            let plane =
                &conv_row[f * self.conv_h * self.conv_w..(f + 1) * self.conv_h * self.conv_w];
            for pi in 0..self.pool_h {
                for pj in 0..self.pool_w {
                    let pd =
                        pooled_delta[f * self.pool_h * self.pool_w + pi * self.pool_w + pj] * 0.25;
                    if pd == 0.0 {
                        continue;
                    }
                    for (di, dj) in [(0, 0), (0, 1), (1, 0), (1, 1)] {
                        let ci = 2 * pi + di;
                        let cj = 2 * pj + dj;
                        // ReLU derivative: active iff output > 0.
                        if plane[ci * self.conv_w + cj] <= 0.0 {
                            continue;
                        }
                        // conv cell (f, ci, cj) delta = pd; accumulate
                        // into filter weights and bias.
                        let wf_grad = &mut out[self.conv_w_off + f * KERNEL * KERNEL
                            ..self.conv_w_off + (f + 1) * KERNEL * KERNEL];
                        for ki in 0..KERNEL {
                            let xrow = &x[(ci + ki) * w + cj..(ci + ki) * w + cj + KERNEL];
                            vector::axpy(pd, xrow, &mut wf_grad[ki * KERNEL..(ki + 1) * KERNEL]);
                        }
                        out[self.conv_b_off + f] += pd;
                    }
                }
            }
        }
    }

    /// `Fast`-tier gradient for one sub-block of rows: fused forward,
    /// softmax coefficients, dense-head gradient GEMMs, and the fused
    /// conv backward — every buffer sized to the sub-block so the whole
    /// round trip stays in L2. Returns the sub-block's summed
    /// cross-entropy (pre-`inv_n` scaling).
    fn grad_chunk_fast(
        &self,
        x: &[f64],
        labels: &[usize],
        inv_n: f64,
        out: &mut [f64],
        bufs: &mut [Matrix],
        gemm_scratch: &mut gemm::Scratch,
    ) -> f64 {
        let tier = DeterminismTier::Fast;
        let rows = labels.len();
        let in_dim = self.input_dim();
        let dense_in = self.dense_in();
        let classes = self.config.num_classes;
        let (conv, rest) = bufs.split_at_mut(1);
        let (pooled, rest) = rest.split_at_mut(1);
        let (logits, rest) = rest.split_at_mut(1);
        let (coeff, pooled_delta) = rest.split_at_mut(1);
        let (conv, pooled, logits) = (&mut conv[0], &mut pooled[0], &mut logits[0]);
        let (coeff, pooled_delta) = (&mut coeff[0], &mut pooled_delta[0]);

        self.forward_chunk_fast(x, rows, conv, pooled, logits, gemm_scratch);
        // coeff row = (softmax(logits) − onehot(y)) · inv_n, as in the
        // BitExact chunk body.
        let total = softmax_delta(logits, labels, coeff, 0.0);
        coeff.as_mut_slice().iter_mut().for_each(|v| *v *= inv_n);
        // Dense head: W += coeffᵀ · pooled, bias += column sums.
        gemm::gemm_tn_acc_tiered(
            coeff.as_slice(),
            pooled.as_slice(),
            &mut out[self.dense_w_off..self.dense_b_off],
            rows,
            classes,
            dense_in,
            tier,
        );
        gemm::col_sums_acc(
            coeff.as_slice(),
            classes,
            &mut out[self.dense_b_off..self.dense_b_off + classes],
        );
        pooled_delta.resize_for_overwrite(rows, dense_in);
        gemm::gemm_nn_tiered(
            coeff.as_slice(),
            &self.params[self.dense_w_off..self.dense_b_off],
            pooled_delta.as_mut_slice(),
            rows,
            classes,
            dense_in,
            tier,
        );
        // Fused conv backward: routes the pooled deltas through the ReLU
        // mask and accumulates the conv weight/bias gradients straight
        // from the input rows — no `dcols` scatter, no im2col replay,
        // register-resident accumulators (see [`conv_backward_fused`]).
        let (wgrad, bgrad) =
            out[self.conv_w_off..self.dense_w_off].split_at_mut(self.conv_b_off - self.conv_w_off);
        conv_backward_fused(
            &ConvBack {
                x,
                rows,
                in_dim,
                width: self.config.width,
                conv_h: self.conv_h,
                conv_w: self.conv_w,
                pool_h: self.pool_h,
                pool_w: self.pool_w,
                filters: self.config.filters,
                conv: conv.as_slice(),
                pooled_delta: pooled_delta.as_slice(),
                dense_in,
            },
            wgrad,
            bgrad,
        );
        total
    }

    /// The pre-batching per-sample loss loop, retained verbatim as the
    /// naive reference the equivalence tests and the `cell_throughput`
    /// benchmark compare against.
    #[doc(hidden)]
    pub fn loss_per_sample(&self, data: &Dataset) -> f64 {
        assert_eq!(data.dim(), self.input_dim(), "dataset dimension mismatch");
        if data.is_empty() {
            return self.reg_term();
        }
        let mut conv = Vec::new();
        let mut pooled = Vec::new();
        let mut logits = Vec::new();
        let mut total = 0.0;
        for i in 0..data.len() {
            let (x, y) = data.example(i);
            self.forward_into(x, &mut conv, &mut pooled, &mut logits);
            total += vector::log_sum_exp(&logits) - logits[y];
        }
        total / data.len() as f64 + self.reg_term()
    }

    /// The pre-batching per-sample gradient loop (see
    /// [`loss_per_sample`](Cnn::loss_per_sample)).
    #[doc(hidden)]
    pub fn grad_per_sample(&self, data: &Dataset, out: &mut [f64]) -> f64 {
        assert_eq!(out.len(), self.params.len(), "gradient buffer mismatch");
        assert_eq!(data.dim(), self.input_dim(), "dataset dimension mismatch");
        out.iter_mut().for_each(|v| *v = 0.0);
        if data.is_empty() {
            vector::axpy(self.config.reg, &self.params, out);
            return self.reg_term();
        }
        let inv_n = 1.0 / data.len() as f64;
        let dense_in = self.dense_in();
        let mut conv = Vec::new();
        let mut pooled = Vec::new();
        let mut logits = Vec::new();
        let mut probs = vec![0.0; self.config.num_classes];
        let mut total = 0.0;
        for i in 0..data.len() {
            let (x, y) = data.example(i);
            self.forward_into(x, &mut conv, &mut pooled, &mut logits);
            total += vector::log_sum_exp(&logits) - logits[y];
            vector::softmax_into(&logits, &mut probs);

            // Dense layer gradients and pooled delta.
            let mut pooled_delta = vec![0.0; dense_in];
            for (c, &p) in probs.iter().enumerate() {
                let delta_c = (p - f64::from(u8::from(c == y))) * inv_n;
                if delta_c == 0.0 {
                    continue;
                }
                let w_grad = &mut out
                    [self.dense_w_off + c * dense_in..self.dense_w_off + (c + 1) * dense_in];
                vector::axpy(delta_c, &pooled, w_grad);
                out[self.dense_b_off + c] += delta_c;
                let wrow = &self.params
                    [self.dense_w_off + c * dense_in..self.dense_w_off + (c + 1) * dense_in];
                vector::axpy(delta_c, wrow, &mut pooled_delta);
            }

            // Back through pooling and ReLU.
            self.conv_backward_sample(x, &conv, &pooled_delta, out);
        }
        vector::axpy(self.config.reg, &self.params, out);
        total * inv_n + self.reg_term()
    }
}

impl Model for Cnn {
    fn params(&self) -> &[f64] {
        &self.params
    }

    fn cache_descriptor(&self) -> String {
        format!(
            "cnn:h={}:w={}:filters={}:classes={}:reg={:x}",
            self.config.height,
            self.config.width,
            self.config.filters,
            self.config.num_classes,
            self.config.reg.to_bits()
        )
    }

    fn params_mut(&mut self) -> &mut [f64] {
        &mut self.params
    }

    fn loss_with(
        &self,
        data: &Dataset,
        ws: &mut Workspace,
        cancel: &CancelToken,
    ) -> Result<f64, Cancelled> {
        assert_eq!(data.dim(), self.input_dim(), "dataset dimension mismatch");
        if data.is_empty() {
            return Ok(self.reg_term());
        }
        let in_dim = self.input_dim();
        let feat = data.features().as_slice();
        let labels = data.labels();
        let fast = ws.tier() == DeterminismTier::Fast;
        let (bufs, gemm_scratch) = ws.parts(3);
        let mut total = 0.0;
        for (start, end) in chunks(data.len()) {
            cancel.check()?;
            let rows = end - start;
            let x = &feat[start * in_dim..end * in_dim];
            let (conv, rest) = bufs.split_at_mut(1);
            let (pooled, logits) = rest.split_at_mut(1);
            if fast {
                self.forward_chunk_fast(
                    x,
                    rows,
                    &mut conv[0],
                    &mut pooled[0],
                    &mut logits[0],
                    gemm_scratch,
                );
            } else {
                self.forward_chunk(
                    x,
                    rows,
                    &mut conv[0],
                    &mut pooled[0],
                    &mut logits[0],
                    gemm_scratch,
                );
            }
            total = vector::cross_entropy_rows(
                logits[0].as_slice(),
                self.config.num_classes,
                &labels[start..end],
                total,
            );
        }
        Ok(total / data.len() as f64 + self.reg_term())
    }

    fn grad_with(&self, data: &Dataset, out: &mut [f64], ws: &mut Workspace) -> f64 {
        assert_eq!(out.len(), self.params.len(), "gradient buffer mismatch");
        assert_eq!(data.dim(), self.input_dim(), "dataset dimension mismatch");
        out.iter_mut().for_each(|v| *v = 0.0);
        if data.is_empty() {
            vector::axpy(self.config.reg, &self.params, out);
            return self.reg_term();
        }
        let inv_n = 1.0 / data.len() as f64;
        let in_dim = self.input_dim();
        let dense_in = self.dense_in();
        let classes = self.config.num_classes;
        let feat = data.features().as_slice();
        let labels = data.labels();
        let tier = ws.tier();
        let fast = tier == DeterminismTier::Fast;
        let (bufs, gemm_scratch) = ws.parts(5);
        let mut total = 0.0;
        for (start, end) in chunks(data.len()) {
            if fast {
                // The Fast tier re-chunks into smaller sub-blocks so the
                // conv activations written by the forward pass are still
                // L2-resident when the fused backward re-reads them for
                // the ReLU mask — at full chunk size the conv buffer
                // round-trips through L3. BitExact keeps the original
                // chunking: its gradient grouping (one accumulating GEMM
                // per chunk) is part of the bit-for-bit contract.
                let mut s0 = start;
                while s0 < end {
                    let s1 = (s0 + FAST_GRAD_ROWS).min(end);
                    total += self.grad_chunk_fast(
                        &feat[s0 * in_dim..s1 * in_dim],
                        &labels[s0..s1],
                        inv_n,
                        out,
                        bufs,
                        gemm_scratch,
                    );
                    s0 = s1;
                }
                continue;
            }
            let rows = end - start;
            let x = &feat[start * in_dim..end * in_dim];
            let (conv, rest) = bufs.split_at_mut(1);
            let (pooled, rest) = rest.split_at_mut(1);
            let (logits, rest) = rest.split_at_mut(1);
            let (coeff, pooled_delta) = rest.split_at_mut(1);
            let (conv, pooled, logits) = (&mut conv[0], &mut pooled[0], &mut logits[0]);
            let (coeff, pooled_delta) = (&mut coeff[0], &mut pooled_delta[0]);

            self.forward_chunk(x, rows, conv, pooled, logits, gemm_scratch);
            // coeff row = (softmax(logits) − onehot(y)) · inv_n — the
            // per-sample code's `delta_c`, including the scaling.
            total = softmax_delta(logits, &labels[start..end], coeff, total);
            coeff.as_mut_slice().iter_mut().for_each(|v| *v *= inv_n);
            // Dense head: W += coeffᵀ · pooled, bias += column sums.
            gemm::gemm_tn_acc_tiered(
                coeff.as_slice(),
                pooled.as_slice(),
                &mut out[self.dense_w_off..self.dense_b_off],
                rows,
                classes,
                dense_in,
                tier,
            );
            gemm::col_sums_acc(
                coeff.as_slice(),
                classes,
                &mut out[self.dense_b_off..self.dense_b_off + classes],
            );
            // pooled_delta = coeff · W_dense (class-ascending per element,
            // as the per-sample axpy loop).
            pooled_delta.resize_for_overwrite(rows, dense_in);
            gemm::gemm_nn_tiered(
                coeff.as_slice(),
                &self.params[self.dense_w_off..self.dense_b_off],
                pooled_delta.as_mut_slice(),
                rows,
                classes,
                dense_in,
                tier,
            );
            // Conv backward, per sample in ascending order.
            for r in 0..rows {
                self.conv_backward_sample(
                    &x[r * in_dim..(r + 1) * in_dim],
                    conv.row(r),
                    pooled_delta.row(r),
                    out,
                );
            }
        }
        vector::axpy(self.config.reg, &self.params, out);
        total * inv_n + self.reg_term()
    }

    fn predict(&self, x: &[f64]) -> usize {
        let mut conv = Vec::new();
        let mut pooled = Vec::new();
        let mut logits = Vec::new();
        self.forward_into(x, &mut conv, &mut pooled, &mut logits);
        vector::argmax(&logits)
    }

    fn clone_model(&self) -> Box<dyn Model> {
        Box::new(self.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::traits::finite_difference_check;
    use fedval_linalg::Matrix;

    fn image_dataset(n: usize, h: usize, w: usize, classes: usize, seed: u64) -> Dataset {
        // Class c gets a bright band at row c % h: linearly separable-ish
        // structure a convolution can pick up.
        let mut feat = Matrix::zeros(n, h * w);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = (i + seed as usize) % classes;
            let row = feat.row_mut(i);
            for j in 0..w {
                row[(c % h) * w + j] = 1.0;
                // Mild deterministic clutter.
                row[((c + 2) % h) * w + (j + i) % w] += 0.3;
            }
            labels.push(c);
        }
        Dataset::new(feat, labels, classes).unwrap()
    }

    #[test]
    fn parameter_count_matches_architecture() {
        let m = Cnn::new(CnnConfig::small(8, 8, 10), 1);
        // conv: 8 filters * 9 + 8 bias = 80. conv out 6x6, pool 3x3,
        // dense in = 8*9 = 72; dense: 10*72 + 10 = 730. total 810.
        assert_eq!(m.num_params(), 810);
        assert_eq!(m.input_dim(), 64);
    }

    /// Like [`image_dataset`] but with every pixel non-zero, keeping conv
    /// pre-activations away from the ReLU kink so finite differences are
    /// valid.
    fn dense_image_dataset(n: usize, h: usize, w: usize, classes: usize) -> Dataset {
        let mut feat = Matrix::zeros(n, h * w);
        let mut labels = Vec::with_capacity(n);
        for i in 0..n {
            let c = i % classes;
            let row = feat.row_mut(i);
            for (idx, v) in row.iter_mut().enumerate() {
                *v = 0.13 + 0.07 * ((idx * 31 + i * 17 + c * 5) % 11) as f64;
            }
            labels.push(c);
        }
        Dataset::new(feat, labels, classes).unwrap()
    }

    #[test]
    fn gradient_matches_finite_differences() {
        let mut m = Cnn::new(
            CnnConfig {
                height: 6,
                width: 6,
                filters: 2,
                num_classes: 3,
                reg: 0.0,
            },
            13,
        );
        crate::init::gaussian_fill(m.params_mut(), 0.4, 77);
        let d = dense_image_dataset(4, 6, 6, 3);
        let coords: Vec<usize> = (0..m.num_params()).step_by(2).collect();
        let err = finite_difference_check(&mut m, &d, &coords, 1e-6);
        assert!(err < 1e-5, "fd mismatch {err}");
    }

    #[test]
    fn regularized_gradient_matches_finite_differences() {
        let mut m = Cnn::new(
            CnnConfig {
                height: 6,
                width: 6,
                filters: 2,
                num_classes: 2,
                reg: 0.1,
            },
            3,
        );
        crate::init::gaussian_fill(m.params_mut(), 0.4, 78);
        let d = dense_image_dataset(3, 6, 6, 2);
        let coords: Vec<usize> = (0..m.num_params()).step_by(5).collect();
        let err = finite_difference_check(&mut m, &d, &coords, 1e-6);
        assert!(err < 1e-5, "fd mismatch {err}");
    }

    #[test]
    fn batched_paths_match_per_sample_reference_bitwise() {
        let d = image_dataset(23, 7, 8, 3, 4);
        let m = Cnn::new(
            CnnConfig {
                height: 7,
                width: 8,
                filters: 3,
                num_classes: 3,
                reg: 0.01,
            },
            17,
        );
        // Pinned to BitExact: this contract must hold regardless of the
        // FEDVAL_TIER environment the suite runs under.
        let mut ws = crate::workspace::Workspace::bit_exact();
        assert_eq!(
            m.loss_with(&d, &mut ws, &CancelToken::new())
                .unwrap()
                .to_bits(),
            m.loss_per_sample(&d).to_bits()
        );
        let mut g_batched = vec![0.0; m.num_params()];
        let mut g_ref = vec![0.0; m.num_params()];
        let lb = m.grad_with(&d, &mut g_batched, &mut ws);
        let lr = m.grad_per_sample(&d, &mut g_ref);
        assert_eq!(lb.to_bits(), lr.to_bits());
        for (a, b) in g_batched.iter().zip(&g_ref) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn fast_tier_matches_reference_within_tolerance() {
        // 300 samples spans a chunk boundary; the ragged 7×8 image
        // (conv 5×6, pool 2×3) leaves a trailing conv row unused, which
        // the Fast gather/scatter must skip exactly like the scalar pool.
        let d = image_dataset(300, 7, 8, 3, 4);
        let m = Cnn::new(
            CnnConfig {
                height: 7,
                width: 8,
                filters: 3,
                num_classes: 3,
                reg: 0.01,
            },
            17,
        );
        // Composite bound: the per-op GEMM ε (≲1e-12 at these depths and
        // magnitudes) composed through softmax/log-sum-exp stays orders
        // of magnitude below 1e-9; an actual layout or masking bug shows
        // up at ~1e-2.
        let tol = |reference: f64| 1e-9 * (1.0 + reference.abs());
        let mut ws = crate::workspace::Workspace::new().with_tier(DeterminismTier::Fast);
        let lf = m.loss_with(&d, &mut ws, &CancelToken::new()).unwrap();
        let lr = m.loss_per_sample(&d);
        assert!((lf - lr).abs() <= tol(lr), "loss {lf} vs {lr}");
        let mut g_fast = vec![0.0; m.num_params()];
        let mut g_ref = vec![0.0; m.num_params()];
        let lgf = m.grad_with(&d, &mut g_fast, &mut ws);
        let lgr = m.grad_per_sample(&d, &mut g_ref);
        assert!((lgf - lgr).abs() <= tol(lgr), "grad loss {lgf} vs {lgr}");
        for (i, (a, b)) in g_fast.iter().zip(&g_ref).enumerate() {
            assert!((a - b).abs() <= tol(*b), "param {i}: {a} vs {b}");
        }
    }

    #[test]
    fn fast_tier_is_deterministic_within_itself() {
        let d = image_dataset(64, 8, 8, 4, 1);
        let m = Cnn::new(CnnConfig::small(8, 8, 4), 9);
        let mut ws1 = crate::workspace::Workspace::new().with_tier(DeterminismTier::Fast);
        let mut ws2 = crate::workspace::Workspace::new().with_tier(DeterminismTier::Fast);
        assert_eq!(
            m.loss_with(&d, &mut ws1, &CancelToken::new())
                .unwrap()
                .to_bits(),
            m.loss_with(&d, &mut ws2, &CancelToken::new())
                .unwrap()
                .to_bits()
        );
        let mut g1 = vec![0.0; m.num_params()];
        let mut g2 = vec![0.0; m.num_params()];
        m.grad_with(&d, &mut g1, &mut ws1);
        m.grad_with(&d, &mut g2, &mut ws2);
        for (a, b) in g1.iter().zip(&g2) {
            assert_eq!(a.to_bits(), b.to_bits());
        }
    }

    #[test]
    fn training_reduces_loss_and_learns_bands() {
        let d = image_dataset(40, 8, 8, 4, 0);
        let mut m = Cnn::new(CnnConfig::small(8, 8, 4), 5);
        let mut g = vec![0.0; m.num_params()];
        let start = m.loss(&d);
        for _ in 0..200 {
            m.grad(&d, &mut g);
            vector::axpy(-0.5, &g, m.params_mut());
        }
        assert!(
            m.loss(&d) < start * 0.5,
            "loss {} vs start {start}",
            m.loss(&d)
        );
        assert!(m.accuracy(&d) > 0.8, "accuracy {}", m.accuracy(&d));
    }

    #[test]
    #[should_panic(expected = "image too small")]
    fn rejects_tiny_images() {
        let _ = Cnn::new(CnnConfig::small(3, 3, 2), 1);
    }

    #[test]
    fn same_params_same_loss() {
        let d = image_dataset(5, 6, 6, 2, 0);
        let cfg = CnnConfig {
            height: 6,
            width: 6,
            filters: 3,
            num_classes: 2,
            reg: 0.0,
        };
        let m1 = Cnn::new(cfg.clone(), 1);
        let mut m2 = Cnn::new(cfg, 2);
        m2.set_params(m1.params());
        assert_eq!(m1.loss(&d), m2.loss(&d));
    }

    #[test]
    fn loss_on_empty_dataset_is_reg_only() {
        let d = image_dataset(3, 6, 6, 2, 0).subset(&[]);
        let m = Cnn::new(
            CnnConfig {
                height: 6,
                width: 6,
                filters: 2,
                num_classes: 2,
                reg: 0.0,
            },
            1,
        );
        assert_eq!(m.loss(&d), 0.0);
    }
}
