//! Four `f64` lanes for the ridge kernels, and same-group ridge targets
//! substituted four at once.
//!
//! [`Lanes`] picks an instantiation of the lane kernels: one body,
//! generic over its four-lane type, is instantiated on AVX2 `__m256d`
//! registers and on portable `[f64; 4]` arrays. Every lane operation is
//! one correctly rounded IEEE operation (no fused multiply-add, true
//! divisions), so both instantiations give the same bits. The lane-wide
//! Gram of [`cholesky`](crate::cholesky) and the pack substitution below
//! share them.
//!
//! **Packs.** Targets whose designs are the same ordered sequence of
//! rows share the Cholesky factor of that design; only their observed
//! values differ. A pack of four such targets therefore reads one design
//! row and one factor entry per step for all four lanes, and each pivot
//! is one packed true division (`vdivpd` under AVX2) instead of four
//! serial ones. Each lane runs exactly the IEEE operations, in the same
//! order, of [`vector::axpy`](crate::vector::axpy) per entry from `+0.0`
//! and then
//! [`cholesky::ridge_solve_factored`](crate::cholesky::ridge_solve_factored):
//! multiply then add (never fused), forward then back substitution. So
//! a packed target's solution has the bits of its lone solve. A group
//! of fewer than four targets still fills a pack: its empty lanes repeat
//! one of its targets and their outputs are thrown away.
//!
//! The pack kernels are const-generic over the rank, 1–8, because a
//! lane-major substitution only beats the scalar loop with its trip
//! counts fixed at compile time; other ranks take the scalar path.
//!
//! **The fused op set.** `FusedLanes` is a second, separate op set that
//! has fused multiply-add, on AVX-512F+FMA `__m512d`, AVX2+FMA `__m256d`
//! and portable `[f64; 4]` with `f64::mul_add`. It carries glibc's
//! `exp`, ported bit for bit, the loss epilogue built on it, and the
//! one-pass logistic loss `vector::linear_cross_entropy`, whose logits
//! (one row per lane, eight rows per pack on AVX-512 and four elsewhere,
//! one accumulator per class, 1–12 classes) are summed with separate
//! multiplies and adds and never fused, so they keep the bits of
//! `gemm::gemm_nt_into` (the `fused` module). It reads its rows
//! lane-packed once per dataset (`vector::pack_rows`), so no pack
//! transposes them. A fused multiply-add rounds once in every
//! instantiation, so they too give the same bits; on a CPU without FMA
//! the portable one pays a libm `fma` call for each. The ridge kernels
//! above never use it, and stay four lanes wide: their packs are bound
//! by `vdivpd`, whose per-element throughput AVX-512 does not raise.

use crate::Matrix;

pub(crate) mod fused;

pub(crate) use fused::FusedLanes;

/// Solves one pack: `l` is the group's `R × R` factor (lower triangle
/// read), `sequence` the rows of `other` the group observes, in entry
/// order, and `values[j]` lane `j`'s observed values at those rows. Lane
/// `j`'s solution is written to `out[j·R..(j + 1)·R]`.
pub type PackSolve = fn(&[f64], &Matrix, &[usize], [&[f64]; 4], &mut [f64]);

/// Which instantiation of the lane kernels runs. Only [`Lanes::avx2`]
/// makes the AVX2 one, and only on a CPU that has AVX2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Lanes(Isa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Isa {
    Portable,
    Avx2,
}

impl Lanes {
    /// The widest instantiation this CPU runs.
    pub fn detect() -> Lanes {
        Lanes::avx2().unwrap_or(Lanes::portable())
    }

    /// The portable `[f64; 4]` instantiation.
    pub fn portable() -> Lanes {
        Lanes(Isa::Portable)
    }

    /// The AVX2 instantiation, if the CPU has AVX2.
    pub fn avx2() -> Option<Lanes> {
        (cfg!(target_arch = "x86_64") && crate::cpu::features().avx2).then_some(Lanes(Isa::Avx2))
    }

    /// Which instantiation this is. Only this module makes a `Lanes`, so
    /// [`Isa::Avx2`] comes back only on a CPU with AVX2.
    pub(crate) fn isa(self) -> Isa {
        self.0
    }

    /// The pack kernel for rank `r`, or `None` when `r` has no
    /// specialization and packs take the scalar path.
    pub fn pack_kernel(self, r: usize) -> Option<PackSolve> {
        macro_rules! by_rank {
            ($kernel:ident) => {
                match r {
                    1 => Some($kernel::<1> as PackSolve),
                    2 => Some($kernel::<2>),
                    3 => Some($kernel::<3>),
                    4 => Some($kernel::<4>),
                    5 => Some($kernel::<5>),
                    6 => Some($kernel::<6>),
                    7 => Some($kernel::<7>),
                    8 => Some($kernel::<8>),
                    _ => None,
                }
            };
        }
        match self.0 {
            Isa::Portable => by_rank!(solve_pack),
            #[cfg(target_arch = "x86_64")]
            Isa::Avx2 => by_rank!(solve_pack_avx2),
            #[cfg(not(target_arch = "x86_64"))]
            Isa::Avx2 => unreachable!("Lanes::avx2 is None off x86-64"),
        }
    }
}

/// The AVX2 instantiation of [`solve_lanes`].
#[cfg(target_arch = "x86_64")]
fn solve_pack_avx2<const R: usize>(
    l: &[f64],
    other: &Matrix,
    sequence: &[usize],
    values: [&[f64]; 4],
    out: &mut [f64],
) {
    /// # Safety
    ///
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    unsafe fn avx2<const R: usize>(
        l: &[f64],
        other: &Matrix,
        sequence: &[usize],
        values: [&[f64]; 4],
        out: &mut [f64],
    ) {
        solve_lanes::<std::arch::x86_64::__m256d, R>(l, other, sequence, values, out);
    }
    // SAFETY: only `Lanes(Isa::Avx2)` hands this kernel out, and only
    // `Lanes::avx2` makes one, after detecting AVX2 on this CPU.
    unsafe { avx2::<R>(l, other, sequence, values, out) }
}

/// The portable instantiation of [`solve_lanes`].
fn solve_pack<const R: usize>(
    l: &[f64],
    other: &Matrix,
    sequence: &[usize],
    values: [&[f64]; 4],
    out: &mut [f64],
) {
    solve_lanes::<[f64; 4], R>(l, other, sequence, values, out);
}

/// Four `f64` lanes and the correctly rounded lane-wise operations the
/// kernels use. No operation is fused.
pub(crate) trait F64x4: Copy {
    fn splat(v: f64) -> Self;
    fn from_array(v: [f64; 4]) -> Self;
    fn to_array(self) -> [f64; 4];
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
}

impl F64x4 for [f64; 4] {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        [v; 4]
    }
    #[inline(always)]
    fn from_array(v: [f64; 4]) -> Self {
        v
    }
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        self
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        std::array::from_fn(|j| self[j] + o[j])
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        std::array::from_fn(|j| self[j] - o[j])
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        std::array::from_fn(|j| self[j] * o[j])
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        std::array::from_fn(|j| self[j] / o[j])
    }
}

/// The AVX2 lanes. Kernels are instantiated on them only inside AVX2
/// functions, which run only on a CPU with AVX2 (`Lanes(Isa::Avx2)`
/// exists only there): that is what every `unsafe` block below relies
/// on.
#[cfg(target_arch = "x86_64")]
impl F64x4 for std::arch::x86_64::__m256d {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        // SAFETY: AVX2 is present (see the impl).
        unsafe { std::arch::x86_64::_mm256_set1_pd(v) }
    }
    #[inline(always)]
    fn from_array(v: [f64; 4]) -> Self {
        // SAFETY: AVX2 is present (see the impl); `v` holds four f64s.
        unsafe { std::arch::x86_64::_mm256_loadu_pd(v.as_ptr()) }
    }
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        let mut v = [0.0; 4];
        // SAFETY: AVX2 is present (see the impl); `v` holds four f64s.
        unsafe { std::arch::x86_64::_mm256_storeu_pd(v.as_mut_ptr(), self) };
        v
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: AVX2 is present (see the impl).
        unsafe { std::arch::x86_64::_mm256_add_pd(self, o) }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: AVX2 is present (see the impl).
        unsafe { std::arch::x86_64::_mm256_sub_pd(self, o) }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: AVX2 is present (see the impl).
        unsafe { std::arch::x86_64::_mm256_mul_pd(self, o) }
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        // SAFETY: AVX2 is present (see the impl).
        unsafe { std::arch::x86_64::_mm256_div_pd(self, o) }
    }
}

/// See [`PackSolve`]. `x[p]` holds entry `p` of the four lanes.
#[inline(always)]
fn solve_lanes<V: F64x4, const R: usize>(
    l: &[f64],
    other: &Matrix,
    sequence: &[usize],
    values: [&[f64]; 4],
    out: &mut [f64],
) {
    assert!(l.len() == R * R && out.len() == 4 * R);
    assert!(values.iter().all(|lane| lane.len() == sequence.len()));
    // Right-hand sides: from +0.0, one multiply and one add per entry,
    // in entry order.
    let mut x = [V::splat(0.0); R];
    for (k, &o) in sequence.iter().enumerate() {
        let row: &[f64; R] = other.row(o).try_into().expect("factor rows are R wide");
        let v = V::from_array(values.map(|lane| lane[k]));
        for p in 0..R {
            x[p] = x[p].add(v.mul(V::splat(row[p])));
        }
    }
    // Forward substitution `L y = b`.
    for i in 0..R {
        let mut s = x[i];
        for k in 0..i {
            s = s.sub(V::splat(l[i * R + k]).mul(x[k]));
        }
        x[i] = s.div(V::splat(l[i * R + i]));
    }
    // Back substitution `Lᵀ x = y`.
    for i in (0..R).rev() {
        let mut s = x[i];
        for k in i + 1..R {
            s = s.sub(V::splat(l[k * R + i]).mul(x[k]));
        }
        x[i] = s.div(V::splat(l[i * R + i]));
    }
    let x = x.map(V::to_array);
    for (j, lane) in out.chunks_exact_mut(R).enumerate() {
        for p in 0..R {
            lane[p] = x[p][j];
        }
    }
}
