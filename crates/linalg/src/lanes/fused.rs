//! The fused op set: glibc's `exp`, one value per `f64` lane, and the
//! loss epilogue built on it.
//!
//! **The algorithm.** This module's `exp` is glibc's table-driven `exp`
//! (Szabolcs Nagy's design from Arm optimized-routines, in glibc since
//! 2.28 as `sysdeps/ieee754/dbl-64/e_exp.c`), as GCC builds it for
//! x86-64 hosts with fused multiply-add (`__exp_fma`). It writes
//! `exp(x) = 2^(k/128) · exp(r)` with `k` the integer nearest
//! `x · 128/ln 2`, reads `2^(k/128)` from a 128-entry table and
//! approximates `exp(r)` by a degree-5 polynomial. GCC contracts four
//! spots into fused multiply-adds, and so does this port:
//! `fma(InvLn2N, x, Shift)`, `fma(kd, lo, fma(kd, hi, x))`, the
//! polynomial's nested `fma`s and `fma(scale, tmp, scale)`. Inputs off
//! the main path take glibc's branches lane by lane: `|x| < 2⁻⁵⁴`
//! returns `1 + x`; `|x| ≥ 512`, ±∞ and NaN take glibc's overflow,
//! underflow and `specialcase` code, whose `k > 0` half is fused and
//! whose `k < 0` half is not (see `exp_outside`).
//!
//! **Bits.** Each step is one correctly rounded IEEE operation, and a
//! fused multiply-add rounds once whether the CPU fuses it (`vfmadd`)
//! or `f64::mul_add` computes it in software. So the AVX-512F+FMA
//! `__m512d`, the AVX2+FMA `__m256d`, the portable `[f64; 4]` and the
//! scalar `f64` instantiation give the same bits on every host; a host
//! without FMA is only slower. On glibc x86-64 hosts with FMA they also
//! equal libm's `exp`, which dispatches to `__exp_fma` there.
//! [`FusedLanes::detect`] picks the eight-lane instantiation where
//! AVX-512F and FMA are detected, then the AVX2 one, then the portable
//! one. Only the linear cross-entropy runs eight lanes; under AVX-512
//! the row-major epilogue runs the AVX2 four.
//!
//! **The table** is generated from its definition, not copied: word
//! `2k + 1` holds the bits of `T_k`, the double nearest `2^(k/128)`,
//! minus `k << 45`; word `2k` holds the double nearest
//! `2^(k/128) / T_k − 1`. A test regenerates all 256 words with exact
//! integer arithmetic.
//!
//! **The epilogue.** [`FusedLanes::cross_entropy_rows`] and
//! [`FusedLanes::softmax_rows`] run one row per lane, four rows per
//! pack; a last pack of 1–3 rows repeats its last row in the spare lanes
//! and drops their results. Each lane runs its row's scalar order from
//! [`vector`](crate::vector): the max from −∞, the differences, `exp`,
//! the in-order sum, then `ln` (libm, one row at a time) and the label's
//! logit. So a row's results have the bits of
//! [`vector::log_sum_exp`](crate::vector::log_sum_exp) and
//! [`vector::softmax_into`](crate::vector::softmax_into) on it.
//!
//! **The linear cross-entropy.** [`FusedLanes::linear_cross_entropy`]
//! is a logistic model's whole loss in one pass: the logits
//! `x · Wᵀ + bias`, then the epilogue above, without writing the logits
//! out. It reads `x` lane-packed
//! ([`vector::pack_rows`](crate::vector::pack_rows)): blocks of
//! [`PACK_ROWS`] = 8 rows, each block k-major, a partial last block
//! repeating its last row, so the `L` lanes of a pack load one vector
//! per `k`. The AVX-512 instantiation runs eight rows per pack, a whole
//! block; the four-lane ones read half a block. Each pack keeps one
//! accumulator per class, one row per lane. Each accumulator starts at
//! `+0.0` and adds `x · w` with `k` ascending, a separately rounded
//! multiply then an add, as
//! [`gemm::gemm_nt_into`](crate::gemm::gemm_nt_into) does; then it adds
//! the bias, as [`gemm::add_bias_rows`](crate::gemm::add_bias_rows)
//! does, and the epilogue runs on the accumulators. So each row's loss
//! has the bits of those three steps, and the spare lanes of a last
//! pack are dropped. The kernel is const-generic over the class count,
//! 1–[`LINEAR_MAX_CLASSES`], so the accumulators stay in registers.

use crate::cpu;
use crate::vector::{packed_len, LINEAR_MAX_CLASSES, PACK_ROWS};

/// Which instantiation of the fused op set runs. Only
/// [`FusedLanes::avx2_fma`] and [`FusedLanes::avx512_fma`] make the x86-64
/// ones, and only on a CPU that has their features.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct FusedLanes(FusedIsa);

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum FusedIsa {
    Portable,
    Avx2Fma,
    Avx512Fma,
}

impl FusedLanes {
    /// The widest instantiation this CPU runs.
    pub(crate) fn detect() -> FusedLanes {
        FusedLanes::avx512_fma()
            .or_else(FusedLanes::avx2_fma)
            .unwrap_or(FusedLanes::portable())
    }

    /// The portable instantiation: `[f64; 4]` lanes and `f64::mul_add`.
    pub(crate) fn portable() -> FusedLanes {
        FusedLanes(FusedIsa::Portable)
    }

    /// The AVX2+FMA instantiation, if the CPU has both.
    pub(crate) fn avx2_fma() -> Option<FusedLanes> {
        let f = cpu::features();
        (cfg!(target_arch = "x86_64") && f.avx2 && f.fma).then_some(FusedLanes(FusedIsa::Avx2Fma))
    }

    /// The AVX-512F+FMA instantiation, if the CPU has both. Its row-major
    /// ops run the AVX2 lanes: AVX-512F implies AVX2 (rustc enables AVX2
    /// with `avx512f`).
    pub(crate) fn avx512_fma() -> Option<FusedLanes> {
        let f = cpu::features();
        (cfg!(target_arch = "x86_64") && f.avx512f && f.fma)
            .then_some(FusedLanes(FusedIsa::Avx512Fma))
    }

    /// The [`KernelIsa`](cpu::KernelIsa) this instantiation reports.
    pub(crate) fn kernel_isa(self) -> cpu::KernelIsa {
        match self.0 {
            FusedIsa::Portable => cpu::KernelIsa::Scalar,
            FusedIsa::Avx2Fma => cpu::KernelIsa::Avx2Fma,
            FusedIsa::Avx512Fma => cpu::KernelIsa::Avx512Fma,
        }
    }

    /// glibc's `exp(x)`, the scalar one-lane form.
    pub(crate) fn exp(self, x: f64) -> f64 {
        match self.0 {
            FusedIsa::Portable => exp_lanes(x),
            #[cfg(target_arch = "x86_64")]
            FusedIsa::Avx2Fma | FusedIsa::Avx512Fma => {
                /// # Safety
                ///
                /// The CPU must support FMA.
                #[target_feature(enable = "fma")]
                unsafe fn fma(x: f64) -> f64 {
                    exp_lanes(x)
                }
                // SAFETY: both x86-64 instantiations are made only after
                // detecting FMA.
                unsafe { fma(x) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only the portable instantiation exists off x86-64"),
        }
    }

    /// `total` plus, row by row in order, `log_sum_exp(row) − row[y]`:
    /// the summed cross-entropy of row-major `logits` (`labels.len()`
    /// rows of `classes`) against `labels`. Bit-identical to that loop
    /// over [`vector::log_sum_exp`](crate::vector::log_sum_exp).
    pub(crate) fn cross_entropy_rows(
        self,
        logits: &[f64],
        classes: usize,
        labels: &[usize],
        total: f64,
    ) -> f64 {
        match self.0 {
            FusedIsa::Portable => cross_entropy_rows_in::<[f64; 4]>(logits, classes, labels, total),
            #[cfg(target_arch = "x86_64")]
            FusedIsa::Avx2Fma | FusedIsa::Avx512Fma => {
                /// # Safety
                ///
                /// The CPU must support AVX2 and FMA.
                #[target_feature(enable = "avx2,fma")]
                unsafe fn avx2_fma(
                    logits: &[f64],
                    classes: usize,
                    labels: &[usize],
                    total: f64,
                ) -> f64 {
                    cross_entropy_rows_in::<std::arch::x86_64::__m256d>(
                        logits, classes, labels, total,
                    )
                }
                // SAFETY: both x86-64 instantiations are made only after
                // detecting FMA and AVX2 or AVX-512F (see `avx512_fma`).
                unsafe { avx2_fma(logits, classes, labels, total) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only the portable instantiation exists off x86-64"),
        }
    }

    /// `total` plus, row by row in order, the cross-entropy of the row's
    /// logits `x_r · Wᵀ + bias` against its label: `packed` is the
    /// `labels.len()` rows of `k` lane-packed
    /// ([`vector::pack_rows`](crate::vector::pack_rows)), `w` is
    /// `bias.len()` rows of `k`, row-major. Bit-identical to
    /// [`gemm::gemm_nt_into`](crate::gemm::gemm_nt_into),
    /// [`gemm::add_bias_rows`](crate::gemm::add_bias_rows) and
    /// [`Self::cross_entropy_rows`] on the unpacked rows (see the module
    /// docs).
    ///
    /// # Panics
    ///
    /// Unless `1 ≤ bias.len() ≤ LINEAR_MAX_CLASSES` and the lengths fit
    /// those shapes.
    pub(crate) fn linear_cross_entropy(
        self,
        packed: &[f64],
        w: &[f64],
        bias: &[f64],
        labels: &[usize],
        total: f64,
    ) -> f64 {
        macro_rules! by_classes {
            ($kernel:ident) => {
                match bias.len() {
                    1 => $kernel::<1>(packed, w, bias, labels, total),
                    2 => $kernel::<2>(packed, w, bias, labels, total),
                    3 => $kernel::<3>(packed, w, bias, labels, total),
                    4 => $kernel::<4>(packed, w, bias, labels, total),
                    5 => $kernel::<5>(packed, w, bias, labels, total),
                    6 => $kernel::<6>(packed, w, bias, labels, total),
                    7 => $kernel::<7>(packed, w, bias, labels, total),
                    8 => $kernel::<8>(packed, w, bias, labels, total),
                    9 => $kernel::<9>(packed, w, bias, labels, total),
                    10 => $kernel::<10>(packed, w, bias, labels, total),
                    11 => $kernel::<11>(packed, w, bias, labels, total),
                    12 => $kernel::<12>(packed, w, bias, labels, total),
                    c => panic!(
                        "linear_cross_entropy serves 1..={LINEAR_MAX_CLASSES} classes, not {c}"
                    ),
                }
            };
        }
        match self.0 {
            FusedIsa::Portable => by_classes!(linear_cross_entropy_portable),
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only `FusedLanes::avx2_fma` makes this
            // instantiation, after detecting AVX2 and FMA.
            FusedIsa::Avx2Fma => unsafe { by_classes!(linear_cross_entropy_avx2_fma) },
            #[cfg(target_arch = "x86_64")]
            // SAFETY: only `FusedLanes::avx512_fma` makes this
            // instantiation, after detecting AVX-512F and FMA.
            FusedIsa::Avx512Fma => unsafe { by_classes!(linear_cross_entropy_avx512_fma) },
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only the portable instantiation exists off x86-64"),
        }
    }

    /// The softmax of each row of row-major `logits` (rows of
    /// `classes`), written to the same place in `out`. Bit-identical to
    /// [`vector::softmax_into`](crate::vector::softmax_into) row by row.
    pub(crate) fn softmax_rows(self, logits: &[f64], classes: usize, out: &mut [f64]) {
        match self.0 {
            FusedIsa::Portable => softmax_rows_in::<[f64; 4]>(logits, classes, out),
            #[cfg(target_arch = "x86_64")]
            FusedIsa::Avx2Fma | FusedIsa::Avx512Fma => {
                /// # Safety
                ///
                /// The CPU must support AVX2 and FMA.
                #[target_feature(enable = "avx2,fma")]
                unsafe fn avx2_fma(logits: &[f64], classes: usize, out: &mut [f64]) {
                    softmax_rows_in::<std::arch::x86_64::__m256d>(logits, classes, out);
                }
                // SAFETY: as in `cross_entropy_rows`.
                unsafe { avx2_fma(logits, classes, out) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!("only the portable instantiation exists off x86-64"),
        }
    }
}

/// `N / ln 2` for the table size `N = 128` (glibc's `InvLn2N`,
/// `0x1.71547652b82fep7`).
const INV_LN2_N: f64 = f64::from_bits(0x4067_1547_652b_82fe);
/// `1.5 · 2⁵²`: adding it rounds `x · N/ln 2` to the integer `k` and
/// leaves `k` in the low mantissa bits.
const SHIFT: f64 = f64::from_bits(0x4338_0000_0000_0000);
/// `−ln 2 / N`, split so `k · hi` is exact (glibc's `NegLn2hiN`,
/// `NegLn2loN`).
const NEG_LN2_HI_N: f64 = f64::from_bits(0xbf76_2e42_fefa_0000);
const NEG_LN2_LO_N: f64 = f64::from_bits(0xbd0c_f79a_bc9e_3b3a);
/// The polynomial `exp(r) − 1 ≈ r + C2·r² + C3·r³ + C4·r⁴ + C5·r⁵` on
/// `|r| ≤ ln 2 / 256`.
const C2: f64 = f64::from_bits(0x3fdf_ffff_ffff_fdbd);
const C3: f64 = f64::from_bits(0x3fc5_5555_5555_543c);
const C4: f64 = f64::from_bits(0x3fa5_5555_cf17_2b91);
const C5: f64 = f64::from_bits(0x3f81_1111_67a4_d017);
/// Below this magnitude glibc returns `1 + x`.
const TINY: f64 = f64::from_bits(0x3c90_0000_0000_0000); // 2⁻⁵⁴
/// From this magnitude on glibc leaves the main path.
const LARGE: f64 = 512.0;

/// The `2^(k/128)` table, two words per `k`, one `k` per line (see the
/// module docs).
#[rustfmt::skip]
pub(crate) static EXP_TABLE: [u64; 256] = [
    0x0000000000000000, 0x3ff0000000000000,
    0x3c9b3b4f1a88bf6e, 0x3feff63da9fb3335,
    0xbc7160139cd8dc5d, 0x3fefec9a3e778061,
    0xbc905e7a108766d1, 0x3fefe315e86e7f85,
    0x3c8cd2523567f613, 0x3fefd9b0d3158574,
    0xbc8bce8023f98efa, 0x3fefd06b29ddf6de,
    0x3c60f74e61e6c861, 0x3fefc74518759bc8,
    0x3c90a3e45b33d399, 0x3fefbe3ecac6f383,
    0x3c979aa65d837b6d, 0x3fefb5586cf9890f,
    0x3c8eb51a92fdeffc, 0x3fefac922b7247f7,
    0x3c3ebe3d702f9cd1, 0x3fefa3ec32d3d1a2,
    0xbc6a033489906e0b, 0x3fef9b66affed31b,
    0xbc9556522a2fbd0e, 0x3fef9301d0125b51,
    0xbc5080ef8c4eea55, 0x3fef8abdc06c31cc,
    0xbc91c923b9d5f416, 0x3fef829aaea92de0,
    0x3c80d3e3e95c55af, 0x3fef7a98c8a58e51,
    0xbc801b15eaa59348, 0x3fef72b83c7d517b,
    0xbc8f1ff055de323d, 0x3fef6af9388c8dea,
    0x3c8b898c3f1353bf, 0x3fef635beb6fcb75,
    0xbc96d99c7611eb26, 0x3fef5be084045cd4,
    0x3c9aecf73e3a2f60, 0x3fef54873168b9aa,
    0xbc8fe782cb86389d, 0x3fef4d5022fcd91d,
    0x3c8a6f4144a6c38d, 0x3fef463b88628cd6,
    0x3c807a05b0e4047d, 0x3fef3f49917ddc96,
    0x3c968efde3a8a894, 0x3fef387a6e756238,
    0x3c875e18f274487d, 0x3fef31ce4fb2a63f,
    0x3c80472b981fe7f2, 0x3fef2b4565e27cdd,
    0xbc96b87b3f71085e, 0x3fef24dfe1f56381,
    0x3c82f7e16d09ab31, 0x3fef1e9df51fdee1,
    0xbc3d219b1a6fbffa, 0x3fef187fd0dad990,
    0x3c8b3782720c0ab4, 0x3fef1285a6e4030b,
    0x3c6e149289cecb8f, 0x3fef0cafa93e2f56,
    0x3c834d754db0abb6, 0x3fef06fe0a31b715,
    0x3c864201e2ac744c, 0x3fef0170fc4cd831,
    0x3c8fdd395dd3f84a, 0x3feefc08b26416ff,
    0xbc86a3803b8e5b04, 0x3feef6c55f929ff1,
    0xbc924aedcc4b5068, 0x3feef1a7373aa9cb,
    0xbc9907f81b512d8e, 0x3feeecae6d05d866,
    0xbc71d1e83e9436d2, 0x3feee7db34e59ff7,
    0xbc991919b3ce1b15, 0x3feee32dc313a8e5,
    0x3c859f48a72a4c6d, 0x3feedea64c123422,
    0xbc9312607a28698a, 0x3feeda4504ac801c,
    0xbc58a78f4817895b, 0x3feed60a21f72e2a,
    0xbc7c2c9b67499a1b, 0x3feed1f5d950a897,
    0x3c4363ed60c2ac11, 0x3feece086061892d,
    0x3c9666093b0664ef, 0x3feeca41ed1d0057,
    0x3c6ecce1daa10379, 0x3feec6a2b5c13cd0,
    0x3c93ff8e3f0f1230, 0x3feec32af0d7d3de,
    0x3c7690cebb7aafb0, 0x3feebfdad5362a27,
    0x3c931dbdeb54e077, 0x3feebcb299fddd0d,
    0xbc8f94340071a38e, 0x3feeb9b2769d2ca7,
    0xbc87deccdc93a349, 0x3feeb6daa2cf6642,
    0xbc78dec6bd0f385f, 0x3feeb42b569d4f82,
    0xbc861246ec7b5cf6, 0x3feeb1a4ca5d920f,
    0x3c93350518fdd78e, 0x3feeaf4736b527da,
    0x3c7b98b72f8a9b05, 0x3feead12d497c7fd,
    0x3c9063e1e21c5409, 0x3feeab07dd485429,
    0x3c34c7855019c6ea, 0x3feea9268a5946b7,
    0x3c9432e62b64c035, 0x3feea76f15ad2148,
    0xbc8ce44a6199769f, 0x3feea5e1b976dc09,
    0xbc8c33c53bef4da8, 0x3feea47eb03a5585,
    0xbc845378892be9ae, 0x3feea34634ccc320,
    0xbc93cedd78565858, 0x3feea23882552225,
    0x3c5710aa807e1964, 0x3feea155d44ca973,
    0xbc93b3efbf5e2228, 0x3feea09e667f3bcd,
    0xbc6a12ad8734b982, 0x3feea012750bdabf,
    0xbc6367efb86da9ee, 0x3fee9fb23c651a2f,
    0xbc80dc3d54e08851, 0x3fee9f7df9519484,
    0xbc781f647e5a3ecf, 0x3fee9f75e8ec5f74,
    0xbc86ee4ac08b7db0, 0x3fee9f9a48a58174,
    0xbc8619321e55e68a, 0x3fee9feb564267c9,
    0x3c909ccb5e09d4d3, 0x3feea0694fde5d3f,
    0xbc7b32dcb94da51d, 0x3feea11473eb0187,
    0x3c94ecfd5467c06b, 0x3feea1ed0130c132,
    0x3c65ebe1abd66c55, 0x3feea2f336cf4e62,
    0xbc88a1c52fb3cf42, 0x3feea427543e1a12,
    0xbc9369b6f13b3734, 0x3feea589994cce13,
    0xbc805e843a19ff1e, 0x3feea71a4623c7ad,
    0xbc94d450d872576e, 0x3feea8d99b4492ed,
    0x3c90ad675b0e8a00, 0x3feeaac7d98a6699,
    0x3c8db72fc1f0eab4, 0x3feeace5422aa0db,
    0xbc65b6609cc5e7ff, 0x3feeaf3216b5448c,
    0x3c7bf68359f35f44, 0x3feeb1ae99157736,
    0xbc93091fa71e3d83, 0x3feeb45b0b91ffc6,
    0xbc5da9b88b6c1e29, 0x3feeb737b0cdc5e5,
    0xbc6c23f97c90b959, 0x3feeba44cbc8520f,
    0xbc92434322f4f9aa, 0x3feebd829fde4e50,
    0xbc85ca6cd7668e4b, 0x3feec0f170ca07ba,
    0x3c71affc2b91ce27, 0x3feec49182a3f090,
    0x3c6dd235e10a73bb, 0x3feec86319e32323,
    0xbc87c50422622263, 0x3feecc667b5de565,
    0x3c8b1c86e3e231d5, 0x3feed09bec4a2d33,
    0xbc91bbd1d3bcbb15, 0x3feed503b23e255d,
    0x3c90cc319cee31d2, 0x3feed99e1330b358,
    0x3c8469846e735ab3, 0x3feede6b5579fdbf,
    0xbc82dfcd978e9db4, 0x3feee36bbfd3f37a,
    0x3c8c1a7792cb3387, 0x3feee89f995ad3ad,
    0xbc907b8f4ad1d9fa, 0x3feeee07298db666,
    0xbc55c3d956dcaeba, 0x3feef3a2b84f15fb,
    0xbc90a40e3da6f640, 0x3feef9728de5593a,
    0xbc68d6f438ad9334, 0x3feeff76f2fb5e47,
    0xbc91eee26b588a35, 0x3fef05b030a1064a,
    0x3c74ffd70a5fddcd, 0x3fef0c1e904bc1d2,
    0xbc91bdfbfa9298ac, 0x3fef12c25bd71e09,
    0x3c736eae30af0cb3, 0x3fef199bdd85529c,
    0x3c8ee3325c9ffd94, 0x3fef20ab5fffd07a,
    0x3c84e08fd10959ac, 0x3fef27f12e57d14b,
    0x3c63cdaf384e1a67, 0x3fef2f6d9406e7b5,
    0x3c676b2c6c921968, 0x3fef3720dcef9069,
    0xbc808a1883ccb5d2, 0x3fef3f0b555dc3fa,
    0xbc8fad5d3ffffa6f, 0x3fef472d4a07897c,
    0xbc900dae3875a949, 0x3fef4f87080d89f2,
    0x3c74a385a63d07a7, 0x3fef5818dcfba487,
    0xbc82919e2040220f, 0x3fef60e316c98398,
    0x3c8e5a50d5c192ac, 0x3fef69e603db3285,
    0x3c843a59ac016b4b, 0x3fef7321f301b460,
    0xbc82d52107b43e1f, 0x3fef7c97337b9b5f,
    0xbc892ab93b470dc9, 0x3fef864614f5a129,
    0x3c74b604603a88d3, 0x3fef902ee78b3ff6,
    0x3c83c5ec519d7271, 0x3fef9a51fbc74c83,
    0xbc8ff7128fd391f0, 0x3fefa4afa2a490da,
    0xbc8dae98e223747d, 0x3fefaf482d8e67f1,
    0x3c8ec3bc41aa2008, 0x3fefba1bee615a27,
    0x3c842b94c3a9eb32, 0x3fefc52b376bba97,
    0x3c8a64a931d185ee, 0x3fefd0765b6e4540,
    0xbc8e37bae43be3ed, 0x3fefdbfdad9cbe14,
    0x3c77893b4d91cd9d, 0x3fefe7c1819e90d8,
    0x3c5305c14160cc89, 0x3feff3c22b8f71f1,
];

/// One, four or eight `f64` lanes and the operations glibc's `exp` and
/// the epilogue use: correctly rounded IEEE operations, one fused
/// multiply-add, and the table and branch steps of `exp`.
pub(crate) trait Fused: Copy {
    fn splat(v: f64) -> Self;
    fn add(self, o: Self) -> Self;
    fn sub(self, o: Self) -> Self;
    fn mul(self, o: Self) -> Self;
    fn div(self, o: Self) -> Self;
    /// `self · a + b`, rounded once.
    fn mul_add(self, a: Self, b: Self) -> Self;
    /// Per lane, `x` if `x > self`, else `self`: `self.max(x)` for an
    /// accumulator that is never NaN, so a NaN `x` is skipped as
    /// `f64::max` skips it. Of two zeros it keeps `self`, where
    /// `f64::max` may return either; nothing downstream of a row's max
    /// sees the sign of a zero max (`x − ±0` only differs for `x = ±0`,
    /// whose `exp` is 1 either way).
    fn max_acc(self, x: Self) -> Self;
    /// glibc's table step. `self` is `kd = InvLn2N · x + Shift`, whose
    /// low bits hold `k`; returns the tail word `2(k mod 128)` and
    /// `scale`, the double whose bits are word `2(k mod 128) + 1` plus
    /// `k << 45` (wrapping, as glibc's unsigned arithmetic does).
    fn exp_table(self) -> (Self, Self);
    /// Per lane, `y` (the main path's result) where `x = self` is on the
    /// main path, and glibc's result from its branches elsewhere.
    fn exp_branches(self, y: Self) -> Self;
}

/// [`Fused`] lanes that come `L` to a pack.
pub(crate) trait FusedPack<const L: usize>: Fused {
    fn from_array(v: [f64; L]) -> Self;
    fn to_array(self) -> [f64; L];
}

impl Fused for f64 {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        v
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        self + o
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        self - o
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        self * o
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        self / o
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        f64::mul_add(self, a, b)
    }
    #[inline(always)]
    fn max_acc(self, x: Self) -> Self {
        if x > self {
            x
        } else {
            self
        }
    }
    #[inline(always)]
    fn exp_table(self) -> (Self, Self) {
        let ki = self.to_bits();
        let idx = 2 * (ki % 128) as usize;
        (
            f64::from_bits(EXP_TABLE[idx]),
            f64::from_bits(EXP_TABLE[idx + 1].wrapping_add(ki << 45)),
        )
    }
    #[inline(always)]
    fn exp_branches(self, y: Self) -> Self {
        let ax = self.abs();
        if ax < TINY {
            1.0 + self
        } else if ax < LARGE {
            y
        } else {
            exp_outside(self)
        }
    }
}

impl Fused for [f64; 4] {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        [v; 4]
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
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        std::array::from_fn(|j| f64::mul_add(self[j], a[j], b[j]))
    }
    #[inline(always)]
    fn max_acc(self, x: Self) -> Self {
        std::array::from_fn(|j| self[j].max_acc(x[j]))
    }
    #[inline(always)]
    fn exp_table(self) -> (Self, Self) {
        let t = self.map(Fused::exp_table);
        (t.map(|(tail, _)| tail), t.map(|(_, scale)| scale))
    }
    #[inline(always)]
    fn exp_branches(self, y: Self) -> Self {
        std::array::from_fn(|j| self[j].exp_branches(y[j]))
    }
}

impl FusedPack<4> for [f64; 4] {
    #[inline(always)]
    fn from_array(v: [f64; 4]) -> Self {
        v
    }
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        self
    }
}

/// The AVX2+FMA lanes. Kernels are instantiated on them only inside
/// AVX2+FMA functions, which run only on a CPU with both
/// (`FusedLanes(FusedIsa::Avx2Fma)` exists only there): that is what
/// every `unsafe` block below relies on.
#[cfg(target_arch = "x86_64")]
impl Fused for std::arch::x86_64::__m256d {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        // SAFETY: AVX2 is present (see the impl).
        unsafe { std::arch::x86_64::_mm256_set1_pd(v) }
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
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: FMA is present (see the impl).
        unsafe { std::arch::x86_64::_mm256_fmadd_pd(self, a, b) }
    }
    #[inline(always)]
    fn max_acc(self, x: Self) -> Self {
        // `maxpd` returns its second operand when the first is NaN or
        // both are zeros, and the larger value otherwise.
        // SAFETY: AVX2 is present (see the impl).
        unsafe { std::arch::x86_64::_mm256_max_pd(x, self) }
    }
    #[inline(always)]
    fn exp_table(self) -> (Self, Self) {
        use std::arch::x86_64::*;
        // SAFETY: AVX2 is present (see the impl). Each gathered index is
        // `2(k mod 128)` or one more, so at most 255, inside the table.
        unsafe {
            let ki = _mm256_castpd_si256(self);
            let idx = _mm256_slli_epi64::<1>(_mm256_and_si256(ki, _mm256_set1_epi64x(127)));
            let words = EXP_TABLE.as_ptr().cast::<i64>();
            let tail = _mm256_i64gather_pd::<8>(words.cast::<f64>(), idx);
            let top = _mm256_i64gather_epi64::<8>(words.add(1), idx);
            let scale = _mm256_add_epi64(top, _mm256_slli_epi64::<45>(ki));
            (tail, _mm256_castsi256_pd(scale))
        }
    }
    #[inline(always)]
    fn exp_branches(self, y: Self) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: AVX2 is present (see the impl).
        let (y, on_path) = unsafe {
            let ax = _mm256_andnot_pd(_mm256_set1_pd(-0.0), self);
            let tiny = _mm256_cmp_pd::<_CMP_LT_OQ>(ax, _mm256_set1_pd(TINY));
            let y = _mm256_blendv_pd(y, _mm256_add_pd(_mm256_set1_pd(1.0), self), tiny);
            // False for NaN, so NaN lanes leave the main path too.
            let below = _mm256_cmp_pd::<_CMP_LT_OQ>(ax, _mm256_set1_pd(LARGE));
            (y, _mm256_movemask_pd(below) == 0b1111)
        };
        if on_path {
            return y;
        }
        let (x, y) = (self.to_array(), y.to_array());
        Self::from_array(std::array::from_fn(|j| {
            if x[j].abs() < LARGE {
                y[j]
            } else {
                exp_outside(x[j])
            }
        }))
    }
}

#[cfg(target_arch = "x86_64")]
impl FusedPack<4> for std::arch::x86_64::__m256d {
    #[inline(always)]
    fn from_array(v: [f64; 4]) -> Self {
        // SAFETY: AVX2 is present (see the `Fused` impl); `v` holds four
        // f64s.
        unsafe { std::arch::x86_64::_mm256_loadu_pd(v.as_ptr()) }
    }
    #[inline(always)]
    fn to_array(self) -> [f64; 4] {
        let mut v = [0.0; 4];
        // SAFETY: AVX2 is present (see the `Fused` impl); `v` holds four
        // f64s.
        unsafe { std::arch::x86_64::_mm256_storeu_pd(v.as_mut_ptr(), self) };
        v
    }
}

/// The AVX-512F+FMA lanes. Kernels are instantiated on them only inside
/// AVX-512F+FMA functions, which run only on a CPU with both
/// (`FusedLanes(FusedIsa::Avx512Fma)` exists only there): that is what
/// every `unsafe` block below relies on.
#[cfg(target_arch = "x86_64")]
impl Fused for std::arch::x86_64::__m512d {
    #[inline(always)]
    fn splat(v: f64) -> Self {
        // SAFETY: AVX-512F is present (see the impl).
        unsafe { std::arch::x86_64::_mm512_set1_pd(v) }
    }
    #[inline(always)]
    fn add(self, o: Self) -> Self {
        // SAFETY: AVX-512F is present (see the impl).
        unsafe { std::arch::x86_64::_mm512_add_pd(self, o) }
    }
    #[inline(always)]
    fn sub(self, o: Self) -> Self {
        // SAFETY: AVX-512F is present (see the impl).
        unsafe { std::arch::x86_64::_mm512_sub_pd(self, o) }
    }
    #[inline(always)]
    fn mul(self, o: Self) -> Self {
        // SAFETY: AVX-512F is present (see the impl).
        unsafe { std::arch::x86_64::_mm512_mul_pd(self, o) }
    }
    #[inline(always)]
    fn div(self, o: Self) -> Self {
        // SAFETY: AVX-512F is present (see the impl).
        unsafe { std::arch::x86_64::_mm512_div_pd(self, o) }
    }
    #[inline(always)]
    fn mul_add(self, a: Self, b: Self) -> Self {
        // SAFETY: AVX-512F is present (see the impl).
        unsafe { std::arch::x86_64::_mm512_fmadd_pd(self, a, b) }
    }
    #[inline(always)]
    fn max_acc(self, x: Self) -> Self {
        // `vmaxpd` returns its second operand when the first is NaN or
        // both are zeros, and the larger value otherwise.
        // SAFETY: AVX-512F is present (see the impl).
        unsafe { std::arch::x86_64::_mm512_max_pd(x, self) }
    }
    #[inline(always)]
    fn exp_table(self) -> (Self, Self) {
        use std::arch::x86_64::*;
        // SAFETY: AVX-512F is present (see the impl). Each gathered
        // index is `2(k mod 128)` or one more, so at most 255, inside
        // the table.
        unsafe {
            let ki = _mm512_castpd_si512(self);
            let idx = _mm512_slli_epi64::<1>(_mm512_and_si512(ki, _mm512_set1_epi64(127)));
            let words = EXP_TABLE.as_ptr().cast::<i64>();
            let tail = _mm512_i64gather_pd::<8>(idx, words.cast::<f64>());
            let top = _mm512_i64gather_epi64::<8>(idx, words.add(1));
            let scale = _mm512_add_epi64(top, _mm512_slli_epi64::<45>(ki));
            (tail, _mm512_castsi512_pd(scale))
        }
    }
    #[inline(always)]
    fn exp_branches(self, y: Self) -> Self {
        use std::arch::x86_64::*;
        // SAFETY: AVX-512F is present (see the impl).
        let (y, below) = unsafe {
            let ax = _mm512_abs_pd(self);
            let tiny = _mm512_cmp_pd_mask::<_CMP_LT_OQ>(ax, _mm512_set1_pd(TINY));
            let y = _mm512_mask_blend_pd(tiny, y, _mm512_add_pd(_mm512_set1_pd(1.0), self));
            // Clear for NaN, so NaN lanes leave the main path too.
            (
                y,
                _mm512_cmp_pd_mask::<_CMP_LT_OQ>(ax, _mm512_set1_pd(LARGE)),
            )
        };
        if below == 0xff {
            return y;
        }
        let (x, y) = (self.to_array(), y.to_array());
        Self::from_array(std::array::from_fn(|j| {
            if below >> j & 1 == 1 {
                y[j]
            } else {
                exp_outside(x[j])
            }
        }))
    }
}

#[cfg(target_arch = "x86_64")]
impl FusedPack<8> for std::arch::x86_64::__m512d {
    #[inline(always)]
    fn from_array(v: [f64; 8]) -> Self {
        // SAFETY: AVX-512F is present (see the `Fused` impl); `v` holds
        // eight f64s.
        unsafe { std::arch::x86_64::_mm512_loadu_pd(v.as_ptr()) }
    }
    #[inline(always)]
    fn to_array(self) -> [f64; 8] {
        let mut v = [0.0; 8];
        // SAFETY: AVX-512F is present (see the `Fused` impl); `v` holds
        // eight f64s.
        unsafe { std::arch::x86_64::_mm512_storeu_pd(v.as_mut_ptr(), self) };
        v
    }
}

/// glibc's main path up to its last step: `(tmp, scale)` with
/// `exp(x) ≈ scale + scale · tmp`.
#[inline(always)]
fn exp_core<V: Fused>(x: V) -> (V, V) {
    let kd = V::splat(INV_LN2_N).mul_add(x, V::splat(SHIFT));
    let (tail, scale) = kd.exp_table();
    let kd = kd.sub(V::splat(SHIFT));
    // r = x − k·ln2/N, in [−ln2/256, ln2/256].
    let r = kd.mul_add(
        V::splat(NEG_LN2_LO_N),
        kd.mul_add(V::splat(NEG_LN2_HI_N), x),
    );
    let r2 = r.mul(r);
    let tmp = r2.mul(r2).mul_add(
        r.mul_add(V::splat(C5), V::splat(C4)),
        r2.mul_add(r.mul_add(V::splat(C3), V::splat(C2)), tail.add(r)),
    );
    (tmp, scale)
}

/// glibc's `exp` on every lane of `x`.
#[inline(always)]
pub(crate) fn exp_lanes<V: Fused>(x: V) -> V {
    let (tmp, scale) = exp_core(x);
    x.exp_branches(scale.mul_add(tmp, scale))
}

/// glibc's `exp` for `|x| ≥ 512`, ±∞ and NaN.
#[cold]
#[inline(never)]
fn exp_outside(x: f64) -> f64 {
    let abstop = (x.to_bits() >> 52) & 0x7ff;
    if abstop >= 0x409 {
        // |x| ≥ 1024, ±∞ or NaN.
        return if x == f64::NEG_INFINITY {
            0.0
        } else if abstop == 0x7ff {
            1.0 + x
        } else if x.is_sign_negative() {
            0.0 // underflow
        } else {
            f64::INFINITY // overflow
        };
    }
    // 512 ≤ |x| < 1024: the main path, whose scale may leave the
    // exponent range, then glibc's `specialcase`. Here `k` has the sign
    // of `x`.
    let (tmp, scale) = exp_core(x);
    let sbits = scale.to_bits();
    if x > 0.0 {
        let scale = f64::from_bits(sbits.wrapping_sub(1009 << 52));
        return f64::from_bits(0x7f00_0000_0000_0000) * scale.mul_add(tmp, scale);
        // 2¹⁰⁰⁹ ·
    }
    // k < 0: round to the subnormal precision once, not twice. GCC
    // fuses nothing here: `scale · tmp` also feeds `lo` in the inner
    // block, and it forms an FMA only when every use of the product
    // sits in one block.
    let scale = f64::from_bits(sbits.wrapping_add(1022 << 52));
    let st = scale * tmp;
    let mut y = scale + st;
    if y < 1.0 {
        let lo = scale - y + st;
        let hi = 1.0 + y;
        let lo = 1.0 - hi + y + lo;
        y = (hi + lo) - 1.0;
        if y == 0.0 {
            y = 0.0; // never −0
        }
    }
    f64::MIN_POSITIVE * y // 2⁻¹⁰²² ·
}

/// The rows `first..first + n` (`n` of 1–4) of row-major `logits`, the
/// last repeated to fill four lanes.
#[inline(always)]
fn pack(logits: &[f64], classes: usize, first: usize, n: usize) -> [&[f64]; 4] {
    std::array::from_fn(|j| {
        let r = first + j.min(n - 1);
        &logits[r * classes..(r + 1) * classes]
    })
}

/// Lane `j` holds `rows[j][k]`.
#[inline(always)]
fn column<V: FusedPack<4>>(rows: &[&[f64]; 4], k: usize) -> V {
    V::from_array(rows.map(|row| row[k]))
}

/// Per lane, the max of `column(0..classes)`, folded from −∞ as the
/// scalar path folds it.
#[inline(always)]
fn row_max<V: Fused>(classes: usize, column: impl Fn(usize) -> V) -> V {
    (0..classes).fold(V::splat(f64::NEG_INFINITY), |m, k| m.max_acc(column(k)))
}

/// See [`FusedLanes::cross_entropy_rows`].
#[inline(always)]
fn cross_entropy_rows_in<V: FusedPack<4>>(
    logits: &[f64],
    classes: usize,
    labels: &[usize],
    mut total: f64,
) -> f64 {
    assert_eq!(
        logits.len(),
        labels.len() * classes,
        "logits are rows × classes"
    );
    for (p, ys) in labels.chunks(4).enumerate() {
        let rows = pack(logits, classes, 4 * p, ys.len());
        let lse = log_sum_exp_lanes(classes, |k| column::<V>(&rows, k));
        for (j, &y) in ys.iter().enumerate() {
            total += lse[j] - rows[j][y];
        }
    }
    total
}

/// Per lane, [`vector::log_sum_exp`](crate::vector::log_sum_exp) of the
/// lane's row `column(0..classes)`, its `is_infinite` early return
/// included.
#[inline(always)]
fn log_sum_exp_lanes<V: FusedPack<L>, const L: usize>(
    classes: usize,
    column: impl Fn(usize) -> V,
) -> [f64; L] {
    let m = row_max(classes, &column);
    let sum = (0..classes).fold(V::splat(-0.0), |s, k| s.add(exp_lanes(column(k).sub(m))));
    let (m, sum) = (m.to_array(), sum.to_array());
    std::array::from_fn(|j| {
        if m[j].is_infinite() {
            m[j]
        } else {
            m[j] + sum[j].ln()
        }
    })
}

/// See [`FusedLanes::softmax_rows`].
#[inline(always)]
fn softmax_rows_in<V: FusedPack<4>>(logits: &[f64], classes: usize, out: &mut [f64]) {
    assert_eq!(logits.len(), out.len(), "one output per logit");
    if classes == 0 {
        assert!(logits.is_empty(), "logits are rows × classes");
        return;
    }
    assert_eq!(logits.len() % classes, 0, "logits are rows × classes");
    for (p, out) in out.chunks_mut(4 * classes).enumerate() {
        let n = out.len() / classes;
        let rows = pack(logits, classes, 4 * p, n);
        let m = row_max(classes, |k| column::<V>(&rows, k));
        let mut sum = V::splat(0.0);
        for k in 0..classes {
            let e = exp_lanes(column::<V>(&rows, k).sub(m));
            sum = sum.add(e);
            for (j, e) in e.to_array().into_iter().take(n).enumerate() {
                out[j * classes + k] = e;
            }
        }
        let inv = V::splat(1.0).div(sum).to_array();
        for (row, inv) in out.chunks_exact_mut(classes).zip(inv) {
            for o in row {
                *o *= inv;
            }
        }
    }
}

/// The portable instantiation of [`linear_cross_entropy_in`]: four lanes,
/// half a block per pack.
fn linear_cross_entropy_portable<const C: usize>(
    packed: &[f64],
    w: &[f64],
    bias: &[f64],
    labels: &[usize],
    total: f64,
) -> f64 {
    linear_cross_entropy_in::<[f64; 4], 4, C>(packed, w, bias, labels, total)
}

/// The AVX2+FMA instantiation of [`linear_cross_entropy_in`]: four lanes,
/// half a block per pack.
///
/// # Safety
///
/// The CPU must support AVX2 and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
unsafe fn linear_cross_entropy_avx2_fma<const C: usize>(
    packed: &[f64],
    w: &[f64],
    bias: &[f64],
    labels: &[usize],
    total: f64,
) -> f64 {
    linear_cross_entropy_in::<std::arch::x86_64::__m256d, 4, C>(packed, w, bias, labels, total)
}

/// The AVX-512F+FMA instantiation of [`linear_cross_entropy_in`]: eight
/// lanes, a whole block per pack.
///
/// # Safety
///
/// The CPU must support AVX-512F and FMA.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f,fma")]
unsafe fn linear_cross_entropy_avx512_fma<const C: usize>(
    packed: &[f64],
    w: &[f64],
    bias: &[f64],
    labels: &[usize],
    total: f64,
) -> f64 {
    linear_cross_entropy_in::<std::arch::x86_64::__m512d, 8, C>(packed, w, bias, labels, total)
}

/// See [`FusedLanes::linear_cross_entropy`]. A pack of `L` rows reads
/// lanes `(p·L) mod PACK_ROWS ..` of its block.
#[inline(always)]
fn linear_cross_entropy_in<V: FusedPack<L>, const L: usize, const C: usize>(
    packed: &[f64],
    w: &[f64],
    bias: &[f64],
    labels: &[usize],
    mut total: f64,
) -> f64 {
    const { assert!(PACK_ROWS.is_multiple_of(L)) };
    let bias: &[f64; C] = bias.try_into().expect("one bias per class");
    let k = w.len() / C;
    assert_eq!(w.len(), C * k, "w is classes × k");
    assert_eq!(
        packed.len(),
        packed_len(labels.len(), k),
        "packed is the rows' blocks of k"
    );
    let w: [&[f64]; C] = std::array::from_fn(|c| &w[c * k..(c + 1) * k]);
    for (p, ys) in labels.chunks(L).enumerate() {
        let (block, lane) = ((p * L) / PACK_ROWS, (p * L) % PACK_ROWS);
        let block = &packed[block * PACK_ROWS * k..(block + 1) * PACK_ROWS * k];
        let dots = dot_lanes::<V, L, C>(block, lane, &w);
        let logits: [V; C] = std::array::from_fn(|c| dots[c].add(V::splat(bias[c])));
        let lse = log_sum_exp_lanes(C, |c| logits[c]);
        for (j, &y) in ys.iter().enumerate() {
            total += lse[j] - logits[y].to_array()[j];
        }
    }
    total
}

/// Per class `c` and lane `j`, the dot of the block's row `lane + j`
/// with `w[c]`: from `+0.0`, `+ x · w` with `k` ascending, each product
/// rounded on its own.
#[inline(always)]
fn dot_lanes<V: FusedPack<L>, const L: usize, const C: usize>(
    block: &[f64],
    lane: usize,
    w: &[&[f64]; C],
) -> [V; C] {
    let mut acc = [V::splat(0.0); C];
    for (kk, column) in block.chunks_exact(PACK_ROWS).enumerate() {
        let x = V::from_array(column[lane..lane + L].try_into().expect("L lanes"));
        for (a, wc) in acc.iter_mut().zip(w) {
            *a = a.add(x.mul(V::splat(wc[kk])));
        }
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vector;

    /// Every instantiation of the fused op set this CPU runs.
    fn instantiations() -> Vec<FusedLanes> {
        [
            Some(FusedLanes::portable()),
            FusedLanes::avx2_fma(),
            FusedLanes::avx512_fma(),
        ]
        .into_iter()
        .flatten()
        .collect()
    }

    /// The widest lanes of `lanes` on every element of `x`, `L` at a time.
    fn exp_slice(lanes: FusedLanes, x: &[f64]) -> Vec<f64> {
        fn run<V: FusedPack<L>, const L: usize>(x: &[f64], out: &mut Vec<f64>) {
            for c in x.chunks(L) {
                let pad: [f64; L] = std::array::from_fn(|j| c[j.min(c.len() - 1)]);
                out.extend_from_slice(&exp_lanes(V::from_array(pad)).to_array()[..c.len()]);
            }
        }
        let mut out = Vec::with_capacity(x.len());
        match lanes.0 {
            FusedIsa::Portable => run::<[f64; 4], 4>(x, &mut out),
            #[cfg(target_arch = "x86_64")]
            FusedIsa::Avx2Fma => {
                #[target_feature(enable = "avx2,fma")]
                unsafe fn avx2_fma(x: &[f64], out: &mut Vec<f64>) {
                    run::<std::arch::x86_64::__m256d, 4>(x, out);
                }
                // SAFETY: `lanes` came from `FusedLanes::avx2_fma`.
                unsafe { avx2_fma(x, &mut out) }
            }
            #[cfg(target_arch = "x86_64")]
            FusedIsa::Avx512Fma => {
                #[target_feature(enable = "avx512f,fma")]
                unsafe fn avx512_fma(x: &[f64], out: &mut Vec<f64>) {
                    run::<std::arch::x86_64::__m512d, 8>(x, out);
                }
                // SAFETY: `lanes` came from `FusedLanes::avx512_fma`.
                unsafe { avx512_fma(x, &mut out) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!(),
        }
        out
    }

    /// [`log_sum_exp_lanes`] of the widest lanes of `lanes` on four rows
    /// (eight lanes hold them twice).
    fn log_sum_exp_pack_of(lanes: FusedLanes, rows: [&[f64]; 4]) -> [f64; 4] {
        fn run<V: FusedPack<L>, const L: usize>(rows: &[&[f64]; 4]) -> [f64; 4] {
            let lse = log_sum_exp_lanes(rows[0].len(), |k| {
                V::from_array(std::array::from_fn(|j| rows[j % 4][k]))
            });
            for j in 4..L {
                assert_eq!(lse[j].to_bits(), lse[j % 4].to_bits(), "lane {j}");
            }
            std::array::from_fn(|j| lse[j])
        }
        match lanes.0 {
            FusedIsa::Portable => run::<[f64; 4], 4>(&rows),
            #[cfg(target_arch = "x86_64")]
            FusedIsa::Avx2Fma => {
                #[target_feature(enable = "avx2,fma")]
                unsafe fn avx2_fma(rows: &[&[f64]; 4]) -> [f64; 4] {
                    run::<std::arch::x86_64::__m256d, 4>(rows)
                }
                // SAFETY: `lanes` came from `FusedLanes::avx2_fma`.
                unsafe { avx2_fma(&rows) }
            }
            #[cfg(target_arch = "x86_64")]
            FusedIsa::Avx512Fma => {
                #[target_feature(enable = "avx512f,fma")]
                unsafe fn avx512_fma(rows: &[&[f64]; 4]) -> [f64; 4] {
                    run::<std::arch::x86_64::__m512d, 8>(rows)
                }
                // SAFETY: `lanes` came from `FusedLanes::avx512_fma`.
                unsafe { avx512_fma(&rows) }
            }
            #[cfg(not(target_arch = "x86_64"))]
            _ => unreachable!(),
        }
    }

    /// A xorshift64* stream, so the inputs are fixed.
    struct Stream(u64);

    impl Stream {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        /// Uniform in `[lo, hi)`.
        fn uniform(&mut self, lo: f64, hi: f64) -> f64 {
            lo + (hi - lo) * ((self.next() >> 11) as f64 * 2f64.powi(-53))
        }
    }

    /// Inputs that reach every branch of glibc's `exp`, and the values the
    /// issue of a loss epilogue cares about.
    const EDGES: [f64; 24] = [
        0.0,
        -0.0,
        1.0,
        -1.0,
        -745.13,
        -745.133_219_101_941_2,
        -745.133_219_101_941_3,
        -708.4,
        -740.0,
        709.78,
        709.782_712_893_384,
        709.782_712_893_385,
        512.0,
        -512.0,
        1024.0,
        -1024.0,
        5e-324,
        -5e-324,
        f64::from_bits(0x3c90_0000_0000_0000), // 2⁻⁵⁴
        f64::from_bits(0x3c8f_ffff_ffff_ffff),
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::NAN,
        -f64::NAN,
    ];

    /// `EDGES`, then `per_range` inputs from each range, then as many
    /// uniformly random bit patterns.
    fn exp_inputs(per_range: usize) -> Vec<f64> {
        let ranges: [(f64, f64); 8] = [
            (-40.0, 0.0),
            (-745.2, 709.8),
            (-1e-3, 1e-3),
            (-1.0, 1.0),
            (-700.0, -500.0),
            (-760.0, -700.0), // subnormal results and underflow
            (-1100.0, -512.0),
            (512.0, 1100.0),
        ];
        let mut s = Stream(0x9e37_79b9_7f4a_7c15);
        let mut x = EDGES.to_vec();
        for (lo, hi) in ranges {
            x.extend((0..per_range).map(|_| s.uniform(lo, hi)));
        }
        // Tiny magnitudes on both sides of 2⁻⁵⁴, then raw bit patterns
        // (every exponent, NaNs and infinities included).
        x.extend((0..per_range).map(|_| {
            let e = s.uniform(-70.0, -40.0);
            let sign = if s.next() & 1 == 0 { 1.0 } else { -1.0 };
            sign * e.exp2()
        }));
        x.extend((0..per_range).map(|_| f64::from_bits(s.next())));
        x
    }

    fn assert_bits(what: &str, x: &[f64], got: &[f64], want: &[f64]) {
        assert_eq!(got.len(), want.len());
        let bad: Vec<(f64, f64, f64)> = (0..x.len())
            .filter(|&i| got[i].to_bits() != want[i].to_bits())
            .map(|i| (x[i], got[i], want[i]))
            .take(5)
            .collect();
        assert!(bad.is_empty(), "{what}: (x, got, want) {bad:?}");
    }

    #[test]
    fn exp_is_glibcs_bit_for_bit_on_ten_million_inputs() {
        let x = exp_inputs(1_000_000);
        assert!(x.len() >= 10_000_000);
        // Where `f64::exp` is glibc's `__exp_fma` (glibc ≥ 2.28 on an
        // x86-64 CPU with FMA), the port must equal it. Elsewhere libm is
        // another function, and the scalar port is the reference.
        let libm_is_exp_fma =
            cfg!(all(target_arch = "x86_64", target_env = "gnu")) && cpu::features().fma;
        let want: Vec<f64> = if libm_is_exp_fma {
            x.iter().map(|v| v.exp()).collect()
        } else {
            x.iter().map(|&v| exp_lanes(v)).collect()
        };
        for lanes in instantiations() {
            let scalar: Vec<f64> = x.iter().map(|&v| lanes.exp(v)).collect();
            assert_bits(&format!("{lanes:?} scalar"), &x, &scalar, &want);
            assert_bits(
                &format!("{lanes:?} lanes"),
                &x,
                &exp_slice(lanes, &x),
                &want,
            );
        }
    }

    #[test]
    fn exp_edges_take_glibcs_branches() {
        for lanes in instantiations() {
            let e = |x: f64| lanes.exp(x);
            assert_eq!(e(0.0).to_bits(), 1f64.to_bits());
            assert_eq!(e(-0.0).to_bits(), 1f64.to_bits());
            assert_eq!(e(f64::NEG_INFINITY).to_bits(), 0);
            assert_eq!(e(f64::INFINITY), f64::INFINITY);
            assert!(e(f64::NAN).is_nan());
            assert_eq!(e(709.79), f64::INFINITY);
            assert_eq!(e(-745.14).to_bits(), 0);
            assert_eq!(e(-745.13).to_bits(), 1, "the least subnormal");
            let sub = e(-720.0);
            assert!(sub > 0.0 && sub < f64::MIN_POSITIVE, "{sub:e}");
            assert!(e(709.78).is_finite());
            assert_eq!(e(2f64.powi(-60)), 1.0);
        }
    }

    /// Little-endian base-2⁶⁴ naturals: just enough arithmetic to compare
    /// 128th powers exactly.
    mod big {
        pub fn mul(a: &[u64], b: &[u64]) -> Vec<u64> {
            let mut out = vec![0u64; a.len() + b.len()];
            for (i, &x) in a.iter().enumerate() {
                let mut carry = 0u128;
                for (j, &y) in b.iter().enumerate() {
                    let t = x as u128 * y as u128 + out[i + j] as u128 + carry;
                    out[i + j] = t as u64;
                    carry = t >> 64;
                }
                out[i + b.len()] = carry as u64;
            }
            while out.last() == Some(&0) {
                out.pop();
            }
            out
        }

        pub fn pow128(a: &[u64]) -> Vec<u64> {
            (0..7).fold(a.to_vec(), |p, _| mul(&p, &p))
        }

        pub fn bit_len(a: &[u64]) -> u64 {
            a.last().map_or(0, |&top| {
                64 * a.len() as u64 - u64::from(top.leading_zeros())
            })
        }

        /// Whether `2^e < a`.
        pub fn pow2_below(e: u64, a: &[u64]) -> bool {
            let n = bit_len(a);
            let power_of_two = a.iter().map(|w| w.count_ones()).sum::<u32>() == 1;
            n > e + 1 || (n == e + 1 && !power_of_two)
        }

        /// `a − b` for `a ≥ b`.
        pub fn sub(a: &[u64], b: &[u64]) -> Vec<u64> {
            let mut out = a.to_vec();
            let mut borrow = false;
            for (i, o) in out.iter_mut().enumerate() {
                let (d, b1) = o.overflowing_sub(b.get(i).copied().unwrap_or(0));
                let (d, b2) = d.overflowing_sub(u64::from(borrow));
                *o = d;
                borrow = b1 || b2;
            }
            assert!(!borrow);
            while out.last() == Some(&0) {
                out.pop();
            }
            out
        }

        pub fn pow2(e: u64) -> Vec<u64> {
            let mut out = vec![0; e as usize / 64 + 1];
            out[e as usize / 64] = 1 << (e % 64);
            out
        }

        /// `a` as `(m, e)` with `a ≈ m · 2^e`, `m` its top 64 bits.
        pub fn approx(a: &[u64]) -> (f64, i32) {
            let n = bit_len(a);
            let shift = n.saturating_sub(64);
            let (w, r) = ((shift / 64) as usize, shift % 64);
            let lo = a[w] >> r;
            let hi = if r == 0 {
                0
            } else {
                a.get(w + 1).map_or(0, |&h| h << (64 - r))
            };
            ((lo | hi) as f64, shift as i32)
        }
    }

    /// A finite double as `n · 2^e`.
    fn dyadic(v: f64) -> (i128, i32) {
        let bits = v.to_bits();
        let exp = ((bits >> 52) & 0x7ff) as i32;
        let frac = (bits & ((1 << 52) - 1)) as i128;
        let (m, e) = if exp == 0 {
            (frac, -1074)
        } else {
            (frac | 1 << 52, exp - 1075)
        };
        (if v < 0.0 { -m } else { m }, e)
    }

    /// The midpoint of two finite doubles as `n · 2^e`.
    fn midpoint(a: f64, b: f64) -> (i128, i32) {
        let ((na, ea), (nb, eb)) = (dyadic(a), dyadic(b));
        let e = ea.min(eb);
        ((na << (ea - e)) + (nb << (eb - e)), e - 1)
    }

    /// Whether `2^(k/128) / m − 1 < n · 2^e` for `m` in `[2⁵², 2⁵³)`,
    /// decided on 128th powers: with `B = 2^−e + n`, it holds iff
    /// `2^(52·128 + k − 128e) < (m·B)^128`.
    fn tail_below(k: u64, m: u64, (n, e): (i128, i32)) -> bool {
        assert!(e < 0 && e > -120);
        let b = (1i128 << -e) + n;
        assert!(b > 0);
        let b = b as u128;
        let base = big::mul(&[m], &[b as u64, (b >> 64) as u64]);
        big::pow2_below(6656 + k + 128 * (-e) as u64, &big::pow128(&base))
    }

    #[test]
    fn table_regenerates_from_its_definition() {
        for k in 0..128u64 {
            // T_k = m / 2⁵², m the integer nearest 2^(52 + k/128): the
            // one with (2m − 1)^128 < 2^(128·53 + k) < (2m + 1)^128.
            let target = 6784 + k;
            let mut m = (2f64.powf(52.0 + k as f64 / 128.0)).round() as u64;
            for _ in 0..8 {
                if !big::pow2_below(target, &big::pow128(&[2 * m + 1])) {
                    m += 1;
                } else if big::pow2_below(target, &big::pow128(&[2 * m - 1])) {
                    m -= 1;
                } else {
                    break;
                }
            }
            assert!(big::pow2_below(target, &big::pow128(&[2 * m + 1])), "k={k}");
            assert!(
                !big::pow2_below(target, &big::pow128(&[2 * m - 1])),
                "k={k}"
            );
            let t_k = m as f64 * 2f64.powi(-52);

            // The tail t = 2^(k/128)/T_k − 1. Its seed comes from
            // δ = 2^(6656 + k)/m^128 − 1 = (1 + t)^128 − 1, so
            // t ≈ δ/128 − 127δ²/32768; the exact test below then walks
            // the seed to the double whose rounding interval holds t.
            let tail = if k == 0 {
                0.0
            } else {
                let power = big::pow128(&[m]);
                let two = big::pow2(6656 + k);
                let (d, sign) = if big::pow2_below(6656 + k, &power) {
                    (big::sub(&power, &two), -1.0)
                } else {
                    (big::sub(&two, &power), 1.0)
                };
                let ((dm, de), (pm, pe)) = (big::approx(&d), big::approx(&power));
                let delta = sign * dm / pm * 2f64.powi(de - pe);
                let mut t = delta / 128.0 - 127.0 * delta * delta / 32768.0;
                let step = |v: f64, up: bool| {
                    let b = v.to_bits();
                    f64::from_bits(if (v > 0.0) == up { b + 1 } else { b - 1 })
                };
                for _ in 0..16 {
                    let (below, above) = (step(t, false), step(t, true));
                    if !tail_below(k, m, midpoint(t, above)) {
                        t = above;
                    } else if tail_below(k, m, midpoint(below, t)) {
                        t = below;
                    } else {
                        break;
                    }
                }
                assert!(tail_below(k, m, midpoint(t, step(t, true))), "k={k}");
                assert!(!tail_below(k, m, midpoint(step(t, false), t)), "k={k}");
                t
            };
            let idx = 2 * k as usize;
            assert_eq!(EXP_TABLE[idx], tail.to_bits(), "tail word of k={k}");
            assert_eq!(
                EXP_TABLE[idx + 1],
                t_k.to_bits() - (k << 45),
                "scale word of k={k}"
            );
        }
    }

    /// Row-major logits of `rows × classes` with every special value the
    /// epilogue must carry: ±0, NaN, +∞, all-−∞ rows, and rows whose
    /// spread sends `exp` into the subnormals and to zero.
    fn special_logits(rows: usize, classes: usize, s: &mut Stream) -> Vec<f64> {
        let mut logits = Vec::with_capacity(rows * classes);
        for r in 0..rows {
            for k in 0..classes {
                let v = match (r % 9, k % 4) {
                    (1, 0) => 0.0,
                    (1, _) => -0.0,
                    (2, 1) => f64::NAN,
                    (3, 2) => f64::INFINITY,
                    (4, _) => f64::NEG_INFINITY,
                    (5, 0) => 3.0,
                    (5, 1) => 3.0 - 720.0, // subnormal exp
                    (5, 2) => 3.0 - 745.0, // subnormal near the bottom
                    (5, 3) => 3.0 - 800.0, // exp underflows to 0
                    (6, 3) => -0.0,
                    _ => s.uniform(-6.0, 6.0),
                };
                logits.push(v);
            }
        }
        logits
    }

    fn row_counts() -> impl Iterator<Item = usize> {
        (0..=9).chain([160])
    }

    #[test]
    fn cross_entropy_rows_equal_the_scalar_path_bitwise() {
        let mut s = Stream(7);
        for classes in [1, 2, 10, 11] {
            for rows in row_counts() {
                let logits = special_logits(rows, classes, &mut s);
                // Labels point at finite and special logits alike.
                let labels: Vec<usize> = (0..rows).map(|r| (r * 5 + 1) % classes).collect();
                for start in [0.0, 1.5] {
                    let mut want = start;
                    for (row, &y) in logits.chunks(classes).zip(&labels) {
                        want += vector::log_sum_exp(row) - row[y];
                    }
                    for lanes in instantiations() {
                        let got = lanes.cross_entropy_rows(&logits, classes, &labels, start);
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "{lanes:?}, {rows} rows × {classes}: {got} vs {want}"
                        );
                    }
                }
                // Finite rows alone, so a lane fault cannot hide in a NaN sum.
                for (r, (row, &y)) in logits.chunks(classes).zip(&labels).enumerate() {
                    let want = vector::log_sum_exp(row) - row[y];
                    for lanes in instantiations() {
                        let got = lanes.cross_entropy_rows(row, classes, &[y], 0.0);
                        assert_eq!(got.to_bits(), want.to_bits(), "{lanes:?}, row {r}");
                    }
                }
            }
        }
    }

    #[test]
    fn softmax_rows_equal_the_scalar_path_bitwise() {
        let mut s = Stream(11);
        for classes in [1, 2, 10, 11] {
            for rows in row_counts() {
                let logits = special_logits(rows, classes, &mut s);
                let mut want = vec![0.0; logits.len()];
                for (row, out) in logits.chunks(classes).zip(want.chunks_mut(classes)) {
                    vector::softmax_into(row, out);
                }
                for lanes in instantiations() {
                    let mut got = vec![f64::NAN; logits.len()];
                    lanes.softmax_rows(&logits, classes, &mut got);
                    assert_bits(
                        &format!("{lanes:?}, {rows} × {classes}"),
                        &logits,
                        &got,
                        &want,
                    );
                }
            }
        }
    }

    #[test]
    fn log_sum_exp_pack_keeps_the_infinite_max_return() {
        let neg = [f64::NEG_INFINITY; 3];
        let pos = [1.0, f64::INFINITY, f64::NAN];
        let nan = [f64::NAN; 3];
        let zeros = [-0.0, 0.0, -0.0];
        assert_eq!(vector::log_sum_exp(&neg), f64::NEG_INFINITY);
        for lanes in instantiations() {
            let got = log_sum_exp_pack_of(lanes, [&neg, &pos, &nan, &zeros]);
            assert_eq!(got[0], f64::NEG_INFINITY, "{lanes:?}: all −∞");
            assert_eq!(got[1], f64::INFINITY, "{lanes:?}: a +∞ entry");
            // f64::max skips NaN, so an all-NaN row's max is −∞ too.
            assert_eq!(got[2], f64::NEG_INFINITY, "{lanes:?}: all NaN");
            assert_eq!(got[3].to_bits(), vector::log_sum_exp(&zeros).to_bits());
        }
    }

    /// Equal bits, except that any NaN equals any NaN: Rust leaves the
    /// sign and payload of a NaN result unspecified.
    fn same_bits(x: f64, y: f64) -> bool {
        x.to_bits() == y.to_bits() || (x.is_nan() && y.is_nan())
    }

    /// The three steps [`FusedLanes::linear_cross_entropy`] replaces.
    fn three_steps(x: &[f64], w: &[f64], bias: &[f64], labels: &[usize], total: f64) -> f64 {
        let (rows, classes) = (labels.len(), bias.len());
        let k = w.len() / classes;
        let mut logits = vec![f64::NAN; rows * classes];
        crate::gemm::gemm_nt_into(
            x,
            w,
            &mut logits,
            rows,
            k,
            classes,
            &mut crate::gemm::Scratch::new(),
        );
        crate::gemm::add_bias_rows(&mut logits, classes, bias);
        vector::cross_entropy_rows(&logits, classes, labels, total)
    }

    /// `len` uniform values in `[-scale, scale)`; where `special` is
    /// non-empty, about one in seven is replaced by one of its values.
    fn operand(len: usize, scale: f64, special: &[f64], s: &mut Stream) -> Vec<f64> {
        (0..len)
            .map(|_| {
                let v = s.uniform(-scale, scale);
                if !special.is_empty() && s.next().is_multiple_of(7) {
                    special[(s.next() % special.len() as u64) as usize]
                } else {
                    v
                }
            })
            .collect()
    }

    #[test]
    fn linear_cross_entropy_equals_the_three_steps_bitwise() {
        let mut s = Stream(23);
        let nonfinite = [0.0, -0.0, f64::NAN, f64::INFINITY, f64::NEG_INFINITY];
        // Every fill of a last 8-row block, and of a last 4-row half.
        let counts: Vec<usize> = (0..=17).chain([160, 255, 256, 257]).collect();
        for classes in 1..=vector::LINEAR_MAX_CLASSES {
            for k in [1, 2, 3, 4, 5, 24, 60, 61] {
                for &rows in &counts {
                    let labels: Vec<usize> = (0..rows).map(|r| (r * 5 + 1) % classes).collect();
                    // Plain operands; signed zeros with biases whose
                    // logits reach |z| ≥ 512 (glibc's `exp` off its main
                    // path, subnormal and zero results), all finite; then
                    // NaN and ±∞ among the operands.
                    let big = [-1000.0, -600.0, 0.0, -0.0, 520.0, 900.0];
                    let cases = [
                        (
                            operand(rows * k, 2.0, &[], &mut s),
                            operand(classes * k, 1.0, &[], &mut s),
                            operand(classes, 1.0, &[], &mut s),
                        ),
                        (
                            operand(rows * k, 2.0, &[0.0, -0.0], &mut s),
                            operand(classes * k, 1.0, &[0.0, -0.0], &mut s),
                            operand(classes, 1.0, &big, &mut s),
                        ),
                        (
                            operand(rows * k, 2.0, &nonfinite, &mut s),
                            operand(classes * k, 1.0, &nonfinite, &mut s),
                            operand(classes, 1.0, &[f64::NAN, f64::INFINITY, -0.0], &mut s),
                        ),
                    ];
                    for (case, (x, w, bias)) in cases.iter().enumerate() {
                        let what = format!("case {case}, {rows} × {k} × {classes}");
                        let want = three_steps(x, w, bias, &labels, 1.5);
                        assert!(case == 2 || want.is_finite(), "{what} stays finite");
                        let packed = vector::pack_rows(x, k);
                        // Row by row too, so a NaN row hides no other.
                        let row = |r: usize| &x[r * k..(r + 1) * k];
                        let want_rows: Vec<(Vec<f64>, f64)> = (0..rows.min(9))
                            .map(|r| {
                                let want = three_steps(row(r), w, bias, &labels[r..=r], 0.0);
                                (vector::pack_rows(row(r), k), want)
                            })
                            .collect();
                        for lanes in instantiations() {
                            let got = lanes.linear_cross_entropy(&packed, w, bias, &labels, 1.5);
                            assert!(
                                same_bits(got, want),
                                "{lanes:?}, {what}: {got:e} vs {want:e}"
                            );
                            for (r, (packed, want)) in want_rows.iter().enumerate() {
                                let got = lanes.linear_cross_entropy(
                                    packed,
                                    w,
                                    bias,
                                    &labels[r..=r],
                                    0.0,
                                );
                                assert!(
                                    same_bits(got, *want),
                                    "{lanes:?}, {what}, row {r}: {got:e} vs {want:e}"
                                );
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "1..=12 classes")]
    fn linear_cross_entropy_rejects_thirteen_classes() {
        FusedLanes::portable().linear_cross_entropy(&[1.0], &[0.5; 13], &[0.0; 13], &[0], 0.0);
    }
}
