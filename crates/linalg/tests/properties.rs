//! Property-based tests for the dense linear-algebra kernels.

use fedval_linalg::{
    cholesky::ridge_solve, eps_rank_upper_bound, CholeskyFactor, DeterminismTier, Matrix, Svd,
};
use proptest::prelude::*;

/// Strategy: a matrix with entries in [-5, 5].
fn matrix(rows: usize, cols: usize) -> impl Strategy<Value = Matrix> {
    proptest::collection::vec(-5.0..5.0f64, rows * cols)
        .prop_map(move |data| Matrix::from_vec(rows, cols, data).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn transpose_is_involution(m in matrix(4, 7)) {
        prop_assert_eq!(m.transpose().transpose(), m);
    }

    #[test]
    fn matmul_associates_with_vectors(
        a in matrix(3, 4),
        x in proptest::collection::vec(-3.0..3.0f64, 4),
    ) {
        // (Aᵀ)ᵀ x == A x and matvec_transpose(Aᵀ, x) paths agree.
        let direct = a.matvec(&x).unwrap();
        let via_transpose = a.transpose().matvec_transpose(&x).unwrap();
        for (u, v) in direct.iter().zip(&via_transpose) {
            prop_assert!((u - v).abs() < 1e-9);
        }
    }

    #[test]
    fn frobenius_triangle_inequality(a in matrix(4, 4), b in matrix(4, 4)) {
        let sum = a.add(&b).unwrap();
        prop_assert!(sum.frobenius_norm() <= a.frobenius_norm() + b.frobenius_norm() + 1e-9);
    }

    #[test]
    fn blocked_gemm_nn_bit_identical_to_naive_reference(
        // Random shapes, including ragged panel edges: dims straddle the
        // kernel's minimum panel width (8) and stay odd-sized.
        m in 1usize..40,
        k in 1usize..40,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mk_data = |s: u64, len: usize| -> Vec<f64> {
            (0..len).map(|i| (((i as u64 * 2654435761 + s * 40503) % 997) as f64 / 499.0) - 1.0).collect()
        };
        let a = mk_data(seed, m * k);
        let b = mk_data(seed + 1, k * n);
        let mut blocked = vec![0.0; m * n];
        let mut naive = vec![7.0; m * n];
        fedval_linalg::gemm::gemm_nn_into(&a, &b, &mut blocked, m, k, n);
        fedval_linalg::gemm::reference::gemm_nn(&a, &b, &mut naive, m, k, n);
        for (x, y) in blocked.iter().zip(&naive) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
        // And Matrix::matmul takes the same blocked path.
        let am = Matrix::from_vec(m, k, a).unwrap();
        let bm = Matrix::from_vec(k, n, b).unwrap();
        let via_matrix = am.matmul(&bm).unwrap();
        for (x, y) in via_matrix.as_slice().iter().zip(&naive) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn blocked_gemm_nt_bit_identical_to_naive_reference(
        m in 1usize..30,
        k in 1usize..60,
        n in 1usize..30,
        seed in 0u64..1000,
    ) {
        let mk_data = |s: u64, len: usize| -> Vec<f64> {
            (0..len).map(|i| (((i as u64 * 1099087573 + s * 97) % 883) as f64 / 441.0) - 1.0).collect()
        };
        let a = mk_data(seed, m * k);
        let b = mk_data(seed + 2, n * k);
        let mut blocked = vec![0.0; m * n];
        let mut naive = vec![3.0; m * n];
        let mut scratch = fedval_linalg::gemm::Scratch::new();
        fedval_linalg::gemm::gemm_nt_into(&a, &b, &mut blocked, m, k, n, &mut scratch);
        fedval_linalg::gemm::reference::gemm_nt(&a, &b, &mut naive, m, k, n);
        for (x, y) in blocked.iter().zip(&naive) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn fast_tier_gemms_within_documented_epsilon_of_naive(
        // Random/ragged shapes straddling the 8-wide register block and
        // the panel edges, mirroring the bit-exact property tests.
        m in 1usize..40,
        k in 1usize..70,
        n in 1usize..40,
        seed in 0u64..1000,
    ) {
        let mk_data = |s: u64, len: usize| -> Vec<f64> {
            (0..len).map(|i| (((i as u64 * 2654435761 + s * 40503) % 997) as f64 / 499.0) - 1.0).collect()
        };
        let a = mk_data(seed, m * k);
        let b = mk_data(seed + 1, k * n);
        let bt = mk_data(seed + 2, n * k);
        // Per-element bound: fast_epsilon(k, Σ|aᵢ||bᵢ|).
        let bound = |ar: &[f64], bc: &mut dyn Iterator<Item = f64>| -> f64 {
            let mag: f64 = ar.iter().zip(bc).map(|(x, y)| (x * y).abs()).sum();
            fedval_linalg::gemm::fast_epsilon(ar.len(), mag)
        };

        let mut fast = vec![0.0; m * n];
        let mut naive = vec![7.0; m * n];
        fedval_linalg::gemm::gemm_nn_tiered(&a, &b, &mut fast, m, k, n, DeterminismTier::Fast);
        fedval_linalg::gemm::reference::gemm_nn(&a, &b, &mut naive, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let eps = bound(&a[i * k..(i + 1) * k], &mut (0..k).map(|kk| b[kk * n + j]));
                prop_assert!((fast[i * n + j] - naive[i * n + j]).abs() <= eps);
            }
        }

        let mut fast_nt = vec![0.0; m * n];
        let mut naive_nt = vec![3.0; m * n];
        let mut scratch = fedval_linalg::gemm::Scratch::new();
        fedval_linalg::gemm::gemm_nt_tiered(
            &a, &bt, &mut fast_nt, m, k, n, &mut scratch, DeterminismTier::Fast,
        );
        fedval_linalg::gemm::reference::gemm_nt(&a, &bt, &mut naive_nt, m, k, n);
        for i in 0..m {
            for j in 0..n {
                let eps = bound(
                    &a[i * k..(i + 1) * k],
                    &mut bt[j * k..(j + 1) * k].iter().copied(),
                );
                prop_assert!((fast_nt[i * n + j] - naive_nt[i * n + j]).abs() <= eps);
            }
        }

        // tn_acc: treat a as (k × m) and accumulate into a warm C.
        let init = mk_data(seed + 3, m * n);
        let at = mk_data(seed + 4, k * m);
        let mut fast_tn = init.clone();
        let mut naive_tn = init.clone();
        fedval_linalg::gemm::gemm_tn_acc_tiered(&at, &b, &mut fast_tn, k, m, n, DeterminismTier::Fast);
        fedval_linalg::gemm::reference::gemm_tn_acc(&at, &b, &mut naive_tn, k, m, n);
        for p in 0..m {
            for q in 0..n {
                let col: Vec<f64> = (0..k).map(|i| at[i * m + p]).collect();
                let eps = bound(&col, &mut (0..k).map(|i| b[i * n + q]))
                    + fedval_linalg::gemm::fast_epsilon(1, init[p * n + q].abs());
                prop_assert!((fast_tn[p * n + q] - naive_tn[p * n + q]).abs() <= eps);
            }
        }
    }

    #[test]
    fn svd_reconstructs_and_is_sorted(m in matrix(5, 4)) {
        let svd = Svd::new(&m).unwrap();
        for w in svd.sigma.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-12);
        }
        let rec = svd.reconstruct_rank(svd.sigma.len());
        prop_assert!(rec.sub(&m).unwrap().max_abs() < 1e-8);
    }

    #[test]
    fn svd_frobenius_identity(m in matrix(4, 6)) {
        // ‖M‖_F² = Σ σ_i².
        let svd = Svd::new(&m).unwrap();
        let sigma_sq: f64 = svd.sigma.iter().map(|s| s * s).sum();
        let fro_sq = m.frobenius_norm().powi(2);
        prop_assert!((sigma_sq - fro_sq).abs() < 1e-8 * fro_sq.max(1.0));
    }

    #[test]
    fn cholesky_solves_spd_systems(m in matrix(4, 4), x in proptest::collection::vec(-2.0..2.0f64, 4)) {
        // A = MᵀM + I is SPD.
        let mut a = m.transpose().matmul(&m).unwrap();
        for i in 0..4 {
            a.set(i, i, a.get(i, i) + 1.0);
        }
        let b = a.matvec(&x).unwrap();
        let solved = CholeskyFactor::new(&a).unwrap().solve(&b).unwrap();
        for (u, v) in solved.iter().zip(&x) {
            prop_assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    #[test]
    fn ridge_shrinks_toward_zero(
        a in matrix(5, 2),
        b in proptest::collection::vec(-3.0..3.0f64, 5),
    ) {
        let x_small = ridge_solve(&a, &b, 1e-6).unwrap();
        let x_large = ridge_solve(&a, &b, 1e6).unwrap();
        let norm = |v: &[f64]| v.iter().map(|u| u * u).sum::<f64>();
        prop_assert!(norm(&x_large) <= norm(&x_small) + 1e-9);
        prop_assert!(norm(&x_large) < 1e-6, "huge lambda must crush the solution");
    }

    #[test]
    fn eps_rank_is_monotone_and_bounded(m in matrix(5, 6)) {
        let loose = eps_rank_upper_bound(&m, 1.0).unwrap();
        let tight = eps_rank_upper_bound(&m, 1e-6).unwrap();
        prop_assert!(loose <= tight);
        prop_assert!(tight <= 5);
    }
}
