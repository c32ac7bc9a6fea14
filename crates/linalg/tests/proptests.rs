//! Property-based tests of the linear-algebra substrate's invariants.

mod common;

use linalg::blas3::{gemm_naive, matmul};
use linalg::{gemm, Matrix, Op, Permutation};
use proptest::prelude::*;

/// Strategy: a matrix with entries in [-1, 1] and bounded dimensions.
fn matrix(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim, 1..=max_dim).prop_flat_map(|(m, n)| {
        proptest::collection::vec(-1.0f64..1.0, m * n)
            .prop_map(move |v| Matrix::from_col_major(m, n, v))
    })
}

/// Strategy: a square matrix.
fn square(max_dim: usize) -> impl Strategy<Value = Matrix> {
    (1..=max_dim).prop_flat_map(|n| {
        proptest::collection::vec(-1.0f64..1.0, n * n)
            .prop_map(move |v| Matrix::from_col_major(n, n, v))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn gemm_matches_naive_all_ops(
        a in matrix(24),
        kb in 1usize..24,
        alpha in -2.0f64..2.0,
        beta in -2.0f64..2.0,
        ta in proptest::bool::ANY,
        tb in proptest::bool::ANY,
    ) {
        let (opa, opb) = (
            if ta { Op::Trans } else { Op::NoTrans },
            if tb { Op::Trans } else { Op::NoTrans },
        );
        let (m, k) = match opa { Op::NoTrans => (a.nrows(), a.ncols()), Op::Trans => (a.ncols(), a.nrows()) };
        let _ = kb;
        let mut rng = util::Rng::new(7);
        let b = match opb {
            Op::NoTrans => Matrix::random(k, 5, &mut rng),
            Op::Trans => Matrix::random(5, k, &mut rng),
        };
        let c0 = Matrix::random(m, 5, &mut rng);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        gemm(alpha, &a, opa, &b, opb, beta, &mut c1);
        gemm_naive(alpha, &a, opa, &b, opb, beta, &mut c2);
        prop_assert!(c1.max_abs_diff(&c2) < 1e-11);
    }

    #[test]
    fn qr_reconstructs_and_q_orthogonal(a in square(20)) {
        let n = a.nrows();
        let f = linalg::qr::qr_in_place(a.clone());
        let q = f.form_q();
        let qtq = matmul(&q, Op::Trans, &q, Op::NoTrans);
        prop_assert!(qtq.max_abs_diff(&Matrix::identity(n)) < 1e-11);
        let r = Matrix::from_fn(n, n, |i, j| if i <= j { f.a[(i, j)] } else { 0.0 });
        let rec = matmul(&q, Op::NoTrans, &r, Op::NoTrans);
        prop_assert!(rec.max_abs_diff(&a) < 1e-10 * (n as f64).max(1.0));
    }

    #[test]
    fn qrp_pivots_give_valid_permutation_and_graded_diag(a in square(20)) {
        let n = a.nrows();
        let f = linalg::qrp::qrp_in_place(a.clone());
        // jpvt is a permutation of 0..n.
        let mut seen = vec![false; n];
        for &p in &f.jpvt {
            prop_assert!(p < n && !seen[p]);
            seen[p] = true;
        }
        // |diag(R)| is non-increasing.
        let d = f.r_diag();
        for w in d.windows(2) {
            prop_assert!(w[0].abs() >= w[1].abs() * (1.0 - 1e-9));
        }
        // A·P = Q·R columnwise.
        let q = f.form_q();
        let r = Matrix::from_fn(n, n, |i, j| if i <= j { f.a[(i, j)] } else { 0.0 });
        let qr = matmul(&q, Op::NoTrans, &r, Op::NoTrans);
        for j in 0..n {
            for i in 0..n {
                prop_assert!((qr[(i, j)] - a[(i, f.jpvt[j])]).abs() < 1e-10 * n as f64);
            }
        }
    }

    #[test]
    fn lu_solve_residual_small(a0 in square(20)) {
        let n = a0.nrows();
        // Diagonally dominate to stay comfortably nonsingular.
        let mut a = a0;
        for i in 0..n {
            a[(i, i)] += n as f64 + 1.0;
        }
        let mut rng = util::Rng::new(3);
        let x = Matrix::random(n, 3, &mut rng);
        let b = matmul(&a, Op::NoTrans, &x, Op::NoTrans);
        let sol = linalg::lu::solve(&a, &b).unwrap();
        prop_assert!(sol.max_abs_diff(&x) < 1e-9);
    }

    #[test]
    fn lu_det_sign_consistency(a0 in square(12)) {
        let n = a0.nrows();
        let mut a = a0;
        for i in 0..n {
            a[(i, i)] += n as f64 + 1.0;
        }
        let f = linalg::lu::lu_in_place(a).unwrap();
        let (s, l) = f.sign_log_det();
        let d = f.det();
        prop_assert_eq!(s, d.signum());
        prop_assert!((l - d.abs().ln()).abs() < 1e-8 * l.abs().max(1.0));
    }

    #[test]
    fn permutation_inverse_roundtrip(n in 1usize..30, seed in 0u64..1000) {
        let mut rng = util::Rng::new(seed);
        // Random permutation via Fisher–Yates.
        let mut fwd: Vec<usize> = (0..n).collect();
        for i in (1..n).rev() {
            let j = rng.next_range(i as u64 + 1) as usize;
            fwd.swap(i, j);
        }
        let p = Permutation::from_forward(fwd);
        let a = Matrix::random(n, n, &mut rng);
        let back = p.inverse().permute_cols(&p.permute_cols(&a));
        prop_assert_eq!(back, a.clone());
        let back2 = p.permute_rows(&p.permute_rows_t(&a));
        prop_assert_eq!(back2, a);
    }

    #[test]
    fn nrm2_scaling_invariant(v in proptest::collection::vec(-1.0f64..1.0, 1..50), s in 1e-10f64..1e10) {
        let base = linalg::blas1::nrm2(&v);
        let scaled: Vec<f64> = v.iter().map(|x| x * s).collect();
        let got = linalg::blas1::nrm2(&scaled);
        prop_assert!((got - s * base).abs() <= 1e-12 * (s * base).abs());
    }

    #[test]
    fn jacobi_eigen_decomposition(
        (n, v, keep) in (1usize..=40).prop_flat_map(|n| (
            Just(n),
            proptest::collection::vec(-1.0f64..1.0, n * n),
            proptest::collection::vec(0.0f64..1.0, n * n),
        )),
        zero_share in 0.0f64..1.0,
    ) {
        // Exact zeros keep Jacobi rotations skipped sweep after sweep, the
        // case the deferred mirror writes must replay right.
        let a = Matrix::from_fn(n, n, |i, j| {
            let (i, j) = (i.min(j), i.max(j));
            if i != j && keep[j * n + i] < zero_share { 0.0 } else { v[j * n + i] }
        });
        let e = linalg::eig::sym_eig(&a).unwrap();
        for w in e.values.windows(2) {
            prop_assert!(w[0] <= w[1]);
        }
        let av = matmul(&a, Op::NoTrans, &e.vectors, Op::NoTrans);
        for j in 0..n {
            for i in 0..n {
                prop_assert!((av[(i, j)] - e.values[j] * e.vectors[(i, j)]).abs() < 1e-12 * n as f64);
            }
        }
        let vtv = matmul(&e.vectors, Op::Trans, &e.vectors, Op::NoTrans);
        prop_assert!(vtv.max_abs_diff(&Matrix::identity(n)) < 1e-12 * n as f64);
    }

    #[test]
    fn svd_reconstruction_and_invariants(a in matrix(14)) {
        let work = if a.nrows() >= a.ncols() { a.clone() } else { a.transpose() };
        let d = linalg::svd(&work).unwrap();
        // Reconstruction.
        let mut usv = d.u.clone();
        linalg::scale::col_scale(&d.s, &mut usv);
        let rec = matmul(&usv, Op::NoTrans, &d.v, Op::Trans);
        prop_assert!(rec.max_abs_diff(&work) < 1e-10 * work.max_abs().max(1.0));
        // σ descending and non-negative.
        for w in d.s.windows(2) {
            prop_assert!(w[0] >= w[1] - 1e-14);
        }
        prop_assert!(d.s.iter().all(|&x| x >= 0.0));
        // ‖A‖_F² = Σσ².
        let fro2: f64 = work.as_slice().iter().map(|x| x * x).sum();
        let s2: f64 = d.s.iter().map(|x| x * x).sum();
        prop_assert!((fro2 - s2).abs() < 1e-9 * fro2.max(1.0));
    }

    #[test]
    fn trsm_inverts_trmm(n in 1usize..24, seed in 0u64..500) {
        let mut rng = util::Rng::new(seed);
        let u = Matrix::from_fn(n, n, |i, j| {
            if i < j { rng.next_f64() - 0.5 } else if i == j { 1.0 + rng.next_f64() } else { 0.0 }
        });
        let x = Matrix::random(n, 4, &mut rng);
        let mut y = x.clone();
        linalg::tri::trmm_upper(&u, &mut y);
        linalg::tri::trsm_upper(&u, &mut y);
        prop_assert!(y.max_abs_diff(&x) < 1e-9);
    }

    #[test]
    fn blocked_tri_kernels_match_level2_reference(
        n in 1usize..100,
        width in 0usize..3,
        seed in 0u64..500,
    ) {
        // Right-hand sides of width 1, 5 or n: with n up to 100 the cases
        // fall on both sides of the size crossover.
        use common::*;
        let w = [1, 5, n][width];
        let mut rng = util::Rng::new(seed);
        let a = conditioned(n, &mut rng);
        let b = Matrix::random(n, w, &mut rng);
        let kernels: [(TriKernel, TriKernel); 3] = [
            (linalg::tri::trmm_upper, trmm_upper_ref),
            (linalg::tri::trsm_upper, trsm_upper_ref),
            (linalg::tri::trsm_lower_unit, trsm_lower_unit_ref),
        ];
        for (kernel, reference) in kernels {
            let (mut x, mut y) = (b.clone(), b.clone());
            kernel(&a, &mut x);
            reference(&a, &mut y);
            prop_assert!(max_row_rel_diff(&x, &y) <= 1e-13 * n as f64);
        }
    }
}
