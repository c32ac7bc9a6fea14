//! Cross-kernel equivalence: the three GEMM register tiles — 16×12 AVX-512,
//! 8×6 AVX2+FMA, 8×4 scalar — must give the same bits on every shape the
//! solvers produce, and each must agree with the naive loop to rounding.
//!
//! All paths share one driver — beta, pack, slab, register tile — from
//! 1×1×1 up; only the innermost register tile differs, and every tile fuses
//! each multiply-add (the scalar one through `f64::mul_add`). So each element
//! of C gets the same k-ordered chain of fused multiply-adds whatever the
//! tile's shape, and the contract is byte identity, verified here against
//! shapes that stress every edge: sub-tile sizes, prime dimensions, tile
//! boundaries, cache-block boundaries, all four transpose combinations, and
//! the alpha/beta special cases the dispatcher short-circuits. A pin the host
//! lacks runs the next path down the ladder, so on a host without `avx512f`
//! the AVX-512 comparisons are of the FMA tile with itself; the scalar tile
//! exists everywhere, so `scalar == fma` is checked on every AVX2 host. The
//! small-shape grid — every shape the N = 16/36 systems and the trailing
//! delayed-update flush produce — is `paths_agree_on_every_small_shape`, the
//! large one `avx512_equals_fma_bit_for_bit_on_the_whole_grid`. (Sub-views
//! with `ld > rows` need the crate-private view entry: that part of both
//! grids is `blas3`'s unit tests `views_match_copied_sub_blocks_bitwise` and
//! `pinned_simd_paths_agree_bitwise_on_sub_views`.)
//!
//! The whole suite also runs under `LINALG_KERNEL=scalar` in CI, which
//! pins the dispatcher itself; here we bypass the process-wide cache via
//! `gemm_with_kernel` so one process covers every path.
//!
//! The second half holds the *algorithm* paths to the same standard: the
//! GEMM-based TRMM/TRSM against the level-2 loops they replaced
//! (`common/mod.rs`), and the DORGQR-shaped `form_q` against `apply_q(I)`,
//! at sizes on both sides of the size crossover and of every panel edge;
//! and `sym_eig`, whose bits must not depend on the path: the path is fixed
//! once per process, so that test re-runs this binary under each pin.
//!
//! The third part is about *who* computes: every grid above also feeds its
//! results' bits to a recorder, and one test runs all of them once with the
//! fork-join team held (one thread) and once free, and wants the two
//! records equal bit for bit. Each grid has shapes on both sides of
//! `team::FORK_FLOPS`. CI runs this under `LINALG_KERNEL=scalar`, `fma` and
//! `avx512`.

mod common;

use common::*;
use linalg::blas3::{gemm_naive, matmul};
use linalg::{gemm_with_kernel, team, tri, workspace, KernelPath, Matrix, Op};
use std::cell::RefCell;

thread_local! {
    /// Bits of every result the grids of this thread produced, in order.
    static RECORD: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

fn record(m: &Matrix) {
    RECORD.with(|r| {
        r.borrow_mut()
            .extend(m.as_slice().iter().map(|x| x.to_bits()))
    });
}

/// One word per result instead of all of it, for the grids too large to keep.
fn record_digest(m: &Matrix) {
    let mut h = util::Fnv1a::new();
    m.as_slice().iter().for_each(|&x| h.update_f64(x));
    RECORD.with(|r| r.borrow_mut().push(h.finish()));
}

/// Elementwise tolerance for comparing two summation orders of a length-`k`
/// dot product with |entries| ≤ 1: a couple of ulps per accumulation step.
fn tol(k: usize, alpha: f64, beta: f64) -> f64 {
    let scale = alpha.abs() * (k as f64) + beta.abs() + 1.0;
    2.0 * f64::EPSILON * (k as f64 + 4.0) * scale
}

/// Every kernel path; a pin the host lacks runs the next one down.
const PATHS: [KernelPath; 3] = [KernelPath::Scalar, KernelPath::Fma, KernelPath::Avx512];

fn bits(m: &Matrix) -> Vec<u64> {
    m.as_slice().iter().map(|x| x.to_bits()).collect()
}

/// Runs one GEMM on every kernel path and the naive reference: each path
/// agrees with the reference to rounding, and the three bit for bit.
fn check_case(m: usize, n: usize, k: usize, alpha: f64, beta: f64, opa: Op, opb: Op, seed: u64) {
    let mut rng = util::Rng::new(seed);
    let a = match opa {
        Op::NoTrans => Matrix::random(m, k, &mut rng),
        Op::Trans => Matrix::random(k, m, &mut rng),
    };
    let b = match opb {
        Op::NoTrans => Matrix::random(k, n, &mut rng),
        Op::Trans => Matrix::random(n, k, &mut rng),
    };
    let c0 = Matrix::random(m, n, &mut rng);

    let mut c_ref = c0.clone();
    gemm_naive(alpha, &a, opa, &b, opb, beta, &mut c_ref);
    let t = tol(k, alpha, beta);
    let label = format!("m={m} n={n} k={k} α={alpha} β={beta} {opa:?}/{opb:?}");
    let [scalar, fma, avx512] = PATHS.map(|path| {
        let mut c = c0.clone();
        gemm_with_kernel(path, alpha, &a, opa, &b, opb, beta, &mut c);
        record(&c);
        let diff = c.max_abs_diff(&c_ref);
        assert!(diff <= t, "{path:?} vs naive: {diff} > {t} ({label})");
        bits(&c)
    });
    assert!(scalar == fma, "scalar vs fma ({label})");
    assert!(avx512 == fma, "avx512 vs fma ({label})");
}

#[test]
fn paths_agree_on_edge_and_prime_sizes() {
    // Sub-tile, exact-tile, tile+1, primes, and a size past the KC=256 and
    // MC/NC cache-block boundaries.
    let sizes: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (2, 3, 5),
        (7, 7, 7),
        (8, 6, 8), // exactly one FMA tile
        (8, 4, 8), // exactly one scalar tile
        (9, 7, 9), // one past both tile shapes
        (16, 12, 16),
        (17, 13, 31),
        (61, 53, 67),
        (129, 127, 257), // crosses MC, NR-block, and KC boundaries
        (263, 23, 269),  // forks with four column chunks, two slabs
        (31, 521, 67),   // forks wide and flat: one A panel chunk
    ];
    for (i, &(m, n, k)) in sizes.iter().enumerate() {
        check_case(m, n, k, 1.0, 0.0, Op::NoTrans, Op::NoTrans, 100 + i as u64);
    }
}

#[test]
fn paths_agree_on_all_op_combinations() {
    let ops = [Op::NoTrans, Op::Trans];
    let mut seed = 200;
    for &opa in &ops {
        for &opb in &ops {
            for &(m, n, k) in &[(13, 11, 17), (64, 48, 64), (97, 89, 101), (131, 127, 137)] {
                check_case(m, n, k, 1.0, 1.0, opa, opb, seed);
                seed += 1;
            }
        }
    }
}

#[test]
fn paths_agree_on_alpha_beta_grid() {
    for (i, &alpha) in [0.0, 1.0, -0.5].iter().enumerate() {
        for (j, &beta) in [0.0, 1.0, -0.5].iter().enumerate() {
            for (m, n, k) in [(33, 29, 41), (130, 126, 134)] {
                let seed = 300 + (3 * i + j) as u64;
                check_case(m, n, k, alpha, beta, Op::NoTrans, Op::Trans, seed);
            }
        }
    }
}

/// Every extent the small systems produce: 1..=20 (a 4×4 lattice's N = 16
/// with its neighbours, and every k of a trailing delayed-update flush) and
/// both sides of 36 and 48 (a 6×6 lattice; the old unpacked-path threshold).
fn small_extents() -> Vec<usize> {
    (1..=20).chain([35, 36, 37, 47, 48, 49]).collect()
}

/// One small product on every path with NaN in the scratch each is about to
/// lease: against the naive loop to `1e-13·k`, the three paths' bits equal.
fn check_small_case(m: usize, n: usize, k: usize, alpha: f64, beta: f64, opa: Op, opb: Op) {
    let mut rng = util::Rng::new((m * 10_000 + n * 100 + k) as u64);
    let (ar, ac) = if opa == Op::NoTrans { (m, k) } else { (k, m) };
    let (br, bc) = if opb == Op::NoTrans { (k, n) } else { (n, k) };
    let a = Matrix::random(ar, ac, &mut rng);
    let b = Matrix::random(br, bc, &mut rng);
    let c0 = Matrix::random(m, n, &mut rng);
    let mut c_ref = c0.clone();
    gemm_naive(alpha, &a, opa, &b, opb, beta, &mut c_ref);
    let label = format!("m={m} n={n} k={k} α={alpha} β={beta} {opa:?}/{opb:?}");
    let [scalar, fma, avx512] = PATHS.map(|path| {
        let mut c = c0.clone();
        poison_scratch(1, 1 << 13);
        gemm_with_kernel(path, alpha, &a, opa, &b, opb, beta, &mut c);
        let diff = c.max_abs_diff(&c_ref);
        assert!(
            diff <= 1e-13 * k as f64,
            "{path:?} vs naive: {diff:e} ({label})"
        );
        c
    });
    record_digest(&fma);
    // On a host without avx512f (or avx2+fma) the pins fall down the ladder
    // together, and the comparison is of a path with itself.
    assert!(bits(&scalar) == bits(&fma), "scalar vs fma ({label})");
    assert!(bits(&avx512) == bits(&fma), "avx512 vs fma ({label})");
}

#[test]
fn paths_agree_on_every_small_shape() {
    // The whole cube of small extents — m or n = 1 and k = 1, 2, 3 included —
    // under every op pair, then the α/β grid on its corners and tile edges.
    let ops = [Op::NoTrans, Op::Trans];
    let extents = small_extents();
    for &m in &extents {
        for &n in &extents {
            for &k in &extents {
                for (opa, opb) in ops.iter().flat_map(|&x| ops.map(|y| (x, y))) {
                    check_small_case(m, n, k, 1.3, -0.7, opa, opb);
                }
            }
        }
    }
    let corners = [1, 2, 3, 8, 12, 16, 17, 36, 37, 49];
    for &m in &corners {
        for &n in &corners {
            for &k in &corners {
                for alpha in [0.0, 1.0, -0.5] {
                    for beta in [0.0, 1.0, -0.5] {
                        check_small_case(m, n, k, alpha, beta, Op::NoTrans, Op::Trans);
                    }
                }
            }
        }
    }
}

#[test]
fn dispatched_default_matches_pinned_path() {
    // Whatever `kernel_path()` picked for this process must equal one of the
    // two pinned paths bit-for-bit (the dispatcher adds no third behaviour).
    let mut rng = util::Rng::new(400);
    let a = Matrix::random(37, 43, &mut rng);
    let b = Matrix::random(43, 31, &mut rng);
    let c0 = Matrix::random(37, 31, &mut rng);

    let mut c_default = c0.clone();
    linalg::gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 1.0, &mut c_default);
    let mut c_pinned = c0.clone();
    gemm_with_kernel(
        linalg::kernel_path(),
        1.0,
        &a,
        Op::NoTrans,
        &b,
        Op::NoTrans,
        1.0,
        &mut c_pinned,
    );
    assert_eq!(
        c_default.as_slice(),
        c_pinned.as_slice(),
        "dispatched gemm must be the pinned kernel, exactly"
    );

    // The same on a shape that reaches the micro-kernels, by name: the
    // dispatcher's choice is one of the three paths, and every path gives
    // its bits.
    let chosen = linalg::kernel_path();
    assert!(PATHS.contains(&chosen) && chosen.available());
    let a = Matrix::random(61, 67, &mut rng);
    let b = Matrix::random(67, 53, &mut rng);
    let c_default = matmul(&a, Op::NoTrans, &b, Op::NoTrans);
    for path in PATHS {
        let mut c_pinned = Matrix::zeros(61, 53);
        gemm_with_kernel(
            path,
            1.0,
            &a,
            Op::NoTrans,
            &b,
            Op::NoTrans,
            0.0,
            &mut c_pinned,
        );
        assert!(bits(&c_default) == bits(&c_pinned), "{}", path.name());
    }
}

#[test]
fn avx512_request_gives_fma_bits_on_any_host() {
    // With `avx512f` by byte identity, without it by the ladder avx512 →
    // fma → scalar: a pinned AVX-512 run is never the slower scalar one
    // while the FMA tile exists, and no bit says which host it ran on.
    let mut rng = util::Rng::new(550);
    let a = Matrix::random(61, 67, &mut rng);
    let b = Matrix::random(67, 53, &mut rng);
    let pinned = |path| {
        let mut c = Matrix::zeros(61, 53);
        gemm_with_kernel(path, 1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
        bits(&c)
    };
    assert!(pinned(KernelPath::Avx512) == pinned(KernelPath::Fma));
}

#[test]
fn unavailable_fma_request_falls_back_to_scalar_semantics() {
    // `gemm_with_kernel(Fma, …)` on any host must produce a valid product
    // (scalar fallback when the ISA is missing) — never garbage or a panic.
    let mut rng = util::Rng::new(500);
    let a = Matrix::random(19, 23, &mut rng);
    let b = Matrix::random(23, 17, &mut rng);
    let mut c = Matrix::zeros(19, 17);
    gemm_with_kernel(
        KernelPath::Fma,
        1.0,
        &a,
        Op::NoTrans,
        &b,
        Op::NoTrans,
        0.0,
        &mut c,
    );
    let mut c_ref = Matrix::zeros(19, 17);
    gemm_naive(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c_ref);
    assert!(c.max_abs_diff(&c_ref) <= tol(23, 1.0, 0.0));
}

/// Set in the environment of this binary re-run as a child with
/// `LINALG_KERNEL` pinned: the child prints [`sym_eig_digests`] and stops.
const EIG_DIGEST_CHILD: &str = "KERNEL_PATHS_EIG_DIGEST_CHILD";

/// One digest of the values and one of the vectors of `sym_eig` on a random
/// symmetric matrix at n = 36 and 256, each recorded for the held/free run.
fn sym_eig_digests() -> Vec<u64> {
    let mut out = Vec::new();
    for n in [36, 256] {
        let mut rng = util::Rng::new(650 + n as u64);
        let b = Matrix::random(n, n, &mut rng);
        let a = Matrix::from_fn(n, n, |i, j| 0.5 * (b[(i, j)] + b[(j, i)]));
        let e = linalg::eig::sym_eig(&a).expect("symmetric");
        let values = Matrix::from_col_major(n, 1, e.values);
        for m in [&values, &e.vectors] {
            record(m);
            let mut h = util::Fnv1a::new();
            m.as_slice().iter().for_each(|&x| h.update_f64(x));
            out.push(h.finish());
        }
    }
    out
}

#[test]
fn factorizations_identical_numerics_across_paths() {
    // The eigensolver's level-1 loops never fuse and its GEMMs always do,
    // so its bits cannot depend on the path. The path is fixed per process:
    // each pin runs in a child of this binary, and all must match this run.
    let digests = sym_eig_digests();
    let line = format!("sym_eig digests {digests:x?}");
    if std::env::var_os(EIG_DIGEST_CHILD).is_some() {
        println!("{line}");
        return;
    }
    let exe = std::env::current_exe().expect("test binary");
    for path in PATHS {
        let out = std::process::Command::new(&exe)
            .args(["--exact", "factorizations_identical_numerics_across_paths"])
            .args(["--nocapture", "--test-threads=1"])
            .env("LINALG_KERNEL", path.name())
            .env(EIG_DIGEST_CHILD, "1")
            .output()
            .expect("re-run the test binary");
        let stdout = String::from_utf8_lossy(&out.stdout);
        assert!(
            out.status.success(),
            "{} child failed:\n{stdout}",
            path.name()
        );
        assert!(
            stdout.contains(&line),
            "LINALG_KERNEL={} changed sym_eig's bits: want {line}, child printed\n{stdout}",
            path.name()
        );
    }

    // QR/QRP/LU consume GEMM through `gemm`; pinning the path through the
    // same inputs must keep their *invariants* (reconstruction) intact on
    // both kernels. This is the in-process analogue of the CI job that
    // reruns the whole suite under LINALG_KERNEL=scalar.
    let n = 48;
    let mut rng = util::Rng::new(600);
    let a = Matrix::random(n, n, &mut rng);

    let f = linalg::qr::qr_in_place(a.clone());
    let q = f.form_q();
    let r = Matrix::from_fn(n, n, |i, j| if i <= j { f.a[(i, j)] } else { 0.0 });
    let rec = matmul(&q, Op::NoTrans, &r, Op::NoTrans);
    assert!(rec.max_abs_diff(&a) < 1e-12 * n as f64);

    let fp = linalg::qrp::qrp_in_place(a.clone());
    let d = fp.r_diag();
    for w in d.windows(2) {
        assert!(w[0].abs() >= w[1].abs() * (1.0 - 1e-9), "R diagonal graded");
    }
}

/// Orders on both sides of the blocked kernels' size crossover and of every
/// 16- and 32-wide panel edge.
const ORDERS: [usize; 11] = [1, 7, 31, 32, 33, 63, 64, 65, 127, 256, 257];

/// Runs `kernel` and its level-2 `reference` on a well-conditioned order-`n`
/// triangle and right-hand sides of widths 1, 5 and n — uniform, and graded
/// over 60 decades by rows in the direction that keeps the result graded
/// (`descending` for the upper kernels, whose row i reads rows ≥ i) — and
/// checks agreement to `1e-13·n` relative, row by row.
fn check_tri(what: &str, kernel: TriKernel, reference: TriKernel, descending: bool) {
    for n in ORDERS {
        let mut rng = util::Rng::new(700 + n as u64);
        let a = conditioned(n, &mut rng);
        for w in [1, 5, n] {
            for decades in [0.0, 60.0] {
                let mut b = Matrix::random(n, w, &mut rng);
                grade_rows(&mut b, decades, descending);
                let mut expected = b.clone();
                reference(&a, &mut expected);
                kernel(&a, &mut b);
                record(&b);
                let rel = max_row_rel_diff(&b, &expected);
                assert!(
                    rel <= 1e-13 * n as f64,
                    "{what} n={n} w={w} decades={decades}: {rel:e}"
                );
            }
        }
    }
}

#[test]
fn blocked_trmm_upper_matches_level2_reference() {
    check_tri("trmm_upper", tri::trmm_upper, trmm_upper_ref, true);
}

#[test]
fn blocked_trsm_upper_matches_level2_reference() {
    check_tri("trsm_upper", tri::trsm_upper, trsm_upper_ref, true);
}

#[test]
fn blocked_trsm_lower_unit_matches_level2_reference() {
    check_tri(
        "trsm_lower_unit",
        tri::trsm_lower_unit,
        trsm_lower_unit_ref,
        false,
    );
}

#[test]
fn form_q_equals_apply_q_of_identity_and_is_orthogonal() {
    // DORGQR order touches only the trailing block per panel; DORMQR on a
    // full identity is the oracle. Square orders plus a tall 65×33, for the
    // reflectors of both factorizations.
    fn check(q: &Matrix, apply_q: impl Fn(&mut Matrix), label: &str) {
        let m = q.nrows();
        let tol = 1e-13 * m as f64;
        let mut applied = Matrix::identity(m);
        apply_q(&mut applied);
        record(q);
        record(&applied);
        assert!(
            q.max_abs_diff(&applied) <= tol,
            "{label}: form_q vs apply_q(I)"
        );
        let qtq = matmul(q, Op::Trans, q, Op::NoTrans);
        let resid = qtq.max_abs_diff(&Matrix::identity(m));
        assert!(resid <= tol, "{label}: ‖QᵀQ − I‖ = {resid:e}");
    }
    for (m, n) in ORDERS.iter().map(|&n| (n, n)).chain([(65, 33)]) {
        let mut rng = util::Rng::new(800 + m as u64);
        let a = Matrix::random(m, n, &mut rng);
        let f = linalg::qr::qr_in_place(a.clone());
        check(&f.form_q(), |c| f.apply_q(c), &format!("qr {m}x{n}"));
        if m == n {
            // Q formed over the packed factors is the same Q.
            assert_eq!(f.form_q().as_slice(), f.clone().into_q().as_slice());
        }
        let f = linalg::qrp::qrp_in_place(a.clone());
        check(&f.form_q(), |c| f.apply_q(c), &format!("qrp {m}x{n}"));
        if m == n {
            assert_eq!(f.form_q().as_slice(), f.clone().into_q().as_slice());
            // The LU the Green's assembly runs: blocked panels, a GEMM
            // trailing update and two triangular solves, all on sub-blocks.
            let lu = linalg::lu::lu_in_place(conditioned(m, &mut rng)).expect("regular");
            let mut x = a;
            lu.solve_in_place(&mut x);
            record(&lu.lu);
            record(&x);
        }
    }
}

#[test]
fn zero_column_right_hand_sides_are_no_ops() {
    // An n×0 matrix owns no element, so no panel of the blocked kernels may
    // address one. Order 257 gives every kernel several panels.
    for n in [33, 257] {
        let mut rng = util::Rng::new(900 + n as u64);
        let a = conditioned(n, &mut rng);
        let qr = linalg::qr::qr_in_place(a.clone());
        let qrp = linalg::qrp::qrp_in_place(a.clone());
        let mut empty = Matrix::zeros(n, 0);
        tri::trmm_upper(&a, &mut empty);
        tri::trsm_upper(&a, &mut empty);
        tri::trsm_lower_unit(&a, &mut empty);
        qr.apply_q(&mut empty);
        qr.apply_qt(&mut empty);
        qrp.apply_q(&mut empty);
        qrp.apply_qt(&mut empty);
        let lu = linalg::lu::lu_in_place(a).expect("well conditioned");
        lu.solve_in_place(&mut empty);
        assert_eq!((empty.nrows(), empty.ncols()), (n, 0));
    }
}

#[test]
fn batched_products_equal_solo_products_on_both_sides_of_the_fork() {
    // A crowd's wrap (one shared left operand, per-walker right operands) and
    // its mirror (per-walker left, shared right). 16 and 36 are the small
    // systems, one row panel and three; 72³ is still one chunk, 136³ forks —
    // and at every size the shared operand's slab is packed by entry 0 only.
    for n in [16, 36, 72, 136] {
        let mut rng = util::Rng::new(1100 + n as u64);
        let shared = Matrix::random(n, n, &mut rng);
        let each: Vec<Matrix> = (0..3).map(|_| Matrix::random(n, n, &mut rng)).collect();
        let refs: Vec<&Matrix> = each.iter().collect();
        for shared_left in [true, false] {
            let (a, b) = (
                linalg::GemmOperand::Shared(&shared),
                linalg::GemmOperand::Each(&refs),
            );
            let (a, b) = if shared_left { (a, b) } else { (b, a) };
            let mut outs = vec![Matrix::zeros(n, n); 3];
            poison_scratch(4, 1 << 18);
            linalg::dgemm_strided_batched(
                1.0,
                a,
                Op::NoTrans,
                b,
                Op::NoTrans,
                0.0,
                &mut outs.iter_mut().collect::<Vec<_>>(),
            );
            for (own, out) in each.iter().zip(&outs) {
                let (l, r) = if shared_left {
                    (&shared, own)
                } else {
                    (own, &shared)
                };
                let solo = matmul(l, Op::NoTrans, r, Op::NoTrans);
                assert_eq!(
                    out.as_slice(),
                    solo.as_slice(),
                    "n={n} shared_left={shared_left}"
                );
                record(out);
            }
        }
    }
}

#[test]
fn held_and_free_runs_of_every_grid_are_bit_identical() {
    // Who runs a chunk must not reach a single bit: all grids above with the
    // team held (this thread does everything) and free (helpers may claim
    // chunks of every product past FORK_FLOPS).
    let run = || {
        RECORD.with(|r| r.borrow_mut().clear());
        paths_agree_on_edge_and_prime_sizes();
        paths_agree_on_all_op_combinations();
        paths_agree_on_alpha_beta_grid();
        paths_agree_on_every_small_shape();
        blocked_trmm_upper_matches_level2_reference();
        blocked_trsm_upper_matches_level2_reference();
        blocked_trsm_lower_unit_matches_level2_reference();
        form_q_equals_apply_q_of_identity_and_is_orthogonal();
        batched_products_equal_solo_products_on_both_sides_of_the_fork();
        sym_eig_digests();
        RECORD.with(|r| std::mem::take(&mut *r.borrow_mut()))
    };
    let held = {
        let _one_thread = team::hold();
        run()
    };
    let free = run();
    assert!(held.len() > 1_000_000, "the grids recorded their results");
    assert!(held == free, "a helper-run chunk changed a result bit");
}

/// NaN in the `count` buffers of `len` elements this thread's arena will
/// hand out next (four of 2 MiB cover every lease of the large grids; a test
/// thread that has only multiplied small shapes owns one buffer, and 64 KiB
/// of NaN before each call is cheap enough to do 10⁵ times).
fn poison_scratch(count: usize, len: usize) {
    let bufs: Vec<Vec<f64>> = (0..count).map(|_| workspace::take_scratch(len)).collect();
    for mut b in bufs {
        b.fill(f64::NAN);
        workspace::put(b);
    }
}

#[test]
fn gemm_never_reads_what_it_did_not_pack() {
    // The packing buffers are leased uncleared. Poison every buffer the
    // arena will hand out, then multiply shapes whose last panels are
    // partial (prime sizes, one past a tile, one past a cache block): a read
    // of an unpacked element would put a NaN in C.
    let shapes = [
        (49, 49, 49),
        (53, 59, 61),
        (9, 7, 300),
        (129, 127, 257),
        (257, 7, 513),
        (263, 257, 269),
    ];
    for (i, &(m, n, k)) in shapes.iter().enumerate() {
        for path in PATHS {
            for (opa, opb) in [(Op::NoTrans, Op::NoTrans), (Op::Trans, Op::Trans)] {
                let mut rng = util::Rng::new(1000 + i as u64);
                let (ar, ac) = if opa == Op::NoTrans { (m, k) } else { (k, m) };
                let (br, bc) = if opb == Op::NoTrans { (k, n) } else { (n, k) };
                let a = Matrix::random(ar, ac, &mut rng);
                let b = Matrix::random(br, bc, &mut rng);
                let mut c = Matrix::zeros(m, n);
                let mut c_ref = Matrix::zeros(m, n);
                poison_scratch(4, 1 << 18);
                gemm_with_kernel(path, 1.0, &a, opa, &b, opb, 0.0, &mut c);
                gemm_naive(1.0, &a, opa, &b, opb, 0.0, &mut c_ref);
                let diff = c.max_abs_diff(&c_ref);
                assert!(c.as_slice().iter().all(|x| x.is_finite()));
                assert!(
                    diff <= tol(k, 1.0, 0.0),
                    "{m}x{n}x{k} {opa:?}/{opb:?} {path:?}: {diff}"
                );
            }
        }
    }
}

#[test]
fn avx512_equals_fma_bit_for_bit_on_the_whole_grid() {
    // The byte-identity contract of the three tiles on the large shapes (the
    // small ones are `paths_agree_on_every_small_shape`): m and n on both
    // sides of multiples of 16, 12, 8, 6 and 4 (one exact tile, one short of
    // it, all interior, interior plus both edges), k = 1, KC − 1, KC, KC + 1
    // and several slabs, past the MC row block and the 504-/510-column NC
    // block, forking and not.
    let shapes = [
        (350, 330, 1),
        (16, 12, 600),
        (15, 11, 700),
        (32, 24, 150),
        (61, 53, 255),
        (49, 47, 256),
        (61, 53, 257),
        (131, 127, 600),
        (263, 509, 67),
        (31, 521, 67),
    ];
    let ops = [Op::NoTrans, Op::Trans];
    let run = || {
        let mut all = Vec::new();
        for (i, &(m, n, k)) in shapes.iter().enumerate() {
            for (opa, opb) in ops.iter().flat_map(|&x| ops.map(|y| (x, y))) {
                for (alpha, beta) in [(1.0, 0.0), (-0.7, 1.0), (1.3, -0.5)] {
                    let mut rng = util::Rng::new(1200 + i as u64);
                    let (ar, ac) = if opa == Op::NoTrans { (m, k) } else { (k, m) };
                    let (br, bc) = if opb == Op::NoTrans { (k, n) } else { (n, k) };
                    let a = Matrix::random(ar, ac, &mut rng);
                    let b = Matrix::random(br, bc, &mut rng);
                    let c0 = Matrix::random(m, n, &mut rng);
                    let [scalar, fma, avx512] = PATHS.map(|path| {
                        let mut c = c0.clone();
                        poison_scratch(4, 1 << 18);
                        gemm_with_kernel(path, alpha, &a, opa, &b, opb, beta, &mut c);
                        bits(&c)
                    });
                    let label = format!("{m}x{n}x{k} {opa:?}/{opb:?} α={alpha} β={beta}");
                    assert!(scalar == fma, "scalar vs fma {label}");
                    assert!(avx512 == fma, "avx512 vs fma {label}");
                    all.extend(fma);
                }
            }
        }
        all
    };
    let held = {
        let _one_thread = team::hold();
        run()
    };
    assert!(held == run(), "a helper-run chunk changed a result bit");

    // A crowd's wrap through the batched driver, which runs the dispatched
    // path and packs the shared operand once: each entry against every pin.
    for (m, n, k) in [(16, 16, 16), (36, 36, 36), (72, 70, 75), (136, 131, 300)] {
        let mut rng = util::Rng::new(1300 + m as u64);
        let shared = Matrix::random(m, k, &mut rng);
        let each: Vec<Matrix> = (0..3).map(|_| Matrix::random(k, n, &mut rng)).collect();
        let refs: Vec<&Matrix> = each.iter().collect();
        let mut outs = vec![Matrix::zeros(m, n); 3];
        poison_scratch(4, 1 << 18);
        linalg::dgemm_strided_batched(
            1.0,
            linalg::GemmOperand::Shared(&shared),
            Op::NoTrans,
            linalg::GemmOperand::Each(&refs),
            Op::NoTrans,
            0.0,
            &mut outs.iter_mut().collect::<Vec<_>>(),
        );
        for (b, out) in each.iter().zip(&outs) {
            for path in PATHS {
                let mut solo = Matrix::zeros(m, n);
                gemm_with_kernel(
                    path,
                    1.0,
                    &shared,
                    Op::NoTrans,
                    b,
                    Op::NoTrans,
                    0.0,
                    &mut solo,
                );
                assert!(bits(out) == bits(&solo), "{m}x{n}x{k} batched vs {path:?}");
            }
        }
    }
}
