//! Cross-crate numerical-stability studies: the claims of §III–IV of the
//! paper, exercised end-to-end.

use dqmc::{greens_from_udt, stratify, BMatrixFactory, HsField, ModelParams, Spin, StratAlgo};
use lattice::Lattice;
use linalg::Matrix;

fn setup(lside: usize, u: f64, slices: usize, seed: u64) -> (ModelParams, BMatrixFactory, HsField) {
    let model = ModelParams::new(Lattice::square(lside, lside, 1.0), u, 0.0, 0.125, slices);
    let fac = BMatrixFactory::new(&model);
    let mut rng = util::Rng::new(seed);
    let h = HsField::random(model.nsites(), slices, &mut rng);
    (model, fac, h)
}

fn clusters(fac: &BMatrixFactory, h: &HsField, k: usize, spin: Spin) -> Vec<Matrix> {
    (0..h.slices())
        .step_by(k)
        .map(|lo| fac.cluster(h, lo, (lo + k).min(h.slices()), spin))
        .collect()
}

#[test]
fn naive_inversion_fails_where_stratification_succeeds() {
    // The reason stratification exists: at β = 8, U = 6 the condition number
    // of I + B(β,0) wildly exceeds 1/ε, so naive inversion produces a G that
    // fails the defining identity, while the stratified G satisfies it.
    let (_, fac, h) = setup(3, 6.0, 64, 1);
    // Defining identity checked in wrapped form to avoid forming the full
    // product: G must satisfy B₀ G(0) = (I − G(slice-0 wrapped)) B₀ …
    // simpler: compare against a *double-precision-exhausting* reference:
    // both spins' stratified Gs satisfy G + B̂G′ relations; here we use the
    // anti-periodicity identity via the stable TDGF ladder.
    let cl = clusters(&fac, &h, 8, Spin::Up);
    let g_strat = greens_from_udt(&stratify(&cl, StratAlgo::PrePivot)).g;
    let gt = dqmc::unequal_time_greens_stable(&fac, &h, 8, Spin::Up);
    // The block method's G(0) is an independent stable evaluation.
    let rel = dqmc::greens::relative_difference(&g_strat, &gt[0]);
    assert!(rel < 1e-8, "stratified vs block-method G(0): {rel}");

    // The naive path visibly violates agreement at this β.
    let g_naive = dqmc::greens::greens_naive(&fac, &h, Spin::Up).g;
    let rel_naive = dqmc::greens::relative_difference(&g_naive, &gt[0]);
    assert!(
        rel_naive > 1e-6,
        "expected the naive inversion to have degraded: {rel_naive}"
    );
}

#[test]
fn algorithms_agree_across_beta() {
    // The Figure 2 claim must hold as the chain (and its condition number)
    // grows: the two stratification variants stay within ~1e-9 relative.
    for &slices in &[16usize, 32, 64] {
        let (_, fac, h) = setup(3, 4.0, slices, 2);
        let cl = clusters(&fac, &h, 8, Spin::Up);
        let g1 = greens_from_udt(&stratify(&cl, StratAlgo::Qrp)).g;
        let g2 = greens_from_udt(&stratify(&cl, StratAlgo::PrePivot)).g;
        let rel = dqmc::greens::relative_difference(&g2, &g1);
        assert!(rel < 1e-8, "L={slices}: {rel}");
    }
}

#[test]
fn algorithms_agree_through_the_scheduler() {
    // Figure 2 as a campaign: the grid's `algorithm` key reaches every
    // chain, keys its own cache entries, and the pooled scalars of the two
    // variants agree within 4σ.
    const GRID: &str = "lx = 2\nly = 2\nu = 2.0, 4.0\nbeta = 1.0, 2.0\nchains = 2\n\
                        warmup = 10\nsweeps = 40\nbin_size = 5\nk = 4\nseed = 5\n\
                        workers = 1\ndevices = 0\n";
    let prepivot = sched::GridSpec::parse(GRID).unwrap();
    let qrp = sched::GridSpec::parse(&format!("{GRID}algorithm = qrp\n")).unwrap();
    assert_ne!(
        sched::grid_fingerprint(&qrp),
        sched::grid_fingerprint(&prepivot)
    );
    for point in qrp.points() {
        assert_ne!(
            serve::point_key(&qrp, &point),
            serve::point_key(&prepivot, &point)
        );
        for chain in 0..qrp.chains {
            assert_eq!(qrp.chain_params(&point, chain).algo, StratAlgo::Qrp);
        }
    }
    let run = |spec: &sched::GridSpec| {
        sched::run_sweep(
            spec,
            &sched::SchedConfig::from_spec(spec),
            &sched::EventLog::new(),
        )
    };
    let (a, b) = (run(&qrp), run(&prepivot));
    assert_ne!(
        a.observables_json(),
        b.observables_json(),
        "same bits: qrp never ran"
    );
    for (pa, pb) in a.points.iter().zip(&b.points) {
        let (sa, sb) = (pa.scalars.as_ref().unwrap(), pb.scalars.as_ref().unwrap());
        for (name, x, y) in [
            ("sign", sa.sign, sb.sign),
            ("density", sa.density, sb.density),
            ("double_occ", sa.double_occ, sb.double_occ),
            ("kinetic", sa.kinetic, sb.kinetic),
            ("potential", sa.potential, sb.potential),
            ("saf", sa.saf, sb.saf),
        ] {
            let bound = 4.0 * x.1.hypot(y.1) + 1e-9;
            assert!(
                (x.0 - y.0).abs() <= bound,
                "point {} {name}: {x:?} vs {y:?}",
                pa.point
            );
        }
    }
}

#[test]
fn cluster_size_tradeoff_preserves_accuracy() {
    // k = 1 (stratify every slice) through k = 16: all must agree.
    let (_, fac, h) = setup(3, 5.0, 32, 3);
    let reference = {
        let cl = clusters(&fac, &h, 1, Spin::Up);
        greens_from_udt(&stratify(&cl, StratAlgo::Qrp)).g
    };
    for &k in &[2usize, 4, 8, 16] {
        let cl = clusters(&fac, &h, k, Spin::Up);
        let g = greens_from_udt(&stratify(&cl, StratAlgo::PrePivot)).g;
        let rel = dqmc::greens::relative_difference(&g, &reference);
        // Larger clusters lose a little grading resolution; the paper finds
        // k ≈ 10 acceptable. Everything should stay far below any physics
        // scale (the Metropolis ratios tolerate ~1e-6 comfortably).
        assert!(rel < 1e-7, "k={k}: {rel}");
    }
}

#[test]
fn wrap_error_grows_with_depth_but_stays_controlled() {
    // Repeated wrapping accumulates error; ℓ = k = 10 keeps it tiny — the
    // rationale for the paper's wrapping depth.
    // (Note: clusters of k = 8 here — building g0 from one k = 40 cluster
    // would itself destroy accuracy, the very reason the paper caps k ≈ 10.)
    let (_, fac, h) = setup(3, 4.0, 40, 4);
    let cl = clusters(&fac, &h, 8, Spin::Up);
    let g0 = greens_from_udt(&stratify(&cl, StratAlgo::PrePivot)).g;

    let mut g = g0.clone();
    let mut errs = Vec::new();
    for l in 0..20 {
        g = dqmc::greens::wrap(&fac, &h, l, Spin::Up, &g);
        // Reference: recompute from scratch at the wrapped position.
        let order: Vec<Matrix> = ((l + 1)..40)
            .chain(0..=l)
            .map(|s| fac.b_matrix(&h, s, Spin::Up))
            .collect();
        let gr = greens_from_udt(&stratify(&order, StratAlgo::PrePivot)).g;
        errs.push(dqmc::greens::relative_difference(&g, &gr));
    }
    // After 10 wraps (the paper's ℓ): still excellent.
    assert!(errs[9] < 1e-9, "wrap error at depth 10: {}", errs[9]);
    // Error does not shrink as depth grows (sanity on the monitor).
    assert!(errs[19] >= errs[0] * 0.01);
}

#[test]
fn over_clustering_degrades_accuracy() {
    // The flip side of §III-A2: clustering trades stability for speed, so
    // pushing k far beyond ~10 must visibly hurt — quantifying why the
    // paper stops at k = 10.
    let (_, fac, h) = setup(3, 4.0, 40, 4);
    let reference = {
        let cl = clusters(&fac, &h, 4, Spin::Up);
        greens_from_udt(&stratify(&cl, StratAlgo::Qrp)).g
    };
    let err_at = |k: usize| {
        let cl = clusters(&fac, &h, k, Spin::Up);
        let g = greens_from_udt(&stratify(&cl, StratAlgo::PrePivot)).g;
        dqmc::greens::relative_difference(&g, &reference)
    };
    let err_small = err_at(8);
    let err_huge = err_at(40); // the entire chain as one naive product
    assert!(err_small < 1e-8, "k=8 should be accurate: {err_small}");
    assert!(
        err_huge > 100.0 * err_small,
        "k=L should be much worse: {err_huge} vs {err_small}"
    );
}

#[test]
fn multilayer_free_fermions_exact() {
    // U = 0 on a 3-layer stack: the full DQMC pipeline must reproduce the
    // analytic G = (I + e^{−βK})⁻¹ to near machine precision, interface
    // geometry included.
    let lat = Lattice::multilayer(3, 3, 3, 1.0, 0.4);
    let model = ModelParams::new(lat.clone(), 0.0, 0.0, 0.125, 24);
    let fac = BMatrixFactory::new(&model);
    let mut rng = util::Rng::new(5);
    let h = HsField::random(model.nsites(), 24, &mut rng);
    let cl = clusters(&fac, &h, 8, Spin::Up);
    let g = greens_from_udt(&stratify(&cl, StratAlgo::PrePivot)).g;

    let k = lat.kinetic_matrix(0.0);
    let e = linalg::sym_expm(&k, -3.0).unwrap();
    let mut m = Matrix::identity(27);
    m.axpy(1.0, &e);
    let exact = linalg::lu::inverse(&m).unwrap();
    let rel = dqmc::greens::relative_difference(&g, &exact);
    assert!(rel < 1e-10, "{rel}");
}

#[test]
fn prepivot_interchange_count_shrinks_after_first_step() {
    // §IV-A: the iterates become progressively graded, so the pre-pivot
    // permutations quickly approach identity. Compare the displacement of
    // the *last* step's permutation against the first.
    let (_, fac, h) = setup(4, 6.0, 48, 6);
    let n = 16usize;
    let cl = clusters(&fac, &h, 8, Spin::Up);
    // Track interchanges step by step using the incremental API.
    let mut state = dqmc::StratifyState::new(&cl[0], StratAlgo::PrePivot);
    let mut per_step = vec![state.udt().interchanges];
    for b in &cl[1..] {
        let before = state.udt().interchanges;
        state.push(b);
        per_step.push(state.udt().interchanges - before);
    }
    // Later steps need clearly fewer interchanges than the worst case n.
    let tail_avg: f64 =
        per_step[2..].iter().map(|&x| x as f64).sum::<f64>() / (per_step.len() - 2) as f64;
    assert!(
        tail_avg < 0.9 * n as f64,
        "graded structure should limit reordering: avg {tail_avg} of {n}"
    );
}
