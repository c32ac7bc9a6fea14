//! Oracle for the factored kinetic products: `e^{∓ΔτK}` applied factor by
//! factor must match the dense GEMM with the multiplied-out matrix, on every
//! lattice shape the model builds; and where the factory keeps the dense
//! matrix (below `KRON_MIN_SITES`, or on a one-axis lattice) the product
//! must be that GEMM, byte for byte.

use dqmc::bmat::KRON_MIN_SITES;
use dqmc::{BMatrixFactory, HsField, ModelParams, Spin};
use lattice::Lattice;
use linalg::{gemm, Kron, Matrix, Op, Side};

/// `A · m` or `m · A` through [`Kron::apply`].
fn product(kron: &Kron, side: Side, m: &Matrix) -> Matrix {
    let (mut a, mut b) = (m.clone(), Matrix::zeros(m.nrows(), m.ncols()));
    match kron.apply(side, [&mut a, &mut b], 0) {
        0 => a,
        _ => b,
    }
}

/// `A · B` through the one dense GEMM.
fn dense(a: &Matrix, b: &Matrix) -> Matrix {
    let mut c = Matrix::zeros(a.nrows(), b.ncols());
    gemm(1.0, a, Op::NoTrans, b, Op::NoTrans, 0.0, &mut c);
    c
}

fn assert_close(got: &Matrix, want: &Matrix, scale: f64, what: &str) {
    let diff = got.max_abs_diff(want);
    assert!(
        diff <= 1e-13 * scale,
        "{what}: {diff:e} against ‖M‖ = {scale}"
    );
}

#[test]
fn factored_products_match_the_dense_gemm_on_every_shape() {
    let cases = [
        ("16x16", Lattice::square(16, 16, 1.0), 0.0),
        ("12x8, t != ty", Lattice::anisotropic(12, 8, 1.0, 0.6), 0.0),
        ("4x4x3 open", Lattice::multilayer(4, 4, 3, 1.0, 0.5), 0.0),
        (
            "4x4x3 periodic",
            Lattice::multilayer_periodic(4, 4, 3, 1.0, 0.5),
            0.0,
        ),
        ("16x16, mu != 0", Lattice::square(16, 16, 1.0), 0.35),
    ];
    for (what, lattice, mu) in cases {
        let n = lattice.nsites();
        let (fwd, bwd) = lattice.expk(0.125, mu);
        let (ffwd, fbwd) = lattice.expk_factors(0.125, mu);
        assert!(ffwd.len() >= 2, "{what}: separable into ≥ 2 factors");
        let mut rng = util::Rng::new(n as u64);
        let m = Matrix::random(n, n, &mut rng);
        let norm = m.norm_fro();
        for (e, factors, name) in [(&fwd, ffwd, "e^-dtauK"), (&bwd, fbwd, "e^+dtauK")] {
            let kron = Kron::new(factors);
            let out = product(&kron, Side::Left, &m);
            assert_close(&out, &dense(e, &m), norm, &format!("{what} {name} left"));
            let out = product(&kron, Side::Right, &m);
            assert_close(&out, &dense(&m, e), norm, &format!("{what} {name} right"));
        }
    }
}

/// The factory's two products against `V`-scaled dense GEMMs with
/// `fac.expk()` and `expk_inv`.
fn products(
    fac: &BMatrixFactory,
    expk_inv: &Matrix,
    h: &HsField,
    m: &Matrix,
) -> [(Matrix, Matrix); 2] {
    let n = fac.nsites();
    let v = fac.v_diag(h, 3, Spin::Down);
    let mut vm = m.clone();
    linalg::scale::row_scale(&v, &mut vm);
    let vinv: Vec<f64> = v.iter().map(|x| 1.0 / x).collect();
    let mut mv = m.clone();
    linalg::scale::col_scale(&vinv, &mut mv);
    let (mut left, mut right) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
    fac.b_mul_left_into(h, 3, Spin::Down, m, &mut left);
    fac.b_inv_mul_right_into(h, 3, Spin::Down, m, &mut right);
    [
        (left, dense(fac.expk(), &vm)),
        (right, dense(&mv, expk_inv)),
    ]
}

fn setup(lattice: Lattice, mu: f64) -> (ModelParams, HsField, Matrix) {
    let model = ModelParams::new(lattice, 4.0, mu, 0.125, 8);
    let n = model.nsites();
    let mut rng = util::Rng::new(5);
    let h = HsField::random(n, 8, &mut rng);
    let m = Matrix::random(n, n, &mut rng);
    (model, h, m)
}

#[test]
fn the_factory_factors_from_the_crossover_up() {
    let (model, h, m) = setup(Lattice::square(16, 16, 1.0), 0.2);
    assert!(model.nsites() >= KRON_MIN_SITES);
    let fac = BMatrixFactory::new(&model);
    assert_eq!(fac.expk_kron().factors().len(), 2);
    assert_eq!(fac.expk_inv_kron().factors().len(), 2);
    let (_, expk_inv) = model.lattice.expk(model.dtau, model.mu_tilde);
    for (got, want) in products(&fac, &expk_inv, &h, &m) {
        assert_close(&got, &want, m.norm_fro(), "16x16 factory");
    }
}

#[test]
fn below_the_crossover_and_on_one_axis_the_bytes_are_the_dense_gemm() {
    let small = setup(Lattice::square(8, 8, 1.0), 0.2);
    assert!(small.0.nsites() < KRON_MIN_SITES);
    let chain = setup(Lattice::square(128, 1, 1.0), 0.2);
    assert!(chain.0.nsites() >= KRON_MIN_SITES);
    let cases = [
        ("8x8", BMatrixFactory::new(&small.0), &small),
        ("128x1 chain", BMatrixFactory::new(&chain.0), &chain),
    ];
    for (what, fac, (_, h, m)) in cases {
        assert_eq!(fac.expk_kron().factors(), [fac.expk().clone()], "{what}");
        let [expk_inv] = fac.expk_inv_kron().factors() else {
            panic!("{what}: e^+dtauK must be one dense factor");
        };
        for (got, want) in products(&fac, expk_inv, h, m) {
            assert_eq!(got, want, "{what}");
        }
    }
}
