//! Property-based tests of the lattice substrate.

use lattice::Lattice;
use linalg::blas3::{matmul, Op};
use linalg::Matrix;
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(30))]

    #[test]
    fn site_coords_roundtrip(lx in 1usize..7, ly in 1usize..7, lz in 1usize..4) {
        let lat = Lattice::multilayer(lx, ly, lz, 1.0, 0.5);
        for i in 0..lat.nsites() {
            let (x, y, z) = lat.coords(i);
            prop_assert_eq!(lat.site(x, y, z), i);
        }
    }

    #[test]
    fn kinetic_matrix_always_symmetric(
        lx in 1usize..6, ly in 1usize..6, lz in 1usize..3,
        t in 0.1f64..2.0, tz in 0.0f64..2.0, mu in -1.0f64..1.0,
    ) {
        let lat = Lattice::multilayer(lx, ly, lz, t, tz);
        let k = lat.kinetic_matrix(mu);
        prop_assert!(linalg::eig::is_symmetric(&k, 1e-13));
        // Diagonal is exactly −μ̃.
        for i in 0..lat.nsites() {
            prop_assert_eq!(k[(i, i)], -mu);
        }
    }

    #[test]
    fn expk_pair_are_exact_inverses(
        lx in 1usize..6, ly in 1usize..6,
        dtau in 0.01f64..0.5, mu in -1.0f64..1.0,
    ) {
        let lat = Lattice::square(lx, ly, 1.0);
        let (fwd, bwd) = lat.expk(dtau, mu);
        let prod = matmul(&fwd, Op::NoTrans, &bwd, Op::NoTrans);
        prop_assert!(prod.max_abs_diff(&Matrix::identity(lat.nsites())) < 1e-11);
    }

    #[test]
    fn expk_matches_dense_eigensolve(
        lx in 2usize..5, ly in 2usize..5, dtau in 0.05f64..0.3,
    ) {
        let lat = Lattice::square(lx, ly, 1.0);
        let k = lat.kinetic_matrix(0.3);
        let (fwd, _) = lat.expk(dtau, 0.3);
        let dense = linalg::sym_expm(&k, -dtau).unwrap();
        prop_assert!(fwd.max_abs_diff(&dense) < 1e-11);
    }

    #[test]
    fn translation_average_of_symmetric_input_is_symmetric(
        lx in 2usize..6, ly in 2usize..6, seed in 0u64..1000,
    ) {
        let lat = Lattice::square(lx, ly, 1.0);
        let n = lat.nsites();
        let mut rng = util::Rng::new(seed);
        let m0 = Matrix::random(n, n, &mut rng);
        let mut m = m0.clone();
        m.axpy(1.0, &m0.transpose());
        let c = lattice::translation_average(&lat, &m);
        // C(d) = C(−d) for symmetric m.
        for dy in 0..ly {
            for dx in 0..lx {
                let (mx, my) = ((lx - dx) % lx, (ly - dy) % ly);
                prop_assert!((c[(dx, dy)] - c[(mx, my)]).abs() < 1e-10);
            }
        }
    }
}
