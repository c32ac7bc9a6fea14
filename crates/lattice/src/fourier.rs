//! Translation averaging and momentum-space transforms.
//!
//! The paper's Figure 5/6 observable is the momentum distribution
//! `⟨n_k⟩ = (1/N) Σ_{r,r'} e^{ik·(r−r')} ⟨c†_{r'} c_r⟩`. On a periodic
//! lattice the double sum collapses: first translation-average the
//! correlation matrix into `C(d) = (1/N) Σ_r ⟨c†_r c_{r+d}⟩` (O(N²)), then
//! Fourier transform the `N`-vector `C` (O(N²) for all k). The ensemble's
//! `C` is `d ↔ −d` symmetric and its transform real; one configuration's
//! `C` is not, and the cosine transform takes its symmetric part.

use crate::geometry::Lattice;
use linalg::Matrix;

/// In-plane translation average of a site-pair function:
/// `out[(dx, dy)] = (1/N) Σ_sites m[site ⊞ (dx,dy), site]`, where `⊞` is the
/// periodic in-plane shift within the site's own layer and the sum runs over
/// all `N` sites (all layers).
pub fn translation_average(lat: &Lattice, m: &Matrix) -> Matrix {
    let n = lat.nsites();
    assert_eq!(m.nrows(), n, "translation_average: matrix/lattice mismatch");
    assert_eq!(m.ncols(), n, "translation_average: matrix/lattice mismatch");
    let (lx, ly) = (lat.lx(), lat.ly());
    let mut out = Matrix::zeros(lx, ly);
    for i in 0..n {
        let (x, y, z) = lat.coords(i);
        for dy in 0..ly {
            for dx in 0..lx {
                let j = lat.site((x + dx) % lx, (y + dy) % ly, z);
                out[(dx, dy)] += m[(j, i)];
            }
        }
    }
    out.scale(1.0 / n as f64);
    out
}

/// Discrete Fourier transform of a translation-averaged correlation:
/// `out[(nx, ny)] = Σ_d cos(k·d) C(d)` with `k = 2π(nx/Lx, ny/Ly)`.
///
/// Since `cos` is even, this is the transform of the inversion-symmetrised
/// `(C(d) + C(−d))/2`: the estimate of the ensemble's symmetric correlation,
/// whose sine part vanishes. A finite sample's `C` — one configuration's
/// `⟨c†c⟩`, a bin of a few sweeps — is not symmetric, and its antisymmetric
/// part is noise this drops. A non-finite input (a missing estimate)
/// transforms to NaN.
pub fn fourier_transform(lat: &Lattice, corr: &Matrix) -> Matrix {
    use std::f64::consts::PI;
    let (lx, ly) = (lat.lx(), lat.ly());
    assert_eq!(corr.nrows(), lx, "fourier_transform: corr shape");
    assert_eq!(corr.ncols(), ly, "fourier_transform: corr shape");
    let mut out = Matrix::zeros(lx, ly);
    for ny in 0..ly {
        for nx in 0..lx {
            let kx = 2.0 * PI * nx as f64 / lx as f64;
            let ky = 2.0 * PI * ny as f64 / ly as f64;
            let mut re = 0.0;
            for dy in 0..ly {
                for dx in 0..lx {
                    let phase = kx * dx as f64 + ky * dy as f64;
                    re += phase.cos() * corr[(dx, dy)];
                }
            }
            out[(nx, ny)] = re;
        }
    }
    out
}

/// Momentum distribution from a density correlation matrix
/// `dm[(r, r')] = ⟨c†_{r'} c_r⟩`: translation-average then transform.
pub fn momentum_distribution(lat: &Lattice, dm: &Matrix) -> Matrix {
    let c = translation_average(lat, dm);
    fourier_transform(lat, &c)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn translation_average_of_identity() {
        let lat = Lattice::square(4, 4, 1.0);
        let c = translation_average(&lat, &Matrix::identity(16));
        assert!((c[(0, 0)] - 1.0).abs() < 1e-15);
        for dy in 0..4 {
            for dx in 0..4 {
                if (dx, dy) != (0, 0) {
                    assert_eq!(c[(dx, dy)], 0.0);
                }
            }
        }
    }

    #[test]
    fn translation_average_of_shift_matrix() {
        // m[j, i] = 1 iff j = i shifted by (1, 0): average is δ_{d,(1,0)}.
        let lat = Lattice::square(4, 4, 1.0);
        let mut m = Matrix::zeros(16, 16);
        for i in 0..16 {
            let (x, y, z) = lat.coords(i);
            let j = lat.site((x + 1) % 4, y, z);
            m[(j, i)] = 1.0;
        }
        let c = translation_average(&lat, &m);
        assert!((c[(1, 0)] - 1.0).abs() < 1e-15);
        assert_eq!(c[(0, 0)], 0.0);
        assert_eq!(c[(2, 0)], 0.0);
    }

    #[test]
    fn a_non_symmetric_correlation_transforms_as_its_symmetric_part() {
        // One configuration's C(d) is not inversion-symmetric; the cosine
        // transform is that of (C(d) + C(−d))/2, on a square and a
        // rectangular lattice.
        for (lx, ly) in [(4, 4), (6, 3)] {
            let lat = Lattice::square(lx, ly, 1.0);
            let mut rng = util::Rng::new(5);
            let c = Matrix::random(lx, ly, &mut rng);
            let sym = Matrix::from_fn(lx, ly, |dx, dy| {
                (c[(dx, dy)] + c[((lx - dx) % lx, (ly - dy) % ly)]) / 2.0
            });
            assert!(c.max_abs_diff(&sym) > 0.1, "the sample is not symmetric");
            let (nk, nk_sym) = (fourier_transform(&lat, &c), fourier_transform(&lat, &sym));
            assert!(
                nk.max_abs_diff(&nk_sym) < 1e-13,
                "{}",
                nk.max_abs_diff(&nk_sym)
            );
        }
    }

    #[test]
    fn a_nan_correlation_transforms_to_nan() {
        // A missing estimate is NaN, and transforms to NaN.
        let lat = Lattice::square(4, 4, 1.0);
        let mut c = Matrix::zeros(4, 4);
        c[(1, 0)] = f64::NAN;
        let nk = fourier_transform(&lat, &c);
        assert!(nk.as_slice().iter().all(|x| x.is_nan()));
        let dm = Matrix::from_fn(16, 16, |_, _| f64::NAN);
        let nk = momentum_distribution(&lat, &dm);
        assert!(nk.as_slice().iter().all(|x| x.is_nan()));
    }

    #[test]
    fn fourier_of_delta_is_flat() {
        let lat = Lattice::square(4, 4, 1.0);
        let mut c = Matrix::zeros(4, 4);
        c[(0, 0)] = 1.0;
        let nk = fourier_transform(&lat, &c);
        for ny in 0..4 {
            for nx in 0..4 {
                assert!((nk[(nx, ny)] - 1.0).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn fourier_of_cosine_is_peak() {
        // C(d) = cos(2π dx / L): transform peaks at nx = ±1 with weight L²/2.
        let lat = Lattice::square(8, 8, 1.0);
        use std::f64::consts::PI;
        let c = Matrix::from_fn(8, 8, |dx, _| (2.0 * PI * dx as f64 / 8.0).cos());
        let nk = fourier_transform(&lat, &c);
        assert!((nk[(1, 0)] - 32.0).abs() < 1e-10);
        assert!((nk[(7, 0)] - 32.0).abs() < 1e-10);
        assert!(nk[(0, 0)].abs() < 1e-10);
        assert!(nk[(2, 0)].abs() < 1e-10);
    }

    #[test]
    fn momentum_distribution_total_density_sum_rule() {
        // Σ_k n_k = Σ_r ⟨c†_r c_r⟩ = N·ρ for dm = ρ·I (up to the 1/N in the
        // translation average and the N k-points: Σ_k n_k = N · C(0) = N·ρ).
        let lat = Lattice::square(4, 4, 1.0);
        let mut dm = Matrix::identity(16);
        dm.scale(0.5);
        let nk = momentum_distribution(&lat, &dm);
        let total: f64 = nk.as_slice().iter().sum();
        assert!((total - 16.0 * 0.5).abs() < 1e-12);
    }

    #[test]
    fn multilayer_translation_average_stays_in_layer() {
        let lat = Lattice::multilayer(2, 2, 2, 1.0, 0.5);
        // Pair function connecting different layers only: in-plane average
        // must be zero everywhere.
        let mut m = Matrix::zeros(8, 8);
        for x in 0..2 {
            for y in 0..2 {
                m[(lat.site(x, y, 1), lat.site(x, y, 0))] = 1.0;
            }
        }
        let c = translation_average(&lat, &m);
        assert_eq!(c.max_abs(), 0.0);
    }

    #[test]
    #[should_panic(expected = "mismatch")]
    fn shape_mismatch_panics() {
        let lat = Lattice::square(4, 4, 1.0);
        let _ = translation_average(&lat, &Matrix::identity(9));
    }
}
