//! Time-dependent (unequal-time) measurements.
//!
//! QUEST measures both static and *dynamic* observables; the dynamic ones
//! rest on the unequal-time Green's function
//!
//! ```text
//! G_σ(τ, 0) = ⟨c_σ(τ) c†_σ(0)⟩ = B_σ(τ, 0) · G_σ(0),
//! ```
//!
//! whose naive evaluation suffers exactly the instability the stratification
//! machinery exists to prevent. [`unequal_time_greens_stable`] never forms
//! the long product: it reads every `G(τ_c, 0)` off one LU solve of the
//! Loh–Gubernatis block matrix built from the `L/k` cluster products, which
//! stays accurate at any β. `Walker::finish_sweep` calls it once per spin
//! at the end of each measurement sweep.
//!
//! From `G(τ,0)` this module measures:
//! - the local imaginary-time Green's function `G_loc(τ) = Tr G(τ,0)/N`
//!   (the input to analytic continuation for the density of states),
//! - the momentum-resolved `G_k(τ)` at selected momenta (Γ, M, X), whose
//!   τ decay rates read off quasiparticle energies.

use crate::bmat::BMatrixFactory;
use crate::hs::HsField;
use crate::hubbard::Spin;
use lattice::{fourier, Lattice};
use linalg::Matrix;
use util::BinnedAccumulator;

/// Stable unequal-time Green's functions via the Loh–Gubernatis block
/// matrix: `G(τ_c, 0)` for `c = 0 .. L/k` from one LU solve of the
/// `(L_k·N) × (L_k·N)` matrix
///
/// ```text
///      ⎡  I                   B̂_Lk ⎤
///      ⎢ −B̂_1   I                  ⎥
/// O =  ⎢        −B̂_2   I           ⎥ ,   O⁻¹ block (c, 0) = G(τ_c, 0).
///      ⎣                ⋱     I    ⎦
/// ```
///
/// A forward propagation `B(τ,0)·G(0)` would amplify the O(ε) error of
/// `G(0)` by `‖B(τ,0)‖`; this never forms long products at all, so it stays
/// accurate at any β — at O((L_k N)³) cost.
/// Returns `L_k + 1` matrices; the last is `G(β,0) = I − G(0)` by
/// anti-periodicity.
pub fn unequal_time_greens_stable(
    fac: &BMatrixFactory,
    h: &HsField,
    k: usize,
    spin: Spin,
) -> Vec<Matrix> {
    let slices = h.slices();
    assert!(k >= 1 && k <= slices, "cluster size out of range");
    let n = fac.nsites();
    // Cluster products B̂_1 … B̂_Lk.
    let mut clusters = Vec::new();
    let mut lo = 0;
    while lo < slices {
        let hi = (lo + k).min(slices);
        clusters.push(fac.cluster(h, lo, hi, spin));
        lo = hi;
    }
    let lk = clusters.len();
    let dim = lk * n;
    let mut big = Matrix::zeros(dim, dim);
    for b in 0..lk {
        for i in 0..n {
            big[(b * n + i, b * n + i)] = 1.0;
        }
    }
    // Sub-diagonal blocks −B̂_{b+1} at (b+1, b); corner +B̂_Lk … for Lk = 1
    // the corner and diagonal coincide: O = I + B̂_1.
    for b in 0..lk {
        let (br, bc, sign, mat) = if b + 1 < lk {
            (b + 1, b, -1.0, &clusters[b])
        } else {
            (0, lk - 1, 1.0, &clusters[lk - 1])
        };
        for j in 0..n {
            for i in 0..n {
                big[(br * n + i, bc * n + j)] += sign * mat[(i, j)];
            }
        }
    }
    let f = linalg::lu::lu_in_place(big).expect("block TDGF matrix singular");
    // Solve against the first block column of the identity.
    let mut rhs = Matrix::zeros(dim, n);
    for i in 0..n {
        rhs[(i, i)] = 1.0;
    }
    f.solve_in_place(&mut rhs);
    linalg::check_finite!(
        rhs.as_slice(),
        "unequal_time_greens_stable solve ({dim}x{n})"
    );
    let mut out: Vec<Matrix> = (0..lk).map(|c| rhs.submatrix(c * n, 0, n, n)).collect();
    // Append G(β,0) = I − G(0).
    let mut last = Matrix::identity(n);
    last.axpy(-1.0, &out[0]);
    out.push(last);
    out
}

/// Accumulated time-dependent observables.
#[derive(Clone, Debug)]
pub struct TimeDependentObs {
    lat: Lattice,
    /// τ value of each grid point.
    taus: Vec<f64>,
    /// Sign-weighted accumulators of `G_loc(τ_c)` (spin-averaged).
    gloc: Vec<BinnedAccumulator>,
    /// Sign-weighted accumulators of `G_k(τ_c)` at (Γ, M, X).
    gk: Vec<[BinnedAccumulator; 3]>,
    sign: BinnedAccumulator,
    count: usize,
}

/// The momenta tracked by [`TimeDependentObs`]: Γ=(0,0), M=(π,π), X=(π,0).
pub const TRACKED_K: [&str; 3] = ["Gamma", "M", "X"];

impl TimeDependentObs {
    /// Creates accumulators for `nclusters + 1` τ points spaced `k·Δτ`.
    pub fn new(lat: &Lattice, k: usize, slices: usize, dtau: f64, bin: usize) -> Self {
        let npts = slices.div_ceil(k) + 1;
        let taus = (0..npts)
            .map(|c| (c * k).min(slices) as f64 * dtau)
            .collect();
        TimeDependentObs {
            lat: lat.clone(),
            taus,
            gloc: vec![BinnedAccumulator::new(bin); npts],
            gk: (0..npts)
                .map(|_| {
                    [
                        BinnedAccumulator::new(bin),
                        BinnedAccumulator::new(bin),
                        BinnedAccumulator::new(bin),
                    ]
                })
                .collect(),
            sign: BinnedAccumulator::new(bin),
            count: 0,
        }
    }

    /// Records one configuration's `G(τ_c,0)` ladders (both spins) with its
    /// fermion sign.
    pub fn record(&mut self, gtau_up: &[Matrix], gtau_dn: &[Matrix], sign: f64) {
        assert_eq!(gtau_up.len(), self.taus.len(), "τ grid mismatch");
        assert_eq!(gtau_dn.len(), self.taus.len(), "τ grid mismatch");
        let n = self.lat.nsites() as f64;
        let (lx, ly) = (self.lat.lx(), self.lat.ly());
        for (c, (gu, gd)) in gtau_up.iter().zip(gtau_dn.iter()).enumerate() {
            let mut tr = 0.0;
            for i in 0..self.lat.nsites() {
                tr += gu[(i, i)] + gd[(i, i)];
            }
            self.gloc[c].push(sign * tr / (2.0 * n));
            // G_k(τ) = (1/N) Σ_{r r'} e^{ik(r−r')} G(τ)[(r, r')]: use the
            // translation average + cosine transform at the three momenta.
            let avg = {
                let mut m = gu.clone();
                m.axpy(1.0, gd);
                m.scale(0.5);
                fourier::translation_average(&self.lat, &m)
            };
            let kpts = [(0usize, 0usize), (lx / 2, ly / 2), (lx / 2, 0)];
            for (ki, &(nx, ny)) in kpts.iter().enumerate() {
                let mut s = 0.0;
                for dy in 0..ly {
                    for dx in 0..lx {
                        let phase = 2.0
                            * std::f64::consts::PI
                            * (nx as f64 * dx as f64 / lx as f64
                                + ny as f64 * dy as f64 / ly as f64);
                        s += phase.cos() * avg[(dx, dy)];
                    }
                }
                self.gk[c][ki].push(sign * s);
            }
        }
        self.sign.push(sign);
        self.count += 1;
    }

    /// The τ grid.
    pub fn taus(&self) -> &[f64] {
        &self.taus
    }

    /// Recorded configuration count.
    pub fn count(&self) -> usize {
        self.count
    }

    /// `G_loc(τ_c)` estimates with errors (sign-normalised).
    pub fn gloc(&self) -> Vec<(f64, f64)> {
        let (s, _) = self.sign.mean_and_err();
        self.gloc
            .iter()
            .map(|a| {
                let (v, e) = a.mean_and_err();
                (v / s, e / s.abs())
            })
            .collect()
    }

    /// `G_k(τ_c)` for tracked momentum index `ki` (0 = Γ, 1 = M, 2 = X).
    pub fn gk(&self, ki: usize) -> Vec<(f64, f64)> {
        let (s, _) = self.sign.mean_and_err();
        self.gk
            .iter()
            .map(|a| {
                let (v, e) = a[ki].mean_and_err();
                (v / s, e / s.abs())
            })
            .collect()
    }

    /// Serializes the τ grid and every accumulator for checkpointing. The
    /// lattice is rebuilt by the caller on decode.
    pub fn encode(&self, w: &mut util::codec::ByteWriter) {
        w.put_f64_slice(&self.taus);
        for a in &self.gloc {
            a.encode(w);
        }
        for trio in &self.gk {
            for a in trio {
                a.encode(w);
            }
        }
        self.sign.encode(w);
        w.put_u64(self.count as u64);
    }

    /// Deserializes accumulators written by [`TimeDependentObs::encode`]
    /// against the given lattice.
    pub fn decode(
        lat: &Lattice,
        r: &mut util::codec::ByteReader<'_>,
    ) -> Result<Self, util::codec::CodecError> {
        let taus = r.get_f64_vec()?;
        if taus.is_empty() {
            return Err(util::codec::CodecError::Invalid("empty τ grid".into()));
        }
        // Grown, not reserved for: an accumulator in memory is larger than
        // its smallest encoding, and `taus.len()` came from the input.
        let mut gloc = Vec::new();
        for _ in 0..taus.len() {
            gloc.push(BinnedAccumulator::decode(r)?);
        }
        let mut gk = Vec::new();
        for _ in 0..taus.len() {
            gk.push([
                BinnedAccumulator::decode(r)?,
                BinnedAccumulator::decode(r)?,
                BinnedAccumulator::decode(r)?,
            ]);
        }
        let sign = BinnedAccumulator::decode(r)?;
        let count = r.get_u64()? as usize;
        Ok(TimeDependentObs {
            lat: lat.clone(),
            taus,
            gloc,
            gk,
            sign,
            count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::greens::greens_naive;
    use crate::hubbard::ModelParams;
    use linalg::blas3::{matmul, Op};

    fn setup(u: f64, slices: usize) -> (ModelParams, BMatrixFactory, HsField) {
        let model = ModelParams::new(Lattice::square(3, 3, 1.0), u, 0.0, 0.125, slices);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(31);
        let h = HsField::random(model.nsites(), slices, &mut rng);
        (model, fac, h)
    }

    #[test]
    fn u_zero_matches_analytic_propagator() {
        // U = 0: G(τ,0) = e^{−τK}(I + e^{−βK})⁻¹ exactly.
        let (model, fac, h) = setup(0.0, 16);
        let g0 = greens_naive(&fac, &h, Spin::Up);
        let gt = unequal_time_greens_stable(&fac, &h, 4, Spin::Up);
        let kmat = model.lattice.kinetic_matrix(model.mu_tilde);
        for (c, got) in gt.iter().enumerate() {
            let tau = (4 * c) as f64 * model.dtau;
            let prop = linalg::sym_expm(&kmat, -tau).unwrap();
            let expect = matmul(&prop, Op::NoTrans, &g0.g, Op::NoTrans);
            assert!(
                got.max_abs_diff(&expect) < 1e-9,
                "τ={tau}: {}",
                got.max_abs_diff(&expect)
            );
        }
    }

    #[test]
    fn boundary_condition_g_beta_plus_g_zero() {
        // Anti-periodicity: B(β,0)G(0) = I − G(0), since (I + B)G = I. The
        // block method appends G(β,0) this way, so this checks its G(0)
        // against the naive equal-time inverse.
        let (_, fac, h) = setup(5.0, 16);
        let g0 = greens_naive(&fac, &h, Spin::Down);
        let gt = unequal_time_greens_stable(&fac, &h, 4, Spin::Down);
        let last = gt.last().unwrap();
        let mut expect = Matrix::identity(9);
        expect.axpy(-1.0, &g0.g);
        assert!(
            last.max_abs_diff(&expect) < 1e-9,
            "{}",
            last.max_abs_diff(&expect)
        );
    }

    #[test]
    fn tau_zero_is_equal_time_g() {
        let (_, fac, h) = setup(4.0, 8);
        let g0 = greens_naive(&fac, &h, Spin::Up);
        let gt = unequal_time_greens_stable(&fac, &h, 4, Spin::Up);
        assert_eq!(gt.len(), 3); // τ = 0, kΔτ, 2kΔτ = β

        // G(0) is the first block of the block-LU solve, an independent
        // computation from the naive inverse: they agree to a few ulps.
        let err = gt[0].max_abs_diff(&g0.g);
        assert!(err < 1e-14, "{err}");
    }

    #[test]
    fn matches_naive_product_short_chain() {
        // Short, well-conditioned chain: B(τ,0)·G(0) computable directly.
        let (_, fac, h) = setup(4.0, 8);
        let g0 = greens_naive(&fac, &h, Spin::Up);
        let gt = unequal_time_greens_stable(&fac, &h, 4, Spin::Up);
        for (c, got) in gt.iter().enumerate().skip(1) {
            let b = fac.cluster(&h, 0, 4 * c, Spin::Up);
            let naive = matmul(&b, Op::NoTrans, &g0.g, Op::NoTrans);
            let scale = naive.max_abs().max(1e-300);
            assert!(
                got.max_abs_diff(&naive) / scale < 1e-10,
                "c={c}: {}",
                got.max_abs_diff(&naive) / scale
            );
        }
    }

    #[test]
    fn stable_block_method_matches_naive_short_chain() {
        let (_, fac, h) = setup(4.0, 8);
        let g0 = greens_naive(&fac, &h, Spin::Up);
        let gt = unequal_time_greens_stable(&fac, &h, 4, Spin::Up);
        assert_eq!(gt.len(), 3);
        assert!(gt[0].max_abs_diff(&g0.g) < 1e-10);
        let b = fac.cluster(&h, 0, 4, Spin::Up);
        let naive = matmul(&b, Op::NoTrans, &g0.g, Op::NoTrans);
        assert!(gt[1].max_abs_diff(&naive) < 1e-9);
    }

    #[test]
    fn stable_long_chain_satisfies_boundary_and_bounds() {
        // β = 8, U = 6 (64 slices): the raw product spans ~40 orders of
        // magnitude. The block method must stay finite, respect the
        // anti-periodicity identity by construction, and keep every
        // G(τ,0) bounded (all singular values of the true TDGF are ≤ 1).
        let (_, fac, h) = setup(6.0, 64);
        let gt = unequal_time_greens_stable(&fac, &h, 8, Spin::Up);
        assert_eq!(gt.len(), 9);
        for (c, g) in gt.iter().enumerate() {
            assert!(g.as_slice().iter().all(|x| x.is_finite()));
            // For normal B-chains σ(G(τ,0)) ≤ 1; non-normality allows mild
            // excursions, but nothing like the ~1e20 of the raw product.
            assert!(g.max_abs() < 1e3, "c={c}: ‖G(τ,0)‖ = {}", g.max_abs());
        }
        // Consistency: G(τ_1, 0) = B̂_1 G(0) — here B̂_1 is a single
        // cluster (8 slices), short enough to apply directly.
        let b1 = fac.cluster(&h, 0, 8, Spin::Up);
        let expect = matmul(&b1, Op::NoTrans, &gt[0], Op::NoTrans);
        let scale = expect.max_abs().max(1e-6);
        assert!(
            gt[1].max_abs_diff(&expect) / scale < 1e-6,
            "{}",
            gt[1].max_abs_diff(&expect) / scale
        );
    }

    #[test]
    fn observable_accumulator_shapes() {
        let (model, fac, h) = setup(4.0, 8);
        let gu = unequal_time_greens_stable(&fac, &h, 4, Spin::Up);
        let gd = unequal_time_greens_stable(&fac, &h, 4, Spin::Down);
        let mut obs = TimeDependentObs::new(&model.lattice, 4, 8, model.dtau, 1);
        obs.record(&gu, &gd, 1.0);
        assert_eq!(obs.count(), 1);
        assert_eq!(obs.taus().len(), 3);
        let gloc = obs.gloc();
        assert_eq!(gloc.len(), 3);
        // τ=0 local G: trace/N of equal-time G, about 0.5 at half filling.
        assert!((gloc[0].0 - 0.5).abs() < 0.3, "{}", gloc[0].0);
        for ki in 0..3 {
            assert_eq!(obs.gk(ki).len(), 3);
        }
    }
}
