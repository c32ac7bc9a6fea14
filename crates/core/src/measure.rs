//! Equal-time physical measurements (§V of the paper).
//!
//! All observables derive from the equal-time Green's functions via Wick's
//! theorem at fixed Hubbard–Stratonovich configuration. Conventions:
//!
//! - `G_σ[(i, j)] = ⟨c_i c†_j⟩_σ`, so `⟨c†_j c_i⟩_σ = δ_ij − G_σ[(i, j)]`,
//! - densities: `⟨n_{r,σ}⟩ = 1 − G_σ[(r, r)]`,
//! - momentum distribution: Fourier transform of `I − G` (Figure 5/6),
//! - spin–spin correlation `C_zz(r)` (Figure 7) and the antiferromagnetic
//!   structure factor `S(π,π)`,
//! - kinetic/interaction energies and double occupancy.
//!
//! Away from half filling configurations carry a fermion sign; every
//! observable is accumulated sign-weighted, normalised by ⟨sign⟩, and given
//! the delete-one jackknife error of that ratio.

use crate::hubbard::ModelParams;
use lattice::{fourier, Lattice};
use linalg::Matrix;
use util::BinnedAccumulator;

/// Scalar observables with delete-one jackknife `(value, error)` pairs,
/// produced by [`Observables::jackknife_scalars`]. Each ratio observable is
/// jackknifed jointly with the sign, so the error bars stay honest away
/// from half filling where ⟨sign⟩ < 1.
#[derive(Clone, Copy, Debug)]
pub struct JackknifeScalars {
    /// Average fermion sign ⟨s⟩.
    pub sign: (f64, f64),
    /// Electron density ⟨ρ⟩ per site.
    pub density: (f64, f64),
    /// Double occupancy ⟨n₊n₋⟩ per site.
    pub double_occ: (f64, f64),
    /// Kinetic energy per site.
    pub kinetic: (f64, f64),
    /// Potential energy per site.
    pub potential: (f64, f64),
    /// Antiferromagnetic structure factor S(π,π).
    pub saf: (f64, f64),
}

/// Scalar + lattice-resolved observables accumulated over a run.
#[derive(Clone, Debug)]
pub struct Observables {
    lat: Lattice,
    hop: Matrix,
    sign: BinnedAccumulator,
    density: BinnedAccumulator,
    double_occ: BinnedAccumulator,
    kinetic: BinnedAccumulator,
    potential: BinnedAccumulator,
    saf: BinnedAccumulator,
    /// Sign-weighted Σ C(d) over configurations (lx × ly).
    czz_sum: Matrix,
    /// Sign-weighted Σ ⟨c†c⟩ translation average (lx × ly).
    dm_corr_sum: Matrix,
    /// Sign-weighted Σ s-wave pair correlation P_s(d) (lx × ly).
    pair_sum: Matrix,
    /// Σ sign over recorded configurations.
    weight: f64,
    count: usize,
}

impl Observables {
    /// Creates an empty accumulator for a model (the hopping matrix is kept
    /// for kinetic-energy measurements) with the given bin size.
    pub fn new(model: &ModelParams, bin_size: usize) -> Self {
        let lat = model.lattice.clone();
        // Hopping-only matrix: kinetic energy excludes the chemical potential.
        let hop = lat.kinetic_matrix(0.0);
        Observables {
            czz_sum: Matrix::zeros(lat.lx(), lat.ly()),
            dm_corr_sum: Matrix::zeros(lat.lx(), lat.ly()),
            pair_sum: Matrix::zeros(lat.lx(), lat.ly()),
            lat,
            hop,
            sign: BinnedAccumulator::new(bin_size),
            density: BinnedAccumulator::new(bin_size),
            double_occ: BinnedAccumulator::new(bin_size),
            kinetic: BinnedAccumulator::new(bin_size),
            potential: BinnedAccumulator::new(bin_size),
            saf: BinnedAccumulator::new(bin_size),
            weight: 0.0,
            count: 0,
        }
    }

    /// Records one configuration from its Green's functions and sign.
    pub fn record(&mut self, u: f64, gup: &Matrix, gdn: &Matrix, sign: f64) {
        let n = self.lat.nsites();
        assert_eq!(gup.nrows(), n, "G↑/lattice mismatch");
        assert_eq!(gdn.nrows(), n, "G↓/lattice mismatch");

        // Site densities.
        let nup: Vec<f64> = (0..n).map(|r| 1.0 - gup[(r, r)]).collect();
        let ndn: Vec<f64> = (0..n).map(|r| 1.0 - gdn[(r, r)]).collect();
        let rho: f64 = nup.iter().zip(ndn.iter()).map(|(a, b)| a + b).sum::<f64>() / n as f64;
        let docc: f64 = nup.iter().zip(ndn.iter()).map(|(a, b)| a * b).sum::<f64>() / n as f64;

        // Kinetic energy per site: Σ_{r≠r'} K_hop[r,r'] ⟨c†_r c_{r'}⟩, both spins.
        let mut ekin = 0.0;
        for r in 0..n {
            for (rp, mult) in self.lat.neighbor_bonds(r) {
                let kamp = self.hop[(r, rp)];
                let _ = mult; // multiplicity already folded into the matrix
                              // ⟨c†_r c_{r'}⟩_σ = δ_{r r'} − G_σ[(r', r)]; r ≠ r' on bonds.
                ekin += kamp * (-gup[(rp, r)] - gdn[(rp, r)]);
            }
        }
        ekin /= n as f64;

        // Potential energy per site: U ⟨n₊ n₋⟩.
        let epot = u * docc;

        // Spin–spin correlation matrix C[(b, a)] = ⟨S^z_b S^z_a⟩ (×4: the
        // paper's convention uses (n₊ − n₋), not S^z = (n₊ − n₋)/2).
        let mut c = Matrix::zeros(n, n);
        for a in 0..n {
            for b in 0..n {
                let delta = if a == b { 1.0 } else { 0.0 };
                // ⟨n_b n_a⟩_σ = ⟨n_b⟩⟨n_a⟩ + ⟨c†_b c_a⟩⟨c_b c†_a⟩ with
                // ⟨c†_b c_a⟩ = δ_ab − G[(a, b)] and ⟨c_b c†_a⟩ = G[(b, a)].
                let same_up = nup[b] * nup[a] + (delta - gup[(a, b)]) * gup[(b, a)];
                let same_dn = ndn[b] * ndn[a] + (delta - gdn[(a, b)]) * gdn[(b, a)];
                let cross = nup[b] * ndn[a] + ndn[b] * nup[a];
                c[(b, a)] = same_up + same_dn - cross;
            }
        }
        let czz = fourier::translation_average(&self.lat, &c);

        // S(π,π): staggered sum of C_zz over displacements (per the usual
        // structure-factor definition S_AF = Σ_d (−1)^{dx+dy} C_zz(d)).
        let mut saf = 0.0;
        for dy in 0..self.lat.ly() {
            for dx in 0..self.lat.lx() {
                let par = if (dx + dy) % 2 == 0 { 1.0 } else { -1.0 };
                saf += par * czz[(dx, dy)];
            }
        }

        // Density correlation translation average for ⟨n_k⟩: spin-averaged
        // dm[(r, r')] = ⟨c†_{r'} c_r⟩ = δ − G.
        let mut dm = Matrix::identity(n);
        dm.axpy(-0.5, gup);
        dm.axpy(-0.5, gdn);
        let dm_avg = fourier::translation_average(&self.lat, &dm);

        // s-wave pair correlation P_s(b−a) = ⟨Δ_b Δ†_a⟩ with
        // Δ_a = c_{a↓} c_{a↑}; Wick factorises by spin: G↑[(b,a)]·G↓[(b,a)].
        let mut pair = Matrix::zeros(n, n);
        for a in 0..n {
            for b in 0..n {
                pair[(b, a)] = gup[(b, a)] * gdn[(b, a)];
            }
        }
        let pair_avg = fourier::translation_average(&self.lat, &pair);

        // Sign-weighted accumulation.
        self.sign.push(sign);
        self.density.push(sign * rho);
        self.double_occ.push(sign * docc);
        self.kinetic.push(sign * ekin);
        self.potential.push(sign * epot);
        self.saf.push(sign * saf);
        let mut w_czz = czz;
        w_czz.scale(sign);
        self.czz_sum.axpy(1.0, &w_czz);
        let mut w_dm = dm_avg;
        w_dm.scale(sign);
        self.dm_corr_sum.axpy(1.0, &w_dm);
        let mut w_pair = pair_avg;
        w_pair.scale(sign);
        self.pair_sum.axpy(1.0, &w_pair);
        self.weight += sign;
        self.count += 1;
    }

    /// Number of recorded configurations.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Number of complete measurement bins accumulated (a trailing partial
    /// bin is excluded, matching what the jackknife resamples).
    pub fn bin_count(&self) -> usize {
        self.sign.bins().len()
    }

    /// Merges another accumulator (an independent Markov chain over the
    /// same model and bin size) into this one.
    pub fn merge(&mut self, other: &Observables) {
        assert_eq!(
            self.lat, other.lat,
            "cannot merge observables from different lattices"
        );
        self.sign.merge(&other.sign);
        self.density.merge(&other.density);
        self.double_occ.merge(&other.double_occ);
        self.kinetic.merge(&other.kinetic);
        self.potential.merge(&other.potential);
        self.saf.merge(&other.saf);
        self.czz_sum.axpy(1.0, &other.czz_sum);
        self.dm_corr_sum.axpy(1.0, &other.dm_corr_sum);
        self.pair_sum.axpy(1.0, &other.pair_sum);
        self.weight += other.weight;
        self.count += other.count;
    }

    /// Average fermion sign `⟨sign⟩` with its jackknife error.
    pub fn avg_sign(&self) -> (f64, f64) {
        util::jackknife_mean(self.sign.bins())
    }

    /// Whether the sign has collapsed: no estimate ([`util::sign_collapsed`]).
    pub fn sign_collapsed(&self) -> bool {
        util::sign_collapsed(self.sign.bins())
    }

    /// The scalar observables with delete-one jackknife error bars — the
    /// pooled estimator of the sweep harness, and the accessors below
    /// one by one.
    ///
    /// Each physical observable is the ratio `⟨O·s⟩ / ⟨s⟩` of sign-weighted
    /// bins to sign bins; [`util::jackknife_ratio`] resamples numerator and
    /// denominator *together*, propagating their correlated fluctuations
    /// through the nonlinearity. The bins here are whatever this
    /// accumulator holds — call it on a merged ensemble for pooled
    /// cross-chain estimates. Deterministic: depends only on the bin
    /// sequence.
    pub fn jackknife_scalars(&self) -> JackknifeScalars {
        JackknifeScalars {
            sign: self.avg_sign(),
            density: self.density(),
            double_occ: self.double_occupancy(),
            kinetic: self.kinetic_energy(),
            potential: self.potential_energy(),
            saf: self.af_structure_factor(),
        }
    }

    fn ratio(&self, acc: &BinnedAccumulator) -> (f64, f64) {
        util::jackknife_ratio(acc.bins(), self.sign.bins())
    }

    /// Electron density ⟨ρ⟩ = ⟨n₊ + n₋⟩ per site, with error.
    pub fn density(&self) -> (f64, f64) {
        self.ratio(&self.density)
    }

    /// Double occupancy ⟨n₊ n₋⟩ per site, with error.
    pub fn double_occupancy(&self) -> (f64, f64) {
        self.ratio(&self.double_occ)
    }

    /// Kinetic energy per site, with error.
    pub fn kinetic_energy(&self) -> (f64, f64) {
        self.ratio(&self.kinetic)
    }

    /// Interaction energy `U⟨n₊n₋⟩` per site, with error.
    pub fn potential_energy(&self) -> (f64, f64) {
        self.ratio(&self.potential)
    }

    /// Antiferromagnetic structure factor `S(π,π)`, with error.
    pub fn af_structure_factor(&self) -> (f64, f64) {
        self.ratio(&self.saf)
    }

    /// Spin–spin correlation `C_zz(dx, dy)` (lx × ly matrix).
    ///
    /// Like [`Self::swave_pair`] and [`Self::momentum_distribution`], it is
    /// normalised by the sign summed over every recorded configuration (a
    /// trailing partial bin included), so it is not finite when that sum is
    /// exactly 0, even where the full bins' sign is not collapsed.
    pub fn czz(&self) -> Matrix {
        let mut m = self.czz_sum.clone();
        m.scale(1.0 / self.weight);
        m
    }

    /// Equal-time s-wave pair correlation `P_s(dx, dy) = ⟨Δ_{r+d} Δ†_r⟩`
    /// (lx × ly matrix). Its uniform (q = 0) sum is the s-wave pairing
    /// structure factor.
    pub fn swave_pair(&self) -> Matrix {
        let mut m = self.pair_sum.clone();
        m.scale(1.0 / self.weight);
        m
    }

    /// s-wave pairing structure factor `P_s = Σ_d P_s(d)`.
    pub fn swave_structure_factor(&self) -> f64 {
        self.swave_pair().as_slice().iter().sum()
    }

    /// Momentum distribution `⟨n_k⟩` on the (nx, ny) grid (lx × ly matrix),
    /// averaged over spin species; all NaN under a zero total weight (see
    /// [`Self::czz`]), where there is no correlation to transform.
    pub fn momentum_distribution(&self) -> Matrix {
        let mut c = self.dm_corr_sum.clone();
        if self.weight == 0.0 {
            c.fill(f64::NAN);
            return c;
        }
        c.scale(1.0 / self.weight);
        fourier::fourier_transform(&self.lat, &c)
    }

    /// ⟨n_k⟩ sampled along the Γ→M→X→Γ path (pairs of `(arc, value)`).
    pub fn momentum_distribution_path(&self) -> Vec<(f64, f64)> {
        let nk = self.momentum_distribution();
        lattice::symmetry_path(&self.lat)
            .iter()
            .map(|p| (p.arc, nk[(p.nx, p.ny)]))
            .collect()
    }

    /// Serializes the accumulated observables for checkpointing. The lattice
    /// and hopping matrix are *not* written: they are pure functions of the
    /// model, which the checkpoint header fingerprints separately.
    pub fn encode(&self, w: &mut util::codec::ByteWriter) {
        self.sign.encode(w);
        self.density.encode(w);
        self.double_occ.encode(w);
        self.kinetic.encode(w);
        self.potential.encode(w);
        self.saf.encode(w);
        crate::checkpoint::write_matrix(w, &self.czz_sum);
        crate::checkpoint::write_matrix(w, &self.dm_corr_sum);
        crate::checkpoint::write_matrix(w, &self.pair_sum);
        w.put_f64(self.weight);
        w.put_u64(self.count as u64);
    }

    /// Deserializes observables written by [`Observables::encode`],
    /// rebuilding the lattice-derived members from `model`. Lattice-resolved
    /// sums whose dimensions do not match the model decode to
    /// [`util::codec::CodecError::Invalid`].
    pub fn decode(
        model: &ModelParams,
        r: &mut util::codec::ByteReader<'_>,
    ) -> Result<Self, util::codec::CodecError> {
        let lat = model.lattice.clone();
        let hop = lat.kinetic_matrix(0.0);
        let sign = BinnedAccumulator::decode(r)?;
        let density = BinnedAccumulator::decode(r)?;
        let double_occ = BinnedAccumulator::decode(r)?;
        let kinetic = BinnedAccumulator::decode(r)?;
        let potential = BinnedAccumulator::decode(r)?;
        let saf = BinnedAccumulator::decode(r)?;
        let czz_sum = crate::checkpoint::read_matrix(r)?;
        let dm_corr_sum = crate::checkpoint::read_matrix(r)?;
        let pair_sum = crate::checkpoint::read_matrix(r)?;
        for (name, m) in [
            ("czz_sum", &czz_sum),
            ("dm_corr_sum", &dm_corr_sum),
            ("pair_sum", &pair_sum),
        ] {
            if m.nrows() != lat.lx() || m.ncols() != lat.ly() {
                return Err(util::codec::CodecError::Invalid(format!(
                    "{name} is {}x{}, lattice is {}x{}",
                    m.nrows(),
                    m.ncols(),
                    lat.lx(),
                    lat.ly()
                )));
            }
        }
        let weight = r.get_f64()?;
        let count = r.get_u64()? as usize;
        Ok(Observables {
            lat,
            hop,
            sign,
            density,
            double_occ,
            kinetic,
            potential,
            saf,
            czz_sum,
            dm_corr_sum,
            pair_sum,
            weight,
            count,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubbard::ModelParams;

    fn model(lx: usize, ly: usize) -> ModelParams {
        ModelParams::new(Lattice::square(lx, ly, 1.0), 0.0, 0.0, 0.125, 8)
    }

    /// Free-fermion Green's function at inverse temperature β for the model:
    /// G = (I + e^{−βK})⁻¹ — exact at U = 0.
    fn free_greens(m: &ModelParams) -> Matrix {
        let k = m.lattice.kinetic_matrix(m.mu_tilde);
        let e = linalg::sym_expm(&k, -m.beta()).unwrap();
        let mut mm = Matrix::identity(m.nsites());
        mm.axpy(1.0, &e);
        linalg::lu::inverse(&mm).unwrap()
    }

    #[test]
    fn half_filling_density_is_one() {
        let m = model(4, 4);
        let g = free_greens(&m);
        let mut obs = Observables::new(&m, 1);
        obs.record(m.u, &g, &g, 1.0);
        let (rho, _) = obs.density();
        assert!((rho - 1.0).abs() < 1e-12, "rho = {rho}");
    }

    #[test]
    fn free_fermion_momentum_distribution_is_fermi_factor() {
        let m = model(4, 4);
        let g = free_greens(&m);
        let mut obs = Observables::new(&m, 1);
        obs.record(m.u, &g, &g, 1.0);
        let nk = obs.momentum_distribution();
        for (idx, (kx, ky)) in m.lattice.kpoints().iter().enumerate() {
            let eps = -2.0 * (kx.cos() + ky.cos());
            let fermi = 1.0 / (1.0 + (m.beta() * eps).exp());
            let nx = idx % 4;
            let ny = idx / 4;
            assert!(
                (nk[(nx, ny)] - fermi).abs() < 1e-10,
                "k=({kx},{ky}): {} vs {fermi}",
                nk[(nx, ny)]
            );
        }
    }

    #[test]
    fn free_fermion_energy_matches_band_sum() {
        let m = model(4, 4);
        let g = free_greens(&m);
        let mut obs = Observables::new(&m, 1);
        obs.record(m.u, &g, &g, 1.0);
        let (ekin, _) = obs.kinetic_energy();
        // Band sum: (2/N) Σ_k ε_k f(ε_k), factor 2 for spin.
        let mut expect = 0.0;
        for (kx, ky) in m.lattice.kpoints() {
            let eps = -2.0 * (kx.cos() + ky.cos());
            expect += 2.0 * eps / (1.0 + (m.beta() * eps).exp());
        }
        expect /= m.nsites() as f64;
        assert!((ekin - expect).abs() < 1e-10, "{ekin} vs {expect}");
    }

    #[test]
    fn uncorrelated_czz_zero_distance_sum_rule() {
        // For independent spins: C_zz(0) = ρ − 2⟨n₊⟩⟨n₋⟩ (per config the
        // double occupancy factorises).
        let m = model(4, 4);
        let g = free_greens(&m);
        let mut obs = Observables::new(&m, 1);
        obs.record(m.u, &g, &g, 1.0);
        let czz = obs.czz();
        let (rho, _) = obs.density();
        let (docc, _) = obs.double_occupancy();
        let expect = rho - 2.0 * docc;
        assert!(
            (czz[(0, 0)] - expect).abs() < 1e-10,
            "{} vs {expect}",
            czz[(0, 0)]
        );
    }

    #[test]
    fn saf_matches_direct_staggered_sum() {
        let m = model(4, 4);
        let g = free_greens(&m);
        let mut obs = Observables::new(&m, 1);
        obs.record(m.u, &g, &g, 1.0);
        let czz = obs.czz();
        let mut expect = 0.0;
        for dy in 0..4 {
            for dx in 0..4 {
                let par = if (dx + dy) % 2 == 0 { 1.0 } else { -1.0 };
                expect += par * czz[(dx, dy)];
            }
        }
        let (saf, _) = obs.af_structure_factor();
        assert!((saf - expect).abs() < 1e-12);
    }

    #[test]
    fn sign_weighting_normalises() {
        // Two configurations with signs ±1 and equal-magnitude density must
        // produce a finite ratio v̄/s̄.
        let m = model(2, 2);
        let g = free_greens(&m);
        let mut obs = Observables::new(&m, 1);
        obs.record(m.u, &g, &g, 1.0);
        obs.record(m.u, &g, &g, 1.0);
        obs.record(m.u, &g, &g, -1.0);
        let (s, _) = obs.avg_sign();
        assert!((s - 1.0 / 3.0).abs() < 1e-12);
        let (rho, _) = obs.density();
        // Weighted: (1+1−1)·ρ₀ / (1+1−1) = ρ₀.
        assert!((rho - 1.0).abs() < 1e-10);
    }

    #[test]
    fn momentum_path_samples_grid() {
        let m = model(4, 4);
        let g = free_greens(&m);
        let mut obs = Observables::new(&m, 1);
        obs.record(m.u, &g, &g, 1.0);
        let path = obs.momentum_distribution_path();
        assert_eq!(path.len(), 7); // 3·(L/2)+1 for L=4
        let nk = obs.momentum_distribution();
        // Γ point value matches grid.
        assert!((path[0].1 - nk[(0, 0)]).abs() < 1e-14);
        // At β=1, Γ (ε=−4) is nearly filled.
        assert!(path[0].1 > 0.9);
    }

    #[test]
    fn free_fermion_pair_correlation_factorises() {
        // For U = 0 and equal spins: P_s(d) = G(b,a)² — check the on-site
        // value P_s(0) = G(r,r)² averaged, i.e. (1−ρ/2)².
        let m = model(4, 4);
        let g = free_greens(&m);
        let mut obs = Observables::new(&m, 1);
        obs.record(m.u, &g, &g, 1.0);
        let ps = obs.swave_pair();
        let expect: f64 = (0..16).map(|r| g[(r, r)] * g[(r, r)]).sum::<f64>() / 16.0;
        assert!((ps[(0, 0)] - expect).abs() < 1e-12);
        // Structure factor is a plain sum.
        let total: f64 = ps.as_slice().iter().sum();
        assert!((obs.swave_structure_factor() - total).abs() < 1e-12);
    }

    #[test]
    fn count_tracks_records() {
        let m = model(2, 2);
        let g = free_greens(&m);
        let mut obs = Observables::new(&m, 1);
        assert_eq!(obs.count(), 0);
        obs.record(m.u, &g, &g, 1.0);
        assert_eq!(obs.count(), 1);
    }
}
