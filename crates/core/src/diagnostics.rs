//! Conditioning diagnostics for B-matrix chains.
//!
//! The paper's central motivation: "when L or U is large (that is, low
//! temperatures or strong interactions), the product matrix `B_L⋯B_1` is
//! extremely ill-conditioned". This module quantifies that statement for
//! any simulation setup, using the machinery the engine already has: the
//! graded diagonal `D` of the incremental `Q·D·T` decomposition estimates
//! the product's singular values at every chain length — without ever
//! forming the product — and, for small systems, the estimate is verified
//! against the high-relative-accuracy Jacobi SVD.

use crate::bmat::BMatrixFactory;
use crate::hs::HsField;
use crate::hubbard::Spin;
use crate::stratify::{StratAlgo, StratifyState};

/// Dynamic-range profile of a chain: one entry per cluster boundary.
#[derive(Clone, Debug)]
pub struct ConditionProfile {
    /// Imaginary time τ at each boundary.
    pub taus: Vec<f64>,
    /// `log10(σ_max)` estimated from `D`.
    pub log_sigma_max: Vec<f64>,
    /// `log10(σ_min)` estimated from `D`.
    pub log_sigma_min: Vec<f64>,
}

impl ConditionProfile {
    /// `log10` condition-number estimates per boundary.
    pub fn log_condition(&self) -> Vec<f64> {
        self.log_sigma_max
            .iter()
            .zip(self.log_sigma_min.iter())
            .map(|(a, b)| a - b)
            .collect()
    }

    /// Growth rate of `log10 κ` per unit τ, fitted through the last point.
    pub fn growth_rate(&self) -> f64 {
        let lc = self.log_condition();
        match (self.taus.last(), lc.last()) {
            (Some(&t), Some(&c)) if t > 0.0 => c / t,
            _ => 0.0,
        }
    }
}

/// Profiles the conditioning of `B(τ,0)` for one spin species along the
/// chain, clustered by `k`.
pub fn condition_profile(
    fac: &BMatrixFactory,
    h: &HsField,
    dtau: f64,
    k: usize,
    spin: Spin,
    algo: StratAlgo,
) -> ConditionProfile {
    let slices = h.slices();
    assert!(k >= 1 && k <= slices);
    let mut taus = Vec::new();
    let mut lmax = Vec::new();
    let mut lmin = Vec::new();

    let mut state: Option<StratifyState> = None;
    let mut lo = 0;
    while lo < slices {
        let hi = (lo + k).min(slices);
        let cluster = fac.cluster(h, lo, hi, spin);
        match state.as_mut() {
            None => state = Some(StratifyState::new(&cluster, algo)),
            Some(s) => s.push(&cluster),
        }
        let d = &state.as_ref().expect("just set").udt().d;
        let amax = d.iter().fold(0.0f64, |m, &x| m.max(x.abs()));
        let amin = d.iter().fold(f64::INFINITY, |m, &x| m.min(x.abs()));
        taus.push(hi as f64 * dtau);
        lmax.push(amax.log10());
        lmin.push(amin.log10());
        lo = hi;
    }
    ConditionProfile {
        taus,
        log_sigma_max: lmax,
        log_sigma_min: lmin,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubbard::ModelParams;
    use lattice::Lattice;

    fn setup(u: f64, slices: usize) -> (ModelParams, BMatrixFactory, HsField) {
        let model = ModelParams::new(Lattice::square(3, 3, 1.0), u, 0.0, 0.125, slices);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(8);
        let h = HsField::random(9, slices, &mut rng);
        (model, fac, h)
    }

    #[test]
    fn free_fermion_growth_matches_bandwidth() {
        // U = 0: B(τ,0) = e^{−τK}, σ range = e^{τ(ε_max−ε_min)}. For the
        // 3×3 periodic lattice ε ∈ [−4, 2]… compute from the spectrum.
        let (model, fac, h) = setup(0.0, 32);
        let prof = condition_profile(&fac, &h, model.dtau, 4, Spin::Up, StratAlgo::PrePivot);
        let k = model.lattice.kinetic_matrix(0.0);
        let e = linalg::eig::sym_eig(&k).unwrap();
        let spread = e.values.last().unwrap() - e.values[0];
        let expected_rate = spread / std::f64::consts::LN_10;
        let rate = prof.growth_rate();
        assert!(
            (rate - expected_rate).abs() < 0.15 * expected_rate,
            "rate {rate} vs bandwidth {expected_rate}"
        );
    }

    #[test]
    fn interactions_worsen_conditioning() {
        let (model, fac0, h) = setup(0.0, 32);
        let prof0 = condition_profile(&fac0, &h, model.dtau, 4, Spin::Up, StratAlgo::PrePivot);
        let (model8, fac8, h8) = setup(8.0, 32);
        let prof8 = condition_profile(&fac8, &h8, model8.dtau, 4, Spin::Up, StratAlgo::PrePivot);
        assert!(
            prof8.growth_rate() > prof0.growth_rate() * 1.2,
            "U=8 rate {} should exceed U=0 rate {}",
            prof8.growth_rate(),
            prof0.growth_rate()
        );
    }

    #[test]
    fn condition_grows_monotonically_along_chain() {
        let (model, fac, h) = setup(6.0, 40);
        let prof = condition_profile(&fac, &h, model.dtau, 8, Spin::Down, StratAlgo::Qrp);
        let lc = prof.log_condition();
        for w in lc.windows(2) {
            assert!(w[1] > w[0] - 0.5, "κ should grow along the chain");
        }
        // β = 5, U = 6: tens of orders of magnitude (the paper's point).
        assert!(
            *lc.last().unwrap() > 8.0,
            "expected severe ill-conditioning, got 1e{}",
            lc.last().unwrap()
        );
    }

    #[test]
    fn d_estimates_match_jacobi_svd_short_chain() {
        // For a short, representable chain compare the D-based σ estimates
        // against the Jacobi SVD of the explicit product.
        let (_, fac, h) = setup(4.0, 8);
        let mut state: Option<StratifyState> = None;
        for lo in (0..8).step_by(4) {
            let c = fac.cluster(&h, lo, lo + 4, Spin::Up);
            match state.as_mut() {
                None => state = Some(StratifyState::new(&c, StratAlgo::Qrp)),
                Some(s) => s.push(&c),
            }
        }
        let udt = state.unwrap().into_udt();
        let mut d_est: Vec<f64> = udt.d.iter().map(|x| x.abs()).collect();
        d_est.sort_by(|a, b| b.partial_cmp(a).unwrap());

        let product = fac.full_chain(&h, Spin::Up);
        let sv = linalg::svd(&product).unwrap();
        for (est, exact) in d_est.iter().zip(sv.s.iter()) {
            // QRP diagonals estimate σ within a modest polynomial factor.
            let ratio = est / exact;
            assert!(
                (0.05..20.0).contains(&ratio),
                "σ estimate {est} vs exact {exact}"
            );
        }
        // Extremes are tighter.
        assert!((d_est[0] / sv.s[0] - 1.0).abs() < 0.5);
    }
}
