//! The exact Trotterised oracle: on lattices with N·L ≤ 16 every
//! Hubbard–Stratonovich field can be listed, so the distribution the chain
//! samples is known exactly — the weight of a field is `det M↑ · det M↓`
//! with `M_σ = I + B_{L−1,σ} ⋯ B_{0,σ}` at the run's own Δτ, with no Trotter
//! slack between the chain and its reference.
//!
//! Each case enumerates the 2¹⁶ fields of the dimer at L = 8 or the 2×2
//! plaquette at L = 4, weights each field through [`greens_naive`]'s sign
//! and log-determinant, and accumulates the product's own estimators
//! (`Observables::record`, the field's weight as its sign) into one bin:
//! that bin's ratio is `Σ w·O / Σ w`. A chain with `cluster_size = 2`
//! (L/k = 4 and 2, so the sweep crosses interior cluster boundaries) must
//! then report density, double occupancy and kinetic energy within 4σ of
//! it (the half-filled density, exactly 1 in every sample, to rounding),
//! at half filling (one evolved spin) and at μ̃ = 0.25 (two spins,
//! sign-weighted).

use dqmc::greens::greens_naive;
use dqmc::{BMatrixFactory, HsField, ModelParams, Observables, SimParams, Simulation, Spin};
use lattice::Lattice;

const U: f64 = 4.0;
const DTAU: f64 = 0.25;

/// `(density, double occupancy, kinetic energy)` per site.
type Scalars = [(f64, f64); 3];

fn scalars(obs: &Observables) -> Scalars {
    [obs.density(), obs.double_occupancy(), obs.kinetic_energy()]
}

/// `Σ w·O / Σ w` over every field of `model`.
fn enumerated(model: &ModelParams) -> Scalars {
    let (n, slices) = (model.nsites(), model.slices);
    let bits = n * slices;
    assert!(bits <= 16, "enumeration is for N·L ≤ 16");
    let fac = BMatrixFactory::new(model);
    let mut obs = Observables::new(model, 1 << bits);
    let mut log_ref = None;
    for pattern in 0u32..1 << bits {
        let mut h = HsField::ones(n, slices);
        for b in 0..bits {
            if pattern >> b & 1 == 1 {
                h.flip(b / n, b % n);
            }
        }
        let (up, dn) = (
            greens_naive(&fac, &h, Spin::Up),
            greens_naive(&fac, &h, Spin::Down),
        );
        let log_det = up.log_det + dn.log_det;
        let reference = *log_ref.get_or_insert(log_det);
        let weight = up.sign * dn.sign * (log_det - reference).exp();
        obs.record(model.u, &up.g, &dn.g, weight);
    }
    assert_eq!(obs.bin_count(), 1, "every field lands in one bin");
    scalars(&obs)
}

fn sampled(model: &ModelParams, seed: u64) -> Scalars {
    let params = SimParams::new(model.clone())
        .with_seed(seed)
        .with_sweeps(200, 8000)
        .with_cluster_size(2)
        .with_bin_size(40);
    let mut sim = Simulation::new(params);
    sim.run();
    assert_eq!(sim.recovery_log().total(), 0);
    scalars(sim.observables())
}

fn the_chain_samples_the_enumerated_distribution(mu_tilde: f64) {
    let cases = [
        (Lattice::square(2, 1, 1.0), 8, 61),
        (Lattice::square(2, 2, 1.0), 4, 62),
    ];
    for (lattice, slices, seed) in cases {
        let model = ModelParams::new(lattice, U, mu_tilde, DTAU, slices);
        let exact = enumerated(&model);
        let chain = sampled(&model, seed);
        let names = ["density", "double occupancy", "kinetic energy"];
        for ((name, (want, _)), (got, err)) in names.iter().zip(exact).zip(chain) {
            let what = format!("N = {}, L = {slices}, μ̃ = {mu_tilde}", model.nsites());
            // At half filling the density is exactly 1 in every sample,
            // so it has no error bar and must match to rounding.
            let exact_sample = mu_tilde == 0.0 && *name == "density";
            assert_eq!(err == 0.0, exact_sample, "{what}: {name} ± {err}");
            assert!(
                (got - want).abs() < 4.0 * err + 1e-12,
                "{what}: {name} sampled {got} ± {err}, enumerated {want}"
            );
        }
    }
}

#[test]
fn the_chain_samples_the_enumerated_distribution_at_half_filling() {
    the_chain_samples_the_enumerated_distribution(0.0);
}

#[test]
fn the_chain_samples_the_enumerated_distribution_away_from_half_filling() {
    the_chain_samples_the_enumerated_distribution(0.25);
}
