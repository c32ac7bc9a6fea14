//! Gates of the one-spin path ([`crate::sweep`], "One spin at half
//! filling"): at half filling on a bipartite lattice a walker evolves `G↑`
//! alone and reads `G↓` through the particle–hole identity. The two-spin
//! chain of the same model ([`DqmcCore::new_two_spin`]) is the reference.

use crate::hubbard::{ModelParams, SimParams, Spin};
use crate::measure::Observables;
use crate::sim::Simulation;
use crate::sweep::DqmcCore;
use lattice::Lattice;

/// 4×4 at half filling, β = 2 (L = 16), clusters of 8.
fn half_filled(u: f64, seed: u64) -> SimParams {
    let model = ModelParams::new(Lattice::square(4, 4, 1.0), u, 0.0, 0.125, 16);
    SimParams::new(model).with_seed(seed).with_cluster_size(8)
}

/// The equal-time observables an accumulator holds, flattened: the six
/// scalars, then `C_zz(d)` and `P_s(d)`. `⟨n_k⟩` is left out: its transform
/// asserts an inversion-symmetric `⟨c†c⟩`, which only the ensemble has, not
/// a bin of a few sweeps.
fn observables(obs: &Observables) -> Vec<f64> {
    let s = obs.jackknife_scalars();
    let scalars = [
        s.sign,
        s.density,
        s.double_occ,
        s.kinetic,
        s.potential,
        s.saf,
    ];
    let mut all: Vec<f64> = scalars.iter().map(|v| v.0).collect();
    for m in [obs.czz(), obs.swave_pair()] {
        all.extend_from_slice(m.as_slice());
    }
    all
}

/// `sweeps` measured sweeps of `core` into a fresh accumulator.
fn measure(core: &mut DqmcCore, sweeps: usize) -> Vec<f64> {
    let mut obs = Observables::new(&core.params.model, sweeps);
    for _ in 0..sweeps {
        core.sweep(Some(&mut obs));
    }
    observables(&obs)
}

#[test]
fn the_path_follows_the_model_alone() {
    let evolved = |mu: f64, lattice: Lattice| {
        let model = ModelParams::new(lattice, 4.0, mu, 0.125, 4);
        DqmcCore::new(SimParams::new(model)).spins().len()
    };
    assert_eq!(evolved(0.0, Lattice::square(4, 4, 1.0)), 1);
    assert_eq!(evolved(0.0, Lattice::multilayer(2, 2, 3, 1.0, 0.5)), 1);
    assert_eq!(evolved(0.25, Lattice::square(4, 4, 1.0)), 2);
    assert_eq!(evolved(0.0, Lattice::square(3, 3, 1.0)), 2, "odd rings");
    let two = DqmcCore::new_two_spin(half_filled(4.0, 1));
    assert_eq!(two.spins().len(), 2);
}

#[test]
fn one_and_two_spin_chains_decide_alike_until_rounding_parts_them() {
    // Same seed, same stream: the two chains draw the same uniforms and
    // differ only in how `d_dn` is rounded (read from G↑ vs from an evolved
    // G↓), so they accept alike until a ratio lands within rounding of its
    // uniform. Until then G↑ is the same to the bit and every observable
    // agrees to rounding.
    const SWEEPS: usize = 1000;
    let params = half_filled(4.0, 19);
    let mut one = DqmcCore::new(params.clone());
    let mut two = DqmcCore::new_two_spin(params);
    let mut parted = None;
    let mut worst = 0.0f64;
    for sweep in 1..=SWEEPS {
        let (a, b) = (measure(&mut one, 1), measure(&mut two, 1));
        if one.h != two.h {
            parted = Some(sweep);
            break;
        }
        assert_eq!(one.accepted, two.accepted, "sweep {sweep}");
        assert_eq!(one.rng.state(), two.rng.state(), "sweep {sweep}");
        assert_eq!(one.greens(Spin::Up), two.greens(Spin::Up), "sweep {sweep}");
        assert_eq!((one.sign, two.sign), (1.0, 1.0));
        let diff = a.iter().zip(&b).map(|(x, y)| (x - y).abs());
        worst = diff.fold(worst, f64::max);
    }
    match parted {
        Some(s) => eprintln!("one- and two-spin chains part at sweep {s} of {SWEEPS}"),
        None => eprintln!("one- and two-spin chains decide alike for all {SWEEPS} sweeps"),
    }
    eprintln!("largest observable difference before that: {worst:e}");
    assert!(worst < 1e-10, "{worst:e}");
    assert!(parted.is_none_or(|s| s > 20), "parted at sweep {parted:?}");
}

#[test]
fn long_one_and_two_spin_chains_agree_within_four_sigma() {
    // Independent seeds, 40 bins of 25 sweeps each after 50 warmup sweeps;
    // every equal-time observable, scalar or lattice-resolved, must agree
    // within 4σ of the bin means' combined standard error (plus a rounding
    // floor: the one-spin density is exactly 1 with no spread).
    let (bins, per_bin, warmup) = (40, 25, 50);
    let run = |mut core: DqmcCore| {
        for _ in 0..warmup {
            core.sweep(None);
        }
        let samples: Vec<Vec<f64>> = (0..bins).map(|_| measure(&mut core, per_bin)).collect();
        let n = bins as f64;
        (0..samples[0].len())
            .map(|d| {
                let mean = samples.iter().map(|b| b[d]).sum::<f64>() / n;
                let var = samples.iter().map(|b| (b[d] - mean).powi(2)).sum::<f64>() / (n - 1.0);
                (mean, (var / n).sqrt())
            })
            .collect::<Vec<_>>()
    };
    let one = run(DqmcCore::new(half_filled(4.0, 23)));
    let two = run(DqmcCore::new_two_spin(half_filled(4.0, 29)));
    for (d, ((m1, e1), (m2, e2))) in one.iter().zip(&two).enumerate() {
        let bound = 4.0 * e1.hypot(*e2) + 1e-12;
        assert!(
            (m1 - m2).abs() <= bound,
            "observable {d}: one-spin {m1} ± {e1}, two-spin {m2} ± {e2}"
        );
    }
}

#[test]
fn the_solo_checks_hold_on_the_one_spin_path() {
    // The benchmark's solo output checks at a smaller size: the sign and
    // density are exactly 1 (G↓_ii = 1 − G↑_ii by construction), the wrap
    // error stays under 1e-7 and no recovery event fires.
    let model = ModelParams::new(Lattice::square(8, 8, 1.0), 4.0, 0.0, 0.125, 32);
    let params = SimParams::new(model)
        .with_seed(3)
        .with_sweeps(2, 6)
        .with_cluster_size(10)
        .with_bin_size(2);
    let mut sim = Simulation::new(params);
    assert_eq!(sim.core.spins(), [Spin::Up]);
    sim.run();
    let obs = sim.observables();
    assert_eq!(obs.avg_sign(), (1.0, 0.0));
    assert_eq!(obs.density().0, 1.0);
    assert!(sim.max_wrap_error() < 1e-7, "{}", sim.max_wrap_error());
    assert!(sim.recovery_log().is_empty());
}
