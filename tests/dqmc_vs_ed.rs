//! End-to-end physics validation: DQMC against exact diagonalisation.
//!
//! The DQMC estimates carry two error sources — O(Δτ²) Trotter
//! discretisation and Monte Carlo noise — so the comparisons use small Δτ,
//! enough sweeps, and tolerances a few times the combined error scale.
//!
//! The dimer is bipartite, so every half-filled case here runs the one-spin
//! path (`G↓` read through the particle–hole identity), and
//! `dimer_doped_sign_weighted_observables` (μ̃ ≠ 0) the two-spin path.

use dqmc::{ModelParams, SimParams, Simulation};
use ed::{HubbardEd, ThermalEnsemble};
use gpusim::{Device, DeviceBackend, DeviceSpec, FaultPlan};
use lattice::Lattice;

/// Runs DQMC on the 2-site dimer and returns the simulation.
fn run_dimer(u: f64, mu_tilde: f64, beta: f64, dtau: f64, seed: u64) -> Simulation {
    let slices = (beta / dtau).round() as usize;
    let model = ModelParams::new(Lattice::square(2, 1, 1.0), u, mu_tilde, dtau, slices);
    let mut sim = Simulation::new(
        SimParams::new(model)
            .with_sweeps(400, 4000)
            .with_seed(seed)
            .with_cluster_size(10)
            .with_bin_size(20),
    );
    sim.run();
    sim
}

fn ed_dimer(u: f64, mu_tilde: f64, beta: f64) -> ThermalEnsemble {
    ThermalEnsemble::new(
        HubbardEd::new(Lattice::square(2, 1, 1.0), u, mu_tilde),
        beta,
    )
}

#[test]
fn dimer_half_filling_observables() {
    let (u, beta, dtau) = (4.0, 2.0, 0.05);
    let sim = run_dimer(u, 0.0, beta, dtau, 42);
    let exact = ed_dimer(u, 0.0, beta);
    let obs = sim.observables();

    let (rho, rho_err) = obs.density();
    assert!(
        (rho - exact.density()).abs() < 0.01 + 4.0 * rho_err,
        "density: dqmc {rho}±{rho_err} vs ed {}",
        exact.density()
    );

    let (docc, docc_err) = obs.double_occupancy();
    assert!(
        (docc - exact.double_occupancy()).abs() < 0.01 + 4.0 * docc_err,
        "double occ: dqmc {docc}±{docc_err} vs ed {}",
        exact.double_occupancy()
    );

    // Nearest-neighbour spin correlation C_zz(1): ED matrix element (0,1).
    let czz = obs.czz();
    let c_ed = exact.spin_correlation();
    assert!(
        (czz[(1, 0)] - c_ed[(0, 1)]).abs() < 0.03,
        "Czz(1): dqmc {} vs ed {}",
        czz[(1, 0)],
        c_ed[(0, 1)]
    );
    // Same-site C_zz(0).
    assert!(
        (czz[(0, 0)] - c_ed[(0, 0)]).abs() < 0.03,
        "Czz(0): dqmc {} vs ed {}",
        czz[(0, 0)],
        c_ed[(0, 0)]
    );
}

#[test]
fn dimer_doped_sign_weighted_observables() {
    // Away from half filling the sign can fluctuate; the dimer's sign
    // problem is mild, so sign-weighted estimates must still match ED.
    let (u, mu_t, beta, dtau) = (4.0, 0.5, 1.5, 0.05);
    let sim = run_dimer(u, mu_t, beta, dtau, 7);
    let exact = ed_dimer(u, mu_t, beta);
    let obs = sim.observables();

    let (sign, _) = obs.avg_sign();
    assert!(sign > 0.3, "dimer sign should be mild, got {sign}");

    let (rho, rho_err) = obs.density();
    assert!(
        (rho - exact.density()).abs() < 0.02 + 4.0 * rho_err,
        "density: dqmc {rho}±{rho_err} vs ed {}",
        exact.density()
    );
    let (docc, docc_err) = obs.double_occupancy();
    assert!(
        (docc - exact.double_occupancy()).abs() < 0.02 + 4.0 * docc_err,
        "docc: dqmc {docc}±{docc_err} vs ed {}",
        exact.double_occupancy()
    );
}

#[test]
fn dimer_momentum_distribution_matches_ed() {
    let (u, beta, dtau) = (4.0, 2.0, 0.05);
    let sim = run_dimer(u, 0.0, beta, dtau, 11);
    let exact = ed_dimer(u, 0.0, beta);
    let nk_dqmc = sim.observables().momentum_distribution();
    let nk_ed = exact.momentum_distribution();
    for nx in 0..2 {
        assert!(
            (nk_dqmc[(nx, 0)] - nk_ed[(nx, 0)]).abs() < 0.03,
            "n_k[{nx}]: dqmc {} vs ed {}",
            nk_dqmc[(nx, 0)],
            nk_ed[(nx, 0)]
        );
    }
}

#[test]
fn dimer_kinetic_energy_matches_ed() {
    let (u, beta, dtau) = (4.0, 2.0, 0.05);
    let sim = run_dimer(u, 0.0, beta, dtau, 13);
    let exact = ed_dimer(u, 0.0, beta);
    // ED kinetic energy: ⟨H⟩ − U⟨n₊n₋⟩·N + μeff·⟨N̂⟩ (subtract the non-
    // kinetic pieces of H; μeff = μ̃ + U/2 = 2).
    let n = 2.0;
    let ekin_ed =
        exact.energy() - u * exact.double_occupancy() * n + (0.0 + u / 2.0) * exact.density() * n;
    let (ekin, err) = sim.observables().kinetic_energy();
    assert!(
        (ekin * n - ekin_ed).abs() < 0.05 + 4.0 * err * n,
        "kinetic: dqmc {} vs ed {ekin_ed}",
        ekin * n
    );
}

#[test]
fn dimer_unequal_time_greens_matches_ed() {
    // Dynamic measurements: G_loc(τ) on the cluster-spaced τ grid against
    // the exact spectral representation.
    let (u, beta, dtau): (f64, f64, f64) = (4.0, 2.0, 0.05);
    let slices = (beta / dtau).round() as usize; // 40
    let model = ModelParams::new(Lattice::square(2, 1, 1.0), u, 0.0, dtau, slices);
    let mut sim = Simulation::new(
        SimParams::new(model)
            .with_sweeps(300, 1500)
            .with_seed(21)
            .with_cluster_size(10)
            .with_bin_size(20)
            .with_unequal_time(true),
    );
    sim.run();
    let tdm = sim.time_dependent().expect("enabled");
    let exact = ed_dimer(u, 0.0, beta);
    for (tau, (g, gerr)) in tdm.taus().iter().zip(tdm.gloc()) {
        let reference = exact.greens_tau_local(*tau);
        assert!(
            (g - reference).abs() < 0.02 + 4.0 * gerr,
            "G_loc({tau}): dqmc {g}±{gerr} vs ed {reference}"
        );
    }
}

#[test]
fn heat_bath_acceptance_matches_ed() {
    // The heat-bath rule samples the same distribution; only the
    // autocorrelation differs.
    let (u, beta, dtau): (f64, f64, f64) = (4.0, 2.0, 0.05);
    let slices = (beta / dtau).round() as usize;
    let model = ModelParams::new(Lattice::square(2, 1, 1.0), u, 0.0, dtau, slices);
    let mut sim = Simulation::new(
        SimParams::new(model)
            .with_sweeps(400, 4000)
            .with_seed(77)
            .with_bin_size(20)
            .with_acceptance(dqmc::Acceptance::HeatBath),
    );
    sim.run();
    let exact = ed_dimer(u, 0.0, beta);
    let (docc, err) = sim.observables().double_occupancy();
    assert!(
        (docc - exact.double_occupancy()).abs() < 0.01 + 4.0 * err,
        "heat bath docc {docc}±{err} vs ed {}",
        exact.double_occupancy()
    );
    // Heat bath accepts less often than Metropolis by construction.
    assert!(sim.acceptance_rate() < 0.9);
}

#[test]
fn dimer_under_fault_plan_with_recovery_matches_ed() {
    // Physics must survive the fault ladder: run the half-filled dimer on
    // the simulated device with a storm of scripted faults (one-shot
    // corruptions heal bit-identically; persistent launch failures force a
    // host fallback mid-run) and still reproduce the ED observables.
    let (u, beta, dtau): (f64, f64, f64) = (4.0, 2.0, 0.05);
    let slices = (beta / dtau).round() as usize;
    let model = ModelParams::new(Lattice::square(2, 1, 1.0), u, 0.0, dtau, slices);
    let mut plan = FaultPlan::new()
        .with_seed(5)
        .corrupt_transfer(2)
        .corrupt_transfer(150)
        .oom_at_alloc(3)
        .oom_at_alloc(900);
    // A burst of consecutive launch failures deep into the run: retries are
    // exhausted and the ladder must drop to the host backend for good.
    for n in 5_000..5_200 {
        plan = plan.fail_launch(n);
    }
    let mut dev = Device::new(DeviceSpec::tesla_c2050());
    dev.arm_faults(plan);
    let mut sim = Simulation::new(
        SimParams::new(model)
            .with_sweeps(400, 4000)
            .with_seed(19)
            .with_cluster_size(10)
            .with_bin_size(20),
    )
    .with_backend(Box::new(DeviceBackend::new(dev)));
    sim.run();

    let log = sim.recovery_log();
    assert!(
        log.total() > 0,
        "the fault plan must have fired: {}",
        log.summary()
    );

    let exact = ed_dimer(u, 0.0, beta);
    let obs = sim.observables();
    let (rho, rho_err) = obs.density();
    assert!(
        (rho - exact.density()).abs() < 0.01 + 4.0 * rho_err,
        "density under faults: dqmc {rho}±{rho_err} vs ed {}",
        exact.density()
    );
    let (docc, docc_err) = obs.double_occupancy();
    assert!(
        (docc - exact.double_occupancy()).abs() < 0.01 + 4.0 * docc_err,
        "double occ under faults: dqmc {docc}±{docc_err} vs ed {}",
        exact.double_occupancy()
    );
}

#[test]
fn trotter_error_shrinks_with_dtau() {
    // The systematic deviation from ED must decrease as Δτ → 0 (O(Δτ²)).
    let (u, beta) = (6.0, 2.0);
    let exact = ed_dimer(u, 0.0, beta).double_occupancy();
    let run = |dtau: f64, seed| {
        let sim = run_dimer(u, 0.0, beta, dtau, seed);
        let (d, _) = sim.observables().double_occupancy();
        (d - exact).abs()
    };
    // Average two seeds to tame MC noise.
    let coarse = (run(0.25, 1) + run(0.25, 2)) / 2.0;
    let fine = (run(0.05, 3) + run(0.05, 4)) / 2.0;
    assert!(
        fine < coarse + 0.005,
        "finer Δτ should not be farther from ED: fine {fine} vs coarse {coarse}"
    );
}
