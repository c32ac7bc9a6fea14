//! Dynamic-measurement study: the imaginary-time Green's function
//! `G_loc(τ)` and `G_k(τ)` at Γ, M, X from the DQMC engine's unequal-time
//! machinery, compared against exact diagonalisation where the cluster is
//! small enough (2-site dimer).
//!
//! Not a numbered figure in the paper (its measurements are the static
//! ones), but QUEST's measurement suite is "both static and dynamic" —
//! this exercises the dynamic half end-to-end.
//!
//! Usage: `cargo run --release -p bench --bin gtau [--full]`

use dqmc::{ModelParams, SimParams, Simulation};
use lattice::Lattice;

fn main() {
    let mode = bench::mode("gtau");

    // Part 1: dimer vs exact diagonalisation.
    let (u, beta, dtau): (f64, f64, f64) = (4.0, 2.0, 0.05);
    let slices = (beta / dtau).round() as usize;
    let (warm, meas) = if mode.full() {
        (500, 5000)
    } else {
        (200, 1000)
    };
    println!("# G_loc(tau): DQMC dimer vs exact diagonalisation (U={u}, beta={beta})");
    let model = ModelParams::new(Lattice::square(2, 1, 1.0), u, 0.0, dtau, slices);
    let mut sim = Simulation::new(
        SimParams::new(model)
            .with_sweeps(warm, meas)
            .with_seed(bench::SEED)
            .with_cluster_size(10)
            .with_bin_size(20)
            .with_unequal_time(true),
    );
    sim.run();
    let exact =
        ed::ThermalEnsemble::new(ed::HubbardEd::new(Lattice::square(2, 1, 1.0), u, 0.0), beta);
    let tdm = sim.time_dependent().expect("enabled");
    println!("tau     dqmc      err       ed");
    for (tau, (g, e)) in tdm.taus().iter().zip(tdm.gloc()) {
        println!(
            "{tau:>5.2}  {g:>8.5}  {e:>8.5}  {:>8.5}",
            exact.greens_tau_local(*tau)
        );
    }

    // Part 2: momentum-resolved decay on a lattice.
    let lside = if mode.full() { 8 } else { 4 };
    println!("\n# G_k(tau) on {lside}x{lside}, U=4, beta=4 (decay rate ~ quasiparticle energy)");
    let model = ModelParams::new(Lattice::square(lside, lside, 1.0), 4.0, 0.0, 0.1, 40);
    let mut sim = Simulation::new(
        SimParams::new(model)
            .with_sweeps(warm / 4, meas / 4)
            .with_seed(bench::SEED + 1)
            .with_cluster_size(10)
            .with_bin_size(10)
            .with_unequal_time(true),
    );
    sim.run();
    let tdm = sim.time_dependent().expect("enabled");
    println!("tau     G_Gamma      G_M        G_X");
    let (gg, gm, gx) = (tdm.gk(0), tdm.gk(1), tdm.gk(2));
    for (i, tau) in tdm.taus().iter().enumerate() {
        println!(
            "{tau:>5.2}  {:>9.5}  {:>9.5}  {:>9.5}",
            gg[i].0, gm[i].0, gx[i].0
        );
    }
    println!("# Gamma (filled, eps<0): G(0) ~ 0 and grows to ~1 at beta as");
    println!("# e^(-(beta-tau)|eps|); M mirrors it (ph symmetry); X (on the");
    println!("# Fermi surface) stays near 1/2 and symmetric about beta/2.");
}
