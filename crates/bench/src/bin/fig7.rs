//! Figure 7: z-component spin–spin correlation C_zz(r) on a small and a
//! large lattice (paper: 12×12 vs 32×32, ρ = 1, U = 2, β = 32).
//!
//! The half-filled Hubbard model orders antiferromagnetically: C_zz(r)
//! alternates sign in a chessboard pattern. The harness prints the full
//! displacement grid (minimal-image coordinates) and the staggered
//! magnitude |C_zz| at the longest distance — the quantity whose
//! extrapolation to N → ∞ decides true long-range order.
//!
//! Usage: `cargo run --release -p bench --bin fig7 [--full]`

use bench::square_model;
use dqmc::{SimParams, Simulation};

fn main() {
    let mode = bench::mode("fig7");
    let (sides, beta, dtau, warm, meas): (&[usize], f64, f64, usize, usize) = if mode.full() {
        (&[12, 32], 32.0, 0.2, 1000, 2000)
    } else {
        (&[4, 8], 6.0, 0.15, 80, 160)
    };
    // U = 2 per the paper; the AF chessboard is weak but visible.
    let u = 2.0;

    println!("# Figure 7: C_zz(r) chessboard, rho=1 U={u} beta={beta}");
    for &lside in sides {
        let model = square_model(lside, u, beta, dtau);
        let mut sim = Simulation::new(
            SimParams::new(model)
                .with_sweeps(warm, meas)
                .with_seed(bench::SEED + lside as u64)
                .with_bin_size(10),
        );
        sim.run();
        let czz = sim.observables().czz();
        let lat = lattice::Lattice::square(lside, lside, 1.0);
        println!("\n# lattice {lside}x{lside}");
        println!("x  y  czz");
        for dy in 0..lside {
            for dx in 0..lside {
                let (x, y) = lat.min_image(dx, dy);
                println!("{x}  {y}  {:.5}", czz[(dx, dy)]);
            }
        }
        // Longest-distance correlation C_zz(L/2, L/2).
        let far = czz[(lside / 2, lside / 2)];
        let (saf, saf_err) = sim.observables().af_structure_factor();
        println!("# C_zz(L/2,L/2) = {far:.5}   S(pi,pi) = {saf:.4} +- {saf_err:.4}");
    }
    println!("\n# paper: chessboard sign pattern; large lattices estimate the");
    println!("# asymptotic C_zz(L/2,L/2) far better");
}
