//! Figure 6: colour-contour data of the mean momentum distribution ⟨n_k⟩
//! on a small and a large lattice (paper: 12×12 vs 32×32).
//!
//! Emits the full (kx, ky, ⟨n_k⟩) grid for each lattice; the larger lattice
//! resolves the Fermi surface in far more detail — the paper's argument for
//! pushing N beyond 500.
//!
//! Usage: `cargo run --release -p bench --bin fig6 [--full]`

use bench::square_model;
use dqmc::{SimParams, Simulation};
use std::f64::consts::PI;

fn main() {
    let mode = bench::mode("fig6");
    let (sides, beta, dtau, warm, meas): (&[usize], f64, f64, usize, usize) = if mode.full() {
        (&[12, 32], 32.0, 0.2, 1000, 2000)
    } else {
        (&[4, 8], 6.0, 0.15, 60, 120)
    };

    println!("# Figure 6: <n_k> grid, rho=1 U=2 beta={beta}");
    for &lside in sides {
        let model = square_model(lside, 2.0, beta, dtau);
        let mut sim = Simulation::new(
            SimParams::new(model)
                .with_sweeps(warm, meas)
                .with_seed(bench::SEED + lside as u64)
                .with_bin_size(10),
        );
        sim.run();
        let nk = sim.observables().momentum_distribution();
        println!("\n# lattice {lside}x{lside}");
        println!("kx  ky  n_k");
        for ny in 0..lside {
            for nx in 0..lside {
                // Fold to (−π, π] for the contour plot convention.
                let fold = |i: usize| {
                    let k = 2.0 * PI * i as f64 / lside as f64;
                    if k > PI {
                        k - 2.0 * PI
                    } else {
                        k
                    }
                };
                println!("{:.4}  {:.4}  {:.4}", fold(nx), fold(ny), nk[(nx, ny)]);
            }
        }
    }
    println!("\n# paper: the larger lattice reveals much more Fermi-surface detail");
}
