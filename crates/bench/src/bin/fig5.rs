//! Figure 5: mean momentum distribution ⟨n_k⟩ along the momentum-space
//! symmetry line (0,0) → (π,π) → (π,0) → (0,0) for several lattice sizes.
//!
//! Paper parameters: ρ = 1, U = 2, β = 32 (L = 160), lattices 16²…32²,
//! 1000 + 2000 sweeps. Default here: U = 2, β = 6, lattices 4²…8², reduced
//! sweeps — the sharp Fermi-surface crossing near the middle of the
//! (0,0)→(π,π) segment survives the scaling-down.
//!
//! Usage: `cargo run --release -p bench --bin fig5 [--full]`

use bench::square_model;
use dqmc::{SimParams, Simulation};

fn main() {
    let mode = bench::mode("fig5");
    let (sides, beta, dtau, warm, meas): (&[usize], f64, f64, usize, usize) = if mode.full() {
        (&[16, 20, 24, 28, 32], 32.0, 0.2, 1000, 2000)
    } else {
        (&[4, 6, 8], 6.0, 0.15, 60, 120)
    };

    println!("# Figure 5: <n_k> along (0,0)->(pi,pi)->(pi,0)->(0,0)");
    println!("# rho=1 U=2 beta={beta} ; columns: arc then one <n_k> column per lattice");
    let mut runs = Vec::new();
    for &lside in sides {
        let model = square_model(lside, 2.0, beta, dtau);
        let mut sim = Simulation::new(
            SimParams::new(model)
                .with_sweeps(warm, meas)
                .with_seed(bench::SEED + lside as u64)
                .with_bin_size(10),
        );
        sim.run();
        let path = sim.observables().momentum_distribution_path();
        eprintln!(
            "# {lside}x{lside}: sign {:.3}, acceptance {:.2}",
            sim.observables().avg_sign().0,
            sim.acceptance_rate()
        );
        runs.push((lside, path));
    }

    // Print each lattice as its own block (path lengths differ).
    for (lside, path) in &runs {
        println!("\n# lattice {lside}x{lside}");
        println!("arc  n_k");
        for (arc, v) in path {
            println!("{arc:.4}  {v:.4}");
        }
    }
    println!("\n# paper: sharp Fermi surface near the middle of (0,0)->(pi,pi);");
    println!("# larger lattices resolve the discontinuity better");
}
