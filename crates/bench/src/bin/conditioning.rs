//! Chain-conditioning study — quantifying the paper's §III motivation that
//! `B_L⋯B_1` is "extremely ill-conditioned" at low temperature or strong
//! coupling. Prints `log10 κ(B(τ,0))` versus τ for several U, estimated
//! from the graded D of the stratified decomposition (no product is ever
//! formed, so the numbers remain meaningful at any β).
//!
//! Usage: `cargo run --release -p bench --bin conditioning [--full]`

use bench::{square_model, thermalised_state};
use dqmc::{condition_profile, Spin, StratAlgo};
use util::table::{fmt_f, Table};

fn main() {
    let mode = bench::mode("conditioning");
    let (lside, beta, dtau) = if mode.full() {
        (16, 32.0, 0.2)
    } else {
        (6, 8.0, 0.2)
    };
    let us = [0.0, 2.0, 4.0, 8.0];

    println!("# log10 condition number of B(tau,0) vs tau ({lside}x{lside}, beta={beta})");
    let mut profiles = Vec::new();
    for &u in &us {
        let model = square_model(lside, u, beta, dtau);
        let (fac, h) = thermalised_state(&model, 2, bench::SEED);
        profiles.push(condition_profile(
            &fac,
            &h,
            dtau,
            10,
            Spin::Up,
            StratAlgo::PrePivot,
        ));
    }

    let mut table = Table::new(vec!["tau", "U=0", "U=2", "U=4", "U=8"]);
    for (i, &tau) in profiles[0].taus.iter().enumerate() {
        let mut row = vec![fmt_f(tau, 1)];
        for p in &profiles {
            row.push(fmt_f(p.log_condition()[i], 1));
        }
        table.row(row);
    }
    print!("{}", table.render());
    println!(
        "# growth rates (decades per unit tau): {}",
        profiles
            .iter()
            .zip(us.iter())
            .map(|(p, u)| format!("U={u}: {:.2}", p.growth_rate()))
            .collect::<Vec<_>>()
            .join(", ")
    );
    println!("# f64 holds ~308 decades: naive products fail long before beta=32");
}
