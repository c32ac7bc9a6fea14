//! Figure 8: total DQMC simulation wall-clock time vs number of sites,
//! against the nominal O(N³) prediction anchored at the smallest size.
//!
//! The paper's observation: measured times grow *slower* than N³ because
//! the linear-algebra kernels' parallel/cache efficiency improves with
//! matrix size (their 1024-site run cost 28× the 256-site run instead of
//! the nominal 64×). The same sub-cubic shape appears here.
//!
//! Usage: `cargo run --release -p bench --bin fig8 [--full]`

use bench::{site_sweep, square_model, time_once};
use dqmc::{SimParams, Simulation};
use util::table::{fmt_f, Table};

fn main() {
    let mode = bench::mode("fig8");
    let (beta, dtau, warm, meas) = if mode.full() {
        (32.0, 0.2, 1000, 2000) // the paper's 36-hour configuration
    } else {
        (4.0, 0.2, 10, 20)
    };

    println!("# Figure 8: whole-simulation seconds vs N, with N^3 nominal line");
    println!("# beta={beta}, {warm}+{meas} sweeps");
    let mut table = Table::new(vec!["N", "seconds", "nominal-N^3", "ratio"]);
    let mut anchor: Option<(usize, f64)> = None;
    for lside in site_sweep(mode.full()) {
        let n = lside * lside;
        let model = square_model(lside, 4.0, beta, dtau);
        let (_, secs) = time_once(|| {
            let mut sim = Simulation::new(
                SimParams::new(model)
                    .with_sweeps(warm, meas)
                    .with_seed(bench::SEED),
            );
            sim.run();
            sim
        });
        let (n0, t0) = *anchor.get_or_insert((n, secs));
        let nominal = t0 * (n as f64 / n0 as f64).powi(3);
        table.row(vec![
            n.to_string(),
            fmt_f(secs, 2),
            fmt_f(nominal, 2),
            fmt_f(secs / nominal, 2),
        ]);
    }
    print!("{}", table.render());
    println!("# paper: measured/nominal ratio < 1 (28/64 at N=1024 vs N=256)");
}
