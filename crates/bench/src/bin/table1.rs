//! Table I: percentage of simulation time per phase — delayed rank-1
//! updates, stratification, clustering, wrapping, physical measurements —
//! across system sizes.
//!
//! The paper's profile at N = 256…1024: stratification ≈ 44–49 %, delayed
//! updates ≈ 14–17 %, clustering and wrapping ≈ 8–12 % each, measurements
//! ≈ 18–20 %; Green's-function work in total ≈ 65 % (down from 95 % in
//! sequential QUEST).
//!
//! Usage: `cargo run --release -p bench --bin table1 [--full]`

use bench::{site_sweep, square_model};
use dqmc::{SimParams, Simulation};
use util::table::{fmt_f, Table};

fn profile_row(
    lside: usize,
    beta: f64,
    dtau: f64,
    warm: usize,
    meas: usize,
    seed: u64,
    dynamic: bool,
) -> Vec<String> {
    let n = lside * lside;
    let model = square_model(lside, 4.0, beta, dtau);
    let mut sim = Simulation::new(
        SimParams::new(model)
            .with_sweeps(warm, meas)
            .with_seed(seed)
            .with_unequal_time(dynamic),
    );
    sim.run();
    let rep = sim.phase_report();
    let pct = |name: &str| {
        rep.rows
            .iter()
            .find(|(p, _, _)| p == name)
            .map(|(_, _, pct)| *pct)
            .unwrap_or(0.0)
    };
    vec![
        n.to_string(),
        fmt_f(pct("delayed-update"), 1),
        fmt_f(pct("stratification"), 1),
        fmt_f(pct("clustering"), 1),
        fmt_f(pct("wrapping"), 1),
        fmt_f(pct("measurement"), 1),
    ]
}

fn main() {
    let mode = bench::mode("table1");
    let (beta, dtau, warm, meas) = if mode.full() {
        (32.0, 0.2, 100, 200)
    } else {
        (4.0, 0.2, 10, 20)
    };
    let headers = vec![
        "N",
        "delayed-update",
        "stratification",
        "clustering",
        "wrapping",
        "measurement",
    ];

    println!("# Table I: % of execution time per phase (beta={beta}, {warm}+{meas} sweeps)");
    println!("# (a) static measurements only");
    let mut table = Table::new(headers.clone());
    for lside in site_sweep(mode.full()) {
        table.row(profile_row(
            lside,
            beta,
            dtau,
            warm,
            meas,
            bench::SEED,
            false,
        ));
    }
    print!("{}", table.render());

    // QUEST's measurement suite includes dynamic (unequal-time) observables,
    // which is what makes its measurement share ≈ 18-20 %. Enable ours for
    // the comparable profile.
    println!("\n# (b) with dynamic (unequal-time) measurements, as QUEST runs them");
    let mut table = Table::new(headers);
    for lside in site_sweep(mode.full()) {
        table.row(profile_row(
            lside,
            beta,
            dtau,
            warm,
            meas,
            bench::SEED,
            true,
        ));
    }
    print!("{}", table.render());
    println!("# paper (N=256..1024): 14-17 / 44-49 / 8-12 / 9-12 / 18-20");
}
