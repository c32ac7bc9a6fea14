//! Figure 10: Green's-function evaluation performance on the hybrid
//! CPU+GPU system vs the CPU-only path, across system sizes (L = 160,
//! clustering on the device, stratification on the host), billed by
//! `bench::section6::hybrid_greens`.
//!
//! Usage: `cargo run --release -p bench --bin fig10 [--full]`

use bench::section6::{hybrid_greens, HostSpec};
use dqmc::StratAlgo;
use gpusim::{Device, DeviceSpec};
use util::table::{fmt_f, Table};

fn main() {
    let mode = bench::mode("fig10");
    let (sides, slices): (&[usize], usize) = if mode.full() {
        (&[8, 12, 16, 20, 24, 28, 32], 160)
    } else {
        (&[8, 12, 16, 20], 40)
    };
    let k = 10;

    println!("# Figure 10: hybrid CPU+GPU vs CPU-only Green's evaluation (L = {slices})");
    println!("# (gpu-full = stratification on the device too: the paper's future work)");
    let mut table = Table::new(vec![
        "N",
        "hybrid-gflops",
        "cpu-gflops",
        "speedup",
        "gpu-full-speedup",
    ]);
    let host = HostSpec::nehalem_2s4c();
    for &lside in sides {
        let n = lside * lside;
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let rep = hybrid_greens(&mut dev, &host, n, slices, k, StratAlgo::PrePivot)
            .expect("no fault plan is armed");
        table.row(vec![
            n.to_string(),
            fmt_f(rep.hybrid_gflops(), 1),
            fmt_f(rep.cpu_gflops(), 1),
            fmt_f(rep.cpu_seconds / rep.hybrid_seconds, 2),
            fmt_f(rep.cpu_seconds / rep.gpu_seconds, 2),
        ]);
    }
    print!("{}", table.render());
    println!("# paper: hybrid clearly above CPU-only, gap widening with N");
}
