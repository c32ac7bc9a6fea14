//! Figure 9: performance of matrix clustering (Algorithm 4/5) and wrapping
//! (Algorithm 6/7) on the simulated GPU, against the device and host DGEMM
//! rates, across matrix sizes.
//!
//! Times are produced by the deterministic device model (`gpusim`), which
//! bills each kernel's launches, transfers and GEMMs by shape
//! (`bench::section6`). The reproduced shape: clustering ≈ device DGEMM ≫
//! wrapping > host DGEMM.
//!
//! Usage: `cargo run --release -p bench --bin fig9 [--full]`

use bench::section6::{try_cluster_kernel, try_wrap_fused, HostSpec};
use bench::BenchOpts;
use gpusim::{Device, DeviceSpec};
use util::table::{fmt_f, Table};

fn main() {
    let opts = BenchOpts::from_env();
    let sides: &[usize] = if opts.full {
        &[8, 12, 16, 20, 24, 28, 32]
    } else {
        &[8, 12, 16, 20]
    };
    let k = 10usize;

    println!("# Figure 9: simulated-GPU GFlop/s of clustering and wrapping vs N");
    let mut table = Table::new(vec![
        "N",
        "gpu-cluster",
        "gpu-wrap",
        "gpu-dgemm",
        "cpu-dgemm",
    ]);
    let host = HostSpec::nehalem_2s4c();
    for &lside in sides {
        let n = lside * lside;
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        // Clustering: k−1 GEMMs of order n per transfer round trip, with
        // the one dense e^{−ΔτK}.
        let cluster = try_cluster_kernel(&mut dev, n, k).expect("no fault plan is armed");
        // Wrapping: 2 GEMMs per G round trip.
        dev.reset_clock();
        let wrap = try_wrap_fused(&mut dev, n).expect("no fault plan is armed");
        table.row(vec![
            n.to_string(),
            fmt_f(cluster.gflops(), 1),
            fmt_f(wrap.gflops(), 1),
            fmt_f(dev.spec().gemm_rate(n), 1),
            fmt_f(host.gemm_rate(n), 1),
        ]);
    }
    print!("{}", table.render());
    println!("# paper: clustering near GPU dgemm; wrapping lower but above CPU dgemm");
}
