//! Figure 9: performance of matrix clustering (Algorithm 4/5) and wrapping
//! (Algorithm 6/7) on the simulated GPU, against the device and host DGEMM
//! rates, across matrix sizes.
//!
//! Times are produced by the deterministic device model (`gpusim`), which
//! bills each kernel's launches, transfers and GEMMs by shape. The
//! reproduced shape: clustering ≈ device DGEMM ≫ wrapping > host DGEMM.
//!
//! Usage: `cargo run --release -p bench --bin fig9 [--full]`

use bench::BenchOpts;
use dqmc::{BMatrixFactory, HsField, ModelParams, Spin};
use gpusim::{try_cluster_crowd, try_wrap_on_device_into, Device, DeviceSpec, HostSpec};
use lattice::Lattice;
use linalg::Matrix;
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
    for &lside in sides {
        let n = lside * lside;
        let model = ModelParams::new(Lattice::square(lside, lside, 1.0), 4.0, 0.0, 0.125, k);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(opts.seed());
        let h = HsField::random(n, k, &mut rng);

        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let (ek, eki) = model.lattice.expk(model.dtau, model.mu_tilde);

        // Clustering: k−1 GEMMs of order n per transfer round trip, with
        // the one dense e^{−ΔτK}.
        let mut product = fac.cluster(&h, 0, k, Spin::Up);
        try_cluster_crowd(&mut dev, &[n], k, &mut [&mut product]).expect("no fault plan is armed");
        let t_cluster = dev.elapsed();
        let f_cluster = (k - 1) as f64 * 2.0 * (n as f64).powi(3);

        // Wrapping: 2 GEMMs per G round trip.
        let g = dqmc::greens_from_udt(&dqmc::stratify(
            &[fac.cluster(&h, 0, k, Spin::Up)],
            dqmc::StratAlgo::PrePivot,
        ))
        .g;
        dev.reset_clock();
        let mut out = Matrix::zeros(n, n);
        try_wrap_on_device_into(&mut dev, &ek, &eki, &fac, &h, 0, Spin::Up, &g, &mut out)
            .expect("no fault plan is armed");
        let t_wrap = dev.elapsed();
        let f_wrap = 2.0 * 2.0 * (n as f64).powi(3);

        let host = HostSpec::nehalem_2s4c();
        table.row(vec![
            n.to_string(),
            fmt_f(f_cluster / t_cluster / 1e9, 1),
            fmt_f(f_wrap / t_wrap / 1e9, 1),
            fmt_f(dev.spec().gemm_rate(n), 1),
            fmt_f(host.gemm_rate(n), 1),
        ]);
    }
    print!("{}", table.render());
    println!("# paper: clustering near GPU dgemm; wrapping lower but above CPU dgemm");
}
