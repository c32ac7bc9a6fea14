//! Figure 4: effective GFlop/s of the Green's-function evaluation vs N,
//! against the DGEMM and DGEQRF rates at the same order.
//!
//! The paper's claim: the improved evaluation runs at roughly 70 % of the
//! DGEMM rate and *above* DGEQRF. The flop attribution per evaluation is
//! `L_k` stratification iterations (GEMM + QR + form-Q + T update) plus the
//! clustering GEMMs actually rebuilt and the final assembly.
//!
//! Usage: `cargo run --release -p bench --bin fig4 [--full]`

use bench::{
    flops_gemm, flops_qr, site_sweep, square_model, thermalised_state, time_best, BenchOpts,
};
use dqmc::{greens_from_udt, stratify, ClusterCache, Spin, StratAlgo};
use linalg::{gemm, Matrix, Op};
use util::table::{fmt_f, Table};

fn main() {
    let opts = BenchOpts::from_env();
    let (beta, dtau) = if opts.full { (32.0, 0.2) } else { (8.0, 0.2) };
    let k = 10usize;
    let slices = (beta / dtau) as usize;
    let lk = slices.div_ceil(k);

    println!("# Figure 4: Green's function evaluation GFlop/s vs kernels (L = {slices})");
    let mut table = Table::new(vec!["N", "greens-eval", "dgemm", "dgeqrf"]);
    for lside in site_sweep(opts.full) {
        let n = lside * lside;
        let model = square_model(lside, 4.0, beta, dtau);
        let (fac, h) = thermalised_state(&model, 2, opts.seed());

        // One evaluation with a warm cache and one stale cluster: the
        // steady-state workload of a sweep.
        let mut cache = ClusterCache::new(slices, k);
        let _ = cache.factors_after_slice(&fac, &h, slices - 1, Spin::Up);
        let secs = time_best(3, || {
            cache.invalidate_slice(0);
            let factors = cache.factors_after_slice(&fac, &h, slices - 1, Spin::Up);
            greens_from_udt(&stratify(&factors, StratAlgo::PrePivot))
        });
        // Flops: k−1 clustering GEMMs (one rebuilt cluster) + per-iteration
        // stratification work + assembly (matching bench::section6's model).
        let nf = n as f64;
        let flops = (k - 1) as f64 * 2.0 * nf.powi(3)
            + lk as f64 * (2.0 + 4.0 / 3.0 + 4.0 / 3.0 + 1.0) * nf.powi(3)
            + 8.0 / 3.0 * nf.powi(3);

        let mut rng = util::Rng::new(opts.seed());
        let a = Matrix::random(n, n, &mut rng);
        let b = Matrix::random(n, n, &mut rng);
        let t_gemm = time_best(3, || {
            let mut c = Matrix::zeros(n, n);
            gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
            c
        });
        let t_qr = time_best(3, || linalg::qr::qr_in_place(a.clone()));

        table.row(vec![
            n.to_string(),
            fmt_f(flops / secs / 1e9, 2),
            fmt_f(flops_gemm(n) / t_gemm / 1e9, 2),
            fmt_f(flops_qr(n) / t_qr / 1e9, 2),
        ]);
    }
    print!("{}", table.render());
    println!("# paper: evaluation ≈ 70% of dgemm and above dgeqrf");
}
