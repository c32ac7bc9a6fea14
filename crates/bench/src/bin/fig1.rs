//! Figure 1: performance of DGEMM vs DGEQRF vs DGEQP3 across matrix sizes.
//!
//! The paper's point: matrix–matrix multiply reaches near-peak even at DQMC
//! sizes, unpivoted QR lands below it (panel overhead), and pivoted QR far
//! below both (level-2 norm updates) — which is why replacing QRP with a
//! pre-pivot + QR pays. Absolute GFlop/s depend on the machine; the ordering
//! and the gap shape are the reproduced result.
//!
//! Since the SIMD dispatch landed, the GEMM row is measured twice: once on
//! the runtime-selected kernel (FMA where the host supports it) and once
//! pinned to the portable scalar kernel, so the figure doubles as the
//! micro-kernel speedup record. And since the fork-join team
//! (`linalg::team`), the dispatched GEMM is measured *held* (one thread:
//! the team taken for the duration) and *free* (the team may put the
//! host's other cores on its chunks), which is the 1-vs-N-thread kernel row
//! of the ledger; the sizes start below `team::FORK_FLOPS` so the row shows
//! where forking begins. QR and QRP run free. Results are also written to
//! `BENCH_fig1.json` (with `host_cores`) for the checked-in benchmark
//! artifact.
//!
//! Usage: `cargo run --release -p bench --bin fig1 [--full | --smoke]`

use bench::{flops_gemm, flops_qr, time_best, BenchOpts};
use linalg::{gemm_with_kernel, kernel_path, KernelPath, Matrix, Op};
use util::table::{fmt_f, Table};

struct Row {
    n: usize,
    gemm: f64,
    gemm_held: f64,
    gemm_scalar: f64,
    qr: f64,
    qrp: f64,
}

fn main() {
    let opts = BenchOpts::from_env();
    let sizes: &[usize] = if opts.smoke {
        &[64, 128, 256]
    } else if opts.full {
        &[64, 96, 128, 256, 384, 512, 768, 1024, 1536, 2048]
    } else {
        &[64, 96, 128, 256, 384, 512, 768, 1024]
    };
    // Best of enough repetitions to cover ~0.1 GFlop per timing: a 3-call
    // sample at N = 128 is 0.4 ms, less than one wake-up of a parked helper.
    let reps = |n: usize| (100_000_000 / (n * n * n)).clamp(if n <= 512 { 3 } else { 1 }, 200);
    let dispatched = kernel_path();
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    println!("# Figure 1: kernel GFlop/s vs matrix size");
    println!("# (expected shape: gemm > qr > qrp at every size)");
    println!("# dispatched gemm kernel: {}", dispatched.name());
    println!("# host cores: {host_cores} (held = 1 thread, dgemm = the team)");
    let mut table = Table::new(vec![
        "N",
        "dgemm",
        "dgemm(held)",
        "team",
        "dgemm(scalar)",
        "speedup",
        "dgeqrf",
        "dgeqp3",
    ]);
    let mut rows = Vec::new();
    for &n in sizes {
        let mut rng = util::Rng::new(opts.seed());
        let a = Matrix::random(n, n, &mut rng);
        let b = Matrix::random(n, n, &mut rng);

        let mut c = Matrix::zeros(n, n);
        let mut time_gemm = |path: KernelPath| {
            time_best(reps(n), || {
                gemm_with_kernel(path, 1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
            })
        };
        let t_gemm = time_gemm(dispatched);
        let t_gemm_held = {
            let _one_thread = linalg::team::hold();
            time_gemm(dispatched)
        };
        let t_gemm_scalar = time_gemm(KernelPath::Scalar);
        let t_qr = time_best(reps(n), || linalg::qr::qr_in_place(a.clone()));
        let t_qrp = time_best(reps(n), || linalg::qrp::qrp_in_place(a.clone()));

        let row = Row {
            n,
            gemm: flops_gemm(n) / t_gemm / 1e9,
            gemm_held: flops_gemm(n) / t_gemm_held / 1e9,
            gemm_scalar: flops_gemm(n) / t_gemm_scalar / 1e9,
            qr: flops_qr(n) / t_qr / 1e9,
            qrp: flops_qr(n) / t_qrp / 1e9,
        };
        table.row(vec![
            n.to_string(),
            fmt_f(row.gemm, 2),
            fmt_f(row.gemm_held, 2),
            fmt_f(row.gemm / row.gemm_held, 2),
            fmt_f(row.gemm_scalar, 2),
            fmt_f(row.gemm / row.gemm_scalar, 2),
            fmt_f(row.qr, 2),
            fmt_f(row.qrp, 2),
        ]);
        rows.push(row);
    }
    print!("{}", table.render());

    let json = render_json(dispatched, host_cores, &rows);
    let path = "BENCH_fig1.json";
    match util::vfs::write_atomic(std::path::Path::new(path), json.as_bytes()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
    if let Some(last) = rows.last() {
        eprintln!(
            "gemm speedup over scalar at N={}: {:.2}x",
            last.n,
            last.gemm / last.gemm_scalar
        );
    }
}

/// Hand-rendered JSON (no serde in the dependency closure).
fn render_json(dispatched: KernelPath, host_cores: usize, rows: &[Row]) -> String {
    let mut s = String::new();
    s.push_str("{\n");
    s.push_str(&format!("  \"kernel\": \"{}\",\n", dispatched.name()));
    s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"n\": {}, \"gemm_gflops\": {:.3}, \"gemm_held_gflops\": {:.3}, \
             \"gemm_scalar_gflops\": {:.3}, \
             \"gemm_speedup\": {:.3}, \"qr_gflops\": {:.3}, \"qrp_gflops\": {:.3}}}{}\n",
            r.n,
            r.gemm,
            r.gemm_held,
            r.gemm_scalar,
            r.gemm / r.gemm_scalar,
            r.qr,
            r.qrp,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ],\n");
    let last = rows.last().expect("at least one size");
    s.push_str(&format!(
        "  \"gemm_speedup_at_max_n\": {:.3}\n",
        last.gemm / last.gemm_scalar
    ));
    s.push_str("}\n");
    s
}
