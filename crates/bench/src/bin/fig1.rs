//! Figure 1: performance of DGEMM vs DGEQRF vs DGEQP3 across matrix sizes.
//!
//! The paper's point: matrix–matrix multiply reaches near-peak even at DQMC
//! sizes, unpivoted QR lands below it (panel overhead), and pivoted QR far
//! below both (level-2 norm updates) — which is why replacing QRP with a
//! pre-pivot + QR pays. Absolute GFlop/s depend on the machine; the ordering
//! and the gap shape are the reproduced result.
//!
//! Since the SIMD dispatch landed, the figure doubles as the micro-kernel
//! speedup record: the GEMM row reads scalar → fma → dispatched (AVX-512
//! where the host has it), each pinned with `gemm_with_kernel` and *held*
//! (one thread: the fork-join team of `linalg::team` taken for the
//! duration), then the dispatched kernel *free* (the team may put the host's
//! other cores on its chunks), which is the 1-vs-N-thread kernel row of the
//! ledger; the sizes start at N = 16 and 36 — the systems the scheduler,
//! service and fleet layers run, where a call's fixed cost shows — and cross
//! `team::FORK_FLOPS`, so the row shows where forking begins. A pinned path the host lacks runs its fallback, so its
//! column repeats the one to its left. The scalar tile fuses through
//! `f64::mul_add` (the other tiles' bits), which a build without a native
//! FMA makes a libm call per multiply-add: its column times that, not an
//! unfused loop. QR and QRP run held and free: past its cut, the QR's block
//! reflectors split their columns over the team (`linalg::team`'s column
//! split), while QRP's level-2 panel stays on one core. A default or
//! `--full` run also writes `BENCH_fig1.json` (`bench::ledger`), the
//! checked-in artifact; `--smoke` writes nothing.
//!
//! The last column is the DSYEV stand-in, `linalg::eig::sym_eig`, in
//! milliseconds per call on the hopping matrix K of the squarest periodic
//! `lx × ly` lattice with `n` sites (16×16 at n = 256, 24×24 at 576): the
//! U = 0 oracle's input. Each row also asserts the decomposition's backward
//! error `‖KV − VΛ‖_F ≤ 4·n·ε·‖K‖_F` and orthogonality
//! `‖VᵀV − I‖_F ≤ 4·n·ε`, so `--smoke` exercises the oracle.
//!
//! Usage: `cargo run --release -p bench --bin fig1 [--full | --smoke]`

use bench::ledger::{self, Row};
use bench::{flops_gemm, flops_qr, time_best};
use lattice::Lattice;
use linalg::blas3::matmul;
use linalg::eig::{sym_eig, SymEig};
use linalg::{gemm_with_kernel, kernel_path, KernelPath, Matrix, Op};
use util::table::{fmt_f, Table};

fn main() {
    let mode = bench::mode("fig1");
    let sizes: &[usize] = if mode.smoke() {
        &[16, 36, 64, 128, 256]
    } else if mode.full() {
        &[
            16, 36, 64, 96, 128, 256, 384, 512, 576, 768, 1024, 1536, 2048,
        ]
    } else {
        &[16, 36, 64, 96, 128, 256, 384, 512, 576, 768, 1024]
    };
    let dispatched = kernel_path();
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());

    println!("# Figure 1: kernel GFlop/s vs matrix size");
    println!("# (expected shape: gemm > qr > qrp at every size)");
    println!("# dispatched gemm kernel: {}", dispatched.name());
    println!("# host cores: {host_cores} (held = 1 thread, dgemm = the team)");
    let mut table = Table::new(vec![
        "N",
        "dgemm(scalar)",
        "dgemm(fma)",
        "dgemm(held)",
        "speedup",
        "dgemm",
        "team",
        "dgeqrf(held)",
        "dgeqrf",
        "dgeqp3(held)",
        "dgeqp3",
        "dsyev ms",
    ]);
    let mut rows = Vec::new();
    for &n in sizes {
        let mut rng = util::Rng::new(bench::SEED);
        let a = Matrix::random(n, n, &mut rng);
        let b = Matrix::random(n, n, &mut rng);

        let mut c = Matrix::zeros(n, n);
        let mut time_gemm = |path: KernelPath| {
            per_call(n, GEMM_WORK, || {
                gemm_with_kernel(path, 1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
            })
        };
        let time_qr = || per_call(n, GEMM_WORK, || linalg::qr::qr_in_place(a.clone()));
        let time_qrp = || per_call(n, GEMM_WORK, || linalg::qrp::qrp_in_place(a.clone()));
        // Held first: the scalar column is the longest run of the row, and at
        // N = 16 — the first row — it is what brings the core up to speed.
        let ([t_gemm_scalar, t_gemm_fma, t_gemm_held], t_qr_held, t_qrp_held) = {
            let _one_thread = linalg::team::hold();
            let gemm = [KernelPath::Scalar, KernelPath::Fma, dispatched].map(&mut time_gemm);
            (gemm, time_qr(), time_qrp())
        };
        let t_gemm = time_gemm(dispatched);
        let (t_qr, t_qrp) = (time_qr(), time_qrp());
        // The eigensolver is mostly level-2 work: a tenth of the budget
        // still times ≥ 3 calls per size and keeps the run near a minute.
        let k = lattice_k(n);
        let t_syev = per_call(n, GEMM_WORK / 10, || sym_eig(&k).expect("K is symmetric"));
        assert_backward_stable(&k, &sym_eig(&k).expect("K is symmetric"));

        let [gemm, held, fma, scalar] =
            [t_gemm, t_gemm_held, t_gemm_fma, t_gemm_scalar].map(|t| flops_gemm(n) / t / 1e9);
        let [qr, qr_held, qrp, qrp_held] =
            [t_qr, t_qr_held, t_qrp, t_qrp_held].map(|t| flops_qr(n) / t / 1e9);
        let syev_ms = t_syev * 1e3;
        table.row(vec![
            n.to_string(),
            fmt_f(scalar, 2),
            fmt_f(fma, 2),
            fmt_f(held, 2),
            fmt_f(held / scalar, 2),
            fmt_f(gemm, 2),
            fmt_f(gemm / held, 2),
            fmt_f(qr_held, 2),
            fmt_f(qr, 2),
            fmt_f(qrp_held, 2),
            fmt_f(qrp, 2),
            fmt_f(syev_ms, 3),
        ]);
        rows.push(
            Row::new()
                .int("n", n)
                .num("gemm_gflops", gemm, 3)
                .num("gemm_held_gflops", held, 3)
                .num("gemm_fma_gflops", fma, 3)
                .num("gemm_scalar_gflops", scalar, 3)
                .num("qr_gflops", qr, 3)
                .num("qr_held_gflops", qr_held, 3)
                .num("qrp_gflops", qrp, 3)
                .num("qrp_held_gflops", qrp_held, 3)
                .num("syev_ms", syev_ms, 3),
        );
    }
    print!("{}", table.render());

    let sizes: Vec<String> = sizes.iter().map(usize::to_string).collect();
    let workload = format!("N = {}", sizes.join(", "));
    ledger::write("fig1", mode, &workload, &[("sizes", &rows)]);
}

/// `n³` units of work [`per_call`] spends on each GEMM, QR and QRP cell.
const GEMM_WORK: usize = 400_000_000;

/// Best seconds per call of an order-`n` kernel: enough calls to cover
/// `work` units of `n³` (~0.4 GFlop for [`GEMM_WORK`]: a few ms on the
/// AVX-512 tile — a 3-call run at N = 128 would be 0.2 ms, less than one
/// wake-up of a parked helper), timed in samples of at least ~1 MFlop each,
/// so a 0.3 µs call at N = 16 is read off 245 back-to-back calls and not off
/// the clock's own overhead.
fn per_call<T>(n: usize, work: usize, mut f: impl FnMut() -> T) -> f64 {
    let calls = (work / (n * n * n)).max(if n <= 512 { 3 } else { 1 });
    let inner = (1_000_000 / (n * n * n)).max(1);
    let sample = || {
        for _ in 0..inner {
            std::hint::black_box(f());
        }
    };
    time_best(calls.div_ceil(inner), sample) / inner as f64
}

/// The hopping matrix of the squarest periodic `lx × ly` lattice with `n`
/// sites (`ly` the largest divisor of `n` not above `√n`).
fn lattice_k(n: usize) -> Matrix {
    let ly = (1..=n)
        .take_while(|d| d * d <= n)
        .filter(|&d| n.is_multiple_of(d))
        .max();
    let ly = ly.expect("n ≥ 1");
    Lattice::square(n / ly, ly, 1.0).kinetic_matrix(0.0)
}

/// Asserts `‖KV − VΛ‖_F ≤ 4·n·ε·‖K‖_F` and `‖VᵀV − I‖_F ≤ 4·n·ε`.
fn assert_backward_stable(k: &Matrix, e: &SymEig) {
    let n = k.nrows();
    let bound = 4.0 * n as f64 * f64::EPSILON;
    let mut vl = e.vectors.clone();
    linalg::scale::col_scale(&e.values, &mut vl);
    let mut resid = matmul(k, Op::NoTrans, &e.vectors, Op::NoTrans);
    resid.axpy(-1.0, &vl);
    let backward = resid.norm_fro() / k.norm_fro();
    assert!(
        backward <= bound,
        "sym_eig n = {n}: backward error {backward:e}"
    );
    let mut gram = matmul(&e.vectors, Op::Trans, &e.vectors, Op::NoTrans);
    gram.axpy(-1.0, &Matrix::identity(n));
    let orth = gram.norm_fro();
    assert!(orth <= bound, "sym_eig n = {n}: orthogonality {orth:e}");
}
