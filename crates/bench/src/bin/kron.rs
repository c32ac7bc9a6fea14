//! The ledger rows behind `dqmc::bmat::KRON_MIN_SITES` and
//! `linalg::kron::DIRECT_CUT`, and an oracle for the second.
//!
//! - **Cut.** One mode product (`linalg::kron::mode_product_on`) at every
//!   factor order 2 … 64, on the direct kernel and on the GEMM route (one
//!   GEMM on `inner = 1`, one per slab with the factor packed once on the
//!   others), for the four step kinds a two-axis product runs: `inner = 1`,
//!   `n`, `n²` and one slab. The buffer holds about 2¹⁶ values (`n³·⌈2¹⁶/n³⌉`, the N = 256
//!   operand at n = 16).
//! - **Products.** One product with `e^{−ΔτK}` applied dense (one `N`-order
//!   mode product: direct at N = 36, a GEMM from 64 up) against applied
//!   factor by factor (`linalg::Kron`), from the left and from the right, on
//!   square lattices N = 36 … 1024, with the µs of each of the factored
//!   product's mode products.
//!
//! Everything is held to one thread, as a spin-pair chunk runs it. Before
//! timing, every shape it times is run on both routes under every kernel
//! path, and the program exits 1 if any two results differ in a bit. A
//! default run writes `BENCH_kron.json` (`bench::ledger`; rows tagged `cut`
//! or `products`) into the current directory; `--smoke` times fewer shapes,
//! checks every kernel path and writes nothing.
//!
//! Usage: `cargo run --release -p bench --bin kron [--smoke]`

use bench::ledger::{self, Row};
use bench::time_best;
use lattice::Lattice;
use linalg::kron::{mode_product_on, Route, DIRECT_CUT};
use linalg::{kernel_path, KernelPath, Kron, Matrix, Op, Side};
use util::table::{fmt_f, Table};

fn main() {
    let mode = bench::mode("kron");
    let (orders, sides): (Vec<usize>, &[usize]) = if mode.smoke() {
        (vec![2, 3, 5, 10, 16, 17, 32], &[6, 10, 16])
    } else {
        ((2..=64).collect(), &[6, 8, 10, 12, 16, 20, 24, 32])
    };
    let mut rng = util::Rng::new(bench::SEED);
    // The scalar path is a libm call per multiply-add: the full run checks
    // the dispatched path (`tests/kernel_paths.rs` pins every path).
    let paths = if mode.smoke() {
        vec![KernelPath::Scalar, KernelPath::Fma, KernelPath::Avx512]
    } else {
        vec![kernel_path()]
    };
    let mut mismatches = 0;
    for &n in &orders {
        let len = cut_len(n);
        let a = Matrix::random(n, n, &mut rng);
        let src = Matrix::random(len, 1, &mut rng);
        for inner in cut_inners(n, len) {
            mismatches += oracle(&paths, &a, inner, &src);
        }
    }
    for &side in sides {
        let n = side * side;
        let (factors, _) = Lattice::square(side, side, 1.0).expk_factors(0.125, 0.0);
        let m = Matrix::random(n, n, &mut rng);
        for (f, inner) in factors.iter().zip([1, side]) {
            mismatches += oracle(&paths, f, inner, &m);
            mismatches += oracle(&paths, f, inner * n, &m);
        }
    }
    if mismatches > 0 {
        eprintln!("kron: {mismatches} mode products differ between the routes");
        std::process::exit(1);
    }
    let names: Vec<_> = paths.iter().map(|p| p.name()).collect();
    println!("# oracle: direct == GEMM route bit for bit on every shape below, paths {names:?}");

    let _one_thread = linalg::team::hold();
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!(
        "# kernel: {}, host cores: {host_cores}, held (1 thread), direct below order {DIRECT_CUT}",
        kernel_path().name()
    );
    println!("# one mode product, us: direct / GEMM route");
    let mut table = Table::new(vec![
        "order", "len", "inner 1", "", "inner n", "", "inner n2", "", "one slab", "",
    ]);
    let mut cut_rows = Vec::new();
    for &n in &orders {
        let len = cut_len(n);
        let a = Matrix::random(n, n, &mut rng);
        let mut bufs = [Matrix::random(len, 1, &mut rng), Matrix::zeros(len, 1)];
        let mut us = [[0.0; 4]; 2];
        for (s, inner) in cut_inners(n, len).into_iter().enumerate() {
            for (r, route) in [Route::Direct, Route::Gemm].into_iter().enumerate() {
                us[r][s] = per_call(2.0 * len as f64 * n as f64, || {
                    let [x, y] = &mut bufs;
                    mode_product_on(kernel_path(), route, &a, Op::NoTrans, inner, x, y);
                });
            }
        }
        let mut cells = vec![n.to_string(), len.to_string()];
        let mut row = Row::new().int("order", n).int("len", len);
        for (key, us) in CUT_KEYS.iter().flatten().zip(us.iter().flatten()) {
            row = row.num(key, *us, 2);
        }
        for s in 0..4 {
            cells.push(fmt_f(us[0][s], 1));
            cells.push(fmt_f(us[1][s], 1));
        }
        table.row(cells);
        cut_rows.push(row);
    }
    print!("{}", table.render());

    println!("# e^(-dtau K) products, us per product; steps: us per mode product");
    let mut table = Table::new(vec![
        "N",
        "dense left",
        "kron left",
        "ratio",
        "dense right",
        "kron right",
        "ratio",
        "step 1",
        "step L",
        "step N",
        "step NL",
    ]);
    let mut rows = Vec::new();
    for &side in sides {
        let lattice = Lattice::square(side, side, 1.0);
        let n = lattice.nsites();
        let (dense, dense_inv) = lattice.expk(0.125, 0.0);
        let (factors, factors_inv) = lattice.expk_factors(0.125, 0.0);
        let dense = [Kron::new(vec![dense]), Kron::new(vec![dense_inv])];
        let kron = [Kron::new(factors), Kron::new(factors_inv)];
        let mut bufs = [Matrix::random(n, n, &mut rng), Matrix::zeros(n, n)];
        let flops = 2.0 * (n * n * n) as f64;
        // e^{−ΔτK} then e^{+ΔτK}, each reading the other's product, so the
        // operand stays the random matrix it started as (to rounding).
        let mut time = |[fwd, bwd]: &[Kron; 2], side: Side| {
            let mut at = 0;
            per_call(2.0 * flops, || {
                for op in [fwd, bwd] {
                    let [a, b] = &mut bufs;
                    at = op.apply(side, [a, b], at);
                }
            }) / 2.0
        };
        let (dense_left_us, kron_left_us) = (time(&dense, Side::Left), time(&kron, Side::Left));
        let (dense_right_us, kron_right_us) = (time(&dense, Side::Right), time(&kron, Side::Right));
        let mut step_us = [0.0; 4];
        let f = &kron[0].factors()[0];
        for (s, inner) in [1, side, n, n * side].into_iter().enumerate() {
            step_us[s] = per_call(2.0 * (n * n * side) as f64, || {
                let [x, y] = &mut bufs;
                linalg::kron::mode_product(f, Op::NoTrans, inner, x, y);
            });
        }
        let mut cells = vec![
            n.to_string(),
            fmt_f(dense_left_us, 1),
            fmt_f(kron_left_us, 1),
            fmt_f(dense_left_us / kron_left_us, 2),
            fmt_f(dense_right_us, 1),
            fmt_f(kron_right_us, 1),
            fmt_f(dense_right_us / kron_right_us, 2),
        ];
        cells.extend(step_us.iter().map(|&us| fmt_f(us, 1)));
        table.row(cells);
        let mut row = Row::new()
            .int("n", n)
            .num("dense_left_us", dense_left_us, 2)
            .num("kron_left_us", kron_left_us, 2)
            .num("dense_right_us", dense_right_us, 2)
            .num("kron_right_us", kron_right_us, 2);
        for (key, us) in PRODUCT_STEPS.into_iter().zip(step_us) {
            row = row.num(key, us, 2);
        }
        rows.push(row);
    }
    print!("{}", table.render());

    let workload = format!(
        "one thread, direct below order {DIRECT_CUT}; cut: orders {}..{}; products: N = {}",
        orders[0],
        orders[orders.len() - 1],
        sides
            .iter()
            .map(|s| (s * s).to_string())
            .collect::<Vec<_>>()
            .join(", ")
    );
    let tables = [("cut", &cut_rows[..]), ("products", &rows[..])];
    ledger::write("kron", mode, &workload, &tables);
}

/// The cut rows' keys: the direct route's four step kinds, then the GEMM
/// route's.
const CUT_KEYS: [[&str; 4]; 2] = [
    [
        "direct_inner1_us",
        "direct_inner_n_us",
        "direct_inner_n2_us",
        "direct_slab_us",
    ],
    [
        "gemm_inner1_us",
        "gemm_inner_n_us",
        "gemm_inner_n2_us",
        "gemm_slab_us",
    ],
];

/// The product rows' step keys: the factored products' mode products at
/// `inner = 1, side` (left) and `N, N·side` (right).
const PRODUCT_STEPS: [&str; 4] = ["step_1_us", "step_l_us", "step_n_us", "step_nl_us"];

/// The cut table's buffer length at order `n`: a multiple of `n³` near 2¹⁶.
fn cut_len(n: usize) -> usize {
    let cube = n * n * n;
    cube * (65_536 / cube).max(1)
}

/// The cut table's step kinds: `inner = 1`, `n`, `n²` and one slab.
fn cut_inners(n: usize, len: usize) -> [usize; 4] {
    [1, n, n * n, len / n]
}

/// Runs one mode product of `a` (both ops) on `src` by both routes under
/// each of `paths`; returns how many results differ from the dispatched
/// GEMM route in any bit.
fn oracle(paths: &[KernelPath], a: &Matrix, inner: usize, src: &Matrix) -> usize {
    let bits = |m: &Matrix| m.as_slice().iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    let mut bad = 0;
    for op in [Op::NoTrans, Op::Trans] {
        let run = |path, route| {
            let mut dst = Matrix::zeros(src.nrows(), src.ncols());
            mode_product_on(path, route, a, op, inner, src, &mut dst);
            bits(&dst)
        };
        let want = run(kernel_path(), Route::Gemm);
        for &path in paths {
            for route in [Route::Direct, Route::Gemm] {
                if run(path, route) != want {
                    eprintln!(
                        "kron: order {}, inner {inner}, {op:?}: {route:?} on {} differs",
                        a.nrows(),
                        path.name()
                    );
                    bad += 1;
                }
            }
        }
    }
    bad
}

/// Best µs per call of `f`, which does `flops` of work, over samples of
/// about 2 ms each.
fn per_call(flops: f64, mut f: impl FnMut()) -> f64 {
    let inner = (4e7 / flops).max(1.0) as usize;
    let sample = || {
        for _ in 0..inner {
            f();
        }
    };
    time_best(15, sample) / inner as f64 * 1e6
}
