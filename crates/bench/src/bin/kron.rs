//! The ledger row behind `dqmc::bmat::KRON_MIN_SITES`: one product with
//! `e^{−ΔτK}` applied dense (one `N`-order GEMM) against applied factor by
//! factor (`linalg::Kron`, one GEMM per lattice axis), from the left and
//! from the right, held to one thread as a spin-pair chunk runs it.
//!
//! Square lattices at N = 36 … 400. Prints µs per product and writes
//! `BENCH_kron.json` (with `host_cores` and the kernel path) into the
//! current directory.
//!
//! Usage: `cargo run --release -p bench --bin kron [--smoke]`

use bench::{cpu_model, time_best, BenchOpts};
use lattice::Lattice;
use linalg::{kernel_path, Kron, Matrix, Side};
use util::table::{fmt_f, Table};

struct Row {
    n: usize,
    dense_left_us: f64,
    kron_left_us: f64,
    dense_right_us: f64,
    kron_right_us: f64,
}

fn main() {
    let opts = BenchOpts::from_env();
    let sides: &[usize] = if opts.smoke {
        &[6, 10, 16]
    } else {
        &[6, 8, 10, 12, 16, 20]
    };
    let host_cores = std::thread::available_parallelism().map_or(1, |p| p.get());
    println!("# e^(-dtau K) products, held (1 thread), us per product");
    println!(
        "# kernel: {}, host cores: {host_cores}",
        kernel_path().name()
    );
    let mut table = Table::new(vec![
        "N",
        "dense left",
        "kron left",
        "ratio",
        "dense right",
        "kron right",
        "ratio",
    ]);
    let mut rows = Vec::new();
    for &side in sides {
        let lattice = Lattice::square(side, side, 1.0);
        let n = lattice.nsites();
        let (dense, dense_inv) = lattice.expk(0.125, 0.0);
        let (factors, factors_inv) = lattice.expk_factors(0.125, 0.0);
        let dense = [Kron::new(vec![dense]), Kron::new(vec![dense_inv])];
        let kron = [Kron::new(factors), Kron::new(factors_inv)];
        let mut rng = util::Rng::new(opts.seed());
        let mut bufs = [Matrix::random(n, n, &mut rng), Matrix::zeros(n, n)];
        let _one_thread = linalg::team::hold();
        // e^{−ΔτK} then e^{+ΔτK}, each reading the other's product, so the
        // operand stays the random matrix it started as (to rounding).
        let mut time = |[fwd, bwd]: &[Kron; 2], side: Side| {
            let mut at = 0;
            per_product(n, || {
                for op in [fwd, bwd] {
                    let [a, b] = &mut bufs;
                    at = op.apply(side, [a, b], at);
                }
            }) / 2.0
        };
        let row = Row {
            n,
            dense_left_us: time(&dense, Side::Left),
            kron_left_us: time(&kron, Side::Left),
            dense_right_us: time(&dense, Side::Right),
            kron_right_us: time(&kron, Side::Right),
        };
        table.row(vec![
            n.to_string(),
            fmt_f(row.dense_left_us, 1),
            fmt_f(row.kron_left_us, 1),
            fmt_f(row.dense_left_us / row.kron_left_us, 2),
            fmt_f(row.dense_right_us, 1),
            fmt_f(row.kron_right_us, 1),
            fmt_f(row.dense_right_us / row.kron_right_us, 2),
        ]);
        rows.push(row);
    }
    print!("{}", table.render());

    let path = "BENCH_kron.json";
    let json = render_json(host_cores, &rows);
    match util::vfs::write_atomic(std::path::Path::new(path), json.as_bytes()) {
        Ok(()) => eprintln!("wrote {path}"),
        Err(e) => eprintln!("could not write {path}: {e}"),
    }
}

/// Best µs per product over samples of ~2 ms of dense-product work each.
fn per_product(n: usize, mut f: impl FnMut()) -> f64 {
    let inner = (20_000_000 / (n * n * n)).max(1);
    let sample = || {
        for _ in 0..inner {
            f();
        }
    };
    time_best(15, sample) / inner as f64 * 1e6
}

/// Hand-rendered JSON (no serde in the dependency closure).
fn render_json(host_cores: usize, rows: &[Row]) -> String {
    let mut s = String::from("{\n");
    s.push_str(&format!("  \"kernel\": \"{}\",\n", kernel_path().name()));
    s.push_str(&format!("  \"host_cores\": {host_cores},\n"));
    s.push_str(&format!("  \"cpu_model\": \"{}\",\n", cpu_model()));
    s.push_str("  \"threads\": 1,\n");
    s.push_str("  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        s.push_str(&format!(
            "    {{\"n\": {}, \"dense_left_us\": {:.2}, \"kron_left_us\": {:.2}, \
             \"dense_right_us\": {:.2}, \"kron_right_us\": {:.2}}}{}\n",
            r.n,
            r.dense_left_us,
            r.kron_left_us,
            r.dense_right_us,
            r.kron_right_us,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    s.push_str("  ]\n}\n");
    s
}
