//! Figure 3: average wall-clock time of one Green's-function evaluation vs
//! number of sites, for the original method (Algorithm 2, clusters rebuilt
//! every evaluation) and the improved method of the paper (Algorithm 3 with
//! pre-pivoting + cluster recycling).
//!
//! The paper reports up to 3× speedup at L = 160 on 12 Westmere cores;
//! the reproduced quantity is the ratio's shape across N.
//!
//! Usage: `cargo run --release -p bench --bin fig3 [--full]`

use bench::{site_sweep, square_model, thermalised_state, time_once};
use dqmc::{greens_from_udt, stratify, ClusterCache, Spin, StratAlgo};
use util::table::{fmt_f, Table};

/// Times `evals` successive Green's-function evaluations in the style of a
/// sweep: between evaluations one cluster is invalidated (as one slice of
/// field updates would) so recycling shows its real benefit.
fn avg_eval_seconds(
    fac: &dqmc::BMatrixFactory,
    h: &dqmc::HsField,
    k: usize,
    algo: StratAlgo,
    recycle: bool,
    evals: usize,
) -> f64 {
    let slices = h.slices();
    let mut cache = ClusterCache::new(slices, k);
    let nclusters = cache.nclusters();
    let mut total = 0.0;
    for e in 0..evals {
        if !recycle {
            cache.invalidate_all();
        } else {
            // One cluster went stale since the last evaluation.
            let (lo, _) = cache.range(e % nclusters);
            cache.invalidate_slice(lo);
        }
        let boundary = ((e % nclusters) + 1) * k - 1;
        let boundary = boundary.min(slices - 1);
        let (_, secs) = time_once(|| {
            let factors = cache.factors_after_slice(fac, h, boundary, Spin::Up);
            greens_from_udt(&stratify(&factors, algo))
        });
        total += secs;
    }
    total / evals as f64
}

fn main() {
    let mode = bench::mode("fig3");
    let (beta, dtau, evals) = if mode.full() {
        (32.0, 0.2, 20) // L = 160, the paper's depth
    } else {
        (8.0, 0.2, 10) // L = 40
    };
    let k = 10;

    println!(
        "# Figure 3: seconds per Green's function evaluation (L = {})",
        (beta / dtau) as usize
    );
    let mut table = Table::new(vec!["N", "qrp-rebuild", "prepivot-recycle", "speedup"]);
    for lside in site_sweep(mode.full()) {
        let n = lside * lside;
        let model = square_model(lside, 4.0, beta, dtau);
        let (fac, h) = thermalised_state(&model, 2, bench::SEED);
        let t_old = avg_eval_seconds(&fac, &h, k, StratAlgo::Qrp, false, evals);
        let t_new = avg_eval_seconds(&fac, &h, k, StratAlgo::PrePivot, true, evals);
        table.row(vec![
            n.to_string(),
            fmt_f(t_old, 4),
            fmt_f(t_new, 4),
            fmt_f(t_old / t_new, 2),
        ]);
    }
    print!("{}", table.render());
    println!("# paper: up to 3x faster with pre-pivoting + cluster reuse");
}
