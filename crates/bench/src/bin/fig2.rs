//! Figure 2: distribution of relative differences between the Green's
//! functions of Algorithm 2 (QRP stratification) and Algorithm 3
//! (pre-pivoted stratification), sampled from a running DQMC simulation,
//! for U = 2 … 8.
//!
//! Paper parameters: 16×16 lattice, L = 160 (β = 32, Δτ = 0.2), 1000
//! evaluations per U. Default here: 8×8, L = 40, 200 evaluations — the
//! observed distribution sits in the same ~1e−13…1e−10 band and is equally
//! insensitive to U, which is the claim under test. `--smoke` (4×4, L = 20,
//! 10 evaluations) only checks that the figure runs.
//!
//! The chain runs at half filling, where a walker evolves the up spin alone
//! and caches no down-spin products. The samples come from a two-spin
//! cluster cache of the chain's current field instead, so each sweep gives
//! one G↑ and one G↓ evaluation.
//!
//! Usage: `cargo run --release -p bench --bin fig2 [--full | --smoke]`

use dqmc::{greens_from_udt, stratify, ClusterCache, SimParams, Spin, StratAlgo};
use util::stats::FiveNumber;
use util::table::{fmt_e, Table};

/// Cluster size of the sampled factor sequences.
const K: usize = 10;

fn main() {
    let mode = bench::mode("fig2");
    let (lside, beta, dtau, evals) = if mode.smoke() {
        (4, 4.0, 0.2, 10)
    } else if mode.full() {
        (16, 32.0, 0.2, 1000)
    } else {
        (8, 8.0, 0.2, 200)
    };

    println!("# Figure 2: ‖G_qrp − G_prepivot‖_F / ‖G_qrp‖_F distribution per U");
    println!("# lattice {lside}x{lside}, beta {beta}, dtau {dtau}, {evals} evaluations");
    let mut table = Table::new(vec!["U", "min", "q1", "median", "q3", "max"]);

    for u in [2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0] {
        let model = bench::square_model(lside, u, beta, dtau);
        let params = SimParams::new(model)
            .with_seed(bench::SEED + u as u64)
            .with_cluster_size(K);
        let mut core = dqmc::sweep::DqmcCore::new(params);
        let slices = core.params.model.slices;
        let mut cache = ClusterCache::new(slices, K);

        let mut diffs = Vec::with_capacity(evals);
        // Sample Green's function evaluations from an evolving field: one
        // sweep between samples keeps configurations decorrelated enough.
        while diffs.len() < evals {
            core.sweep(None);
            cache.invalidate_all();
            for spin in Spin::BOTH {
                if diffs.len() >= evals {
                    break;
                }
                let factors = cache.factors_after_slice(&core.fac, &core.h, slices - 1, spin);
                let g_qrp = greens_from_udt(&stratify(&factors, StratAlgo::Qrp));
                let g_pre = greens_from_udt(&stratify(&factors, StratAlgo::PrePivot));
                diffs.push(dqmc::greens::relative_difference(&g_pre.g, &g_qrp.g));
            }
        }
        let f = FiveNumber::from_samples(&diffs);
        table.row(vec![
            format!("{u}"),
            fmt_e(f.min, 2),
            fmt_e(f.q1, 2),
            fmt_e(f.median, 2),
            fmt_e(f.q3, 2),
            fmt_e(f.max, 2),
        ]);
    }
    print!("{}", table.render());
    println!("# paper: most differences below 1e-12; U has no significant impact");
}
