//! `solo_n256`: one `Simulation` at the paper's size, driven sweep by
//! sweep. linalg GEMM/QR and core stratification do all the work; sched,
//! serve, fleet and vfs are never called inside the timed section.

use crate::run::{end_to_end, Checks, Ctx, Metric, Outcome};
use crate::stats;
use dqmc::{phases, ModelParams, SimParams, Simulation, Spin};
use lattice::Lattice;
use linalg::Matrix;
use std::time::Instant;

pub struct Size {
    pub lside: usize,
    pub slices: usize,
    pub cluster: usize,
    pub warmup: usize,
    /// Measured sweeps run whatever the budget; the fingerprint and the
    /// exact counts are read after the last of them.
    pub min_sweeps: usize,
}

const FULL: Size = Size {
    lside: 16,
    slices: 32,
    cluster: 10,
    warmup: 2,
    min_sweeps: 8,
};

const SMOKE: Size = Size {
    lside: 4,
    slices: 8,
    cluster: 4,
    warmup: 1,
    min_sweeps: 4,
};

const U: f64 = 4.0;
const DTAU: f64 = 0.125;
/// The loosest agreement `tests/numerical_stability.rs` accepts between two
/// evaluations of one Green's function (its cluster-size scan), a decade
/// inside what the Metropolis ratios tolerate.
const WRAP_BOUND: f64 = 1e-7;

fn model(size: &Size, u: f64) -> ModelParams {
    let lattice = Lattice::square(size.lside, size.lside, 1.0);
    ModelParams::new(lattice, u, 0.0, DTAU, size.slices)
}

fn params(size: &Size, u: f64, seed: u64) -> SimParams {
    // The run never completes: sweeps stop when the budget is spent.
    SimParams::new(model(size, u))
        .with_seed(seed)
        .with_sweeps(size.warmup, usize::MAX / 2)
        .with_cluster_size(size.cluster)
        // Two sweeps a bin: the fixed sweeps alone complete four bins.
        .with_bin_size(2)
}

/// `(I + e^{−βK})⁻¹`, the free-fermion Green's function `ed` anchors its
/// own U = 0 test to, through the eigenvectors of `K`: each eigenvalue ε
/// contributes `1/(1 + e^{−βε})`, with no ill-conditioned inverse.
fn free_greens(lattice: &Lattice, beta: f64) -> Matrix {
    let eig =
        linalg::eig::sym_eig(&lattice.kinetic_matrix(0.0)).expect("kinetic matrix is symmetric");
    let mut scaled = eig.vectors.clone();
    let occupation: Vec<f64> = eig
        .values
        .iter()
        .map(|e| 1.0 / (1.0 + (-beta * e).exp()))
        .collect();
    linalg::scale::col_scale(&occupation, &mut scaled);
    let n = scaled.nrows();
    let mut g = Matrix::zeros(n, n);
    linalg::gemm(
        1.0,
        &scaled,
        linalg::Op::NoTrans,
        &eig.vectors,
        linalg::Op::Trans,
        0.0,
        &mut g,
    );
    g
}

/// The engine's U = 0 Green's function at the workload's size against the
/// analytic solution, and that solution against `ed` on a dimer.
fn u0_error(size: &Size, seed: u64) -> (f64, f64) {
    let beta = DTAU * size.slices as f64;
    let sim = Simulation::new(params(size, 0.0, seed));
    let exact = free_greens(&sim.params().model.lattice, beta);
    let engine = sim.greens(Spin::Up).max_abs_diff(&exact);

    let dimer = Lattice::square(2, 1, 1.0);
    let ensemble = ed::ThermalEnsemble::new(ed::HubbardEd::new(dimer.clone(), 0.0, 0.0), beta);
    let anchor = ensemble.greens().max_abs_diff(&free_greens(&dimer, beta));
    (engine, anchor)
}

fn phase_seconds(sim: &Simulation) -> Vec<f64> {
    sim.phase_report()
        .rows
        .iter()
        .take(phases::ALL.len())
        .map(|r| r.1)
        .collect()
}

fn observables_bytes(sim: &Simulation) -> Vec<u8> {
    let mut w = util::ByteWriter::new();
    sim.observables().encode(&mut w);
    w.into_bytes()
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let size = if ctx.smoke { &SMOKE } else { &FULL };
    let seed = ctx.seed;
    let mut checks = Checks::default();

    let ((mut sim, u0), setup_secs) = ctx.setup(|_| {
        let u0 = u0_error(size, seed);
        (Simulation::new(params(size, U, seed)), u0)
    });
    checks.add("u0_greens_matches_analytic", u0.0 < 1e-10, || {
        format!("max |G - exact| = {:e}", u0.0)
    });
    checks.add("analytic_matches_ed_dimer", u0.1 < 1e-10, || {
        format!("max |G_ed - exact| = {:e}", u0.1)
    });

    let timed = ctx.tracer.begin("timed");
    let warm = ctx.tracer.begin("core.warmup");
    sim.step(size.warmup);
    ctx.tracer.end(warm);

    let phases_before = phase_seconds(&sim);
    let mut sweep_secs = Vec::new();
    let mut fixed = None;
    ctx.run_units(size.min_sweeps, |ctx, i| {
        let span = ctx.tracer.begin("core.step");
        let t = Instant::now();
        sim.step(1);
        sweep_secs.push(t.elapsed().as_secs_f64());
        ctx.tracer.end(span);
        if i + 1 == size.min_sweeps {
            fixed = Some((observables_bytes(&sim), sim.acceptance_rate()));
        }
    });
    let phases_after = phase_seconds(&sim);
    ctx.tracer.end(timed);

    let (obs_bytes, acceptance) = fixed.expect("min_sweeps units always run");
    let sweeps = sweep_secs.len();
    let wall: f64 = sweep_secs.iter().sum();

    let obs = sim.observables();
    let (sign, _) = obs.avg_sign();
    let (density, _) = obs.density();
    checks.add("average_sign_is_one", sign == 1.0, || {
        format!("sign = {sign}")
    });
    checks.add("half_filling_density", (density - 1.0).abs() < 1e-6, || {
        format!("density = {density}")
    });
    let wrap = sim.max_wrap_error();
    checks.add("wrap_error_bounded", wrap < WRAP_BOUND, || {
        format!("max wrap error {wrap:e} >= {WRAP_BOUND:e}")
    });
    let recoveries = sim.recovery_log().total();
    checks.add("no_recovery_events", recoveries == 0, || {
        format!("{recoveries} recovery events")
    });

    let per_sweep: Vec<f64> = phases_after
        .iter()
        .zip(&phases_before)
        .map(|(after, before)| (after - before) / sweeps as f64)
        .collect();
    let phase_sum: f64 = per_sweep.iter().sum();
    let (rebuilds, hits) = sim.cache_stats();
    let mut per_layer: Vec<Metric> = [
        "core.delayed_update_s",
        "core.stratification_s",
        "core.clustering_s",
        "core.wrapping_s",
        "core.measurement_s",
    ]
    .iter()
    .zip(&per_sweep)
    .map(|(name, &s)| Metric::value(name, "s", s))
    .collect();
    per_layer.extend([
        Metric::value(
            "core.phase_cover",
            "ratio",
            phase_sum * sweeps as f64 / wall,
        ),
        Metric::value(
            "core.cluster_cache_hit_ratio",
            "ratio",
            hits as f64 / (hits + rebuilds).max(1) as f64,
        ),
        Metric::value("core.acceptance", "ratio", acceptance),
        Metric::value("core.max_wrap_error", "ratio", wrap),
        Metric::value("core.recovery_events", "count", recoveries as f64),
    ]);

    Outcome {
        end_to_end: end_to_end(&setup_secs, &sweep_secs, 1.0),
        per_layer,
        checks,
        operations: sweeps as u64,
        failed_operations: 0,
        obs_fnv: stats::fnv(&obs_bytes),
        inputs: vec![
            ("sites", (size.lside * size.lside).to_string()),
            ("u", U.to_string()),
            ("beta", (DTAU * size.slices as f64).to_string()),
            ("slices", size.slices.to_string()),
            ("cluster_size", size.cluster.to_string()),
            ("warmup_sweeps", size.warmup.to_string()),
            ("fingerprint_after_sweeps", size.min_sweeps.to_string()),
            ("unit", "one measured sweep, step(1)".to_string()),
            ("work", "sweeps".to_string()),
        ],
    }
}
