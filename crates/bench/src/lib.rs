//! Shared plumbing for the figure/table harness binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! `DESIGN.md` §3 for the index). Because the paper's production runs took
//! 36 hours on a 12-core node, each binary defaults to a scaled-down
//! workload that preserves the *shape* of the result and accepts `--full`
//! to run paper-scale parameters, or `--smoke` for a seconds-scale run
//! ([`mode`]). Output is whitespace-aligned text, one record per line,
//! suitable for piping into plotting tools.
//!
//! [`ledger`] writes the checked-in `BENCH_*.json` files, and [`section6`]
//! holds the cost model behind Figures 9 and 10.

pub mod ledger;
pub mod section6;

use dqmc::{HsField, ModelParams, SimParams};
use lattice::Lattice;
use sched::{GridSpec, SchedConfig};
use std::time::Instant;
use util::settings::{none, Command, Dialect, Key};

/// The seed every harness run draws from.
pub const SEED: u64 = 1234;

/// How big a run is: the scaled-down default, paper scale (`--full`), or
/// seconds for CI (`--smoke`, which wins over `--full` and writes no
/// ledger).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Mode {
    #[default]
    Default,
    Full,
    Smoke,
}

impl Mode {
    /// Paper-scale parameters.
    pub fn full(self) -> bool {
        self == Mode::Full
    }

    /// A seconds-scale run.
    pub fn smoke(self) -> bool {
        self == Mode::Smoke
    }

    /// The name a ledger header records.
    pub(crate) fn name(self) -> &'static str {
        match self {
            Mode::Default => "default",
            Mode::Full => "full",
            Mode::Smoke => "smoke",
        }
    }
}

const FLAGS: &[Key<Mode>] = &[
    Key("full", &[], "", |m, _| {
        if *m == Mode::Default {
            *m = Mode::Full;
        }
        Ok(())
    }),
    Key("smoke", &[], "", |m, _| {
        *m = Mode::Smoke;
        Ok(())
    }),
];

/// Reads the command line of the harness binary `name` through
/// [`util::settings::Command`]: `--full` or `--smoke`; `--help` exits 0 and
/// anything else exits 2.
pub fn mode(name: &'static str) -> Mode {
    let command = Command {
        flags: Dialect {
            name,
            keys: FLAGS,
            base: None,
        },
        operands: "",
        init: Mode::default,
        take: |_, operands| none(operands),
        more: || "  --full: paper-scale parameters; --smoke: seconds, writes no ledger\n".into(),
    };
    command.read(&std::env::args().skip(1).collect::<Vec<_>>())
}

/// A sweep grid as a ledger's `workload`: lattice, points, chains and
/// sweeps.
pub fn grid_workload(spec: &GridSpec) -> String {
    format!(
        "{}x{} lattice, {} points x {} chains, {} + {} sweeps",
        spec.lx,
        spec.ly,
        spec.points().len(),
        spec.chains,
        spec.warmup,
        spec.sweeps
    )
}

/// The scheduler benches' configuration: `workers` workers and as many
/// devices, so the rows measure the scheduler rather than device
/// starvation; no queue bound, no yields, one retry.
pub fn pooled(spec: &GridSpec, workers: usize) -> SchedConfig {
    SchedConfig {
        workers,
        devices: workers,
        queue_bound: 0,
        quantum: spec.quantum,
        yield_every_quanta: 0,
        job_retries: 1,
        ..SchedConfig::default()
    }
}

/// Flop count of an `n×n×n` GEMM.
pub fn flops_gemm(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

/// Flop count of an `n×n` Householder QR.
pub fn flops_qr(n: usize) -> f64 {
    4.0 / 3.0 * (n as f64).powi(3)
}

/// Times a closure, returning `(result, seconds)`.
pub fn time_once<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Best-of-`reps` timing (warm cache) of a repeatable closure.
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    assert!(reps >= 1);
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = f();
        std::hint::black_box(&out);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

/// Standard half-filled square-lattice model used across the harness.
pub fn square_model(lside: usize, u: f64, beta: f64, dtau: f64) -> ModelParams {
    let slices = (beta / dtau).round().max(1.0) as usize;
    ModelParams::new(Lattice::square(lside, lside, 1.0), u, 0.0, dtau, slices)
}

/// A thermalised HS field + factory pair for kernel-level workloads:
/// runs a few warmup sweeps so the field is physically plausible rather
/// than uniformly random.
pub fn thermalised_state(
    model: &ModelParams,
    warmup: usize,
    seed: u64,
) -> (dqmc::BMatrixFactory, HsField) {
    let params = SimParams::new(model.clone())
        .with_seed(seed)
        .with_sweeps(warmup, 0);
    let mut core = dqmc::sweep::DqmcCore::new(params);
    for _ in 0..warmup {
        core.sweep(None);
    }
    let fac = dqmc::BMatrixFactory::new(model);
    (fac, core.h)
}

/// Lattice side lengths for the scaling studies (paper: 256…1024 sites).
pub fn site_sweep(full: bool) -> Vec<usize> {
    if full {
        vec![16, 20, 24, 28, 32] // N = 256 … 1024, the paper's range
    } else {
        vec![6, 8, 10, 12, 14] // N = 36 … 196, same shape in minutes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flop_formulas() {
        assert_eq!(flops_gemm(10), 2000.0);
        assert!((flops_qr(10) - 4000.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn timing_helpers_positive() {
        let (v, t) = time_once(|| (0..1000).sum::<usize>());
        assert_eq!(v, 499_500);
        assert!(t >= 0.0);
        let best = time_best(3, || std::hint::black_box(42));
        assert!(best >= 0.0);
    }

    #[test]
    fn square_model_slices() {
        let m = square_model(4, 2.0, 8.0, 0.125);
        assert_eq!(m.slices, 64);
        assert_eq!(m.nsites(), 16);
        assert_eq!(m.mu_tilde, 0.0);
    }

    #[test]
    fn thermalised_state_produces_mixed_field() {
        let m = square_model(2, 4.0, 1.0, 0.125);
        let (_, h) = thermalised_state(&m, 3, 9);
        assert!(h.mean().abs() < 1.0, "field should not stay saturated");
    }

    #[test]
    fn site_sweep_ranges() {
        assert_eq!(site_sweep(false).len(), 5);
        assert_eq!(*site_sweep(true).last().unwrap(), 32);
    }
}

// Tests of `section6`, one file per module they had when the cost studies
// lived in `gpusim`, so a test has one name across the history of the suite.
#[cfg(test)]
#[path = "tests/cluster.rs"]
mod cluster;
#[cfg(test)]
#[path = "tests/device.rs"]
mod device;
#[cfg(test)]
#[path = "tests/gpu_strat.rs"]
mod gpu_strat;
#[cfg(test)]
#[path = "tests/hybrid.rs"]
mod hybrid;
#[cfg(test)]
#[path = "tests/wrap.rs"]
mod wrap;
