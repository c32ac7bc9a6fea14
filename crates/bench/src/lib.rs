//! Shared plumbing for the figure/table harness binaries.
//!
//! Every binary regenerates one table or figure of the paper (see
//! `DESIGN.md` §3 for the index). Because the paper's production runs took
//! 36 hours on a 12-core node, each binary defaults to a scaled-down
//! workload that preserves the *shape* of the result and accepts `--full`
//! to run paper-scale parameters. Output is whitespace-aligned text, one
//! record per line, suitable for piping into plotting tools.

use dqmc::{HsField, ModelParams, SimParams};
use lattice::Lattice;
use std::time::Instant;

/// Common command-line options for the harness binaries.
#[derive(Clone, Debug, Default)]
pub struct BenchOpts {
    /// Run paper-scale parameters instead of the scaled-down defaults.
    pub full: bool,
    /// Run a seconds-scale workload (CI perf-smoke); overrides `--full`.
    pub smoke: bool,
    /// Override the RNG seed.
    pub seed: Option<u64>,
    /// Fixed device-pool size for scheduler benches; `None` scales the
    /// pool with the worker count.
    pub pool_size: Option<usize>,
    /// Override the lattice side for scheduler benches (`--lx`).
    pub lx: Option<usize>,
    /// Override the measurement sweeps per chain for scheduler benches
    /// (`--sweeps`).
    pub sweeps: Option<usize>,
    /// Override the crowd size B for scheduler benches (`--crowd`).
    pub crowd: Option<usize>,
}

impl BenchOpts {
    /// Parses `--full`, `--seed <u64>`, `--pool-size <usize>`,
    /// `--lx <usize>`, `--sweeps <usize>` and `--crowd <usize>` from
    /// `std::env::args`.
    pub fn from_env() -> Self {
        let mut opts = BenchOpts::default();
        let mut args = std::env::args().skip(1);
        let usize_arg = |args: &mut dyn Iterator<Item = String>, flag: &str| {
            args.next()
                .and_then(|s| s.parse::<usize>().ok())
                .unwrap_or_else(|| panic!("{flag} requires an integer"))
        };
        while let Some(a) = args.next() {
            match a.as_str() {
                "--full" => opts.full = true,
                "--smoke" => opts.smoke = true,
                "--seed" => {
                    let v = args
                        .next()
                        .and_then(|s| s.parse().ok())
                        .expect("--seed requires an integer");
                    opts.seed = Some(v);
                }
                "--pool-size" => opts.pool_size = Some(usize_arg(&mut args, "--pool-size")),
                "--lx" => opts.lx = Some(usize_arg(&mut args, "--lx")),
                "--sweeps" => opts.sweeps = Some(usize_arg(&mut args, "--sweeps")),
                "--crowd" => opts.crowd = Some(usize_arg(&mut args, "--crowd")),
                "--help" | "-h" => {
                    eprintln!(
                        "options: --full (paper-scale parameters), --smoke (CI-scale), \
                         --seed <u64>, --pool-size <usize> (fixed device pool), \
                         --lx <usize> (lattice side), --sweeps <usize> (measurement \
                         sweeps per chain), --crowd <usize> (walkers batched per job)"
                    );
                    std::process::exit(0);
                }
                other => {
                    eprintln!("unknown option {other}; try --help");
                    std::process::exit(2);
                }
            }
        }
        opts
    }

    /// The seed to use (default 1234).
    pub fn seed(&self) -> u64 {
        self.seed.unwrap_or(1234)
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

/// The host's `model name` line of `/proc/cpuinfo`, quotes and backslashes
/// dropped so it can sit in the JSON unescaped.
pub fn cpu_model() -> String {
    let info = std::fs::read_to_string("/proc/cpuinfo").unwrap_or_default();
    let line = info.lines().find(|l| l.starts_with("model name"));
    let model = line
        .and_then(|l| l.split_once(':'))
        .map_or("unknown", |(_, m)| m.trim());
    model.chars().filter(|&c| c != '"' && c != '\\').collect()
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
