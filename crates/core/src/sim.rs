//! A walker's run state ([`Walker`]) and the solo driver ([`Simulation`]):
//! warmup, measurement, reporting, checkpoint/resume.
//!
//! A [`Simulation`] is a [`Crowd`] of one — the same lockstep driver, the
//! same backend seam, the same recovery ladder — that forwards its walker's
//! accessors.

use crate::backend::ComputeBackend;
use crate::checkpoint::{self, CheckpointError};
use crate::crowd::Crowd;
use crate::hubbard::{SimParams, Spin};
use crate::measure::Observables;
use crate::profile::{phases, report, PhaseReport};
use crate::recovery::RecoveryLog;
use crate::sweep::DqmcCore;
use crate::tdm::{unequal_time_greens_stable, TimeDependentObs};
use linalg::Matrix;
use std::ops::{Deref, DerefMut};
use std::path::Path;
use util::DqmcError;

/// One Markov chain's complete run state: the engine, its accumulators and
/// its progress counters. Walkers are stepped by a [`Crowd`] (or a
/// [`Simulation`], a crowd of one); a walker image is a `DQCP` checkpoint.
#[derive(Debug)]
pub struct Walker {
    pub(crate) core: DqmcCore,
    pub(crate) obs: Observables,
    pub(crate) tdm: Option<TimeDependentObs>,
    pub(crate) warmup_done: usize,
    pub(crate) measure_done: usize,
}

impl Walker {
    /// Builds the walker state (field initialisation + first Green's
    /// function evaluation happen here).
    pub(crate) fn new(params: SimParams) -> Self {
        let obs = Observables::new(&params.model, params.bin_size);
        let tdm = params.measure_unequal_time.then(|| {
            TimeDependentObs::new(
                &params.model.lattice,
                params.cluster_size,
                params.model.slices,
                params.model.dtau,
                params.bin_size,
            )
        });
        let core = DqmcCore::new(params);
        Walker {
            core,
            obs,
            tdm,
            warmup_done: 0,
            measure_done: 0,
        }
    }

    /// Sweep-end bookkeeping once the driver has swept this walker (and, on
    /// a measurement sweep, taken the equal-time record): the dynamic
    /// measurement and the counter bump.
    pub(crate) fn finish_sweep(&mut self, measure: bool) {
        if !measure {
            self.warmup_done += 1;
            return;
        }
        if let Some(tdm) = self.tdm.as_mut() {
            // Dynamic measurements via the stable block-matrix TDGF
            // (accurate at any β; see `tdm` module docs for why the
            // forward UDT propagation is not used here). The τ grid is
            // pinned to the *configured* cluster size: adaptive shrinks
            // change the sweep cadence but must not change the grid.
            let t0 = std::time::Instant::now();
            let k = self.core.params.cluster_size;
            let gu = unequal_time_greens_stable(&self.core.fac, &self.core.h, k, Spin::Up);
            let gd = unequal_time_greens_stable(&self.core.fac, &self.core.h, k, Spin::Down);
            tdm.record(&gu, &gd, self.core.sign);
            self.core.timer.add(phases::MEASUREMENT, t0.elapsed());
        }
        self.measure_done += 1;
    }

    /// True once every configured warmup and measurement sweep has run.
    pub fn is_complete(&self) -> bool {
        self.sweeps_remaining() == 0
    }

    /// Configured sweeps not yet executed (warmup + measurement).
    pub fn sweeps_remaining(&self) -> usize {
        let p = &self.core.params;
        p.warmup_sweeps.saturating_sub(self.warmup_done)
            + p.measure_sweeps.saturating_sub(self.measure_done)
    }

    /// Time-dependent observables, when enabled via
    /// [`SimParams::with_unequal_time`].
    pub fn time_dependent(&self) -> Option<&TimeDependentObs> {
        self.tdm.as_ref()
    }

    /// Accumulated observables.
    pub fn observables(&self) -> &Observables {
        &self.obs
    }

    /// Simulation parameters.
    pub fn params(&self) -> &SimParams {
        &self.core.params
    }

    /// Sweeps completed as `(warmup, measurement)`.
    pub fn sweeps_done(&self) -> (usize, usize) {
        (self.warmup_done, self.measure_done)
    }

    /// Metropolis acceptance rate.
    pub fn acceptance_rate(&self) -> f64 {
        self.core.acceptance_rate()
    }

    /// Current Green's function for a spin (canonical position).
    pub fn greens(&self, spin: Spin) -> &Matrix {
        self.core.greens(spin)
    }

    /// Largest observed wrap-vs-recompute relative difference.
    pub fn max_wrap_error(&self) -> f64 {
        let m = self.core.wrap_diff.max();
        if m.is_finite() {
            m
        } else {
            0.0
        }
    }

    /// The recovery incident log (retries, shrinks, fallbacks, repairs).
    pub fn recovery_log(&self) -> &RecoveryLog {
        self.core.recovery_log()
    }

    /// Table I style phase breakdown of the time spent so far.
    pub fn phase_report(&self) -> PhaseReport {
        report(&self.core.timer)
    }

    /// Cluster cache `(rebuilds, hits)` — recycling effectiveness.
    pub fn cache_stats(&self) -> (usize, usize) {
        self.core.cache.stats()
    }

    /// Access to the underlying engine (benchmarks and tests).
    pub fn core_mut(&mut self) -> &mut DqmcCore {
        &mut self.core
    }
}

/// A complete DQMC simulation (the paper's 1000-warmup / 2000-measurement
/// runs are `run()` with the corresponding sweep counts): a [`Crowd`] of one
/// [`Walker`], whose accessors it exposes through `Deref`.
#[derive(Debug)]
pub struct Simulation {
    pub(crate) crowd: Crowd,
}

impl Deref for Simulation {
    type Target = Walker;

    fn deref(&self) -> &Walker {
        self.crowd.walker(0)
    }
}

impl DerefMut for Simulation {
    fn deref_mut(&mut self) -> &mut Walker {
        self.crowd.walker_mut(0)
    }
}

impl Simulation {
    /// Builds the simulation state (field initialisation + first Green's
    /// function evaluation happen here).
    pub fn new(params: SimParams) -> Self {
        Simulation {
            crowd: Crowd::new(vec![params]),
        }
    }

    /// Installs a compute backend (e.g. the `gpusim` device) for the heavy
    /// kernels.
    pub fn with_backend(mut self, backend: Box<dyn ComputeBackend>) -> Self {
        self.crowd = self.crowd.with_backend(backend);
        self
    }

    /// Runs the configured warmup and measurement sweeps.
    pub fn run(&mut self) {
        let (w, m) = (
            self.core.params.warmup_sweeps,
            self.core.params.measure_sweeps,
        );
        self.warmup(w);
        self.measure(m);
    }

    /// Runs the configured sweeps, writing a checkpoint to `path` every
    /// `every` sweeps and once more at the end. A run killed at any point
    /// can be picked up with [`Simulation::resume`] and finishes
    /// bit-identically to an uninterrupted one.
    pub fn run_with_checkpoints(
        &mut self,
        path: &Path,
        every: usize,
    ) -> Result<(), CheckpointError> {
        assert!(every >= 1, "checkpoint interval must be at least 1 sweep");
        while !self.is_complete() {
            self.step(every);
            checkpoint::save(self, path)?;
        }
        Ok(())
    }

    /// Advances the run by up to `n` sweeps, crossing the warmup/measurement
    /// phase boundary as needed, and returns the number actually executed
    /// (less than `n` only when the run completes). Panics on a classified
    /// failure; [`Simulation::try_step`] surfaces it instead.
    pub fn step(&mut self, n: usize) -> usize {
        match self.try_step(n) {
            Ok(done) => done,
            Err(e) => panic!("{e}"),
        }
    }

    /// Atomically writes the complete simulation state to `path`.
    pub fn checkpoint(&self, path: &Path) -> Result<(), CheckpointError> {
        checkpoint::save(self, path)
    }

    /// Rebuilds a simulation from a checkpoint written by
    /// [`Simulation::checkpoint`] / [`Simulation::run_with_checkpoints`].
    /// `params` must describe the same run (validated by fingerprint); the
    /// resumed chain continues bit-identically.
    pub fn resume(path: &Path, params: &SimParams) -> Result<Self, CheckpointError> {
        checkpoint::load(path, params)
    }

    /// The complete simulation state as an in-memory `DQCP` checkpoint image
    /// (the bytes [`Simulation::checkpoint`] would write).
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        checkpoint::to_bytes(self)
    }

    /// Rebuilds a simulation from an image produced by
    /// [`Simulation::checkpoint_bytes`]; same validation and bit-identical
    /// continuation guarantee as [`Simulation::resume`].
    pub fn resume_bytes(bytes: &[u8], params: &SimParams) -> Result<Self, CheckpointError> {
        checkpoint::from_bytes(bytes, params)
    }

    /// Fallible [`Simulation::step`]: advances by up to `n` sweeps and
    /// surfaces classified sweep failures instead of panicking. On `Err` the
    /// counters reflect only the sweeps that completed; the aborted sweep's
    /// partial state must not be measured (supervisors resume from the last
    /// parked image instead).
    pub fn try_step(&mut self, n: usize) -> Result<usize, DqmcError> {
        self.crowd.try_step(n)
    }

    /// Runs `n` thermalisation sweeps (no measurements).
    pub fn warmup(&mut self, n: usize) {
        self.sweeps(n, false);
    }

    /// Runs `n` measurement sweeps.
    pub fn measure(&mut self, n: usize) {
        self.sweeps(n, true);
    }

    fn sweeps(&mut self, n: usize, measure: bool) {
        for _ in 0..n {
            if let Err(e) = self.crowd.try_sweep(measure) {
                panic!("{e}");
            }
        }
    }

    /// Modeled device-seconds consumed by the installed backend (`0.0` on
    /// the host backend, which has no device clock).
    pub fn device_seconds(&self) -> f64 {
        self.crowd.device_seconds()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubbard::ModelParams;
    use lattice::Lattice;

    fn quick_sim(u: f64, seed: u64) -> Simulation {
        let model = ModelParams::new(Lattice::square(2, 2, 1.0), u, 0.0, 0.125, 8);
        Simulation::new(
            SimParams::new(model)
                .with_sweeps(10, 20)
                .with_seed(seed)
                .with_cluster_size(4) // two clusters, so recycling can hit
                .with_bin_size(2),
        )
    }

    #[test]
    fn run_produces_measurements() {
        let mut sim = quick_sim(4.0, 1);
        sim.run();
        assert_eq!(sim.sweeps_done(), (10, 20));
        assert_eq!(sim.observables().count(), 20);
        let (s, _) = sim.observables().avg_sign();
        assert_eq!(s, 1.0);
    }

    #[test]
    fn half_filling_density_near_one() {
        let mut sim = quick_sim(4.0, 2);
        sim.run();
        let (rho, err) = sim.observables().density();
        // Particle-hole symmetry pins ρ = 1 exactly in expectation.
        assert!((rho - 1.0).abs() < 0.05 + 3.0 * err, "rho {rho} ± {err}");
    }

    #[test]
    fn repulsion_suppresses_double_occupancy() {
        let mut free = quick_sim(0.0, 3);
        free.run();
        let mut interacting = quick_sim(8.0, 3);
        interacting.run();
        let (d0, _) = free.observables().double_occupancy();
        let (d8, _) = interacting.observables().double_occupancy();
        assert!(
            d8 < d0 - 0.02,
            "U should suppress double occupancy: {d8} !< {d0}"
        );
    }

    #[test]
    fn phase_report_sums_to_hundred() {
        let mut sim = quick_sim(4.0, 4);
        sim.run();
        let rep = sim.phase_report();
        let total_pct: f64 = rep.rows.iter().map(|(_, _, p)| p).sum();
        assert!((total_pct - 100.0).abs() < 1e-6, "{total_pct}");
        assert!(rep.total > 0.0);
    }

    #[test]
    fn recycling_hits_accumulate() {
        let mut sim = quick_sim(4.0, 5);
        sim.run();
        let (rebuilds, hits) = sim.cache_stats();
        assert!(rebuilds > 0);
        assert!(hits > 0, "recycling should produce cache hits");
    }

    #[test]
    fn wrap_error_stays_tiny_on_small_system() {
        let mut sim = quick_sim(6.0, 6);
        sim.run();
        assert!(sim.max_wrap_error() < 1e-6, "{}", sim.max_wrap_error());
    }

    #[test]
    fn unequal_time_measurements_recorded() {
        let model = ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 8);
        let mut sim = Simulation::new(
            SimParams::new(model)
                .with_sweeps(5, 10)
                .with_seed(9)
                .with_cluster_size(4)
                .with_unequal_time(true),
        );
        sim.run();
        let tdm = sim.time_dependent().expect("enabled");
        assert_eq!(tdm.count(), 10);
        let gloc = tdm.gloc();
        assert_eq!(gloc.len(), 3); // τ = 0, β/2, β
                                   // Anti-periodicity in the trace: G_loc(0) + G_loc(β) =
                                   // Tr(G + (I−G))/N / spin-avg = 1.
        let sum = gloc[0].0 + gloc[2].0;
        assert!((sum - 1.0).abs() < 1e-8, "G(0)+G(beta) = {sum}");
        // G decays away from τ = 0 at half filling.
        assert!(gloc[1].0 < gloc[0].0);
    }

    #[test]
    fn checkerboard_gives_same_physics_within_trotter() {
        let run = |cb: bool| {
            let model = ModelParams::new(Lattice::square(4, 4, 1.0), 4.0, 0.0, 0.1, 20);
            let mut sim = Simulation::new(
                SimParams::new(model)
                    .with_sweeps(20, 60)
                    .with_seed(31)
                    .with_checkerboard(cb),
            );
            sim.run();
            let (rho, _) = sim.observables().density();
            let (docc, derr) = sim.observables().double_occupancy();
            (rho, docc, derr)
        };
        let (rho_d, docc_d, err_d) = run(false);
        let (rho_c, docc_c, err_c) = run(true);
        assert!((rho_d - 1.0).abs() < 0.05 && (rho_c - 1.0).abs() < 0.05);
        // Same O(Δτ²) class: observables agree within a few σ + Trotter.
        assert!(
            (docc_d - docc_c).abs() < 0.01 + 4.0 * (err_d + err_c),
            "docc dense {docc_d}±{err_d} vs checkerboard {docc_c}±{err_c}"
        );
    }

    #[test]
    fn per_cluster_measurements_multiply_samples() {
        let model = ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 8);
        let base = SimParams::new(model)
            .with_sweeps(5, 10)
            .with_seed(41)
            .with_cluster_size(4)
            .with_bin_size(2);
        let mut once = Simulation::new(base.clone());
        once.run();
        let mut per = Simulation::new(base.with_measure_per_cluster(true));
        per.run();
        // L/k = 2 boundaries per sweep: one mid-sweep + one final record.
        assert_eq!(once.observables().count(), 10);
        assert_eq!(per.observables().count(), 20);
        // Same Markov chain (measurement never changes the walk).
        let (d1, _) = once.observables().density();
        let (d2, _) = per.observables().density();
        assert!((d1 - 1.0).abs() < 0.1 && (d2 - 1.0).abs() < 0.1);
    }

    #[test]
    fn unequal_time_disabled_by_default() {
        let sim = quick_sim(4.0, 10);
        assert!(sim.time_dependent().is_none());
    }

    #[test]
    fn step_crosses_phase_boundary_identically_to_run() {
        let mut whole = quick_sim(4.0, 11);
        whole.run();
        let mut stepped = quick_sim(4.0, 11);
        let mut total = 0;
        while !stepped.is_complete() {
            total += stepped.step(7); // 7 ∤ 10 and 7 ∤ 30: boundary crossed mid-step
        }
        assert_eq!(total, 30);
        assert_eq!(stepped.step(5), 0, "stepping a complete run is a no-op");
        assert_eq!(stepped.sweeps_done(), whole.sweeps_done());
        assert_eq!(stepped.core.h, whole.core.h);
        assert_eq!(stepped.core.rng.state(), whole.core.rng.state());
        assert_eq!(stepped.core.g[0].max_abs_diff(&whole.core.g[0]), 0.0);
        assert_eq!(stepped.observables().count(), whole.observables().count());
    }

    #[test]
    fn checkpoint_resume_continues_bit_identically() {
        let dir = std::env::temp_dir().join(format!("dqmc-sim-ckpt-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("mid.dqcp");

        let mut whole = quick_sim(4.0, 12);
        whole.run();

        let mut first = quick_sim(4.0, 12);
        first.step(13);
        first.checkpoint(&path).unwrap();
        drop(first); // "kill" the first process

        let mut resumed = Simulation::resume(&path, quick_sim(4.0, 12).params()).unwrap();
        while !resumed.is_complete() {
            resumed.step(4);
        }
        assert_eq!(resumed.sweeps_done(), whole.sweeps_done());
        assert_eq!(resumed.core.h, whole.core.h);
        assert_eq!(resumed.core.rng.state(), whole.core.rng.state());
        assert_eq!(resumed.core.g[0].max_abs_diff(&whole.core.g[0]), 0.0);
        assert_eq!(resumed.core.g[1].max_abs_diff(&whole.core.g[1]), 0.0);
        assert_eq!(resumed.core.sign, whole.core.sign);
        assert_eq!(resumed.core.accepted, whole.core.accepted);
        let (d1, e1) = resumed.observables().density();
        let (d2, e2) = whole.observables().density();
        assert_eq!(d1.to_bits(), d2.to_bits());
        assert_eq!(e1.to_bits(), e2.to_bits());
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn try_step_matches_step() {
        let mut plain = quick_sim(4.0, 14);
        while !plain.is_complete() {
            plain.step(7);
        }
        let mut fallible = quick_sim(4.0, 14);
        let mut total = 0;
        while !fallible.is_complete() {
            total += fallible.try_step(7).unwrap();
        }
        assert_eq!(total, 30);
        assert_eq!(fallible.sweeps_done(), plain.sweeps_done());
        assert_eq!(fallible.core.h, plain.core.h);
        assert_eq!(fallible.core.rng.state(), plain.core.rng.state());
        assert_eq!(fallible.observables().count(), plain.observables().count());
    }

    #[test]
    fn run_with_checkpoints_completes_and_persists() {
        let dir = std::env::temp_dir().join(format!("dqmc-sim-rwc-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("auto.dqcp");
        let mut sim = quick_sim(4.0, 13);
        sim.run_with_checkpoints(&path, 8).unwrap();
        assert!(sim.is_complete());
        // The final checkpoint loads and reports a complete run.
        let loaded = Simulation::resume(&path, quick_sim(4.0, 13).params()).unwrap();
        assert!(loaded.is_complete());
        assert_eq!(loaded.sweeps_done(), sim.sweeps_done());
        std::fs::remove_dir_all(&dir).ok();
    }
}
