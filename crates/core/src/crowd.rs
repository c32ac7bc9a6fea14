//! The run driver: B independent Markov chains stepped in lockstep through
//! one backend. B = 1 is a solo run ([`crate::Simulation`]).
//!
//! The paper's central lever is amortization — cluster `k` B-matrix GEMMs
//! per device transfer so the PCIe/launch tax is paid once per cluster.
//! QMCPACK's performance-portable redesign extends that amortization to a
//! second axis: organize walkers into *crowds* stepped in lockstep so one
//! batched driver call services B walkers per launch — and it deleted the
//! separate one-walker drivers, because two drivers never kept the same
//! features. This module is that design for the DQMC sweep: a [`Crowd`] owns
//! B [`Walker`]s (same physics, hash-split seeds) and the sweep driver that
//! steps them slice by slice — one backend wrap per slice, one backend
//! cluster call per stale slice range per boundary, each for both spins.
//! Every backend kernel is bit-identical per walker whatever B is (the
//! strided-batch GEMM issues the per-walker op stream exactly; batching
//! changes only the cost accounting), so a crowd of B produces
//! byte-identical observables to B crowds of one on the same seeds — crowd
//! size is a pure throughput knob.
//!
//! The slice loop and the recovery ladder live in [`crate::sweep`]; what is
//! here is the run around them: sweep counting, the warmup/measurement
//! split, and the `DQCW` checkpoint envelope.

use crate::backend::{ComputeBackend, HostBackend};
use crate::checkpoint::{self, CheckpointError};
use crate::hubbard::SimParams;
use crate::sim::Walker;
use crate::sweep::{Lane, SweepDriver};
use util::codec::{ByteReader, ByteWriter, CodecError};
use util::DqmcError;

/// Magic of the crowd container: `"DQCW" | count u32 | (len u64 | DQCP
/// image)*`. It carries no version or checksum of its own; every walker
/// image inside is a complete, checksummed `DQCP` frame.
const DQCW: &[u8; 4] = b"DQCW";

/// B walkers stepped in lockstep through one backend.
#[derive(Debug)]
pub struct Crowd {
    walkers: Vec<Walker>,
    pub(crate) driver: SweepDriver,
}

impl Crowd {
    /// Builds a crowd from per-walker parameters. All entries must describe
    /// the same physics and sweep schedule (only the seed may differ) —
    /// lockstep execution requires every walker to visit the same slices
    /// for the same number of sweeps. Panics if the list is empty or the
    /// schedules disagree.
    pub fn new(params: Vec<SimParams>) -> Self {
        assert!(!params.is_empty(), "a crowd needs at least one walker");
        let p0 = &params[0];
        for p in &params[1..] {
            assert!(
                p.model.slices == p0.model.slices
                    && p.model.nsites() == p0.model.nsites()
                    && p.warmup_sweeps == p0.warmup_sweeps
                    && p.measure_sweeps == p0.measure_sweeps
                    && p.cluster_size == p0.cluster_size
                    && p.measure_per_cluster == p0.measure_per_cluster,
                "crowd walkers must share physics and sweep schedule"
            );
        }
        Crowd::from_walkers(params.into_iter().map(Walker::new).collect(), false)
    }

    /// A crowd over restored walkers, on the host backend.
    pub(crate) fn from_walkers(walkers: Vec<Walker>, use_host_fallback: bool) -> Self {
        let mut driver = SweepDriver::new(Box::new(HostBackend));
        driver.use_host_fallback = use_host_fallback;
        Crowd { walkers, driver }
    }

    /// Installs a backend (e.g. the `gpusim` device). A crowd resumed from
    /// an image that had already abandoned its device stays on the host.
    pub fn with_backend(mut self, backend: Box<dyn ComputeBackend>) -> Self {
        self.driver.backend = backend;
        self
    }

    /// Number of walkers (the crowd size B).
    pub fn len(&self) -> usize {
        self.walkers.len()
    }

    /// Whether the crowd is empty (it never is after construction).
    pub fn is_empty(&self) -> bool {
        self.walkers.is_empty()
    }

    /// Walker `i` (observables, acceptance, recovery log, …).
    pub fn walker(&self, i: usize) -> &Walker {
        &self.walkers[i]
    }

    /// Mutable walker access (fault drills and tests).
    pub fn walker_mut(&mut self, i: usize) -> &mut Walker {
        &mut self.walkers[i]
    }

    /// All walkers, in chain order.
    pub fn walkers(&self) -> &[Walker] {
        &self.walkers
    }

    /// Modeled device-seconds consumed by the installed backend. Stays
    /// valid after a host fallback: the installed backend keeps the clock
    /// it accumulated before recovery abandoned it.
    pub fn device_seconds(&self) -> f64 {
        self.driver.backend.device_seconds()
    }

    /// Name of the backend actually in use (accounts for host fallback).
    pub fn active_backend_name(&self) -> &str {
        self.driver.active_backend_name()
    }

    /// True once every walker has run its configured sweeps. Walkers are in
    /// lockstep, so walker 0 speaks for the crowd.
    pub fn is_complete(&self) -> bool {
        self.walkers[0].is_complete()
    }

    /// Configured sweeps not yet executed per walker.
    pub fn sweeps_remaining(&self) -> usize {
        self.walkers[0].sweeps_remaining()
    }

    /// One lockstep sweep of every walker, measuring or not.
    pub(crate) fn try_sweep(&mut self, measure: bool) -> Result<(), DqmcError> {
        let mut lanes: Vec<Lane<'_>> = self
            .walkers
            .iter_mut()
            .map(|w| Lane {
                core: &mut w.core,
                obs: measure.then_some(&mut w.obs),
            })
            .collect();
        self.driver.try_sweep(&mut lanes)?;
        for w in &mut self.walkers {
            w.finish_sweep(measure);
        }
        Ok(())
    }

    /// Advances every walker by up to `n` lockstep sweeps, crossing the
    /// warmup/measurement phase boundary as needed; returns the number
    /// actually executed (less than `n` only when the run completes). On
    /// `Err` the counters reflect only the sweeps that completed; the
    /// aborted sweep's partial state must not be measured (supervisors
    /// resume from the last parked image).
    pub fn try_step(&mut self, n: usize) -> Result<usize, DqmcError> {
        let mut done = 0;
        while done < n && !self.is_complete() {
            let w0 = &self.walkers[0];
            let measure = w0.warmup_done >= w0.core.params.warmup_sweeps;
            self.try_sweep(measure)?;
            done += 1;
        }
        Ok(done)
    }

    /// Runs the crowd to completion (convenience for tests and benches);
    /// panics on a classified failure.
    pub fn run(&mut self) {
        if let Err(e) = self.try_step(usize::MAX) {
            panic!("{e}");
        }
    }

    /// The crowd state as a `DQCW` checkpoint: a count header followed by
    /// each walker's own length-prefixed `DQCP` image (its state plus the
    /// driver's host-fallback flag). This is what a preempted job of any
    /// width parks as.
    pub fn checkpoint_bytes(&self) -> Vec<u8> {
        let mut out = ByteWriter::new();
        out.put_bytes(DQCW);
        out.put_u32(self.walkers.len() as u32);
        for w in &self.walkers {
            let img = checkpoint::walker_to_bytes(w, self.driver.use_host_fallback);
            out.put_blob(&img);
        }
        out.into_bytes()
    }

    /// Rebuilds a crowd from [`Crowd::checkpoint_bytes`]. `params` must
    /// list the same walkers in the same order (validated per image by the
    /// fingerprint check). Total: any malformed image — wrong magic, a
    /// walker count that disagrees with `params`, a length that overruns
    /// the buffer, trailing bytes — is an `Err`, never a panic. The resumed
    /// crowd is on the host backend and continues bit-identically; it stays
    /// on the host after [`Crowd::with_backend`] if any walker image
    /// records a host fallback.
    pub fn resume_bytes(bytes: &[u8], params: &[SimParams]) -> Result<Self, CheckpointError> {
        let mut r = ByteReader::new(bytes);
        if r.get_bytes(4)? != DQCW {
            return Err(CodecError::BadMagic.into());
        }
        let count = r.get_u32()?;
        if count as usize != params.len() {
            return Err(CodecError::Invalid(format!(
                "crowd image holds {count} walkers, {} params given",
                params.len()
            ))
            .into());
        }
        let mut walkers = Vec::with_capacity(params.len());
        let mut use_host_fallback = false;
        for p in params {
            let (walker, fallback) = checkpoint::walker_from_bytes(r.get_blob()?, p)?;
            walkers.push(walker);
            use_host_fallback |= fallback;
        }
        r.finish("the last walker image")?;
        Ok(Crowd::from_walkers(walkers, use_host_fallback))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ensemble::chain_seed;
    use crate::greens::{greens_naive, relative_difference};
    use crate::hubbard::{ModelParams, Spin};
    use crate::sim::Simulation;
    use lattice::Lattice;

    fn params(seed: u64) -> SimParams {
        let model = ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 8);
        SimParams::new(model)
            .with_sweeps(6, 12)
            .with_seed(seed)
            .with_cluster_size(4)
            .with_bin_size(2)
    }

    fn crowd_params(b: usize) -> Vec<SimParams> {
        (0..b)
            .map(|c| params(chain_seed(100, 0, c as u64)))
            .collect()
    }

    #[test]
    fn host_crowd_is_bit_identical_to_solo_runs() {
        let mut crowd = Crowd::new(crowd_params(4));
        crowd.run();
        for (c, w) in crowd.walkers().iter().enumerate() {
            let mut solo = Simulation::new(params(chain_seed(100, 0, c as u64)));
            solo.run();
            assert_eq!(solo.core.h, w.core.h, "walker {c} field diverged");
            assert_eq!(solo.core.rng.state(), w.core.rng.state());
            assert_eq!(solo.core.g[0].max_abs_diff(&w.core.g[0]), 0.0);
            assert_eq!(solo.core.g[1].max_abs_diff(&w.core.g[1]), 0.0);
            let (ds, es) = solo.observables().double_occupancy();
            let (dc, ec) = w.observables().double_occupancy();
            assert_eq!(ds.to_bits(), dc.to_bits(), "walker {c} observables");
            assert_eq!(es.to_bits(), ec.to_bits());
        }
    }

    #[test]
    fn crowd_size_does_not_change_any_walker() {
        // The tentpole invariant at the core level: the first walker of a
        // B=1 crowd and of a B=4 crowd are byte-identical.
        let mut one = Crowd::new(crowd_params(1));
        one.run();
        let mut four = Crowd::new(crowd_params(4));
        four.run();
        let a = one.walker(0);
        let b = four.walker(0);
        assert_eq!(a.core.h, b.core.h);
        assert_eq!(a.core.rng.state(), b.core.rng.state());
        assert_eq!(a.core.g[0].max_abs_diff(&b.core.g[0]), 0.0);
        let (da, _) = a.observables().double_occupancy();
        let (db, _) = b.observables().double_occupancy();
        assert_eq!(da.to_bits(), db.to_bits());
    }

    #[test]
    fn crowd_measure_per_cluster_matches_solo() {
        let mk = |seed: u64| params(seed).with_measure_per_cluster(true);
        let mut crowd = Crowd::new(vec![mk(7), mk(8)]);
        crowd.run();
        for (i, seed) in [7u64, 8].iter().enumerate() {
            let mut solo = Simulation::new(mk(*seed));
            solo.run();
            assert_eq!(
                solo.observables().count(),
                crowd.walker(i).observables().count()
            );
            let (ds, _) = solo.observables().double_occupancy();
            let (dc, _) = crowd.walker(i).observables().double_occupancy();
            assert_eq!(ds.to_bits(), dc.to_bits());
        }
    }

    #[test]
    fn crowd_checkpoint_resumes_bit_identically() {
        let mut whole = Crowd::new(crowd_params(3));
        whole.run();

        let mut first = Crowd::new(crowd_params(3));
        first.try_step(7).unwrap();
        let image = first.checkpoint_bytes();
        drop(first);

        let mut resumed = Crowd::resume_bytes(&image, &crowd_params(3)).unwrap();
        resumed.run();
        for (w, r) in whole.walkers().iter().zip(resumed.walkers()) {
            assert_eq!(w.core.h, r.core.h);
            assert_eq!(w.core.rng.state(), r.core.rng.state());
            assert_eq!(w.core.g[0].max_abs_diff(&r.core.g[0]), 0.0);
            let (dw, _) = w.observables().double_occupancy();
            let (dr, _) = r.observables().double_occupancy();
            assert_eq!(dw.to_bits(), dr.to_bits());
        }
    }

    #[test]
    fn corrupt_crowd_image_is_rejected() {
        let crowd = Crowd::new(crowd_params(2));
        let good = crowd.checkpoint_bytes();
        let rejected = |image: &[u8], params: &[SimParams]| {
            matches!(
                Crowd::resume_bytes(image, params),
                Err(CheckpointError::Codec(_))
            )
        };
        assert!(Crowd::resume_bytes(&good, &crowd_params(2)).is_ok());
        let mut bad_magic = good.clone();
        bad_magic[0] = b'X';
        assert!(rejected(&bad_magic, &crowd_params(2)));
        assert!(rejected(&good[..3], &crowd_params(2)));
        // A count that disagrees with the params, either way round.
        assert!(rejected(&good, &crowd_params(1)));
        assert!(rejected(&good, &crowd_params(3)));
        let mut wrong_count = good.clone();
        wrong_count[4..8].copy_from_slice(&3u32.to_le_bytes());
        assert!(rejected(&wrong_count, &crowd_params(2)));
        // A length that overflows `at + len` before any bounds check.
        let mut huge = good.clone();
        huge[8..16].copy_from_slice(&u64::MAX.to_le_bytes());
        assert!(rejected(&huge, &crowd_params(2)));
        // Every truncation, including inside the last image.
        for cut in 0..good.len() {
            assert!(rejected(&good[..cut], &crowd_params(2)), "cut at {cut}");
        }
        let mut trailing = good.clone();
        trailing.push(0);
        assert!(rejected(&trailing, &crowd_params(2)));
    }

    #[test]
    fn poisoned_walker_heals_without_touching_neighbours() {
        // Taint one walker between sweeps: the sweep-start scan repairs it
        // bit-identically while the other walkers never notice.
        let mut clean = Crowd::new(crowd_params(3));
        clean.try_step(1).unwrap();
        let mut faulty = Crowd::new(crowd_params(3));
        faulty.try_step(1).unwrap();
        faulty
            .walker_mut(1)
            .core_mut()
            .poison_greens(Spin::Up, 0, 1, f64::NAN);
        while !clean.is_complete() {
            clean.try_step(2).unwrap();
            faulty.try_step(2).unwrap();
        }
        assert!(!faulty.walker(1).recovery_log().is_empty());
        for (c, f) in clean.walkers().iter().zip(faulty.walkers()) {
            assert_eq!(c.core.h, f.core.h);
            assert_eq!(c.core.rng.state(), f.core.rng.state());
            assert_eq!(c.core.g[0].max_abs_diff(&f.core.g[0]), 0.0);
            let (dc, _) = c.observables().double_occupancy();
            let (df, _) = f.observables().double_occupancy();
            assert_eq!(dc.to_bits(), df.to_bits());
        }
    }

    /// Runs `sim` to completion, reshaping its cluster cache to `k` once
    /// `after` sweeps are done — what the taint ladder's shrink rung does.
    fn run_reshaped(sim: &mut Simulation, after: usize, k: usize) {
        sim.step(after);
        sim.core_mut().cache.reshape(k);
        while !sim.is_complete() {
            sim.step(5);
        }
    }

    #[test]
    fn one_walkers_shrink_does_not_desynchronise_the_crowd() {
        // Walker 1 shrinks its cluster size mid-run. It must keep its own
        // cadence (bit-identical to a solo run shrunk at the same sweep)
        // while its neighbours neither notice nor receive its products.
        let mut crowd = Crowd::new(crowd_params(3));
        crowd.try_step(2).unwrap();
        crowd.walker_mut(1).core_mut().cache.reshape(2);
        crowd.run();
        for (c, w) in crowd.walkers().iter().enumerate() {
            for spin in Spin::BOTH {
                let naive = greens_naive(&w.core.fac, &w.core.h, spin);
                let diff = relative_difference(w.greens(spin), &naive.g);
                assert!(diff < 1e-8, "walker {c} {spin:?}: {diff}");
            }
            let mut solo = Simulation::new(params(chain_seed(100, 0, c as u64)));
            if c == 1 {
                run_reshaped(&mut solo, 2, 2);
            } else {
                solo.run();
            }
            assert_eq!(solo.core.h, w.core.h, "walker {c} field diverged");
            assert_eq!(solo.core.rng.state(), w.core.rng.state());
            assert_eq!(solo.core.g[0].max_abs_diff(&w.core.g[0]), 0.0);
            assert_eq!(solo.core.g[1].max_abs_diff(&w.core.g[1]), 0.0);
            let (ds, _) = solo.observables().double_occupancy();
            let (dc, _) = w.observables().double_occupancy();
            assert_eq!(ds.to_bits(), dc.to_bits(), "walker {c} observables");
            assert!(w.recovery_log().is_empty(), "walker {c} logged recovery");
        }
        assert_eq!(crowd.walker(1).core.runtime_cluster_size(), 2);
    }
}
