//! The DQMC sweep engine — Algorithm 1 of the paper plus the stabilisation
//! machinery of §III.
//!
//! One sweep visits every element of the HS field once. For each time slice
//! `l` (with the current Green's functions valid for that slice, i.e. `B_l`
//! rightmost in the chain):
//!
//! 1. every site is visited; the Metropolis ratio `r = d₊d₋` with
//!    `d_σ = 1 + α_σ(1 − G_σ(i,i))` costs O(1) thanks to the delayed-update
//!    accumulators,
//! 2. accepted flips update both Green's functions by delayed rank-1 updates,
//! 3. the Green's functions are *wrapped* to the next slice,
//!    `G ← B_l G B_l⁻¹`, and every `k` slices they are instead *recomputed*
//!    from scratch by stratification over the (recycled) cluster products;
//!    the wrapped and recomputed matrices are compared to monitor accuracy.
//!
//! # One driver for any number of walkers
//!
//! [`DqmcCore`] is one walker's state; the slice loop lives in the sweep
//! driver, which steps B walkers in lockstep through one
//! [`ComputeBackend`] (see [`crate::crowd`]). A solo run is B = 1 of the
//! same loop ([`DqmcCore::try_sweep`]); B changes cost, never a trajectory.
//!
//! # Fault tolerance
//!
//! The two backend kernels may fail. Failures feed a bounded ladder governed
//! by [`RecoveryPolicy`](crate::recovery::RecoveryPolicy); every action
//! lands in a walker's [`RecoveryLog`] and none consumes the Metropolis RNG
//! stream, so a fault-free run is unchanged bit for bit.
//!
//! | fault class | scope | rungs |
//! |---|---|---|
//! | device: the call returned `Err` (`Transient`: launch failure, arena exhaustion) | driver — the call covered every walker; logged on walker 0 | **retry** (after telling the backend to drop resident device state) → permanent **host fallback** |
//! | taint in a wrapped `G` (non-finite download) | walker | **retry** the batched wrap → discard the wrap and **repair** from the HS field |
//! | taint in a cluster product | walker | **retry** the batched call → **cluster-size shrink** for that walker → at the floor, drop the product and rebuild it on the host |
//! | wrap-vs-recompute divergence (silent finite corruption) | walker | drop every cached product, **shrink** if possible, recompute on the host |
//! | non-finite stratified `G` on the host | walker | **shrink** → `Fatal` error at the floor |
//! | sick or hung device (`DeviceSick`) | escapes | logged as escalated; the scheduler parks the job and indicts the slot |
//!
//! Both calls climb one retry rung, `SweepDriver::call_retrying`: an `Err`
//! goes to `escalate_device`, a taint re-runs the whole call, and one
//! `fault_streak` bounds both within an incident. What the retries leave
//! each call settles per walker (`escalate_taint` holds the shrinks).
//!
//! Walkers keep their own cluster size: each decides its boundaries from
//! its own cache and the batched prefill groups walkers by slice range, so
//! one walker's shrink neither breaks lockstep nor hands it a neighbour's
//! products.

use crate::backend::{for_each_spin, ComputeBackend, HostBackend};
use crate::bmat::BMatrixFactory;
use crate::greens::{self, greens_from_udt, GreensFunction};
use crate::hs::HsField;
use crate::hubbard::{SimParams, Spin};
use crate::measure::Observables;
use crate::profile::{phases, PhaseTimer};
use crate::recovery::{
    shrink_cluster_size, RecoveryAction, RecoveryCause, RecoveryEvent, RecoveryLog, WRAP_TOLERANCE,
};
use crate::recycle::ClusterCache;
use crate::stratify::stratify;
use crate::update::{visit_sites, Decider, Side, SpinSide};
use linalg::check::first_non_finite;
use linalg::{workspace, Matrix};
use util::{DqmcError, Rng, RunningStats, Severity};

/// The complete mutable state of one walker (one Markov chain).
#[derive(Debug)]
pub struct DqmcCore {
    /// Configuration (immutable after construction).
    pub params: SimParams,
    /// B-matrix factory (holds `e^{∓ΔτK}`).
    pub fac: BMatrixFactory,
    /// Current HS field.
    pub h: HsField,
    /// Cluster product cache.
    pub cache: ClusterCache,
    /// Green's functions, `g[0]` = up, `g[1]` = down.
    pub g: [Matrix; 2],
    /// Sign of the configuration weight `det M₊ det M₋`, tracked
    /// incrementally and re-synchronised at every recomputation.
    pub sign: f64,
    /// Metropolis random stream.
    pub rng: Rng,
    /// Phase timer (Table I attribution).
    pub timer: PhaseTimer,
    /// Relative wrap-vs-recompute differences (accuracy monitor).
    pub wrap_diff: RunningStats,
    /// Accepted proposals.
    pub accepted: u64,
    /// Total proposals.
    pub proposed: u64,
    /// Recovery incident log.
    pub(crate) recovery: RecoveryLog,
    /// Total sweeps executed (warmup + measurement), for event attribution
    /// and checkpointing.
    pub(crate) sweeps_run: u64,
}

impl DqmcCore {
    /// Initialises a run: random HS field from the seed, Green's functions
    /// from a full stratified evaluation.
    pub fn new(params: SimParams) -> Self {
        let mut rng = Rng::new(params.seed);
        let n = params.model.nsites();
        let l = params.model.slices;
        let h = HsField::random(n, l, &mut rng);
        let g = [Matrix::zeros(n, n), Matrix::zeros(n, n)];
        let cluster_size = params.cluster_size;
        let mut core = DqmcCore::restore(
            params,
            h,
            rng,
            g,
            1.0,
            cluster_size,
            0,
            0,
            0,
            RunningStats::new(),
            0,
        );
        if let Err(e) = core.recompute_greens_recovering(l - 1) {
            panic!("{e}");
        }
        core
    }

    /// Rebuilds a core from checkpointed state: no field randomisation, no
    /// initial Green's function evaluation — every dynamical quantity comes
    /// from the checkpoint so the resumed chain is bit-identical.
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn restore(
        params: SimParams,
        h: HsField,
        rng: Rng,
        g: [Matrix; 2],
        sign: f64,
        runtime_cluster_size: usize,
        accepted: u64,
        proposed: u64,
        sweeps_run: u64,
        wrap_diff: RunningStats,
        recovery_prior: u64,
    ) -> Self {
        let fac = BMatrixFactory::new(&params.model);
        let cache = ClusterCache::new(params.model.slices, runtime_cluster_size);
        let mut recovery = RecoveryLog::new();
        recovery.set_prior(recovery_prior);
        DqmcCore {
            params,
            fac,
            h,
            cache,
            g,
            sign,
            rng,
            timer: PhaseTimer::new(),
            wrap_diff,
            accepted,
            proposed,
            recovery,
            sweeps_run,
        }
    }

    /// Number of sites.
    pub fn nsites(&self) -> usize {
        self.params.model.nsites()
    }

    /// Acceptance rate so far.
    pub fn acceptance_rate(&self) -> f64 {
        if self.proposed == 0 {
            0.0
        } else {
            self.accepted as f64 / self.proposed as f64
        }
    }

    /// Green's function for a spin.
    pub fn greens(&self, spin: Spin) -> &Matrix {
        &self.g[spin.index()]
    }

    /// The recovery incident log.
    pub fn recovery_log(&self) -> &RecoveryLog {
        &self.recovery
    }

    /// The cluster size currently in effect (may be smaller than the
    /// configured one after adaptive shrinking).
    pub fn runtime_cluster_size(&self) -> usize {
        self.cache.cluster_size()
    }

    /// Injects a value into a Green's function (fault drills and tests):
    /// sets `G_σ(i, j) = v`.
    pub fn poison_greens(&mut self, spin: Spin, i: usize, j: usize, v: f64) {
        self.g[spin.index()][(i, j)] = v;
    }

    /// Whether wrapping past slice `l` lands this walker on a recompute.
    /// The cluster size comes from the cache, not the params: adaptive
    /// shrinking may change it mid-sweep, and because each shrink divides
    /// the old size, every boundary already passed under the old cadence
    /// stays a boundary under the new one.
    fn at_boundary(&self, l: usize) -> bool {
        (l + 1).is_multiple_of(self.cache.cluster_size()) || l + 1 == self.params.model.slices
    }

    /// Recomputes both Green's functions from scratch on the host for the
    /// position after wrapping past slice `l` (must be the last slice of its
    /// cluster; stale cluster products are rebuilt from the HS field), and
    /// re-synchronises the configuration sign from the determinants. A
    /// non-finite result climbs the taint rungs: shrink this walker's
    /// cluster size and evaluate again.
    pub fn recompute_greens_recovering(&mut self, l: usize) -> Result<(), DqmcError> {
        loop {
            match self.try_recompute_greens(l) {
                Ok(()) => return Ok(()),
                Err(detail) => {
                    self.escalate_taint(l, RecoveryCause::NonFinite(detail), false)?;
                }
            }
        }
    }

    /// One attempt at the full stratified evaluation. On success `self.g`
    /// and `self.sign` are updated; on a non-finite result they are
    /// untouched and the taint's detail comes back.
    ///
    /// Both spins' cluster factors are gathered first (rebuilding the stale
    /// ones) and lent out of the cache; the two evaluations are independent
    /// and run as the spin pair ([`for_each_spin`]).
    fn try_recompute_greens(&mut self, l: usize) -> Result<(), String> {
        let algo = self.params.algo;
        let n = self.nsites();
        self.timer.time(phases::CLUSTERING, || {
            for spin in Spin::BOTH {
                self.cache.prepare_after_slice(&self.fac, &self.h, l, spin);
            }
        });
        let mut jobs: [(Vec<&Matrix>, Option<GreensFunction>); 2] =
            Spin::BOTH.map(|spin| (self.cache.cached_after_slice(l, spin), None));
        self.timer.time(phases::STRATIFICATION, || {
            for_each_spin(n, &mut jobs, |_, (factors, gf)| {
                *gf = Some(greens_from_udt(&stratify(factors, algo)));
            })
        });
        let [up, dn] = jobs.map(|(_, gf)| gf.expect("both spins evaluated"));
        let (sign, g) = (up.sign * dn.sign, [up.g, dn.g]);
        if let Some((spin, idx, v)) = first_taint(&g) {
            return Err(format!(
                "stratified G for {spin:?} has {v} at element {idx}"
            ));
        }
        self.g = g;
        self.sign = sign;
        Ok(())
    }

    /// The walker-scoped taint rungs, climbed once the driver's retries are
    /// spent (or at once for faults a retry cannot change). Shrinks this
    /// walker's cluster size when the policy allows — harder stabilisation,
    /// and every cached product is dropped — and returns `Ok(true)`. At the
    /// floor a `repairable` fault is logged as a plain repair and `Ok(false)`
    /// tells the caller to discard the tainted data and rebuild it from the
    /// HS field on the host; otherwise no rung is left and the error is
    /// `Fatal`. Termination: each shrink strictly decreases the cluster size.
    fn escalate_taint(
        &mut self,
        slice: usize,
        cause: RecoveryCause,
        repairable: bool,
    ) -> Result<bool, DqmcError> {
        let policy = &self.params.recovery;
        if !policy.enabled {
            return Err(DqmcError::fatal(
                "sweep",
                format!("taint with recovery disabled: {cause}"),
            ));
        }
        let from = self.cache.cluster_size();
        let to = shrink_cluster_size(from);
        if to < from && to >= policy.min_cluster {
            self.cache.reshape(to);
            self.push_event(slice, cause, RecoveryAction::ClusterShrink { from, to });
            return Ok(true);
        }
        if repairable {
            self.push_event(slice, cause, RecoveryAction::TaintRepair);
            return Ok(false);
        }
        Err(DqmcError::fatal(
            "sweep",
            format!("unrecoverable fault (all recovery rungs exhausted): {cause}"),
        ))
    }

    fn push_event(&mut self, slice: usize, cause: RecoveryCause, action: RecoveryAction) {
        self.recovery.push(RecoveryEvent {
            sweep: self.sweeps_run,
            slice,
            cause,
            action,
        });
    }

    /// Detects non-finite data in either Green's function (injected faults,
    /// inherited corruption) and repairs it by recomputing from the HS
    /// field at the canonical sweep-start position. The repair consumes no
    /// Metropolis randomness and reproduces exactly the matrix an untainted
    /// run holds at sweep start, so the repaired chain is bit-identical.
    fn repair_if_tainted(&mut self) -> Result<(), DqmcError> {
        let Some((spin, idx, v)) = first_taint(&self.g) else {
            return Ok(());
        };
        let s = spin.index();
        if !self.params.recovery.enabled {
            return Err(DqmcError::fatal(
                "sweep",
                format!("G[{s}] tainted at element {idx} ({v}) with recovery disabled"),
            ));
        }
        self.push_event(
            0,
            RecoveryCause::NonFinite(format!("G[{s}] element {idx} is {v} at sweep start")),
            RecoveryAction::TaintRepair,
        );
        self.recompute_greens_recovering(self.params.model.slices - 1)
    }

    /// Rebuilds both Green's functions for the position after slice `l`
    /// directly from the HS field on the host path, through a temporary
    /// single-slice-cluster cache so *any* `l` is a valid boundary. Used for
    /// mid-sweep taint repair, where `l + 1` need not be a cluster boundary.
    fn repair_greens_after(&mut self, l: usize) -> Result<(), DqmcError> {
        let unit = ClusterCache::new(self.params.model.slices, 1);
        let cache = std::mem::replace(&mut self.cache, unit);
        let result = self.try_recompute_greens(l);
        self.cache = cache;
        // Already at cluster size 1: there is no harder stabilisation left.
        result.map_err(|detail| {
            DqmcError::fatal("wrap", format!("unrecoverable tainted data: {detail}"))
        })
    }

    /// Runs one full sweep (all `L·N` proposals) on the host backend;
    /// records measurements into `obs` afterwards when provided.
    ///
    /// Infallible wrapper over [`Self::try_sweep`]: a classified failure
    /// becomes a panic whose message is the error's `Display`, so the
    /// original fault detail survives verbatim for `catch_unwind` backstops.
    pub fn sweep(&mut self, obs: Option<&mut Observables>) {
        if let Err(e) = self.try_sweep(obs) {
            panic!("{e}");
        }
    }

    /// Runs one full sweep on the host backend — the B = 1 case of the
    /// lockstep driver, for benches and tests that hold a bare core. On
    /// `Err` the core's dynamical state is mid-sweep and must not be
    /// measured.
    pub fn try_sweep(&mut self, obs: Option<&mut Observables>) -> Result<(), DqmcError> {
        SweepDriver::new(Box::new(HostBackend)).try_sweep(&mut [Lane { core: self, obs }])
    }

    /// The Metropolis site loop for one time slice ([`visit_sites`]): the
    /// slice's `α_σ` first, then delayed rank-1 updates over every site,
    /// then the stream, sign and counters written back, and cache
    /// invalidation on any accepted flip.
    fn metropolis_slice(&mut self, l: usize) {
        let n = self.nsites();
        let nb = self.params.delay_block;
        let t0 = std::time::Instant::now();
        let nu = self.fac.nu();
        // Plain vectors, not workspace leases: two more length-N leases per
        // slice shift the arena's best fit and raised an N = 36 crowd's
        // peak RSS by ≈ 0.4 MB.
        let alpha =
            |c: f64| -> Vec<f64> { (0..n).map(|i| (c * self.h.get(l, i)).exp() - 1.0).collect() };
        let (alpha_up, alpha_dn) = (alpha(-2.0 * nu), alpha(2.0 * nu));
        let empty = || Matrix::zeros(0, 0);
        let [gup, gdn] = std::mem::replace(&mut self.g, [empty(), empty()]);
        let (acceptance, sign) = (self.params.acceptance, self.sign);
        let mut sides = [
            Side {
                spin: SpinSide::new(gup, nb, alpha_up),
                decider: Decider::new(self.rng.clone(), acceptance, sign, Some((&mut self.h, l))),
            },
            Side {
                spin: SpinSide::new(gdn, nb, alpha_dn),
                decider: Decider::new(self.rng.clone(), acceptance, sign, None),
            },
        ];
        visit_sites(&mut sides, n);
        let [up, dn] = sides;
        let Decider {
            rng,
            sign,
            accepted,
            ..
        } = up.decider;
        self.g = [up.spin.into_g(), dn.spin.into_g()];
        self.rng = rng;
        self.sign = sign;
        self.proposed += n as u64;
        self.accepted += accepted;
        self.timer.add(phases::DELAYED_UPDATE, t0.elapsed());
        if accepted > 0 {
            self.cache.invalidate_slice(l);
        }
    }

    /// The cluster-boundary block after wrapping past slice `l`: recompute
    /// both Green's functions, monitor the wrap-vs-recompute divergence of
    /// either spin (when the wrap produced a valid pair) and take the
    /// optional mid-sweep measurement. Returns whether the divergence
    /// monitor fired — the cached cluster products were presumed silently
    /// corrupted (e.g. a device memory bit flip: finite, so the non-finite
    /// scans never saw it), dropped, and rebuilt from the always-clean HS
    /// field — so the driver can tell the backend to drop its resident
    /// state too.
    fn boundary_recompute(
        &mut self,
        l: usize,
        wrap_ok: bool,
        wrapped: &[Matrix; 2],
        obs: Option<&mut Observables>,
    ) -> Result<bool, DqmcError> {
        let l_slices = self.params.model.slices;
        let incr_sign = self.sign;
        self.recompute_greens_recovering(l)?;
        let mut diverged = false;
        if wrap_ok {
            let diff = wrapped
                .iter()
                .zip(&self.g)
                .map(|(w, g)| greens::relative_difference(w, g))
                .fold(0.0, f64::max);
            if self.params.recovery.enabled && diff > WRAP_TOLERANCE {
                diverged = true;
                self.cache.invalidate_all();
                self.escalate_taint(l, RecoveryCause::WrapDivergence { diff }, true)?;
                self.recompute_greens_recovering(l)?;
            } else {
                self.wrap_diff.push(diff);
            }
        }
        debug_assert!(
            incr_sign == self.sign || !self.recovery.is_empty(),
            "incremental sign diverged from determinant sign"
        );
        // Mid-sweep measurement: equal-time observables are
        // τ-translation invariant, so the freshly recomputed G at
        // this boundary is as good a sample as the sweep-end one.
        if self.params.measure_per_cluster && l + 1 != l_slices {
            if let Some(obs) = obs {
                self.record(obs);
            }
        }
        Ok(diverged)
    }

    /// Records the equal-time observables of the current Green's functions.
    fn record(&mut self, obs: &mut Observables) {
        let (gup, gdn, sign, u) = (&self.g[0], &self.g[1], self.sign, self.params.model.u);
        self.timer
            .time(phases::MEASUREMENT, || obs.record(u, gup, gdn, sign));
    }
}

/// The first non-finite element of a spin pair, scanning up then down:
/// (spin, flat index, value).
fn first_taint(pair: &[Matrix; 2]) -> Option<(Spin, usize, f64)> {
    let mut scans = Spin::BOTH.into_iter().zip(pair);
    scans.find_map(|(spin, m)| first_non_finite(m.as_slice()).map(|(i, v)| (spin, i, v)))
}

/// One walker's seat in a lockstep sweep: its engine and, on measurement
/// sweeps, the accumulator its records go to.
pub(crate) struct Lane<'a> {
    pub(crate) core: &'a mut DqmcCore,
    pub(crate) obs: Option<&'a mut Observables>,
}

/// What one backend call through [`SweepDriver::call_retrying`] returns:
/// its output and the taints found in it, as (lane, detail).
type CallResult<T> = Result<(T, Vec<(usize, String)>), DqmcError>;

/// The sweep driver: the backend every walker's heavy kernels go through
/// and the driver-scoped half of the recovery ladder. Owns no walker — it
/// steps whatever lanes it is handed, in lockstep.
#[derive(Debug)]
pub(crate) struct SweepDriver {
    /// The installed backend. Replacing it leaves the host-fallback flag
    /// untouched: a driver restored from a checkpoint that had already
    /// abandoned its device stays on the host path.
    pub(crate) backend: Box<dyn ComputeBackend>,
    /// The always-available host path, used once `use_host_fallback` is set.
    host: HostBackend,
    /// True once recovery has permanently abandoned the installed backend.
    /// Checkpointed in every walker image (the `DQCP` host-fallback byte).
    pub(crate) use_host_fallback: bool,
    /// Consecutive failures within the current incident (reset on success).
    fault_streak: u32,
}

impl SweepDriver {
    pub(crate) fn new(backend: Box<dyn ComputeBackend>) -> Self {
        SweepDriver {
            backend,
            host: HostBackend,
            use_host_fallback: false,
            fault_streak: 0,
        }
    }

    /// Name of the backend actually in use (accounts for host fallback).
    pub(crate) fn active_backend_name(&self) -> &str {
        if self.use_host_fallback {
            self.host.name()
        } else {
            self.backend.name()
        }
    }

    fn active(&mut self) -> &mut dyn ComputeBackend {
        if self.use_host_fallback {
            &mut self.host
        } else {
            self.backend.as_mut()
        }
    }

    /// One lockstep sweep of every lane, recording into each lane's `obs`
    /// afterwards when present. On `Err` the walkers' dynamical state is
    /// mid-sweep and must not be measured; supervisors discard it and
    /// resume from the last checkpoint image (which is why the sweep
    /// consumes no Metropolis randomness on the recovery paths — the
    /// resumed chains are bit-identical).
    pub(crate) fn try_sweep(&mut self, lanes: &mut [Lane<'_>]) -> Result<(), DqmcError> {
        let n = lanes[0].core.nsites();
        // Non-finite G here (an injected fault, or corruption inherited from
        // a previous phase) would poison every Metropolis ratio — and since
        // `f64::min(NaN, 1.0)` is 1.0, a NaN ratio *accepts everything*
        // rather than nothing. Scan up front and repair from the field; with
        // recovery disabled the scan still runs so the error names the taint
        // before any kernel consumes it.
        for lane in lanes.iter_mut() {
            lane.core.sweeps_run += 1;
            lane.core.repair_if_tainted()?;
        }
        // Wrap targets live for the whole sweep: at non-boundary slices the
        // wrapped pair is swapped into the walker's `g` and the old G
        // matrices become the next slice's targets — no per-slice
        // allocation. On an abort the pairs still go back to the pool.
        let mut wrapped: Vec<[Matrix; 2]> = lanes
            .iter()
            .map(|_| [workspace::take_matrix(n, n), workspace::take_matrix(n, n)])
            .collect();
        let result = self.sweep_slices(lanes, &mut wrapped);
        for [w0, w1] in wrapped {
            workspace::put_matrix(w0);
            workspace::put_matrix(w1);
        }
        result?;
        for lane in lanes.iter_mut() {
            if let Some(obs) = lane.obs.as_deref_mut() {
                lane.core.record(obs);
            }
        }
        Ok(())
    }

    /// The slice loop: Metropolis updates, wraps, boundary recomputes and
    /// mid-sweep measurements. Factored out of [`Self::try_sweep`] so the
    /// wrap workspace is returned to the pool on both the success and the
    /// abort path.
    fn sweep_slices(
        &mut self,
        lanes: &mut [Lane<'_>],
        wrapped: &mut [[Matrix; 2]],
    ) -> Result<(), DqmcError> {
        let l_slices = lanes[0].core.params.model.slices;
        for l in 0..l_slices {
            for lane in lanes.iter_mut() {
                lane.core.metropolis_slice(l);
            }
            // Advance to the next slice: wrap everyone, and recompute the
            // walkers that reached one of their cluster boundaries
            // (monitoring the wrap error there).
            let wrap_ok = self.wrap_recovering(lanes, l, wrapped)?;
            self.prefill_clusters(lanes, l)?;
            for (i, lane) in lanes.iter_mut().enumerate() {
                if lane.core.at_boundary(l) {
                    let obs = lane.obs.as_deref_mut();
                    let diverged = lane
                        .core
                        .boundary_recompute(l, wrap_ok[i], &wrapped[i], obs)?;
                    if diverged {
                        self.active().notify_fault();
                    }
                } else if wrap_ok[i] {
                    std::mem::swap(&mut lane.core.g[0], &mut wrapped[i][0]);
                    std::mem::swap(&mut lane.core.g[1], &mut wrapped[i][1]);
                }
                // wrap_ok == false mid-sweep: repair_greens_after already
                // placed clean post-wrap matrices in that walker's g.
            }
        }
        Ok(())
    }

    /// The driver-scoped rungs, for a backend call that did not complete:
    /// retry (bounded by the policy, after telling the backend to drop its
    /// resident state), then permanent host fallback. Returns `Ok` when the
    /// caller should run the call again. A `DeviceSick` error escapes
    /// immediately without consuming a rung. Events go to `base`, walker
    /// 0's log — the job's base chain.
    fn escalate_device(
        &mut self,
        base: &mut DqmcCore,
        origin: &'static str,
        err: DqmcError,
        slice: usize,
    ) -> Result<(), DqmcError> {
        if err.severity == Severity::DeviceSick {
            // The device, not the computation, is suspect: retrying or
            // falling back here would grind against a failing part while
            // the scheduler (which owns placement) is the layer that can
            // fix it — park the job, exclude the slot, feed the breaker.
            let cause = RecoveryCause::Sick(err.detail.clone());
            base.push_event(slice, cause, RecoveryAction::Escalated);
            return Err(err);
        }
        let policy = &base.params.recovery;
        if !policy.enabled {
            return Err(DqmcError::fatal(
                origin,
                format!("backend fault with recovery disabled: {}", err.detail),
            ));
        }
        let max_retries = policy.max_retries;
        let cause = RecoveryCause::Device(err.detail);
        self.fault_streak += 1;
        if self.fault_streak <= max_retries {
            let attempt = self.fault_streak;
            self.active().notify_fault();
            base.push_event(slice, cause, RecoveryAction::Retry { attempt });
            return Ok(());
        }
        // The host path never fails, so the fault came from the installed
        // backend and this rung is taken at most once.
        debug_assert!(!self.use_host_fallback, "the host backend failed");
        self.use_host_fallback = true;
        self.fault_streak = 0;
        base.push_event(slice, cause, RecoveryAction::HostFallback);
        Ok(())
    }

    /// The retry rung both backend calls climb. Runs `call` on the active
    /// backend for the lanes in `walkers`, which share its wall time in
    /// `phase`; `call` returns its result and the taints it finds in it
    /// (lane, detail) — device transfer corruption shows up there, since
    /// fallible backends do not self-check. An `Err` goes up
    /// [`Self::escalate_device`] and the call runs again. A taint re-runs
    /// the whole call while the incident's `fault_streak` allows, after
    /// telling the backend to drop its residents, and logs
    /// `Retry { attempt }` on each tainted walker; with recovery disabled it
    /// is `Fatal`. Returns the last result with its taints (none on a clean
    /// call) and the streak reset, for the caller to settle walker by
    /// walker.
    fn call_retrying<T>(
        &mut self,
        lanes: &mut [Lane<'_>],
        walkers: impl Iterator<Item = usize> + Clone,
        (origin, slice, phase): (&'static str, usize, usize),
        mut call: impl FnMut(&mut dyn ComputeBackend, &[Lane<'_>]) -> CallResult<T>,
    ) -> CallResult<T> {
        let share = walkers.clone().count() as u32;
        loop {
            let t0 = std::time::Instant::now();
            let result = call(self.active(), lanes);
            let per_walker = t0.elapsed() / share;
            for i in walkers.clone() {
                lanes[i].core.timer.add(phase, per_walker);
            }
            let (out, taint) = match result {
                Ok(done) => done,
                Err(err) => {
                    self.escalate_device(lanes[0].core, origin, err, slice)?;
                    continue;
                }
            };
            let policy = &lanes[0].core.params.recovery;
            if !taint.is_empty() && !policy.enabled {
                let detail = &taint[0].1;
                return Err(DqmcError::fatal(
                    origin,
                    format!("{origin} taint with recovery disabled: {detail}"),
                ));
            }
            if taint.is_empty() || self.fault_streak >= policy.max_retries {
                self.fault_streak = 0;
                return Ok((out, taint));
            }
            self.fault_streak += 1;
            let attempt = self.fault_streak;
            self.active().notify_fault();
            for (i, detail) in taint {
                let cause = RecoveryCause::NonFinite(detail);
                lanes[i]
                    .core
                    .push_event(slice, cause, RecoveryAction::Retry { attempt });
            }
        }
    }

    /// Wraps every walker's Green's functions past slice `l` with recovery.
    /// Entry `i` of the result is `true` when `wrapped[i]` holds valid
    /// wrapped matrices and `false` after a taint repair: at a cluster
    /// boundary the imminent recompute makes the wrap redundant, and
    /// mid-sweep the walker's `g` has been rebuilt for the post-wrap
    /// position directly from the HS field.
    fn wrap_recovering(
        &mut self,
        lanes: &mut [Lane<'_>],
        l: usize,
        wrapped: &mut [[Matrix; 2]],
    ) -> Result<Vec<bool>, DqmcError> {
        let b = lanes.len();
        let site = ("wrap", l, phases::WRAPPING);
        let ((), taint) = self.call_retrying(lanes, 0..b, site, |backend, lanes| {
            let hs: Vec<&HsField> = lanes.iter().map(|w| &w.core.h).collect();
            let gs: Vec<&[Matrix; 2]> = lanes.iter().map(|w| &w.core.g).collect();
            let mut outs: Vec<&mut [Matrix; 2]> = wrapped.iter_mut().collect();
            backend.wrap(&lanes[0].core.fac, &hs, l, &gs, &mut outs)?;
            let taint = wrapped.iter().enumerate().filter_map(|(i, pair)| {
                let (spin, idx, v) = first_taint(pair)?;
                let s = spin.index();
                let at = format!("{v} at element {idx} after slice {l}");
                Some((i, format!("wrapped G[{s}] of walker {i} has {at}")))
            });
            Ok(((), taint.collect()))
        })?;
        // The source G was clean (scanned at sweep start and after every
        // recompute), so the taint came from the wrap itself. The tainted
        // walkers alone discard it and rebuild; clean walkers keep their
        // wraps.
        let mut ok = vec![true; b];
        for (i, detail) in taint {
            let core = &mut *lanes[i].core;
            ok[i] = false;
            core.push_event(
                l,
                RecoveryCause::NonFinite(detail),
                RecoveryAction::TaintRepair,
            );
            if !core.at_boundary(l) {
                core.repair_greens_after(l)?;
            }
        }
        Ok(ok)
    }

    /// Sends every stale cluster product of the walkers at a boundary after
    /// slice `l` through the backend, both spins per call, so each walker's
    /// recompute then runs on cache reads. Each round takes the lowest stale
    /// slice range and batches the walkers whose next stale cluster is
    /// exactly that range — walkers with different cluster sizes never
    /// share a call. With recycling off the walker's cache is dropped first,
    /// so every product reaches the backend at every boundary.
    fn prefill_clusters(&mut self, lanes: &mut [Lane<'_>], l: usize) -> Result<(), DqmcError> {
        let at: Vec<usize> = (0..lanes.len())
            .filter(|&i| lanes[i].core.at_boundary(l))
            .collect();
        if at.is_empty() {
            return Ok(());
        }
        for &i in &at {
            if !lanes[i].core.params.recycle {
                lanes[i].core.cache.invalidate_all();
            }
        }
        let stale = |lanes: &[Lane<'_>], i: usize| {
            let cache = &lanes[i].core.cache;
            cache.first_stale().map(|c| cache.range(c))
        };
        while let Some(range) = at.iter().filter_map(|&i| stale(lanes, i)).min() {
            let need: Vec<usize> = at
                .iter()
                .copied()
                .filter(|&i| stale(lanes, i) == Some(range))
                .collect();
            self.cluster_recovering(lanes, range, &need)?;
        }
        Ok(())
    }

    /// Computes both spins' cluster products over `[lo, hi)` for the `need`
    /// subset of walkers through the backend and installs them. Leaves none
    /// of those slots stale: a product still tainted after the retries sends
    /// its walker up the taint rungs (a shrink re-clusters that walker, whose
    /// new stale ranges the prefill then picks up; at the floor the tainted
    /// product is rebuilt on the host).
    fn cluster_recovering(
        &mut self,
        lanes: &mut [Lane<'_>],
        (lo, hi): (usize, usize),
        need: &[usize],
    ) -> Result<(), DqmcError> {
        let walkers = need.iter().copied();
        let site = ("cluster", lo, phases::CLUSTERING);
        let (products, _) = self.call_retrying(lanes, walkers, site, |backend, lanes| {
            let hs: Vec<&HsField> = need.iter().map(|&i| &lanes[i].core.h).collect();
            let products = backend.cluster(&lanes[0].core.fac, &hs, lo, hi)?;
            let taint = need.iter().zip(&products).filter_map(|(&i, pair)| {
                let (spin, idx, v) = first_taint(pair)?;
                let at = format!("{v} at flat index {idx}");
                Some((i, format!("{at} in cluster [{lo}, {hi}) {spin:?}")))
            });
            let taint = taint.collect();
            Ok((products, taint))
        })?;
        for (&i, pair) in need.iter().zip(products) {
            let core = &mut *lanes[i].core;
            let c = core.cache.cluster_of(lo);
            // `install` re-scans; a still-tainted product is dropped.
            let mut dropped = Vec::new();
            for (spin, m) in Spin::BOTH.into_iter().zip(pair) {
                if let Err(detail) = core.cache.install(c, spin, m) {
                    dropped.push((spin, detail));
                }
            }
            let Some((_, detail)) = dropped.first() else {
                continue;
            };
            let cause = RecoveryCause::NonFinite(detail.clone());
            // One incident per walker; a shrink re-clusters both spins.
            if !core.escalate_taint(lo, cause, true)? {
                for (spin, _) in dropped {
                    core.timer.time(phases::CLUSTERING, || {
                        core.cache.get(&core.fac, &core.h, c, spin);
                    });
                }
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubbard::ModelParams;
    use crate::recovery::RecoveryPolicy;
    use crate::stratify::StratAlgo;
    use lattice::Lattice;

    fn small_params(u: f64, l: usize, seed: u64) -> SimParams {
        let model = ModelParams::new(Lattice::square(2, 2, 1.0), u, 0.0, 0.125, l);
        SimParams::new(model)
            .with_seed(seed)
            .with_cluster_size(4)
            .with_delay_block(3)
    }

    #[test]
    fn initial_greens_match_naive() {
        let mut core = DqmcCore::new(small_params(4.0, 8, 1));
        for spin in Spin::BOTH {
            let naive = greens::greens_naive(&core.fac, &core.h, spin);
            let diff = greens::relative_difference(core.greens(spin), &naive.g);
            assert!(diff < 1e-10, "{spin:?}: {diff}");
        }
        let _ = &mut core;
    }

    #[test]
    fn sweep_preserves_greens_consistency() {
        // After a sweep, the stored G must equal a from-scratch evaluation
        // for the final field configuration.
        let mut core = DqmcCore::new(small_params(4.0, 8, 2));
        core.sweep(None);
        for spin in Spin::BOTH {
            let naive = greens::greens_naive(&core.fac, &core.h, spin);
            let diff = greens::relative_difference(core.greens(spin), &naive.g);
            assert!(diff < 1e-8, "{spin:?}: {diff}");
        }
    }

    #[test]
    fn sign_is_positive_at_half_filling() {
        let mut core = DqmcCore::new(small_params(6.0, 8, 3));
        for _ in 0..5 {
            core.sweep(None);
            assert_eq!(core.sign, 1.0, "half filling must be sign-free");
        }
    }

    #[test]
    fn wrap_error_is_monitored_and_small() {
        let mut core = DqmcCore::new(small_params(4.0, 8, 4));
        core.sweep(None);
        assert!(core.wrap_diff.count() > 0);
        assert!(
            core.wrap_diff.max() < 1e-6,
            "wrap error too large: {}",
            core.wrap_diff.max()
        );
    }

    #[test]
    fn acceptance_rate_reasonable() {
        let mut core = DqmcCore::new(small_params(4.0, 8, 5));
        for _ in 0..5 {
            core.sweep(None);
        }
        let rate = core.acceptance_rate();
        assert!(rate > 0.05 && rate < 0.99, "acceptance rate {rate}");
        assert_eq!(core.proposed, 5 * 8 * 4);
    }

    #[test]
    fn deterministic_by_seed() {
        let run = |seed| {
            let mut core = DqmcCore::new(small_params(4.0, 8, seed));
            for _ in 0..3 {
                core.sweep(None);
            }
            (core.h.clone(), core.greens(Spin::Up).clone(), core.accepted)
        };
        let (h1, g1, a1) = run(7);
        let (h2, g2, a2) = run(7);
        assert_eq!(h1, h2);
        assert_eq!(a1, a2);
        assert!(g1.max_abs_diff(&g2) == 0.0);
        let (h3, _, _) = run(8);
        assert!(h3 != h1, "different seeds should diverge");
    }

    #[test]
    fn algorithms_produce_identical_markov_chains() {
        // Algorithms 2 and 3 differ by ~1e-12 in G; with the same random
        // stream the accept/reject decisions should coincide for short runs,
        // making the *field trajectories* identical.
        let run = |algo| {
            let mut core = DqmcCore::new(small_params(4.0, 8, 11).with_algo(algo));
            for _ in 0..3 {
                core.sweep(None);
            }
            core.h.clone()
        };
        assert_eq!(run(StratAlgo::Qrp), run(StratAlgo::PrePivot));
    }

    #[test]
    fn recycling_gives_same_results() {
        let run = |recycle| {
            let mut core = DqmcCore::new(small_params(4.0, 8, 13).with_recycle(recycle));
            for _ in 0..3 {
                core.sweep(None);
            }
            (core.h.clone(), core.greens(Spin::Down).clone())
        };
        let (h1, g1) = run(true);
        let (h2, g2) = run(false);
        assert_eq!(h1, h2);
        assert!(g1.max_abs_diff(&g2) < 1e-12);
    }

    #[test]
    fn delay_block_size_does_not_change_physics() {
        let run = |nb| {
            let mut core = DqmcCore::new(small_params(4.0, 8, 17).with_delay_block(nb));
            for _ in 0..3 {
                core.sweep(None);
            }
            core.h.clone()
        };
        let h1 = run(1);
        let h2 = run(4);
        let h3 = run(64);
        assert_eq!(h1, h2);
        assert_eq!(h2, h3);
    }

    #[test]
    fn timer_covers_all_phases() {
        let mut core = DqmcCore::new(small_params(4.0, 8, 19));
        let model = core.params.model.clone();
        let mut obs = Observables::new(&model, 1);
        core.sweep(Some(&mut obs));
        for (p, name) in phases::ALL.iter().enumerate() {
            assert!(
                core.timer.get(p) > std::time::Duration::ZERO,
                "phase {name} untimed"
            );
        }
    }

    #[test]
    fn u_zero_never_rejects() {
        // At U = 0, ν = 0, α = 0, r = 1: every proposal accepted, G never
        // changes, sign stays +1.
        let mut core = DqmcCore::new(small_params(0.0, 4, 23));
        let g0 = core.greens(Spin::Up).clone();
        core.sweep(None);
        assert_eq!(core.accepted, core.proposed);
        assert!(core.greens(Spin::Up).max_abs_diff(&g0) < 1e-9);
        assert_eq!(core.sign, 1.0);
    }

    #[test]
    fn recovery_policy_does_not_perturb_clean_runs() {
        // The recovery machinery never consumes Metropolis randomness, so a
        // fault-free run is bit-identical whether recovery is on or off.
        let run = |policy: RecoveryPolicy| {
            let mut core = DqmcCore::new(small_params(4.0, 8, 29).with_recovery(policy));
            for _ in 0..3 {
                core.sweep(None);
            }
            (core.h.clone(), core.greens(Spin::Up).clone(), core.sign)
        };
        let (h1, g1, s1) = run(RecoveryPolicy::default());
        let (h2, g2, s2) = run(RecoveryPolicy::disabled());
        assert_eq!(h1, h2);
        assert_eq!(g1.max_abs_diff(&g2), 0.0);
        assert_eq!(s1, s2);
    }

    #[test]
    fn injected_nan_is_repaired_bit_identically() {
        // Poison G between sweeps; the sweep-start scan must rebuild it to
        // exactly the state an untainted run holds, leaving the trajectory
        // bit-identical.
        let mut clean = DqmcCore::new(small_params(4.0, 8, 31));
        let mut faulty = DqmcCore::new(small_params(4.0, 8, 31));
        clean.sweep(None);
        faulty.sweep(None);
        faulty.poison_greens(Spin::Up, 1, 2, f64::NAN);
        faulty.poison_greens(Spin::Down, 0, 0, f64::INFINITY);
        for _ in 0..2 {
            clean.sweep(None);
            faulty.sweep(None);
        }
        assert!(!faulty.recovery_log().is_empty());
        assert_eq!(clean.h, faulty.h);
        assert_eq!(clean.rng.state(), faulty.rng.state());
        assert_eq!(clean.g[0].max_abs_diff(&faulty.g[0]), 0.0);
        assert_eq!(clean.g[1].max_abs_diff(&faulty.g[1]), 0.0);
        assert_eq!(clean.sign, faulty.sign);
        assert!(clean.recovery_log().is_empty());
    }

    #[test]
    #[should_panic(expected = "recovery disabled")]
    fn injected_nan_panics_with_recovery_disabled() {
        let params = small_params(4.0, 8, 37).with_recovery(RecoveryPolicy::disabled());
        let mut core = DqmcCore::new(params);
        core.poison_greens(Spin::Up, 0, 0, f64::NAN);
        core.sweep(None);
    }

    #[test]
    fn mid_sweep_repair_keeps_physics_consistent() {
        // Force a mid-sweep repair via the internal path and check G equals
        // the from-scratch evaluation afterwards (the chain stays valid).
        let mut core = DqmcCore::new(small_params(4.0, 8, 41));
        core.sweep(None);
        core.repair_greens_after(core.params.model.slices - 1)
            .unwrap();
        for spin in Spin::BOTH {
            let naive = greens::greens_naive(&core.fac, &core.h, spin);
            let diff = greens::relative_difference(core.greens(spin), &naive.g);
            assert!(diff < 1e-8, "{spin:?}: {diff}");
        }
    }

    /// The one scripted backend behind every ladder test: host kernels,
    /// with whole-call faults and poisoned outputs injected by count.
    #[derive(Debug, Default)]
    struct Scripted {
        /// Calls (wrap or cluster) still to fail with a device-class fault.
        device_faults: u32,
        /// Cluster calls still to fail with a device-class fault.
        cluster_device_faults: u32,
        /// Fail every call as sick.
        sick: bool,
        /// Cluster calls still to poison (the last product of each).
        taint_clusters: u32,
        /// Wrap calls still to poison (the last output of each).
        taint_wraps: u32,
        notified: std::sync::Arc<std::sync::atomic::AtomicU32>,
    }

    impl Scripted {
        fn fail(&mut self) -> Result<(), DqmcError> {
            if self.sick {
                return Err(DqmcError::device_sick("scripted", "scripted sick window"));
            }
            if self.device_faults > 0 {
                self.device_faults -= 1;
                return Err(DqmcError::transient("scripted", "scripted device failure"));
            }
            Ok(())
        }
    }

    impl ComputeBackend for Scripted {
        fn name(&self) -> &str {
            "scripted"
        }
        fn wrap(
            &mut self,
            fac: &BMatrixFactory,
            hs: &[&HsField],
            l: usize,
            gs: &[&[Matrix; 2]],
            outs: &mut [&mut [Matrix; 2]],
        ) -> Result<(), DqmcError> {
            self.fail()?;
            HostBackend.wrap(fac, hs, l, gs, outs)?;
            if self.taint_wraps > 0 {
                self.taint_wraps -= 1;
                outs.last_mut().expect("a walker")[1][(1, 2)] = f64::NAN;
            }
            Ok(())
        }
        fn cluster(
            &mut self,
            fac: &BMatrixFactory,
            hs: &[&HsField],
            lo: usize,
            hi: usize,
        ) -> Result<Vec<[Matrix; 2]>, DqmcError> {
            self.fail()?;
            if self.cluster_device_faults > 0 {
                self.cluster_device_faults -= 1;
                return Err(DqmcError::transient("scripted", "scripted device failure"));
            }
            let mut products = HostBackend.cluster(fac, hs, lo, hi)?;
            if self.taint_clusters > 0 {
                self.taint_clusters -= 1;
                products.last_mut().expect("a walker")[1][(0, 0)] = f64::INFINITY;
            }
            Ok(products)
        }
        fn notify_fault(&mut self) {
            self.notified
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        }
    }

    /// `b` bare walkers with distinct seeds.
    fn walkers(b: usize) -> Vec<DqmcCore> {
        (0..b as u64)
            .map(|c| DqmcCore::new(small_params(4.0, 8, 40 + c)))
            .collect()
    }

    fn sweep_all(driver: &mut SweepDriver, cores: &mut [DqmcCore]) -> Result<(), DqmcError> {
        let mut lanes: Vec<Lane<'_>> = cores
            .iter_mut()
            .map(|core| Lane { core, obs: None })
            .collect();
        driver.try_sweep(&mut lanes)
    }

    /// The same walkers after `sweeps` clean solo host sweeps — the
    /// bit-identity reference.
    fn clean_reference(b: usize, sweeps: usize) -> Vec<DqmcCore> {
        let mut cores = walkers(b);
        for core in &mut cores {
            for _ in 0..sweeps {
                core.sweep(None);
            }
        }
        cores
    }

    fn assert_same_chain(a: &DqmcCore, b: &DqmcCore) {
        assert_eq!(a.h, b.h);
        assert_eq!(a.rng.state(), b.rng.state());
        assert_eq!(a.g[0].max_abs_diff(&b.g[0]), 0.0);
        assert_eq!(a.g[1].max_abs_diff(&b.g[1]), 0.0);
        assert_eq!(a.sign, b.sign);
    }

    fn assert_greens_match_naive(core: &DqmcCore) {
        for spin in Spin::BOTH {
            let naive = greens::greens_naive(&core.fac, &core.h, spin);
            let diff = greens::relative_difference(core.greens(spin), &naive.g);
            assert!(diff < 1e-8, "{spin:?}: {diff}");
        }
    }

    fn actions(core: &DqmcCore) -> Vec<RecoveryAction> {
        let events = core.recovery_log().events();
        events.iter().map(|e| e.action.clone()).collect()
    }

    #[test]
    fn device_faults_retry_then_heal_bit_identically() {
        // Rung 1, driver-scoped: a failed call is retried as a whole after
        // the backend is told to drop its residents; the chains never notice.
        for b in [1, 2] {
            let script = Scripted {
                device_faults: 2,
                ..Scripted::default()
            };
            let notified = script.notified.clone();
            let mut driver = SweepDriver::new(Box::new(script));
            let mut cores = walkers(b);
            for _ in 0..3 {
                sweep_all(&mut driver, &mut cores).unwrap();
            }
            assert!(
                matches!(
                    actions(&cores[0])[..],
                    [
                        RecoveryAction::Retry { attempt: 1 },
                        RecoveryAction::Retry { attempt: 2 }
                    ]
                ),
                "device faults log on walker 0: {:?}",
                actions(&cores[0])
            );
            assert_eq!(notified.load(std::sync::atomic::Ordering::Relaxed), 2);
            assert_eq!(driver.fault_streak, 0, "streak resets on success");
            assert!(!driver.use_host_fallback);
            for (f, c) in cores.iter().zip(&clean_reference(b, 3)) {
                assert_same_chain(f, c);
            }
            assert!(cores[1..].iter().all(|c| c.recovery_log().is_empty()));
        }
    }

    #[test]
    fn persistent_device_faults_fall_back_to_host() {
        // Rung 2, driver-scoped: retries exhausted, the driver abandons the
        // backend for every walker at once. Cluster sizes are untouched.
        for b in [1, 2] {
            let script = Scripted {
                device_faults: u32::MAX,
                ..Scripted::default()
            };
            let mut driver = SweepDriver::new(Box::new(script));
            let mut cores = walkers(b);
            for _ in 0..3 {
                sweep_all(&mut driver, &mut cores).unwrap();
            }
            assert!(driver.use_host_fallback, "device faults abandon the device");
            assert_eq!(driver.active_backend_name(), "host");
            assert_eq!(driver.fault_streak, 0, "streak resets after escalation");
            assert!(matches!(
                actions(&cores[0])[..],
                [
                    RecoveryAction::Retry { .. },
                    RecoveryAction::Retry { .. },
                    RecoveryAction::HostFallback
                ]
            ));
            for (f, c) in cores.iter().zip(&clean_reference(b, 3)) {
                assert_eq!(f.runtime_cluster_size(), 4);
                assert_same_chain(f, c);
            }
        }
    }

    #[test]
    fn host_fallback_survives_a_checkpoint_at_any_width() {
        use crate::crowd::Crowd;
        use crate::ensemble::chain_seed;
        let failing = || {
            Box::new(Scripted {
                device_faults: u32::MAX,
                ..Scripted::default()
            })
        };
        for b in [1, 2] {
            let params: Vec<SimParams> = (0..b)
                .map(|c| small_params(4.0, 8, chain_seed(7, 0, c)).with_sweeps(2, 2))
                .collect();
            let mut crowd = Crowd::new(params.clone()).with_backend(failing());
            crowd.try_step(1).unwrap();
            assert_eq!(crowd.active_backend_name(), "host");
            let resumed = Crowd::resume_bytes(&crowd.checkpoint_bytes(), &params)
                .unwrap()
                .with_backend(failing());
            assert_eq!(
                resumed.active_backend_name(),
                "host",
                "a resumed driver must not go back to the device it abandoned"
            );
            assert!(resumed.walker(0).recovery_log().total() > 0);
        }
    }

    #[test]
    fn sick_faults_escape_the_ladder_without_consuming_rungs() {
        for b in [1, 2] {
            let mut driver = SweepDriver::new(Box::new(Scripted {
                sick: true,
                ..Scripted::default()
            }));
            let mut cores = walkers(b);
            let err = sweep_all(&mut driver, &mut cores).unwrap_err();
            assert_eq!(err.severity, util::Severity::DeviceSick);
            assert!(err.detail.contains("scripted sick window"), "{err}");
            // No rung was consumed: cluster size, backend and streak
            // untouched.
            assert_eq!(cores[0].runtime_cluster_size(), 4);
            assert!(!driver.use_host_fallback);
            assert_eq!(driver.fault_streak, 0);
            // The incident was logged as an escalation for the report
            // tallies, on the base chain.
            assert_eq!(cores[0].recovery_log().tallies().escalations, 1);
        }
    }

    #[test]
    fn cluster_taint_retries_then_shrinks_that_walker_then_rebuilds_on_host() {
        // The walker-scoped taint rungs, one incident each (3 poisoned calls
        // = 2 retries + 1 escalation): shrink 4 → 2, shrink 2 → 1, then at
        // the floor drop the product and rebuild it on the host. The last
        // walker of each call is the victim; once shrunk it is alone in its
        // calls, so the neighbour never sees a poisoned product again.
        for b in [1, 2] {
            let mut driver = SweepDriver::new(Box::new(Scripted {
                taint_clusters: 9,
                ..Scripted::default()
            }));
            let mut cores = walkers(b);
            sweep_all(&mut driver, &mut cores).unwrap();
            let victim = &cores[b - 1];
            let escalations: Vec<RecoveryAction> = actions(victim)
                .into_iter()
                .filter(|a| !matches!(a, RecoveryAction::Retry { .. }))
                .collect();
            assert!(
                matches!(
                    escalations[..],
                    [
                        RecoveryAction::ClusterShrink { from: 4, to: 2 },
                        RecoveryAction::ClusterShrink { from: 2, to: 1 },
                        RecoveryAction::TaintRepair
                    ]
                ),
                "{escalations:?}"
            );
            assert_eq!(victim.recovery_log().tallies().retries, 6);
            assert_eq!(victim.runtime_cluster_size(), 1);
            assert!(!driver.use_host_fallback, "taint never abandons the device");
            assert_eq!(driver.fault_streak, 0);
            // The shrunk walker keeps sweeping correctly at its own cadence.
            sweep_all(&mut driver, &mut cores).unwrap();
            assert_greens_match_naive(&cores[b - 1]);
            if b == 2 {
                assert_eq!(cores[0].runtime_cluster_size(), 4);
                assert!(cores[0].recovery_log().is_empty());
                assert_same_chain(&cores[0], &clean_reference(1, 2)[0]);
            }
        }
    }

    #[test]
    fn wrap_taint_retries_then_repairs_that_walker() {
        // One wrap attempt is one backend call (both spins; the down spin is
        // poisoned), so three poisoned calls are two retries and the
        // escalation.
        for b in [1, 2] {
            let mut driver = SweepDriver::new(Box::new(Scripted {
                taint_wraps: 3,
                ..Scripted::default()
            }));
            let mut cores = walkers(b);
            sweep_all(&mut driver, &mut cores).unwrap();
            assert!(matches!(
                actions(&cores[b - 1])[..],
                [
                    RecoveryAction::Retry { attempt: 1 },
                    RecoveryAction::Retry { attempt: 2 },
                    RecoveryAction::TaintRepair
                ]
            ));
            assert_greens_match_naive(&cores[b - 1]);
            if b == 2 {
                assert!(cores[0].recovery_log().is_empty());
                assert_same_chain(&cores[0], &clean_reference(1, 1)[0]);
            }
        }
    }

    #[test]
    fn a_device_fault_and_a_taint_on_its_retry_share_one_budget() {
        // A call that fails, then comes back tainted on its retry, is one
        // incident: the taint retry is attempt 2 of `max_retries` = 2, so
        // the next taint settles at once — a repair for a wrap, a shrink
        // for a cluster product.
        for b in [1, 2] {
            let wrap = Scripted {
                device_faults: 1,
                taint_wraps: 2,
                ..Scripted::default()
            };
            let cluster = Scripted {
                cluster_device_faults: 1,
                taint_clusters: 2,
                ..Scripted::default()
            };
            let repaired: fn(&RecoveryAction) -> bool =
                |a| matches!(a, RecoveryAction::TaintRepair);
            let shrunk: fn(&RecoveryAction) -> bool =
                |a| matches!(a, RecoveryAction::ClusterShrink { from: 4, to: 2 });
            for (script, settles) in [(wrap, repaired), (cluster, shrunk)] {
                let mut driver = SweepDriver::new(Box::new(script));
                let mut cores = walkers(b);
                sweep_all(&mut driver, &mut cores).unwrap();
                // Walker 0 logs the device retry, the victim the rest.
                let logged: Vec<RecoveryAction> = cores.iter().flat_map(actions).collect();
                assert!(
                    matches!(
                        logged[..],
                        [
                            RecoveryAction::Retry { attempt: 1 },
                            RecoveryAction::Retry { attempt: 2 },
                            ref last
                        ] if settles(last)
                    ),
                    "b = {b}: {logged:?}"
                );
                assert!(!driver.use_host_fallback);
                assert_eq!(driver.fault_streak, 0);
                assert_greens_match_naive(&cores[b - 1]);
            }
        }
    }

    #[test]
    fn taint_with_recovery_disabled_is_fatal_for_both_calls() {
        // "recovery disabled" is what `DqmcError::from_panic` classifies
        // as fatal, so the text is part of the contract.
        let wrap = Scripted {
            taint_wraps: 1,
            ..Scripted::default()
        };
        let cluster = Scripted {
            taint_clusters: 1,
            ..Scripted::default()
        };
        for script in [wrap, cluster] {
            let params = small_params(4.0, 8, 43).with_recovery(RecoveryPolicy::disabled());
            let mut cores = vec![DqmcCore::new(params)];
            let mut driver = SweepDriver::new(Box::new(script));
            let err = sweep_all(&mut driver, &mut cores).unwrap_err();
            assert_eq!(err.severity, util::Severity::Fatal, "{err}");
            assert!(err.to_string().contains("recovery disabled"), "{err}");
            assert!(cores[0].recovery_log().is_empty());
        }
    }

    #[test]
    fn a_finite_corruption_in_a_down_spin_product_reaches_the_divergence_rung() {
        // A cached down-spin cluster product off by a finite amount (a
        // device bit flip: no non-finite scan sees it) makes the next
        // boundary's recompute disagree with the wrapped down-spin G. The
        // monitor watches both spins, so the divergence rung fires.
        let mut core = DqmcCore::new(small_params(4.0, 8, 61));
        core.sweep(None);
        // Cluster 1 (slices 4..8) is read, not rebuilt, at the next
        // sweep's first boundary.
        let mut product = core.cache.get(&core.fac, &core.h, 1, Spin::Down).clone();
        product.scale(1.5);
        core.cache.install(1, Spin::Down, product).unwrap();
        core.sweep(None);
        let events = core.recovery_log().events();
        assert!(
            events
                .iter()
                .any(|e| matches!(e.cause, RecoveryCause::WrapDivergence { .. })),
            "{events:?}"
        );
        assert_greens_match_naive(&core);
    }

    /// Climbs the taint rungs directly with a fault no repair can absorb
    /// (a non-finite stratified G on the host) until none is left.
    fn exhaust_taint_rungs(core: &mut DqmcCore) -> DqmcError {
        loop {
            let cause = RecoveryCause::NonFinite("test".into());
            if let Err(e) = core.escalate_taint(0, cause, false) {
                return e;
            }
        }
    }

    #[test]
    #[should_panic(expected = "all recovery rungs exhausted")]
    fn exhausted_ladder_panics() {
        // The classified error's Display embeds the legacy message, so the
        // panic raised by an infallible wrapper still matches this pattern.
        let mut core = DqmcCore::new(small_params(4.0, 8, 47));
        let e = exhaust_taint_rungs(&mut core);
        panic!("{e}");
    }

    #[test]
    fn exhausted_ladder_error_is_fatal() {
        let mut core = DqmcCore::new(small_params(4.0, 8, 47));
        let err = exhaust_taint_rungs(&mut core);
        assert_eq!(core.runtime_cluster_size(), 1, "shrunk 4 → 2 → 1 first");
        assert_eq!(core.recovery_log().tallies().shrinks, 2);
        assert_eq!(err.severity, util::Severity::Fatal);
        assert!(err.to_string().contains("all recovery rungs exhausted"));
    }

    #[test]
    fn shrunk_run_still_correct() {
        // Shrink mid-run (as the taint ladder would) and verify sweeps stay
        // consistent with from-scratch Green's functions.
        let mut core = DqmcCore::new(small_params(4.0, 8, 59));
        core.sweep(None);
        core.cache.reshape(2);
        core.sweep(None);
        for spin in Spin::BOTH {
            let naive = greens::greens_naive(&core.fac, &core.h, spin);
            let diff = greens::relative_difference(core.greens(spin), &naive.g);
            assert!(diff < 1e-8, "{spin:?}: {diff}");
        }
        assert_eq!(core.runtime_cluster_size(), 2);
    }
}
