//! The worker loop — pops jobs, places them, preempts them, retries them —
//! run by the workers of the one scheduler shell,
//! [`crate::service::SweepService`]; and [`run_sweep`], the one-shot entry:
//! that service with a single whole-grid campaign, folded into a
//! [`SweepReport`].
//!
//! # Execution model
//!
//! Each worker loops: pop a job → try to lease a device from the shared
//! [`gpusim::DevicePool`] (skipping the job's suspect slots; host fallback
//! on a miss) → step the job's walkers (a [`dqmc::Crowd`] of `job.width`, one
//! driver for any width) in quanta of `quantum` sweeps. At every quantum
//! boundary the job checks whether it should yield — a higher-priority job
//! is waiting, or its cooperative time-slice (`yield_every_quanta`)
//! expired — and if so parks itself as an in-memory `DQCW` image (an
//! envelope of one `DQCP` image per walker) and requeues.
//!
//! # Failure handling is classification-keyed
//!
//! A failed quantum surfaces as a structured [`DqmcError`] whose severity
//! drives the response:
//!
//! - **`DeviceSick`** — the run indicts the *device*, not the job: a launch
//!   hung, was slowed to [`gpusim::LAUNCH_DEADLINE_S`], or failed inside a
//!   sick window. The job requeues for free (no retry budget consumed)
//!   with the slot added to its exclusion list, the pool's circuit breaker
//!   is fed a sick report, and the trace records a
//!   [`TraceEvent::SoftDeadline`] park. The job resumes from its last
//!   parked image.
//! - **`Transient`** — the job restarts from its last parked image,
//!   consuming one of `job_retries`.
//! - **`Fatal`** — no restart could help; the job is failed immediately.
//!
//! A panic escaping the simulation is *caught as a backstop*, classified
//! by [`DqmcError::from_panic`], counted in
//! [`SweepReport::panics_caught`], and fed through the same ladder — but
//! every classified-recoverable path returns `Err`, it does not panic.
//!
//! # Why the result cannot see the schedule
//!
//! Chain trajectories are fixed by hash-split seeds; the device backend
//! bills the host's own products, so host and device runs agree to the last bit;
//! `DQCW` resume is bit-identical; and results land in their campaign's
//! slot vector indexed by `selected point * chains + chain`, then merge in
//! canonical chain order per point. Workers race only for *which* slot
//! they fill next, never for what goes in it. Sick requeues re-run the
//! same seeded sweeps elsewhere — slower, never different.

use crate::grid::GridSpec;
use crate::queue::SweepJob;
use crate::report::{PointSummary, SweepReport};
use crate::service::{ServiceCore, SweepService};
use crate::trace::{EventLog, Placement, TraceEvent};
use dqmc::{Crowd, DqmcError, Observables, RecoveryLog, RecoveryTallies, Severity};
use gpusim::HealthDecision;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Configuration of a scheduler's execution resources: the one struct
/// behind both [`run_sweep`] and a resident [`SweepService`]. Campaign
/// grids carry *physics*; workers, devices and quanta belong to the host
/// running them. Usually derived from a [`GridSpec`] via
/// [`SchedConfig::from_spec`]; tests override individual knobs.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Worker threads, at least one. They are always spawned: the thread
    /// that calls [`run_sweep`] or submits a campaign only waits.
    pub workers: usize,
    /// Simulated accelerator slots in the device pool. `0` forces every
    /// job onto the host backend.
    pub devices: usize,
    /// Bound on outstanding jobs. [`run_sweep`] raises it to fit its grid;
    /// a resident service reads `0` as its default (4096) and refuses
    /// whole any campaign that does not fit the remaining capacity
    /// ([`crate::AdmitError::Full`]).
    pub queue_bound: usize,
    /// Sweeps per scheduling quantum; `0` runs jobs to completion
    /// (starving preemption — resident services normally want a quantum).
    pub quantum: usize,
    /// Cooperative yield after this many quanta even with no higher-
    /// priority waiter; `0` disables time-slicing.
    pub yield_every_quanta: u64,
    /// Restarts of a job that failed with a *retryable* classified error
    /// (or a caught panic). Sick-device requeues are not counted here.
    pub job_retries: u32,
    /// Campaign-tag namespace: tags are drawn from
    /// `(tag_namespace << 32) + 1` upward. A fleet shard child sets this
    /// to `shard + 1`, so every job tag in a multi-process campaign names
    /// the shard that ran it — cross-process traces stay attributable.
    /// `0` (the default) keeps the classic small tags.
    pub tag_namespace: u64,
}

impl Default for SchedConfig {
    fn default() -> Self {
        SchedConfig {
            workers: 1,
            devices: 0,
            queue_bound: 0,
            quantum: 0,
            yield_every_quanta: 0,
            job_retries: 1,
            tag_namespace: 0,
        }
    }
}

impl SchedConfig {
    /// The scheduling knobs declared in a grid spec.
    pub fn from_spec(spec: &GridSpec) -> Self {
        SchedConfig {
            workers: spec.workers,
            devices: spec.devices,
            quantum: spec.quantum,
            job_retries: spec.job_retries,
            ..SchedConfig::default()
        }
    }
}

/// What happened to one *chain*. The accumulators are boxed so the `Failed`
/// variant (and the slot vector's `None`s) stay pointer-sized. A job of
/// `width` chains produces `width` of these; its job-level scheduling
/// counters (preemptions, quanta, device-seconds) are recorded on the base
/// chain's outcome only, so campaign totals count each job once.
pub(crate) enum ChainOutcome {
    Done {
        observables: Box<Observables>,
        acceptance: f64,
        max_wrap_error: f64,
        recovery: RecoveryLog,
        preemptions: u32,
        device_quanta: u64,
        host_quanta: u64,
        device_seconds: f64,
    },
    Failed {
        preemptions: u64,
        device_quanta: u64,
        host_quanta: u64,
        device_seconds: f64,
    },
}

/// Per-chain outcomes of a finished job in chain order; job-level counters
/// land on the base chain only.
fn outcomes(sim: &Crowd, job: &SweepJob) -> Vec<ChainOutcome> {
    sim.walkers()
        .iter()
        .enumerate()
        .map(|(i, w)| ChainOutcome::Done {
            observables: Box::new(w.observables().clone()),
            acceptance: w.acceptance_rate(),
            max_wrap_error: w.max_wrap_error(),
            recovery: w.recovery_log().clone(),
            preemptions: if i == 0 { job.preemptions } else { 0 },
            device_quanta: if i == 0 { job.device_quanta } else { 0 },
            host_quanta: if i == 0 { job.host_quanta } else { 0 },
            device_seconds: if i == 0 { job.device_seconds } else { 0.0 },
        })
        .collect()
}

impl ChainOutcome {
    /// The `Failed` record for covered-chain `i` of a failed job:
    /// job-level counters fold onto the base chain only.
    pub(crate) fn failed_slot(job: &SweepJob, i: usize) -> ChainOutcome {
        ChainOutcome::Failed {
            preemptions: if i == 0 { job.preemptions as u64 } else { 0 },
            device_quanta: if i == 0 { job.device_quanta } else { 0 },
            host_quanta: if i == 0 { job.host_quanta } else { 0 },
            device_seconds: if i == 0 { job.device_seconds } else { 0.0 },
        }
    }
}

/// The result of one quantum-loop invocation.
enum RunStep {
    /// One outcome per chain the job covers, in chain order.
    Completed(Vec<ChainOutcome>),
    Yielded {
        sweeps_done: usize,
    },
    /// The run stopped with a classified error; `job.checkpoint` holds the
    /// last successful park, the image to resume from.
    Aborted {
        error: DqmcError,
    },
}

/// Translates a breaker decision into trace events.
fn emit_decision(events: &EventLog, decision: HealthDecision) {
    match decision {
        HealthDecision::None => {}
        HealthDecision::Opened { slot, backoff } => events.push(TraceEvent::BreakerOpen {
            slot,
            backoff,
            reopened: false,
        }),
        HealthDecision::Reopened { slot, backoff } => events.push(TraceEvent::BreakerOpen {
            slot,
            backoff,
            reopened: true,
        }),
        HealthDecision::Readmitted { slot } => events.push(TraceEvent::SlotReadmitted { slot }),
    }
}

/// Runs one job until it completes, yields, or aborts with a classified
/// error. Returns the step and the device slot it ran on (`None` = host).
///
/// On a yield the parked `DQCW` image replaces `job.checkpoint`; on an
/// abortive error the *previous* image is still intact, so the restart
/// resumes from the last successful park rather than from
/// scratch-after-progress.
fn run_job(job: &mut SweepJob, worker: usize, core: &ServiceCore) -> (RunStep, Option<usize>) {
    let (cfg, events) = (&core.cfg, &core.events);
    let lease = core
        .pool
        .as_ref()
        .and_then(|p| p.try_lease_excluding(&job.excluded_slots));
    let slot = lease.as_ref().map(|l| l.slot());
    let placement = match slot {
        Some(slot) => Placement::Device { slot },
        None => Placement::Host,
    };
    if let Some(l) = &lease {
        if l.is_probe() {
            events.push(TraceEvent::ProbeGranted { slot: l.slot() });
        }
    }
    events.push(TraceEvent::Started {
        point: job.point,
        chain: job.chain,
        worker,
        placement,
        resumed: job.checkpoint.is_some(),
    });

    // Every job drives `job.width` walkers in lockstep through one driver;
    // a one-chain job is a crowd of one.
    let params = job.crowd_params();
    let mut sim = match &job.checkpoint {
        // The image was produced by this very run, so a decode failure
        // means in-memory corruption: no restart can help.
        Some(bytes) => match Crowd::resume_bytes(bytes, &params) {
            Ok(sim) => sim,
            Err(e) => {
                let error =
                    DqmcError::fatal("resume", format!("parked image failed to resume: {e}"));
                return (RunStep::Aborted { error }, slot);
            }
        },
        None => Crowd::new(params),
    };
    if let Some(l) = &lease {
        sim = sim.with_backend(Box::new(l.backend(job.fault_plan.clone())));
    }

    let quantum = if cfg.quantum == 0 {
        usize::MAX
    } else {
        cfg.quantum
    };
    let mut quanta_run: u64 = 0;
    loop {
        if let Err(error) = sim.try_step(quantum) {
            job.device_seconds += sim.device_seconds();
            return (RunStep::Aborted { error }, slot);
        }
        quanta_run += 1;
        match placement {
            Placement::Device { .. } => job.device_quanta += 1,
            Placement::Host => job.host_quanta += 1,
        }
        if sim.is_complete() {
            events.push(TraceEvent::Completed {
                point: job.point,
                chain: job.chain,
                worker,
            });
            job.device_seconds += sim.device_seconds();
            return (RunStep::Completed(outcomes(&sim, job)), slot);
        }
        let preempted = core.queue.waiting_priority_above(job.priority);
        let sliced = cfg.yield_every_quanta > 0 && quanta_run >= cfg.yield_every_quanta;
        if preempted || sliced {
            job.checkpoint = Some(sim.checkpoint_bytes());
            job.device_seconds += sim.device_seconds();
            // Walkers run in lockstep, so walker 0 speaks for the job.
            let (warmup, measured) = sim.walker(0).sweeps_done();
            return (
                RunStep::Yielded {
                    sweeps_done: warmup + measured,
                },
                slot,
            );
        }
    }
}

/// Handles a classified abort: the severity keys the recovery ladder.
fn handle_abort(mut job: SweepJob, error: DqmcError, slot: Option<usize>, core: &ServiceCore) {
    let (events, pool) = (&core.events, core.pool.as_ref());
    match error.severity {
        Severity::DeviceSick => {
            // The device is indicted, not the job: requeue for free with
            // the suspect slot excluded, and feed the circuit breaker.
            if let (Some(p), Some(s)) = (pool, slot) {
                if !job.excluded_slots.contains(&s) {
                    job.excluded_slots.push(s);
                }
                emit_decision(events, p.report_failure(s, true));
            }
            events.push(TraceEvent::SoftDeadline {
                point: job.point,
                chain: job.chain,
                slot: slot.unwrap_or(usize::MAX),
            });
            core.queue.requeue(job);
        }
        Severity::Transient => {
            if let (Some(p), Some(s)) = (pool, slot) {
                emit_decision(events, p.report_failure(s, false));
            }
            job.attempts += 1;
            if job.attempts <= core.cfg.job_retries {
                events.push(TraceEvent::Retried {
                    point: job.point,
                    chain: job.chain,
                    attempt: job.attempts,
                });
                // job.checkpoint still holds the last successful park, so
                // the retry resumes there.
                core.queue.requeue(job);
            } else {
                fail_job(job, core);
            }
        }
        Severity::Fatal => {
            // No restart could help (recovery disabled, ladder exhausted):
            // fail fast regardless of remaining budget.
            job.attempts += 1;
            fail_job(job, core);
        }
    }
}

/// Records a permanently failed job: every chain it covers lost its data.
fn fail_job(job: SweepJob, core: &ServiceCore) {
    core.events.push(TraceEvent::Failed {
        point: job.point,
        chain: job.chain,
        attempts: job.attempts,
    });
    core.record(&job, None);
    core.queue.complete();
}

/// One worker's lifetime: serve the queue until it is closed and drained.
pub(crate) fn worker_loop(worker: usize, core: &ServiceCore) {
    let (queue, events, pool) = (&core.queue, &core.events, core.pool.as_ref());
    while let Some(mut job) = queue.pop_blocking() {
        let step = catch_unwind(AssertUnwindSafe(|| run_job(&mut job, worker, core)));
        match step {
            Ok((RunStep::Completed(outcomes), slot)) => {
                if let (Some(p), Some(s)) = (pool, slot) {
                    emit_decision(events, p.report_success(s));
                }
                core.record(&job, Some(outcomes));
                queue.complete();
            }
            Ok((RunStep::Yielded { sweeps_done }, slot)) => {
                // The quantum ran fine; a probe that got this far answered.
                if let (Some(p), Some(s)) = (pool, slot) {
                    emit_decision(events, p.report_success(s));
                }
                job.preemptions += 1;
                events.push(TraceEvent::Yielded {
                    point: job.point,
                    chain: job.chain,
                    sweeps_done,
                });
                queue.requeue(job);
            }
            Ok((RunStep::Aborted { error }, slot)) => {
                handle_abort(job, error, slot, core);
            }
            Err(payload) => {
                // Backstop only: classified-recoverable paths return Err
                // above and never unwind. The chaos tier asserts this
                // counter stays zero under pure-sick storms.
                core.panics_caught.fetch_add(1, Ordering::Relaxed);
                let error = DqmcError::from_panic(payload.as_ref());
                // The lease dropped during unwinding; the slot cannot be
                // indicted reliably, so the pool is not fed a report.
                handle_abort(job, error, None, core);
            }
        }
    }
}

/// Runs one whole-grid campaign to completion on a [`SweepService`] of its
/// own: started on a queue sized to the grid and tracing into `events`,
/// the grid's `slot_faults` profiles set on its device pool (the sweep
/// owns the pool, so [`SweepService::submit`]'s tenant-facing refusal does
/// not apply), the campaign admitted and waited for, the service shut
/// down, and the report folded from the campaign's outcome, the pool's
/// ledgers and the event counts.
///
/// The calling thread only waits: `cfg.workers.max(1)` worker threads are
/// spawned and joined per call, a one-worker sweep included. A worker that
/// dies *outside* `run_job`'s panic backstop is not re-raised here — the
/// contract a resident service has always had.
///
/// The returned report's [`SweepReport::observables_json`] is a pure
/// function of `(spec physics, spec seeds)`: `cfg` may change workers,
/// devices, quanta, time-slicing — the observables section does not move.
// dqmc-lint: allow(panic_site) — the queue is open and sized to fit the
// whole grid, and a parsed grid has at least one point, so admission
// cannot be refused.
pub fn run_sweep(spec: &GridSpec, cfg: &SchedConfig, events: &EventLog) -> SweepReport {
    let start = Instant::now();
    let total_jobs = spec.total_jobs();
    let bound = cfg.queue_bound.max(total_jobs);
    let service = SweepService::start_on(cfg, bound, events.clone());
    let core = Arc::clone(&service.core);
    let pool = core.pool.as_ref();
    if let Some(p) = pool {
        for (slot, plan, persistent) in &spec.slot_faults {
            p.set_slot_profile(*slot, plan.clone(), *persistent);
        }
    }
    let outcome = service
        .admit(spec, 0, None, None)
        .expect("a non-empty grid fits the queue sized for it")
        .wait();
    service.shutdown();

    let sum = |f: fn(&PointSummary) -> u64| outcome.points.iter().map(f).sum::<u64>();
    SweepReport {
        seed: spec.seed,
        chains: spec.chains,
        crowd: spec.crowd.max(1),
        warmup: spec.warmup,
        sweeps: spec.sweeps,
        total_jobs,
        failed_jobs: outcome.failed_chains,
        preemptions: sum(|p| p.preemptions),
        retries: events.count(|e| matches!(e, TraceEvent::Retried { .. })) as u64,
        device_quanta: sum(|p| p.device_quanta),
        host_quanta: sum(|p| p.host_quanta),
        device_seconds: outcome.points.iter().map(|p| p.device_seconds).sum(),
        leases_granted: pool.map_or(0, |p| p.leases_granted()),
        lease_misses: pool.map_or(0, |p| p.lease_misses()),
        quarantines: pool.map_or(0, |p| p.quarantines()),
        probes: pool.map_or(0, |p| p.probes()),
        readmissions: pool.map_or(0, |p| p.readmissions()),
        quarantine_skips: pool.map_or(0, |p| p.quarantine_skips()),
        soft_parks: events.count(|e| matches!(e, TraceEvent::SoftDeadline { .. })) as u64,
        panics_caught: core.panics_caught.load(Ordering::Relaxed),
        recovery_tallies: outcome.recovery_tallies,
        workers: cfg.workers,
        devices: cfg.devices,
        wall_seconds: start.elapsed().as_secs_f64(),
        points: outcome.points,
    }
}

/// Pools one point's chain outcomes — `outcomes[chain]` in canonical
/// chain order — into its summary plus its pooled recovery tallies. This
/// is the aggregation step the determinism contract protects; the service
/// runs it the moment a point's last chain lands, to stream and cache it.
pub(crate) fn summarize_point(
    point: &crate::grid::GridPoint,
    outcomes: &[Option<ChainOutcome>],
) -> (PointSummary, RecoveryTallies) {
    let mut pooled: Option<Observables> = None;
    let mut chains_ok = 0usize;
    let mut chains_failed = 0usize;
    let mut acc_sum = 0.0f64;
    let mut max_wrap = 0.0f64;
    let mut recovery_events = 0u64;
    let mut preemptions = 0u64;
    let mut device_quanta = 0u64;
    let mut host_quanta = 0u64;
    let mut device_seconds = 0.0f64;
    let mut tallies = RecoveryTallies::default();

    for outcome in outcomes {
        match outcome {
            Some(ChainOutcome::Done {
                observables,
                acceptance,
                max_wrap_error,
                recovery,
                preemptions: p,
                device_quanta: dq,
                host_quanta: hq,
                device_seconds: ds,
            }) => {
                match &mut pooled {
                    Some(acc) => acc.merge(observables),
                    None => pooled = Some(observables.as_ref().clone()),
                }
                chains_ok += 1;
                acc_sum += acceptance;
                max_wrap = max_wrap.max(*max_wrap_error);
                recovery_events += recovery.total();
                tallies.merge(&recovery.tallies());
                preemptions += u64::from(*p);
                device_quanta += dq;
                host_quanta += hq;
                device_seconds += ds;
            }
            Some(ChainOutcome::Failed {
                preemptions: p,
                device_quanta: dq,
                host_quanta: hq,
                device_seconds: ds,
            }) => {
                chains_failed += 1;
                preemptions += p;
                device_quanta += dq;
                host_quanta += hq;
                device_seconds += ds;
            }
            None => {
                // Unreachable in a drained sweep; count it as failed so
                // a scheduler bug shows up as data loss, not a panic.
                chains_failed += 1;
            }
        }
    }

    let summary = PointSummary {
        point: point.index,
        u: point.u,
        beta: point.beta,
        slices: point.slices,
        chains_ok,
        chains_failed,
        bin_count: pooled.as_ref().map_or(0, |o| o.bin_count()),
        scalars: pooled.as_ref().map(|o| o.jackknife_scalars()),
        mean_acceptance: if chains_ok > 0 {
            acc_sum / chains_ok as f64
        } else {
            0.0
        },
        max_wrap_error: max_wrap,
        recovery_events,
        preemptions,
        device_quanta,
        host_quanta,
        device_seconds,
    };
    (summary, tallies)
}
