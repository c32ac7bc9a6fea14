//! The worker pool: pops jobs, places them, preempts them, watches them,
//! retries them, and folds the survivors into a [`SweepReport`].
//!
//! # Execution model
//!
//! Each worker loops: pop a job → try to lease a device from the shared
//! [`DevicePool`] (skipping the job's suspect slots; host fallback on a
//! miss) → step the job's walkers (a [`dqmc::Crowd`] of `job.width`, one
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
//! - **`DeviceSick`** — the run indicts the *device*, not the job. The job
//!   requeues for free (no retry budget consumed) with the slot added to
//!   its exclusion list, the pool's circuit breaker is fed a sick report,
//!   and the trace records a [`TraceEvent::SoftDeadline`] park (or
//!   [`TraceEvent::WorkerLost`] when the device wedged — the hard
//!   deadline: progress since the last parked image is written off).
//! - **`Transient` / `Corrupt`** — the job restarts from its last parked
//!   image, consuming one of `job_retries`.
//! - **`Fatal`** — no restart could help; the job is failed immediately.
//!
//! A panic escaping the simulation is *caught as a backstop*, classified
//! by [`DqmcError::from_panic`], counted in
//! [`SweepReport::panics_caught`], and fed through the same ladder — but
//! every classified-recoverable path returns `Err`, it does not panic.
//!
//! # Why the result cannot see the schedule
//!
//! Chain trajectories are fixed by hash-split seeds; device placement uses
//! the bit-exact wrap mode, so host and device runs agree to the last bit;
//! `DQCW` resume is bit-identical; and results land in a slot vector
//! indexed by `job_id = point * chains + chain`, then merge in canonical
//! chain order per point. Workers race only for *which* slot they fill
//! next, never for what goes in it. Deadline parks and sick requeues
//! re-run the same seeded sweeps elsewhere — slower, never different.

use crate::grid::GridSpec;
use crate::queue::{JobQueue, Pop, SweepJob};
use crate::report::{PointSummary, SweepReport};
use crate::trace::{EventLog, Placement, TraceEvent};
use crate::watchdog::{DeadlineVerdict, Heartbeats, QuantumWatchdog};
use dqmc::{Crowd, DqmcError, Observables, RecoveryLog, RecoveryTallies, RunToken, Severity};
use gpusim::{BreakerPolicy, DevicePool, DeviceSpec, HealthDecision};
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use util::sync::{relock, Mutex};

/// Scheduler configuration, usually derived from a [`GridSpec`] via
/// [`SchedConfig::from_spec`]; tests override individual knobs.
#[derive(Clone, Debug)]
pub struct SchedConfig {
    /// Worker threads. `1` runs inline on the calling thread.
    pub workers: usize,
    /// Simulated accelerator slots in the device pool. `0` forces every
    /// job onto the host backend.
    pub devices: usize,
    /// Queue bound; `0` sizes it to fit the whole grid.
    pub queue_bound: usize,
    /// Sweeps per scheduling quantum; `0` runs jobs to completion.
    pub quantum: usize,
    /// Cooperative yield after this many quanta even with no higher-
    /// priority waiter; `0` disables time-slicing.
    pub yield_every_quanta: u64,
    /// Restarts of a job that failed with a *retryable* classified error
    /// (or a caught panic). Sick-device requeues are not counted here.
    pub job_retries: u32,
    /// Grid point indices whose jobs are *held back* from the initial
    /// submission; tests release them mid-sweep (via
    /// [`Injector::release_held`]) to force true priority preemption.
    pub hold_points: Vec<usize>,
    /// Soft deadline per quantum in logical device-seconds (fail-slow
    /// detection); `0.0` disables the quantum watchdog.
    pub soft_quantum_cost_s: f64,
    /// Heartbeat scans without progress before an idle worker cancels a
    /// stalled peer's token; `0` disables cross-worker cancellation.
    pub stall_scan_limit: u32,
    /// Circuit-breaker policy for the device pool's health ledger.
    pub breaker: BreakerPolicy,
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
            hold_points: Vec::new(),
            soft_quantum_cost_s: 0.0,
            stall_scan_limit: 0,
            breaker: BreakerPolicy::default(),
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

/// Mid-sweep injection handle passed to the observer callback: jobs held
/// back by [`SchedConfig::hold_points`] wait here until released.
pub struct Injector<'a> {
    queue: &'a JobQueue,
    held: Mutex<Vec<SweepJob>>,
}

impl<'a> Injector<'a> {
    /// An injector holding nothing — the resident service runs without
    /// hold-point choreography but shares [`worker_loop`].
    pub(crate) fn idle(queue: &'a JobQueue) -> Self {
        Injector {
            queue,
            held: Mutex::new(Vec::new()),
        }
    }

    /// Jobs still held (not yet injected).
    pub fn held(&self) -> usize {
        relock(self.held.lock()).len()
    }

    /// Releases every held job into the queue at `priority`. Idempotent —
    /// observers may call it on every event and only the first call
    /// submits. Held jobs were counted outstanding at submission time, so
    /// the queue always has room for them.
    pub fn release_held(&self, priority: u8) {
        let jobs: Vec<SweepJob> = {
            let mut held = relock(self.held.lock());
            std::mem::take(&mut *held)
        };
        for job in jobs {
            let job = job.with_priority(priority);
            self.queue.requeue(job);
        }
    }
}

/// Callback observing the trace stream at job boundaries; the [`Injector`]
/// lets it submit held jobs mid-sweep.
pub type SweepObserver = dyn for<'a> Fn(&TraceEvent, &Injector<'a>) + Sync;

/// Where finished jobs deliver their per-chain outcomes. The classic
/// one-shot sweep routes by slot index ([`SlotSink`]); the resident
/// service routes by campaign tag. Workers race only for *which* sink
/// call runs next, never for what a given (point, chain) receives — the
/// determinism contract is the sink's to keep.
pub(crate) trait OutcomeSink: Sync {
    /// Delivers a completed job's outcomes, one per covered chain in
    /// chain order.
    fn deliver(&self, job: &SweepJob, outcomes: Vec<ChainOutcome>);

    /// Records a permanently failed job: every chain it covers lost its
    /// data, with the job-level counters folded onto the base chain.
    fn deliver_failure(&self, job: &SweepJob);
}

/// The classic per-sweep sink: a slot vector indexed by
/// `point * chains + chain`, drained once the sweep terminates.
pub(crate) struct SlotSink {
    results: Mutex<Vec<Option<ChainOutcome>>>,
    chains: usize,
}

impl SlotSink {
    // dqmc-lint: allow(hot_alloc) — one-time construction at sweep setup.
    pub(crate) fn new(njobs: usize, chains: usize) -> Self {
        SlotSink {
            results: Mutex::new((0..njobs).map(|_| None).collect()),
            chains,
        }
    }

    /// Consumes the sink after every worker has exited.
    pub(crate) fn into_outcomes(self) -> Vec<Option<ChainOutcome>> {
        relock(self.results.into_inner())
    }
}

impl OutcomeSink for SlotSink {
    fn deliver(&self, job: &SweepJob, outcomes: Vec<ChainOutcome>) {
        let base = job.point * self.chains + job.chain;
        let mut slots = relock(self.results.lock());
        for (i, outcome) in outcomes.into_iter().enumerate() {
            slots[base + i] = Some(outcome);
        }
    }

    fn deliver_failure(&self, job: &SweepJob) {
        // A job fails as a unit: every chain it covers loses its data. Job-level counters land on the base slot only (see
        // [`ChainOutcome`]).
        let base = job.point * self.chains + job.chain;
        let mut slots = relock(self.results.lock());
        for i in 0..job.width {
            slots[base + i] = Some(ChainOutcome::failed_slot(job, i));
        }
    }
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
    /// image to resume from (freshly parked for cooperative soft parks,
    /// the last successful park otherwise).
    Aborted {
        error: DqmcError,
    },
}

/// Initial grid submission: the bound was sized to fit the whole grid
/// above, so the queue cannot be full here.
// dqmc-lint: allow(panic_site)
fn submit_infallible(queue: &JobQueue, job: SweepJob) {
    queue
        .submit(job)
        .expect("queue was sized to fit the whole grid");
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
/// On a yield (or a cooperative soft-deadline park) the parked `DQCW`
/// image replaces `job.checkpoint`; on an abortive error the *previous*
/// image is still intact, so the restart resumes from the last successful
/// park rather than from scratch-after-progress.
fn run_job(
    job: &mut SweepJob,
    worker: usize,
    pool: Option<&DevicePool>,
    cfg: &SchedConfig,
    events: &EventLog,
    queue: &JobQueue,
    token: &RunToken,
) -> (RunStep, Option<usize>) {
    let lease = pool.and_then(|p| p.try_lease_excluding(&job.excluded_slots));
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
    let mut watchdog = None;
    if cfg.soft_quantum_cost_s > 0.0 && lease.is_some() {
        watchdog = Some(QuantumWatchdog::new(cfg.soft_quantum_cost_s));
    }
    if let Some(l) = &lease {
        let mut backend = l.backend(job.fault_plan.clone());
        if let Some(wd) = &watchdog {
            backend.device_mut().set_cost_meter(wd.meter());
        }
        sim = sim.with_backend(Box::new(backend));
    }

    let quantum = if cfg.quantum == 0 {
        usize::MAX
    } else {
        cfg.quantum
    };
    let mut quanta_run: u64 = 0;
    loop {
        if let Err(error) = sim.try_step(quantum, token) {
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
        if let Some(wd) = watchdog.as_mut() {
            if let DeadlineVerdict::SoftExceeded { cost_s } = wd.observe_quantum() {
                // The quantum finished cleanly (only slowly), so the state
                // is consistent: park cooperatively from *current* progress.
                job.checkpoint = Some(sim.checkpoint_bytes());
                job.device_seconds += sim.device_seconds();
                return (
                    RunStep::Aborted {
                        error: DqmcError::device_sick(
                            "watchdog",
                            format!(
                                "quantum cost {cost_s:.3}s exceeded soft deadline {:.3}s",
                                cfg.soft_quantum_cost_s
                            ),
                            false,
                        ),
                    },
                    slot,
                );
            }
        }
        if token.is_cancelled() {
            // A heartbeat scan requested a cooperative park.
            job.checkpoint = Some(sim.checkpoint_bytes());
            job.device_seconds += sim.device_seconds();
            return (
                RunStep::Aborted {
                    error: DqmcError::device_sick(
                        "heartbeat",
                        "cooperative park after heartbeat stall",
                        false,
                    ),
                },
                slot,
            );
        }
        let preempted = queue.waiting_priority_above(job.priority);
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
#[allow(clippy::too_many_arguments)]
fn handle_abort(
    mut job: SweepJob,
    error: DqmcError,
    slot: Option<usize>,
    worker: usize,
    pool: Option<&DevicePool>,
    cfg: &SchedConfig,
    events: &EventLog,
    queue: &JobQueue,
    sink: &dyn OutcomeSink,
) {
    match error.severity {
        Severity::DeviceSick => {
            // The device is indicted, not the job: requeue for free with
            // the suspect slot excluded, and feed the circuit breaker.
            job.sick_strikes += 1;
            let slot_id = slot.unwrap_or(usize::MAX);
            if let (Some(p), Some(s)) = (pool, slot) {
                if !job.excluded_slots.contains(&s) {
                    job.excluded_slots.push(s);
                }
                emit_decision(events, p.report_failure(s, true));
            }
            if error.hard {
                events.push(TraceEvent::WorkerLost {
                    point: job.point,
                    chain: job.chain,
                    worker,
                    slot: slot_id,
                });
            } else {
                events.push(TraceEvent::SoftDeadline {
                    point: job.point,
                    chain: job.chain,
                    slot: slot_id,
                });
            }
            queue.requeue(job);
        }
        Severity::Transient | Severity::Corrupt => {
            if let (Some(p), Some(s)) = (pool, slot) {
                emit_decision(events, p.report_failure(s, false));
            }
            job.attempts += 1;
            if job.attempts <= cfg.job_retries {
                events.push(TraceEvent::Retried {
                    point: job.point,
                    chain: job.chain,
                    attempt: job.attempts,
                });
                // job.checkpoint still holds the last successful park, so
                // the retry resumes there.
                queue.requeue(job);
            } else {
                fail_job(job, events, sink, queue);
            }
        }
        Severity::Fatal => {
            // No restart could help (recovery disabled, ladder exhausted):
            // fail fast regardless of remaining budget.
            job.attempts += 1;
            fail_job(job, events, sink, queue);
        }
    }
}

fn fail_job(job: SweepJob, events: &EventLog, sink: &dyn OutcomeSink, queue: &JobQueue) {
    events.push(TraceEvent::Failed {
        point: job.point,
        chain: job.chain,
        attempts: job.attempts,
    });
    sink.deliver_failure(&job);
    queue.complete();
}

/// One worker's lifetime: drain the queue until the sweep terminates,
/// scanning the heartbeat registry whenever a bounded pop comes up empty.
#[allow(clippy::too_many_arguments)]
pub(crate) fn worker_loop(
    worker: usize,
    queue: &JobQueue,
    pool: Option<&DevicePool>,
    cfg: &SchedConfig,
    events: &EventLog,
    sink: &dyn OutcomeSink,
    injector: &Injector<'_>,
    observer: Option<&SweepObserver>,
    hearts: &Heartbeats,
    panics_caught: &AtomicU64,
) {
    let token = hearts.token(worker);
    loop {
        let mut job = match queue.pop_timeout(1) {
            Pop::Job(job) => job,
            Pop::Empty => {
                hearts.scan(worker, cfg.stall_scan_limit);
                continue;
            }
            Pop::Drained => break,
        };
        token.reset();
        let step = catch_unwind(AssertUnwindSafe(|| {
            run_job(&mut job, worker, pool, cfg, events, queue, &token)
        }));
        // Observers see events only at job boundaries (not mid-quantum), so
        // an injection here lands before the next pop — deterministic with
        // one worker.
        if let Some(obs) = observer {
            let snap = events.snapshot();
            if let Some(e) = snap.last() {
                obs(e, injector);
            }
        }
        match step {
            Ok((RunStep::Completed(outcomes), slot)) => {
                if let (Some(p), Some(s)) = (pool, slot) {
                    emit_decision(events, p.report_success(s));
                }
                sink.deliver(&job, outcomes);
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
                handle_abort(job, error, slot, worker, pool, cfg, events, queue, sink);
            }
            Err(payload) => {
                // Backstop only: classified-recoverable paths return Err
                // above and never unwind. The chaos tier asserts this
                // counter stays zero under pure-sick storms.
                panics_caught.fetch_add(1, Ordering::Relaxed);
                let error = DqmcError::from_panic(payload.as_ref());
                // The lease dropped during unwinding; the slot cannot be
                // indicted reliably, so the pool is not fed a report.
                handle_abort(job, error, None, worker, pool, cfg, events, queue, sink);
            }
        }
    }
}

/// Runs a sweep campaign. Convenience wrapper over
/// [`run_sweep_observed`] with no observer.
pub fn run_sweep(spec: &GridSpec, cfg: &SchedConfig, events: &EventLog) -> SweepReport {
    run_sweep_observed(spec, cfg, events, None)
}

/// Runs a sweep campaign with an optional observer called at job
/// boundaries — the hook the preemption tests use to release held jobs
/// mid-sweep.
///
/// The returned report's [`SweepReport::observables_json`] is a pure
/// function of `(spec physics, spec seeds)`: `cfg` may change workers,
/// devices, quanta, holds, deadlines, breaker policy — the observables
/// section does not move.
pub fn run_sweep_observed(
    spec: &GridSpec,
    cfg: &SchedConfig,
    events: &EventLog,
    observer: Option<&SweepObserver>,
) -> SweepReport {
    assert!(
        cfg.hold_points.is_empty() || observer.is_some(),
        "hold_points without an observer to release them would deadlock"
    );
    let start = Instant::now();
    let points = spec.points();
    let njobs = spec.total_jobs();
    let bound = if cfg.queue_bound == 0 {
        njobs
    } else {
        cfg.queue_bound.max(njobs)
    };
    let queue = JobQueue::new(bound);
    let injector = Injector {
        queue: &queue,
        held: Mutex::new(Vec::new()),
    };

    let crowd = spec.crowd.max(1);
    for point in &points {
        let mut chain = 0;
        while chain < spec.chains {
            // One job per crowd of up to `crowd` consecutive chains; the
            // tail crowd of a point may be narrower. Each walker keeps its
            // own hash-split seed, so batching never reshapes the ensemble.
            let width = crowd.min(spec.chains - chain);
            let extra = (chain + 1..chain + width)
                .map(|c| spec.chain_params(point, c))
                .collect();
            let job = SweepJob::new(point.index, chain, spec.chain_params(point, chain))
                .with_fault_plan(spec.fault_plan(point, chain))
                .with_crowd(extra);
            chain += width;
            if cfg.hold_points.contains(&point.index) {
                // Count it outstanding now (so termination waits for it and
                // requeue-on-release cannot overflow), but keep it out of
                // the heap until an observer releases it.
                let placeholder = queue.submit_held();
                debug_assert!(placeholder.is_ok(), "grid-sized queue cannot be full");
                relock(injector.held.lock()).push(job);
            } else {
                submit_infallible(&queue, job);
            }
        }
    }

    let pool = if cfg.devices > 0 {
        let p = DevicePool::with_policy(DeviceSpec::tesla_c2050(), cfg.devices, cfg.breaker);
        for (slot, plan, persistent) in spec.slot_profiles() {
            p.set_slot_profile(slot, plan, persistent);
        }
        Some(p)
    } else {
        None
    };
    let sink = SlotSink::new(njobs, spec.chains);
    let hearts = Heartbeats::new(cfg.workers.max(1));
    let panics_caught = AtomicU64::new(0);

    if cfg.workers <= 1 {
        worker_loop(
            0,
            &queue,
            pool.as_ref(),
            cfg,
            events,
            &sink,
            &injector,
            observer,
            &hearts,
            &panics_caught,
        );
    } else {
        std::thread::scope(|scope| {
            for w in 0..cfg.workers {
                let queue = &queue;
                let pool = pool.as_ref();
                let sink = &sink;
                let injector = &injector;
                let hearts = &hearts;
                let panics_caught = &panics_caught;
                scope.spawn(move || {
                    worker_loop(
                        w,
                        queue,
                        pool,
                        cfg,
                        events,
                        sink,
                        injector,
                        observer,
                        hearts,
                        panics_caught,
                    );
                });
            }
        });
    }

    let outcomes = sink.into_outcomes();
    let retries = events.count(|e| matches!(e, TraceEvent::Retried { .. })) as u64;
    assemble_report(
        spec,
        cfg,
        &points,
        outcomes,
        pool.as_ref(),
        events,
        retries,
        panics_caught.load(Ordering::Relaxed),
        start,
    )
}

/// Pools one point's chain outcomes — `outcomes[chain]` in canonical
/// chain order — into its summary plus its pooled recovery tallies. This
/// is the aggregation step the determinism contract protects, shared by
/// the one-shot [`assemble_report`] and the resident service (which
/// summarises each point the moment its last chain lands, to stream and
/// cache it).
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

/// Merges per-chain outcomes into per-point summaries in canonical chain
/// order — the aggregation step the determinism contract protects.
#[allow(clippy::too_many_arguments)]
fn assemble_report(
    spec: &GridSpec,
    cfg: &SchedConfig,
    points: &[crate::grid::GridPoint],
    outcomes: Vec<Option<ChainOutcome>>,
    pool: Option<&DevicePool>,
    events: &EventLog,
    retries: u64,
    panics_caught: u64,
    start: Instant,
) -> SweepReport {
    let mut summaries = Vec::with_capacity(points.len());
    let mut failed_jobs = 0usize;
    let mut total_preemptions = 0u64;
    let mut total_device_quanta = 0u64;
    let mut total_host_quanta = 0u64;
    let mut total_device_seconds = 0.0f64;
    let mut recovery_tallies = RecoveryTallies::default();

    for point in points {
        let base = point.index * spec.chains;
        let (summary, tallies) = summarize_point(point, &outcomes[base..base + spec.chains]);
        failed_jobs += summary.chains_failed;
        total_preemptions += summary.preemptions;
        total_device_quanta += summary.device_quanta;
        total_host_quanta += summary.host_quanta;
        total_device_seconds += summary.device_seconds;
        recovery_tallies.merge(&tallies);
        summaries.push(summary);
    }

    SweepReport {
        seed: spec.seed,
        chains: spec.chains,
        crowd: spec.crowd.max(1),
        warmup: spec.warmup,
        sweeps: spec.sweeps,
        points: summaries,
        total_jobs: spec.total_jobs(),
        failed_jobs,
        preemptions: total_preemptions,
        retries,
        device_quanta: total_device_quanta,
        host_quanta: total_host_quanta,
        device_seconds: total_device_seconds,
        leases_granted: pool.map_or(0, |p| p.leases_granted()),
        lease_misses: pool.map_or(0, |p| p.lease_misses()),
        quarantines: pool.map_or(0, |p| p.quarantines()),
        probes: pool.map_or(0, |p| p.probes()),
        readmissions: pool.map_or(0, |p| p.readmissions()),
        quarantine_skips: pool.map_or(0, |p| p.quarantine_skips()),
        soft_parks: events.count(|e| matches!(e, TraceEvent::SoftDeadline { .. })) as u64,
        worker_losses: events.count(|e| matches!(e, TraceEvent::WorkerLost { .. })) as u64,
        panics_caught,
        recovery_tallies,
        workers: cfg.workers,
        devices: cfg.devices,
        wall_seconds: start.elapsed().as_secs_f64(),
    }
}
