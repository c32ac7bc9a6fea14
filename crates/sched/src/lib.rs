//! Checkpoint-aware parameter-sweep scheduler.
//!
//! A QMC campaign is never one Markov chain: it is a grid of `(U, β)`
//! points, each an ensemble of independent chains. This crate turns the
//! primitives of the lower layers — bit-identical walker checkpoints,
//! the recovery ladder, the simulated device pool — into a service with
//! the shape of a production job scheduler. There is one shell,
//! [`SweepService`] (worker pool + device pool + queue, campaigns routed
//! by tag); [`run_sweep`] is that service living for one whole-grid
//! campaign: start → admit → wait → shutdown.
//!
//! 1. **Queue** ([`queue`]): every run of up to `crowd` consecutive chains
//!    of a point becomes a [`SweepJob`] in a bounded priority queue; FIFO
//!    within a priority class, higher classes pop first; a campaign's jobs
//!    are admitted all-or-nothing, and workers stop once the queue is
//!    closed and drained. A job of any width runs through the same driver
//!    ([`dqmc::Crowd`]).
//! 2. **Placement** ([`gpusim::pool`]): workers lease simulated
//!    accelerators from a shared [`gpusim::DevicePool`]; when every slot is
//!    busy the job runs on the host backend instead of waiting.
//! 3. **Preemption** ([`runner`]): jobs execute in quanta of whole sweeps.
//!    At each quantum boundary a job yields to higher-priority waiters (or
//!    on its cooperative time-slice) by serialising to an in-memory `DQCW`
//!    image (one `DQCP` image per walker) and requeueing; the resume is
//!    bit-identical, so preemption is invisible in the physics.
//! 4. **Retry** ([`runner`]): a job whose run fails with a classified
//!    retryable error — or, as a backstop, panics — restarts from its last
//!    checkpoint image, up to a per-job budget, before being reported
//!    failed. `DeviceSick`-class failures requeue for *free* (the device
//!    was at fault, not the job) with the suspect slot excluded.
//! 5. **Health** ([`gpusim::pool`]): a launch that hangs, or is slowed to
//!    the device's one deadline ([`gpusim::LAUNCH_DEADLINE_S`]), indicts
//!    its slot, and the device pool's circuit breaker quarantines slots
//!    that accumulate sick reports, re-admitting them through
//!    exponential-backoff probation probes.
//! 6. **Aggregation** ([`service`], [`report`]): chain outcomes land in
//!    their campaign's slot vector; per point they merge in canonical
//!    chain order the moment the last one lands and are jackknifed
//!    ([`util::jackknife_ratio`]) into a machine-readable [`SweepReport`].
//!
//! # The determinism contract
//!
//! The pooled observables of a sweep are a **pure function of
//! (grid, seeds)** — independent of worker count, device-pool size,
//! placement, preemption schedule, and scripted one-shot fault plans.
//! Three mechanisms compose to guarantee it:
//!
//! - chain seeds are hash-split per (point, chain) ([`dqmc::chain_seed`]),
//!   so the set of Markov chains is fixed by the grid alone;
//! - [`gpusim::DeviceBackend`] takes its matrices from
//!   [`dqmc::HostBackend`] and only bills the device for them, making
//!   device and host runs bit-identical, at any job width;
//! - preemption parks jobs as `DQCW` images whose resume is bit-identical,
//!   and recovery retries consume no Metropolis randomness, so one-shot
//!   faults heal without a trace.
//!
//! `tests/sched_determinism.rs` (workspace root) pins the whole contract.

pub mod grid;
pub mod queue;
pub mod report;
pub mod runner;
pub mod service;
pub mod shard;
pub mod trace;

pub use grid::{GridPoint, GridSpec};
pub use queue::{AdmitError, JobQueue, SweepJob};
pub use report::{observables_json_for, PointSummary, SweepReport};
pub use runner::{run_sweep, SchedConfig};
pub use service::{
    CampaignHandle, CampaignOutcome, CampaignRequest, PointObserver, ServiceConfig, SubmitError,
    SweepService,
};
pub use shard::{grid_fingerprint, plan_shard_subset, plan_shards, ShardBlock, ShardPlan};
pub use trace::{EventLog, Placement, TraceEvent};
