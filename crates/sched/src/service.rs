//! The sweep service: the one scheduler shell — a worker pool and a device
//! pool multiplexing campaigns through one priority [`JobQueue`].
//!
//! Campaigns are *submitted* into the shared queue (tagged, all-or-nothing
//! admission), their jobs interleave by priority with every other
//! tenant's, and each campaign's outcomes are routed back to it by tag
//! into its own slot vector. The moment a point's last chain lands the
//! service pools it with [`crate::runner::summarize_point`] and hands the
//! summary to the campaign's observer (the hook a server uses to stream
//! bins and fill a result cache). A resident service (`dqmc-serve`, a
//! fleet child) keeps the pools alive across campaigns; a one-shot
//! [`crate::run_sweep`] is the same service living for one whole-grid
//! campaign, so a served campaign's observables are byte-identical to an
//! in-process run of the same grid by construction
//! (`tests/golden/sweep_v1.obs.json` pins the bytes both produce).
//!
//! Campaigns may cover a *subset* of their grid's points. Point indices
//! stay canonical — the point index is the seed hash-split's stream id,
//! so re-running points 2 and 5 of a grid reproduces exactly the bytes a
//! full sweep would have produced for them.

use crate::grid::{GridPoint, GridSpec};
use crate::queue::{AdmitError, JobQueue, SweepJob};
use crate::report::PointSummary;
use crate::runner::{summarize_point, worker_loop, ChainOutcome, SchedConfig};
use crate::trace::EventLog;
use dqmc::RecoveryTallies;
use gpusim::{DevicePool, DeviceSpec};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use util::sync::{relock, Condvar, Mutex};

/// Queue bound of a resident service when the config leaves it 0.
const DEFAULT_QUEUE_BOUND: usize = 4096;

/// A service is configured by the scheduler's one config struct; the alias
/// is the name `serve::ServerConfig::service` and the benchmark use.
pub type ServiceConfig = SchedConfig;

/// A campaign submission: which grid, how urgent, and optionally which
/// subset of its points.
#[derive(Clone, Debug)]
pub struct CampaignRequest {
    /// The grid. Scheduling keys it may carry (`workers`, `devices`,
    /// `quantum`) are ignored — those resources belong to the service.
    pub spec: GridSpec,
    /// Priority class for every job of this campaign; higher preempts
    /// lower at quantum boundaries.
    pub priority: u8,
    /// Canonical point indices to run; `None` runs the whole grid.
    /// Indices keep their grid-canonical values, so partial campaigns
    /// reproduce the full sweep's bytes for the points they cover.
    pub points: Option<Vec<usize>>,
}

/// Why a campaign submission was refused.
#[derive(Debug)]
pub enum SubmitError {
    /// The shared queue refused the batch (full or closed).
    Queue(AdmitError),
    /// A requested point index is outside the grid.
    UnknownPoint {
        /// The offending index.
        index: usize,
        /// Points the grid actually has.
        points: usize,
    },
    /// The request selected no points at all.
    EmptySelection,
    /// The grid declares `slot_faults`, which configure the *device
    /// pool* — shared service infrastructure no single tenant may
    /// reshape.
    SlotFaultsUnsupported,
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::Queue(e) => write!(f, "{e}"),
            SubmitError::UnknownPoint { index, points } => {
                write!(f, "point {index} outside grid ({points} points)")
            }
            SubmitError::EmptySelection => write!(f, "campaign selects no points"),
            SubmitError::SlotFaultsUnsupported => {
                write!(
                    f,
                    "slot_faults configure the shared device pool; not accepted per-campaign"
                )
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Observer invoked the moment a point's last chain lands, with the
/// freshly pooled summary. It runs on a worker thread *outside* every
/// service lock, so it may write sockets or disks; a panic inside it
/// kills that worker, so servers must keep their observers infallible.
pub type PointObserver = dyn Fn(&PointSummary) + Send + Sync;

/// Everything a finished campaign produced.
#[derive(Clone, Debug)]
pub struct CampaignOutcome {
    /// Summaries of the selected points, in canonical point order.
    pub points: Vec<PointSummary>,
    /// Chains that permanently failed across the campaign.
    pub failed_chains: usize,
    /// Recovery-ladder actions pooled over the campaign's chains.
    pub recovery_tallies: RecoveryTallies,
}

/// One campaign's routing state while its jobs are in flight.
struct Campaign {
    tag: u64,
    chains: usize,
    /// Selected grid points, canonical order.
    points: Vec<GridPoint>,
    /// `points.len() * chains` outcome slots, selected-point-major.
    slots: Vec<Option<ChainOutcome>>,
    /// Chains still in flight per selected point.
    remaining: Vec<usize>,
    /// Summaries of finished points (selected order).
    summaries: Vec<Option<PointSummary>>,
    tallies: RecoveryTallies,
    failed_chains: usize,
    points_left: usize,
    observer: Option<Arc<PointObserver>>,
    cell: Arc<CampaignCell>,
}

/// The completion cell a [`CampaignHandle`] waits on.
struct CampaignCell {
    done: Mutex<Option<CampaignOutcome>>,
    cv: Condvar,
}

/// Handle to a submitted campaign.
pub struct CampaignHandle {
    /// The campaign's routing tag (diagnostics).
    pub tag: u64,
    /// Jobs the campaign enqueued.
    pub jobs: usize,
    /// Points the campaign covers.
    pub points: usize,
    cell: Arc<CampaignCell>,
}

impl CampaignHandle {
    /// Blocks until every job of the campaign has completed or failed.
    pub fn wait(self) -> CampaignOutcome {
        let mut d = relock(self.cell.done.lock());
        loop {
            if let Some(out) = d.take() {
                return out;
            }
            d = relock(self.cell.cv.wait(d));
        }
    }
}

/// Shared state of a running service; workers and handles hold it in an
/// [`Arc`]. The worker loop ([`crate::runner`]) reads the pools and the
/// config from here and delivers every outcome through
/// [`ServiceCore::record`].
pub(crate) struct ServiceCore {
    pub(crate) queue: JobQueue,
    pub(crate) pool: Option<DevicePool>,
    pub(crate) cfg: SchedConfig,
    pub(crate) events: EventLog,
    pub(crate) panics_caught: AtomicU64,
    /// In-flight campaigns. A `Vec` scanned linearly, not a map: the
    /// registry holds tens of campaigns, and a Vec keeps iteration order
    /// deterministic by construction.
    campaigns: Mutex<Vec<Campaign>>,
    next_tag: AtomicU64,
    jobs_submitted: AtomicU64,
    campaigns_completed: AtomicU64,
}

impl ServiceCore {
    /// Routes one job's outcomes — one per covered chain in chain order,
    /// or `None` for a job that failed as a unit — into its campaign;
    /// pools the point when its last chain lands and completes the
    /// campaign when its last point does. Workers race only for *which*
    /// call runs next, never for what a given (point, chain) receives.
    /// The campaign lock covers only slot writes and the summarisation —
    /// observer callbacks and completion signalling run after it is
    /// released.
    pub(crate) fn record(&self, job: &SweepJob, outcomes: Option<Vec<ChainOutcome>>) {
        let mut finished_point: Option<(PointSummary, Option<Arc<PointObserver>>)> = None;
        let mut finished_campaign: Option<(Arc<CampaignCell>, CampaignOutcome)> = None;
        {
            let mut cs = relock(self.campaigns.lock());
            let Some(idx) = cs.iter().position(|c| c.tag == job.tag) else {
                // A tag with no campaign means a routing bug; outcomes
                // are dropped rather than crossing tenants.
                return;
            };
            let c = &mut cs[idx];
            let Some(pos) = c.points.iter().position(|p| p.index == job.point) else {
                return;
            };
            let base = pos * c.chains + job.chain;
            match outcomes {
                Some(outs) => {
                    for (i, o) in outs.into_iter().enumerate() {
                        c.slots[base + i] = Some(o);
                    }
                }
                None => {
                    for i in 0..job.width {
                        c.slots[base + i] = Some(ChainOutcome::failed_slot(job, i));
                    }
                }
            }
            c.remaining[pos] = c.remaining[pos].saturating_sub(job.width);
            if c.remaining[pos] == 0 {
                let (summary, tallies) = summarize_point(
                    &c.points[pos],
                    &c.slots[pos * c.chains..(pos + 1) * c.chains],
                );
                c.failed_chains += summary.chains_failed;
                c.tallies.merge(&tallies);
                c.summaries[pos] = Some(summary.clone());
                c.points_left -= 1;
                finished_point = Some((summary, c.observer.clone()));
                if c.points_left == 0 {
                    let done = cs.swap_remove(idx);
                    let outcome = CampaignOutcome {
                        points: done.summaries.into_iter().flatten().collect(),
                        failed_chains: done.failed_chains,
                        recovery_tallies: done.tallies,
                    };
                    finished_campaign = Some((done.cell, outcome));
                }
            }
        }
        if let Some((summary, Some(obs))) = finished_point {
            obs(&summary);
        }
        if let Some((cell, outcome)) = finished_campaign {
            self.campaigns_completed.fetch_add(1, Ordering::Relaxed);
            let mut d = relock(cell.done.lock());
            *d = Some(outcome);
            drop(d);
            cell.cv.notify_all();
        }
    }
}

/// The service: start once, submit many campaigns, drop (or
/// [`SweepService::shutdown`]) to drain and join.
pub struct SweepService {
    pub(crate) core: Arc<ServiceCore>,
    workers: Vec<JoinHandle<()>>,
}

impl SweepService {
    /// Starts a resident worker pool (and device pool, when configured)
    /// with its own trace stream.
    pub fn start(cfg: &ServiceConfig) -> SweepService {
        let bound = if cfg.queue_bound == 0 {
            DEFAULT_QUEUE_BOUND
        } else {
            cfg.queue_bound
        };
        SweepService::start_on(cfg, bound, EventLog::new())
    }

    /// Starts the pools on a queue of `bound` outstanding jobs, tracing
    /// into `events` — [`crate::run_sweep`] passes its grid's size and its
    /// caller's log.
    pub(crate) fn start_on(cfg: &SchedConfig, bound: usize, events: EventLog) -> SweepService {
        let cfg = SchedConfig {
            workers: cfg.workers.max(1),
            ..cfg.clone()
        };
        let pool =
            (cfg.devices > 0).then(|| DevicePool::new(DeviceSpec::tesla_c2050(), cfg.devices));
        let core = Arc::new(ServiceCore {
            queue: JobQueue::new(bound),
            pool,
            events,
            panics_caught: AtomicU64::new(0),
            campaigns: Mutex::new(Vec::new()),
            next_tag: AtomicU64::new(cfg.tag_namespace << 32),
            jobs_submitted: AtomicU64::new(0),
            campaigns_completed: AtomicU64::new(0),
            cfg,
        });
        let workers = (0..core.cfg.workers)
            .map(|w| {
                let core = Arc::clone(&core);
                std::thread::spawn(move || worker_loop(w, &core))
            })
            .collect();
        SweepService { core, workers }
    }

    /// Submits a campaign. Admission is atomic: either every job of the
    /// selection is enqueued or none are. `observer`, when given, sees
    /// each point's summary the moment it completes.
    pub fn submit(
        &self,
        req: &CampaignRequest,
        observer: Option<Arc<PointObserver>>,
    ) -> Result<CampaignHandle, SubmitError> {
        if !req.spec.slot_faults.is_empty() {
            return Err(SubmitError::SlotFaultsUnsupported);
        }
        self.admit(&req.spec, req.priority, req.points.as_deref(), observer)
    }

    /// [`SweepService::submit`] without the tenant-facing `slot_faults`
    /// refusal: [`crate::run_sweep`] owns its device pool and has already
    /// set the grid's slot profiles on it.
    pub(crate) fn admit(
        &self,
        spec: &GridSpec,
        priority: u8,
        points: Option<&[usize]>,
        observer: Option<Arc<PointObserver>>,
    ) -> Result<CampaignHandle, SubmitError> {
        let grid_points = spec.points();
        let selected: Vec<GridPoint> = match points {
            None => grid_points,
            Some(idx) => {
                let mut wanted = idx.to_vec();
                wanted.sort_unstable();
                wanted.dedup();
                let mut sel = Vec::with_capacity(wanted.len());
                for i in wanted {
                    match grid_points.get(i) {
                        Some(p) => sel.push(*p),
                        None => {
                            return Err(SubmitError::UnknownPoint {
                                index: i,
                                points: grid_points.len(),
                            })
                        }
                    }
                }
                sel
            }
        };
        if selected.is_empty() {
            return Err(SubmitError::EmptySelection);
        }

        let tag = self.core.next_tag.fetch_add(1, Ordering::Relaxed) + 1;
        let crowd = spec.crowd.max(1);
        let mut jobs = Vec::new();
        for point in &selected {
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
                    .with_priority(priority)
                    .with_tag(tag)
                    .with_crowd(extra);
                jobs.push(job);
                chain += width;
            }
        }
        let njobs = jobs.len();

        let cell = Arc::new(CampaignCell {
            done: Mutex::new(None),
            cv: Condvar::new(),
        });
        let npoints = selected.len();
        let campaign = Campaign {
            tag,
            chains: spec.chains,
            slots: (0..npoints * spec.chains).map(|_| None).collect(),
            remaining: vec![spec.chains; npoints],
            summaries: vec![None; npoints],
            points: selected,
            tallies: RecoveryTallies::default(),
            failed_chains: 0,
            points_left: npoints,
            observer,
            cell: Arc::clone(&cell),
        };
        // Register before enqueueing: a job cannot finish before it is
        // routable. The registration is rolled back if admission fails.
        {
            let mut cs = relock(self.core.campaigns.lock());
            cs.push(campaign);
        }
        if let Err(e) = self.core.queue.submit_batch(jobs) {
            let mut cs = relock(self.core.campaigns.lock());
            if let Some(i) = cs.iter().position(|c| c.tag == tag) {
                cs.swap_remove(i);
            }
            drop(cs);
            return Err(SubmitError::Queue(e));
        }
        self.core
            .jobs_submitted
            .fetch_add(njobs as u64, Ordering::Relaxed);
        Ok(CampaignHandle {
            tag,
            jobs: njobs,
            points: npoints,
            cell,
        })
    }

    /// Jobs enqueued since the service started — the counter the cache
    /// tests watch to prove a warm hit enqueues nothing.
    pub fn jobs_submitted(&self) -> u64 {
        self.core.jobs_submitted.load(Ordering::Relaxed)
    }

    /// Campaigns fully completed since start.
    pub fn campaigns_completed(&self) -> u64 {
        self.core.campaigns_completed.load(Ordering::Relaxed)
    }

    /// Campaigns currently in flight.
    pub fn active_campaigns(&self) -> usize {
        relock(self.core.campaigns.lock()).len()
    }

    /// Panics caught by the worker backstop since start.
    pub fn panics_caught(&self) -> u64 {
        self.core.panics_caught.load(Ordering::Relaxed)
    }

    /// The service's trace stream (shared, clone-cheap).
    pub fn events(&self) -> EventLog {
        self.core.events.clone()
    }

    /// Closes admission, drains every outstanding job, and joins the
    /// workers. Dropping the service does the same.
    pub fn shutdown(self) {}
}

impl Drop for SweepService {
    fn drop(&mut self) {
        self.core.queue.close();
        for h in self.workers.drain(..) {
            // A worker that panicked already counted itself; shutdown
            // must not double the damage by propagating.
            let _ = h.join();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const GRID: &str = "
        lx = 2
        ly = 2
        u = 2.0, 4.0
        beta = 1.0
        chains = 2
        warmup = 2
        sweeps = 4
        bin_size = 2
        cluster_size = 4
        seed = 11
    ";

    fn spec() -> GridSpec {
        GridSpec::parse(GRID).expect("grid parses")
    }

    fn baseline() -> String {
        let cfg = SchedConfig::default();
        crate::run_sweep(&spec(), &cfg, &EventLog::new()).observables_json()
    }

    #[test]
    fn service_campaign_matches_one_shot_sweep() {
        let service = SweepService::start(&ServiceConfig {
            workers: 2,
            devices: 1,
            quantum: 2,
            ..ServiceConfig::default()
        });
        let req = CampaignRequest {
            spec: spec(),
            priority: 1,
            points: None,
        };
        let handle = service.submit(&req, None).expect("submit");
        assert_eq!(handle.points, 2);
        let out = handle.wait();
        assert_eq!(out.failed_chains, 0);
        let s = spec();
        let json =
            crate::report::observables_json_for(s.seed, s.chains, s.warmup, s.sweeps, &out.points);
        assert_eq!(json, baseline());
        assert_eq!(service.campaigns_completed(), 1);
        assert_eq!(service.active_campaigns(), 0);
        service.shutdown();
    }

    #[test]
    fn point_subsets_keep_canonical_bytes() {
        let service = SweepService::start(&ServiceConfig::default());
        let req = CampaignRequest {
            spec: spec(),
            priority: 0,
            points: Some(vec![1]),
        };
        let out = service.submit(&req, None).expect("submit").wait();
        assert_eq!(out.points.len(), 1);
        let full = CampaignRequest {
            spec: spec(),
            priority: 0,
            points: None,
        };
        let all = service.submit(&full, None).expect("submit").wait();
        assert_eq!(
            out.points[0].observables_json(),
            all.points[1].observables_json(),
            "a subset campaign must reproduce the full sweep's bytes"
        );
    }

    #[test]
    fn observers_see_every_point_once() {
        use std::sync::atomic::AtomicUsize;
        let service = SweepService::start(&ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        });
        let seen = Arc::new(AtomicUsize::new(0));
        let seen2 = Arc::clone(&seen);
        let req = CampaignRequest {
            spec: spec(),
            priority: 0,
            points: None,
        };
        let obs: Arc<PointObserver> = Arc::new(move |p: &PointSummary| {
            assert!(p.chains_ok > 0);
            seen2.fetch_add(1, Ordering::SeqCst);
        });
        let out = service.submit(&req, Some(obs)).expect("submit").wait();
        assert_eq!(out.points.len(), 2);
        assert_eq!(seen.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn bad_selections_are_refused() {
        let service = SweepService::start(&ServiceConfig::default());
        let unknown = CampaignRequest {
            spec: spec(),
            priority: 0,
            points: Some(vec![7]),
        };
        assert!(matches!(
            service.submit(&unknown, None),
            Err(SubmitError::UnknownPoint {
                index: 7,
                points: 2
            })
        ));
        let empty = CampaignRequest {
            spec: spec(),
            priority: 0,
            points: Some(Vec::new()),
        };
        assert!(matches!(
            service.submit(&empty, None),
            Err(SubmitError::EmptySelection)
        ));
        assert_eq!(service.jobs_submitted(), 0);
    }

    #[test]
    fn oversized_campaigns_are_refused_whole() {
        let service = SweepService::start(&ServiceConfig {
            queue_bound: 3,
            ..ServiceConfig::default()
        });
        let req = CampaignRequest {
            spec: spec(), // 2 points x 2 chains = 4 jobs > bound 3
            priority: 0,
            points: None,
        };
        assert!(matches!(
            service.submit(&req, None),
            Err(SubmitError::Queue(AdmitError::Full { bound: 3, want: 4 }))
        ));
        assert_eq!(service.jobs_submitted(), 0);
        assert_eq!(service.active_campaigns(), 0, "rollback on refusal");
        // A subset that fits is admitted and completes.
        let sub = CampaignRequest {
            spec: spec(),
            priority: 0,
            points: Some(vec![0]),
        };
        let out = service.submit(&sub, None).expect("submit").wait();
        assert_eq!(out.points.len(), 1);
    }
}
