//! Bounded priority work queue of sweep jobs.
//!
//! Jobs pop highest-priority-first, FIFO within a priority class (a
//! monotonic sequence number breaks ties, and a *re*-queued job draws a new
//! number, so equal-priority jobs round-robin under cooperative yielding
//! rather than starving each other). The queue is bounded at construction;
//! [`JobQueue::submit_batch`] admits a campaign's jobs all-or-nothing
//! against the bound. Because every heap entry is an *outstanding* job and
//! outstanding jobs never exceed the bound, the requeue path — which runs
//! on every preemption — can never overflow the capacity reserved up
//! front, so the hot pop/requeue paths are allocation-free (enforced by
//! the `deny_hot_alloc` lint tag below).
//!
//! Termination is *closed and drained*: a worker blocks while the heap is
//! empty — a running job may yet yield back in, and until
//! [`JobQueue::close`] another campaign may arrive — and observes `None`
//! only once the queue is closed *and* the last outstanding job has
//! completed. A one-shot sweep is the same queue closed as soon as its
//! only campaign has been waited for — so `close` races the last
//! `complete` on every sweep, and whichever comes second wakes the parked
//! workers.

#![cfg_attr(any(), deny_hot_alloc)]

use dqmc::SimParams;
use gpusim::FaultPlan;
use std::collections::BinaryHeap;
// Poison recovery via util::relock is sound here: queue invariants
// (`outstanding`, the heap) are each updated in a single short critical
// section with no partially applied state, so data behind a poisoned lock
// is still consistent — a worker that panicked mid-`push` never got the
// lock in the first place, and one that panicked *holding* it had already
// finished the mutation. Recovering keeps the whole scheduler alive
// through one worker's death — the chaos tier's first requirement.
use util::sync::{relock, Condvar, Mutex};

/// One schedulable unit: a *crowd* of `width` consecutive Markov chains of
/// a single grid point, stepped in lockstep on one placement by one driver
/// whatever the width. The walkers' wrap and cluster kernels go through
/// strided-batch device calls, so each device lease services `width`
/// walkers per launch.
#[derive(Debug)]
pub struct SweepJob {
    /// Grid point index (the seed hash-split's stream id).
    pub point: usize,
    /// First chain index covered by this job; the job spans chains
    /// `chain..chain + width`.
    pub chain: usize,
    /// Walkers batched in this job (`1 + extra_params.len()`).
    pub width: usize,
    /// Scheduling class; higher pops first and preempts lower.
    pub priority: u8,
    /// Full simulation parameters of the base chain (seed already
    /// hash-split).
    pub params: SimParams,
    /// Parameters of the crowd's remaining walkers, chains
    /// `chain + 1..chain + width`, each with its own hash-split seed.
    pub extra_params: Vec<SimParams>,
    /// Scripted device faults to arm when the job lands on a device.
    pub fault_plan: Option<FaultPlan>,
    /// Parked `DQCW` image (one `DQCP` image per walker) from the last
    /// yield; `None` for a fresh start.
    pub checkpoint: Option<Vec<u8>>,
    /// Scheduler-level restarts consumed (panic recovery).
    pub attempts: u32,
    /// Times this job was preempted (diagnostics).
    pub preemptions: u32,
    /// Quanta executed on a leased device.
    pub device_quanta: u64,
    /// Quanta executed on the host backend.
    pub host_quanta: u64,
    /// Modeled device-seconds accumulated across placements (each lease
    /// starts a fresh simulated clock; parks fold it in here).
    pub device_seconds: f64,
    /// Device-pool slots this job must not be placed on again (each slot
    /// that failed it with a `DeviceSick`-class error).
    pub excluded_slots: Vec<usize>,
    /// Tag of the campaign this job belongs to; its outcome is routed to
    /// that campaign's slot vector. A one-shot sweep is one campaign, so
    /// its jobs carry a tag too (`0` only on a job built by hand).
    pub tag: u64,
}

impl SweepJob {
    /// A fresh job for (point, chain) at the default priority.
    // dqmc-lint: allow(hot_alloc) — job construction is sweep setup, and
    // `Vec::new` is capacity-zero (no heap touch until a slot is excluded).
    pub fn new(point: usize, chain: usize, params: SimParams) -> Self {
        SweepJob {
            point,
            chain,
            width: 1,
            priority: 0,
            params,
            extra_params: Vec::new(),
            fault_plan: None,
            checkpoint: None,
            attempts: 0,
            preemptions: 0,
            device_quanta: 0,
            host_quanta: 0,
            device_seconds: 0.0,
            excluded_slots: Vec::new(),
            tag: 0,
        }
    }

    /// Sets the scheduling class.
    pub fn with_priority(mut self, priority: u8) -> Self {
        self.priority = priority;
        self
    }

    /// Tags the job with the campaign it belongs to.
    pub fn with_tag(mut self, tag: u64) -> Self {
        self.tag = tag;
        self
    }

    /// Arms a scripted fault plan for device placements.
    pub fn with_fault_plan(mut self, plan: Option<FaultPlan>) -> Self {
        self.fault_plan = plan;
        self
    }

    /// Widens the job into a crowd: `extra` holds the parameters of the
    /// walkers for chains `chain + 1..`, each with its own hash-split seed.
    // dqmc-lint: allow(hot_alloc) — crowd construction is sweep setup.
    pub fn with_crowd(mut self, extra: Vec<SimParams>) -> Self {
        self.width = 1 + extra.len();
        self.extra_params = extra;
        self
    }

    /// All walker parameters in chain order (base chain first) — the list
    /// `dqmc::Crowd::new` / `Crowd::resume_bytes` consume.
    // dqmc-lint: allow(hot_alloc) — runs at job placement, not per sweep.
    pub fn crowd_params(&self) -> Vec<SimParams> {
        let mut all = Vec::with_capacity(self.width);
        all.push(self.params.clone());
        all.extend(self.extra_params.iter().cloned());
        all
    }
}

#[derive(Debug)]
struct Entry {
    priority: u8,
    seq: u64,
    job: SweepJob,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.priority == other.priority && self.seq == other.seq
    }
}

impl Eq for Entry {}

impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Entry {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Max-heap: higher priority first, then *lower* seq (older) first.
        self.priority
            .cmp(&other.priority)
            .then(other.seq.cmp(&self.seq))
    }
}

/// Error from [`JobQueue::submit_batch`]: the whole batch was refused.
#[derive(Debug)]
pub enum AdmitError {
    /// Admitting the batch would push `outstanding` past the bound. The
    /// all-or-nothing refusal is the fair-admission primitive: a campaign
    /// too large for the remaining capacity cannot squat part of it and
    /// starve smaller tenants into deadlock.
    Full {
        /// The configured bound.
        bound: usize,
        /// Jobs the refused batch asked for.
        want: usize,
    },
    /// The queue was closed for new work ([`JobQueue::close`]).
    Closed,
}

impl std::fmt::Display for AdmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            AdmitError::Full { bound, want } => {
                write!(f, "batch of {want} refused: job queue bound is {bound}")
            }
            AdmitError::Closed => write!(f, "job queue is closed"),
        }
    }
}

impl std::error::Error for AdmitError {}

#[derive(Debug)]
struct QueueState {
    heap: BinaryHeap<Entry>,
    next_seq: u64,
    /// Jobs submitted and not yet completed/failed (running jobs included).
    outstanding: usize,
    /// Set by [`JobQueue::close`]; pops return `None` only once closed
    /// *and* drained.
    closed: bool,
}

/// The shared bounded priority queue.
#[derive(Debug)]
pub struct JobQueue {
    state: Mutex<QueueState>,
    cv: Condvar,
    bound: usize,
}

impl JobQueue {
    /// An empty, open queue refusing more than `bound` outstanding jobs.
    /// While it is empty pops block: more campaigns may arrive until
    /// [`JobQueue::close`].
    // dqmc-lint: allow(hot_alloc) — one-time construction; the heap is
    // sized here so pushes on the scheduling path never reallocate.
    pub fn new(bound: usize) -> Self {
        JobQueue {
            state: Mutex::new(QueueState {
                heap: BinaryHeap::with_capacity(bound),
                next_seq: 0,
                outstanding: 0,
                closed: false,
            }),
            cv: Condvar::new(),
            bound,
        }
    }

    /// Atomically admits a whole campaign's batch: either every job is
    /// admitted or none are. Refusal never partially consumes capacity,
    /// so concurrent tenants racing for the tail of the bound cannot
    /// strand each other's half-admitted campaigns. Batches may arrive
    /// while workers run (late campaigns / priority cut-ins).
    pub fn submit_batch(&self, jobs: Vec<SweepJob>) -> Result<(), AdmitError> {
        let mut s = relock(self.state.lock());
        if s.closed {
            return Err(AdmitError::Closed);
        }
        if s.outstanding + jobs.len() > self.bound {
            return Err(AdmitError::Full {
                bound: self.bound,
                want: jobs.len(),
            });
        }
        for job in jobs {
            s.outstanding += 1;
            let seq = s.next_seq;
            s.next_seq += 1;
            s.heap.push(Entry {
                priority: job.priority,
                seq,
                job,
            });
        }
        drop(s);
        self.cv.notify_all();
        Ok(())
    }

    /// Closes the queue for new work: [`JobQueue::submit_batch`] refuses
    /// from now on, outstanding jobs drain normally, and once the last
    /// one completes pops return `None` — the shutdown sequence
    /// of a service and the tail of every one-shot sweep. Idempotent.
    pub fn close(&self) {
        let mut s = relock(self.state.lock());
        s.closed = true;
        drop(s);
        self.cv.notify_all();
    }

    /// Returns a yielded job to the queue. The job is still outstanding, so
    /// capacity is guaranteed; it draws a fresh sequence number and goes
    /// behind its priority class.
    pub fn requeue(&self, job: SweepJob) {
        let mut s = relock(self.state.lock());
        debug_assert!(s.outstanding > 0, "requeue of a non-outstanding job");
        let seq = s.next_seq;
        s.next_seq += 1;
        s.heap.push(Entry {
            priority: job.priority,
            seq,
            job,
        });
        drop(s);
        self.cv.notify_one();
    }

    /// Marks one popped job as finished (completed or permanently failed),
    /// releasing its capacity slot. The last completion wakes every blocked
    /// worker so they can observe termination.
    pub fn complete(&self) {
        let mut s = relock(self.state.lock());
        s.outstanding = s.outstanding.saturating_sub(1);
        let done = s.outstanding == 0;
        drop(s);
        if done {
            self.cv.notify_all();
        }
    }

    /// Pops the highest-priority job, blocking while the queue is empty but
    /// jobs are still outstanding or the queue is still open. `None` means
    /// closed *and* drained.
    pub fn pop_blocking(&self) -> Option<SweepJob> {
        let mut s = relock(self.state.lock());
        loop {
            if let Some(e) = s.heap.pop() {
                return Some(e.job);
            }
            if s.outstanding == 0 && s.closed {
                return None;
            }
            s = relock(self.cv.wait(s));
        }
    }

    /// True when a job with priority strictly above `p` is waiting — the
    /// preemption check run by workers at every quantum boundary.
    pub fn waiting_priority_above(&self, p: u8) -> bool {
        relock(self.state.lock())
            .heap
            .peek()
            .is_some_and(|e| e.priority > p)
    }

    /// Jobs currently waiting in the queue (excludes running ones).
    pub fn waiting(&self) -> usize {
        relock(self.state.lock()).heap.len()
    }

    /// Poisons the state mutex by panicking while holding it — the
    /// regression hook for the poison-recovery tests (release builds
    /// included: the chaos CI tier runs `--release`). Panicking is the
    /// whole point here.
    // dqmc-lint: allow(panic_site)
    #[cfg(test)]
    pub(crate) fn poison_for_test(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = relock(self.state.lock());
            panic!("poisoning job queue for test");
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqmc::ModelParams;
    use lattice::Lattice;

    fn job(point: usize, chain: usize, priority: u8) -> SweepJob {
        let model = ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 4);
        SweepJob::new(point, chain, SimParams::new(model)).with_priority(priority)
    }

    #[test]
    fn pops_by_priority_then_fifo() {
        let q = JobQueue::new(8);
        q.submit_batch(vec![job(0, 0, 0), job(1, 0, 0), job(2, 0, 1), job(3, 0, 0)])
            .unwrap();
        q.close();
        let order: Vec<usize> = (0..4)
            .map(|_| {
                let j = q.pop_blocking().unwrap();
                q.complete();
                j.point
            })
            .collect();
        assert_eq!(order, vec![2, 0, 1, 3]);
        assert!(q.pop_blocking().is_none());
    }

    #[test]
    fn requeued_jobs_round_robin_within_class() {
        let q = JobQueue::new(4);
        q.submit_batch(vec![job(0, 0, 0), job(1, 0, 0)]).unwrap();
        let a = q.pop_blocking().unwrap();
        assert_eq!(a.point, 0);
        q.requeue(a); // fresh seq: goes behind point 1
        let b = q.pop_blocking().unwrap();
        assert_eq!(b.point, 1);
        q.complete();
        let a2 = q.pop_blocking().unwrap();
        assert_eq!(a2.point, 0);
        q.complete();
    }

    #[test]
    fn bound_is_enforced_for_new_submissions() {
        let q = JobQueue::new(2);
        q.submit_batch(vec![job(0, 0, 0), job(1, 0, 0)]).unwrap();
        let err = q.submit_batch(vec![job(2, 0, 0)]).unwrap_err();
        assert!(matches!(err, AdmitError::Full { bound: 2, want: 1 }));
        // Popping alone frees nothing — completion does.
        let j = q.pop_blocking().unwrap();
        assert!(q.submit_batch(vec![job(2, 0, 0)]).is_err());
        drop(j);
        q.complete();
        q.submit_batch(vec![job(2, 0, 0)]).unwrap();
    }

    #[test]
    fn preemption_probe_sees_higher_waiters_only() {
        let q = JobQueue::new(4);
        q.submit_batch(vec![job(0, 0, 0)]).unwrap();
        assert!(!q.waiting_priority_above(0));
        assert!(q.waiting_priority_above(0) || q.waiting() == 1);
        q.submit_batch(vec![job(1, 0, 2)]).unwrap();
        assert!(q.waiting_priority_above(0));
        assert!(q.waiting_priority_above(1));
        assert!(!q.waiting_priority_above(2));
    }

    #[test]
    fn queue_survives_poisoning_panic() {
        let q = JobQueue::new(4);
        q.submit_batch(vec![job(0, 0, 0)]).unwrap();
        // A worker dies while holding the state lock; the mutex is now
        // poisoned. Every queue operation must recover, not propagate.
        q.poison_for_test();
        q.submit_batch(vec![job(1, 0, 1)]).unwrap();
        assert_eq!(q.waiting(), 2);
        assert!(q.waiting_priority_above(0));
        let j = q.pop_blocking().unwrap();
        assert_eq!(j.point, 1, "priority order intact after poisoning");
        q.requeue(j);
        q.complete();
        q.complete();
        // Both capacity slots released; the heap still holds two entries
        // that will never pop (the sweep is over), but no lock panicked.
        assert!(q.submit_batch(vec![job(2, 0, 0)]).is_ok());
    }

    #[test]
    fn new_jobs_carry_clean_health_state() {
        let j = job(0, 0, 0);
        assert!(j.excluded_slots.is_empty());
    }

    #[test]
    fn resident_queue_parks_instead_of_draining() {
        // Empty and nothing outstanding, but open: another campaign may
        // arrive, so an idle worker parks instead of seeing termination,
        // and the next batch wakes it.
        let q = std::sync::Arc::new(JobQueue::new(4));
        let q2 = std::sync::Arc::clone(&q);
        let worker = std::thread::spawn(move || q2.pop_blocking().map(|j| j.point));
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.submit_batch(vec![job(3, 0, 0)]).unwrap();
        assert_eq!(worker.join().unwrap(), Some(3), "parked, not drained");
        q.complete();
        q.close();
        assert!(q.pop_blocking().is_none());
    }

    #[test]
    fn close_drains_outstanding_work_first() {
        let q = JobQueue::new(4);
        q.submit_batch(vec![job(0, 0, 0)]).unwrap();
        q.close();
        // Closed but not drained: the queued job must still pop, and
        // termination waits for its completion (a worker blocked in that
        // window is `drained_queue_unblocks_all_workers`).
        let j = q.pop_blocking().expect("the queued job pops after close");
        assert_eq!(j.point, 0);
        q.complete();
        assert!(q.pop_blocking().is_none());
    }

    #[test]
    fn batch_admission_is_all_or_nothing() {
        let q = JobQueue::new(3);
        q.submit_batch(vec![job(0, 0, 0), job(0, 1, 0)]).unwrap();
        // Two slots taken, batch of two refused — and nothing admitted.
        let err = q
            .submit_batch(vec![job(1, 0, 0), job(1, 1, 0)])
            .unwrap_err();
        match err {
            AdmitError::Full { bound, want } => {
                assert_eq!((bound, want), (3, 2));
            }
            other => panic!("expected Full, got {other:?}"),
        }
        assert_eq!(q.waiting(), 2);
        // A batch that fits the remaining slot is admitted.
        q.submit_batch(vec![job(1, 0, 0)]).unwrap();
        assert_eq!(q.waiting(), 3);
    }

    #[test]
    fn closed_queue_refuses_batches() {
        let q = JobQueue::new(4);
        q.close();
        assert!(matches!(
            q.submit_batch(vec![job(0, 0, 0)]),
            Err(AdmitError::Closed)
        ));
    }

    #[test]
    fn tags_ride_through_the_queue() {
        let q = JobQueue::new(2);
        q.submit_batch(vec![job(0, 0, 0).with_tag(17)]).unwrap();
        let j = q.pop_blocking().unwrap();
        assert_eq!(j.tag, 17);
        q.complete();
    }

    #[test]
    fn drained_queue_unblocks_all_workers() {
        let q = std::sync::Arc::new(JobQueue::new(2));
        q.submit_batch(vec![job(0, 0, 0)]).unwrap();
        q.close();
        // Pop before spawning so the helper thread can only ever see an
        // empty heap with one outstanding job — it must block, not race us
        // for the job.
        let j = q.pop_blocking().unwrap();
        drop(j);
        let q2 = std::sync::Arc::clone(&q);
        let t = std::thread::spawn(move || {
            // Blocks until the main thread completes the outstanding job.
            q2.pop_blocking().is_none()
        });
        std::thread::sleep(std::time::Duration::from_millis(20));
        q.complete();
        assert!(t.join().unwrap(), "blocked worker must see termination");
    }
}
