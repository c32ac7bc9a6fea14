//! Loom models of the scheduler's two lock-bearing protocols.
//!
//! Compiled only under `RUSTFLAGS="--cfg loom"`; in that configuration
//! `util::sync` swaps its `Mutex`/`Condvar` onto the loom shim's
//! schedule-perturbing wrappers, so the bodies below drive the
//! *production* `JobQueue` / `DevicePool` code — not a
//! re-model of it — under hundreds of perturbed interleavings per test
//! (`loom::model` reseeds the perturbator each iteration; see
//! `shims/loom`).
//!
//! Each model checks the invariant the surrounding scheduler depends on:
//!
//! - queue: every submitted job completes exactly once through the
//!   pop → requeue → pop → complete cycle, and termination (`None`) is
//!   observed by *every* worker only after the last completion, wherever
//!   `close()` lands among the pops, requeues and completions — the
//!   two-phase-drain contract of every sweep, since a one-shot sweep
//!   closes its queue while its workers drain it.
//! - pool: leases are mutually exclusive per slot, slots return on drop,
//!   and the quarantine → probation-probe → readmission cycle grants
//!   exactly one probe no matter how many workers race for it.

#![cfg(loom)]

use dqmc::{ModelParams, SimParams};
use gpusim::{DevicePool, DeviceSpec, HealthDecision};
use lattice::Lattice;
use sched::{JobQueue, SweepJob};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;

fn job(point: usize) -> SweepJob {
    let model = ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 4);
    SweepJob::new(point, 0, SimParams::new(model))
}

/// A worker turn: requeue the job on its first pop (a simulated preemption
/// yield), complete it on the second. Returns `true` when it completed.
fn work_one(q: &JobQueue, mut j: SweepJob) -> bool {
    if j.preemptions == 0 {
        j.preemptions = 1;
        q.requeue(j);
        false
    } else {
        q.complete();
        true
    }
}

#[test]
fn queue_two_phase_drain_completes_every_job_and_unblocks_all_workers() {
    loom::model(|| {
        let q = Arc::new(JobQueue::new(3));
        let completed = Arc::new(AtomicUsize::new(0));
        q.submit_batch((0..3).map(job).collect())
            .expect("bound holds the full batch");

        // Both workers drain as the production runner does, on the blocking
        // pop: None only once closed with nothing outstanding.
        let worker = || {
            let (q, done) = (Arc::clone(&q), Arc::clone(&completed));
            loom::thread::spawn(move || {
                while let Some(j) = q.pop_blocking() {
                    if work_one(&q, j) {
                        done.fetch_add(1, Ordering::Relaxed);
                    }
                }
            })
        };
        let (a, b) = (worker(), worker());

        // The closer races every pop, requeue and the last completion: a
        // close() that lands after it must wake the parked workers itself.
        let qc = Arc::clone(&q);
        let c = loom::thread::spawn(move || qc.close());

        // Liveness: whichever of close() and the last complete() comes
        // second must broadcast termination to the blocked peer — a lost
        // wakeup hangs the joins right here.
        a.join().expect("worker A exits");
        b.join().expect("worker B exits");
        c.join().expect("closer exits");
        assert_eq!(completed.load(Ordering::Relaxed), 3, "each job once");
        assert_eq!(q.waiting(), 0);
        assert!(q.pop_blocking().is_none());
    });
}

#[test]
fn pool_leases_stay_exclusive_and_return_on_drop() {
    loom::model(|| {
        let pool = DevicePool::new(DeviceSpec::tesla_c2050(), 2);
        let busy: Arc<[AtomicBool; 2]> = Arc::new([AtomicBool::new(false), AtomicBool::new(false)]);
        let workers: Vec<_> = (0..3)
            .map(|_| {
                let (pool, busy) = (pool.clone(), Arc::clone(&busy));
                loom::thread::spawn(move || {
                    for _ in 0..2 {
                        if let Some(lease) = pool.try_lease_excluding(&[]) {
                            let was = busy[lease.slot()].swap(true, Ordering::SeqCst);
                            assert!(!was, "slot {} double-leased", lease.slot());
                            loom::thread::yield_now();
                            // Clear before drop: after drop the slot is
                            // leasable again and a peer may assert on it.
                            busy[lease.slot()].store(false, Ordering::SeqCst);
                            drop(lease);
                        } else {
                            loom::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        for w in workers {
            w.join().expect("lease worker exits");
        }
        assert_eq!(pool.available(), 2, "every slot returned on drop");
    });
}

#[test]
fn pool_quarantine_grants_one_probe_and_readmits_under_racing_leasers() {
    loom::model(|| {
        // The product breaker: the third sick report opens it.
        let pool = DevicePool::new(DeviceSpec::tesla_c2050(), 1);
        for _ in 0..2 {
            assert_eq!(pool.report_failure(0, true), HealthDecision::None);
        }
        assert!(matches!(
            pool.report_failure(0, true),
            HealthDecision::Opened { .. }
        ));

        // Two workers race the quarantined slot. The state machine must
        // hand out exactly one probation probe; the loser's grant comes
        // only after the winner's success report re-admits the slot.
        let workers: Vec<_> = (0..2)
            .map(|_| {
                let pool = pool.clone();
                loom::thread::spawn(move || loop {
                    let Some(lease) = pool.try_lease_excluding(&[]) else {
                        loom::thread::yield_now();
                        continue;
                    };
                    let probe = lease.is_probe();
                    drop(lease);
                    if probe {
                        assert_eq!(
                            pool.report_success(0),
                            HealthDecision::Readmitted { slot: 0 }
                        );
                    } else {
                        assert_eq!(
                            pool.readmissions(),
                            1,
                            "healthy grant must follow the readmission"
                        );
                    }
                    return probe;
                })
            })
            .collect();
        let probes_won: usize = workers
            .into_iter()
            .map(|w| usize::from(w.join().expect("prober exits")))
            .sum();
        assert_eq!(probes_won, 1, "exactly one worker held the probe");
        assert_eq!((pool.probes(), pool.readmissions()), (1, 1));
        assert_eq!(pool.quarantines(), 1, "success probe does not re-open");
        let healthy = pool
            .try_lease_excluding(&[])
            .expect("slot is back in rotation");
        assert!(!healthy.is_probe());
    });
}
