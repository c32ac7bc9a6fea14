//! Synchronization primitives with poison recovery and loom switching.
//!
//! Every lock-bearing type in the workspace (`sched::queue`, `sched::trace`,
//! `sched::service`, `gpusim::pool`) goes through this module instead of
//! naming `std::sync` directly, for two reasons:
//!
//! 1. **One audited poison-recovery path.** [`relock`] is the single copy of
//!    the `unwrap_or_else(PoisonError::into_inner)` idiom. The safety
//!    argument lives here once: recovery is sound only for locks whose
//!    critical sections leave no partially-applied state, which is a
//!    per-call-site audit — see the lock registry in `lock_order.toml`.
//!
//! 2. **Model checking.** Under `--cfg loom` (`RUSTFLAGS="--cfg loom"`),
//!    [`Mutex`], [`Condvar`] and the [`atomic`] types resolve to the loom
//!    shim's schedule-perturbing wrappers, so the loom models in
//!    `crates/sched/tests/loom_models.rs` and `linalg::team` explore the
//!    *production* queue/pool/team code under many interleavings,
//!    not a re-model of it. Ordinary builds resolve straight to `std::sync`
//!    with zero overhead.

#[cfg(loom)]
pub use loom::sync::{Condvar, Mutex};
#[cfg(not(loom))]
pub use std::sync::{Condvar, Mutex};

/// Atomics for lock-free protocols that have a loom model
/// (`linalg::team`): the std types, or under `--cfg loom` the shim's
/// wrappers that make every operation a schedule perturbation point.
pub mod atomic {
    #[cfg(loom)]
    pub use loom::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
    #[cfg(not(loom))]
    pub use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
}

// Guard/error types are std's in both configurations (the loom shim wraps
// std rather than re-implementing it), so poisoning behaves identically
// under the model checker and in production.
pub use std::sync::{LockResult, MutexGuard, PoisonError, WaitTimeoutResult};

/// Recovers the payload of a poisoned lock operation.
///
/// A poisoned `Mutex` means some thread panicked while holding the guard;
/// the data is still there and still consistent *provided every critical
/// section on that lock is transactional* (no partially-applied state at
/// any panic point). All workspace locks are audited to that standard —
/// each holds a single short update with no observable intermediate state
/// — so recovery is the correct policy: one worker's death must not take
/// down the scheduler (the chaos tier's first requirement).
///
/// Generic over the payload so it covers plain `lock()` results, `wait()`
/// results, and `wait_timeout()`'s `(guard, WaitTimeoutResult)` tuple.
pub fn relock<T>(r: LockResult<T>) -> T {
    r.unwrap_or_else(PoisonError::into_inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn relock_passes_through_clean_guards() {
        let m = Mutex::new(5u32);
        let g = relock(m.lock());
        assert_eq!(*g, 5);
    }

    #[test]
    fn relock_recovers_poisoned_guard_with_data_intact() {
        let m = Arc::new(Mutex::new(vec![1, 2, 3]));
        let m2 = Arc::clone(&m);
        // dqmc-lint: allow(panic_site) — the panic *is* the fixture.
        let _ = std::thread::spawn(move || {
            let _g = m2.lock().unwrap();
            panic!("poisoning for test");
        })
        .join();
        let g = relock(m.lock());
        assert_eq!(*g, vec![1, 2, 3], "data survives poisoning");
    }

    #[test]
    fn relock_recovers_wait_timeout_tuple() {
        let m = Mutex::new(0u8);
        let cv = Condvar::new();
        let g = relock(m.lock());
        let (g, timed_out) = relock(cv.wait_timeout(g, std::time::Duration::from_millis(1)));
        assert!(timed_out.timed_out());
        assert_eq!(*g, 0);
    }
}
