//! Offline stand-in for the `loom` model checker.
//!
//! The build environment has no access to crates.io, so this workspace
//! ships a drop-in subset of loom's API ([`model`], [`sync`], [`thread`])
//! that the `--cfg loom` models in `crates/sched/tests/loom_models.rs`
//! and `crates/linalg/src/team.rs` compile against. The real loom
//! exhaustively enumerates thread interleavings with DPOR; this shim
//! approximates that exploration by running each model body many times
//! under a *seeded schedule perturbator*: every synchronization operation
//! (`Mutex::lock`, `Condvar` waits/notifies, `thread::spawn`, and each
//! operation on the `sync::atomic` wrappers) draws from a deterministic
//! per-iteration RNG and may yield — or briefly sleep — to shove the OS
//! scheduler into a different interleaving. Assertions inside the model
//! therefore run under hundreds of distinct schedules per test instead of
//! one.
//!
//! Differences from real loom, by design:
//!
//! - exploration is randomized, not exhaustive: a passing run raises
//!   confidence, it is not a proof. When registry access returns, swapping
//!   this shim for the real crate is a one-line change in the workspace
//!   manifest — model code is written against loom's actual API.
//! - `sync` types are thin wrappers over `std::sync` (the guard and error
//!   types *are* the std ones), so poisoning semantics — which the
//!   workspace's `relock` recovery depends on — behave exactly as in
//!   production.
//! - iteration count comes from `LOOM_SHIM_ITERS` (default 128) rather
//!   than loom's preemption bounding.

use std::sync::atomic::{AtomicU64, Ordering};

/// Global schedule-perturbation state, reseeded per model iteration.
static SCHED_STATE: AtomicU64 = AtomicU64::new(0x9e37_79b9_7f4a_7c15);

/// Reseeds the perturbator (called once per model iteration).
fn reseed(seed: u64) {
    SCHED_STATE.store(seed | 1, Ordering::Relaxed);
}

/// One synchronization point: advances the shared xorshift stream and
/// perturbs the schedule on a seed-dependent subset of calls.
fn sync_point() {
    let r = SCHED_STATE
        .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |mut x| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            Some(x)
        })
        .unwrap_or(1);
    match r % 16 {
        0..=3 => std::thread::yield_now(),
        4 => std::thread::sleep(std::time::Duration::from_micros(r % 7)),
        _ => {}
    }
}

/// Runs `f` under many perturbed schedules (loom's `model` entry point).
///
/// Each iteration reseeds the global perturbator deterministically, so a
/// failure's iteration index identifies a reproducible seed family (modulo
/// residual OS-scheduler noise, which the yields only bias).
pub fn model<F>(f: F)
where
    F: Fn() + Sync + Send + 'static,
{
    let iters: u64 = std::env::var("LOOM_SHIM_ITERS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(128);
    for i in 0..iters {
        reseed(0xd1b5_4a32_d192_ed03_u64.wrapping_mul(i + 1));
        f();
    }
}

/// Schedule-perturbing wrappers over `std::sync`.
pub mod sync {
    pub use std::sync::{Arc, LockResult, MutexGuard, PoisonError, WaitTimeoutResult};

    /// Std atomics, with schedule-perturbing wrappers shadowing the three
    /// types (and the operations on them) that `linalg::team`'s lock-free
    /// protocol is built from (real loom instruments every atomic; here each
    /// operation on a wrapper is a perturbation point, so a compare-exchange
    /// race is shoved into different orders across iterations).
    pub mod atomic {
        pub use std::sync::atomic::*;

        macro_rules! perturbed_atomic {
            ($name:ident, $t:ty $(, $rmw:ident)*) => {
                /// The std atomic of the same name with a schedule
                /// perturbation point before every operation.
                #[derive(Debug, Default)]
                pub struct $name(std::sync::atomic::$name);

                impl $name {
                    /// A new atomic holding `v`.
                    pub const fn new(v: $t) -> Self {
                        Self(std::sync::atomic::$name::new(v))
                    }

                    /// Loads after a perturbation point.
                    pub fn load(&self, o: Ordering) -> $t {
                        crate::sync_point();
                        self.0.load(o)
                    }

                    /// Stores after a perturbation point.
                    pub fn store(&self, v: $t, o: Ordering) {
                        crate::sync_point();
                        self.0.store(v, o)
                    }

                    /// Compare-exchange after a perturbation point.
                    pub fn compare_exchange(
                        &self,
                        cur: $t,
                        new: $t,
                        ok: Ordering,
                        err: Ordering,
                    ) -> Result<$t, $t> {
                        crate::sync_point();
                        self.0.compare_exchange(cur, new, ok, err)
                    }

                    $(
                        /// Read-modify-write after a perturbation point.
                        pub fn $rmw(&self, v: $t, o: Ordering) -> $t {
                            crate::sync_point();
                            self.0.$rmw(v, o)
                        }
                    )*
                }
            };
        }

        perturbed_atomic!(AtomicBool, bool);
        perturbed_atomic!(AtomicUsize, usize, fetch_add);
        perturbed_atomic!(AtomicU64, u64, fetch_sub, fetch_and, fetch_or);
    }

    /// A `std::sync::Mutex` that perturbs the schedule on every `lock`.
    #[derive(Debug, Default)]
    pub struct Mutex<T> {
        inner: std::sync::Mutex<T>,
    }

    impl<T> Mutex<T> {
        /// A new unlocked mutex.
        pub const fn new(t: T) -> Self {
            Mutex {
                inner: std::sync::Mutex::new(t),
            }
        }

        /// Acquires the lock after a schedule perturbation point.
        pub fn lock(&self) -> LockResult<MutexGuard<'_, T>> {
            super::sync_point();
            self.inner.lock()
        }

        /// Attempts the lock without blocking.
        pub fn try_lock(&self) -> std::sync::TryLockResult<MutexGuard<'_, T>> {
            super::sync_point();
            self.inner.try_lock()
        }

        /// Consumes the mutex, returning the inner value.
        pub fn into_inner(self) -> LockResult<T> {
            self.inner.into_inner()
        }
    }

    /// A `std::sync::Condvar` that perturbs the schedule around waits and
    /// notifies.
    #[derive(Debug, Default)]
    pub struct Condvar {
        inner: std::sync::Condvar,
    }

    impl Condvar {
        /// A new condition variable.
        pub const fn new() -> Self {
            Condvar {
                inner: std::sync::Condvar::new(),
            }
        }

        /// Blocks on the condition after a perturbation point.
        pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> LockResult<MutexGuard<'a, T>> {
            super::sync_point();
            let out = self.inner.wait(guard);
            super::sync_point();
            out
        }

        /// Bounded wait; the timeout keeps models live when a notify is
        /// racing the wait.
        pub fn wait_timeout<'a, T>(
            &self,
            guard: MutexGuard<'a, T>,
            dur: std::time::Duration,
        ) -> LockResult<(MutexGuard<'a, T>, WaitTimeoutResult)> {
            super::sync_point();
            self.inner.wait_timeout(guard, dur)
        }

        /// Wakes one waiter.
        pub fn notify_one(&self) {
            super::sync_point();
            self.inner.notify_one();
        }

        /// Wakes all waiters.
        pub fn notify_all(&self) {
            super::sync_point();
            self.inner.notify_all();
        }
    }
}

/// Thread spawning with a perturbation point at spawn and join.
pub mod thread {
    pub use std::thread::JoinHandle;

    /// Spawns a model thread (perturbing the schedule first, so spawn
    /// order vs. first-step order varies across iterations).
    pub fn spawn<F, T>(f: F) -> JoinHandle<T>
    where
        F: FnOnce() -> T + Send + 'static,
        T: Send + 'static,
    {
        super::sync_point();
        std::thread::spawn(move || {
            super::sync_point();
            f()
        })
    }

    /// Cooperative yield (loom's explicit interleaving point).
    pub fn yield_now() {
        super::sync_point();
        std::thread::yield_now();
    }
}

#[cfg(test)]
mod tests {
    use super::sync::{Arc, Condvar, Mutex};

    #[test]
    fn model_runs_body_under_many_seeds() {
        let count = Arc::new(std::sync::atomic::AtomicU64::new(0));
        let c = Arc::clone(&count);
        super::model(move || {
            c.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        });
        assert!(count.load(std::sync::atomic::Ordering::Relaxed) >= 2);
    }

    #[test]
    fn mutex_and_condvar_round_trip() {
        let m = Arc::new(Mutex::new(0u32));
        let cv = Arc::new(Condvar::new());
        let (m2, cv2) = (Arc::clone(&m), Arc::clone(&cv));
        let t = super::thread::spawn(move || {
            let mut g = m2.lock().unwrap_or_else(|e| e.into_inner());
            *g = 7;
            drop(g);
            cv2.notify_all();
        });
        let mut g = m.lock().unwrap_or_else(|e| e.into_inner());
        while *g != 7 {
            let (guard, _) = cv
                .wait_timeout(g, std::time::Duration::from_millis(5))
                .unwrap_or_else(|e| e.into_inner());
            g = guard;
        }
        drop(g);
        t.join().expect("helper thread exits cleanly");
    }
}
