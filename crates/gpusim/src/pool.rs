//! Device-pool leasing: multiplexing simulated accelerators between jobs,
//! with a per-slot health ledger and circuit breaker.
//!
//! A sweep campaign has many more jobs than accelerators. The pool tracks a
//! fixed set of device *slots*; a worker holding a job asks for a lease,
//! and either gets exclusive use of one slot (returned automatically when
//! the [`DeviceLease`] drops — including on a panic unwinding through the
//! worker) or is told to fall back to the host path. Leases carry no device
//! state between jobs: each job builds a fresh [`DeviceBackend`] from the
//! pool's spec, exactly as a driver hands a clean context to each process,
//! so one job's fault history can never leak into the next job's numerics.
//!
//! # Health ledger and circuit breaker
//!
//! Real fleets lose devices to *intermittent* sickness, not clean crashes:
//! a slot that hangs one job in three will be re-leased forever unless
//! someone keeps score. Every slot carries a sliding window of classified
//! outcomes reported by the scheduler ([`DevicePool::report_failure`] /
//! [`DevicePool::report_success`]). When the window of the last 8 reports
//! holds 3 sick ones the breaker **opens**: the slot is quarantined and
//! skipped by leasing until a logical re-admission deadline (4 lease
//! requests — never wall time, so every decision replays identically).
//! The first grant after the deadline is a
//! **probation probe**: success re-admits the slot, another sick failure
//! re-quarantines it with exponentially doubled backoff.
//!
//! Slots can also carry a scripted *sick profile* ([`DevicePool::
//! set_slot_profile`]) merged into every job plan armed on that slot —
//! this is how the chaos tier scripts "device 2 is flaky" as a property of
//! the device rather than of whichever job lands on it. Non-persistent
//! profiles are cleared when the breaker opens (the device recovers while
//! resting), so the open → probation → re-admit cycle closes
//! deterministically.
//!
//! The lease/release path is allocation-free (the lint tag below is
//! enforced by `cargo xtask lint`): the free-slot stack and health ledger
//! are pre-sized to the pool's capacity, so `try_lease_excluding` is two
//! `Mutex` locks plus a `Vec::remove`, and release is a push into reserved
//! capacity. Workers hit this path on every scheduling quantum.

#![cfg_attr(any(), deny_hot_alloc)]

use crate::backend::DeviceBackend;
use crate::device::{Device, DeviceSpec};
use crate::faults::FaultPlan;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
// Poison recovery via util::relock is sound here: pool invariants (slot
// ids, counters) are updated atomically under the lock, so the data is
// consistent even when a worker panicked while holding it.
//
// Lock order (declared in lock_order.toml): `free` before `health`,
// never the reverse — see `try_lease_excluding`.
use util::sync::{relock, Mutex};

/// Sick reports within the sliding window that open the breaker.
const STRIKES: u32 = 3;
/// Sliding-window length, in classified reports per slot.
const WINDOW: u32 = 8;
/// Initial quarantine length, in pool lease *requests* (the pool's logical
/// clock); doubled on every failed probation probe.
const PROBATION_BACKOFF: u64 = 4;
// The window must hold the strikes and fit the `recent` bitmask.
const _: () = assert!(STRIKES >= 1 && STRIKES <= WINDOW && WINDOW < 64);

/// Lifecycle of one slot in the breaker state machine.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum SlotState {
    /// Leasable; outcomes accumulate in the sliding window.
    Healthy,
    /// Skipped by leasing until the logical clock reaches `eligible_at`.
    Quarantined {
        /// Lease-clock tick at which a probation probe may go out.
        eligible_at: u64,
        /// Backoff that produced this quarantine (doubles on re-open).
        backoff: u64,
    },
    /// A probation probe is out; the next report decides the slot's fate.
    Probation,
}

/// Per-slot ledger entry.
#[derive(Debug)]
struct SlotHealth {
    state: SlotState,
    /// Sliding window of classified reports, bit 0 = newest, 1 = sick.
    recent: u64,
    recent_len: u32,
    quarantines: u64,
    probes: u64,
    readmissions: u64,
    profile: Option<FaultPlan>,
    profile_persistent: bool,
}

impl SlotHealth {
    fn new() -> Self {
        SlotHealth {
            state: SlotState::Healthy,
            recent: 0,
            recent_len: 0,
            quarantines: 0,
            probes: 0,
            readmissions: 0,
            profile: None,
            profile_persistent: false,
        }
    }

    fn push_report(&mut self, sick: bool) {
        self.recent = (self.recent << 1) | u64::from(sick);
        self.recent_len = (self.recent_len + 1).min(WINDOW);
    }

    fn strikes_in_window(&self) -> u32 {
        let mask = (1u64 << self.recent_len) - 1;
        (self.recent & mask).count_ones()
    }
}

/// What the breaker decided in response to a classified report — the
/// scheduler turns these into trace events.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum HealthDecision {
    /// Nothing changed.
    None,
    /// The breaker opened: the slot entered quarantine.
    Opened {
        /// The quarantined slot.
        slot: usize,
        /// Lease-clock ticks until a probation probe may go out.
        backoff: u64,
    },
    /// A probation probe failed: quarantine renewed with doubled backoff.
    Reopened {
        /// The re-quarantined slot.
        slot: usize,
        /// The doubled backoff now in force.
        backoff: u64,
    },
    /// A probation probe succeeded: the slot is healthy again.
    Readmitted {
        /// The re-admitted slot.
        slot: usize,
    },
}

#[derive(Debug)]
struct PoolInner {
    spec: DeviceSpec,
    /// Stack of free slot ids; capacity reserved for every slot up front.
    free: Mutex<Vec<usize>>,
    health: Mutex<Vec<SlotHealth>>,
    total: usize,
    /// Logical clock: total lease *requests* (grants and misses alike).
    lease_requests: AtomicU64,
    leases_granted: AtomicU64,
    lease_misses: AtomicU64,
    quarantine_skips: AtomicU64,
}

/// A fixed pool of simulated accelerator slots shared by sweep workers.
///
/// Cloning the pool clones the *handle*: all clones share the same slots.
#[derive(Clone, Debug)]
pub struct DevicePool {
    inner: Arc<PoolInner>,
}

impl DevicePool {
    /// A pool of `count` devices of the given spec. `count == 0` is a valid
    /// "no accelerators" pool: every lease request misses and jobs run on
    /// the host — scheduling still works, only slower.
    // dqmc-lint: allow(hot_alloc) — construction happens once per sweep;
    // the free stack and ledger are sized here so the lease path never
    // reallocates.
    pub fn new(spec: DeviceSpec, count: usize) -> Self {
        let mut free = Vec::with_capacity(count);
        free.extend(0..count);
        let mut health = Vec::with_capacity(count);
        health.extend((0..count).map(|_| SlotHealth::new()));
        DevicePool {
            inner: Arc::new(PoolInner {
                spec,
                free: Mutex::new(free),
                health: Mutex::new(health),
                total: count,
                lease_requests: AtomicU64::new(0),
                leases_granted: AtomicU64::new(0),
                lease_misses: AtomicU64::new(0),
                quarantine_skips: AtomicU64::new(0),
            }),
        }
    }

    /// Attempts to lease a device slot other than the `excluded` ones — the
    /// scheduler passes a job's suspect-device list so a requeued job is
    /// never handed back the device that just failed it. `None` means every
    /// slot is busy, quarantined, or excluded (or the pool is empty) and the
    /// caller should use the host backend — the guaranteed-progress path.
    ///
    /// Each call ticks the pool's logical lease clock. Quarantined slots
    /// whose re-admission deadline has passed are granted as *probation
    /// probes* ([`DeviceLease::is_probe`]); the probe's classified outcome
    /// (via `report_success` / `report_failure`) decides re-admission.
    pub fn try_lease_excluding(&self, excluded: &[usize]) -> Option<DeviceLease> {
        let now = self.inner.lease_requests.fetch_add(1, Ordering::Relaxed) + 1;
        let mut free = relock(self.inner.free.lock());
        let mut health = relock(self.inner.health.lock());
        // Scan from the top of the stack (normal pop order) so the
        // healthy-path grant sequence is unchanged from a breaker-free pool.
        for i in (0..free.len()).rev() {
            let slot = free[i];
            if excluded.contains(&slot) {
                continue;
            }
            let probe = match health[slot].state {
                SlotState::Healthy => false,
                SlotState::Quarantined { eligible_at, .. } => {
                    if now < eligible_at {
                        self.inner.quarantine_skips.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    health[slot].state = SlotState::Probation;
                    health[slot].probes += 1;
                    true
                }
                // A probe lease for this slot is already out, so the slot
                // cannot also be on the free stack; defensive skip.
                SlotState::Probation => continue,
            };
            free.remove(i);
            self.inner.leases_granted.fetch_add(1, Ordering::Relaxed);
            return Some(DeviceLease {
                slot,
                probe,
                inner: Arc::clone(&self.inner),
            });
        }
        self.inner.lease_misses.fetch_add(1, Ordering::Relaxed);
        None
    }

    /// Records a classified failure of a job that ran on `slot`. Only
    /// `sick == true` reports (the `DeviceSick` taxonomy class) count
    /// toward opening the breaker; other failures are logged in the window
    /// without indicting the device.
    pub fn report_failure(&self, slot: usize, sick: bool) -> HealthDecision {
        let mut health = relock(self.inner.health.lock());
        let h = &mut health[slot];
        match h.state {
            SlotState::Probation if sick => {
                // Failed probe: rest again with exponentially grown
                // backoff — initial × 2^(quarantines so far).
                let backoff = PROBATION_BACKOFF.saturating_mul(1u64 << h.quarantines.min(32));
                let now = self.inner.lease_requests.load(Ordering::Relaxed);
                h.state = SlotState::Quarantined {
                    eligible_at: now + backoff,
                    backoff,
                };
                h.quarantines += 1;
                h.recent = 0;
                h.recent_len = 0;
                HealthDecision::Reopened { slot, backoff }
            }
            SlotState::Probation => {
                // Non-sick failure on probe: the device answered; re-admit.
                h.state = SlotState::Healthy;
                h.readmissions += 1;
                h.push_report(false);
                HealthDecision::Readmitted { slot }
            }
            SlotState::Healthy => {
                h.push_report(sick);
                if sick && h.strikes_in_window() >= STRIKES {
                    let now = self.inner.lease_requests.load(Ordering::Relaxed);
                    let backoff = PROBATION_BACKOFF;
                    h.state = SlotState::Quarantined {
                        eligible_at: now + backoff,
                        backoff,
                    };
                    h.quarantines += 1;
                    h.recent = 0;
                    h.recent_len = 0;
                    if !h.profile_persistent {
                        // The scripted sickness heals while the slot rests,
                        // so the probe runs clean — deterministically.
                        h.profile = None;
                    }
                    HealthDecision::Opened { slot, backoff }
                } else {
                    HealthDecision::None
                }
            }
            SlotState::Quarantined { .. } => HealthDecision::None,
        }
    }

    /// Records a successful job on `slot`; a success on a probation probe
    /// re-admits the slot.
    pub fn report_success(&self, slot: usize) -> HealthDecision {
        let mut health = relock(self.inner.health.lock());
        let h = &mut health[slot];
        match h.state {
            SlotState::Probation => {
                h.state = SlotState::Healthy;
                h.readmissions += 1;
                h.recent = 0;
                h.recent_len = 0;
                HealthDecision::Readmitted { slot }
            }
            _ => {
                h.push_report(false);
                HealthDecision::None
            }
        }
    }

    /// Installs a scripted sick profile on `slot`: every backend built from
    /// a lease of this slot merges `plan` into the job's own fault plan.
    /// Non-persistent profiles are cleared when the breaker opens (the
    /// device recovers while quarantined); persistent ones keep failing
    /// probes and exercise the exponential backoff.
    // dqmc-lint: allow(hot_alloc) — profile installation is sweep setup,
    // not the lease hot path.
    pub fn set_slot_profile(&self, slot: usize, plan: FaultPlan, persistent: bool) {
        let mut health = relock(self.inner.health.lock());
        health[slot].profile = Some(plan);
        health[slot].profile_persistent = persistent;
    }

    /// Total breaker openings across all slots (including probe re-opens).
    pub fn quarantines(&self) -> u64 {
        relock(self.inner.health.lock())
            .iter()
            .map(|h| h.quarantines)
            .sum()
    }

    /// Total probation probes granted across all slots.
    pub fn probes(&self) -> u64 {
        relock(self.inner.health.lock())
            .iter()
            .map(|h| h.probes)
            .sum()
    }

    /// Total probe successes that re-admitted a slot.
    pub fn readmissions(&self) -> u64 {
        relock(self.inner.health.lock())
            .iter()
            .map(|h| h.readmissions)
            .sum()
    }

    /// Lease attempts that skipped a slot because it was quarantined.
    pub fn quarantine_skips(&self) -> u64 {
        self.inner.quarantine_skips.load(Ordering::Relaxed)
    }

    /// Total slots in the pool.
    pub fn capacity(&self) -> usize {
        self.inner.total
    }

    /// Slots currently free (including quarantined ones: they are idle,
    /// just not leasable yet).
    pub fn available(&self) -> usize {
        relock(self.inner.free.lock()).len()
    }

    /// Leases handed out over the pool's lifetime.
    pub fn leases_granted(&self) -> u64 {
        self.inner.leases_granted.load(Ordering::Relaxed)
    }

    /// Lease requests that missed (capacity pressure or quarantine →
    /// host fallback).
    pub fn lease_misses(&self) -> u64 {
        self.inner.lease_misses.load(Ordering::Relaxed)
    }

    /// The device spec jobs will run on.
    pub fn spec(&self) -> &DeviceSpec {
        &self.inner.spec
    }
}

/// Exclusive use of one pool slot; the slot returns to the pool on drop.
#[derive(Debug)]
pub struct DeviceLease {
    slot: usize,
    probe: bool,
    inner: Arc<PoolInner>,
}

impl DeviceLease {
    /// The leased slot id (stable for the lease's lifetime; used for trace
    /// events and per-slot utilisation accounting).
    pub fn slot(&self) -> usize {
        self.slot
    }

    /// Whether this lease is a probation probe of a quarantined slot.
    pub fn is_probe(&self) -> bool {
        self.probe
    }

    /// Builds a fresh backend on the leased device. An optional
    /// [`FaultPlan`] is armed before first use, merged with the slot's
    /// scripted sick profile if one is installed — the scheduler's
    /// scripted-fault and chaos runs go through here.
    // dqmc-lint: allow(hot_alloc) — backend construction is once per job
    // placement, not per quantum; the Device itself owns fresh buffers.
    pub fn backend(&self, plan: Option<FaultPlan>) -> DeviceBackend {
        let mut dev = Device::new(self.inner.spec.clone());
        let profile = relock(self.inner.health.lock())[self.slot].profile.clone();
        let armed = match (plan, profile) {
            (Some(p), Some(s)) => Some(p.merge(s)),
            (Some(p), None) => Some(p),
            (None, Some(s)) => Some(s),
            (None, None) => None,
        };
        if let Some(plan) = armed {
            dev.arm_faults(plan);
        }
        DeviceBackend::new(dev)
    }
}

impl Drop for DeviceLease {
    fn drop(&mut self) {
        // Push into capacity reserved at construction: cannot reallocate.
        relock(self.inner.free.lock()).push(self.slot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn leases_are_exclusive_and_return_on_drop() {
        let pool = DevicePool::new(DeviceSpec::tesla_c2050(), 2);
        assert_eq!(pool.capacity(), 2);
        let a = pool.try_lease_excluding(&[]).unwrap();
        let b = pool.try_lease_excluding(&[]).unwrap();
        assert_ne!(a.slot(), b.slot());
        assert_eq!(pool.available(), 0);
        assert!(pool.try_lease_excluding(&[]).is_none());
        drop(a);
        assert_eq!(pool.available(), 1);
        let c = pool.try_lease_excluding(&[]).unwrap();
        drop(b);
        drop(c);
        assert_eq!(pool.available(), 2);
        assert_eq!(pool.leases_granted(), 3);
        assert_eq!(pool.lease_misses(), 1);
    }

    #[test]
    fn empty_pool_always_misses() {
        let pool = DevicePool::new(DeviceSpec::tesla_c2050(), 0);
        assert!(pool.try_lease_excluding(&[]).is_none());
        assert_eq!(pool.available(), 0);
        assert_eq!(pool.lease_misses(), 1);
    }

    #[test]
    fn lease_backend_is_deterministic_mode_with_armed_plan() {
        let pool = DevicePool::new(DeviceSpec::tesla_c2050(), 1);
        let lease = pool.try_lease_excluding(&[]).unwrap();
        let model = dqmc::ModelParams::new(lattice::Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 4);
        let fac = dqmc::BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(1);
        let h = dqmc::HsField::random(4, 4, &mut rng);
        use dqmc::ComputeBackend as _;
        // A leased device wraps to the host's bits.
        let both = dqmc::Spin::BOTH;
        let g = [(); 2].map(|_| linalg::Matrix::random(4, 4, &mut rng));
        let mut out = [linalg::Matrix::zeros(4, 4), linalg::Matrix::zeros(4, 4)];
        let mut be = lease.backend(None);
        be.wrap(&fac, &[&h], 0, &[&g], &mut [&mut out]).unwrap();
        for spin in both {
            let s = spin.index();
            assert_eq!(out[s], dqmc::greens::wrap(&fac, &h, 0, spin, &g[s]));
        }
        // The armed plan fires on the first launch.
        let mut be = lease.backend(Some(FaultPlan::new().fail_launch(1)));
        assert!(be.cluster(&fac, &both, &[&h], 0, 4).is_err());
    }

    #[test]
    fn lease_returns_even_when_worker_panics() {
        let pool = DevicePool::new(DeviceSpec::tesla_c2050(), 1);
        let p2 = pool.clone();
        let _ = std::panic::catch_unwind(move || {
            let _lease = p2.try_lease_excluding(&[]).unwrap();
            panic!("job died");
        });
        assert_eq!(pool.available(), 1, "slot must return via Drop on unwind");
    }

    #[test]
    fn excluded_slots_are_skipped() {
        let pool = DevicePool::new(DeviceSpec::tesla_c2050(), 2);
        // Stack pops slot 1 first; excluding it must yield slot 0.
        let l = pool.try_lease_excluding(&[1]).unwrap();
        assert_eq!(l.slot(), 0);
        drop(l);
        assert!(pool.try_lease_excluding(&[0, 1]).is_none());
        assert_eq!(pool.lease_misses(), 1);
    }

    fn strike_out(pool: &DevicePool, slot: usize, strikes: u32) -> HealthDecision {
        let mut last = HealthDecision::None;
        for _ in 0..strikes {
            last = pool.report_failure(slot, true);
        }
        last
    }

    #[test]
    fn breaker_opens_probes_and_readmits() {
        let pool = DevicePool::new(DeviceSpec::tesla_c2050(), 1);
        assert_eq!(strike_out(&pool, 0, STRIKES - 1), HealthDecision::None);
        assert_eq!(
            strike_out(&pool, 0, 1),
            HealthDecision::Opened {
                slot: 0,
                backoff: PROBATION_BACKOFF
            }
        );
        // Quarantined: the slot is skipped and the request misses. The
        // deadline is eligible_at = 0 + 4 on the lease-request clock.
        for _ in 1..PROBATION_BACKOFF {
            assert!(
                pool.try_lease_excluding(&[]).is_none(),
                "quarantine blocks the only slot"
            );
        }
        assert_eq!(pool.quarantine_skips(), PROBATION_BACKOFF - 1);
        let probe = pool
            .try_lease_excluding(&[])
            .expect("clock hit 4: probe goes out");
        assert!(probe.is_probe());
        drop(probe);
        assert_eq!(
            pool.report_success(0),
            HealthDecision::Readmitted { slot: 0 }
        );
        let healthy = pool.try_lease_excluding(&[]).unwrap();
        assert!(!healthy.is_probe(), "re-admitted slot leases normally");
        assert_eq!(pool.quarantines(), 1);
        assert_eq!(pool.probes(), 1);
        assert_eq!(pool.readmissions(), 1);
    }

    /// The first lease the quarantined slot `0` grants: its probation probe.
    fn probe_after_backoff(pool: &DevicePool) -> DeviceLease {
        (0..PROBATION_BACKOFF)
            .find_map(|_| pool.try_lease_excluding(&[]))
            .expect("backoff elapsed: probe goes out")
    }

    #[test]
    fn failed_probe_requarantines_with_doubled_backoff() {
        let pool = DevicePool::new(DeviceSpec::tesla_c2050(), 1);
        assert!(matches!(
            strike_out(&pool, 0, STRIKES),
            HealthDecision::Opened {
                backoff: PROBATION_BACKOFF,
                ..
            }
        ));
        let probe = probe_after_backoff(&pool);
        assert!(probe.is_probe());
        drop(probe);
        // Probe fails sick: exponential backoff kicks in.
        assert_eq!(
            pool.report_failure(0, true),
            HealthDecision::Reopened {
                slot: 0,
                backoff: 2 * PROBATION_BACKOFF
            }
        );
        assert_eq!(pool.quarantines(), 2);
    }

    #[test]
    fn slot_profile_merges_into_backend_and_heals_on_open() {
        let pool = DevicePool::new(DeviceSpec::tesla_c2050(), 1);
        pool.set_slot_profile(0, FaultPlan::new().fail_launch(1), false);
        let lease = pool.try_lease_excluding(&[]).unwrap();
        let mut be = lease.backend(None);
        let model = dqmc::ModelParams::new(lattice::Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 4);
        let fac = dqmc::BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(1);
        let h = dqmc::HsField::random(4, 4, &mut rng);
        use dqmc::ComputeBackend as _;
        let up = [dqmc::Spin::Up];
        assert!(
            be.cluster(&fac, &up, &[&h], 0, 4).is_err(),
            "slot profile armed without any job plan"
        );
        drop(lease);
        // Breaker opens; the non-persistent profile heals.
        assert!(matches!(
            strike_out(&pool, 0, STRIKES),
            HealthDecision::Opened { .. }
        ));
        let probe = probe_after_backoff(&pool);
        assert!(probe.is_probe());
        let mut be = probe.backend(None);
        assert!(
            be.cluster(&fac, &up, &[&h], 0, 4).is_ok(),
            "healed slot runs clean on probation"
        );
    }

    #[test]
    fn non_sick_failures_do_not_open_breaker() {
        let pool = DevicePool::new(DeviceSpec::tesla_c2050(), 1);
        for _ in 0..16 {
            assert_eq!(pool.report_failure(0, false), HealthDecision::None);
        }
        assert_eq!(pool.quarantines(), 0);
        assert!(pool.try_lease_excluding(&[]).is_some());
    }
}
