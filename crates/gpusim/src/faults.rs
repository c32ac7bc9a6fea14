//! Deterministic fault injection for the simulated device.
//!
//! Real accelerator deployments fail in a handful of well-known ways: a
//! host↔device transfer silently corrupts, a kernel launch errors out, the
//! device memory arena is exhausted mid-allocation, or a resident bit flips
//! (no ECC on consumer parts). A [`FaultPlan`] scripts any combination of
//! those against the [`Device`](crate::device::Device) cost model so the
//! recovery ladder in `dqmc::sweep` can be exercised deterministically:
//! every fault fires at an exact operation ordinal, and any randomness
//! (which matrix element to poison, which mantissa bit to flip) comes from
//! a seeded [`util::Rng`] owned by the plan — reruns reproduce bit-for-bit.
//!
//! Faults are **one-shot**: once a scheduled fault fires it is consumed, so
//! a retry of the same operation succeeds (unless another fault is scheduled
//! at the retried ordinal). Persistent failure is modelled by scheduling a
//! run of consecutive ordinals.
//!
//! # Fail-slow and fail-intermittent classes
//!
//! Beyond fail-stop errors, the plan scripts the classic *fleet* failure
//! modes, all in logical cost units so runs stay byte-reproducible:
//!
//! - **latency inflation** ([`FaultPlan::slow_launch`]): the nth launch
//!   costs `factor ×` its normal simulated time but still succeeds — the
//!   numerics are untouched, only the cost model sees it — unless the
//!   inflated launch reaches the device's one deadline,
//!   [`LAUNCH_DEADLINE_S`](crate::device::LAUNCH_DEADLINE_S): then it is a
//!   hang;
//! - **hang** ([`FaultPlan::hang_at_launch`]): the nth launch never
//!   completes; the driver kills it at the launch deadline and the op
//!   reports [`DeviceError::Hang`]. A device that stays dead is a hang at
//!   every launch from the nth on;
//! - **sick window** ([`FaultPlan::sick_window`]): every launch whose
//!   ordinal falls in `[lo, hi]` fails with [`DeviceError::SickDevice`] —
//!   the intermittent flaky-device profile that defeats naive retry.
//!
//! The text vocabulary lives here too: a grid's `faults` and `slot_faults`
//! scripts parse with [`FaultPlan::parse`] and [`FaultPlan::parse_slots`],
//! reading items with [`util::settings`]. Each item names the builder call
//! it adds: `fail_launch:2` is `.fail_launch(2)`.

use std::fmt;
use util::settings::{self, ItemError};

/// An error raised by a fallible device operation.
///
/// Only *device-class* failures are represented here — the operation did not
/// complete. Silent data corruption (transfer poison, bit flips) does not
/// error; it surfaces downstream when the caller scans the result.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum DeviceError {
    /// A kernel launch was rejected by the (simulated) driver.
    KernelLaunchFailure {
        /// Name of the kernel whose launch failed.
        kernel: &'static str,
        /// 1-based global launch ordinal that failed.
        launch_index: u64,
    },
    /// The device memory arena could not satisfy an allocation.
    ArenaExhausted {
        /// Bytes requested by the failing allocation.
        requested: usize,
    },
    /// A kernel launch hung: it never completed and the (simulated)
    /// driver killed it at its launch deadline.
    Hang {
        /// Name of the kernel that hung.
        kernel: &'static str,
        /// 1-based global launch ordinal that hung.
        launch_index: u64,
    },
    /// The device is inside a scripted sick window: launches fail
    /// intermittently until the window's last ordinal passes.
    SickDevice {
        /// Name of the kernel whose launch the sick device rejected.
        kernel: &'static str,
        /// 1-based global launch ordinal that failed.
        launch_index: u64,
        /// The `[lo, hi]` launch-ordinal window the device is sick in.
        window: (u64, u64),
    },
}

impl DeviceError {
    /// Whether this error indicts the device itself (hang, sick window)
    /// rather than the single operation — the `DeviceSick` class of the
    /// error taxonomy. Such errors must escape the in-core recovery
    /// ladder so the scheduler can quarantine the slot.
    pub fn is_sick(&self) -> bool {
        matches!(
            self,
            DeviceError::Hang { .. } | DeviceError::SickDevice { .. }
        )
    }
}

impl fmt::Display for DeviceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DeviceError::KernelLaunchFailure {
                kernel,
                launch_index,
            } => {
                write!(
                    f,
                    "kernel launch failure: {kernel} (launch #{launch_index})"
                )
            }
            DeviceError::ArenaExhausted { requested } => {
                write!(f, "device arena exhausted: requested {requested} B")
            }
            DeviceError::Hang {
                kernel,
                launch_index,
            } => write!(
                f,
                "kernel hung: {kernel} (launch #{launch_index} missed its logical deadline)"
            ),
            DeviceError::SickDevice {
                kernel,
                launch_index,
                window,
            } => write!(
                f,
                "sick device: {kernel} failed (launch #{launch_index} inside sick window [{}, {}])",
                window.0, window.1
            ),
        }
    }
}

impl std::error::Error for DeviceError {}

/// What a scheduled entry of a [`FaultPlan`] does when its ordinal comes up.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum Fault {
    /// One element of the download becomes NaN (ordinal counts downloads).
    CorruptDownload,
    /// The launch is rejected (this and the three below count launches).
    FailLaunch,
    /// The launch hangs until the driver kills it at the launch deadline.
    Hang,
    /// The launch succeeds at this multiple of its normal overhead.
    Slow(f64),
    /// Every launch from the entry's ordinal through this one fails; the
    /// only entry that is not consumed when it fires.
    SickThrough(u64),
    /// The allocation reports arena exhaustion (ordinal counts allocations).
    Oom,
    /// One element of the product the hit op's entry downloads has a high
    /// mantissa bit flipped (ordinal counts compute ops, one per entry of a
    /// batched op). The device holds no intermediate matrix, so the flip
    /// lands in the returned product, drawn when the op runs; an op that
    /// fails before the download abandons it.
    BitFlip,
}

/// A scripted schedule of device faults.
///
/// Ordinals are 1-based and count per category over the device's lifetime
/// (they survive [`Device::reset_clock`](crate::device::Device::reset_clock)):
/// the 3rd download is the 3rd stacked download since the device was
/// created, regardless of how many kernels launched in between.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct FaultPlan {
    ops: Vec<(u64, Fault)>,
    rng: Option<util::Rng>,
}

impl FaultPlan {
    /// An empty plan (injects nothing).
    pub fn new() -> Self {
        FaultPlan::default()
    }

    /// Seeds the plan's private RNG, used to pick which element a transfer
    /// corruption poisons and which mantissa bit a flip targets. Plans that
    /// schedule corruption or flips without a seed fall back to seed 0.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.rng = Some(util::Rng::new(seed));
        self
    }

    fn at(mut self, nth: u64, fault: Fault) -> Self {
        self.ops.push((nth, fault));
        self
    }

    /// Schedules silent corruption of the `nth` (1-based) device→host matrix
    /// download: one element of the received matrix becomes NaN.
    pub fn corrupt_transfer(self, nth: u64) -> Self {
        self.at(nth, Fault::CorruptDownload)
    }

    /// Schedules the `nth` (1-based) kernel launch to fail.
    pub fn fail_launch(self, nth: u64) -> Self {
        self.at(nth, Fault::FailLaunch)
    }

    /// Schedules the `nth` (1-based) device allocation to report arena
    /// exhaustion.
    pub fn oom_at_alloc(self, nth: u64) -> Self {
        self.at(nth, Fault::Oom)
    }

    /// Schedules a bit flip at the `nth` (1-based) device compute operation
    /// (GEMM / scaling / wrap kernels, one per batch entry): one element of
    /// that entry's downloaded product has a high mantissa bit XOR-ed
    /// ([`Fault::BitFlip`]), producing a *finite* but wrong value — the
    /// silent-corruption case that only a consistency check can catch.
    pub fn flip_bit_after_op(self, nth: u64) -> Self {
        self.at(nth, Fault::BitFlip)
    }

    /// Schedules the `nth` (1-based) kernel launch to hang: it fails with
    /// [`DeviceError::Hang`] after the driver kills it at the launch
    /// deadline.
    pub fn hang_at_launch(self, nth: u64) -> Self {
        self.at(nth, Fault::Hang)
    }

    /// Schedules the `nth` (1-based) kernel launch to run `factor ×`
    /// slower in simulated time while still succeeding: fail-slow latency
    /// inflation, invisible to the numerics. A launch inflated to the
    /// launch deadline hangs instead. `factor` must be ≥ 1.
    pub fn slow_launch(self, nth: u64, factor: f64) -> Self {
        assert!(factor >= 1.0, "latency factor must be >= 1");
        self.at(nth, Fault::Slow(factor))
    }

    /// Declares the device sick for every launch ordinal in `[lo, hi]`
    /// (1-based, inclusive): each such launch fails with
    /// [`DeviceError::SickDevice`]. Unlike the one-shot classes the window
    /// persists — retrying inside it keeps failing, which is exactly the
    /// intermittent profile a circuit breaker exists for.
    pub fn sick_window(self, lo: u64, hi: u64) -> Self {
        assert!(lo >= 1 && lo <= hi, "sick window wants 1 <= lo <= hi");
        self.at(lo, Fault::SickThrough(hi))
    }

    /// Appends every schedule of `other` onto this plan — used to merge a
    /// pool slot's health profile into a job's own fault plan at lease
    /// time. The receiver's RNG seed wins when both are set.
    pub fn merge(mut self, other: FaultPlan) -> FaultPlan {
        self.ops.extend(other.ops);
        if self.rng.is_none() {
            self.rng = other.rng;
        }
        self
    }

    /// Parses a per-job fault script: comma-separated `op:ordinal` items,
    /// `op` one of `fail_launch`, `oom`, `corrupt_transfer`, `flip_bit`,
    /// `hang` and `sick` (a one-launch window), and `slow:ordinal:factor`
    /// with an integer factor ≥ 2. `allow` vets each item, given its text
    /// and fault, before the item joins the (unseeded) plan.
    pub fn parse(
        script: &str,
        allow: impl Fn(&str, Fault) -> Result<(), String>,
    ) -> Result<FaultPlan, String> {
        let mut plan = FaultPlan::new();
        for text in settings::items(script, ',') {
            let (op, args) = settings::split(text, ':')
                .ok_or_else(|| format!("bad fault '{text}' (want op:ordinal)"))?;
            let ordinal = |v| settings::ordinal(v).map_err(refusal(text));
            let (nth, fault) = if op == "slow" {
                let (nth, factor) = settings::split(args, ':')
                    .ok_or_else(|| format!("bad fault '{text}' (want slow:ordinal:factor)"))?;
                (ordinal(nth)?, Fault::Slow(slow_factor(text, factor)?))
            } else {
                let nth = ordinal(args)?;
                let fault = match op {
                    "fail_launch" => Fault::FailLaunch,
                    "oom" => Fault::Oom,
                    "corrupt_transfer" => Fault::CorruptDownload,
                    "flip_bit" => Fault::BitFlip,
                    "hang" => Fault::Hang,
                    "sick" => Fault::SickThrough(nth),
                    other => return Err(format!("unknown fault op '{other}'")),
                };
                (nth, fault)
            };
            allow(text, fault)?;
            plan = plan.at(nth, fault);
        }
        Ok(plan)
    }

    /// Parses a `slot_faults` script: comma-separated `kind@slot:args`
    /// items, `!`-suffixed when persistent: `hang@1:3` (the 3rd launch on
    /// slot 1 hangs), `slow@1:4:100` (the 4th runs 100× slower) and
    /// `sick@2:1-6` (launches 1..=6 fail sick). Returns one merged
    /// `(slot, plan, persistent)` profile per slot, in order of first
    /// mention, persistent when any of its items is.
    pub fn parse_slots(script: &str) -> Result<Vec<(usize, FaultPlan, bool)>, String> {
        let mut profiles: Vec<(usize, FaultPlan, bool)> = Vec::new();
        for text in settings::items(script, ',') {
            let (body, persistent) = text.strip_suffix('!').map_or((text, false), |b| (b, true));
            let form = || format!("bad slot fault '{text}' (want kind@slot:args)");
            let (kind, rest) = settings::split(body, '@').ok_or_else(form)?;
            let (slot, args) = settings::split(rest, ':').ok_or_else(form)?;
            let slot: usize = slot
                .parse()
                .map_err(|e| format!("bad slot in '{text}': {e}"))?;
            let ordinal = |v| settings::ordinal(v).map_err(refusal(text));
            let plan = match kind {
                "hang" => FaultPlan::new().hang_at_launch(ordinal(args)?),
                "slow" => {
                    let (nth, factor) = settings::split(args, ':').ok_or_else(|| {
                        format!("bad slot fault '{text}' (want slow@slot:n:factor)")
                    })?;
                    let factor = slow_factor(text, factor)?;
                    FaultPlan::new().slow_launch(ordinal(nth)?, factor)
                }
                "sick" if args.contains('-') => {
                    let (lo, hi) = settings::range(args).map_err(refusal(text))?;
                    FaultPlan::new().sick_window(lo, hi)
                }
                "sick" => return Err(format!("bad slot fault '{text}' (want sick@slot:lo-hi)")),
                other => return Err(format!("unknown slot fault kind '{other}'")),
            };
            match profiles.iter_mut().find(|(s, ..)| *s == slot) {
                Some((_, merged, p)) => {
                    *merged = std::mem::take(merged).merge(plan);
                    *p |= persistent;
                }
                None => profiles.push((slot, plan, persistent)),
            }
        }
        Ok(profiles)
    }

    /// A randomized plan: over the first `horizon` ordinals of each category,
    /// each ordinal independently faults with probability `rate`. Fully
    /// determined by `seed`.
    pub fn random(seed: u64, horizon: u64, rate: f64) -> Self {
        assert!((0.0..=1.0).contains(&rate), "rate must be in [0, 1]");
        let mut rng = util::Rng::new(seed);
        let mut plan = FaultPlan::new();
        for n in 1..=horizon {
            for fault in [
                Fault::CorruptDownload,
                Fault::FailLaunch,
                Fault::Oom,
                Fault::BitFlip,
            ] {
                if rng.next_f64() < rate {
                    plan.ops.push((n, fault));
                }
            }
        }
        plan.rng = Some(rng);
        plan
    }

    /// True when the plan schedules nothing (the unarmed state).
    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Consumes one scheduled `fault` at ordinal `n` of its category, if
    /// any: faults are one-shot, so a retry of the same operation succeeds
    /// unless the ordinal was scheduled twice.
    pub(crate) fn take(&mut self, fault: Fault, n: u64) -> bool {
        let pos = self.ops.iter().position(|&op| op == (n, fault));
        pos.map(|p| self.ops.remove(p)).is_some()
    }

    /// Consumes a scheduled latency inflation of launch `n`, returning its
    /// factor.
    pub(crate) fn take_slow(&mut self, n: u64) -> Option<f64> {
        let (pos, factor) = self.ops.iter().enumerate().find_map(|(i, &op)| match op {
            (at, Fault::Slow(factor)) if at == n => Some((i, factor)),
            _ => None,
        })?;
        self.ops.remove(pos);
        Some(factor)
    }

    /// Whether launch ordinal `n` falls inside a scripted sick window
    /// (non-consuming: the window persists), returning the window.
    pub(crate) fn sick_window_hit(&self, n: u64) -> Option<(u64, u64)> {
        self.ops.iter().find_map(|&op| match op {
            (lo, Fault::SickThrough(hi)) if (lo..=hi).contains(&n) => Some((lo, hi)),
            _ => None,
        })
    }

    fn rng(&mut self) -> &mut util::Rng {
        self.rng.get_or_insert_with(|| util::Rng::new(0))
    }

    /// Picks the element index a corruption targets in a buffer of `len`.
    pub(crate) fn pick_index(&mut self, len: usize) -> usize {
        debug_assert!(len > 0);
        self.rng().next_range(len as u64) as usize
    }

    /// Picks a high mantissa bit (44..52) so the flipped value stays finite
    /// but diverges far beyond roundoff — detectable only by a consistency
    /// check, not by a finiteness scan.
    pub(crate) fn pick_mantissa_bit(&mut self) -> u32 {
        44 + self.rng().next_range(8) as u32
    }
}

/// Words a refused ordinal or window of a script's `item`.
fn refusal(item: &str) -> impl Fn(ItemError) -> String + '_ {
    move |e| match e {
        ItemError::NotInteger(e) => format!("bad ordinal in '{item}': {e}"),
        ItemError::OutOfRange => format!("fault ordinal in '{item}' is 1-based"),
        ItemError::Reversed => format!("empty sick window in '{item}' (lo > hi)"),
    }
}

/// Reads the latency factor of a `slow` item.
fn slow_factor(item: &str, text: &str) -> Result<f64, String> {
    settings::factor(text).map(f64::from).map_err(|e| match e {
        ItemError::NotInteger(e) => format!("bad factor in '{item}': {e}"),
        _ => format!("slow factor in '{item}' must be >= 2"),
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_plan_injects_nothing() {
        let mut p = FaultPlan::new();
        assert!(p.is_empty());
        for n in 1..100 {
            assert!(!p.take(Fault::CorruptDownload, n));
            assert!(!p.take(Fault::FailLaunch, n));
            assert!(!p.take(Fault::Oom, n));
            assert!(!p.take(Fault::BitFlip, n));
        }
    }

    #[test]
    fn scheduled_faults_are_one_shot() {
        let mut p = FaultPlan::new().fail_launch(3).fail_launch(3);
        assert!(!p.take(Fault::FailLaunch, 2));
        assert!(p.take(Fault::FailLaunch, 3), "first hit fires");
        assert!(p.take(Fault::FailLaunch, 3), "second scheduled copy fires");
        assert!(!p.take(Fault::FailLaunch, 3), "then the ordinal is clean");
    }

    #[test]
    fn random_plan_is_deterministic() {
        let a = FaultPlan::random(42, 1000, 0.05);
        let b = FaultPlan::random(42, 1000, 0.05);
        assert_eq!(a.ops, b.ops);
        for fault in [
            Fault::CorruptDownload,
            Fault::FailLaunch,
            Fault::Oom,
            Fault::BitFlip,
        ] {
            let hits = a.ops.iter().filter(|op| op.1 == fault).count();
            assert!((20..=90).contains(&hits), "{fault:?}: {hits} of 1000 at 5%");
        }
        let c = FaultPlan::random(43, 1000, 0.05);
        assert_ne!(a.ops, c.ops, "seed matters");
    }

    #[test]
    fn every_script_item_parses_to_its_builder_chain() {
        let new = FaultPlan::new;
        for (script, plan) in [
            ("fail_launch:2", new().fail_launch(2)),
            ("oom:1", new().oom_at_alloc(1)),
            ("corrupt_transfer:6", new().corrupt_transfer(6)),
            ("flip_bit:3", new().flip_bit_after_op(3)),
            ("hang:2", new().hang_at_launch(2)),
            ("sick:2", new().sick_window(2, 2)),
            ("slow:3:10", new().slow_launch(3, 10.0)),
            (
                " fail_launch : 2 ,, slow:3:10, corrupt_transfer:3,",
                new()
                    .fail_launch(2)
                    .slow_launch(3, 10.0)
                    .corrupt_transfer(3),
            ),
            ("", new()),
        ] {
            let parsed = FaultPlan::parse(script, |_, _| Ok(()));
            assert_eq!(parsed, Ok(plan), "{script:?}");
        }
        for (script, profiles) in [
            ("hang@0:3", vec![(0, new().hang_at_launch(3), false)]),
            ("hang@0:2!", vec![(0, new().hang_at_launch(2), true)]),
            (
                "slow@1:4:100",
                vec![(1, new().slow_launch(4, 100.0), false)],
            ),
            ("sick@1:2-5!", vec![(1, new().sick_window(2, 5), true)]),
            (
                "hang@1:3, sick@2:1-6!, hang@0:2, slow@1:4:100,",
                vec![
                    (1, new().hang_at_launch(3).slow_launch(4, 100.0), false),
                    (2, new().sick_window(1, 6), true),
                    (0, new().hang_at_launch(2), false),
                ],
            ),
        ] {
            assert_eq!(FaultPlan::parse_slots(script), Ok(profiles), "{script:?}");
        }
    }

    #[test]
    fn mantissa_bit_in_high_range() {
        let mut p = FaultPlan::new().with_seed(7);
        for _ in 0..64 {
            let b = p.pick_mantissa_bit();
            assert!((44..52).contains(&b));
        }
    }

    #[test]
    fn ordinal_zero_never_fires() {
        // Ordinals are 1-based; a plan armed at index 0 is inert — it can
        // never match any real operation, no matter how long the run.
        let mut p = FaultPlan::new()
            .fail_launch(0)
            .corrupt_transfer(0)
            .oom_at_alloc(0)
            .hang_at_launch(0)
            .slow_launch(0, 4.0);
        assert!(!p.is_empty(), "the schedules exist, they just never match");
        for n in 1..=1000 {
            assert!(!p.take(Fault::FailLaunch, n));
            assert!(!p.take(Fault::CorruptDownload, n));
            assert!(!p.take(Fault::Oom, n));
            assert!(!p.take(Fault::Hang, n));
            assert!(p.take_slow(n).is_none());
            assert!(p.sick_window_hit(n).is_none());
        }
    }

    #[test]
    fn overlapping_latency_and_failure_on_same_op_both_fire() {
        // Latency inflation and a fault scheduled at the same ordinal are
        // independent: the op is slow *and* fails.
        let mut p = FaultPlan::new().slow_launch(3, 8.0).fail_launch(3);
        assert_eq!(p.take_slow(3), Some(8.0));
        assert!(p.take(Fault::FailLaunch, 3));
        // Both consumed; the retried ordinal is clean.
        assert!(p.take_slow(3).is_none());
        assert!(!p.take(Fault::FailLaunch, 3));
    }

    #[test]
    fn sick_windows_persist_across_hits() {
        let p = FaultPlan::new().sick_window(4, 6);
        assert!(p.sick_window_hit(3).is_none());
        assert_eq!(p.sick_window_hit(4), Some((4, 6)));
        assert_eq!(p.sick_window_hit(6), Some((4, 6)), "non-consuming");
        assert!(p.sick_window_hit(7).is_none());
    }

    #[test]
    fn merge_concatenates_schedules() {
        let job = FaultPlan::new().with_seed(9).fail_launch(2);
        let slot = FaultPlan::new().hang_at_launch(1).sick_window(10, 12);
        let mut merged = job.merge(slot);
        assert!(merged.take(Fault::FailLaunch, 2));
        assert!(merged.take(Fault::Hang, 1));
        assert!(merged.sick_window_hit(11).is_some());
    }

    #[test]
    fn sick_errors_classify_as_device_sick() {
        let hang = DeviceError::Hang {
            kernel: "dgemm",
            launch_index: 3,
        };
        let sick = DeviceError::SickDevice {
            kernel: "dgemm",
            launch_index: 3,
            window: (2, 5),
        };
        let launch = DeviceError::KernelLaunchFailure {
            kernel: "dgemm",
            launch_index: 3,
        };
        assert!(hang.is_sick());
        assert!(sick.is_sick());
        assert!(!launch.is_sick());
        assert!(hang.to_string().contains("deadline"), "{hang}");
        assert!(sick.to_string().contains("sick window"), "{sick}");
    }

    #[test]
    fn errors_display_context() {
        let e = DeviceError::KernelLaunchFailure {
            kernel: "dgemm",
            launch_index: 17,
        };
        assert!(e.to_string().contains("dgemm"));
        assert!(e.to_string().contains("17"));
        let o = DeviceError::ArenaExhausted { requested: 4096 };
        assert!(o.to_string().contains("4096"));
    }
}
