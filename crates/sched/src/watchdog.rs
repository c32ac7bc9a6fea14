//! The quantum watchdog: fail-slow detection on a logical clock.
//!
//! The device model charges every operation's analytic cost to a
//! [`util::SimClock`]; a shared meter mirrors those advances as integer
//! nanoseconds. [`QuantumWatchdog`] reads the meter at each
//! scheduling-quantum boundary and compares the quantum's cost against a
//! soft deadline — a logical clock, so every decision replays identically
//! across runs and machines. A latency-inflated device (the `slow` fault
//! class) produces bit-identical numerics but blows the budget — which is
//! exactly how a fail-slow device looks in a real fleet: correct answers,
//! uselessly late.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What the quantum watchdog concluded at a quantum boundary.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum DeadlineVerdict {
    /// The quantum's logical cost was within budget.
    Healthy,
    /// The soft deadline fired: the quantum cost more logical seconds than
    /// the budget allows. The scheduler parks the job cooperatively and
    /// indicts the device slot.
    SoftExceeded {
        /// The quantum's observed logical cost, in seconds.
        cost_s: f64,
    },
}

/// Per-placement fail-slow watchdog over the device's logical clock.
///
/// One watchdog is created per device placement; its meter is attached to
/// the device clock before the first kernel, and
/// [`QuantumWatchdog::observe_quantum`] is called after every quantum.
#[derive(Debug)]
pub struct QuantumWatchdog {
    /// Soft deadline per quantum, in logical device-seconds.
    budget_s: f64,
    meter: Arc<AtomicU64>,
    last_ns: u64,
}

impl QuantumWatchdog {
    /// A watchdog allowing each quantum `budget_s` logical device-seconds.
    pub fn new(budget_s: f64) -> Self {
        QuantumWatchdog {
            budget_s,
            meter: Arc::new(AtomicU64::new(0)),
            last_ns: 0,
        }
    }

    /// The shared meter to install on the device clock
    /// (`Device::set_cost_meter`).
    pub fn meter(&self) -> Arc<AtomicU64> {
        Arc::clone(&self.meter)
    }

    /// Charges the logical cost accumulated since the previous call against
    /// the per-quantum budget.
    pub fn observe_quantum(&mut self) -> DeadlineVerdict {
        let now = self.meter.load(Ordering::Relaxed);
        let delta_ns = now.saturating_sub(self.last_ns);
        self.last_ns = now;
        let cost_s = delta_ns as f64 / 1e9;
        if cost_s > self.budget_s {
            DeadlineVerdict::SoftExceeded { cost_s }
        } else {
            DeadlineVerdict::Healthy
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantum_watchdog_charges_meter_deltas() {
        let mut wd = QuantumWatchdog::new(1.0);
        let meter = wd.meter();
        meter.fetch_add(900_000_000, Ordering::Relaxed); // 0.9 s
        assert_eq!(wd.observe_quantum(), DeadlineVerdict::Healthy);
        meter.fetch_add(1_500_000_000, Ordering::Relaxed); // +1.5 s
        match wd.observe_quantum() {
            DeadlineVerdict::SoftExceeded { cost_s } => {
                assert!((cost_s - 1.5).abs() < 1e-9, "{cost_s}")
            }
            v => panic!("expected soft deadline, got {v:?}"),
        }
        // The deadline is per quantum, not cumulative: a clean quantum
        // after a slow one is healthy again.
        assert_eq!(wd.observe_quantum(), DeadlineVerdict::Healthy);
    }
}
