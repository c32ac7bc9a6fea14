//! Phase profiling and simulated time.
//!
//! [`PhaseTimer`] accumulates wall-clock time in a fixed set of phase slots
//! — this regenerates Table I of the paper, which attributes simulation
//! time to delayed updates, stratification, clustering, wrapping, and
//! physical measurements (`dqmc::profile` numbers those five slots).
//!
//! [`SimClock`] is a *simulated* clock used by the GPU device model
//! (`gpusim`): device kernels advance it analytically from a cost model
//! instead of real time, so the GPU experiments are deterministic and run on
//! machines without an accelerator.

use std::time::{Duration, Instant};

/// Accumulates wall-clock time in `N` phase slots, indexed by the caller's
/// phase numbering.
#[derive(Debug)]
pub struct PhaseTimer<const N: usize> {
    acc: [Duration; N],
}

impl<const N: usize> Default for PhaseTimer<N> {
    fn default() -> Self {
        PhaseTimer {
            acc: [Duration::ZERO; N],
        }
    }
}

impl<const N: usize> PhaseTimer<N> {
    /// Creates an empty timer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds an explicit duration to `phase`.
    pub fn add(&mut self, phase: usize, d: Duration) {
        self.acc[phase] += d;
    }

    /// Times a closure under `phase` and returns its result.
    pub fn time<T>(&mut self, phase: usize, f: impl FnOnce() -> T) -> T {
        let t0 = Instant::now();
        let out = f();
        self.add(phase, t0.elapsed());
        out
    }

    /// Total accumulated time of `phase`.
    pub fn get(&self, phase: usize) -> Duration {
        self.acc[phase]
    }

    /// Sum over all phases.
    pub fn total(&self) -> Duration {
        self.acc.iter().sum()
    }
}

/// Deterministic simulated clock, advanced analytically by cost models.
///
/// Time is tracked in seconds as `f64`; the device model in `gpusim` adds
/// kernel/transfer durations computed from bandwidth and throughput figures.
#[derive(Clone, Debug, Default)]
pub struct SimClock {
    now: f64,
}

impl SimClock {
    /// Creates a clock at t = 0.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current simulated time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Advances the clock by `seconds` (must be non-negative and finite).
    pub fn advance(&mut self, seconds: f64) {
        assert!(
            seconds.is_finite() && seconds >= 0.0,
            "invalid advance: {seconds}"
        );
        self.now += seconds;
    }

    /// Resets to t = 0.
    pub fn reset(&mut self) {
        self.now = 0.0;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn phase_accumulation_and_percentages() {
        let mut t = PhaseTimer::<2>::new();
        t.add(0, Duration::from_millis(30));
        t.add(1, Duration::from_millis(70));
        t.add(0, Duration::from_millis(30));
        assert_eq!(t.get(0), Duration::from_millis(60));
        assert_eq!(t.total(), Duration::from_millis(130));
        // A phase's share of the total is what a Table I row reports.
        let pct = |p| 100.0 * t.get(p).as_secs_f64() / t.total().as_secs_f64();
        assert!((pct(0) - 100.0 * 60.0 / 130.0).abs() < 1e-9);
        assert!((pct(1) - 100.0 * 70.0 / 130.0).abs() < 1e-9);
    }

    #[test]
    fn time_closure_returns_value() {
        let mut t = PhaseTimer::<1>::new();
        let v = t.time(0, || 41 + 1);
        assert_eq!(v, 42);
        assert_eq!(t.total(), t.get(0));
    }

    #[test]
    fn empty_timer_percentages() {
        // Every slot of an empty timer reads zero, so a Table I report of
        // it has a zero total and every percentage falls back to zero.
        let t = PhaseTimer::<5>::new();
        assert_eq!(t.total(), Duration::ZERO);
        assert!((0..5).all(|p| t.get(p) == Duration::ZERO));
    }

    #[test]
    fn sim_clock_advances() {
        let mut c = SimClock::new();
        c.advance(1.5);
        c.advance(0.5);
        assert!((c.now() - 2.0).abs() < 1e-15);
        c.reset();
        assert_eq!(c.now(), 0.0);
    }

    #[test]
    #[should_panic(expected = "invalid advance")]
    fn sim_clock_rejects_negative() {
        SimClock::new().advance(-1.0);
    }
}
