//! Phase attribution matching the paper's Table I.
//!
//! The paper splits simulation time into five buckets: delayed rank-1
//! updates, stratification, clustering, wrapping, and physical measurements.
//! [`phases`] fixes the canonical names so every component and the Table I
//! harness agree on the attribution.

use std::time::Duration;

/// Canonical phases (Table I rows). Each constant is its row's index in
/// [`phases::ALL`] and its slot in the [`PhaseTimer`].
pub mod phases {
    /// Metropolis proposals + delayed rank-1 Green's function updates.
    pub const DELAYED_UPDATE: usize = 0;
    /// Stratified Q·D·T recomputation of G.
    pub const STRATIFICATION: usize = 1;
    /// Building cluster products `B̂`.
    pub const CLUSTERING: usize = 2;
    /// Wrapping `G ← B G B⁻¹`.
    pub const WRAPPING: usize = 3;
    /// Equal-time physical measurements.
    pub const MEASUREMENT: usize = 4;

    /// All phase names, in Table I row order.
    pub const ALL: [&str; 5] = [
        "delayed-update",
        "stratification",
        "clustering",
        "wrapping",
        "measurement",
    ];
}

/// Wall-clock time per Table I phase, one slot each.
pub type PhaseTimer = util::PhaseTimer<{ phases::ALL.len() }>;

/// A Table I style report: per-phase seconds and percentage of total.
#[derive(Clone, Debug)]
pub struct PhaseReport {
    /// `(phase, seconds, percent)` rows in Table I order.
    pub rows: Vec<(String, f64, f64)>,
    /// Total seconds across all phases.
    pub total: f64,
}

/// Builds a report from a timer, one row per canonical phase.
pub fn report(timer: &PhaseTimer) -> PhaseReport {
    let total: f64 = timer.total().as_secs_f64();
    let pct = |d: Duration| {
        if total > 0.0 {
            100.0 * d.as_secs_f64() / total
        } else {
            0.0
        }
    };
    let mut rows = Vec::new();
    for (p, name) in phases::ALL.iter().enumerate() {
        let d = timer.get(p);
        rows.push((name.to_string(), d.as_secs_f64(), pct(d)));
    }
    PhaseReport { rows, total }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn report_orders_canonical_phases() {
        let mut t = PhaseTimer::new();
        t.add(phases::WRAPPING, Duration::from_millis(250));
        t.add(phases::DELAYED_UPDATE, Duration::from_millis(750));
        let r = report(&t);
        assert_eq!(r.rows.len(), 5);
        assert_eq!(r.rows[0].0, "delayed-update");
        assert!((r.rows[0].2 - 75.0).abs() < 1e-9);
        assert_eq!(r.rows[3].0, "wrapping");
        assert!((r.rows[3].2 - 25.0).abs() < 1e-9);
        assert!((r.total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn empty_timer_zero_percentages() {
        let r = report(&PhaseTimer::new());
        assert_eq!(r.total, 0.0);
        assert!(r.rows.iter().all(|(_, s, p)| *s == 0.0 && *p == 0.0));
    }
}
