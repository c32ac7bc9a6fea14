//! Recovery policy and event log for fault-tolerant sweeping.
//!
//! A production-scale QMC run must survive device faults, numerical
//! blow-ups and mid-run kills without losing its Markov chain. This module
//! holds the knobs and bookkeeping; the state machine itself — one ladder
//! for any number of walkers — lives in [`crate::sweep`], whose module docs
//! tabulate it by fault class and scope:
//!
//! 1. **Retry** — up to [`RecoveryPolicy::max_retries`] times per incident.
//!    One-shot faults (a dropped transfer, a transient launch failure)
//!    vanish on re-execution, and the device backend re-uploads its
//!    resident operands first.
//! 2. **Escalate** — device-class faults that persist abandon the device
//!    and fall back to the host path for the rest of the run, for every
//!    walker the driver steps; taint-class
//!    faults (non-finite cluster products — the long-B-chain instability
//!    the paper's stratification exists to control) *shrink the cluster
//!    size* of the affected walker to its largest proper divisor, trading
//!    speed for stability at runtime exactly as Bauer (2020) prescribes.
//! 3. **Repair** — a tainted Green's function is rebuilt from the HS field
//!    (which is always clean), resynchronizing the sign.
//!
//! Only when every rung is exhausted does the run abort. Every action is
//! recorded in a [`RecoveryLog`] so tests — and the CLI summary — can prove
//! what happened.

use std::fmt;

/// Knobs controlling the recovery state machine.
#[derive(Clone, Debug, PartialEq)]
pub struct RecoveryPolicy {
    /// Master switch. Disabled, any backend fault is a panic (the pre-fault
    /// behavior, and what `checked-invariants` CI relies on for genuine
    /// logic bugs).
    pub enabled: bool,
    /// Plain re-executions of the failed phase before escalating.
    pub max_retries: u32,
    /// Floor for adaptive cluster-size shrinking.
    pub min_cluster: usize,
}

/// Relative wrap-vs-recompute divergence at a cluster boundary above which
/// the cluster cache is declared corrupt and rebuilt (the silent bit-flip
/// detector). Healthy runs sit many orders below this.
pub(crate) const WRAP_TOLERANCE: f64 = 1e-3;

impl Default for RecoveryPolicy {
    fn default() -> Self {
        RecoveryPolicy {
            enabled: true,
            max_retries: 2,
            min_cluster: 1,
        }
    }
}

impl RecoveryPolicy {
    /// A policy with recovery switched off (fail-fast).
    pub fn disabled() -> Self {
        RecoveryPolicy {
            enabled: false,
            ..RecoveryPolicy::default()
        }
    }
}

/// What went wrong.
#[derive(Clone, Debug)]
pub enum RecoveryCause {
    /// The backend reported a device failure (launch, arena, transfer).
    Device(String),
    /// Non-finite data was detected (cluster product, wrapped or injected G).
    NonFinite(String),
    /// The wrap-vs-recompute monitor exceeded the policy tolerance,
    /// indicating silent (finite) corruption of cached cluster data.
    WrapDivergence {
        /// The observed relative difference.
        diff: f64,
    },
    /// The backend indicted the *device itself* (hung op, sick window).
    /// The in-core ladder refuses these: they escape to the scheduler.
    Sick(String),
}

/// What the recovery layer did about it.
#[derive(Clone, Debug)]
pub enum RecoveryAction {
    /// Re-executed the failed phase.
    Retry {
        /// 1-based attempt number within the incident.
        attempt: u32,
    },
    /// Shrunk the runtime cluster size (stabilization cadence).
    ClusterShrink {
        /// Cluster size before.
        from: usize,
        /// Cluster size after.
        to: usize,
    },
    /// Abandoned the device backend for the host path.
    HostFallback,
    /// Rebuilt the Green's function from the HS field.
    TaintRepair,
    /// Refused to handle the fault in-core and escalated it to the caller
    /// (the scheduler parks the job and indicts the device slot).
    Escalated,
}

/// One recovery incident: where, why, and what was done.
#[derive(Clone, Debug)]
pub struct RecoveryEvent {
    /// Sweep counter at the time of the incident.
    pub sweep: u64,
    /// Imaginary-time slice being processed.
    pub slice: usize,
    /// The detected failure.
    pub cause: RecoveryCause,
    /// The response.
    pub action: RecoveryAction,
}

impl fmt::Display for RecoveryCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecoveryCause::Device(d) => write!(f, "device: {d}"),
            RecoveryCause::NonFinite(d) => write!(f, "non-finite: {d}"),
            RecoveryCause::WrapDivergence { diff } => write!(f, "wrap divergence {diff:.3e}"),
            RecoveryCause::Sick(d) => write!(f, "sick device: {d}"),
        }
    }
}

impl fmt::Display for RecoveryEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let cause = &self.cause;
        let action = match &self.action {
            RecoveryAction::Retry { attempt } => format!("retry #{attempt}"),
            RecoveryAction::ClusterShrink { from, to } => format!("shrink k {from}→{to}"),
            RecoveryAction::HostFallback => "host fallback".to_string(),
            RecoveryAction::TaintRepair => "taint repair".to_string(),
            RecoveryAction::Escalated => "escalated to scheduler".to_string(),
        };
        write!(
            f,
            "sweep {} slice {}: {cause} → {action}",
            self.sweep, self.slice
        )
    }
}

/// Append-only log of recovery incidents.
///
/// `prior` carries the event count across a checkpoint/resume cycle: a
/// resumed run whose pre-kill half saw recovery must still report (and
/// relax the incremental-sign assertion for) those incidents.
#[derive(Clone, Debug, Default)]
pub struct RecoveryLog {
    events: Vec<RecoveryEvent>,
    prior: u64,
}

impl RecoveryLog {
    /// An empty log.
    pub fn new() -> Self {
        RecoveryLog::default()
    }

    /// Records an incident.
    pub fn push(&mut self, event: RecoveryEvent) {
        self.events.push(event);
    }

    /// Incidents recorded this process (excludes `prior`).
    pub fn events(&self) -> &[RecoveryEvent] {
        &self.events
    }

    /// Total incidents including those inherited from a checkpoint.
    pub fn total(&self) -> u64 {
        self.prior + self.events.len() as u64
    }

    /// True when no incident has ever occurred, before or after a resume.
    pub fn is_empty(&self) -> bool {
        self.total() == 0
    }

    /// Sets the count of incidents inherited from a checkpoint.
    pub fn set_prior(&mut self, prior: u64) {
        self.prior = prior;
    }

    /// Per-action-class counts of this process's events (excludes `prior`,
    /// whose classification did not survive the checkpoint).
    pub fn tallies(&self) -> RecoveryTallies {
        let mut t = RecoveryTallies::default();
        for e in &self.events {
            match e.action {
                RecoveryAction::Retry { .. } => t.retries += 1,
                RecoveryAction::ClusterShrink { .. } => t.shrinks += 1,
                RecoveryAction::HostFallback => t.fallbacks += 1,
                RecoveryAction::TaintRepair => t.repairs += 1,
                RecoveryAction::Escalated => t.escalations += 1,
            }
        }
        t
    }

    /// One-line summary: counts per action class.
    pub fn summary(&self) -> String {
        if self.is_empty() {
            return "no recovery events".to_string();
        }
        let t = self.tallies();
        format!(
            "{} recovery events ({} prior): {} retries, {} cluster shrinks, \
             {} host fallbacks, {} taint repairs, {} escalations",
            self.total(),
            self.prior,
            t.retries,
            t.shrinks,
            t.fallbacks,
            t.repairs,
            t.escalations,
        )
    }
}

/// Counts of recovery actions by class — the classification half of the
/// taxonomy, surfaced through scheduler reports and `dqmc-run sweep --trace`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RecoveryTallies {
    /// Plain re-executions.
    pub retries: u64,
    /// Adaptive cluster-size shrinks.
    pub shrinks: u64,
    /// Device abandonments for the host path.
    pub fallbacks: u64,
    /// Green's-function rebuilds from the HS field.
    pub repairs: u64,
    /// Faults refused in-core and escalated to the scheduler.
    pub escalations: u64,
}

impl RecoveryTallies {
    /// Element-wise sum (pooling across chains).
    pub fn merge(&mut self, other: &RecoveryTallies) {
        self.retries += other.retries;
        self.shrinks += other.shrinks;
        self.fallbacks += other.fallbacks;
        self.repairs += other.repairs;
        self.escalations += other.escalations;
    }
}

/// The next smaller cluster size in the shrink ladder: `k` divided by its
/// smallest prime factor (so every old cluster boundary remains a boundary
/// — `k_new | k_old` — and a mid-run shrink never strands the sweep's
/// recompute schedule). Returns 1 for `k ≤ 1`.
pub fn shrink_cluster_size(k: usize) -> usize {
    if k <= 1 {
        return 1;
    }
    let mut p = 2;
    while p * p <= k {
        if k.is_multiple_of(p) {
            return k / p;
        }
        p += 1;
    }
    // k is prime: the only proper divisor is 1.
    1
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn shrink_ladder_divides_and_terminates() {
        assert_eq!(shrink_cluster_size(16), 8);
        assert_eq!(shrink_cluster_size(10), 5);
        assert_eq!(shrink_cluster_size(9), 3);
        assert_eq!(shrink_cluster_size(7), 1);
        assert_eq!(shrink_cluster_size(1), 1);
        assert_eq!(shrink_cluster_size(0), 1);
        // Each step strictly divides: the ladder reaches 1 in finitely many
        // steps from any start.
        let mut k = 360;
        let mut steps = 0;
        while k > 1 {
            let next = shrink_cluster_size(k);
            assert!(next < k && k % next == 0);
            k = next;
            steps += 1;
        }
        assert!(steps <= 9);
    }

    #[test]
    fn log_counts_prior_events() {
        let mut log = RecoveryLog::new();
        assert!(log.is_empty());
        log.set_prior(3);
        assert!(!log.is_empty());
        assert_eq!(log.total(), 3);
        log.push(RecoveryEvent {
            sweep: 1,
            slice: 0,
            cause: RecoveryCause::Device("x".into()),
            action: RecoveryAction::Retry { attempt: 1 },
        });
        assert_eq!(log.total(), 4);
        assert_eq!(log.events().len(), 1);
        assert!(log.summary().contains("4 recovery events"));
    }

    #[test]
    fn event_display_is_readable() {
        let e = RecoveryEvent {
            sweep: 12,
            slice: 7,
            cause: RecoveryCause::WrapDivergence { diff: 0.25 },
            action: RecoveryAction::ClusterShrink { from: 10, to: 5 },
        };
        let s = e.to_string();
        assert!(s.contains("sweep 12"), "{s}");
        assert!(s.contains("shrink k 10→5"), "{s}");
    }
}
