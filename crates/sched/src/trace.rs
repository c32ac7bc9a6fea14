//! Progress/trace event stream of a sweep run.
//!
//! Every scheduling decision emits a [`TraceEvent`]: job started (and
//! where), yielded at a checkpoint boundary, completed, retried after a
//! panic, parked off a sick device, or failed for good; and every breaker
//! transition of the device pool. The CLI turns these into progress lines;
//! the determinism tests use them to *prove* that preemptions and placement
//! changes actually happened in runs whose reports are then asserted
//! byte-identical.
//!
//! Events describe the schedule, which is timing-dependent by nature — the
//! determinism contract covers the report's observables, never this stream.

use std::fmt;
use std::sync::Arc;
// Poison recovery via util::relock is sound here: `Vec::push` either
// appended or it didn't — a panic unwinding through a worker must not take
// the whole trace (and with it the record of what ran where) down.
use util::sync::{relock, Mutex};

/// Where a job ran for one scheduling quantum.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Host `ComputeBackend` (no device lease was free).
    Host,
    /// Leased device-pool slot.
    Device {
        /// Pool slot id.
        slot: usize,
    },
}

impl fmt::Display for Placement {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Placement::Host => write!(f, "host"),
            Placement::Device { slot } => write!(f, "dev{slot}"),
        }
    }
}

/// One scheduling decision.
#[derive(Clone, Debug)]
pub enum TraceEvent {
    /// A worker picked the job up (fresh or resumed from a parked image).
    Started {
        /// Grid point index.
        point: usize,
        /// Chain index within the point.
        chain: usize,
        /// Worker id.
        worker: usize,
        /// Backend placement for this run.
        placement: Placement,
        /// True when resuming a parked checkpoint image.
        resumed: bool,
    },
    /// The job parked itself at a checkpoint boundary and requeued.
    Yielded {
        /// Grid point index.
        point: usize,
        /// Chain index within the point.
        chain: usize,
        /// Sweeps (warmup + measurement) completed so far.
        sweeps_done: usize,
    },
    /// The job finished all its sweeps.
    Completed {
        /// Grid point index.
        point: usize,
        /// Chain index within the point.
        chain: usize,
        /// Worker id.
        worker: usize,
    },
    /// The job's run panicked (recovery ladder exhausted) and will restart
    /// from its last parked image (or from scratch).
    Retried {
        /// Grid point index.
        point: usize,
        /// Chain index within the point.
        chain: usize,
        /// 1-based restart attempt.
        attempt: u32,
    },
    /// The job exhausted its scheduler-level retry budget.
    Failed {
        /// Grid point index.
        point: usize,
        /// Chain index within the point.
        chain: usize,
        /// Total attempts consumed.
        attempts: u32,
    },
    /// The soft deadline fired — a launch hung, was slowed to the device's
    /// launch deadline, or failed in a sick window: the job parked at its
    /// last checkpoint image and was requeued with the suspect slot
    /// excluded.
    SoftDeadline {
        /// Grid point index.
        point: usize,
        /// Chain index within the point.
        chain: usize,
        /// The suspect device slot (`usize::MAX` for a host placement).
        slot: usize,
    },
    /// The device-pool circuit breaker opened (or re-opened after a failed
    /// probation probe): the slot entered quarantine.
    BreakerOpen {
        /// The quarantined slot.
        slot: usize,
        /// Logical lease-clock ticks until a probation probe may go out.
        backoff: u64,
        /// True when a failed probe renewed the quarantine.
        reopened: bool,
    },
    /// A quarantined slot's backoff elapsed and a probation probe lease
    /// went out.
    ProbeGranted {
        /// The probed slot.
        slot: usize,
    },
    /// A probation probe succeeded and the slot was re-admitted.
    SlotReadmitted {
        /// The healthy-again slot.
        slot: usize,
    },
}

impl fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceEvent::Started {
                point,
                chain,
                worker,
                placement,
                resumed,
            } => {
                let verb = if *resumed { "resume" } else { "start" };
                write!(f, "[w{worker}] {verb} p{point}c{chain} on {placement}")
            }
            TraceEvent::Yielded {
                point,
                chain,
                sweeps_done,
            } => write!(f, "yield p{point}c{chain} at {sweeps_done} sweeps"),
            TraceEvent::Completed {
                point,
                chain,
                worker,
            } => write!(f, "[w{worker}] done p{point}c{chain}"),
            TraceEvent::Retried {
                point,
                chain,
                attempt,
            } => write!(f, "retry p{point}c{chain} (attempt {attempt})"),
            TraceEvent::Failed {
                point,
                chain,
                attempts,
            } => write!(f, "FAILED p{point}c{chain} after {attempts} attempts"),
            TraceEvent::SoftDeadline { point, chain, slot } => {
                write!(f, "soft-deadline park p{point}c{chain} (")?;
                if *slot == usize::MAX {
                    write!(f, "host")?;
                } else {
                    write!(f, "dev{slot}")?;
                }
                write!(f, " suspect)")
            }
            TraceEvent::BreakerOpen {
                slot,
                backoff,
                reopened,
            } => {
                let verb = if *reopened { "re-opened" } else { "opened" };
                write!(f, "breaker {verb} on dev{slot} (backoff {backoff})")
            }
            TraceEvent::ProbeGranted { slot } => write!(f, "probation probe on dev{slot}"),
            TraceEvent::SlotReadmitted { slot } => write!(f, "dev{slot} re-admitted"),
        }
    }
}

/// Thread-safe event collector shared between workers. Cloning clones the
/// handle; all clones append to the same log.
#[derive(Clone, Debug, Default)]
pub struct EventLog {
    events: Arc<Mutex<Vec<TraceEvent>>>,
}

impl EventLog {
    /// An empty log.
    pub fn new() -> Self {
        EventLog::default()
    }

    /// Appends one event.
    pub fn push(&self, e: TraceEvent) {
        relock(self.events.lock()).push(e);
    }

    /// A snapshot of everything recorded so far.
    pub fn snapshot(&self) -> Vec<TraceEvent> {
        relock(self.events.lock()).clone()
    }

    /// Count of events matching a predicate.
    pub fn count(&self, pred: impl Fn(&TraceEvent) -> bool) -> usize {
        relock(self.events.lock())
            .iter()
            .filter(|e| pred(e))
            .count()
    }

    /// Poisons the event mutex by panicking while holding it — the
    /// regression hook for the poison-recovery tests. Panicking is the
    /// whole point here.
    // dqmc-lint: allow(panic_site)
    #[cfg(test)]
    pub(crate) fn poison_for_test(&self) {
        let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let _guard = relock(self.events.lock());
            panic!("poisoning event log for test");
        }));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_render_compactly() {
        let e = TraceEvent::Started {
            point: 3,
            chain: 1,
            worker: 0,
            placement: Placement::Device { slot: 2 },
            resumed: true,
        };
        assert_eq!(e.to_string(), "[w0] resume p3c1 on dev2");
        let y = TraceEvent::Yielded {
            point: 0,
            chain: 0,
            sweeps_done: 25,
        };
        assert_eq!(y.to_string(), "yield p0c0 at 25 sweeps");
    }

    #[test]
    fn log_collects_and_counts() {
        let log = EventLog::new();
        let h = log.clone();
        h.push(TraceEvent::Completed {
            point: 0,
            chain: 0,
            worker: 0,
        });
        h.push(TraceEvent::Yielded {
            point: 0,
            chain: 1,
            sweeps_done: 5,
        });
        assert_eq!(log.snapshot().len(), 2);
        assert_eq!(log.count(|e| matches!(e, TraceEvent::Yielded { .. })), 1);
    }

    #[test]
    fn health_events_render_compactly() {
        let s = TraceEvent::SoftDeadline {
            point: 1,
            chain: 0,
            slot: 2,
        };
        assert_eq!(s.to_string(), "soft-deadline park p1c0 (dev2 suspect)");
        let h = TraceEvent::SoftDeadline {
            point: 0,
            chain: 1,
            slot: usize::MAX,
        };
        assert_eq!(h.to_string(), "soft-deadline park p0c1 (host suspect)");
        let b = TraceEvent::BreakerOpen {
            slot: 1,
            backoff: 8,
            reopened: true,
        };
        assert_eq!(b.to_string(), "breaker re-opened on dev1 (backoff 8)");
        assert_eq!(
            TraceEvent::ProbeGranted { slot: 0 }.to_string(),
            "probation probe on dev0"
        );
        assert_eq!(
            TraceEvent::SlotReadmitted { slot: 0 }.to_string(),
            "dev0 re-admitted"
        );
    }

    #[test]
    fn event_log_survives_poisoning_panic() {
        let log = EventLog::new();
        log.push(TraceEvent::Completed {
            point: 0,
            chain: 0,
            worker: 0,
        });
        log.poison_for_test();
        log.push(TraceEvent::ProbeGranted { slot: 0 });
        assert_eq!(log.snapshot().len(), 2, "events intact through poisoning");
        assert_eq!(
            log.count(|e| matches!(e, TraceEvent::ProbeGranted { .. })),
            1
        );
    }
}
