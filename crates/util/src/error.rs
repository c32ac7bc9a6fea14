//! Structured error taxonomy for the DQMC stack.
//!
//! Every failure that crosses a crate boundary — a device call that did
//! not complete, a fault escaping the recovery ladder, a tainted Green's
//! function with recovery disabled, a device that hung past its launch
//! deadline — is classified into one [`Severity`] class. The sweep's
//! backend seam speaks it too: `gpusim` classifies each device error as
//! `DeviceSick` or `Transient`, and the sweep's ladder keys on that. The class, not a string match, keys every policy
//! decision downstream, in one exhaustive `match` in the scheduler's
//! runner: whether the scheduler retries the job, whether the retry
//! consumes an attempt, whether the suspect device slot is excluded from
//! replacement, and whether the pool's circuit breaker records a strike
//! against the slot.
//!
//! | severity     | meaning                                | scheduler policy              |
//! |--------------|----------------------------------------|-------------------------------|
//! | `Transient`  | retry may succeed as-is                | retry, consumes an attempt    |
//! | `DeviceSick` | the *device* is suspect, not the job   | requeue free, exclude slot    |
//! | `Fatal`      | no automatic recovery can help         | fail the job immediately      |
//!
//! The `Display` of a [`DqmcError`] embeds the original low-level detail
//! verbatim, so legacy `#[should_panic(expected = "...")]` tests keep
//! matching when an error is converted back into a panic by an infallible
//! wrapper.

use std::fmt;

/// Failure classification: what a supervisor should *do* about the error.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum Severity {
    /// Retrying the same work, possibly on the same device, may succeed.
    Transient,
    /// The device (not the job) is suspect: requeue elsewhere, quarantine.
    DeviceSick,
    /// No automatic recovery applies; fail fast and report.
    Fatal,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            Severity::Transient => "transient",
            Severity::DeviceSick => "device-sick",
            Severity::Fatal => "fatal",
        };
        f.write_str(s)
    }
}

/// A classified failure crossing a crate boundary.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DqmcError {
    /// What a supervisor should do about it.
    pub severity: Severity,
    /// The subsystem that raised it (e.g. `"sweep"`, `"wrap"`, `"device"`).
    pub origin: &'static str,
    /// The low-level detail, preserved verbatim from the original fault.
    pub detail: String,
}

impl DqmcError {
    fn new(severity: Severity, origin: &'static str, detail: impl Into<String>) -> Self {
        DqmcError {
            severity,
            origin,
            detail: detail.into(),
        }
    }

    /// A transient failure: retry may succeed.
    pub fn transient(origin: &'static str, detail: impl Into<String>) -> Self {
        Self::new(Severity::Transient, origin, detail)
    }

    /// A sick-device failure: a launch that hung past its deadline or
    /// failed inside a sick window.
    pub fn device_sick(origin: &'static str, detail: impl Into<String>) -> Self {
        Self::new(Severity::DeviceSick, origin, detail)
    }

    /// A fatal failure: no automatic recovery applies.
    pub fn fatal(origin: &'static str, detail: impl Into<String>) -> Self {
        Self::new(Severity::Fatal, origin, detail)
    }

    /// Classifies a panic payload caught by a `catch_unwind` backstop.
    ///
    /// Panics are the legacy, last-resort failure channel; anything still
    /// arriving this way is either one of the known terminal messages from
    /// the recovery ladder (classified `Fatal` — the ladder already tried
    /// everything) or an unknown bug (classified `Transient` so the legacy
    /// attempt-counted retry path still applies as a backstop).
    pub fn from_panic(payload: &(dyn std::any::Any + Send)) -> Self {
        let msg = payload
            .downcast_ref::<&'static str>()
            .map(|s| (*s).to_string())
            .or_else(|| payload.downcast_ref::<String>().cloned())
            .unwrap_or_else(|| "non-string panic payload".to_string());
        let fatal = msg.contains("recovery disabled")
            || msg.contains("all recovery rungs exhausted")
            || msg.contains("unrecoverable");
        if fatal {
            DqmcError::fatal("panic", msg)
        } else {
            DqmcError::transient("panic", msg)
        }
    }
}

impl fmt::Display for DqmcError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}] {}: {}", self.severity, self.origin, self.detail)
    }
}

impl std::error::Error for DqmcError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn severity_keys_policy_predicates() {
        // The severity is the one key the runner's policy matches on.
        assert_eq!(DqmcError::transient("t", "x").severity, Severity::Transient);
        assert_eq!(
            DqmcError::device_sick("t", "x").severity,
            Severity::DeviceSick
        );
        assert_eq!(DqmcError::fatal("t", "x").severity, Severity::Fatal);
    }

    #[test]
    fn display_preserves_detail_verbatim() {
        let e = DqmcError::fatal("sweep", "backend fault with recovery disabled: boom");
        let s = e.to_string();
        assert!(s.contains("recovery disabled"), "{s}");
        assert!(s.contains("[fatal]"), "{s}");
    }

    #[test]
    fn panic_payload_classification() {
        let p: Box<dyn std::any::Any + Send> =
            Box::new("unrecoverable fault (all recovery rungs exhausted): x".to_string());
        assert_eq!(DqmcError::from_panic(p.as_ref()).severity, Severity::Fatal);
        let p: Box<dyn std::any::Any + Send> = Box::new("index out of bounds");
        assert_eq!(
            DqmcError::from_panic(p.as_ref()).severity,
            Severity::Transient
        );
        let p: Box<dyn std::any::Any + Send> = Box::new(42u32);
        let e = DqmcError::from_panic(p.as_ref());
        assert!(e.detail.contains("non-string"), "{e}");
    }
}
