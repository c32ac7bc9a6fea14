//! Compute-backend abstraction for cluster products and wrapping.
//!
//! The sweep's two heavy kernels — the cluster product `B_{hi−1}⋯B_{lo}` and
//! the wrap `G ← B_l G B_l⁻¹` — are the whole CPU/accelerator seam (the
//! paper offloads exactly these two, §VI). They run either on the host BLAS
//! path or on the simulated accelerator in the `gpusim` crate. This trait
//! inverts the dependency: `gpusim` already depends on this crate, so the
//! sweep cannot name the device directly; instead the device implements
//! [`ComputeBackend`] and is boxed into the sweep driver.
//!
//! Both calls take *walker slices*: the driver steps B walkers in lockstep
//! and hands the backend all of them at once, so a device can service B
//! walkers per launch. A solo run is the B = 1 case of the same calls.
//!
//! Backends are *fallible*: a device may drop a transfer, fail a kernel
//! launch or exhaust its arena. Faults surface as [`BackendFault`] values —
//! never panics — so the recovery ladder in `sweep` can retry or fall back
//! to [`HostBackend`].

use crate::bmat::BMatrixFactory;
use crate::hs::HsField;
use crate::hubbard::Spin;
use linalg::Matrix;
use std::fmt;

/// Broad classification of a backend failure, driving the recovery policy's
/// escalation order.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultKind {
    /// The device itself failed (launch failure, arena exhaustion): the
    /// computation never completed. Retry, then abandon the device.
    Device,
    /// The computation completed but produced tainted (non-finite) or
    /// implausible data: retry, then stabilize harder (shrink clusters).
    Taint,
    /// The *device* is suspect — an op hung past its logical deadline or
    /// the device is in a scripted sick window. The in-core ladder must
    /// NOT absorb this: it escapes to the scheduler, which parks the job,
    /// excludes the slot, and feeds the pool's circuit breaker.
    Sick,
}

/// A recoverable backend failure.
#[derive(Clone, Debug)]
pub struct BackendFault {
    /// What class of failure this is.
    pub kind: FaultKind,
    /// Human-readable description (kernel name, indices, offending value).
    pub detail: String,
}

impl BackendFault {
    /// A device-class fault.
    pub fn device(detail: impl Into<String>) -> Self {
        BackendFault {
            kind: FaultKind::Device,
            detail: detail.into(),
        }
    }

    /// A taint-class (non-finite data) fault.
    pub fn taint(detail: impl Into<String>) -> Self {
        BackendFault {
            kind: FaultKind::Taint,
            detail: detail.into(),
        }
    }

    /// A sick-device fault.
    pub fn sick(detail: impl Into<String>) -> Self {
        BackendFault {
            kind: FaultKind::Sick,
            detail: detail.into(),
        }
    }

    /// Whether the fault indicts the device itself (and must escape the
    /// in-core recovery ladder).
    pub fn is_sick(&self) -> bool {
        self.kind == FaultKind::Sick
    }
}

impl fmt::Display for BackendFault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.kind {
            FaultKind::Device => write!(f, "device fault: {}", self.detail),
            FaultKind::Taint => write!(f, "tainted data: {}", self.detail),
            FaultKind::Sick => write!(f, "sick device: {}", self.detail),
        }
    }
}

impl std::error::Error for BackendFault {}

/// A provider of the sweep's two heavy kernels over a slice of walkers. All
/// walkers share one [`BMatrixFactory`] (same model, different fields), so
/// implementations can keep `e^{∓ΔτK}` resident once for all of them.
///
/// The bit-identity contract: entry `i` of every output depends on walker
/// `i`'s inputs only and is produced by the same floating-point op sequence
/// whatever the slice length. Batching may change cost accounting, never op
/// order within a walker.
pub trait ComputeBackend: fmt::Debug + Send {
    /// Short name for reports ("host", "sim-tesla-c2050", …).
    fn name(&self) -> &str;

    /// Wraps `outs[i] ← B_l(h_i) · gs[i] · B_l(h_i)⁻¹` for every walker.
    #[allow(clippy::too_many_arguments)]
    fn wrap(
        &mut self,
        fac: &BMatrixFactory,
        hs: &[&HsField],
        l: usize,
        spin: Spin,
        gs: &[&Matrix],
        outs: &mut [&mut Matrix],
    ) -> Result<(), BackendFault>;

    /// Computes the cluster product `B_{hi−1} ⋯ B_{lo}` for every walker.
    fn cluster(
        &mut self,
        fac: &BMatrixFactory,
        hs: &[&HsField],
        lo: usize,
        hi: usize,
        spin: Spin,
    ) -> Result<Vec<Matrix>, BackendFault>;

    /// Called by the recovery layer after any fault, before a retry. Device
    /// backends drop resident operands here so the retry re-uploads clean
    /// copies (healing a corrupted transfer); the default is a no-op.
    fn notify_fault(&mut self) {}

    /// Modeled device-seconds consumed so far (simulated-clock backends);
    /// `0.0` for backends with no device clock, like the host.
    fn device_seconds(&self) -> f64 {
        0.0
    }
}

/// The infallible host path: per-walker [`BMatrixFactory`] kernels in a
/// loop. This is what the recovery ladder's host fallback lands on.
#[derive(Clone, Copy, Debug, Default)]
pub struct HostBackend;

impl ComputeBackend for HostBackend {
    fn name(&self) -> &str {
        "host"
    }

    fn wrap(
        &mut self,
        fac: &BMatrixFactory,
        hs: &[&HsField],
        l: usize,
        spin: Spin,
        gs: &[&Matrix],
        outs: &mut [&mut Matrix],
    ) -> Result<(), BackendFault> {
        for i in 0..hs.len() {
            fac.wrap_into(hs[i], l, spin, gs[i], outs[i]);
        }
        Ok(())
    }

    fn cluster(
        &mut self,
        fac: &BMatrixFactory,
        hs: &[&HsField],
        lo: usize,
        hi: usize,
        spin: Spin,
    ) -> Result<Vec<Matrix>, BackendFault> {
        Ok(hs.iter().map(|h| fac.cluster(h, lo, hi, spin)).collect())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubbard::ModelParams;
    use lattice::Lattice;

    #[test]
    fn host_backend_matches_factory() {
        let model = ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 8);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(11);
        let h = HsField::random(4, 8, &mut rng);
        let mut be = HostBackend;
        let got = be.cluster(&fac, &[&h], 0, 4, Spin::Up).unwrap();
        assert_eq!(got, [fac.cluster(&h, 0, 4, Spin::Up)]);

        let g = crate::greens::greens_naive(&fac, &h, Spin::Down).g;
        let mut out = Matrix::zeros(4, 4);
        be.wrap(&fac, &[&h], 0, Spin::Down, &[&g], &mut [&mut out])
            .unwrap();
        assert_eq!(out, crate::greens::wrap(&fac, &h, 0, Spin::Down, &g));
    }

    #[test]
    fn fault_display_names_kind() {
        let d = BackendFault::device("launch 3 failed");
        let t = BackendFault::taint("NaN at 7");
        assert!(d.to_string().contains("device fault"));
        assert!(t.to_string().contains("tainted"));
    }
}
