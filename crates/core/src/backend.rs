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
//! Both calls take *walker slices* and both spins: the driver steps B
//! walkers in lockstep and hands the backend all of them at once, so a
//! device can service B walkers per launch and the host can run the two
//! spins on two cores. A solo run is the B = 1 case of the same calls.
//!
//! Backends are *fallible*: a device may drop a transfer, fail a kernel
//! launch or exhaust its arena. Faults surface as [`BackendFault`] values —
//! never panics — so the recovery ladder in `sweep` can retry or fall back
//! to [`HostBackend`].

use crate::bmat::BMatrixFactory;
use crate::hs::HsField;
use crate::hubbard::Spin;
use linalg::{team, Matrix};
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

/// A provider of the sweep's two heavy kernels over a slice of walkers, both
/// spins per call. All walkers share one [`BMatrixFactory`] (same model,
/// different fields), so implementations can keep `e^{∓ΔτK}` resident once
/// for all of them.
///
/// The bit-identity contract: entry `i` of every output depends on walker
/// `i`'s inputs only and is produced by the same floating-point op sequence
/// whatever the slice length. Batching may change cost accounting, never op
/// order within a walker.
pub trait ComputeBackend: fmt::Debug + Send {
    /// Short name for reports ("host", "sim-tesla-c2050", …).
    fn name(&self) -> &str;

    /// Wraps `outs[i][σ] ← B_{l,σ}(h_i) · gs[i][σ] · B_{l,σ}(h_i)⁻¹` for
    /// every walker and both spins (`[up, down]`).
    fn wrap(
        &mut self,
        fac: &BMatrixFactory,
        hs: &[&HsField],
        l: usize,
        gs: &[&[Matrix; 2]],
        outs: &mut [&mut [Matrix; 2]],
    ) -> Result<(), BackendFault>;

    /// Computes the cluster products `B_{hi−1,σ} ⋯ B_{lo,σ}` of both spins
    /// for every walker.
    fn cluster(
        &mut self,
        fac: &BMatrixFactory,
        hs: &[&HsField],
        lo: usize,
        hi: usize,
    ) -> Result<Vec<[Matrix; 2]>, BackendFault>;

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

/// Whether the two spins of an `N`-site walker run on two cores: when one
/// `N`-order GEMM alone would fork (`2N³ ≥ FORK_FLOPS`).
pub(crate) fn spins_fork(n: usize) -> bool {
    2 * n * n * n >= team::FORK_FLOPS
}

/// Runs `f` on each spin's share of a job, `work[σ]` owned by spin `σ`'s
/// call: as one team job of two chunks when one `N`-order GEMM alone would
/// fork — a spare core then takes one spin, and the kernels inside see the
/// team taken and stay serial — and in turn on the calling thread otherwise.
pub(crate) fn for_each_spin<T: Send>(n: usize, work: &mut [T; 2], f: impl Fn(Spin, &mut T) + Sync) {
    let f = |s: usize, t: &mut T| f(Spin::BOTH[s], t);
    if spins_fork(n) {
        team::for_each_mut(work, f);
    } else {
        work.iter_mut().enumerate().for_each(|(s, t)| f(s, t));
    }
}

/// The infallible host path: [`BMatrixFactory`] kernels, the two spins on
/// two cores past the fork cut (`for_each_spin`), each spin's walkers in a
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
        gs: &[&[Matrix; 2]],
        outs: &mut [&mut [Matrix; 2]],
    ) -> Result<(), BackendFault> {
        let mut per_spin: [Vec<&mut Matrix>; 2] = [Vec::new(), Vec::new()];
        for [up, dn] in outs.iter_mut().map(|pair| &mut **pair) {
            per_spin[0].push(up);
            per_spin[1].push(dn);
        }
        for_each_spin(fac.nsites(), &mut per_spin, |spin, outs| {
            for (i, out) in outs.iter_mut().enumerate() {
                fac.wrap_into(hs[i], l, spin, &gs[i][spin.index()], out);
            }
        });
        Ok(())
    }

    fn cluster(
        &mut self,
        fac: &BMatrixFactory,
        hs: &[&HsField],
        lo: usize,
        hi: usize,
    ) -> Result<Vec<[Matrix; 2]>, BackendFault> {
        let mut per_spin: [Vec<Matrix>; 2] = [Vec::new(), Vec::new()];
        for_each_spin(fac.nsites(), &mut per_spin, |spin, products| {
            products.extend(hs.iter().map(|h| fac.cluster(h, lo, hi, spin)));
        });
        let [up, dn] = per_spin;
        Ok(up.into_iter().zip(dn).map(|(u, d)| [u, d]).collect())
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
        let got = be.cluster(&fac, &[&h], 0, 4).unwrap();
        let want = Spin::BOTH.map(|spin| fac.cluster(&h, 0, 4, spin));
        assert_eq!(got, [want]);

        let g = Spin::BOTH.map(|spin| crate::greens::greens_naive(&fac, &h, spin).g);
        let mut out = [Matrix::zeros(4, 4), Matrix::zeros(4, 4)];
        be.wrap(&fac, &[&h], 0, &[&g], &mut [&mut out]).unwrap();
        for spin in Spin::BOTH {
            let want = crate::greens::wrap(&fac, &h, 0, spin, &g[spin.index()]);
            assert_eq!(out[spin.index()], want);
        }
    }

    #[test]
    fn fault_display_names_kind() {
        let d = BackendFault::device("launch 3 failed");
        let t = BackendFault::taint("NaN at 7");
        assert!(d.to_string().contains("device fault"));
        assert!(t.to_string().contains("tainted"));
    }
}
