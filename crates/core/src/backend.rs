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
//! Backends are *fallible*: a device may fail a kernel launch, exhaust its
//! arena or hang. A call that did not complete returns a [`DqmcError`] —
//! never a panic — whose severity picks the recovery ladder's response in
//! `sweep`: `DeviceSick` escapes to the scheduler, anything else is retried
//! and then falls back to [`HostBackend`]. A call that completed with bad
//! data (a dropped transfer) returns `Ok`: the sweep's own taint scans find
//! it.

use crate::bmat::BMatrixFactory;
use crate::hs::HsField;
use crate::hubbard::Spin;
use linalg::{team, Matrix};
use std::fmt;
use util::DqmcError;

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
    ) -> Result<(), DqmcError>;

    /// Computes the cluster products `B_{hi−1,σ} ⋯ B_{lo,σ}` of both spins
    /// for every walker.
    fn cluster(
        &mut self,
        fac: &BMatrixFactory,
        hs: &[&HsField],
        lo: usize,
        hi: usize,
    ) -> Result<Vec<[Matrix; 2]>, DqmcError>;

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
    ) -> Result<(), DqmcError> {
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
    ) -> Result<Vec<[Matrix; 2]>, DqmcError> {
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
}
