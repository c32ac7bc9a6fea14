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
//! Both calls take *walker slices* of the spins the walkers evolve: the
//! driver steps B walkers in lockstep and hands the backend all of them at
//! once, so a device can service B walkers per launch and the host can run
//! two spins on two cores. A solo run is the B = 1 case of the same calls.
//! At half filling on a bipartite lattice a walker evolves the up spin
//! alone (the particle–hole path, [`crate::sweep`]), so each walker's entry
//! holds `[up]`; otherwise it holds `[up, down]`. Either way spin `σ` sits
//! at index `σ.index()` of each walker's entry: `wrap` reads the spins from
//! the entries' length, and `cluster`, which has no entries to read, takes
//! them as an argument.
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

/// A provider of the sweep's two heavy kernels over a slice of walkers and
/// the spins they evolve (`[up]` or `[up, down]`, the same for every
/// walker). All walkers share one [`BMatrixFactory`] (same model,
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
    /// every walker and every spin `σ` it holds ([`wrapped_spins`]).
    fn wrap(
        &mut self,
        fac: &BMatrixFactory,
        hs: &[&HsField],
        l: usize,
        gs: &[&[Matrix]],
        outs: &mut [&mut [Matrix]],
    ) -> Result<(), DqmcError>;

    /// Computes the cluster products `B_{hi−1,σ} ⋯ B_{lo,σ}` of every spin
    /// in `spins` for every walker: entry `i` holds walker `i`'s products
    /// in `spins` order.
    fn cluster(
        &mut self,
        fac: &BMatrixFactory,
        spins: &[Spin],
        hs: &[&HsField],
        lo: usize,
        hi: usize,
    ) -> Result<Vec<Vec<Matrix>>, DqmcError>;

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

/// The spins a [`ComputeBackend::wrap`] call carries: the first
/// `outs[0].len()` of `[up, down]`. Every walker's `gs` and `outs` entries
/// hold that many.
pub fn wrapped_spins(gs: &[&[Matrix]], outs: &[&mut [Matrix]]) -> &'static [Spin] {
    let n = outs.first().map_or(0, |w| w.len());
    debug_assert!(
        gs.len() == outs.len()
            && gs.iter().all(|w| w.len() == n)
            && outs.iter().all(|w| w.len() == n),
        "every walker of a wrap holds the same spins in and out"
    );
    &Spin::BOTH[..n]
}

/// Whether the two spins of an `N`-site walker run on two cores: when one
/// `N`-order GEMM alone would fork (`2N³ ≥ FORK_FLOPS`).
pub(crate) fn spins_fork(n: usize) -> bool {
    2 * n * n * n >= team::FORK_FLOPS
}

/// Runs `f` on each spin's share of a job, `work[σ]` owned by spin `σ`'s
/// call (`[up]` or `[up, down]`). A spin pair runs as one team job of two
/// chunks when one `N`-order GEMM alone would fork — a spare core then takes
/// one spin, and the kernels inside see the team taken and stay serial — and
/// in turn on the calling thread otherwise. A lone spin runs on the calling
/// thread, where its kernels fork past the cut themselves.
pub(crate) fn for_each_spin<T: Send>(n: usize, work: &mut [T], f: impl Fn(Spin, &mut T) + Sync) {
    let f = |s: usize, t: &mut T| f(Spin::BOTH[s], t);
    if work.len() == 2 && spins_fork(n) {
        team::for_each_mut(work, f);
    } else {
        work.iter_mut().enumerate().for_each(|(s, t)| f(s, t));
    }
}

/// The infallible host path: [`BMatrixFactory`] kernels, a spin pair on two
/// cores past the fork cut (`for_each_spin`), each spin's walkers in a loop.
/// This is what the recovery ladder's host fallback lands on.
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
        gs: &[&[Matrix]],
        outs: &mut [&mut [Matrix]],
    ) -> Result<(), DqmcError> {
        let spins = wrapped_spins(gs, outs);
        let mut per_spin: Vec<Vec<&mut Matrix>> = spins.iter().map(|_| Vec::new()).collect();
        for walker in outs.iter_mut() {
            for (s, out) in walker.iter_mut().enumerate() {
                per_spin[s].push(out);
            }
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
        spins: &[Spin],
        hs: &[&HsField],
        lo: usize,
        hi: usize,
    ) -> Result<Vec<Vec<Matrix>>, DqmcError> {
        let mut per_spin: Vec<Vec<Matrix>> = spins.iter().map(|_| Vec::new()).collect();
        for_each_spin(fac.nsites(), &mut per_spin, |spin, products| {
            products.extend(hs.iter().map(|h| fac.cluster(h, lo, hi, spin)));
        });
        let mut walkers: Vec<Vec<Matrix>> = hs.iter().map(|_| Vec::new()).collect();
        for products in per_spin {
            for (walker, m) in walkers.iter_mut().zip(products) {
                walker.push(m);
            }
        }
        Ok(walkers)
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
        for spins in [&[Spin::Up][..], &Spin::BOTH] {
            let got = be.cluster(&fac, spins, &[&h], 0, 4).unwrap();
            let want: Vec<Matrix> = spins.iter().map(|&s| fac.cluster(&h, 0, 4, s)).collect();
            assert_eq!(got, [want]);

            let g: Vec<Matrix> = spins
                .iter()
                .map(|&spin| crate::greens::greens_naive(&fac, &h, spin).g)
                .collect();
            let mut out = vec![Matrix::zeros(4, 4); spins.len()];
            be.wrap(&fac, &[&h], 0, &[&g], &mut [&mut out]).unwrap();
            for &spin in spins {
                let want = crate::greens::wrap(&fac, &h, 0, spin, &g[spin.index()]);
                assert_eq!(out[spin.index()], want);
            }
        }
    }
}
