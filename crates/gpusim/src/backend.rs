//! The simulated device as the sweep's [`ComputeBackend`].
//!
//! Wraps a [`Device`] so `dqmc::sweep` can route its two heavy kernels —
//! cluster products and wraps, each over a slice of walkers and the spins
//! they evolve (the up spin alone at half filling on a bipartite lattice)
//! — through the accelerator model. The matrices come from
//! [`HostBackend`], the calls a host run makes; the device is then billed
//! for the batched kernels of [`crate::kernels`], one spin after the other,
//! and downloads the results (one launch services every walker of the call;
//! a solo run is a batch of one). So placing a run on the device changes
//! its model clock and never a byte of its output, whatever `HostBackend`
//! does. The resident operands — the factors of `e^{−ΔτK}` / `e^{+ΔτK}`,
//! and the dense `e^{−ΔτK}` seeding cluster products when it is not itself
//! the one factor — are uploaded on first use and **dropped on
//! [`ComputeBackend::notify_fault`]**: the recovery layer calls that before
//! every retry, so a retry pays the re-upload — which is exactly how a real
//! driver heals a corrupted resident after a fault.
//!
//! Fault surfacing follows the split in [`crate::faults`]: a call that
//! fails comes back as `Err(DqmcError)` — `DeviceSick` for a hang or a
//! sick-window failure, `Transient` for the rest (launch, arena); silent
//! transfer corruption returns `Ok` with NaNs in the data, which the sweep
//! driver's taint scans (of every cluster product and every wrapped matrix)
//! find.

use crate::device::Device;
use crate::faults::DeviceError;
use crate::kernels::{try_cluster_crowd, try_wrap_crowd};
use dqmc::{BMatrixFactory, ComputeBackend, DqmcError, HostBackend, HsField, Spin};
use linalg::{Kron, Matrix};

/// Classifies a [`DeviceError`] by severity: hangs and sick-window failures
/// indict the *device* (`DeviceSick`: they escape the in-core recovery
/// ladder so the scheduler can quarantine the slot); everything else is
/// `Transient`, a fault the ladder retries in place.
fn classify(e: DeviceError) -> DqmcError {
    if e.is_sick() {
        DqmcError::device_sick("device", e.to_string())
    } else {
        DqmcError::transient("device", e.to_string())
    }
}

/// A [`ComputeBackend`] running cluster products and wraps on the simulated
/// accelerator.
#[derive(Debug)]
pub struct DeviceBackend {
    dev: Device,
    /// Whether the factors of `e^{−ΔτK}` are resident.
    expk: bool,
    /// Whether the factors of `e^{+ΔτK}` are resident.
    expk_inv: bool,
    /// Whether the dense `e^{−ΔτK}` is resident (when `expk` holds more
    /// than one factor).
    seed: bool,
}

/// Bills the upload of square matrices of `orders` as one stack unless it
/// is already resident.
fn upload_once(resident: &mut bool, dev: &mut Device, orders: &[usize]) {
    if !*resident {
        dev.upload(orders.iter().map(|n| n * n).sum());
        *resident = true;
    }
}

/// The orders of an operator's factors.
fn orders(op: &Kron) -> Vec<usize> {
    op.factors().iter().map(Matrix::nrows).collect()
}

impl DeviceBackend {
    /// Wraps an existing device (e.g. one with an armed fault plan).
    pub fn new(dev: Device) -> Self {
        DeviceBackend {
            dev,
            expk: false,
            expk_inv: false,
            seed: false,
        }
    }

    /// The underlying device (clock, counters, fault tally).
    pub fn device(&self) -> &Device {
        &self.dev
    }
}

impl ComputeBackend for DeviceBackend {
    fn name(&self) -> &str {
        self.dev.spec().name
    }

    fn wrap(
        &mut self,
        fac: &BMatrixFactory,
        hs: &[&HsField],
        l: usize,
        gs: &[&[Matrix]],
        outs: &mut [&mut [Matrix]],
    ) -> Result<(), DqmcError> {
        let spins = dqmc::backend::wrapped_spins(gs, outs);
        HostBackend.wrap(fac, hs, l, gs, outs)?;
        let (expk, expk_inv) = (orders(fac.expk_kron()), orders(fac.expk_inv_kron()));
        let dev = &mut self.dev;
        upload_once(&mut self.expk, dev, &expk);
        upload_once(&mut self.expk_inv, dev, &expk_inv);
        for s in spins.iter().map(|spin| spin.index()) {
            let mut outs: Vec<&mut Matrix> = outs.iter_mut().map(|w| &mut w[s]).collect();
            try_wrap_crowd(dev, &expk, &expk_inv, &mut outs).map_err(classify)?;
        }
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
        let mut products = HostBackend.cluster(fac, spins, hs, lo, hi)?;
        let expk = orders(fac.expk_kron());
        let dev = &mut self.dev;
        upload_once(&mut self.expk, dev, &expk);
        if expk.len() > 1 {
            upload_once(&mut self.seed, dev, &[fac.nsites()]);
        }
        for s in spins.iter().map(|spin| spin.index()) {
            let mut outs: Vec<&mut Matrix> = products.iter_mut().map(|w| &mut w[s]).collect();
            try_cluster_crowd(dev, &expk, hi - lo, &mut outs).map_err(classify)?;
        }
        Ok(products)
    }

    fn notify_fault(&mut self) {
        // Drop the residents: the retry re-uploads the operands.
        self.expk = false;
        self.expk_inv = false;
        self.seed = false;
    }

    fn device_seconds(&self) -> f64 {
        self.dev.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use crate::faults::FaultPlan;
    use dqmc::{ModelParams, Severity};
    use lattice::Lattice;

    fn setup() -> (BMatrixFactory, HsField) {
        let model = ModelParams::new(Lattice::square(3, 3, 1.0), 4.0, 0.0, 0.125, 12);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(21);
        let h = HsField::random(9, 12, &mut rng);
        (fac, h)
    }

    /// A C2050 backend with `plan` armed.
    fn armed(plan: FaultPlan) -> DeviceBackend {
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        dev.arm_faults(plan);
        DeviceBackend::new(dev)
    }

    /// One walker's `Spin::Up` cluster product through a two-spin call, so
    /// the fault ordinals below count both spins' launches and transfers.
    fn cluster_one(
        be: &mut DeviceBackend,
        fac: &BMatrixFactory,
        h: &HsField,
        lo: usize,
        hi: usize,
    ) -> Result<Matrix, DqmcError> {
        let mut walker = be.cluster(fac, &Spin::BOTH, &[h], lo, hi)?;
        Ok(walker.pop().expect("one walker").swap_remove(0))
    }

    #[test]
    fn device_backend_matches_host_backend() {
        let (fac, h) = setup();
        let mut host = HostBackend;
        let mut devb = DeviceBackend::new(Device::new(DeviceSpec::tesla_c2050()));
        for spins in [&[Spin::Up][..], &Spin::BOTH] {
            let a = devb.cluster(&fac, spins, &[&h], 0, 6).unwrap();
            let b = host.cluster(&fac, spins, &[&h], 0, 6).unwrap();
            assert_eq!(a, b, "device clustering returns the host's products");

            let g: Vec<Matrix> = spins
                .iter()
                .map(|&spin| dqmc::greens::greens_naive(&fac, &h, spin).g)
                .collect();
            let mut out_d = vec![Matrix::zeros(9, 9); spins.len()];
            let mut out_h = out_d.clone();
            devb.wrap(&fac, &[&h], 0, &[&g], &mut [&mut out_d]).unwrap();
            host.wrap(&fac, &[&h], 0, &[&g], &mut [&mut out_h]).unwrap();
            assert_eq!(out_d, out_h, "and the host's wraps");
        }
    }

    #[test]
    fn bitexact_backend_makes_placement_unobservable() {
        // The sweep scheduler's determinism contract: a full simulation run
        // through the device backend must be
        // bit-identical to the host run — Green's functions AND observables
        // — so host fallback under device-pool pressure cannot change
        // physics. Half filling runs one spin, μ̃ = 0.25 both.
        for mu_tilde in [0.0, 0.25] {
            let model = ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, mu_tilde, 0.125, 8);
            let params = dqmc::SimParams::new(model)
                .with_sweeps(4, 8)
                .with_seed(33)
                .with_cluster_size(4)
                .with_bin_size(2);
            let mut host_sim = dqmc::Simulation::new(params.clone());
            host_sim.run();
            let mut dev_sim = dqmc::Simulation::new(params).with_backend(Box::new(
                DeviceBackend::new(Device::new(DeviceSpec::tesla_c2050())),
            ));
            dev_sim.run();
            for spin in Spin::BOTH {
                let (h, d) = (host_sim.greens(spin), dev_sim.greens(spin));
                assert_eq!(h.max_abs_diff(d), 0.0, "μ̃ = {mu_tilde} {spin:?}");
            }
            let h = host_sim.observables().jackknife_scalars();
            let d = dev_sim.observables().jackknife_scalars();
            assert_eq!(h.sign, d.sign);
            assert_eq!(h.density, d.density);
            assert_eq!(h.double_occ, d.double_occ);
            assert_eq!(h.kinetic, d.kinetic);
            assert_eq!(h.saf, d.saf);
        }
    }

    #[test]
    fn launch_failure_surfaces_as_device_fault_and_retry_heals() {
        let (fac, h) = setup();
        // Launch #2 is the first scale kernel inside the cluster product.
        let mut devb = armed(FaultPlan::new().fail_launch(2));
        let err = cluster_one(&mut devb, &fac, &h, 0, 6).unwrap_err();
        assert_eq!(err.severity, Severity::Transient);
        assert!(
            err.detail.contains("kernel launch failure"),
            "{}",
            err.detail
        );
        devb.notify_fault();
        let retried = cluster_one(&mut devb, &fac, &h, 0, 6).unwrap();
        let want = fac.cluster(&h, 0, 6, Spin::Up);
        assert!(retried.max_abs_diff(&want) < 1e-12 * want.max_abs().max(1.0));
        assert_eq!(devb.device().faults_injected(), 1);
    }

    #[test]
    fn hang_and_sick_window_classify_as_sick_faults() {
        let (fac, h) = setup();
        let mut devb = armed(FaultPlan::new().hang_at_launch(1).sick_window(2, 2));
        let hang = cluster_one(&mut devb, &fac, &h, 0, 6).unwrap_err();
        assert_eq!(hang.severity, Severity::DeviceSick, "{hang}");
        devb.notify_fault();
        let sick = cluster_one(&mut devb, &fac, &h, 0, 6).unwrap_err();
        assert_eq!(sick.severity, Severity::DeviceSick, "{sick}");
        assert!(sick.detail.contains("sick window"), "{}", sick.detail);
        devb.notify_fault();
        assert!(
            cluster_one(&mut devb, &fac, &h, 0, 6).is_ok(),
            "past the storm the device works again"
        );
    }

    #[test]
    fn fault_display_names_kind() {
        // `classify` keys the sweep's ladder: the severity decides between
        // retry in place and escape, and the text keeps the device's words.
        let kernel = "scale";
        let cases = [
            (
                DeviceError::KernelLaunchFailure {
                    kernel,
                    launch_index: 3,
                },
                Severity::Transient,
            ),
            (
                DeviceError::ArenaExhausted { requested: 64 },
                Severity::Transient,
            ),
            (
                DeviceError::Hang {
                    kernel,
                    launch_index: 4,
                },
                Severity::DeviceSick,
            ),
            (
                DeviceError::SickDevice {
                    kernel,
                    launch_index: 5,
                    window: (5, 6),
                },
                Severity::DeviceSick,
            ),
        ];
        for (e, severity) in cases {
            let detail = e.to_string();
            let err = classify(e);
            assert_eq!(err.severity, severity, "{err}");
            assert_eq!(err.detail, detail);
            assert!(err.to_string().contains(&format!("[{severity}]")), "{err}");
        }
    }

    #[test]
    fn corrupted_download_returns_tainted_ok() {
        let (fac, h) = setup();
        // Download #1 is the cluster product coming back.
        let mut devb = armed(FaultPlan::new().with_seed(3).corrupt_transfer(1));
        let tainted = cluster_one(&mut devb, &fac, &h, 0, 6).unwrap();
        assert!(
            linalg::check::first_non_finite(tainted.as_slice()).is_some(),
            "corruption must be visible to the caller's scan"
        );
        devb.notify_fault();
        let clean = cluster_one(&mut devb, &fac, &h, 0, 6).unwrap();
        assert!(linalg::check::first_non_finite(clean.as_slice()).is_none());
    }

    #[test]
    fn notify_fault_drops_residents_for_reupload() {
        let (fac, h) = setup();
        let mut devb = DeviceBackend::new(Device::new(DeviceSpec::tesla_c2050()));
        let _ = cluster_one(&mut devb, &fac, &h, 0, 6).unwrap();
        let before = devb.device().bytes_transferred();
        let _ = cluster_one(&mut devb, &fac, &h, 6, 12).unwrap();
        let steady = devb.device().bytes_transferred() - before;
        devb.notify_fault();
        let before = devb.device().bytes_transferred();
        let _ = cluster_one(&mut devb, &fac, &h, 0, 6).unwrap();
        let after_fault = devb.device().bytes_transferred() - before;
        // The post-fault call pays the expk re-upload on top of steady state.
        assert_eq!(after_fault, steady + 9 * 9 * 8);
    }
}
