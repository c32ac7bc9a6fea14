//! Device-side matrix clustering — Algorithms 4 and 5 of the paper.
//!
//! Computes the cluster product `A = B_{i+k} ⋯ B_{i+1}` on the accelerator.
//! `B = e^{−ΔτK}` is resident in device memory for the whole simulation;
//! only the `k` diagonal vectors `V` go down per cluster and one `N×N`
//! product comes back — `k` GEMMs amortise one transfer, which is why this
//! operation approaches device GEMM speed (Figure 9).
//!
//! Two variants are provided, mirroring the paper:
//! - [`cluster_cublas`]: Algorithm 4 verbatim — `cublasDcopy` + a
//!   per-vector `cublasDscal` loop for each `V` scaling (N launches),
//! - [`cluster_custom_kernel`]: the same data flow with the Algorithm 5
//!   one-launch coalesced scaling kernel and no intermediate copies.

use crate::crowd::try_cluster_crowd;
use crate::device::{DMatrix, Device};
use crate::faults::DeviceError;
use dqmc::{BMatrixFactory, HsField, Spin};
use linalg::{workspace, Matrix};

/// Uploads `e^{−ΔτK}` once at simulation start (device-resident B).
pub fn upload_expk(dev: &mut Device, fac: &BMatrixFactory) -> DMatrix {
    dev.set_matrix(fac.expk())
}

/// Algorithm 4 (CUBLAS formulation): computes `A = B_{hi−1} ⋯ B_{lo}` on
/// the device, returning the (exact) host result and leaving the simulated
/// cost on the device clock.
///
/// With our `B = e^{−ΔτK}·V` convention the accumulation is
/// `T ← e^{−ΔτK}·(diag(V_l)·T)` after seeding `T = e^{−ΔτK}·diag(V_lo)`;
/// the per-element scaling work matches the paper's Algorithm 4 exactly.
pub fn cluster_cublas(
    dev: &mut Device,
    expk_dev: &DMatrix,
    fac: &BMatrixFactory,
    h: &HsField,
    lo: usize,
    hi: usize,
    spin: Spin,
) -> Matrix {
    assert!(lo < hi && hi <= h.slices());
    let n = fac.nsites();
    // Host staging for the V diagonal and its device mirror are reused
    // across all k slices; `t`/`vt` ping-pong so the loop performs no
    // per-slice allocation (host or device).
    let mut vh = workspace::take(n);
    let mut t = dev.dcopy(expk_dev);
    fac.v_diag_into(h, lo, spin, &mut vh);
    let mut vd = dev.set_vector(&vh);
    dev.scale_cols_cublas(&vd, &mut t);
    let mut vt = dev.alloc(n, n);
    for l in (lo + 1)..hi {
        fac.v_diag_into(h, l, spin, &mut vh);
        dev.set_vector_into(&vh, &mut vd);
        dev.dcopy_into(&t, &mut vt);
        dev.scale_rows_cublas(&vd, &mut vt);
        dev.dgemm(1.0, expk_dev, &vt, 0.0, &mut t);
    }
    workspace::put(vh);
    let out = dev.get_matrix(&t);
    linalg::check_finite!(out.as_slice(), "cluster_cublas product [{lo}, {hi})");
    out
}

/// Algorithms 4+5: same product, with the custom one-launch scaling kernels
/// and no intermediate `dcopy`.
pub fn cluster_custom_kernel(
    dev: &mut Device,
    expk_dev: &DMatrix,
    fac: &BMatrixFactory,
    h: &HsField,
    lo: usize,
    hi: usize,
    spin: Spin,
) -> Matrix {
    let out = try_cluster_custom_kernel(dev, expk_dev, fac, h, lo, hi, spin)
        .unwrap_or_else(|e| panic!("device fault outside fault-aware path: {e}"));
    linalg::check_finite!(out.as_slice(), "cluster_custom_kernel product [{lo}, {hi})");
    out
}

/// Fallible [`cluster_custom_kernel`]: returns a [`DeviceError`] on a
/// scheduled launch failure or arena exhaustion instead of panicking, and
/// performs **no finiteness check** on the downloaded product — a silently
/// corrupted transfer surfaces as NaNs in the returned matrix, which the
/// recovery-aware caller must scan before use. A batch of one through
/// [`try_cluster_crowd`].
pub fn try_cluster_custom_kernel(
    dev: &mut Device,
    expk_dev: &DMatrix,
    fac: &BMatrixFactory,
    h: &HsField,
    lo: usize,
    hi: usize,
    spin: Spin,
) -> Result<Matrix, DeviceError> {
    let mut products = try_cluster_crowd(dev, expk_dev, fac, &[h], lo, hi, spin)?;
    Ok(products.pop().expect("one product per walker"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use dqmc::ModelParams;
    use lattice::Lattice;

    fn setup() -> (BMatrixFactory, HsField) {
        let model = ModelParams::new(Lattice::square(4, 4, 1.0), 4.0, 0.0, 0.125, 20);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(5);
        let h = HsField::random(16, 20, &mut rng);
        (fac, h)
    }

    #[test]
    fn cublas_cluster_matches_host() {
        let (fac, h) = setup();
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let expk = upload_expk(&mut dev, &fac);
        let got = cluster_cublas(&mut dev, &expk, &fac, &h, 0, 10, Spin::Up);
        let want = fac.cluster(&h, 0, 10, Spin::Up);
        assert!(
            got.max_abs_diff(&want) < 1e-12 * want.max_abs().max(1.0),
            "{}",
            got.max_abs_diff(&want)
        );
        assert!(dev.elapsed() > 0.0);
    }

    #[test]
    fn custom_kernel_cluster_matches_host() {
        let (fac, h) = setup();
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let expk = upload_expk(&mut dev, &fac);
        let got = cluster_custom_kernel(&mut dev, &expk, &fac, &h, 3, 13, Spin::Down);
        let want = fac.cluster(&h, 3, 13, Spin::Down);
        assert!(got.max_abs_diff(&want) < 1e-12 * want.max_abs().max(1.0));
    }

    #[test]
    fn both_variants_identical_numerics() {
        let (fac, h) = setup();
        let mut d1 = Device::new(DeviceSpec::tesla_c2050());
        let e1 = upload_expk(&mut d1, &fac);
        let a = cluster_cublas(&mut d1, &e1, &fac, &h, 0, 10, Spin::Up);
        let mut d2 = Device::new(DeviceSpec::tesla_c2050());
        let e2 = upload_expk(&mut d2, &fac);
        let b = cluster_custom_kernel(&mut d2, &e2, &fac, &h, 0, 10, Spin::Up);
        assert_eq!(a, b, "cost models differ, numerics must not");
    }

    #[test]
    fn custom_kernel_is_faster() {
        let (fac, h) = setup();
        let mut d1 = Device::new(DeviceSpec::tesla_c2050());
        let e1 = upload_expk(&mut d1, &fac);
        d1.reset_clock();
        let _ = cluster_cublas(&mut d1, &e1, &fac, &h, 0, 10, Spin::Up);

        let mut d2 = Device::new(DeviceSpec::tesla_c2050());
        let e2 = upload_expk(&mut d2, &fac);
        d2.reset_clock();
        let _ = cluster_custom_kernel(&mut d2, &e2, &fac, &h, 0, 10, Spin::Up);

        assert!(
            d2.elapsed() < d1.elapsed(),
            "custom {} !< cublas {}",
            d2.elapsed(),
            d1.elapsed()
        );
    }

    #[test]
    fn transfers_are_k_vectors_plus_one_matrix() {
        let (fac, h) = setup();
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let expk = upload_expk(&mut dev, &fac);
        let before = dev.bytes_transferred();
        let _ = cluster_custom_kernel(&mut dev, &expk, &fac, &h, 0, 10, Spin::Up);
        let moved = dev.bytes_transferred() - before;
        let n = 16usize;
        let expect = 10 * n * 8 + n * n * 8; // k diagonals down, one matrix up
        assert_eq!(moved as usize, expect);
    }

    #[test]
    fn try_cluster_launch_failure_errs_then_retry_matches_host() {
        let (fac, h) = setup();
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let expk = upload_expk(&mut dev, &fac);
        // Launch #3 is the first row-scaling kernel inside the loop.
        dev.arm_faults(crate::faults::FaultPlan::new().fail_launch(3));
        let err = try_cluster_custom_kernel(&mut dev, &expk, &fac, &h, 0, 10, Spin::Up);
        assert!(matches!(err, Err(DeviceError::KernelLaunchFailure { .. })));
        let ok = try_cluster_custom_kernel(&mut dev, &expk, &fac, &h, 0, 10, Spin::Up).unwrap();
        let want = fac.cluster(&h, 0, 10, Spin::Up);
        assert!(ok.max_abs_diff(&want) < 1e-12 * want.max_abs().max(1.0));
    }

    #[test]
    fn try_cluster_returns_tainted_product_without_panic() {
        let (fac, h) = setup();
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let expk = upload_expk(&mut dev, &fac);
        dev.arm_faults(
            crate::faults::FaultPlan::new()
                .with_seed(4)
                .corrupt_transfer(1),
        );
        let tainted =
            try_cluster_custom_kernel(&mut dev, &expk, &fac, &h, 0, 10, Spin::Up).unwrap();
        assert!(linalg::check::first_non_finite(tainted.as_slice()).is_some());
    }

    #[test]
    fn clustering_approaches_device_gemm_rate_at_large_n() {
        // The Figure 9 shape: effective GFlops of clustering close to the
        // device GEMM rate at the same order (within 40 %), far above host.
        let model = ModelParams::new(Lattice::square(16, 16, 1.0), 4.0, 0.0, 0.125, 10);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(9);
        let h = HsField::random(256, 10, &mut rng);
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let expk = upload_expk(&mut dev, &fac);
        dev.reset_clock();
        let _ = cluster_custom_kernel(&mut dev, &expk, &fac, &h, 0, 10, Spin::Up);
        let flops = 9.0 * 2.0 * 256f64.powi(3); // k−1 GEMMs dominate
        let rate = flops / dev.elapsed() / 1e9;
        let dev_rate = dev.spec().gemm_rate(256);
        assert!(
            rate > 0.6 * dev_rate,
            "clustering rate {rate} too far below device gemm {dev_rate}"
        );
    }
}
