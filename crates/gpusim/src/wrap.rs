//! Device-side Green's-function wrapping — Algorithms 6 and 7 of the paper.
//!
//! `G ← B_l G B_l⁻¹`: the Green's function goes down over PCIe, two GEMMs
//! against the resident `e^{∓ΔτK}` run on the device, the two-sided diagonal
//! scaling runs as the Algorithm 7 texture-cache kernel, and `G` comes back.
//! Only two GEMMs amortise each matrix round trip, so wrapping cannot reach
//! clustering's efficiency (the Figure 9 gap).

use crate::crowd::try_wrap_crowd_bitexact_into;
use crate::device::{DMatrix, Device};
use crate::faults::DeviceError;
use dqmc::{BMatrixFactory, HsField, Spin};
use linalg::Matrix;

/// Uploads `e^{+ΔτK}` (the inverse-side operand) at simulation start.
pub fn upload_expk_inv(dev: &mut Device, fac: &BMatrixFactory) -> DMatrix {
    dev.set_matrix(fac.expk_inv())
}

/// Algorithm 6: wraps `G ← B_l G B_l⁻¹` on the device.
///
/// With `B = e^{−ΔτK}·V`: `B G B⁻¹ = e^{−ΔτK} (V G V⁻¹) e^{+ΔτK}` — one
/// Algorithm 7 scaling between two GEMMs.
#[allow(clippy::too_many_arguments)]
pub fn wrap_on_device(
    dev: &mut Device,
    expk_dev: &DMatrix,
    expk_inv_dev: &DMatrix,
    fac: &BMatrixFactory,
    h: &HsField,
    l: usize,
    spin: Spin,
    g: &Matrix,
) -> Matrix {
    let n = fac.nsites();
    let mut wrapped = Matrix::zeros(n, n);
    try_wrap_on_device_into(
        dev,
        expk_dev,
        expk_inv_dev,
        fac,
        h,
        l,
        spin,
        g,
        &mut wrapped,
    )
    .unwrap_or_else(|e| panic!("device fault outside fault-aware path: {e}"));
    linalg::check_finite!(
        wrapped.as_slice(),
        "wrap_on_device output ({n}x{n}) at slice {l}"
    );
    wrapped
}

/// Fallible [`wrap_on_device`] into a pre-allocated host matrix: returns a
/// [`DeviceError`] on a scheduled launch failure or arena exhaustion and
/// performs **no finiteness check** on the downloaded result — the
/// recovery-aware caller scans `out` for transfer corruption itself.
#[allow(clippy::too_many_arguments)]
pub fn try_wrap_on_device_into(
    dev: &mut Device,
    expk_dev: &DMatrix,
    expk_inv_dev: &DMatrix,
    fac: &BMatrixFactory,
    h: &HsField,
    l: usize,
    spin: Spin,
    g: &Matrix,
    out: &mut Matrix,
) -> Result<(), DeviceError> {
    let n = fac.nsites();
    assert!(out.nrows() == n && out.ncols() == n);
    let mut dg = dev.set_matrix(g);
    let vh = fac.v_diag(h, l, spin);
    let v = dev.set_vector(&vh);
    linalg::workspace::put(vh);
    // V G V⁻¹ via the texture-cache kernel.
    dev.try_wrap_scale_kernel(&v, &mut dg)?;
    // e^{−ΔτK} · (VGV⁻¹)
    let mut t = dev.try_alloc(n, n)?;
    dev.try_dgemm(1.0, expk_dev, &dg, 0.0, &mut t)?;
    // · e^{+ΔτK}
    let mut prod = dev.try_alloc(n, n)?;
    dev.try_dgemm(1.0, &t, expk_inv_dev, 0.0, &mut prod)?;
    dev.get_matrix_into(&prod, out);
    Ok(())
}

/// Bit-exact device wrap — the deterministic-execution analogue of
/// cuBLAS's reproducibility mode.
///
/// [`try_wrap_on_device_into`] runs Algorithm 7's fused two-sided scaling
/// *before* the GEMMs, so its floating-point op order differs from the host
/// path (`row_scale → gemm → col_scale → gemm`) and the results differ in
/// the last ulps. That is fine for throughput studies, but a scheduler that
/// places jobs on whatever resource is free needs placement to be
/// *unobservable*: this variant issues the host path's exact op sequence as
/// separate device launches (row-scale kernel, GEMM, col-scale kernel,
/// GEMM), so the downloaded result is bit-identical to
/// `BMatrixFactory::wrap_into` on the host while still paying simulated
/// launch, bandwidth and transfer costs. The extra launch is the modelled
/// price of determinism. A batch of one through
/// [`try_wrap_crowd_bitexact_into`], which holds the op sequence.
#[allow(clippy::too_many_arguments)]
pub fn try_wrap_on_device_bitexact_into(
    dev: &mut Device,
    expk_dev: &DMatrix,
    expk_inv_dev: &DMatrix,
    fac: &BMatrixFactory,
    h: &HsField,
    l: usize,
    spin: Spin,
    g: &Matrix,
    out: &mut Matrix,
) -> Result<(), DeviceError> {
    try_wrap_crowd_bitexact_into(
        dev,
        expk_dev,
        expk_inv_dev,
        fac,
        &[h],
        l,
        spin,
        &[g],
        &mut [out],
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cluster::upload_expk;
    use crate::device::DeviceSpec;
    use dqmc::ModelParams;
    use lattice::Lattice;

    fn setup() -> (BMatrixFactory, HsField, Matrix) {
        let model = ModelParams::new(Lattice::square(4, 4, 1.0), 4.0, 0.0, 0.125, 8);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(7);
        let h = HsField::random(16, 8, &mut rng);
        let g = dqmc::greens::greens_naive(&fac, &h, Spin::Up).g;
        (fac, h, g)
    }

    #[test]
    fn device_wrap_matches_host_wrap() {
        let (fac, h, g) = setup();
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let ek = upload_expk(&mut dev, &fac);
        let eki = upload_expk_inv(&mut dev, &fac);
        let got = wrap_on_device(&mut dev, &ek, &eki, &fac, &h, 0, Spin::Up, &g);
        let want = dqmc::greens::wrap(&fac, &h, 0, Spin::Up, &g);
        assert!(
            got.max_abs_diff(&want) < 1e-12,
            "{}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn bitexact_wrap_is_bit_identical_to_host_wrap() {
        let (fac, h, g) = setup();
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let ek = upload_expk(&mut dev, &fac);
        let eki = upload_expk_inv(&mut dev, &fac);
        let mut got = Matrix::zeros(16, 16);
        try_wrap_on_device_bitexact_into(&mut dev, &ek, &eki, &fac, &h, 0, Spin::Up, &g, &mut got)
            .unwrap();
        let want = dqmc::greens::wrap(&fac, &h, 0, Spin::Up, &g);
        // Exactly zero: the whole point of the deterministic mode.
        assert_eq!(got.max_abs_diff(&want), 0.0);
        // By contrast the fused Algorithm 7 path is close but NOT bit-equal
        // (different op order) — pin that so this test keeps meaning.
        let fused = wrap_on_device(&mut dev, &ek, &eki, &fac, &h, 0, Spin::Up, &g);
        assert!(fused.max_abs_diff(&want) < 1e-12);
        assert!(
            fused.max_abs_diff(&want) > 0.0,
            "fused wrap became bit-exact; the deterministic mode is redundant"
        );
    }

    #[test]
    fn bitexact_wrap_still_pays_device_costs() {
        let (fac, h, g) = setup();
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let ek = upload_expk(&mut dev, &fac);
        let eki = upload_expk_inv(&mut dev, &fac);
        let mut out = Matrix::zeros(16, 16);
        let (t0, k0, b0) = (
            dev.elapsed(),
            dev.kernels_launched(),
            dev.bytes_transferred(),
        );
        try_wrap_on_device_bitexact_into(&mut dev, &ek, &eki, &fac, &h, 0, Spin::Up, &g, &mut out)
            .unwrap();
        // Four launches (two scales + two GEMMs), time advanced, and the
        // G round trip plus two diagonal uploads on the wire.
        assert_eq!(dev.kernels_launched() - k0, 4);
        assert!(dev.elapsed() > t0);
        let n = 16usize;
        assert_eq!(
            (dev.bytes_transferred() - b0) as usize,
            2 * n * n * 8 + 2 * n * 8
        );
    }

    #[test]
    fn wrap_transfers_two_matrices_and_a_vector() {
        let (fac, h, g) = setup();
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let ek = upload_expk(&mut dev, &fac);
        let eki = upload_expk_inv(&mut dev, &fac);
        let before = dev.bytes_transferred();
        let _ = wrap_on_device(&mut dev, &ek, &eki, &fac, &h, 0, Spin::Up, &g);
        let moved = (dev.bytes_transferred() - before) as usize;
        let n = 16usize;
        assert_eq!(moved, 2 * n * n * 8 + n * 8);
    }

    #[test]
    fn try_wrap_oom_errs_then_retry_succeeds_and_corruption_is_visible() {
        let (fac, h, g) = setup();
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let ek = upload_expk(&mut dev, &fac);
        let eki = upload_expk_inv(&mut dev, &fac);
        dev.arm_faults(
            crate::faults::FaultPlan::new()
                .with_seed(2)
                .oom_at_alloc(1)
                .corrupt_transfer(2),
        );
        let mut out = Matrix::zeros(16, 16);
        let err = try_wrap_on_device_into(&mut dev, &ek, &eki, &fac, &h, 0, Spin::Up, &g, &mut out);
        assert!(matches!(err, Err(DeviceError::ArenaExhausted { .. })));
        // Retry succeeds; download #1 is clean.
        try_wrap_on_device_into(&mut dev, &ek, &eki, &fac, &h, 0, Spin::Up, &g, &mut out).unwrap();
        assert!(linalg::check::first_non_finite(out.as_slice()).is_none());
        let want = dqmc::greens::wrap(&fac, &h, 0, Spin::Up, &g);
        assert!(out.max_abs_diff(&want) < 1e-12);
        // The next wrap's download (#2) is silently corrupted but returns Ok.
        try_wrap_on_device_into(&mut dev, &ek, &eki, &fac, &h, 0, Spin::Up, &g, &mut out).unwrap();
        assert!(linalg::check::first_non_finite(out.as_slice()).is_some());
    }

    #[test]
    fn wrapping_slower_per_flop_than_clustering() {
        // Figure 9: clustering's effective rate exceeds wrapping's.
        let model = ModelParams::new(Lattice::square(8, 8, 1.0), 4.0, 0.0, 0.125, 10);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(8);
        let h = HsField::random(64, 10, &mut rng);
        let g = dqmc::greens::greens_naive(&fac, &h, Spin::Up).g;

        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let ek = upload_expk(&mut dev, &fac);
        let eki = upload_expk_inv(&mut dev, &fac);
        dev.reset_clock();
        let _ = crate::cluster::cluster_custom_kernel(&mut dev, &ek, &fac, &h, 0, 10, Spin::Up);
        let t_cluster = dev.elapsed();
        let rate_cluster = 9.0 * 2.0 * 64f64.powi(3) / t_cluster;

        dev.reset_clock();
        let _ = wrap_on_device(&mut dev, &ek, &eki, &fac, &h, 0, Spin::Up, &g);
        let t_wrap = dev.elapsed();
        let rate_wrap = 2.0 * 2.0 * 64f64.powi(3) / t_wrap;

        assert!(
            rate_cluster > rate_wrap,
            "cluster rate {rate_cluster} !> wrap rate {rate_wrap}"
        );
    }
}
