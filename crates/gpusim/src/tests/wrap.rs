//! Tests of the two wrap kernels in [`crate::kernels`], one walker at a
//! time; `crowd::tests` holds the B > 1 cases.

#[cfg(test)]
mod tests {
    use crate::device::Device;
    use crate::device_with_residents;
    use crate::faults::{DeviceError, FaultPlan};
    use crate::kernels::{try_cluster_crowd, try_wrap_crowd, try_wrap_on_device_into};
    use dqmc::{BMatrixFactory, HsField, ModelParams, Spin};
    use lattice::Lattice;
    use linalg::Matrix;

    fn setup() -> (ModelParams, BMatrixFactory, HsField, Matrix) {
        let model = ModelParams::new(Lattice::square(4, 4, 1.0), 4.0, 0.0, 0.125, 8);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(7);
        let h = HsField::random(16, 8, &mut rng);
        let g = dqmc::greens::greens_naive(&fac, &h, Spin::Up).g;
        (model, fac, h, g)
    }

    /// Algorithm 6/7, slice 0, spin up, into a fresh matrix.
    fn wrap_fused(
        dev: &mut Device,
        (ek, eki): (&Matrix, &Matrix),
        fac: &BMatrixFactory,
        h: &HsField,
        g: &Matrix,
    ) -> Result<Matrix, DeviceError> {
        let mut out = Matrix::zeros(g.nrows(), g.ncols());
        try_wrap_on_device_into(dev, ek, eki, fac, h, 0, Spin::Up, g, &mut out)?;
        Ok(out)
    }

    /// The host wrap of one walker billed as the sweep's batched wrap with
    /// one dense factor each way: a slice of one.
    fn wrap_sweep(
        dev: &mut Device,
        fac: &BMatrixFactory,
        h: &HsField,
        g: &Matrix,
    ) -> Result<Matrix, DeviceError> {
        let mut out = dqmc::greens::wrap(fac, h, 0, Spin::Up, g);
        let n = [fac.nsites()];
        try_wrap_crowd(dev, &n, &n, &mut [&mut out])?;
        Ok(out)
    }

    #[test]
    fn device_wrap_matches_host_wrap() {
        let (model, fac, h, g) = setup();
        let (mut dev, ek, eki) = device_with_residents(&model);
        let got = wrap_fused(&mut dev, (&ek, &eki), &fac, &h, &g).unwrap();
        let want = dqmc::greens::wrap(&fac, &h, 0, Spin::Up, &g);
        assert!(
            got.max_abs_diff(&want) < 1e-12,
            "{}",
            got.max_abs_diff(&want)
        );
    }

    #[test]
    fn bitexact_wrap_still_pays_device_costs() {
        let (model, fac, h, g) = setup();
        let (mut dev, _, _) = device_with_residents(&model);
        let (t0, k0, b0) = (
            dev.elapsed(),
            dev.kernels_launched(),
            dev.bytes_transferred(),
        );
        wrap_sweep(&mut dev, &fac, &h, &g).unwrap();
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
        let (model, fac, h, g) = setup();
        let (mut dev, ek, eki) = device_with_residents(&model);
        let before = dev.bytes_transferred();
        wrap_fused(&mut dev, (&ek, &eki), &fac, &h, &g).unwrap();
        let moved = (dev.bytes_transferred() - before) as usize;
        let n = 16usize;
        assert_eq!(moved, 2 * n * n * 8 + n * 8);
    }

    #[test]
    fn try_wrap_oom_errs_then_retry_succeeds_and_corruption_is_visible() {
        let (model, fac, h, g) = setup();
        let (mut dev, ek, eki) = device_with_residents(&model);
        dev.arm_faults(
            FaultPlan::new()
                .with_seed(2)
                .oom_at_alloc(1)
                .corrupt_transfer(2),
        );
        let err = wrap_fused(&mut dev, (&ek, &eki), &fac, &h, &g);
        assert!(matches!(err, Err(DeviceError::ArenaExhausted { .. })));
        // Retry succeeds; download #1 is clean.
        let out = wrap_fused(&mut dev, (&ek, &eki), &fac, &h, &g).unwrap();
        assert!(linalg::check::first_non_finite(out.as_slice()).is_none());
        let want = dqmc::greens::wrap(&fac, &h, 0, Spin::Up, &g);
        assert!(out.max_abs_diff(&want) < 1e-12);
        // The next wrap's download (#2) is silently corrupted but returns Ok.
        let out = wrap_fused(&mut dev, (&ek, &eki), &fac, &h, &g).unwrap();
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

        let (mut dev, ek, eki) = device_with_residents(&model);
        dev.reset_clock();
        let mut product = fac.cluster(&h, 0, 10, Spin::Up);
        try_cluster_crowd(&mut dev, &[64], 10, &mut [&mut product]).unwrap();
        let t_cluster = dev.elapsed();
        let rate_cluster = 9.0 * 2.0 * 64f64.powi(3) / t_cluster;

        dev.reset_clock();
        wrap_fused(&mut dev, (&ek, &eki), &fac, &h, &g).unwrap();
        let t_wrap = dev.elapsed();
        let rate_wrap = 2.0 * 2.0 * 64f64.powi(3) / t_wrap;

        assert!(
            rate_cluster > rate_wrap,
            "cluster rate {rate_cluster} !> wrap rate {rate_wrap}"
        );
    }
}
