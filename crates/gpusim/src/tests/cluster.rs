//! Tests of the batched cluster-product kernel in [`crate::kernels`], one
//! walker at a time.

#[cfg(test)]
mod tests {
    use crate::device::Device;
    use crate::device_with_residents;
    use crate::faults::{DeviceError, FaultPlan};
    use crate::kernels::try_cluster_crowd;
    use dqmc::{BMatrixFactory, HsField, ModelParams, Spin};
    use lattice::Lattice;
    use linalg::Matrix;

    fn setup() -> (ModelParams, BMatrixFactory, HsField) {
        let model = ModelParams::new(Lattice::square(4, 4, 1.0), 4.0, 0.0, 0.125, 20);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(5);
        let h = HsField::random(16, 20, &mut rng);
        (model, fac, h)
    }

    /// One walker's host product billed as the batched kernel with the
    /// one dense factor: a slice of one.
    fn cluster_one(
        dev: &mut Device,
        fac: &BMatrixFactory,
        h: &HsField,
        lo: usize,
        hi: usize,
        spin: Spin,
    ) -> Result<Matrix, DeviceError> {
        let mut product = fac.cluster(h, lo, hi, spin);
        try_cluster_crowd(dev, &[fac.nsites()], hi - lo, &mut [&mut product])?;
        Ok(product)
    }

    #[test]
    fn custom_kernel_cluster_matches_host() {
        let (model, fac, h) = setup();
        let mut dev = device_with_residents(&model);
        let got = cluster_one(&mut dev, &fac, &h, 3, 13, Spin::Down).unwrap();
        let want = fac.cluster(&h, 3, 13, Spin::Down);
        assert!(got.max_abs_diff(&want) < 1e-12 * want.max_abs().max(1.0));
    }

    #[test]
    fn transfers_are_k_vectors_plus_one_matrix() {
        let (model, fac, h) = setup();
        let mut dev = device_with_residents(&model);
        let before = dev.bytes_transferred();
        cluster_one(&mut dev, &fac, &h, 0, 10, Spin::Up).unwrap();
        let moved = dev.bytes_transferred() - before;
        let n = 16usize;
        let expect = 10 * n * 8 + n * n * 8; // k diagonals down, one matrix up
        assert_eq!(moved as usize, expect);
    }

    #[test]
    fn try_cluster_launch_failure_errs_then_retry_matches_host() {
        let (model, fac, h) = setup();
        let mut dev = device_with_residents(&model);
        // Launch #3 is the first row-scaling kernel inside the loop.
        dev.arm_faults(FaultPlan::new().fail_launch(3));
        let err = cluster_one(&mut dev, &fac, &h, 0, 10, Spin::Up);
        assert!(matches!(err, Err(DeviceError::KernelLaunchFailure { .. })));
        let ok = cluster_one(&mut dev, &fac, &h, 0, 10, Spin::Up).unwrap();
        let want = fac.cluster(&h, 0, 10, Spin::Up);
        assert!(ok.max_abs_diff(&want) < 1e-12 * want.max_abs().max(1.0));
    }

    #[test]
    fn try_cluster_returns_tainted_product_without_panic() {
        let (model, fac, h) = setup();
        let mut dev = device_with_residents(&model);
        dev.arm_faults(FaultPlan::new().with_seed(4).corrupt_transfer(1));
        let tainted = cluster_one(&mut dev, &fac, &h, 0, 10, Spin::Up).unwrap();
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
        let mut dev = device_with_residents(&model);
        dev.reset_clock();
        cluster_one(&mut dev, &fac, &h, 0, 10, Spin::Up).unwrap();
        let flops = 9.0 * 2.0 * 256f64.powi(3); // k−1 GEMMs dominate
        let rate = flops / dev.elapsed() / 1e9;
        let dev_rate = dev.spec().gemm_rate(256);
        assert!(
            rate > 0.6 * dev_rate,
            "clustering rate {rate} too far below device gemm {dev_rate}"
        );
    }
}
