//! Tests of the batched wrap kernel in [`crate::kernels`], one walker at a
//! time; `crowd::tests` holds the B > 1 cases.

#[cfg(test)]
mod tests {
    use crate::device::Device;
    use crate::device_with_residents;
    use crate::faults::DeviceError;
    use crate::kernels::try_wrap_crowd;
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
    fn bitexact_wrap_still_pays_device_costs() {
        let (model, fac, h, g) = setup();
        let mut dev = device_with_residents(&model);
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
}
