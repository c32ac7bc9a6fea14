//! Tests of the full-GPU column of [`crate::hybrid`]'s cost model
//! (stratification on the device too: the paper's stated future work).

#[cfg(test)]
mod tests {
    use crate::device::{Device, DeviceSpec, HostSpec};
    use crate::hybrid::hybrid_greens;
    use dqmc::{BMatrixFactory, HsField, ModelParams, Spin, StratAlgo};
    use lattice::Lattice;

    fn setup(lside: usize, slices: usize) -> (BMatrixFactory, HsField) {
        let model = ModelParams::new(Lattice::square(lside, lside, 1.0), 4.0, 0.0, 0.125, slices);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(41);
        let h = HsField::random(lside * lside, slices, &mut rng);
        (fac, h)
    }

    #[test]
    fn gpu_strat_result_is_exact() {
        let (fac, h) = setup(3, 16);
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let host = HostSpec::nehalem_2s4c();
        let rep = hybrid_greens(&mut dev, &host, &fac, &h, Spin::Up, 4, StratAlgo::PrePivot);
        let naive = dqmc::greens::greens_naive(&fac, &h, Spin::Up);
        let rel = dqmc::greens::relative_difference(&rep.greens.g, &naive.g);
        assert!(rel < 1e-9, "{rel}");
    }

    #[test]
    fn full_gpu_beats_hybrid_at_large_n() {
        let (fac, h) = setup(16, 20); // N = 256
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let host = HostSpec::nehalem_2s4c();
        let rep = hybrid_greens(&mut dev, &host, &fac, &h, Spin::Up, 10, StratAlgo::PrePivot);
        assert!(
            rep.gpu_seconds < rep.hybrid_seconds,
            "gpu {} !< hybrid {}",
            rep.gpu_seconds,
            rep.hybrid_seconds
        );
    }

    #[test]
    fn small_n_favors_hybrid_or_close() {
        // At tiny N the device QR underperforms the host's: the full-GPU
        // pipeline should NOT show the large-N advantage there.
        let (fac, h) = setup(4, 20); // N = 16
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let host = HostSpec::nehalem_2s4c();
        let rep = hybrid_greens(&mut dev, &host, &fac, &h, Spin::Up, 10, StratAlgo::PrePivot);
        let ratio = rep.hybrid_seconds / rep.gpu_seconds;
        let (fac2, h2) = setup(16, 20);
        let mut dev2 = Device::new(DeviceSpec::tesla_c2050());
        let rep2 = hybrid_greens(
            &mut dev2,
            &host,
            &fac2,
            &h2,
            Spin::Up,
            10,
            StratAlgo::PrePivot,
        );
        let ratio_large = rep2.hybrid_seconds / rep2.gpu_seconds;
        assert!(
            ratio_large > ratio,
            "GPU advantage should grow with N: {ratio} → {ratio_large}"
        );
    }
}
