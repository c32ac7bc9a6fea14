#[cfg(test)]
/// Tests of the full-GPU column of [`crate::section6::hybrid_greens`]
/// (stratification on the device too: the paper's stated future work).
mod tests {
    use crate::section6::{hybrid_greens, HostSpec, HybridReport};
    use dqmc::StratAlgo;
    use gpusim::{Device, DeviceSpec};

    /// One `lside × lside` evaluation over 20 slices in clusters of 10.
    fn report(lside: usize) -> HybridReport {
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let host = HostSpec::nehalem_2s4c();
        hybrid_greens(&mut dev, &host, lside * lside, 20, 10, StratAlgo::PrePivot).unwrap()
    }

    #[test]
    fn full_gpu_beats_hybrid_at_large_n() {
        let rep = report(16); // N = 256
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
        let rep = report(4); // N = 16
        let ratio = rep.hybrid_seconds / rep.gpu_seconds;
        let rep2 = report(16);
        let ratio_large = rep2.hybrid_seconds / rep2.gpu_seconds;
        assert!(
            ratio_large > ratio,
            "GPU advantage should grow with N: {ratio} → {ratio_large}"
        );
    }
}
