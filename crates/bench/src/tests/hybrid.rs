#[cfg(test)]
/// Tests of [`crate::section6::hybrid_greens`]'s hybrid and CPU-only
/// columns.
mod tests {
    use crate::section6::{evaluation_flops, hybrid_greens, HostSpec, HybridReport};
    use dqmc::StratAlgo;
    use gpusim::{Device, DeviceSpec};

    /// One evaluation at order `n` over `slices` slices in clusters of 10.
    fn report(n: usize, slices: usize, algo: StratAlgo) -> HybridReport {
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let host = HostSpec::nehalem_2s4c();
        hybrid_greens(&mut dev, &host, n, slices, 10, algo).unwrap()
    }

    #[test]
    fn hybrid_beats_cpu_at_scale() {
        // Figure 10's point: at DQMC sizes the hybrid pipeline outruns the
        // CPU-only evaluation.
        let rep = report(144, 20, StratAlgo::PrePivot);
        assert!(
            rep.hybrid_seconds < rep.cpu_seconds,
            "hybrid {} !< cpu {}",
            rep.hybrid_seconds,
            rep.cpu_seconds
        );
        assert!(rep.hybrid_gflops() > rep.cpu_gflops());
    }

    #[test]
    fn hybrid_speedup_grows_with_system_size() {
        // Figure 10's qualitative content: the hybrid advantage grows with N.
        let speedup = |n: usize| {
            let rep = report(n, 20, StratAlgo::PrePivot);
            rep.cpu_seconds / rep.hybrid_seconds
        };
        let s_small = speedup(36);
        let s_large = speedup(196);
        assert!(
            s_large > s_small,
            "hybrid advantage should grow: {s_small} → {s_large}"
        );
        assert!(s_large > 1.0, "hybrid must win at N = 196: {s_large}");
    }

    #[test]
    fn prepivot_faster_than_qrp_in_model() {
        let r_pre = report(64, 20, StratAlgo::PrePivot);
        let r_qrp = report(64, 20, StratAlgo::Qrp);
        assert!(r_pre.hybrid_seconds < r_qrp.hybrid_seconds);
    }

    #[test]
    fn flop_attribution_positive_and_scales() {
        let f1 = evaluation_flops(64, 4, 10);
        let f2 = evaluation_flops(128, 4, 10);
        assert!(f2 > 7.0 * f1, "≈n³ scaling: {f1} → {f2}");
    }
}
