#[cfg(test)]
/// Tests of the fused wrap bill in [`crate::section6`].
mod tests {
    use crate::section6::{try_cluster_kernel, try_wrap_fused};
    use gpusim::{Device, DeviceSpec};

    #[test]
    fn wrap_transfers_two_matrices_and_a_vector() {
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let before = dev.bytes_transferred();
        try_wrap_fused(&mut dev, 16).unwrap();
        let moved = (dev.bytes_transferred() - before) as usize;
        let n = 16usize;
        assert_eq!(moved, 2 * n * n * 8 + n * 8);
    }

    #[test]
    fn wrapping_slower_per_flop_than_clustering() {
        // Figure 9: clustering's effective rate exceeds wrapping's.
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let cluster = try_cluster_kernel(&mut dev, 64, 10).unwrap();
        let rate_cluster = cluster.flops / cluster.seconds;

        dev.reset_clock();
        let wrap = try_wrap_fused(&mut dev, 64).unwrap();
        let rate_wrap = wrap.flops / wrap.seconds;

        assert!(
            rate_cluster > rate_wrap,
            "cluster rate {rate_cluster} !> wrap rate {rate_wrap}"
        );
    }
}
