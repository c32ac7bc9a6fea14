#[cfg(test)]
/// Tests of the two cluster-product bills in [`crate::section6`].
mod tests {
    use crate::section6::{try_cluster_cublas, try_cluster_kernel};
    use gpusim::{Device, DeviceSpec};

    #[test]
    fn custom_kernel_is_faster() {
        // The paper's §VI-A point: Algorithm 5's one-launch scaling beats
        // Algorithm 4's per-row `cublasDscal` loop on a 16-site, 10-slice
        // cluster.
        let mut d1 = Device::new(DeviceSpec::tesla_c2050());
        try_cluster_cublas(&mut d1, 16, 10).unwrap();

        let mut d2 = Device::new(DeviceSpec::tesla_c2050());
        try_cluster_kernel(&mut d2, 16, 10).unwrap();

        assert!(
            d2.elapsed() < d1.elapsed(),
            "custom {} !< cublas {}",
            d2.elapsed(),
            d1.elapsed()
        );
    }
}
