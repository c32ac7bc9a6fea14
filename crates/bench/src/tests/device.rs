#[cfg(test)]
/// Tests of [`crate::section6::HostSpec`].
mod tests {
    use crate::section6::HostSpec;

    #[test]
    fn host_spec_rates_ordered() {
        let h = HostSpec::nehalem_2s4c();
        // The Figure 1 ordering: GEMM > QR > QRP.
        assert!(h.qr_fraction > h.qrp_fraction);
        assert!(h.gemm_rate(1024) > h.gemm_rate(64));
        let t_gemm = h.level3_time(1e9, 512, 1.0);
        let t_qr = h.level3_time(1e9, 512, h.qr_fraction);
        let t_qrp = h.level3_time(1e9, 512, h.qrp_fraction);
        assert!(t_gemm < t_qr && t_qr < t_qrp);
    }
}
