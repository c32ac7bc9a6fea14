//! Hybrid CPU+GPU Green's-function evaluation (§VI-C, Figure 10) — one
//! cost model for the three ways to split it.
//!
//! The paper's hybrid scheme keeps the stratification's QR factorizations on
//! the multicore host and offloads the matrix clustering (and wrapping) to
//! the accelerator. [`hybrid_greens`] reproduces that division of labour:
//! the cluster products are billed to the simulated [`Device`] (the host's
//! numbers, simulated time) and the stratification is flop-counted term by
//! term and charged to a cost model. The same terms are billed three ways,
//! so Figure 10's columns are internally consistent:
//!
//! - **hybrid** — clustering on the device clock, stratification on the
//!   [`HostSpec`];
//! - **CPU only** — clustering and stratification both on the [`HostSpec`];
//! - **full GPU** — the paper's stated future work (§VI closes: *"implement
//!   most of the stratification procedure (Algorithm 3) on the GPU using the
//!   recent advances for the QR decomposition on these systems"*, citing the
//!   communication-avoiding QR of Anderson et al., IPDPS 2011): the
//!   per-step GEMM, scalings, norms and CAQR-rate factorizations are billed
//!   to the device spec as well, and only the final small LU assembly
//!   returns to the host. This removes the per-iteration `Q` transfers and
//!   wins once the device QR rate beats the host's, i.e. at large N.

use crate::device::{Device, DeviceSpec, HostSpec};
use crate::kernels::try_cluster_crowd;
use dqmc::{greens_from_udt, stratify, BMatrixFactory, GreensFunction, HsField, Spin, StratAlgo};

/// Fraction of the device GEMM rate reached by communication-avoiding QR on
/// Fermi-class hardware (Anderson et al. report roughly this ratio at DQMC
/// sizes).
const DEVICE_CAQR_FRACTION: f64 = 0.35;

/// Outcome of one hybrid evaluation.
#[derive(Clone, Debug)]
pub struct HybridReport {
    /// The Green's function (exact, computed with the host kernels).
    pub greens: GreensFunction,
    /// Simulated seconds for the hybrid CPU+GPU pipeline.
    pub hybrid_seconds: f64,
    /// Simulated seconds for the same work on the CPU alone.
    pub cpu_seconds: f64,
    /// Simulated seconds with the stratification on the device too.
    pub gpu_seconds: f64,
    /// Flops attributed to one full evaluation.
    pub flops: f64,
    /// Device faults (launch failures, arena exhaustion, tainted downloads)
    /// encountered during the clustering offload. Each one's cluster fell
    /// back to the host, its GEMM cost charged to the device-side clocks at
    /// host rate.
    pub device_faults: usize,
}

impl HybridReport {
    /// Effective hybrid GFlop/s.
    pub fn hybrid_gflops(&self) -> f64 {
        self.flops / self.hybrid_seconds / 1e9
    }

    /// Effective CPU-only GFlop/s.
    pub fn cpu_gflops(&self) -> f64 {
        self.flops / self.cpu_seconds / 1e9
    }
}

/// The final `D_b Qᵀ + D_s T` assembly on the host model: an LU solve
/// (2/3 n³ + 2n³).
fn host_assembly_seconds(host: &HostSpec, n: usize) -> f64 {
    host.level3_time(8.0 / 3.0 * (n as f64).powi(3), n, 0.8)
}

/// Stratification cost on the host model for `lk` iterations at order `n`.
///
/// Per iteration: one GEMM (2n³), column scaling (n² streaming), one QR
/// (4/3 n³ at the QR or QRP fraction), explicit Q formation (4/3 n³ at the
/// QR fraction), and the triangular T update (n³ at GEMM rate); then the
/// assembly.
fn host_stratification_seconds(host: &HostSpec, n: usize, lk: usize, algo: StratAlgo) -> f64 {
    let nf = n as f64;
    let qr_frac = match algo {
        StratAlgo::PrePivot => host.qr_fraction,
        StratAlgo::Qrp => host.qrp_fraction,
    };
    let per_iter = host.level3_time(2.0 * nf.powi(3), n, 1.0)
        + host.level3_time(4.0 / 3.0 * nf.powi(3), n, qr_frac)
        + host.level3_time(4.0 / 3.0 * nf.powi(3), n, host.qr_fraction)
        + host.level3_time(nf.powi(3), n, 0.8)
        + 3.0 * nf * nf * 8.0 / (host.mem_bandwidth_gbs * 1e9);
    lk as f64 * per_iter + host_assembly_seconds(host, n)
}

/// The same stratification billed to the device spec, up to the point where
/// the assembly's two operands are back on the host.
///
/// Per iteration: one GEMM (2n³), one coalesced scaling pass and one
/// column-norm pass, one CAQR factorization + Q formation (8/3·n³ at the
/// CAQR rate), and the triangular T update (n³ at GEMM rate); then two N×N
/// transfers up.
fn device_stratification_seconds(spec: &DeviceSpec, n: usize, lk: usize) -> f64 {
    let nf = n as f64;
    let gemm_rate = spec.gemm_rate(n) * 1e9;
    let caqr_rate = gemm_rate * DEVICE_CAQR_FRACTION;
    let bw = spec.mem_bandwidth_gbs * 1e9;
    let per_iter = 2.0 * nf.powi(3) / gemm_rate
        + 3.0 * nf * nf * 16.0 / bw
        + (4.0 / 3.0 + 4.0 / 3.0) * nf.powi(3) / caqr_rate
        + nf.powi(3) / gemm_rate;
    let up_bytes = 2.0 * nf * nf * 8.0;
    let transfer = 2.0 * spec.pcie_latency_s + up_bytes / (spec.pcie_bandwidth_gbs * 1e9);
    lk as f64 * per_iter + transfer
}

/// Clustering cost on the host model: `lk · (k−1)` GEMMs plus scalings.
fn host_clustering_seconds(host: &HostSpec, n: usize, lk: usize, k: usize) -> f64 {
    let nf = n as f64;
    let gemms = (lk * (k - 1)) as f64;
    gemms * host.level3_time(2.0 * nf.powi(3), n, 1.0)
        + (lk * k) as f64 * nf * nf * 8.0 / (host.mem_bandwidth_gbs * 1e9)
}

/// Total flops attributed to one evaluation (clustering + stratification).
fn evaluation_flops(n: usize, lk: usize, k: usize) -> f64 {
    let nf = n as f64;
    let clustering = (lk * (k - 1)) as f64 * 2.0 * nf.powi(3);
    let strat = lk as f64 * (2.0 + 4.0 / 3.0 + 4.0 / 3.0 + 1.0) * nf.powi(3);
    let assembly = 8.0 / 3.0 * nf.powi(3);
    clustering + strat + assembly
}

/// Evaluates `G_σ = (I + B_{L}⋯B_1)⁻¹` with clustering on the device and
/// returns the exact Green's function plus the modelled hybrid, CPU-only
/// and full-GPU times.
///
/// Device faults (from an armed [`crate::FaultPlan`] or an arena limit) are
/// degraded gracefully: the affected cluster is recomputed on the host, its
/// GEMM cost is charged to the device-side clocks at host rate, and the
/// fault is tallied in the report — the evaluation itself always completes
/// exactly.
pub fn hybrid_greens(
    dev: &mut Device,
    host: &HostSpec,
    fac: &BMatrixFactory,
    h: &HsField,
    spin: Spin,
    k: usize,
    algo: StratAlgo,
) -> HybridReport {
    let n = fac.nsites();
    let slices = h.slices();
    assert!(k >= 1 && k <= slices);
    // The resident operand's upload is billed to the full-GPU pipeline only:
    // the hybrid scheme keeps `e^{−ΔτK}` on the device across evaluations.
    dev.reset_clock();
    dev.upload(n * n);
    let upload_seconds = dev.elapsed();

    // --- Device-side clustering (advances the device clock) ---
    dev.reset_clock();
    let mut clusters = Vec::new();
    let mut device_faults = 0usize;
    let mut fallback_seconds = 0.0;
    let mut lo = 0;
    while lo < slices {
        let hi = (lo + k).min(slices);
        // The device's one dense factor is the paper's DGEMM.
        let mut product = fac.cluster(h, lo, hi, spin);
        let billed = try_cluster_crowd(dev, &[n], hi - lo, &mut [&mut product]);
        if billed.is_err() || linalg::check::first_non_finite(product.as_slice()).is_some() {
            // Launch failure, arena exhaustion, or a tainted download:
            // recompute this cluster on the host and charge host time.
            device_faults += 1;
            fallback_seconds += host_clustering_seconds(host, n, 1, hi - lo);
            product = fac.cluster(h, lo, hi, spin);
        }
        clusters.push(product);
        lo = hi;
    }
    let device_seconds = dev.elapsed() + fallback_seconds;
    let lk = clusters.len();

    // --- Stratification (real numerics on the host kernels; modelled time) ---
    let greens = greens_from_udt(&stratify(&clusters, algo));
    let host_strat = host_stratification_seconds(host, n, lk, algo);

    HybridReport {
        greens,
        hybrid_seconds: device_seconds + host_strat,
        cpu_seconds: host_clustering_seconds(host, n, lk, k) + host_strat,
        gpu_seconds: upload_seconds
            + device_seconds
            + device_stratification_seconds(dev.spec(), n, lk)
            + host_assembly_seconds(host, n),
        flops: evaluation_flops(n, lk, k),
        device_faults,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::device::DeviceSpec;
    use dqmc::ModelParams;
    use lattice::Lattice;

    fn setup(nside: usize, slices: usize) -> (BMatrixFactory, HsField) {
        let model = ModelParams::new(Lattice::square(nside, nside, 1.0), 4.0, 0.0, 0.125, slices);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(3);
        let h = HsField::random(nside * nside, slices, &mut rng);
        (fac, h)
    }

    #[test]
    fn hybrid_result_is_exact() {
        let (fac, h) = setup(3, 16);
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let host = HostSpec::nehalem_2s4c();
        let rep = hybrid_greens(&mut dev, &host, &fac, &h, Spin::Up, 4, StratAlgo::PrePivot);
        let naive = dqmc::greens::greens_naive(&fac, &h, Spin::Up);
        let diff = dqmc::greens::relative_difference(&rep.greens.g, &naive.g);
        assert!(diff < 1e-9, "{diff}");
        assert_eq!(rep.greens.sign, naive.sign);
    }

    #[test]
    fn hybrid_beats_cpu_at_scale() {
        // Figure 10's point: at DQMC sizes the hybrid pipeline outruns the
        // CPU-only evaluation.
        let (fac, h) = setup(12, 20); // N = 144
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let host = HostSpec::nehalem_2s4c();
        let rep = hybrid_greens(&mut dev, &host, &fac, &h, Spin::Up, 10, StratAlgo::PrePivot);
        assert!(
            rep.hybrid_seconds < rep.cpu_seconds,
            "hybrid {} !< cpu {}",
            rep.hybrid_seconds,
            rep.cpu_seconds
        );
        assert!(rep.hybrid_gflops() > rep.cpu_gflops());
    }

    #[test]
    fn prepivot_faster_than_qrp_in_model() {
        let (fac, h) = setup(8, 20);
        let host = HostSpec::nehalem_2s4c();
        let mut d1 = Device::new(DeviceSpec::tesla_c2050());
        let r_pre = hybrid_greens(&mut d1, &host, &fac, &h, Spin::Up, 10, StratAlgo::PrePivot);
        let mut d2 = Device::new(DeviceSpec::tesla_c2050());
        let r_qrp = hybrid_greens(&mut d2, &host, &fac, &h, Spin::Up, 10, StratAlgo::Qrp);
        assert!(r_pre.hybrid_seconds < r_qrp.hybrid_seconds);
        // Same physics either way.
        let diff = dqmc::greens::relative_difference(&r_pre.greens.g, &r_qrp.greens.g);
        assert!(diff < 1e-9, "{diff}");
    }

    #[test]
    fn hybrid_degrades_gracefully_under_faults() {
        let (fac, h) = setup(3, 16);
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        // Launch failure in cluster 1 (8 launches per 4-slice cluster) plus a
        // corrupted download on the 2nd successful cluster.
        dev.arm_faults(
            crate::faults::FaultPlan::new()
                .with_seed(1)
                .fail_launch(5)
                .corrupt_transfer(2),
        );
        let host = HostSpec::nehalem_2s4c();
        let rep = hybrid_greens(&mut dev, &host, &fac, &h, Spin::Up, 4, StratAlgo::PrePivot);
        assert_eq!(rep.device_faults, 2);
        // Degraded, never wrong: the result is still exact.
        let naive = dqmc::greens::greens_naive(&fac, &h, Spin::Up);
        let diff = dqmc::greens::relative_difference(&rep.greens.g, &naive.g);
        assert!(diff < 1e-9, "{diff}");
        // Fault-free run on the same inputs reports zero faults and agrees
        // to stratification accuracy.
        let mut clean = Device::new(DeviceSpec::tesla_c2050());
        let rep0 = hybrid_greens(
            &mut clean,
            &host,
            &fac,
            &h,
            Spin::Up,
            4,
            StratAlgo::PrePivot,
        );
        assert_eq!(rep0.device_faults, 0);
        let agree = dqmc::greens::relative_difference(&rep0.greens.g, &rep.greens.g);
        assert!(agree < 1e-9, "{agree}");
    }

    #[test]
    fn flop_attribution_positive_and_scales() {
        let f1 = evaluation_flops(64, 4, 10);
        let f2 = evaluation_flops(128, 4, 10);
        assert!(f2 > 7.0 * f1, "≈n³ scaling: {f1} → {f2}");
    }
}
