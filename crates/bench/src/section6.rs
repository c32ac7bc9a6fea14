//! Section VI's cost studies as bills over shapes: Figure 9's clustering
//! and wrapping kernels and Figure 10's hybrid Green's evaluation.
//!
//! The device clock is a pure function of shapes ([`Device`] holds no
//! matrix data), so a cost study needs the order `n`, the slice count, the
//! cluster size `k` and the stratification algorithm, and nothing else: no
//! lattice, no field, no Green's function. Each bill calls the [`Device`]
//! ops of the kernel it models, in that kernel's order, and returns seconds
//! and flops. A bill that downloads passes a scratch `n × n` matrix, since
//! [`Device::download`] charges by element count.
//!
//! - [`try_cluster_cublas`] — Algorithm 4 verbatim: a `cublasDscal` per
//!   vector for each `V` scaling around one dense GEMM per slice.
//! - [`try_cluster_kernel`] — Algorithms 4 and 5 as the sweep bills them
//!   ([`gpusim::try_cluster_crowd`]), one walker, the one dense `e^{−ΔτK}`.
//! - [`try_wrap_fused`] — Algorithm 6 around Algorithm 7's fused two-sided
//!   scaling kernel: `e^{−ΔτK} (V G V⁻¹) e^{+ΔτK}` in three launches.
//! - [`hybrid_greens`] — Figure 10: one Green's evaluation billed three
//!   ways, clustering on the device and the stratification on a
//!   [`HostSpec`] (hybrid), both on the host (CPU only), or both on the
//!   device (full GPU, the paper's stated future work).

use dqmc::StratAlgo;
use gpusim::{try_cluster_crowd, Device, DeviceError, DeviceSpec};
use linalg::{Matrix, Side};

/// Performance model of the host CPU of the hybrid evaluation — a
/// two-socket four-core Nehalem node like the paper's Carver (§VI-C).
#[derive(Clone, Debug)]
pub struct HostSpec {
    /// Sustained DGEMM rate, GFlop/s.
    pub gemm_gflops: f64,
    /// Matrix order at which DGEMM reaches half rate.
    pub gemm_half_n: f64,
    /// QR (DGEQRF) fraction of the GEMM rate (panel overhead).
    pub qr_fraction: f64,
    /// Pivoted QR (DGEQP3) fraction of the GEMM rate (level-2 bound).
    pub qrp_fraction: f64,
    /// Memory bandwidth for level-1/2 sweeps, GB/s.
    pub mem_bandwidth_gbs: f64,
}

impl HostSpec {
    /// Eight Nehalem cores with MKL-class efficiency.
    pub fn nehalem_2s4c() -> Self {
        HostSpec {
            gemm_gflops: 70.0,
            gemm_half_n: 48.0,
            qr_fraction: 0.55,
            qrp_fraction: 0.17,
            mem_bandwidth_gbs: 32.0,
        }
    }

    /// Effective host GEMM rate at order `n`.
    pub fn gemm_rate(&self, n: usize) -> f64 {
        let n = n as f64;
        self.gemm_gflops * n / (n + self.gemm_half_n)
    }

    /// Modelled seconds for an `n³`-order kernel at a fraction of GEMM rate.
    pub fn level3_time(&self, flops: f64, n: usize, fraction: f64) -> f64 {
        flops / (self.gemm_rate(n) * fraction * 1e9)
    }
}

/// What one billed kernel cost on the device clock.
#[derive(Clone, Copy, Debug)]
pub struct Bill {
    /// Simulated seconds the kernel advanced the clock.
    pub seconds: f64,
    /// Flops attributed to the kernel.
    pub flops: f64,
}

impl Bill {
    /// The seconds `dev`'s clock advanced past `t0`, for `flops`.
    fn since(dev: &Device, t0: f64, flops: f64) -> Self {
        let seconds = dev.elapsed() - t0;
        Bill { seconds, flops }
    }

    /// Effective GFlop/s.
    pub fn gflops(&self) -> f64 {
        self.flops / self.seconds / 1e9
    }
}

/// One dense `n × n` GEMM: a one-factor operator over a stack of one.
fn try_dgemm(dev: &mut Device, n: usize) -> Result<(), DeviceError> {
    dev.try_mode_product_batched(n, 1, n * n, 1)
}

/// A cluster of `k` slices: its `k − 1` GEMMs dominate.
fn cluster_flops(n: usize, k: usize) -> f64 {
    (k - 1) as f64 * 2.0 * (n as f64).powi(3)
}

/// Algorithm 4 verbatim (the CUBLAS formulation Figure 9 measures
/// Algorithm 5 against): one walker's `k`-slice cluster product at order
/// `n`, billed as a `cublasDcopy` and a per-vector `cublasDscal` loop
/// (`n` launches) for each `V` scaling around one dense GEMM per slice.
///
/// With the `B = e^{−ΔτK}·V` convention the accumulation is
/// `T ← e^{−ΔτK}·(diag(V_l)·T)` after seeding `T = e^{−ΔτK}·diag(V_lo)`;
/// the per-element scaling work matches the paper's Algorithm 4 exactly.
pub fn try_cluster_cublas(dev: &mut Device, n: usize, k: usize) -> Result<Bill, DeviceError> {
    let t0 = dev.elapsed();
    dev.try_dcopy(n * n)?;
    dev.upload(n);
    dev.try_scale_cublas(Side::Right, n, n)?;
    for _ in 1..k {
        dev.upload(n);
        dev.try_dcopy(n * n)?;
        dev.try_scale_cublas(Side::Left, n, n)?;
        try_dgemm(dev, n)?;
    }
    dev.download(&mut [&mut Matrix::zeros(n, n)]);
    Ok(Bill::since(dev, t0, cluster_flops(n, k)))
}

/// Algorithms 4 and 5 as the sweep bills them: one walker's `k`-slice
/// cluster product at order `n` through [`gpusim::try_cluster_crowd`] with
/// the one dense `e^{−ΔτK}` (Figure 9's `gpu-cluster` column).
pub fn try_cluster_kernel(dev: &mut Device, n: usize, k: usize) -> Result<Bill, DeviceError> {
    let t0 = dev.elapsed();
    try_cluster_crowd(dev, &[n], k, &mut [&mut Matrix::zeros(n, n)])?;
    Ok(Bill::since(dev, t0, cluster_flops(n, k)))
}

/// Algorithm 6 around Algorithm 7's fused kernel (Figure 9's `gpu-wrap`
/// column): one walker's `G ← B_l G B_l⁻¹` at order `n` with the dense
/// `e^{∓ΔτK}`. `G` and `V` go down, one two-sided scaling runs between two
/// GEMMs, and `G` comes back.
pub fn try_wrap_fused(dev: &mut Device, n: usize) -> Result<Bill, DeviceError> {
    let t0 = dev.elapsed();
    dev.upload(n * n);
    dev.upload(n);
    dev.try_wrap_scale_kernel(n * n)?;
    dev.try_alloc(n, n, 1)?;
    try_dgemm(dev, n)?;
    dev.try_alloc(n, n, 1)?;
    try_dgemm(dev, n)?;
    dev.download(&mut [&mut Matrix::zeros(n, n)]);
    Ok(Bill::since(dev, t0, 2.0 * 2.0 * (n as f64).powi(3)))
}

/// Fraction of the device GEMM rate reached by communication-avoiding QR on
/// Fermi-class hardware (Anderson et al. report roughly this ratio at DQMC
/// sizes).
const DEVICE_CAQR_FRACTION: f64 = 0.35;

/// One Green's evaluation billed the three ways of Figure 10.
#[derive(Clone, Debug)]
pub struct HybridReport {
    /// Simulated seconds for the hybrid CPU+GPU pipeline.
    pub hybrid_seconds: f64,
    /// Simulated seconds for the same work on the CPU alone.
    pub cpu_seconds: f64,
    /// Simulated seconds with the stratification on the device too.
    pub gpu_seconds: f64,
    /// Flops attributed to one full evaluation.
    pub flops: f64,
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
pub(crate) fn evaluation_flops(n: usize, lk: usize, k: usize) -> f64 {
    let nf = n as f64;
    let clustering = (lk * (k - 1)) as f64 * 2.0 * nf.powi(3);
    let strat = lk as f64 * (2.0 + 4.0 / 3.0 + 4.0 / 3.0 + 1.0) * nf.powi(3);
    let assembly = 8.0 / 3.0 * nf.powi(3);
    clustering + strat + assembly
}

/// Bills one evaluation of `G_σ = (I + B_L⋯B_1)⁻¹` at order `n` over
/// `slices` slices in clusters of `k`: the clusters on `dev`'s clock
/// ([`gpusim::try_cluster_crowd`], the dense `e^{−ΔτK}`), the
/// stratification (`algo`) on `host`'s model or on the device spec.
/// Resets `dev`'s clock.
pub fn hybrid_greens(
    dev: &mut Device,
    host: &HostSpec,
    n: usize,
    slices: usize,
    k: usize,
    algo: StratAlgo,
) -> Result<HybridReport, DeviceError> {
    assert!(k >= 1 && k <= slices);
    // The resident operand's upload is billed to the full-GPU pipeline only:
    // the hybrid scheme keeps `e^{−ΔτK}` on the device across evaluations.
    dev.reset_clock();
    dev.upload(n * n);
    let upload_seconds = dev.elapsed();

    dev.reset_clock();
    let mut scratch = Matrix::zeros(n, n);
    let lk = slices.div_ceil(k);
    for c in 0..lk {
        let width = k.min(slices - c * k);
        try_cluster_crowd(dev, &[n], width, &mut [&mut scratch])?;
    }
    let device_seconds = dev.elapsed();
    let host_strat = host_stratification_seconds(host, n, lk, algo);

    Ok(HybridReport {
        hybrid_seconds: device_seconds + host_strat,
        cpu_seconds: host_clustering_seconds(host, n, lk, k) + host_strat,
        gpu_seconds: upload_seconds
            + device_seconds
            + device_stratification_seconds(dev.spec(), n, lk)
            + host_assembly_seconds(host, n),
        flops: evaluation_flops(n, lk, k),
    })
}
