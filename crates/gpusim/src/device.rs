//! The device model: real numerics, simulated time.

use crate::faults::{DeviceError, Fault, FaultPlan};
use linalg::blas3::Op;
use linalg::{scale, Matrix};
use util::SimClock;

/// The driver's kernel timeout, in simulated seconds: a launch that would
/// take this long is killed and reported as a hang. 2 s is the default
/// timeout of a display-attached driver (Windows TDR).
pub const LAUNCH_DEADLINE_S: f64 = 2.0;

/// Performance characteristics of a (simulated) accelerator.
#[derive(Clone, Debug)]
pub struct DeviceSpec {
    /// Device name (reporting only).
    pub name: &'static str,
    /// Asymptotic sustained double-precision GEMM rate, GFlop/s.
    pub gemm_gflops: f64,
    /// Matrix order at which GEMM reaches half its asymptotic rate
    /// (GPUs need large tiles to saturate; CPUs saturate much earlier).
    pub gemm_half_n: f64,
    /// Device memory bandwidth for coalesced access, GB/s.
    pub mem_bandwidth_gbs: f64,
    /// Fraction of bandwidth achieved by non-coalesced (row-wise) access.
    pub uncoalesced_fraction: f64,
    /// Host↔device transfer bandwidth, GB/s (0 ⇒ no transfer cost: host).
    pub pcie_bandwidth_gbs: f64,
    /// Per-transfer latency, seconds.
    pub pcie_latency_s: f64,
    /// Per-kernel launch overhead, seconds.
    pub kernel_launch_s: f64,
}

impl DeviceSpec {
    /// A Tesla C2050-class accelerator (the paper's §VI hardware): ~515
    /// GFlop/s DP peak, ~170 sustained DGEMM at large N, 144 GB/s memory,
    /// PCIe 2.0 ×16.
    pub fn tesla_c2050() -> Self {
        DeviceSpec {
            name: "sim-tesla-c2050",
            gemm_gflops: 170.0,
            gemm_half_n: 128.0,
            mem_bandwidth_gbs: 120.0,
            uncoalesced_fraction: 0.15,
            pcie_bandwidth_gbs: 3.0,
            pcie_latency_s: 10e-6,
            kernel_launch_s: 7e-6,
        }
    }

    /// Effective GEMM rate at order `n` (saturation curve).
    pub fn gemm_rate(&self, n: usize) -> f64 {
        let n = n as f64;
        self.gemm_gflops * n / (n + self.gemm_half_n)
    }

    /// Whether a launch slowed `factor`× reaches [`LAUNCH_DEADLINE_S`], so
    /// the driver kills it as a hang.
    pub fn launch_hangs(&self, factor: f64) -> bool {
        factor * self.kernel_launch_s >= LAUNCH_DEADLINE_S
    }
}

/// Performance model of the host CPU used by the hybrid driver — a
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

/// A matrix resident in (simulated) device memory.
#[derive(Clone, Debug)]
pub struct DMatrix {
    m: Matrix,
}

impl DMatrix {
    /// Host view of the device contents (free of simulated cost — test hook;
    /// use [`Device::get_matrix_stack_into`] to model the PCIe read).
    pub fn host_view(&self) -> &Matrix {
        &self.m
    }

    /// Matrix order helpers.
    pub fn nrows(&self) -> usize {
        self.m.nrows()
    }

    /// Column count.
    pub fn ncols(&self) -> usize {
        self.m.ncols()
    }
}

/// The simulated accelerator: a CUBLAS-like handle whose operations compute
/// exact host results while advancing a simulated clock.
///
/// Every operation has one form. Launches and allocations are fallible
/// (`try_*`): they return a [`DeviceError`] when an armed [`FaultPlan`]
/// fires or a launch reaches [`LAUNCH_DEADLINE_S`], and a caller that
/// armed nothing says so with `?` or `expect` at its call site. Wherever
/// CUBLAS has a batched form the operation takes a stack — a solo caller
/// passes a stack of one and is charged exactly one matrix's worth. Only
/// Algorithm 4's per-vector `cublasDscal` loops and Algorithm 7's fused
/// scaling kernel, which Figure 9 studies and which have no batched
/// analogue, take one matrix.
#[derive(Clone, Debug)]
pub struct Device {
    spec: DeviceSpec,
    clock: SimClock,
    bytes_transferred: u64,
    kernels_launched: u64,
    downloads: u64,
    allocs: u64,
    compute_ops: u64,
    faults: FaultPlan,
    faults_injected: u64,
}

impl Device {
    /// Creates a device from a spec with the clock at zero.
    pub fn new(spec: DeviceSpec) -> Self {
        Device {
            spec,
            clock: SimClock::new(),
            bytes_transferred: 0,
            kernels_launched: 0,
            downloads: 0,
            allocs: 0,
            compute_ops: 0,
            faults: FaultPlan::new(),
            faults_injected: 0,
        }
    }

    /// Arms a scripted fault schedule. Replaces any previous plan.
    pub fn arm_faults(&mut self, plan: FaultPlan) {
        self.faults = plan;
    }

    /// Number of faults the armed plan has actually injected so far.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected
    }

    /// The device spec.
    pub fn spec(&self) -> &DeviceSpec {
        &self.spec
    }

    /// Simulated seconds elapsed.
    pub fn elapsed(&self) -> f64 {
        self.clock.now()
    }

    /// Total host↔device bytes moved.
    pub fn bytes_transferred(&self) -> u64 {
        self.bytes_transferred
    }

    /// Kernels launched (including CUBLAS calls).
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched
    }

    /// Device→host matrix downloads performed.
    pub fn downloads(&self) -> u64 {
        self.downloads
    }

    /// Device allocations performed (attempted, including failed ones).
    pub fn allocs(&self) -> u64 {
        self.allocs
    }

    /// Compute operations performed (GEMMs, scalings, wrap kernels).
    pub fn compute_ops(&self) -> u64 {
        self.compute_ops
    }

    /// Resets the clock and transfer/launch counters (contents of device
    /// matrices, fault schedule and fault ordinals persist).
    pub fn reset_clock(&mut self) {
        self.clock.reset();
        self.bytes_transferred = 0;
        self.kernels_launched = 0;
    }

    fn transfer(&mut self, bytes: usize) {
        self.bytes_transferred += bytes as u64;
        self.clock.advance(
            self.spec.pcie_latency_s + bytes as f64 / (self.spec.pcie_bandwidth_gbs * 1e9),
        );
    }

    /// Charges one kernel launch; fails if the armed plan scheduled this
    /// launch ordinal to fail, hang, or land in a sick window. The launch
    /// overhead is charged either way (the driver burned the submission
    /// before rejecting it), and scripted latency inflation multiplies it
    /// even when the launch succeeds — fail-slow is invisible to numerics.
    /// An inflated launch that reaches [`LAUNCH_DEADLINE_S`] is killed by
    /// the driver: it fails, and is charged, exactly as a scripted hang.
    fn try_launch(&mut self, kernel: &'static str) -> Result<(), DeviceError> {
        self.kernels_launched += 1;
        self.clock.advance(self.spec.kernel_launch_s);
        let mut hang = self.faults.take(Fault::Hang, self.kernels_launched);
        self.faults_injected += u64::from(hang);
        if let Some(factor) = self.faults.take_slow(self.kernels_launched) {
            self.faults_injected += 1;
            if self.spec.launch_hangs(factor) {
                hang = true;
            } else {
                // The launch already paid 1× overhead; charge the excess.
                self.clock
                    .advance(self.spec.kernel_launch_s * (factor - 1.0));
            }
        }
        if hang {
            return Err(DeviceError::Hang {
                kernel,
                launch_index: self.kernels_launched,
            });
        }
        if let Some(window) = self.faults.sick_window_hit(self.kernels_launched) {
            self.faults_injected += 1;
            return Err(DeviceError::SickDevice {
                kernel,
                launch_index: self.kernels_launched,
                window,
            });
        }
        if self.faults.take(Fault::FailLaunch, self.kernels_launched) {
            self.faults_injected += 1;
            return Err(DeviceError::KernelLaunchFailure {
                kernel,
                launch_index: self.kernels_launched,
            });
        }
        Ok(())
    }

    /// Counts a completed compute op and applies any scheduled bit flip to
    /// its output: one element has a high mantissa bit XOR-ed (finite, wrong).
    fn finish_compute(&mut self, out: &mut Matrix) {
        self.compute_ops += 1;
        if self.faults.take(Fault::BitFlip, self.compute_ops) {
            let data = out.as_mut_slice();
            let i = self.faults.pick_index(data.len());
            let bit = self.faults.pick_mantissa_bit();
            data[i] = f64::from_bits(data[i].to_bits() ^ (1u64 << bit));
            self.faults_injected += 1;
        }
    }

    /// `cublasSetMatrix` of a stack of matrices: one PCIe transaction moves
    /// all of them, so the per-transfer latency is paid once per call.
    pub fn set_matrix_stack(&mut self, hosts: &[&Matrix]) -> Vec<DMatrix> {
        let total: usize = hosts.iter().map(|h| h.as_slice().len()).sum();
        self.transfer(total * 8);
        hosts.iter().map(|h| DMatrix { m: (*h).clone() }).collect()
    }

    /// `cublasSetVector` of a stack of diagonals into pre-allocated device
    /// vectors: one transfer, no device-side allocation.
    pub fn set_vector_stack_into(&mut self, vs: &[&[f64]], dsts: &mut [Vec<f64>]) {
        assert_eq!(vs.len(), dsts.len());
        let total: usize = vs.iter().map(|v| v.len()).sum();
        self.transfer(total * 8);
        for (v, dst) in vs.iter().zip(dsts.iter_mut()) {
            dst.clear();
            dst.extend_from_slice(v);
        }
    }

    /// `cublasGetMatrix` of a stack of matrices — the single device→host
    /// path: one PCIe transaction, one download ordinal. Scheduled transfer
    /// corruption poisons exactly one element of the stacked payload
    /// (landing in one walker's image) and still returns normally — callers
    /// on the recovery path must scan each received matrix.
    pub fn get_matrix_stack_into(&mut self, ds: &[&DMatrix], outs: &mut [&mut Matrix]) {
        assert_eq!(ds.len(), outs.len());
        let mut total = 0usize;
        for (d, out) in ds.iter().zip(outs.iter_mut()) {
            assert!(d.m.nrows() == out.nrows() && d.m.ncols() == out.ncols());
            out.as_mut_slice().copy_from_slice(d.m.as_slice());
            total += d.m.as_slice().len();
        }
        self.transfer(total * 8);
        self.downloads += 1;
        if self.faults.take(Fault::CorruptDownload, self.downloads) && total > 0 {
            let mut i = self.faults.pick_index(total);
            for out in outs.iter_mut() {
                let data = out.as_mut_slice();
                if i < data.len() {
                    data[i] = f64::NAN;
                    break;
                }
                i -= data.len();
            }
            self.faults_injected += 1;
        }
    }

    /// Allocates `count` uninitialised (zero) device matrices, each counted
    /// as its own allocation ordinal (allocation has no PCIe or launch cost
    /// to amortise). Fails on a scheduled arena exhaustion.
    pub fn try_alloc(
        &mut self,
        nrows: usize,
        ncols: usize,
        count: usize,
    ) -> Result<Vec<DMatrix>, DeviceError> {
        let mut out = Vec::with_capacity(count);
        for _ in 0..count {
            self.allocs += 1;
            if self.faults.take(Fault::Oom, self.allocs) {
                self.faults_injected += 1;
                return Err(DeviceError::ArenaExhausted {
                    requested: nrows * ncols * 8,
                });
            }
            out.push(DMatrix {
                m: Matrix::zeros(nrows, ncols),
            });
        }
        Ok(out)
    }

    /// `cublasDcopy` of a whole matrix.
    pub fn try_dcopy(&mut self, src: &DMatrix) -> Result<DMatrix, DeviceError> {
        self.try_stream("dcopy", src.m.as_slice().len(), 1.0)?;
        Ok(DMatrix { m: src.m.clone() })
    }

    /// `cublasDgemmStridedBatched` with one shared factor of a
    /// Kronecker-factored operator, over reshaped entries: `dsts[e] ←
    /// srcs[e]` with one axis multiplied by `op(factor)`
    /// ([`linalg::kron::mode_product`], whose numerics — the host's, bit
    /// for bit — it runs; `linalg::kron::steps` gives `op` and `inner`). A
    /// dense operator is its own one factor, and then each entry is the
    /// plain GEMM `factor·src` or `src·factor`. The reshape is free, as
    /// strides are on a GPU. Cost model: **one** kernel launch (the batched
    /// driver submits the whole stack) plus, per entry, the mode product's
    /// GEMMs at the rate of one of them; each entry counts one compute op,
    /// so bit-flip fault ordinals see every entry.
    pub fn try_mode_product_batched(
        &mut self,
        factor: &DMatrix,
        op: Op,
        inner: usize,
        srcs: &[DMatrix],
        dsts: &mut [DMatrix],
    ) -> Result<(), DeviceError> {
        assert_eq!(srcs.len(), dsts.len());
        if dsts.is_empty() {
            return Ok(());
        }
        self.try_launch("dgemm_strided_batched")?;
        let n = factor.nrows();
        let outer = srcs[0].m.as_slice().len() / (inner * n);
        if inner == 1 {
            self.charge_gemms((n, outer, n), 1, dsts.len());
        } else {
            self.charge_gemms((inner, n, n), outer, dsts.len());
        }
        for (src, dst) in srcs.iter().zip(dsts.iter_mut()) {
            linalg::kron::mode_product(&factor.m, op, inner, &src.m, &mut dst.m);
            self.finish_compute(&mut dst.m);
        }
        Ok(())
    }

    /// Advances the clock by `count` `m × n × k` GEMMs per entry of an
    /// `entries`-entry stack, each at the saturation-curve rate of its order.
    fn charge_gemms(&mut self, (m, n, k): (usize, usize, usize), count: usize, entries: usize) {
        let flops = 2.0 * m as f64 * n as f64 * k as f64;
        let order = ((m * n * k) as f64).cbrt() as usize;
        let per_gemm = flops / (self.spec.gemm_rate(order) * 1e9);
        self.clock.advance(per_gemm * count as f64 * entries as f64);
    }

    /// One launch streaming `len` elements (read + write) at `fraction` of
    /// the device memory bandwidth.
    fn try_stream(
        &mut self,
        kernel: &'static str,
        len: usize,
        fraction: f64,
    ) -> Result<(), DeviceError> {
        self.try_launch(kernel)?;
        let bytes = (len * 16) as f64;
        self.clock
            .advance(bytes / (self.spec.mem_bandwidth_gbs * fraction * 1e9));
        Ok(())
    }

    /// Algorithm 5, batched: the custom row-scaling kernel, one launch for
    /// the whole stack, coalesced. `a_e ← diag(v_e)·a_e`.
    pub fn try_scale_rows_kernel_batched(
        &mut self,
        vs: &[Vec<f64>],
        as_: &mut [DMatrix],
    ) -> Result<(), DeviceError> {
        self.try_scale_kernel_batched("scale_rows_kernel_batched", vs, as_, scale::row_scale)
    }

    /// Algorithm 5 in column form, batched: one launch for the whole stack.
    /// `a_e ← a_e·diag(v_e)`.
    pub fn try_scale_cols_kernel_batched(
        &mut self,
        vs: &[Vec<f64>],
        as_: &mut [DMatrix],
    ) -> Result<(), DeviceError> {
        self.try_scale_kernel_batched("scale_cols_kernel_batched", vs, as_, scale::col_scale)
    }

    fn try_scale_kernel_batched(
        &mut self,
        kernel: &'static str,
        vs: &[Vec<f64>],
        as_: &mut [DMatrix],
        apply: impl Fn(&[f64], &mut Matrix),
    ) -> Result<(), DeviceError> {
        assert_eq!(vs.len(), as_.len());
        if as_.is_empty() {
            return Ok(());
        }
        let total: usize = as_.iter().map(|a| a.m.as_slice().len()).sum();
        self.try_stream(kernel, total, 1.0)?;
        for (v, a) in vs.iter().zip(as_.iter_mut()) {
            apply(v, &mut a.m);
            self.finish_compute(&mut a.m);
        }
        Ok(())
    }

    /// Algorithm 4's scaling: one `cublasDscal` per row (N launches,
    /// non-coalesced row access). `a ← diag(v)·a`. On a launch failure
    /// partway through the row loop the matrix is left unmodified (the
    /// scaling is applied only after every launch succeeded).
    pub fn try_scale_rows_cublas(&mut self, v: &[f64], a: &mut DMatrix) -> Result<(), DeviceError> {
        for _ in 0..a.m.nrows() {
            self.try_stream("dscal", a.m.ncols(), self.spec.uncoalesced_fraction)?;
        }
        scale::row_scale(v, &mut a.m);
        self.finish_compute(&mut a.m);
        Ok(())
    }

    /// Algorithm 4's scaling in column form: one `cublasDscal` per column.
    /// Columns are contiguous in device memory, so each launch streams
    /// coalesced — but the `N` launch overheads remain. `a ← a·diag(v)`.
    /// Same no-partial-effect guarantee as
    /// [`Device::try_scale_rows_cublas`].
    pub fn try_scale_cols_cublas(&mut self, v: &[f64], a: &mut DMatrix) -> Result<(), DeviceError> {
        for _ in 0..a.m.ncols() {
            self.try_stream("dscal", a.m.nrows(), 1.0)?;
        }
        scale::col_scale(v, &mut a.m);
        self.finish_compute(&mut a.m);
        Ok(())
    }

    /// Algorithm 7: custom two-sided scaling kernel
    /// `G ← diag(v)·G·diag(v)⁻¹` — one launch; the column factor arrives via
    /// the texture cache, modelled as a gather at ~70 % of streaming
    /// bandwidth.
    pub fn try_wrap_scale_kernel(&mut self, v: &[f64], g: &mut DMatrix) -> Result<(), DeviceError> {
        self.try_stream("wrap_scale_kernel", g.m.as_slice().len(), 0.7)?;
        let vinv: Vec<f64> = v.iter().map(|&x| 1.0 / x).collect();
        scale::row_col_scale(v, &vinv, &mut g.m);
        self.finish_compute(&mut g.m);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::blas3::gemm;
    use util::Rng;

    fn dev() -> Device {
        Device::new(DeviceSpec::tesla_c2050())
    }

    fn up(d: &mut Device, m: &Matrix) -> DMatrix {
        d.set_matrix_stack(&[m]).remove(0)
    }

    fn down(d: &mut Device, dm: &DMatrix) -> Matrix {
        let mut out = Matrix::zeros(dm.nrows(), dm.ncols());
        d.get_matrix_stack_into(&[dm], &mut [&mut out]);
        out
    }

    /// `c[0] = a·b` as a stack of one: `a` is a one-factor operator.
    fn dgemm(
        d: &mut Device,
        a: &DMatrix,
        b: &DMatrix,
        c: &mut [DMatrix],
    ) -> Result<(), DeviceError> {
        d.try_mode_product_batched(a, Op::NoTrans, 1, std::slice::from_ref(b), c)
    }

    #[test]
    fn transfers_advance_clock_and_counters() {
        let mut d = dev();
        let m = Matrix::identity(64);
        let dm = up(&mut d, &m);
        assert!(d.elapsed() > 0.0);
        assert_eq!(d.bytes_transferred(), 64 * 64 * 8);
        let back = down(&mut d, &dm);
        assert_eq!(back, m);
        assert_eq!(d.bytes_transferred(), 2 * 64 * 64 * 8);
        assert_eq!(d.downloads(), 1);
    }

    #[test]
    fn dgemm_matches_host_bitwise() {
        let mut rng = Rng::new(1);
        let a = Matrix::random(40, 40, &mut rng);
        let b = Matrix::random(40, 40, &mut rng);
        let mut d = dev();
        let da = up(&mut d, &a);
        let db = up(&mut d, &b);
        let mut dc = d.try_alloc(40, 40, 1).unwrap();
        dgemm(&mut d, &da, &db, &mut dc).unwrap();
        let mut host = Matrix::zeros(40, 40);
        gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut host);
        assert_eq!(
            dc[0].host_view(),
            &host,
            "device result must be bit-identical"
        );
    }

    #[test]
    fn gemm_rate_saturates_with_n() {
        let s = DeviceSpec::tesla_c2050();
        assert!(s.gemm_rate(64) < s.gemm_rate(512));
        assert!(s.gemm_rate(512) < s.gemm_rate(4096));
        assert!(s.gemm_rate(4096) < s.gemm_gflops);
        // Half rate at gemm_half_n.
        assert!((s.gemm_rate(128) - 0.5 * s.gemm_gflops).abs() < 1e-9);
    }

    #[test]
    fn custom_kernel_faster_than_cublas_row_loop() {
        // The Algorithm 5 kernel must beat Algorithm 4's per-row dscal loop
        // (the paper's §VI-A point).
        let mut rng = Rng::new(2);
        let a = Matrix::random(256, 256, &mut rng);
        let v: Vec<f64> = (0..256).map(|i| 1.0 + i as f64 * 1e-3).collect();

        let mut d1 = dev();
        let mut m1 = up(&mut d1, &a);
        d1.reset_clock();
        d1.try_scale_rows_cublas(&v, &mut m1).unwrap();
        let slow = d1.elapsed();

        let mut d2 = dev();
        let mut m2 = d2.set_matrix_stack(&[&a]);
        d2.reset_clock();
        d2.try_scale_rows_kernel_batched(&[v], &mut m2).unwrap();
        let fast = d2.elapsed();

        assert!(fast < slow / 5.0, "kernel {fast} vs row-loop {slow}");
        assert_eq!(m1.host_view(), m2[0].host_view(), "same numerics");
    }

    #[test]
    fn wrap_scale_kernel_correct() {
        let mut rng = Rng::new(3);
        let g = Matrix::random(32, 32, &mut rng);
        let v: Vec<f64> = (0..32).map(|i| (0.1 * i as f64).exp()).collect();
        let mut d = dev();
        let mut dg = up(&mut d, &g);
        d.try_wrap_scale_kernel(&v, &mut dg).unwrap();
        for i in 0..32 {
            for j in 0..32 {
                let expect = v[i] * g[(i, j)] / v[j];
                assert!((dg.host_view()[(i, j)] - expect).abs() < 1e-13);
            }
        }
    }

    #[test]
    fn dcopy_duplicates_and_costs() {
        let mut d = dev();
        let m = up(&mut d, &Matrix::identity(16));
        let t0 = d.elapsed();
        let c = d.try_dcopy(&m).unwrap();
        assert!(d.elapsed() > t0);
        assert_eq!(c.host_view(), m.host_view());
    }

    #[test]
    fn kernel_launches_counted() {
        let mut d = dev();
        let mut m = d.set_matrix_stack(&[&Matrix::identity(8)]);
        let v = vec![2.0; 8];
        d.try_scale_rows_cublas(&v, &mut m[0]).unwrap(); // 8 launches
        d.try_scale_rows_kernel_batched(&[v], &mut m).unwrap(); // 1 launch
        assert_eq!(d.kernels_launched(), 9);
    }

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

    #[test]
    fn unarmed_device_is_bit_and_cost_identical() {
        // A device that never arms a plan must behave exactly like one that
        // arms the empty plan: same numerics, clock, and counters.
        let mut rng = Rng::new(4);
        let a = Matrix::random(24, 24, &mut rng);
        let run = |armed: bool| {
            let mut d = dev();
            if armed {
                d.arm_faults(FaultPlan::new());
            }
            let da = up(&mut d, &a);
            let mut t = vec![d.try_dcopy(&da).unwrap()];
            d.try_scale_rows_kernel_batched(&[vec![1.5; 24]], &mut t)
                .unwrap();
            let mut c = d.try_alloc(24, 24, 1).unwrap();
            dgemm(&mut d, &da, &t[0], &mut c).unwrap();
            (down(&mut d, &c[0]), d.elapsed(), d.kernels_launched())
        };
        let (m1, t1, k1) = run(false);
        let (m2, t2, k2) = run(true);
        assert_eq!(m1, m2);
        assert_eq!(t1.to_bits(), t2.to_bits());
        assert_eq!(k1, k2);
    }

    #[test]
    fn scheduled_download_corruption_poisons_one_element() {
        let mut d = dev();
        d.arm_faults(FaultPlan::new().with_seed(11).corrupt_transfer(2));
        let m = Matrix::identity(8);
        let dm = up(&mut d, &m);
        assert_eq!(down(&mut d, &dm), m, "download #1 is clean");
        let bad = down(&mut d, &dm);
        let nans = bad.as_slice().iter().filter(|x| x.is_nan()).count();
        assert_eq!(nans, 1, "download #2 carries exactly one NaN");
        assert_eq!(d.faults_injected(), 1);
        assert_eq!(down(&mut d, &dm), m, "one-shot: download #3 clean again");
    }

    #[test]
    fn scheduled_launch_failure_fires_then_clears() {
        let mut d = dev();
        d.arm_faults(FaultPlan::new().fail_launch(2));
        let da = up(&mut d, &Matrix::identity(8));
        let db = up(&mut d, &Matrix::identity(8));
        let mut c = d.try_alloc(8, 8, 1).unwrap();
        assert!(dgemm(&mut d, &da, &db, &mut c).is_ok());
        let err = dgemm(&mut d, &da, &db, &mut c).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::KernelLaunchFailure {
                kernel: "dgemm_strided_batched",
                launch_index: 2
            }
        ));
        assert!(dgemm(&mut d, &da, &db, &mut c).is_ok(), "retry ok");
        assert_eq!(d.faults_injected(), 1);
    }

    #[test]
    fn scheduled_hang_wedge_and_sick_window_fire_at_launch() {
        // A wedged device is a hang at every launch: here launches 1 and 2.
        let mut d = dev();
        d.arm_faults(
            FaultPlan::new()
                .hang_at_launch(1)
                .hang_at_launch(2)
                .sick_window(3, 4),
        );
        let da = up(&mut d, &Matrix::identity(8));
        let db = up(&mut d, &Matrix::identity(8));
        let mut c = d.try_alloc(8, 8, 1).unwrap();
        for _ in 0..2 {
            let e = dgemm(&mut d, &da, &db, &mut c).unwrap_err();
            assert!(matches!(e, DeviceError::Hang { .. }), "{e}");
        }
        let e3 = dgemm(&mut d, &da, &db, &mut c).unwrap_err();
        assert!(matches!(e3, DeviceError::SickDevice { .. }), "{e3}");
        let e4 = dgemm(&mut d, &da, &db, &mut c).unwrap_err();
        assert!(
            matches!(e4, DeviceError::SickDevice { .. }),
            "window persists"
        );
        assert!(dgemm(&mut d, &da, &db, &mut c).is_ok(), "window over");
        assert_eq!(d.faults_injected(), 4);
    }

    #[test]
    fn slow_launch_inflates_clock_only() {
        // Latency inflation on the same op as silent corruption: the op is
        // slow AND the download is poisoned, but the computed numerics are
        // untouched — fail-slow composes with fail-silent.
        let mut rng = Rng::new(6);
        let a = Matrix::random(16, 16, &mut rng);
        let run = |plan: Option<FaultPlan>| {
            let mut d = dev();
            if let Some(p) = plan {
                d.arm_faults(p);
            }
            let da = up(&mut d, &a);
            let mut c = d.try_alloc(16, 16, 1).unwrap();
            dgemm(&mut d, &da, &da, &mut c).unwrap();
            let out = down(&mut d, &c[0]);
            (out, d.elapsed())
        };
        let (clean, t_clean) = run(None);
        let plan = FaultPlan::new()
            .with_seed(3)
            .slow_launch(1, 64.0)
            .corrupt_transfer(1);
        let (slow, t_slow) = run(Some(plan));
        assert!(t_slow > t_clean, "inflation must show in the clock");
        let spec = DeviceSpec::tesla_c2050();
        assert!(
            (t_slow - t_clean - 63.0 * spec.kernel_launch_s).abs() < 1e-12,
            "excess is exactly (factor-1) x launch overhead"
        );
        let nans = slow.as_slice().iter().filter(|x| x.is_nan()).count();
        assert_eq!(nans, 1, "corruption fired on the same op");
        let agree = clean
            .as_slice()
            .iter()
            .zip(slow.as_slice())
            .filter(|(x, y)| x.to_bits() == y.to_bits())
            .count();
        assert_eq!(agree, 16 * 16 - 1, "all other elements bit-identical");
    }

    #[test]
    fn slow_launch_reaching_the_deadline_is_a_hang() {
        // Same error and same clock charge as a scripted hang; one factor
        // below the deadline the launch still succeeds, only slower.
        let spec = DeviceSpec::tesla_c2050();
        let at_deadline = (LAUNCH_DEADLINE_S / spec.kernel_launch_s).ceil();
        assert!(spec.launch_hangs(at_deadline) && !spec.launch_hangs(at_deadline - 1.0));
        let run = |plan: FaultPlan| {
            let mut d = dev();
            d.arm_faults(plan);
            let da = up(&mut d, &Matrix::identity(8));
            let mut c = d.try_alloc(8, 8, 1).unwrap();
            (
                dgemm(&mut d, &da, &da, &mut c),
                d.elapsed(),
                d.faults_injected(),
            )
        };
        let (hang, t_hang, n_hang) = run(FaultPlan::new().hang_at_launch(1));
        let (slow, t_slow, n_slow) = run(FaultPlan::new().slow_launch(1, at_deadline));
        assert!(matches!(slow, Err(DeviceError::Hang { .. })));
        assert_eq!(slow, hang);
        assert_eq!((t_slow.to_bits(), n_slow), (t_hang.to_bits(), n_hang));
        let (below, _, _) = run(FaultPlan::new().slow_launch(1, at_deadline - 1.0));
        assert!(below.is_ok());
    }

    #[test]
    fn scheduled_oom_and_arena_limit() {
        let mut d = dev();
        d.arm_faults(FaultPlan::new().oom_at_alloc(2));
        assert!(d.try_alloc(8, 8, 1).is_ok());
        let err = d.try_alloc(8, 8, 1).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::ArenaExhausted { requested: 512 }
        ));
        assert!(
            d.try_alloc(8, 8, 2).is_ok(),
            "one-shot: later allocations fit"
        );
    }

    #[test]
    fn scheduled_bit_flip_is_finite_and_wrong() {
        let mut rng = Rng::new(5);
        let a = Matrix::random(16, 16, &mut rng);
        let b = Matrix::random(16, 16, &mut rng);
        let run = |plan: FaultPlan| {
            let mut d = dev();
            d.arm_faults(plan);
            let (da, db) = (up(&mut d, &a), up(&mut d, &b));
            let mut dc = d.try_alloc(16, 16, 1).unwrap();
            dgemm(&mut d, &da, &db, &mut dc).unwrap();
            (dc.remove(0), d.faults_injected())
        };
        let (cc, _) = run(FaultPlan::new());
        let (dc, injected) = run(FaultPlan::new().with_seed(9).flip_bit_after_op(1));
        assert_eq!(injected, 1);

        let flipped: Vec<usize> = (0..16 * 16)
            .filter(|&i| dc.host_view().as_slice()[i] != cc.host_view().as_slice()[i])
            .collect();
        assert_eq!(flipped.len(), 1, "exactly one element differs");
        let v = dc.host_view().as_slice()[flipped[0]];
        assert!(v.is_finite(), "bit flip stays finite: {v}");
    }
}
