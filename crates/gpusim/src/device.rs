//! The device model: the host's numbers, simulated time.

use crate::faults::{DeviceError, Fault, FaultPlan};
use linalg::{Matrix, Side};
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

/// The simulated accelerator: a CUBLAS-like handle that holds no matrix
/// data. Its operations take shapes, advance a simulated clock, count
/// what they did and fire the armed [`FaultPlan`]; the numbers themselves
/// are the host's, and reach the device's caller through
/// [`Device::download`].
///
/// Launches and allocations are fallible (`try_*`): they return a
/// [`DeviceError`] when an armed [`FaultPlan`] fires or a launch reaches
/// [`LAUNCH_DEADLINE_S`], and a caller that armed nothing says so with `?`
/// or `expect` at its call site. A failed op abandons the stack it worked
/// on. Wherever CUBLAS has a batched form the operation bills a stack of
/// `entries` matrices — a solo caller bills a stack of one and is charged
/// exactly one matrix's worth.
#[derive(Clone, Debug)]
pub struct Device {
    spec: DeviceSpec,
    clock: SimClock,
    bytes_transferred: u64,
    kernels_launched: u64,
    /// Launches over the device's lifetime: the ordinal launch faults match.
    launch_ordinal: u64,
    /// Downloads, allocations (failed ones included) and compute ops over
    /// the device's lifetime: the ordinals their faults match.
    downloads: u64,
    allocs: u64,
    compute_ops: u64,
    faults: FaultPlan,
    faults_injected: u64,
    /// Bit flips waiting for the stack's download: (entry, element, bit).
    flips: Vec<(usize, usize, u32)>,
}

impl Device {
    /// Creates a device from a spec with the clock at zero.
    pub fn new(spec: DeviceSpec) -> Self {
        Device {
            spec,
            clock: SimClock::new(),
            bytes_transferred: 0,
            kernels_launched: 0,
            launch_ordinal: 0,
            downloads: 0,
            allocs: 0,
            compute_ops: 0,
            faults: FaultPlan::new(),
            faults_injected: 0,
            flips: Vec::new(),
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

    /// Kernels launched (including CUBLAS calls) since the last
    /// [`Device::reset_clock`].
    pub fn kernels_launched(&self) -> u64 {
        self.kernels_launched
    }

    /// Resets the clock and the transfer/launch counters. The fault
    /// schedule and every fault ordinal persist.
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

    /// Fails the current op: its stack is abandoned, and with it any bit
    /// flip that landed there.
    fn fail(&mut self, e: DeviceError) -> Result<(), DeviceError> {
        self.flips.clear();
        Err(e)
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
        self.launch_ordinal += 1;
        let launch_index = self.launch_ordinal;
        self.clock.advance(self.spec.kernel_launch_s);
        let mut hang = self.faults.take(Fault::Hang, launch_index);
        self.faults_injected += u64::from(hang);
        if let Some(factor) = self.faults.take_slow(launch_index) {
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
            return self.fail(DeviceError::Hang {
                kernel,
                launch_index,
            });
        }
        if let Some(window) = self.faults.sick_window_hit(launch_index) {
            self.faults_injected += 1;
            return self.fail(DeviceError::SickDevice {
                kernel,
                launch_index,
                window,
            });
        }
        if self.faults.take(Fault::FailLaunch, launch_index) {
            self.faults_injected += 1;
            return self.fail(DeviceError::KernelLaunchFailure {
                kernel,
                launch_index,
            });
        }
        Ok(())
    }

    /// Counts one completed compute op per entry of a stack of `len`-element
    /// matrices. A scheduled bit flip draws its element and mantissa bit
    /// here and lands in that entry of the stack's next download.
    fn finish_compute(&mut self, len: usize, entries: usize) {
        for entry in 0..entries {
            self.compute_ops += 1;
            if self.faults.take(Fault::BitFlip, self.compute_ops) {
                let i = self.faults.pick_index(len);
                let bit = self.faults.pick_mantissa_bit();
                self.flips.push((entry, i, bit));
                self.faults_injected += 1;
            }
        }
    }

    /// `cublasSetMatrix` / `cublasSetVector` of a stack holding `len`
    /// doubles in all: one PCIe transaction moves all of it, so the
    /// per-transfer latency is paid once per call.
    pub fn upload(&mut self, len: usize) {
        self.transfer(len * 8);
    }

    /// `cublasGetMatrix` of a stack — the single device→host path: one PCIe
    /// transaction, one download ordinal. `outs` holds the values the
    /// stack's ops computed (the host's). The bit flips that landed in the
    /// stack apply to their entries, and a scheduled transfer corruption
    /// poisons exactly one element of the stacked payload (landing in one
    /// walker's image) and still returns normally — callers on the
    /// recovery path must scan each received matrix.
    pub fn download(&mut self, outs: &mut [&mut Matrix]) {
        for (entry, i, bit) in self.flips.drain(..) {
            if let Some(x) = outs
                .get_mut(entry)
                .and_then(|m| m.as_mut_slice().get_mut(i))
            {
                *x = f64::from_bits(x.to_bits() ^ (1u64 << bit));
            }
        }
        let total: usize = outs.iter().map(|m| m.as_slice().len()).sum();
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

    /// Allocates `count` `nrows × ncols` device matrices, each counted as
    /// its own allocation ordinal (allocation has no PCIe or launch cost to
    /// amortise). Fails on a scheduled arena exhaustion.
    pub fn try_alloc(
        &mut self,
        nrows: usize,
        ncols: usize,
        count: usize,
    ) -> Result<(), DeviceError> {
        for _ in 0..count {
            self.allocs += 1;
            if self.faults.take(Fault::Oom, self.allocs) {
                self.faults_injected += 1;
                return self.fail(DeviceError::ArenaExhausted {
                    requested: nrows * ncols * 8,
                });
            }
        }
        Ok(())
    }

    /// `cublasDcopy` of a `len`-element matrix.
    pub fn try_dcopy(&mut self, len: usize) -> Result<(), DeviceError> {
        self.try_stream("dcopy", len, 1.0)
    }

    /// `cublasDgemmStridedBatched` with one shared order-`order` factor of
    /// a Kronecker-factored operator over an `entries`-entry stack of
    /// `len`-element matrices: the [`linalg::kron::mode_product`] step
    /// whose stride is `inner` ([`linalg::kron::steps`]). A dense operator
    /// is its own one factor, and then each entry is one plain GEMM. Cost
    /// model: **one** kernel launch (the batched driver submits the whole
    /// stack) plus, per entry, the mode product's GEMMs at the rate of one
    /// of them; each entry counts one compute op, so bit-flip fault
    /// ordinals see every entry.
    pub fn try_mode_product_batched(
        &mut self,
        order: usize,
        inner: usize,
        len: usize,
        entries: usize,
    ) -> Result<(), DeviceError> {
        if entries == 0 {
            return Ok(());
        }
        self.try_launch("dgemm_strided_batched")?;
        let outer = len / (inner * order);
        if inner == 1 {
            self.charge_gemms((order, outer, order), 1, entries);
        } else {
            self.charge_gemms((inner, order, order), outer, entries);
        }
        self.finish_compute(len, entries);
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

    /// Algorithm 5, batched: the custom diagonal-scaling kernel over an
    /// `entries`-entry stack of `len`-element matrices, one coalesced
    /// launch for the whole stack — `a_e ← diag(v_e)·a_e` from
    /// `Side::Left`, `a_e ← a_e·diag(v_e)` from `Side::Right`.
    pub fn try_scale_kernel_batched(
        &mut self,
        side: Side,
        len: usize,
        entries: usize,
    ) -> Result<(), DeviceError> {
        if entries == 0 {
            return Ok(());
        }
        let kernel = match side {
            Side::Left => "scale_rows_kernel_batched",
            Side::Right => "scale_cols_kernel_batched",
        };
        self.try_stream(kernel, len * entries, 1.0)?;
        self.finish_compute(len, entries);
        Ok(())
    }

    /// Algorithm 4's scaling of one `nrows × ncols` matrix: one
    /// `cublasDscal` per vector. From `Side::Left` (`a ← diag(v)·a`) each
    /// launch scales a row, non-coalesced; from `Side::Right`
    /// (`a ← a·diag(v)`) a column, which is contiguous and streams
    /// coalesced — but the launch overheads remain either way.
    pub fn try_scale_cublas(
        &mut self,
        side: Side,
        nrows: usize,
        ncols: usize,
    ) -> Result<(), DeviceError> {
        let (count, len, fraction) = match side {
            Side::Left => (nrows, ncols, self.spec.uncoalesced_fraction),
            Side::Right => (ncols, nrows, 1.0),
        };
        for _ in 0..count {
            self.try_stream("dscal", len, fraction)?;
        }
        self.finish_compute(nrows * ncols, 1);
        Ok(())
    }

    /// Algorithm 7: custom two-sided scaling kernel
    /// `G ← diag(v)·G·diag(v)⁻¹` on a `len`-element `G` — one launch; the
    /// column factor arrives via the texture cache, modelled as a gather at
    /// ~70 % of streaming bandwidth.
    pub fn try_wrap_scale_kernel(&mut self, len: usize) -> Result<(), DeviceError> {
        self.try_stream("wrap_scale_kernel", len, 0.7)?;
        self.finish_compute(len, 1);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::Rng;

    fn dev() -> Device {
        Device::new(DeviceSpec::tesla_c2050())
    }

    /// Downloads a copy of `m` as a stack of one.
    fn down(d: &mut Device, m: &Matrix) -> Matrix {
        let mut out = m.clone();
        d.download(&mut [&mut out]);
        out
    }

    /// One `n × n` GEMM as a stack of one: a one-factor operator.
    fn dgemm(d: &mut Device, n: usize) -> Result<(), DeviceError> {
        d.try_mode_product_batched(n, 1, n * n, 1)
    }

    #[test]
    fn transfers_advance_clock_and_counters() {
        let mut d = dev();
        let m = Matrix::identity(64);
        d.upload(64 * 64);
        assert!(d.elapsed() > 0.0);
        assert_eq!(d.bytes_transferred(), 64 * 64 * 8);
        let back = down(&mut d, &m);
        assert_eq!(back, m);
        assert_eq!(d.bytes_transferred(), 2 * 64 * 64 * 8);
        assert_eq!(d.downloads, 1);
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
        let mut d1 = dev();
        d1.try_scale_cublas(Side::Left, 256, 256).unwrap();
        let slow = d1.elapsed();

        let mut d2 = dev();
        d2.try_scale_kernel_batched(Side::Left, 256 * 256, 1)
            .unwrap();
        let fast = d2.elapsed();

        assert!(fast < slow / 5.0, "kernel {fast} vs row-loop {slow}");
        assert_eq!(d1.compute_ops, d2.compute_ops, "one scaling each");
    }

    #[test]
    fn wrap_scale_kernel_correct() {
        // One launch gathering at 70 % of the streaming bandwidth.
        let mut d = dev();
        d.try_wrap_scale_kernel(32 * 32).unwrap();
        let s = DeviceSpec::tesla_c2050();
        let want = s.kernel_launch_s + (32 * 32 * 16) as f64 / (s.mem_bandwidth_gbs * 0.7 * 1e9);
        assert_eq!(d.elapsed(), want);
        assert_eq!((d.kernels_launched(), d.compute_ops), (1, 1));
    }

    #[test]
    fn dcopy_duplicates_and_costs() {
        let mut d = dev();
        d.try_dcopy(16 * 16).unwrap();
        assert!(d.elapsed() > 0.0);
        assert_eq!((d.kernels_launched(), d.compute_ops), (1, 0));
    }

    #[test]
    fn kernel_launches_counted() {
        let mut d = dev();
        d.try_scale_cublas(Side::Left, 8, 8).unwrap(); // 8 launches
        d.try_scale_kernel_batched(Side::Left, 64, 1).unwrap(); // 1 launch
        assert_eq!(d.kernels_launched(), 9);
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
            d.upload(24 * 24);
            d.try_dcopy(24 * 24).unwrap();
            d.try_scale_kernel_batched(Side::Left, 24 * 24, 1).unwrap();
            d.try_alloc(24, 24, 1).unwrap();
            dgemm(&mut d, 24).unwrap();
            (down(&mut d, &a), d.elapsed(), d.kernels_launched())
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
        assert_eq!(down(&mut d, &m), m, "download #1 is clean");
        let bad = down(&mut d, &m);
        let nans = bad.as_slice().iter().filter(|x| x.is_nan()).count();
        assert_eq!(nans, 1, "download #2 carries exactly one NaN");
        assert_eq!(d.faults_injected(), 1);
        assert_eq!(down(&mut d, &m), m, "one-shot: download #3 clean again");
    }

    #[test]
    fn scheduled_launch_failure_fires_then_clears() {
        let mut d = dev();
        d.arm_faults(FaultPlan::new().fail_launch(2));
        d.try_alloc(8, 8, 1).unwrap();
        assert!(dgemm(&mut d, 8).is_ok());
        let err = dgemm(&mut d, 8).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::KernelLaunchFailure {
                kernel: "dgemm_strided_batched",
                launch_index: 2
            }
        ));
        assert!(dgemm(&mut d, 8).is_ok(), "retry ok");
        assert_eq!(d.faults_injected(), 1);

        // Launch ordinals count over the device's lifetime: a reset clock
        // does not move the 2nd launch.
        let mut d = dev();
        d.arm_faults(FaultPlan::new().fail_launch(2));
        assert!(dgemm(&mut d, 8).is_ok());
        d.reset_clock();
        assert_eq!(d.kernels_launched(), 0, "the cost counter resets");
        let err = dgemm(&mut d, 8).unwrap_err();
        assert!(matches!(
            err,
            DeviceError::KernelLaunchFailure {
                launch_index: 2,
                ..
            }
        ));
        assert!(dgemm(&mut d, 8).is_ok(), "the 3rd launch succeeds");
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
        d.try_alloc(8, 8, 1).unwrap();
        for _ in 0..2 {
            let e = dgemm(&mut d, 8).unwrap_err();
            assert!(matches!(e, DeviceError::Hang { .. }), "{e}");
        }
        let e3 = dgemm(&mut d, 8).unwrap_err();
        assert!(matches!(e3, DeviceError::SickDevice { .. }), "{e3}");
        let e4 = dgemm(&mut d, 8).unwrap_err();
        assert!(
            matches!(e4, DeviceError::SickDevice { .. }),
            "window persists"
        );
        assert!(dgemm(&mut d, 8).is_ok(), "window over");
        assert_eq!(d.faults_injected(), 4);
    }

    #[test]
    fn slow_launch_inflates_clock_only() {
        // Latency inflation on the same op as silent corruption: the op is
        // slow AND the download is poisoned, but the numerics are
        // untouched — fail-slow composes with fail-silent.
        let mut rng = Rng::new(6);
        let a = Matrix::random(16, 16, &mut rng);
        let run = |plan: Option<FaultPlan>| {
            let mut d = dev();
            if let Some(p) = plan {
                d.arm_faults(p);
            }
            d.upload(16 * 16);
            d.try_alloc(16, 16, 1).unwrap();
            dgemm(&mut d, 16).unwrap();
            let out = down(&mut d, &a);
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
            d.try_alloc(8, 8, 1).unwrap();
            (dgemm(&mut d, 8), d.elapsed(), d.faults_injected())
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
        // A flip after compute op 1 lands in that entry of the stack's
        // download; a failed op abandons the flips of its stack.
        let mut rng = Rng::new(5);
        let c = Matrix::random(16, 16, &mut rng);
        let run = |plan: FaultPlan| {
            let mut d = dev();
            d.arm_faults(plan);
            d.try_alloc(16, 16, 1).unwrap();
            dgemm(&mut d, 16).unwrap();
            (down(&mut d, &c), d.faults_injected())
        };
        let (cc, _) = run(FaultPlan::new());
        let (dc, injected) = run(FaultPlan::new().with_seed(9).flip_bit_after_op(1));
        assert_eq!(injected, 1);

        let flipped: Vec<usize> = (0..16 * 16)
            .filter(|&i| dc.as_slice()[i] != cc.as_slice()[i])
            .collect();
        assert_eq!(flipped.len(), 1, "exactly one element differs");
        let v = dc.as_slice()[flipped[0]];
        assert!(v.is_finite(), "bit flip stays finite: {v}");

        let mut d = dev();
        d.arm_faults(FaultPlan::new().flip_bit_after_op(1).fail_launch(2));
        dgemm(&mut d, 16).unwrap();
        assert!(dgemm(&mut d, 16).is_err());
        assert_eq!(down(&mut d, &c), c, "the abandoned stack took its flip");
    }
}
