//! Simulated GPU accelerator for DQMC (§VI of the paper).
//!
//! The paper's GPU experiments ran CUBLAS on a Tesla C2050. This crate
//! substitutes a *deterministic device model*: every operation computes its
//! true numerical result on the host (via `linalg`, so results are exact and
//! testable) while advancing a simulated clock according to a calibrated
//! cost model — sustained GEMM throughput with a small-matrix saturation
//! curve, device memory bandwidth with/without coalescing, PCIe transfer
//! bandwidth + latency, and per-kernel launch overhead.
//!
//! That cost model captures precisely the effects Section VI discusses:
//!
//! - **matrix clustering (Algorithm 4)** ships `k` diagonal vectors and gets
//!   `k` GEMMs back per round trip, so it approaches device-GEMM speed;
//!   its naive per-row `cublasDscal` scaling loop pays `N` kernel launches
//!   and non-coalesced access, which the custom kernel of **Algorithm 5**
//!   eliminates;
//! - **wrapping (Algorithm 6)** does only two GEMMs per `G` round trip, so
//!   transfers bite and it lands between host and device GEMM rates;
//! - the **hybrid driver** (Figure 10) clusters on the device and runs the
//!   stratification's QR/solve on the (modelled) host.
//!
//! Timings are simulated; *numerics are real* — `gpusim` results are
//! bit-identical to the host path and are asserted as such in tests.
//!
//! The device is also *fallible on demand*: a scripted [`FaultPlan`] injects
//! launch failures, arena exhaustion, silent transfer corruption, bit flips
//! and slow or hung launches at exact operation ordinals ([`faults`]; a
//! launch slowed to [`LAUNCH_DEADLINE_S`] hangs), every launch and
//! allocation surfaces those as [`DeviceError`]s, and [`DeviceBackend`]
//! plugs the device into `dqmc`'s recovery-aware sweep ([`backend`]).
//!
//! Each thing is said once: a [`Device`] operation has one form (fallible,
//! over a stack of matrices wherever CUBLAS batches), [`kernels`] holds the
//! four Section VI kernels, and [`hybrid`] holds the one cost model behind
//! Figure 10.

pub mod backend;
pub mod device;
pub mod faults;
pub mod hybrid;
pub mod kernels;
pub mod pool;

pub use backend::DeviceBackend;
pub use device::{DMatrix, Device, DeviceSpec, HostSpec, LAUNCH_DEADLINE_S};
pub use faults::{DeviceError, FaultPlan};
pub use hybrid::{hybrid_greens, HybridReport};
pub use kernels::{
    try_cluster_crowd, try_cluster_cublas, try_wrap_crowd_bitexact_into, try_wrap_on_device_into,
};
pub use pool::{DeviceLease, DevicePool, HealthDecision};

// Unit tests of `kernels` and of `hybrid`'s full-GPU column, one file per
// operation under `src/tests/`. They keep the module paths they had when
// the kernels were four files, so a test has one name across the history of
// the suite. They share one fixture: a C2050 with the model's `e^{∓ΔτK}`
// resident, multiplied out.
#[cfg(test)]
fn device_with_residents(model: &dqmc::ModelParams) -> (Device, DMatrix, DMatrix) {
    let mut dev = Device::new(DeviceSpec::tesla_c2050());
    let (expk, expk_inv) = model.lattice.expk(model.dtau, model.mu_tilde);
    let expk = dev.set_matrix_stack(&[&expk]).remove(0);
    let expk_inv = dev.set_matrix_stack(&[&expk_inv]).remove(0);
    (dev, expk, expk_inv)
}
#[cfg(test)]
#[path = "tests/cluster.rs"]
mod cluster;
#[cfg(test)]
#[path = "tests/crowd.rs"]
mod crowd;
#[cfg(test)]
#[path = "tests/gpu_strat.rs"]
mod gpu_strat;
#[cfg(test)]
#[path = "tests/wrap.rs"]
mod wrap;
