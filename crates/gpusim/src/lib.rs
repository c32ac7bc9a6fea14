//! Simulated GPU accelerator for DQMC (§VI of the paper).
//!
//! The paper's GPU experiments ran CUBLAS on a Tesla C2050. This crate
//! substitutes a *deterministic device model*: a [`Device`] is a simulated
//! clock, a set of counters and a fault plan, and holds no matrix data. Its
//! operations bill shapes against a calibrated cost model — sustained GEMM
//! throughput with a small-matrix saturation curve, device memory bandwidth
//! with/without coalescing, PCIe transfer bandwidth + latency, and
//! per-kernel launch overhead — while the numbers are computed on the host.
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
//! Timings are simulated; *numerics are the host's* — [`DeviceBackend`]
//! takes its matrices from `dqmc::HostBackend` and bills the device for the
//! batched kernels that would have produced them, so its results are the
//! host path's by construction, and only an armed fault plan can change
//! them (in the download, where a bit flip or transfer corruption lands).
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
//! bills of the four Section VI kernels, and [`hybrid`] holds the one cost
//! model behind Figure 10.

pub mod backend;
pub mod device;
pub mod faults;
pub mod hybrid;
pub mod kernels;
pub mod pool;

pub use backend::DeviceBackend;
pub use device::{Device, DeviceSpec, HostSpec, LAUNCH_DEADLINE_S};
pub use faults::{DeviceError, FaultPlan};
pub use hybrid::{hybrid_greens, HybridReport};
pub use kernels::{try_cluster_crowd, try_cluster_cublas, try_wrap_crowd, try_wrap_on_device_into};
pub use pool::{DeviceLease, DevicePool, HealthDecision};

// Unit tests of `kernels` and of `hybrid`'s full-GPU column, one file per
// operation under `src/tests/`. They keep the module paths they had when
// the kernels were four files, so a test has one name across the history of
// the suite. They share one fixture: a C2050 with the model's `e^{∓ΔτK}`
// uploaded, multiplied out, and their host copies.
#[cfg(test)]
fn device_with_residents(model: &dqmc::ModelParams) -> (Device, linalg::Matrix, linalg::Matrix) {
    let mut dev = Device::new(DeviceSpec::tesla_c2050());
    let (expk, expk_inv) = model.lattice.expk(model.dtau, model.mu_tilde);
    dev.upload(expk.as_slice().len());
    dev.upload(expk_inv.as_slice().len());
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
