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
//! That cost model captures the effects Section VI discusses: a cluster
//! product ships `k` diagonal vectors for `k` GEMMs per round trip, so it
//! approaches device-GEMM speed, while a wrap does two GEMMs per `G` round
//! trip, so transfers bite. This crate bills the sweep; Figures 9 and 10's
//! cost studies are shape-only bills on the same ops in `bench::section6`.
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

pub mod backend;
pub mod device;
pub mod faults;
pub mod kernels;
pub mod pool;

pub use backend::DeviceBackend;
pub use device::{Device, DeviceSpec, LAUNCH_DEADLINE_S};
pub use faults::{DeviceError, FaultPlan};
pub use kernels::{try_cluster_crowd, try_wrap_crowd};
pub use pool::{DeviceLease, DevicePool, HealthDecision};

// Unit tests of `kernels`, one file per operation under `src/tests/`. They
// keep the module paths they had when the kernels were four files, so a
// test has one name across the history of the suite. They share one
// fixture: a C2050 with the model's `e^{∓ΔτK}` uploaded.
#[cfg(test)]
fn device_with_residents(model: &dqmc::ModelParams) -> Device {
    let mut dev = Device::new(DeviceSpec::tesla_c2050());
    let n = model.nsites();
    dev.upload(n * n);
    dev.upload(n * n);
    dev
}
#[cfg(test)]
#[path = "tests/cluster.rs"]
mod cluster;
#[cfg(test)]
#[path = "tests/crowd.rs"]
mod crowd;
#[cfg(test)]
#[path = "tests/wrap.rs"]
mod wrap;
