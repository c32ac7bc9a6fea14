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
//! launch failures, arena exhaustion, silent transfer corruption and bit
//! flips at exact operation ordinals ([`faults`]), every costed operation has
//! a `try_*` form surfacing those as [`DeviceError`]s, and [`DeviceBackend`]
//! plugs the device into `dqmc`'s recovery-aware sweep ([`backend`]).

pub mod backend;
pub mod cluster;
pub mod crowd;
pub mod device;
pub mod faults;
pub mod gpu_strat;
pub mod hybrid;
pub mod pool;
pub mod wrap;

pub use backend::DeviceBackend;
pub use cluster::{cluster_cublas, cluster_custom_kernel, try_cluster_custom_kernel};
pub use crowd::{try_cluster_crowd, try_wrap_crowd_bitexact_into};
pub use device::{DGemmOperand, DMatrix, Device, DeviceSpec, HostSpec};
pub use faults::{DeviceError, FaultPlan};
pub use gpu_strat::{gpu_stratified_greens, GpuStratReport};
pub use hybrid::{hybrid_greens, HybridReport};
pub use pool::{BreakerPolicy, DeviceLease, DevicePool, HealthDecision, SlotHealthSnapshot};
pub use wrap::{try_wrap_on_device_bitexact_into, try_wrap_on_device_into, wrap_on_device};
