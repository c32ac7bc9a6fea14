//! The sweep's two Section VI device kernels as bills, batched over a
//! crowd of walkers: [`try_cluster_crowd`] (Algorithm 4's data flow with
//! Algorithm 5's one-launch scaling kernels) and [`try_wrap_crowd`]
//! (Algorithm 6 in the host's op order). Figure 9's one-walker cost studies
//! are shape-only bills in `bench::section6`.
//!
//! `e^{−ΔτK}` is resident in device memory for the whole simulation. Both
//! kernels take the orders of its factors (`BMatrixFactory::expk_kron`),
//! bill one launch per factor, and download matrices the host computed
//! ([`crate::DeviceBackend`]), which is where a scripted bit flip or
//! transfer corruption lands. Every [`Device`] op they call takes the
//! whole slice of walkers, so launch overhead and transfer latency are paid
//! once per call instead of once per walker; a solo run passes a slice of
//! one.
//!
//! Every kernel returns a [`DeviceError`] on a scheduled launch failure or
//! arena exhaustion and performs **no finiteness check** on what it
//! downloads: a silently corrupted transfer surfaces as NaNs in the returned
//! matrices, which the recovery-aware caller scans before use.

use crate::device::Device;
use crate::faults::DeviceError;
use linalg::{kron, Matrix, Side};

/// Bills one application of the operator whose factors have `orders`
/// (fastest axis first), from `side`, to every entry of a `b`-entry stack
/// of `n × n` matrices: the host's `Kron::apply` steps
/// (`linalg::kron::steps`), one strided-batched launch per factor. The
/// bill is by shape alone: the host runs a step on its direct kernel
/// (factor orders below `linalg::kron::DIRECT_CUT`) or on the GEMM driver,
/// and the device charges the same GEMMs for either.
fn try_kron_apply(
    dev: &mut Device,
    orders: &[usize],
    side: Side,
    n: usize,
    b: usize,
) -> Result<(), DeviceError> {
    let steps = kron::steps(side, n, orders.iter().copied());
    for (&order, (_, inner)) in orders.iter().zip(steps) {
        dev.try_mode_product_batched(order, inner, n * n, b)?;
    }
    Ok(())
}

/// Batched wrap, billed: `outs[i]` holds `B_l(h_i)·G_i·B_l(h_i)⁻¹`, which
/// the device is charged for computing in the host path's op order
/// (row-scale, `e^{−ΔτK}` factor by factor, col-scale, `e^{+ΔτK}` factor
/// by factor — `BMatrixFactory::wrap_into`) and then downloads. `expk` and
/// `expk_inv` are the orders of the resident factors; with one dense
/// factor each, one launch more than Algorithm 7's fused two-sided scaling
/// (`bench::section6::try_wrap_fused`): the modelled price of determinism.
///
/// Cost shape: **2 + 2d kernel launches** for the whole call (two batched
/// scales, one strided-batched GEMM per factor) instead of `(2 + 2d)·B`,
/// and four stacked PCIe transactions (G stack down, two diagonal stacks
/// down, product stack back) instead of `4·B`, so per-transfer latency is
/// paid once per call.
pub fn try_wrap_crowd(
    dev: &mut Device,
    expk: &[usize],
    expk_inv: &[usize],
    outs: &mut [&mut Matrix],
) -> Result<(), DeviceError> {
    let b = outs.len();
    let Some(n) = outs.first().map(|m| m.nrows()) else {
        return Ok(());
    };
    dev.upload(b * n * n);
    // diag(v_i)·G_i — the host's b_mul_left_into row scaling, batched.
    dev.upload(b * n);
    dev.try_scale_kernel_batched(Side::Left, n * n, b)?;
    // e^{−ΔτK} · (V_i G_i): per factor one strided-batched GEMM with the
    // shared resident read B times.
    dev.try_alloc(n, n, b)?;
    try_kron_apply(dev, expk, Side::Left, n, b)?;
    // (·)·diag(v_i)⁻¹, then · e^{+ΔτK}.
    dev.upload(b * n);
    dev.try_scale_kernel_batched(Side::Right, n * n, b)?;
    dev.try_alloc(n, n, b)?;
    try_kron_apply(dev, expk_inv, Side::Right, n, b)?;
    dev.download(outs);
    Ok(())
}

/// Batched cluster product (Algorithms 4+5), billed: `products[i]` holds
/// walker `i`'s `B_{hi−1} ⋯ B_{lo}` over `slices` slices, which the device
/// is charged for computing in the host's op order and then downloads.
/// `expk` is the orders of the resident factors of `e^{−ΔτK}`.
///
/// The `k` diagonal stacks go down as one stacked transfer per slice and
/// each slice costs one batched scale plus one strided-batched GEMM per
/// factor for the whole call; the B products come back in a single stacked
/// download. Only the initial seeding copies of the dense `e^{−ΔτK}`
/// remain per-walker (`B` on-device `dcopy` launches — no PCIe traffic).
pub fn try_cluster_crowd(
    dev: &mut Device,
    expk: &[usize],
    slices: usize,
    products: &mut [&mut Matrix],
) -> Result<(), DeviceError> {
    let b = products.len();
    let Some(n) = products.first().map(|m| m.nrows()) else {
        return Ok(());
    };
    for _ in 0..b {
        dev.try_dcopy(n * n)?;
    }
    dev.upload(b * n);
    dev.try_scale_kernel_batched(Side::Right, n * n, b)?;
    // `t`/`next` ping-pong: one device allocation per walker for the whole
    // cluster, not one per slice.
    dev.try_alloc(n, n, b)?;
    for _ in 1..slices {
        dev.upload(b * n);
        dev.try_scale_kernel_batched(Side::Left, n * n, b)?;
        try_kron_apply(dev, expk, Side::Left, n, b)?;
    }
    dev.download(products);
    Ok(())
}
