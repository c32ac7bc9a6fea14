//! The Section VI device kernels — Algorithms 4–7 of the paper — as bills.
//!
//! Two operations, two forms each:
//!
//! | | runs the sweep (batched) | Figure 9's cost study (one walker) |
//! |---|---|---|
//! | cluster product `B_{hi−1} ⋯ B_{lo}` | [`try_cluster_crowd`] — Algorithm 4's data flow with Algorithm 5's one-launch scaling kernels | [`try_cluster_cublas`] — Algorithm 4 verbatim, a `cublasDscal` per row |
//! | wrap `G ← B_l G B_l⁻¹` | [`try_wrap_crowd`] — the host's op order as four launches | [`try_wrap_on_device_into`] — Algorithm 6 around Algorithm 7's fused scaling kernel |
//!
//! `e^{−ΔτK}` is resident in device memory for the whole simulation. A
//! cluster ships `k` diagonal vectors down and one `N×N` product back, so
//! `k` GEMMs amortise one transfer and clustering approaches device GEMM
//! speed; a wrap moves `G` both ways for two GEMMs and cannot (the Figure 9
//! gap). The sweep's kernels take the orders of `e^{∓ΔτK}`'s factors
//! (`BMatrixFactory::expk_kron`) and bill one launch per factor; the cost
//! studies bill the one dense matrix, the paper's DGEMM.
//!
//! The device computes nothing. The sweep's kernels bill the launches,
//! transfers and allocations that produce matrices the host computed
//! (`dqmc::HostBackend`, in [`crate::DeviceBackend`]) and then download
//! them, which is where a scripted bit flip or transfer corruption lands;
//! so placing a run on the device changes its model clock and never a byte
//! of its output. Every [`Device`] op they issue takes the whole slice of
//! walkers, so launch overhead and transfer latency are paid once per call
//! instead of once per walker; a solo run passes a slice of one. The cost
//! studies compute their own results on the host: Algorithm 4's product is
//! [`BMatrixFactory::cluster`]'s, and Algorithm 7's wrap runs its own op
//! order (two-sided scaling first) with `linalg`.
//!
//! Every kernel returns a [`DeviceError`] on a scheduled launch failure or
//! arena exhaustion and performs **no finiteness check** on what it
//! downloads: a silently corrupted transfer surfaces as NaNs in the returned
//! matrices, which the recovery-aware caller scans before use.

use crate::device::Device;
use crate::faults::DeviceError;
use dqmc::{BMatrixFactory, HsField, Spin};
use linalg::blas3::{gemm, Op};
use linalg::{kron, scale, workspace, Matrix, Side};

/// Bills one application of the operator whose factors have `orders`
/// (fastest axis first), from `side`, to every entry of a `b`-entry stack
/// of `n × n` matrices: the host's `Kron::apply` steps
/// (`linalg::kron::steps`), one strided-batched launch per factor.
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
/// factor each, one launch more than the fused
/// [`try_wrap_on_device_into`]: the modelled price of determinism.
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

/// Algorithm 4 verbatim (the CUBLAS formulation Figure 9 measures
/// Algorithm 5 against): one walker's `B_{hi−1} ⋯ B_{lo}`, billed as a
/// `cublasDcopy` and a per-vector `cublasDscal` loop (N launches) for each
/// `V` scaling around one dense GEMM per slice, and returned from
/// [`BMatrixFactory::cluster`] — the product the sweep bills with
/// [`try_cluster_crowd`], under a different bill.
///
/// With our `B = e^{−ΔτK}·V` convention the accumulation is
/// `T ← e^{−ΔτK}·(diag(V_l)·T)` after seeding `T = e^{−ΔτK}·diag(V_lo)`;
/// the per-element scaling work matches the paper's Algorithm 4 exactly.
pub fn try_cluster_cublas(
    dev: &mut Device,
    fac: &BMatrixFactory,
    h: &HsField,
    lo: usize,
    hi: usize,
    spin: Spin,
) -> Result<Matrix, DeviceError> {
    let n = fac.nsites();
    dev.try_dcopy(n * n)?;
    dev.upload(n);
    dev.try_scale_cublas(Side::Right, n, n)?;
    for _ in (lo + 1)..hi {
        dev.upload(n);
        dev.try_dcopy(n * n)?;
        dev.try_scale_cublas(Side::Left, n, n)?;
        try_kron_apply(dev, &[n], Side::Left, n, 1)?;
    }
    let mut product = fac.cluster(h, lo, hi, spin);
    dev.download(&mut [&mut product]);
    Ok(product)
}

/// Algorithm 6 around Algorithm 7's fused kernel (the paper's throughput
/// formulation, Figure 9's `gpu-wrap` column): wraps one walker's
/// `G ← B_l G B_l⁻¹` into a pre-allocated host matrix, with the dense
/// `e^{−ΔτK}` and `e^{+ΔτK}`.
///
/// With `B = e^{−ΔτK}·V`: `B G B⁻¹ = e^{−ΔτK} (V G V⁻¹) e^{+ΔτK}` — one
/// two-sided scaling between two GEMMs, three launches. The scaling runs
/// *before* the GEMMs, so the floating-point op order differs from the host
/// path and the result agrees with it to the last few ulps, not bit for bit;
/// the sweep therefore bills [`try_wrap_crowd`] and this form stays a cost
/// study.
#[allow(clippy::too_many_arguments)]
pub fn try_wrap_on_device_into(
    dev: &mut Device,
    expk: &Matrix,
    expk_inv: &Matrix,
    fac: &BMatrixFactory,
    h: &HsField,
    l: usize,
    spin: Spin,
    g: &Matrix,
    out: &mut Matrix,
) -> Result<(), DeviceError> {
    let n = fac.nsites();
    dev.upload(n * n);
    dev.upload(n);
    dev.try_wrap_scale_kernel(n * n)?;
    dev.try_alloc(n, n, 1)?;
    try_kron_apply(dev, &[n], Side::Left, n, 1)?;
    dev.try_alloc(n, n, 1)?;
    try_kron_apply(dev, &[n], Side::Right, n, 1)?;
    // V G V⁻¹ as the texture-cache kernel computes it, then the two GEMMs.
    let v = fac.v_diag(h, l, spin);
    let vinv: Vec<f64> = v.iter().map(|&x| 1.0 / x).collect();
    let mut vgv = workspace::take_matrix(n, n);
    vgv.copy_from(g);
    scale::row_col_scale(&v, &vinv, &mut vgv);
    let mut t = workspace::take_matrix(n, n);
    gemm(1.0, expk, Op::NoTrans, &vgv, Op::NoTrans, 0.0, &mut t);
    gemm(1.0, &t, Op::NoTrans, expk_inv, Op::NoTrans, 0.0, out);
    workspace::put(v);
    workspace::put_matrix(vgv);
    workspace::put_matrix(t);
    dev.download(&mut [out]);
    Ok(())
}
