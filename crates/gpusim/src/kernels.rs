//! The Section VI device kernels — Algorithms 4–7 of the paper.
//!
//! Two operations, two forms each:
//!
//! | | runs the sweep (bit-exact, batched) | Figure 9's cost study (one walker) |
//! |---|---|---|
//! | cluster product `B_{hi−1} ⋯ B_{lo}` | [`try_cluster_crowd`] — Algorithm 4's data flow with Algorithm 5's one-launch scaling kernels | [`try_cluster_cublas`] — Algorithm 4 verbatim, a `cublasDscal` per row |
//! | wrap `G ← B_l G B_l⁻¹` | [`try_wrap_crowd_bitexact_into`] — the host's op order as four launches | [`try_wrap_on_device_into`] — Algorithm 6 around Algorithm 7's fused scaling kernel |
//!
//! `e^{−ΔτK}` is resident in device memory for the whole simulation. A
//! cluster ships `k` diagonal vectors down and one `N×N` product back, so
//! `k` GEMMs amortise one transfer and clustering approaches device GEMM
//! speed; a wrap moves `G` both ways for two GEMMs and cannot (the Figure 9
//! gap). The sweep's kernels take `e^{∓ΔτK}` as the host's factor list
//! (`BMatrixFactory::expk_kron`) and issue one launch per factor; the cost
//! studies pass the one dense matrix, the paper's DGEMM.
//!
//! The batched kernels add the second amortisation axis: every
//! [`Device`] op they issue takes the whole slice of walkers, so launch
//! overhead and transfer latency are paid once per call instead of once per
//! walker. Entry `i` issues exactly the floating-point op sequence the host
//! path issues for walker `i`, so neither placement on the device nor the
//! width of the call is observable in the numerics — a call over B walkers
//! produces bit-identical matrices to B calls over one, and both to
//! `BMatrixFactory::{cluster, wrap_into}`. A solo run passes a slice of one.
//!
//! Every kernel returns a [`DeviceError`] on a scheduled launch failure or
//! arena exhaustion and performs **no finiteness check** on what it
//! downloads: a silently corrupted transfer surfaces as NaNs in the returned
//! matrices, which the recovery-aware caller scans before use.

use crate::device::{DMatrix, Device};
use crate::faults::DeviceError;
use dqmc::{BMatrixFactory, HsField, Spin};
use linalg::{kron, workspace, Matrix, Side};
use std::slice;

/// Multiplies every entry of `xs` by the operator whose Kronecker factors
/// (fastest axis first) are `factors`, from `side`: the host's
/// `Kron::apply` steps (`linalg::kron::steps`), one launch per factor,
/// ping-ponging between `xs` and `spare`. Returns `(product, other)`.
fn try_kron_apply(
    dev: &mut Device,
    factors: &[DMatrix],
    side: Side,
    xs: Vec<DMatrix>,
    spare: Vec<DMatrix>,
) -> Result<(Vec<DMatrix>, Vec<DMatrix>), DeviceError> {
    let (mut src, mut dst) = (xs, spare);
    let rows = src.first().map_or(0, DMatrix::nrows);
    let orders = factors.iter().map(DMatrix::nrows);
    for (f, (op, inner)) in factors.iter().zip(kron::steps(side, rows, orders)) {
        dev.try_mode_product_batched(f, op, inner, &src, &mut dst)?;
        std::mem::swap(&mut src, &mut dst);
    }
    Ok((src, dst))
}

/// Batched bit-exact wrap: `outs[i] ← B_l(h_i)·gs[i]·B_l(h_i)⁻¹` for every
/// walker, issuing per entry the host path's exact op order (row-scale,
/// `e^{−ΔτK}` factor by factor, col-scale, `e^{+ΔτK}` factor by factor —
/// `BMatrixFactory::wrap_into`) as separate device launches, so each
/// downloaded matrix is bit-identical to the host wrap. `expk` and
/// `expk_inv` are the resident factors (`BMatrixFactory::expk_kron`); with
/// one dense factor each, one launch more than the fused
/// [`try_wrap_on_device_into`]: the modelled price of determinism.
///
/// Cost shape: **2 + 2d kernel launches** for the whole call (two batched
/// scales, one strided-batched GEMM per factor) instead of `(2 + 2d)·B`,
/// and four stacked PCIe transactions (G stack down, two diagonal stacks
/// down, product stack back) instead of `4·B`, so per-transfer latency is
/// paid once per call.
#[allow(clippy::too_many_arguments)]
pub fn try_wrap_crowd_bitexact_into(
    dev: &mut Device,
    expk: &[DMatrix],
    expk_inv: &[DMatrix],
    fac: &BMatrixFactory,
    hs: &[&HsField],
    l: usize,
    spin: Spin,
    gs: &[&Matrix],
    outs: &mut [&mut Matrix],
) -> Result<(), DeviceError> {
    let b = hs.len();
    assert!(gs.len() == b && outs.len() == b);
    if b == 0 {
        return Ok(());
    }
    let n = fac.nsites();
    let mut dgs = dev.set_matrix_stack(gs);
    let mut vhs: Vec<Vec<f64>> = hs.iter().map(|h| fac.v_diag(h, l, spin)).collect();
    // Inner closure so the staging diagonals return to the workspace pool on
    // every exit path, including early faults.
    let r = (|| {
        let mut dvs = vec![Vec::new(); b];
        let vrefs: Vec<&[f64]> = vhs.iter().map(|v| v.as_slice()).collect();
        dev.set_vector_stack_into(&vrefs, &mut dvs);
        // diag(v_i)·G_i — the host's b_mul_left_into row scaling, batched.
        dev.try_scale_rows_kernel_batched(&dvs, &mut dgs)?;
        // e^{−ΔτK} · (V_i G_i): per factor one strided-batched GEMM with
        // the shared resident read B times.
        let spare = dev.try_alloc(n, n, b)?;
        let (mut ts, _) = try_kron_apply(dev, expk, Side::Left, dgs, spare)?;
        // (·)·diag(v_i)⁻¹ — the host's b_inv_mul_right_into inverts after
        // the first GEMM; 1/x is exact in the same order here.
        for vh in vhs.iter_mut() {
            for x in vh.iter_mut() {
                *x = 1.0 / *x;
            }
        }
        let vinvrefs: Vec<&[f64]> = vhs.iter().map(|v| v.as_slice()).collect();
        dev.set_vector_stack_into(&vinvrefs, &mut dvs);
        dev.try_scale_cols_kernel_batched(&dvs, &mut ts)?;
        // · e^{+ΔτK}
        let spare = dev.try_alloc(n, n, b)?;
        let (prods, _) = try_kron_apply(dev, expk_inv, Side::Right, ts, spare)?;
        let prefs: Vec<&DMatrix> = prods.iter().collect();
        dev.get_matrix_stack_into(&prefs, outs);
        Ok(())
    })();
    for vh in vhs {
        workspace::put(vh);
    }
    r
}

/// Batched cluster product (Algorithms 4+5): `B_{hi−1}(h_i) ⋯ B_{lo}(h_i)`
/// for every walker, per entry in the host's op order — bit-identical to
/// [`BMatrixFactory::cluster`] when `expk` is the host's factor list.
///
/// The `k` diagonal stacks go down as one stacked transfer per slice and
/// each slice costs one batched scale plus one strided-batched GEMM per
/// factor for the whole call; the B products come back in a single stacked
/// download. Only the initial seeding copies of the dense `e^{−ΔτK}`
/// (`seed`; the one factor when there is one) remain per-walker (`B`
/// on-device `dcopy` launches — no PCIe traffic).
#[allow(clippy::too_many_arguments)]
pub fn try_cluster_crowd(
    dev: &mut Device,
    seed: &DMatrix,
    expk: &[DMatrix],
    fac: &BMatrixFactory,
    hs: &[&HsField],
    lo: usize,
    hi: usize,
    spin: Spin,
) -> Result<Vec<Matrix>, DeviceError> {
    let b = hs.len();
    if b == 0 {
        return Ok(Vec::new());
    }
    assert!(lo < hi && hi <= hs[0].slices());
    let n = fac.nsites();
    let mut vhs: Vec<Vec<f64>> = (0..b).map(|_| workspace::take(n)).collect();
    let r = (|| {
        let mut ts = Vec::with_capacity(b);
        for _ in 0..b {
            ts.push(dev.try_dcopy(seed)?);
        }
        let mut dvs = vec![Vec::new(); b];
        for (vh, h) in vhs.iter_mut().zip(hs) {
            fac.v_diag_into(h, lo, spin, vh);
        }
        let vrefs: Vec<&[f64]> = vhs.iter().map(|v| v.as_slice()).collect();
        dev.set_vector_stack_into(&vrefs, &mut dvs);
        dev.try_scale_cols_kernel_batched(&dvs, &mut ts)?;
        // `t`/`next` ping-pong: each GEMM writes the fresh products into the
        // other stack, then the stacks swap wholesale — one device
        // allocation per walker for the whole cluster, not one per slice.
        let mut nexts = dev.try_alloc(n, n, b)?;
        for l in (lo + 1)..hi {
            for (vh, h) in vhs.iter_mut().zip(hs) {
                fac.v_diag_into(h, l, spin, vh);
            }
            let vrefs: Vec<&[f64]> = vhs.iter().map(|v| v.as_slice()).collect();
            dev.set_vector_stack_into(&vrefs, &mut dvs);
            dev.try_scale_rows_kernel_batched(&dvs, &mut ts)?;
            (ts, nexts) = try_kron_apply(dev, expk, Side::Left, ts, nexts)?;
        }
        let mut outs: Vec<Matrix> = (0..b).map(|_| Matrix::zeros(n, n)).collect();
        {
            let trefs: Vec<&DMatrix> = ts.iter().collect();
            let mut orefs: Vec<&mut Matrix> = outs.iter_mut().collect();
            dev.get_matrix_stack_into(&trefs, &mut orefs);
        }
        Ok(outs)
    })();
    for vh in vhs {
        workspace::put(vh);
    }
    r
}

/// Algorithm 4 verbatim (the CUBLAS formulation Figure 9 measures
/// Algorithm 5 against): one walker's `B_{hi−1} ⋯ B_{lo}` with a
/// `cublasDcopy` and a per-vector `cublasDscal` loop (N launches) for each
/// `V` scaling. Same numerics as [`try_cluster_crowd`], a different bill.
///
/// With our `B = e^{−ΔτK}·V` convention the accumulation is
/// `T ← e^{−ΔτK}·(diag(V_l)·T)` after seeding `T = e^{−ΔτK}·diag(V_lo)`;
/// the per-element scaling work matches the paper's Algorithm 4 exactly.
pub fn try_cluster_cublas(
    dev: &mut Device,
    expk_dev: &DMatrix,
    fac: &BMatrixFactory,
    h: &HsField,
    lo: usize,
    hi: usize,
    spin: Spin,
) -> Result<Matrix, DeviceError> {
    assert!(lo < hi && hi <= h.slices());
    let n = fac.nsites();
    let mut vh = workspace::take(n);
    let r = (|| {
        let mut vd = [Vec::new()];
        let mut t = vec![dev.try_dcopy(expk_dev)?];
        fac.v_diag_into(h, lo, spin, &mut vh);
        dev.set_vector_stack_into(&[&vh], &mut vd);
        dev.try_scale_cols_cublas(&vd[0], &mut t[0])?;
        for l in (lo + 1)..hi {
            fac.v_diag_into(h, l, spin, &mut vh);
            dev.set_vector_stack_into(&[&vh], &mut vd);
            let mut vt = vec![dev.try_dcopy(&t[0])?];
            dev.try_scale_rows_cublas(&vd[0], &mut vt[0])?;
            (t, _) = try_kron_apply(dev, slice::from_ref(expk_dev), Side::Left, vt, t)?;
        }
        let mut out = Matrix::zeros(n, n);
        dev.get_matrix_stack_into(&[&t[0]], &mut [&mut out]);
        Ok(out)
    })();
    workspace::put(vh);
    r
}

/// Algorithm 6 around Algorithm 7's fused kernel (the paper's throughput
/// formulation, Figure 9's `gpu-wrap` column): wraps one walker's
/// `G ← B_l G B_l⁻¹` into a pre-allocated host matrix.
///
/// With `B = e^{−ΔτK}·V`: `B G B⁻¹ = e^{−ΔτK} (V G V⁻¹) e^{+ΔτK}` — one
/// two-sided scaling between two GEMMs, three launches. The scaling runs
/// *before* the GEMMs, so the floating-point op order differs from the host
/// path and the result agrees with it to the last few ulps, not bit for bit;
/// the sweep therefore runs [`try_wrap_crowd_bitexact_into`] and this form
/// stays a cost study.
#[allow(clippy::too_many_arguments)]
pub fn try_wrap_on_device_into(
    dev: &mut Device,
    expk_dev: &DMatrix,
    expk_inv_dev: &DMatrix,
    fac: &BMatrixFactory,
    h: &HsField,
    l: usize,
    spin: Spin,
    g: &Matrix,
    out: &mut Matrix,
) -> Result<(), DeviceError> {
    let n = fac.nsites();
    let mut dg = dev.set_matrix_stack(&[g]);
    let vh = fac.v_diag(h, l, spin);
    let mut v = [Vec::new()];
    dev.set_vector_stack_into(&[&vh], &mut v);
    workspace::put(vh);
    // V G V⁻¹ via the texture-cache kernel.
    dev.try_wrap_scale_kernel(&v[0], &mut dg[0])?;
    // e^{−ΔτK} · (VGV⁻¹): one dense factor, so one GEMM.
    let t = dev.try_alloc(n, n, 1)?;
    let (t, _) = try_kron_apply(dev, slice::from_ref(expk_dev), Side::Left, dg, t)?;
    // · e^{+ΔτK}
    let prod = dev.try_alloc(n, n, 1)?;
    let (prod, _) = try_kron_apply(dev, slice::from_ref(expk_inv_dev), Side::Right, t, prod)?;
    dev.get_matrix_stack_into(&[&prod[0]], &mut [out]);
    Ok(())
}
