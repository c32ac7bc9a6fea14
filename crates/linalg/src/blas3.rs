//! Level-3 matrix–matrix multiply (DGEMM analogue).
//!
//! Cache-blocked, packed GEMM in the Goto/BLIS style, and the only GEMM
//! there is — a 1×1×1 product and a 2048³ one take the same steps:
//!
//! - beta is applied to C once, up front,
//! - the k-dimension is tiled by `KC`, each slab packed once into one leased
//!   buffer: A into `MR`-row micro-panels, B into `NR`-column micro-panels
//!   (k-major; a `NoTrans` A panel is a run of column segments, moved as
//!   vectors),
//! - an `MR × NR` register-tile micro-kernel runs over the packed panels,
//! - each `KC` slab is one pair of [`crate::team`] jobs — pack the panels,
//!   then the macro-tiles (`MC × NC`) of `NR`-aligned column ranges of C — cut
//!   from the shape alone, so the bits are the same on one thread or two.
//!
//! The micro-kernel — and with it the tile shape `MR × NR`, a pair of const
//! generics from `gemm_impl` down — is selected at runtime through
//! [`crate::simd`]: an AVX-512 16×12 tile or an AVX2+FMA 8×6 tile on capable
//! `x86_64` hosts, the portable scalar 8×4 tile otherwise
//! (`LINALG_KERNEL=scalar|fma|avx512` pins a path); all three fuse each
//! multiply-add and give the same bits. Packing
//! buffers come from the [`crate::workspace`] arena, so steady-state GEMM
//! calls perform no heap allocation.
//!
//! There is no unpacked path for small products (there was one, under 48³,
//! until PR 22): the systems the scheduler, service and fleet layers run are
//! N = 16 and 36, and a 36³ product is 4–5× faster through the tile than
//! through an axpy loop (`BENCH_fig1.json`, N = 16/36 rows). What a call
//! costs besides its multiply-adds is one arena lease, the two packing
//! passes and the edge tiles; the AVX-512 path writes edge tiles under a row
//! mask and runs a last row panel of at most 8 rows at half height, so
//! 36 = 16 + 16 + 4 pays for 40 rows, not 48 (DESIGN.md §8 has the numbers).
//! IEEE semantics hold at every size: nothing skips a zero multiplier, so a
//! NaN or Inf in A or B reaches C.
//!
//! This reproduces the property the paper's Figure 1 rests on: GEMM reaches a
//! high fraction of peak even at DQMC sizes (N ≈ 256…2048) because every
//! floating-point operation streams from packed, cache-resident buffers —
//! unlike pivoted QR, which must keep returning to level-2 norm updates.
//!
//! This module is a `dqmc-lint` hot module: heap allocation inside its
//! loops is rejected by `cargo xtask lint` unless explicitly waived.

#![cfg_attr(any(), deny_hot_alloc)]
#![warn(clippy::undocumented_unsafe_blocks)]

use crate::matrix::{Matrix, View, ViewMut};
use crate::simd::{self, KernelPath};
use crate::{team, workspace};

/// Transpose flag for a GEMM operand.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Op {
    /// Use the operand as stored.
    NoTrans,
    /// Use the transpose of the operand.
    Trans,
}

impl Op {
    /// Rows of `op(A)` given the stored shape.
    pub(crate) fn rows(self, a: View<'_>) -> usize {
        match self {
            Op::NoTrans => a.nrows(),
            Op::Trans => a.ncols(),
        }
    }
    /// The other flag: `op(X)ᵀ` is `op.flipped()(X)`.
    pub(crate) fn flipped(self) -> Op {
        match self {
            Op::NoTrans => Op::Trans,
            Op::Trans => Op::NoTrans,
        }
    }
    /// Columns of `op(A)` given the stored shape.
    pub(crate) fn cols(self, a: View<'_>) -> usize {
        match self {
            Op::NoTrans => a.ncols(),
            Op::Trans => a.nrows(),
        }
    }
}

/// Cache block for the k dimension.
pub(crate) const KC: usize = 256;
/// Cache block for the m dimension (per macro-tile).
pub(crate) const MC: usize = 128;
/// Cache block for the n dimension (per macro-tile).
pub(crate) const NC: usize = 512;
/// Micro-panels per chunk of a slab's packing job (A and B panels alike).
const PACK_PANELS: usize = 8;
/// B micro-panels (`NR` columns of C each) per chunk of a slab's tile job.
const TILE_PANELS: usize = 4;

/// General matrix multiply: `C = alpha * op(A) * op(B) + beta * C`.
///
/// Shapes: `op(A)` is `m × k`, `op(B)` is `k × n`, `C` is `m × n`. The
/// micro-kernel path is chosen once per process by [`simd::kernel_path`].
///
/// # Examples
///
/// ```
/// use linalg::{gemm, Matrix, Op};
/// let a = Matrix::from_fn(2, 2, |i, j| (i + j) as f64);
/// let id = Matrix::identity(2);
/// let mut c = Matrix::zeros(2, 2);
/// gemm(1.0, &a, Op::NoTrans, &id, Op::NoTrans, 0.0, &mut c);
/// assert_eq!(c, a);
/// ```
pub fn gemm(alpha: f64, a: &Matrix, opa: Op, b: &Matrix, opb: Op, beta: f64, c: &mut Matrix) {
    gemm_view(alpha, a.view(), opa, b.view(), opb, beta, c.view_mut());
    // Taint check on the output only: C is *allowed* to carry NaN garbage in
    // with beta = 0 (LAPACK semantics), so inputs are deliberately unchecked.
    crate::check_finite!(c.as_slice(), "gemm output ({}x{})", c.nrows(), c.ncols());
}

/// [`gemm`] with an explicitly pinned micro-kernel path.
///
/// Used by the kernel-equivalence tests and the `fig1` bench to compare the
/// paths within one process (the env override in [`simd::kernel_path`] is
/// latched once and cannot switch mid-run). A `path` the host lacks silently
/// runs the next one down the ladder avx512 → fma → scalar
/// ([`KernelPath::or_fallback`]), so this is safe to call with any path on
/// any host.
pub fn gemm_with_kernel(
    path: KernelPath,
    alpha: f64,
    a: &Matrix,
    opa: Op,
    b: &Matrix,
    opb: Op,
    beta: f64,
    c: &mut Matrix,
) {
    gemm_impl(
        path,
        alpha,
        a.view(),
        opa,
        b.view(),
        opb,
        beta,
        c.view_mut(),
    );
    crate::check_finite!(c.as_slice(), "gemm output ({}x{})", c.nrows(), c.ncols());
}

/// The rank-`k` update `C += U[:, ..k] · W[:, ..k]ᵀ`: [`gemm`] on the leading
/// `k` columns of `U` and `W`, read in place — in column-major storage they
/// are a prefix of each buffer — so it gives the bits `gemm` gives on copies
/// of them. The delayed-update flush.
pub fn rank_k_update(u: &Matrix, w: &Matrix, k: usize, c: &mut Matrix) {
    let u = u.view().sub((0, 0, u.nrows(), k));
    let w = w.view().sub((0, 0, w.nrows(), k));
    gemm_view(1.0, u, Op::NoTrans, w, Op::Trans, 1.0, c.view_mut());
    crate::check_finite!(
        c.as_slice(),
        "rank-{k} update output ({}x{})",
        c.nrows(),
        c.ncols()
    );
}

/// [`gemm`] on sub-blocks: the same blocked driver, micro-kernel and k-order
/// (so a block gives the bits a copy of it would), reading and writing
/// through leading-dimension views. The factorizations and [`crate::tri`]
/// update trailing blocks in place through this entry; their own exit checks
/// cover its output.
pub(crate) fn gemm_view(
    alpha: f64,
    a: View<'_>,
    opa: Op,
    b: View<'_>,
    opb: Op,
    beta: f64,
    c: ViewMut<'_>,
) {
    gemm_impl(simd::kernel_path(), alpha, a, opa, b, opb, beta, c);
}

fn gemm_impl(
    path: KernelPath,
    alpha: f64,
    a: View<'_>,
    opa: Op,
    b: View<'_>,
    opb: Op,
    beta: f64,
    mut c: ViewMut<'_>,
) {
    let m = opa.rows(a);
    let k = opa.cols(a);
    let n = opb.cols(b);
    assert_eq!(opb.rows(b), k, "gemm: inner dimensions disagree");
    assert_eq!(c.nrows(), m, "gemm: C row count");
    assert_eq!(c.ncols(), n, "gemm: C column count");

    // Apply beta once up front.
    if beta == 0.0 {
        c.for_each_run(|run| run.fill(0.0));
    } else if beta != 1.0 {
        c.for_each_run(|run| run.iter_mut().for_each(|x| *x *= beta));
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    match path.or_fallback() {
        KernelPath::Scalar => gemm_blocked::<8, 4>(alpha, a, opa, b, opb, c, m, n, k),
        KernelPath::Fma => gemm_blocked::<8, 6>(alpha, a, opa, b, opb, c, m, n, k),
        KernelPath::Avx512 => gemm_blocked::<16, 12>(alpha, a, opa, b, opb, c, m, n, k),
    }
}

/// The blocked driver, monomorphised per micro-tile shape `MR × NR`.
///
/// The shape names the micro-kernel ([`macro_kernel`]): 8×4 the scalar
/// register tile, 8×6 AVX2+FMA, 16×12 AVX-512 — callers instantiate a SIMD
/// shape only for a path [`KernelPath::or_fallback`] returned. The packing
/// buffer is leased from the thread-local workspace arena — zero heap traffic
/// once the arena is warm — and not cleared: every slab packs each element
/// it reads, padding included.
#[allow(clippy::too_many_arguments)]
fn gemm_blocked<const MR: usize, const NR: usize>(
    alpha: f64,
    a: View<'_>,
    opa: Op,
    b: View<'_>,
    opb: Op,
    mut c: ViewMut<'_>,
    m: usize,
    n: usize,
    k: usize,
) {
    let (mut packed, a_len) = lease_panels::<MR, NR>(m, n, k);
    let (packed_a, packed_b) = packed.split_at_mut(a_len);

    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        let (a, b) = (Some((a, opa)), Some((b, opb)));
        slab::<MR, NR>(alpha, a, b, pc, kc, packed_a, packed_b, &mut c);
        pc += kc;
    }

    workspace::put(packed);
}

/// One arena lease for both packed operands of an `m × n × k` product: the
/// buffer, and where the A panels end and the B panels begin.
pub(crate) fn lease_panels<const MR: usize, const NR: usize>(
    m: usize,
    n: usize,
    k: usize,
) -> (Vec<f64>, usize) {
    let kc = KC.min(k);
    let a_len = padded(m, MR) * kc;
    (workspace::take_scratch(a_len + kc * padded(n, NR)), a_len)
}

fn padded(x: usize, r: usize) -> usize {
    x.div_ceil(r) * r
}

/// One `kc` slab of a blocked product, `C += alpha · op(A)[:, pc..] ·
/// op(B)[pc.., :]`, as two team jobs: pack the slab of each operand given
/// (`None`: the buffer already holds it — the batched driver's shared
/// operand), then run the macro-kernel over C.
///
/// The chunks are fixed by `(m, n, kc)`: runs of [`PACK_PANELS`]
/// micro-panels, runs of [`TILE_PANELS`] `NR`-column ranges of C, or one
/// chunk each under [`team::FORK_FLOPS`]. A chunk writes its own panels or
/// its own columns of C and every element of C still receives its slabs in
/// `pc` order, so the result does not depend on who runs which chunk.
#[allow(clippy::too_many_arguments)]
pub(crate) fn slab<const MR: usize, const NR: usize>(
    alpha: f64,
    a: Option<(View<'_>, Op)>,
    b: Option<(View<'_>, Op)>,
    pc: usize,
    kc: usize,
    packed_a: &mut [f64],
    packed_b: &mut [f64],
    c: &mut ViewMut<'_>,
) {
    let (m, n) = (c.nrows(), c.ncols());
    let (a_panels, b_panels) = (m.div_ceil(MR), n.div_ceil(NR));
    let fork = 2 * m * n * kc >= team::FORK_FLOPS;

    // Packing: the A panels to pack followed by the B panels, as one range.
    let a_units = if a.is_some() { a_panels } else { 0 };
    let units = a_units + if b.is_some() { b_panels } else { 0 };
    let per = if fork { PACK_PANELS } else { units.max(1) };
    let mut a_cols = ViewMut::of_columns(&mut packed_a[..a_panels * kc * MR], kc * MR);
    let mut b_cols = ViewMut::of_columns(&mut packed_b[..b_panels * kc * NR], kc * NR);
    let (a_shards, b_shards) = (a_cols.shards(), b_cols.shards());
    team::for_each_chunk(units.div_ceil(per), |i| {
        let (u0, u1) = (i * per, units.min((i + 1) * per));
        if let (Some((a, opa)), true) = (a, u0 < a_units) {
            let p1 = u1.min(a_units);
            // SAFETY: chunk i alone covers units u0..u1, hence these panels.
            let dst = unsafe { a_shards.cols(u0, p1 - u0) };
            pack::<MR>(a, opa, pc, m, u0, dst);
        }
        if let (Some((b, opb)), true) = (b, u1 > a_units) {
            let p0 = u0.max(a_units) - a_units;
            // SAFETY: as above, for the B panels among units u0..u1.
            let dst = unsafe { b_shards.cols(p0, u1 - a_units - p0) };
            pack::<NR>(b, opb.flipped(), pc, n, p0, dst);
        }
    });

    // Macro-tiles: NR-aligned column ranges of C.
    let (packed_a, packed_b): (&[f64], &[f64]) = (packed_a, packed_b);
    let per = if fork { TILE_PANELS } else { b_panels };
    let c_shards = c.shards();
    team::for_each_chunk(b_panels.div_ceil(per), |i| {
        let j0 = i * per * NR;
        // SAFETY: chunk i alone covers columns j0..j0 + per·NR of C.
        let mut cols = unsafe { c_shards.cols(j0, (per * NR).min(n - j0)) };
        macro_tiles::<MR, NR>(
            alpha,
            packed_a,
            &packed_b[i * per * kc * NR..],
            kc,
            &mut cols,
        );
    });
}

/// Reads `op(A)[i, p]` for the logical (post-op) index pair.
#[inline(always)]
fn read_op(a: View<'_>, op: Op, i: usize, p: usize) -> f64 {
    // SAFETY: callers iterate within the logical bounds of op(A).
    unsafe {
        match op {
            Op::NoTrans => a.get_unchecked(i, p),
            Op::Trans => a.get_unchecked(p, i),
        }
    }
}

/// Packs the `W`-row micro-panels `p0..` of `op(X)[0..len, pc..pc+kc]`, one
/// per column of `dst` — the A panels of a slab as they stand, and the B
/// panels as those of `op(B)ᵀ` (`W = NR`, the op flipped).
///
/// Layout: panel r0 (rows r0..r0+W) occupies `kc*W` consecutive values,
/// k-major: element (r0+i, pc+p) at `panel_base + p*W + i`. Rows beyond `len`
/// are zero-padded.
fn pack<const W: usize>(x: View<'_>, op: Op, pc: usize, len: usize, p0: usize, dst: ViewMut<'_>) {
    match op {
        // SAFETY: `pack_with` reads rows < len and k steps pc..pc+kc only,
        // the logical bounds of op(X).
        Op::NoTrans => pack_with::<W>(|i, p| unsafe { x.get_unchecked(i, p) }, pc, len, p0, dst),
        // SAFETY: as above, with the index pair swapped into stored order.
        Op::Trans => pack_with::<W>(|i, p| unsafe { x.get_unchecked(p, i) }, pc, len, p0, dst),
    }
}

/// [`pack`] over one way of reading `op(X)[i, p]`. A full panel's k step is
/// `W` reads with a constant bound: for a `NoTrans` operand, whose step is a
/// column segment, two vector moves.
#[inline(always)]
fn pack_with<const W: usize>(
    read: impl Fn(usize, usize) -> f64,
    pc: usize,
    len: usize,
    p0: usize,
    mut dst: ViewMut<'_>,
) {
    for pi in 0..dst.ncols() {
        let r0 = (p0 + pi) * W;
        let rows = W.min(len - r0);
        for (p, step) in dst.col_mut(pi).chunks_exact_mut(W).enumerate() {
            if rows == W {
                for (i, d) in step.iter_mut().enumerate() {
                    *d = read(r0 + i, pc + p);
                }
            } else {
                for (i, d) in step.iter_mut().enumerate() {
                    *d = if i < rows { read(r0 + i, pc + p) } else { 0.0 };
                }
            }
        }
    }
}

/// Adds one `kc` slab's product to a column range of C: the macro-kernel
/// over every `MC × NC` tile, in column-major tile order. `packed_b` starts
/// at the range's first micro-panel.
fn macro_tiles<const MR: usize, const NR: usize>(
    alpha: f64,
    packed_a: &[f64],
    packed_b: &[f64],
    kc: usize,
    c: &mut ViewMut<'_>,
) {
    let (m, n) = (c.nrows(), c.ncols());
    // The n cache block must stay a multiple of the micro-tile width so the
    // packed-panel index arithmetic holds (512 for NR=4, 510 for NR=6, 504
    // for NR=12); MC is a multiple of every MR.
    let ncb = NC / NR * NR;
    let mblocks = m.div_ceil(MC);
    let (cptr, ldc) = (c.as_mut_ptr(), c.ld());
    for t in 0..mblocks * n.div_ceil(ncb) {
        let ic = t % mblocks * MC;
        let jc = t / mblocks * ncb;
        let mc = MC.min(m - ic);
        let nc = ncb.min(n - jc);
        macro_kernel::<MR, NR>(alpha, packed_a, packed_b, kc, ic, jc, mc, nc, cptr, ldc);
    }
}

/// Computes one MC×NC macro-tile of C from packed panels.
#[allow(clippy::too_many_arguments)]
fn macro_kernel<const MR: usize, const NR: usize>(
    alpha: f64,
    packed_a: &[f64],
    packed_b: &[f64],
    kc: usize,
    ic: usize,
    jc: usize,
    mc: usize,
    nc: usize,
    cptr: *mut f64,
    ldc: usize,
) {
    debug_assert_eq!(ic % MR, 0);
    debug_assert_eq!(jc % NR, 0);
    let mut jr = 0;
    while jr < nc {
        let nr = NR.min(nc - jr);
        let bpanel = &packed_b[(jc + jr) / NR * (kc * NR)..][..kc * NR];
        let mut ir = 0;
        while ir < mc {
            let mr = MR.min(mc - ir);
            let apanel = &packed_a[(ic + ir) / MR * (kc * MR)..][..kc * MR];
            // SAFETY: the panels hold kc*MR and kc*NR elements, and the
            // mr × nr elements from row ic + ir, column jc + jr lie inside C.
            unsafe {
                let ctile = cptr.add((jc + jr) * ldc + ic + ir);
                update_tile::<MR, NR>(kc, apanel, bpanel, alpha, ctile, ldc, mr, nr);
            }
            ir += MR;
        }
        jr += NR;
    }
}

/// `C += alpha · tile` for the `mr × nr` block of C at `c`, the tile computed
/// by the micro-kernel the shape names. The AVX-512 tile goes to C straight
/// from its registers (under a row mask that clips edge tiles, a last row
/// panel of at most 8 rows at half height); the other two store the full tile and clip
/// it in the scalar loop `c += alpha * v`. Either way an element of C gets
/// one multiply by alpha and one add.
///
/// # Safety
///
/// `apanel` and `bpanel` hold `kc*MR` and `kc*NR` elements, `mr ≤ MR`,
/// `nr ≤ NR`, `c.add(j*ldc + i)` is valid for reads and writes for `i < mr`,
/// `j < nr`, and a SIMD shape is only instantiated (`gemm_impl`,
/// `dgemm_strided_batched`) for a path `or_fallback` returned, so the host
/// has the ISA the shape names.
#[inline(always)]
#[allow(clippy::too_many_arguments)]
unsafe fn update_tile<const MR: usize, const NR: usize>(
    kc: usize,
    apanel: &[f64],
    bpanel: &[f64],
    alpha: f64,
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    #[cfg(target_arch = "x86_64")]
    if MR == 16 && NR == 12 {
        debug_assert!(KernelPath::Avx512.available());
        // SAFETY: avx512f, the panel lengths and the block of C are this
        // function's own contract; H = 1 only when mr ≤ 8.
        unsafe {
            if mr <= 8 {
                simd::micro_kernel_avx512_update::<1>(kc, apanel, bpanel, alpha, c, ldc, mr, nr);
            } else {
                simd::micro_kernel_avx512_update::<2>(kc, apanel, bpanel, alpha, c, ldc, mr, nr);
            }
        }
        return;
    }
    let mut acc = [[0.0f64; MR]; NR];
    #[cfg(target_arch = "x86_64")]
    if MR == 8 && NR == 6 {
        debug_assert!(KernelPath::Fma.available());
        // SAFETY: avx2+fma and the panel lengths are this function's own
        // contract; `acc` is a contiguous 8×6 tile.
        unsafe { simd::micro_kernel_fma_8x6(kc, apanel, bpanel, acc.as_mut_ptr().cast::<f64>()) };
    } else {
        micro_kernel::<MR, NR>(kc, apanel, bpanel, &mut acc);
    }
    #[cfg(not(target_arch = "x86_64"))]
    micro_kernel::<MR, NR>(kc, apanel, bpanel, &mut acc);
    for (j, accj) in acc.iter().enumerate().take(nr) {
        for (i, &v) in accj.iter().enumerate().take(mr) {
            // SAFETY: i < mr and j < nr, inside the block by the contract.
            unsafe { *c.add(j * ldc + i) += alpha * v };
        }
    }
}

/// Scalar register-tile kernel:
/// `acc[j][i] += Σ_p apanel[p*MR+i] * bpanel[p*NR+j]`, one fused
/// multiply-add per step, ascending `p`: the SIMD tiles' bits.
#[inline(always)]
fn micro_kernel<const MR: usize, const NR: usize>(
    kc: usize,
    apanel: &[f64],
    bpanel: &[f64],
    acc: &mut [[f64; MR]; NR],
) {
    for p in 0..kc {
        // SAFETY: callers pass panels of exactly kc*MR and kc*NR elements,
        // so both ranges are in bounds for every p < kc.
        let (a, b) = unsafe {
            (
                apanel.get_unchecked(p * MR..(p + 1) * MR),
                bpanel.get_unchecked(p * NR..(p + 1) * NR),
            )
        };
        for j in 0..NR {
            let bj = b[j];
            let accj = &mut acc[j];
            for i in 0..MR {
                accj[i] = a[i].mul_add(bj, accj[i]);
            }
        }
    }
}

/// Reference triple-loop GEMM for correctness tests.
// dqmc-lint: allow(unchecked_kernel) — test oracle; checking it would mask
// the very taint the checked `gemm` is supposed to attribute.
pub fn gemm_naive(alpha: f64, a: &Matrix, opa: Op, b: &Matrix, opb: Op, beta: f64, c: &mut Matrix) {
    let (a, b) = (a.view(), b.view());
    let m = opa.rows(a);
    let k = opa.cols(a);
    let n = opb.cols(b);
    assert_eq!(opb.rows(b), k);
    assert_eq!(c.nrows(), m);
    assert_eq!(c.ncols(), n);
    for j in 0..n {
        for i in 0..m {
            let mut s = 0.0;
            for p in 0..k {
                s += read_op(a, opa, i, p) * read_op(b, opb, p, j);
            }
            let old = c[(i, j)];
            c[(i, j)] = alpha * s + if beta == 0.0 { 0.0 } else { beta * old };
        }
    }
}

/// Convenience: allocate and return `op(A) * op(B)`.
// dqmc-lint: allow(unchecked_kernel) — delegates to `gemm`, which checks.
pub fn matmul(a: &Matrix, opa: Op, b: &Matrix, opb: Op) -> Matrix {
    let mut c = Matrix::zeros(opa.rows(a.view()), opb.cols(b.view()));
    gemm(1.0, a, opa, b, opb, 0.0, &mut c);
    c
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::Rng;

    fn check_against_naive(m: usize, n: usize, k: usize, opa: Op, opb: Op, seed: u64) {
        let mut rng = Rng::new(seed);
        let (ar, ac) = match opa {
            Op::NoTrans => (m, k),
            Op::Trans => (k, m),
        };
        let (br, bc) = match opb {
            Op::NoTrans => (k, n),
            Op::Trans => (n, k),
        };
        let a = Matrix::random(ar, ac, &mut rng);
        let b = Matrix::random(br, bc, &mut rng);
        let c0 = Matrix::random(m, n, &mut rng);
        let mut c1 = c0.clone();
        let mut c2 = c0.clone();
        gemm(1.7, &a, opa, &b, opb, 0.3, &mut c1);
        gemm_naive(1.7, &a, opa, &b, opb, 0.3, &mut c2);
        let scale = c2.max_abs().max(1.0);
        assert!(
            c1.max_abs_diff(&c2) / scale < 1e-12 * k.max(4) as f64,
            "mismatch m={m} n={n} k={k} {opa:?} {opb:?}: {}",
            c1.max_abs_diff(&c2)
        );
    }

    #[test]
    fn all_op_combinations_small() {
        // One element, sub-tile, one tile of each path, N = 16 and 36, and
        // the 3-column flush of a delayed update.
        for &(m, n, k) in &[
            (1, 1, 1),
            (3, 5, 7),
            (8, 4, 16),
            (13, 9, 11),
            (16, 16, 16),
            (36, 36, 36),
            (36, 36, 3),
        ] {
            for &opa in &[Op::NoTrans, Op::Trans] {
                for &opb in &[Op::NoTrans, Op::Trans] {
                    check_against_naive(m, n, k, opa, opb, 42 + m as u64);
                }
            }
        }
    }

    #[test]
    fn blocked_path_exercised() {
        // Sizes beyond one KC/MC/NC block, with non-multiple-of-tile edges.
        for &(m, n, k) in &[(130, 70, 300), (257, 513, 100), (64, 64, 600)] {
            for &opa in &[Op::NoTrans, Op::Trans] {
                for &opb in &[Op::NoTrans, Op::Trans] {
                    check_against_naive(m, n, k, opa, opb, 7);
                }
            }
        }
    }

    #[test]
    fn pinned_paths_match_naive_on_blocked_sizes() {
        // Every explicit kernel path, on sizes with odd tile edges: 61 % 8,
        // 61 % 16, 53 % 4, 53 % 6, 53 % 12 all ≠ 0, and 36 = 2·16 + 4, whose
        // last row panel takes the AVX-512 tile's half-height form. Each
        // agrees with the naive loop, and the three agree bit for bit.
        for (m, n, k) in [(61, 53, 67), (36, 36, 36), (5, 7, 3)] {
            let mut rng = Rng::new(11);
            let a = Matrix::random(m, k, &mut rng);
            let b = Matrix::random(k, n, &mut rng);
            let mut naive = Matrix::zeros(m, n);
            gemm_naive(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut naive);
            let [scalar, fma, avx512] = [KernelPath::Scalar, KernelPath::Fma, KernelPath::Avx512]
                .map(|path| {
                    let mut c = Matrix::zeros(m, n);
                    gemm_with_kernel(path, 1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
                    let diff = c.max_abs_diff(&naive);
                    assert!(diff < 1e-12 * k as f64, "{m}x{n}x{k} path {path:?}: {diff}");
                    c
                });
            assert!(bits_eq(&scalar, &fma), "{m}x{n}x{k}: scalar vs fma");
            assert!(bits_eq(&avx512, &fma), "{m}x{n}x{k}: avx512 vs fma");
        }
    }

    fn bits_eq(x: &Matrix, y: &Matrix) -> bool {
        let bits = |m: &Matrix| m.as_slice().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        bits(x) == bits(y)
    }

    #[test]
    fn rank_k_update_matches_gemm_on_copied_columns_bitwise() {
        // A delayed-update flush of every size up to a full rank-32 block.
        let mut rng = Rng::new(5);
        let (n, nb) = (70, 32);
        let u = Matrix::random(n, nb, &mut rng);
        let w = Matrix::random(n, nb, &mut rng);
        let c0 = Matrix::random(n, n, &mut rng);
        for k in [1, 3, 17, nb] {
            let mut c1 = c0.clone();
            rank_k_update(&u, &w, k, &mut c1);
            let (uk, wk) = (u.submatrix(0, 0, n, k), w.submatrix(0, 0, n, k));
            let mut c2 = c0.clone();
            gemm(1.0, &uk, Op::NoTrans, &wk, Op::Trans, 1.0, &mut c2);
            assert!(bits_eq(&c1, &c2), "k = {k}");
        }
    }

    #[test]
    fn views_match_copied_sub_blocks_bitwise() {
        // Operands and result as sub-blocks of larger buffers (and, last, of
        // one buffer) against the same product on copies of the blocks: 12³,
        // N = 16 and 36, a 3-column flush, odd tile edges, every op pair,
        // beta = 0, 1 and general.
        let mut rng = Rng::new(21);
        let big = 200;
        let (a0, b0, c0) = (
            Matrix::random(big, big, &mut rng),
            Matrix::random(big, big, &mut rng),
            Matrix::random(big, big, &mut rng),
        );
        let shapes = [
            (12, 12, 12),
            (16, 16, 16),
            (36, 36, 36),
            (36, 36, 3),
            (61, 53, 67),
            (32, 150, 97),
        ];
        for &(m, n, k) in &shapes {
            for &(opa, opb) in &[
                (Op::NoTrans, Op::NoTrans),
                (Op::Trans, Op::NoTrans),
                (Op::NoTrans, Op::Trans),
                (Op::Trans, Op::Trans),
            ] {
                for &beta in &[0.0, 1.0, -0.7] {
                    let (ar, ac) = if opa == Op::NoTrans { (m, k) } else { (k, m) };
                    let (br, bc) = if opb == Op::NoTrans { (k, n) } else { (n, k) };
                    let (ablk, bblk, cblk) = ((3, 5, ar, ac), (7, 1, br, bc), (2, 9, m, n));
                    let mut c = c0.clone();
                    gemm_view(
                        1.3,
                        a0.view().sub(ablk),
                        opa,
                        b0.view().sub(bblk),
                        opb,
                        beta,
                        c.view_mut().sub(cblk),
                    );
                    let mut expected = c0.submatrix(2, 9, m, n);
                    gemm(
                        1.3,
                        &a0.submatrix(3, 5, ar, ac),
                        opa,
                        &b0.submatrix(7, 1, br, bc),
                        opb,
                        beta,
                        &mut expected,
                    );
                    let mut want = c0.clone();
                    want.set_submatrix(2, 9, &expected);
                    assert!(
                        bits_eq(&c, &want),
                        "{m}x{n}x{k} {opa:?}/{opb:?} beta={beta}"
                    );
                }
            }
        }
        // All three blocks in one buffer, as the LU trailing update has them.
        let mut c = c0.clone();
        let mut cv = c.view_mut();
        let (c22, [l21, u12]) = cv.split((40, 40, 160, 160), [(40, 8, 160, 32), (8, 40, 32, 160)]);
        gemm_view(-1.0, l21, Op::NoTrans, u12, Op::NoTrans, 1.0, c22);
        let mut expected = c0.submatrix(40, 40, 160, 160);
        let (l21, u12) = (c0.submatrix(40, 8, 160, 32), c0.submatrix(8, 40, 32, 160));
        gemm(
            -1.0,
            &l21,
            Op::NoTrans,
            &u12,
            Op::NoTrans,
            1.0,
            &mut expected,
        );
        let mut want = c0.clone();
        want.set_submatrix(40, 40, &expected);
        assert!(bits_eq(&c, &want), "in-buffer trailing update");
    }

    #[test]
    fn pinned_simd_paths_agree_bitwise_on_sub_views() {
        // The AVX-512 tile writes every tile straight into C through its
        // leading dimension — full ones whole, edge ones under a row mask: on
        // blocks of larger buffers (ld = 200 > rows) it must give the FMA
        // tile's bits and leave the rest of C alone, at N = 16 and 36, a one-
        // row and a one-column C and a 3-column flush as on the large shapes.
        if !KernelPath::Avx512.available() {
            eprintln!("skipping: host lacks avx512f");
            return;
        }
        let mut rng = Rng::new(23);
        let big = 200;
        let (a0, b0, c0) = (
            Matrix::random(big, big, &mut rng),
            Matrix::random(big, big, &mut rng),
            Matrix::random(big, big, &mut rng),
        );
        let shapes = [
            (16, 16, 16),
            (36, 36, 36),
            (36, 36, 3),
            (1, 20, 9),
            (20, 1, 9),
            (61, 53, 67),
            (32, 150, 97),
            (150, 37, 190),
        ];
        for &(m, n, k) in &shapes {
            for opa in [Op::NoTrans, Op::Trans] {
                for opb in [Op::NoTrans, Op::Trans] {
                    let (ar, ac) = if opa == Op::NoTrans { (m, k) } else { (k, m) };
                    let (br, bc) = if opb == Op::NoTrans { (k, n) } else { (n, k) };
                    let [fma, avx512] = [KernelPath::Fma, KernelPath::Avx512].map(|path| {
                        let mut c = c0.clone();
                        gemm_impl(
                            path,
                            1.3,
                            a0.view().sub((3, 5, ar, ac)),
                            opa,
                            b0.view().sub((7, 1, br, bc)),
                            opb,
                            -0.7,
                            c.view_mut().sub((2, 9, m, n)),
                        );
                        c
                    });
                    assert!(bits_eq(&fma, &avx512), "{m}x{n}x{k} {opa:?}/{opb:?}");
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "overlaps")]
    fn split_rejects_overlapping_blocks() {
        let mut c = Matrix::zeros(8, 8);
        let _ = c.view_mut().split((0, 0, 4, 4), [(3, 3, 2, 2)]);
    }

    #[test]
    fn beta_zero_overwrites_nan() {
        // beta = 0 must overwrite even NaN garbage in C (LAPACK semantics).
        let a = Matrix::identity(2);
        let mut c = Matrix::from_col_major(2, 2, vec![f64::NAN; 4]);
        gemm(1.0, &a, Op::NoTrans, &a, Op::NoTrans, 0.0, &mut c);
        assert_eq!(c, Matrix::identity(2));
    }

    #[test]
    fn alpha_zero_scales_only() {
        let a = Matrix::identity(3);
        let mut c = Matrix::identity(3);
        gemm(0.0, &a, Op::NoTrans, &a, Op::NoTrans, 2.0, &mut c);
        assert_eq!(c[(0, 0)], 2.0);
        assert_eq!(c[(0, 1)], 0.0);
    }

    #[test]
    fn identity_product() {
        let mut rng = Rng::new(1);
        let a = Matrix::random(50, 50, &mut rng);
        let id = Matrix::identity(50);
        let c = matmul(&a, Op::NoTrans, &id, Op::NoTrans);
        assert!(c.max_abs_diff(&a) < 1e-14);
        let c = matmul(&id, Op::NoTrans, &a, Op::NoTrans);
        assert!(c.max_abs_diff(&a) < 1e-14);
    }

    #[test]
    fn associativity_sanity() {
        let mut rng = Rng::new(2);
        let a = Matrix::random(40, 30, &mut rng);
        let b = Matrix::random(30, 20, &mut rng);
        let x = Matrix::random(20, 1, &mut rng);
        let ab = matmul(&a, Op::NoTrans, &b, Op::NoTrans);
        let abx1 = matmul(&ab, Op::NoTrans, &x, Op::NoTrans);
        let bx = matmul(&b, Op::NoTrans, &x, Op::NoTrans);
        let abx2 = matmul(&a, Op::NoTrans, &bx, Op::NoTrans);
        assert!(abx1.max_abs_diff(&abx2) < 1e-12);
    }

    #[test]
    fn transpose_identity_ataa() {
        // (A^T A) is symmetric.
        let mut rng = Rng::new(3);
        let a = Matrix::random(60, 40, &mut rng);
        let ata = matmul(&a, Op::Trans, &a, Op::NoTrans);
        let diff = ata.max_abs_diff(&ata.transpose());
        assert!(diff < 1e-12);
    }

    #[test]
    fn empty_dimensions() {
        let a = Matrix::zeros(0, 5);
        let b = Matrix::zeros(5, 3);
        let mut c = Matrix::zeros(0, 3);
        gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
        let a = Matrix::zeros(2, 0);
        let b = Matrix::zeros(0, 3);
        let mut c = Matrix::from_fn(2, 3, |_, _| 5.0);
        gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
        assert_eq!(c.max_abs(), 0.0, "k=0 with beta=0 must zero C");
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn dimension_mismatch_panics() {
        let a = Matrix::zeros(2, 3);
        let b = Matrix::zeros(4, 2);
        let mut c = Matrix::zeros(2, 2);
        gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
    }
}
