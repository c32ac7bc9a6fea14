//! Kronecker-factored operators: `A = A_{d−1} ⊗ ⋯ ⊗ A_1 ⊗ A_0`, applied to a
//! matrix one factor at a time instead of being multiplied out.
//!
//! Index a vector of length `n_0·n_1⋯n_{d−1}` fastest-axis first, `i =
//! i_0 + n_0·(i_1 + n_1·(…))`, as a lattice indexes its sites. Then `A·M`
//! is `d` *mode products*: each contracts one axis of the column-major
//! buffer of `M`, read as `[inner, n_a, outer]`, with its factor. No
//! product reorders the buffer. A step takes one of two [`Route`]s, by the
//! factor's order alone — one-factor operators (a dense `e^{−ΔτK}`) too:
//!
//! - **direct** (orders below [`DIRECT_CUT`]): the register-tile kernel of
//!   [`crate::simd`], which lays `op(A_a)` out once on the stack and reads
//!   the buffer in place — its columns on the `inner = 1` step, its
//!   `inner`-long runs on the others — and packs nothing;
//! - **GEMM** (larger factors): the GEMM driver on reshaped views, `op(A_a)
//!   · X` with `X` the buffer as an `n_a × outer` matrix on the `inner = 1`
//!   step, and on the others `outer` GEMMs, slab `k` times `op(A_a)ᵀ`, the
//!   factor packed once for all of them (the strided-batched driver's
//!   shared operand).
//!
//! Both give every element the same chain of fused multiply-adds, ascending
//! over the factor's columns from zero and then added to zero, so the route
//! never reaches a bit (`tests/kernel_paths.rs`, and `bench --bin kron`'s
//! oracle). `M · A` is the same with `op = Trans` and `inner` counting `M`'s
//! rows. A product costs `2·len·Σ n_a` flops against `2·len·Π n_a`
//! multiplied out; a one-factor operator has the bits of one [`crate::gemm`]
//! call.

#![cfg_attr(any(), deny_hot_alloc)]

use crate::blas3::{self, Op, KC};
use crate::matrix::Matrix;
use crate::simd::{self, KernelPath};
use crate::workspace;

/// Which side of `M` an operator multiplies.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Side {
    /// `A · M`.
    Left,
    /// `M · A`.
    Right,
}

/// The mode products of one application, from `side`, of an operator whose
/// factors have `orders` (fastest axis first) to an `m_rows`-row matrix, in
/// the order they run: `(op, inner)` for [`mode_product`] with each factor.
/// [`Kron::apply`] and any other driver of the factors (a device issuing
/// them as launches) take the sequence from here, so their bits agree.
pub fn steps(
    side: Side,
    m_rows: usize,
    orders: impl IntoIterator<Item = usize>,
) -> impl Iterator<Item = (Op, usize)> {
    let (op, mut inner) = match side {
        Side::Left => (Op::NoTrans, 1),
        Side::Right => (Op::Trans, m_rows),
    };
    orders.into_iter().map(move |n| {
        let step = (op, inner);
        inner *= n;
        step
    })
}

/// A square operator kept as its Kronecker factors, fastest axis first.
#[derive(Clone, Debug, PartialEq)]
pub struct Kron {
    factors: Vec<Matrix>,
}

impl Kron {
    /// The operator `factors[d−1] ⊗ ⋯ ⊗ factors[0]`. Every factor is square.
    pub fn new(factors: Vec<Matrix>) -> Self {
        assert!(!factors.is_empty(), "a Kronecker operator needs a factor");
        assert!(
            factors.iter().all(Matrix::is_square),
            "Kronecker factors must be square"
        );
        Kron { factors }
    }

    /// The factors, fastest axis first.
    pub fn factors(&self) -> &[Matrix] {
        &self.factors
    }

    /// Order of the operator: the product of the factor orders.
    fn order(&self) -> usize {
        self.factors.iter().map(Matrix::nrows).product()
    }

    /// Multiplies the matrix in `bufs[from]` by the operator — `A · M`
    /// (`Side::Left`) or `M · A` (`Side::Right`) — each step writing the
    /// other buffer, and returns the index of the buffer holding the
    /// product, `(from + d) % 2` for `d` factors: a caller that wants it in
    /// `bufs[0]` starts from `bufs[d % 2]`. Two buffers of `M`'s shape are
    /// all a product of any number of factors needs.
    pub fn apply(&self, side: Side, bufs: [&mut Matrix; 2], from: usize) -> usize {
        let [a, b] = bufs;
        let (rows, cols) = (a.nrows(), a.ncols());
        assert!(
            b.nrows() == rows && b.ncols() == cols,
            "kron: buffer shapes"
        );
        let n = self.order();
        match side {
            Side::Left => assert_eq!(rows, n, "kron: left operand rows"),
            Side::Right => assert_eq!(cols, n, "kron: right operand columns"),
        }
        let mut at = from;
        let orders = self.factors.iter().map(Matrix::nrows);
        for (f, (op, inner)) in self.factors.iter().zip(steps(side, rows, orders)) {
            match at {
                0 => mode_product(f, op, inner, a, b),
                _ => mode_product(f, op, inner, b, a),
            }
            at ^= 1;
        }
        at
    }
}

/// The factor order from which a mode product runs on the GEMM driver
/// instead of the direct kernel.
///
/// Measured with `bench --bin kron` (`BENCH_kron.json`, `cut` rows): one
/// held mode product on about 2¹⁶ values at every order 2 … 64, for each
/// step kind. On the 2-core AVX-512 reference host the direct kernel beats
/// the GEMM route (the slab loop below, `op(A)ᵀ` packed once) at every
/// order up to 40 on every step (order 16: 25–41 against 57–79 µs); from 41
/// up it starts to lose on the long-run steps (`inner = n²` and one slab).
pub const DIRECT_CUT: usize = 41;

/// The two ways a mode product runs; both give the same bits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Route {
    /// The direct register-tile kernel: `op(A)` laid out once, the big
    /// operand read in place, nothing packed (factor orders up to
    /// [`simd::DIRECT_MAX_ORDER`]).
    Direct,
    /// The GEMM driver: one GEMM on the `inner = 1` step, one per slab on
    /// the others with the factor packed once.
    Gemm,
}

impl Route {
    /// The route a factor of order `n` takes: direct below [`DIRECT_CUT`].
    pub fn for_order(n: usize) -> Route {
        if n < DIRECT_CUT {
            Route::Direct
        } else {
            Route::Gemm
        }
    }
}

/// One mode product: `dst[i, :, k] ← op(A) · src[i, :, k]` for the buffers
/// read as `[inner, n, outer]` (`n` the order of `A`, `inner` fastest), on
/// the [`Route`] the order selects. Both matrices only lend their buffers;
/// their shapes do not matter.
pub fn mode_product(a: &Matrix, op: Op, inner: usize, src: &Matrix, dst: &mut Matrix) {
    let route = Route::for_order(a.nrows());
    mode_product_on(simd::kernel_path(), route, a, op, inner, src, dst);
}

/// [`mode_product`] with the kernel path and the route pinned, for the
/// equivalence tests and the `kron` bench (as [`crate::gemm_with_kernel`]
/// pins the path of a GEMM).
pub fn mode_product_on(
    path: KernelPath,
    route: Route,
    a: &Matrix,
    op: Op,
    inner: usize,
    src: &Matrix,
    dst: &mut Matrix,
) {
    let n = a.nrows();
    let len = src.as_slice().len();
    assert!(a.is_square(), "mode_product: the factor must be square");
    assert_eq!(dst.as_slice().len(), len, "mode_product: buffer lengths");
    assert!(
        inner > 0 && len.is_multiple_of(inner * n),
        "mode_product: the buffer is not [inner, n, outer]"
    );
    let outer = len / (inner * n);
    match route {
        Route::Direct => {
            simd::mode_product_direct(path, a, op, inner, src.as_slice(), dst.as_mut_slice())
        }
        Route::Gemm if inner == 1 => blas3::gemm_impl(
            path,
            1.0,
            a.view(),
            op,
            src.view_as(n, outer),
            Op::NoTrans,
            0.0,
            dst.view_mut_as(n, outer),
        ),
        Route::Gemm => match path.or_fallback() {
            KernelPath::Scalar => slabs::<8, 4>(a, op, inner, outer, src, dst),
            KernelPath::Fma => slabs::<8, 6>(a, op, inner, outer, src, dst),
            KernelPath::Avx512 => slabs::<16, 12>(a, op, inner, outer, src, dst),
        },
    }
    crate::check_finite!(dst.as_slice(), "mode_product output ({len})");
}

/// `dst_k ← src_k · op(A)ᵀ` for the `outer` slabs `inner × n`, as the
/// strided-batched driver runs a batch: each slab is the solo GEMM's steps
/// (so its bits), and `op(A)ᵀ` is packed by slab 0 alone.
fn slabs<const MR: usize, const NR: usize>(
    a: &Matrix,
    op: Op,
    inner: usize,
    outer: usize,
    src: &Matrix,
    dst: &mut Matrix,
) {
    let n = a.nrows();
    let (mut packed, a_len) = blas3::lease_panels::<MR, NR>(inner, n, n);
    let (packed_a, packed_b) = packed.split_at_mut(a_len);
    let s = src.view_as(inner, n * outer);
    let mut d = dst.view_mut_as(inner, n * outer);
    d.for_each_run(|run| run.fill(0.0));
    let mut pc = 0;
    while pc < n {
        let kc = KC.min(n - pc);
        for k in 0..outer {
            let block = (0, k * n, inner, n);
            let shared = (k == 0).then_some((a.view(), op.flipped()));
            let slab = Some((s.sub(block), Op::NoTrans));
            blas3::slab::<MR, NR>(
                1.0,
                slab,
                shared,
                pc,
                kc,
                packed_a,
                packed_b,
                &mut d.sub(block),
            );
        }
        pc += kc;
    }
    workspace::put(packed);
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::{gemm, matmul};
    use util::Rng;

    /// `a ⊗ b` multiplied out (b the fast axis).
    fn kron2(a: &Matrix, b: &Matrix) -> Matrix {
        let (na, nb) = (a.nrows(), b.nrows());
        Matrix::from_fn(na * nb, na * nb, |i, j| {
            a[(i / nb, j / nb)] * b[(i % nb, j % nb)]
        })
    }

    fn factors(dims: &[usize], seed: u64) -> Vec<Matrix> {
        let mut rng = Rng::new(seed);
        dims.iter()
            .map(|&n| Matrix::random(n, n, &mut rng))
            .collect()
    }

    fn dense(fs: &[Matrix]) -> Matrix {
        fs.iter()
            .skip(1)
            .fold(fs[0].clone(), |acc, f| kron2(f, &acc))
    }

    /// `A · m` or `m · A` through [`Kron::apply`], the product in `bufs[0]`.
    fn product(k: &Kron, side: Side, m: &Matrix) -> Matrix {
        let mut bufs = [m.clone(), Matrix::zeros(m.nrows(), m.ncols())];
        let from = k.factors().len() % 2;
        bufs.swap(0, from);
        let [a, b] = &mut bufs;
        assert_eq!(k.apply(side, [a, b], from), 0);
        bufs.into_iter().next().expect("two buffers")
    }

    #[test]
    fn left_and_right_products_match_the_dense_operator() {
        // Two and three axes, unequal extents, non-square M.
        for (dims, seed) in [(&[4, 3][..], 1), (&[3, 2, 5][..], 2), (&[5][..], 3)] {
            let fs = factors(dims, seed);
            let k = Kron::new(fs.clone());
            let e = dense(&fs);
            let n = k.order();
            let mut rng = Rng::new(seed + 10);
            let ml = Matrix::random(n, 7, &mut rng);
            let mr = Matrix::random(6, n, &mut rng);
            let out = product(&k, Side::Left, &ml);
            let want = matmul(&e, Op::NoTrans, &ml, Op::NoTrans);
            assert!(
                out.max_abs_diff(&want) < 1e-13 * want.max_abs(),
                "{dims:?} left"
            );
            let out = product(&k, Side::Right, &mr);
            let want = matmul(&mr, Op::NoTrans, &e, Op::NoTrans);
            assert!(
                out.max_abs_diff(&want) < 1e-13 * want.max_abs(),
                "{dims:?} right"
            );
        }
    }

    #[test]
    fn one_factor_is_one_gemm_bit_for_bit() {
        let fs = factors(&[20], 4);
        let k = Kron::new(fs.clone());
        let mut rng = Rng::new(5);
        let m = Matrix::random(20, 20, &mut rng);
        let mut want = Matrix::zeros(20, 20);
        gemm(1.0, &fs[0], Op::NoTrans, &m, Op::NoTrans, 0.0, &mut want);
        assert_eq!(product(&k, Side::Left, &m), want);
        gemm(1.0, &m, Op::NoTrans, &fs[0], Op::NoTrans, 0.0, &mut want);
        assert_eq!(product(&k, Side::Right, &m), want);
    }

    #[test]
    fn slabs_match_solo_gemms_bit_for_bit() {
        // A middle axis: on either route every slab must carry the bits of
        // its own gemm.
        let a = factors(&[6], 6).remove(0);
        let mut rng = Rng::new(7);
        let (inner, outer) = (5, 4);
        let src = Matrix::random(inner * 6, outer, &mut rng);
        let (mut dst, path) = (Matrix::zeros(inner * 6, outer), simd::kernel_path());
        for route in [Route::Direct, Route::Gemm] {
            mode_product_on(path, route, &a, Op::Trans, inner, &src, &mut dst);
            for k in 0..outer {
                let slab = Matrix::from_col_major(inner, 6, src.col(k).to_vec());
                let mut want = Matrix::zeros(inner, 6);
                gemm(1.0, &slab, Op::NoTrans, &a, Op::NoTrans, 0.0, &mut want);
                assert_eq!(dst.col(k), want.as_slice(), "{route:?}: slab {k}");
            }
        }
    }
}
