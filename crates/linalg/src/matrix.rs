//! Dense column-major `f64` matrix.
//!
//! Storage is always packed (leading dimension equals the row count). The
//! blocked kernels in [`crate::blas3`], [`crate::tri`] and the factorizations
//! address sub-blocks through the crate-internal `View`/`ViewMut`
//! (pointer + leading dimension); `Matrix` keeps the public API safe and
//! simple.

#![warn(clippy::undocumented_unsafe_blocks)]
#![warn(unsafe_op_in_unsafe_fn)]

use std::fmt;
use std::marker::PhantomData;
use std::ops::{Index, IndexMut};

/// Dense column-major matrix of `f64`.
///
/// # Examples
///
/// ```
/// use linalg::Matrix;
/// let a = Matrix::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
/// assert_eq!(a[(1, 2)], 21.0);
/// assert_eq!(a.nrows(), 2);
/// assert_eq!(a.ncols(), 3);
/// ```
#[derive(Clone, PartialEq)]
pub struct Matrix {
    nrows: usize,
    ncols: usize,
    data: Vec<f64>,
}

impl Matrix {
    /// Zero matrix of shape `nrows × ncols`.
    pub fn zeros(nrows: usize, ncols: usize) -> Self {
        Matrix {
            nrows,
            ncols,
            data: vec![0.0; nrows * ncols],
        }
    }

    /// Identity matrix of order `n`.
    pub fn identity(n: usize) -> Self {
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = 1.0;
        }
        m
    }

    /// Builds a matrix from a function of `(row, col)`.
    pub fn from_fn(nrows: usize, ncols: usize, mut f: impl FnMut(usize, usize) -> f64) -> Self {
        let mut data = Vec::with_capacity(nrows * ncols);
        for j in 0..ncols {
            for i in 0..nrows {
                data.push(f(i, j));
            }
        }
        Matrix { nrows, ncols, data }
    }

    /// Wraps an existing column-major buffer (`data.len() == nrows*ncols`).
    pub fn from_col_major(nrows: usize, ncols: usize, data: Vec<f64>) -> Self {
        assert_eq!(data.len(), nrows * ncols, "buffer length mismatch");
        Matrix { nrows, ncols, data }
    }

    /// Builds a square diagonal matrix from the given diagonal entries.
    pub fn from_diag(d: &[f64]) -> Self {
        let n = d.len();
        let mut m = Matrix::zeros(n, n);
        for i in 0..n {
            m[(i, i)] = d[i];
        }
        m
    }

    /// Number of rows.
    #[inline]
    pub fn nrows(&self) -> usize {
        self.nrows
    }

    /// Number of columns.
    #[inline]
    pub fn ncols(&self) -> usize {
        self.ncols
    }

    /// True for square matrices.
    #[inline]
    pub fn is_square(&self) -> bool {
        self.nrows == self.ncols
    }

    /// Underlying column-major slice.
    #[inline]
    pub fn as_slice(&self) -> &[f64] {
        &self.data
    }

    /// Underlying mutable column-major slice.
    #[inline]
    pub fn as_mut_slice(&mut self) -> &mut [f64] {
        &mut self.data
    }

    /// Column `j` as a slice.
    #[inline]
    pub fn col(&self, j: usize) -> &[f64] {
        debug_assert!(j < self.ncols);
        &self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Column `j` as a mutable slice.
    #[inline]
    pub fn col_mut(&mut self, j: usize) -> &mut [f64] {
        debug_assert!(j < self.ncols);
        &mut self.data[j * self.nrows..(j + 1) * self.nrows]
    }

    /// Two distinct mutable columns (for pivots swaps); `j1 != j2`.
    pub fn two_cols_mut(&mut self, j1: usize, j2: usize) -> (&mut [f64], &mut [f64]) {
        assert!(j1 != j2 && j1 < self.ncols && j2 < self.ncols);
        let m = self.nrows;
        let (lo, hi) = if j1 < j2 { (j1, j2) } else { (j2, j1) };
        let (a, b) = self.data.split_at_mut(hi * m);
        let first = &mut a[lo * m..(lo + 1) * m];
        let second = &mut b[..m];
        if j1 < j2 {
            (first, second)
        } else {
            (second, first)
        }
    }

    /// Unchecked element read (bounds checked only in debug builds).
    ///
    /// # Safety
    /// `i < nrows` and `j < ncols` must hold.
    #[inline]
    pub unsafe fn get_unchecked(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.nrows && j < self.ncols);
        // SAFETY: the caller guarantees i < nrows and j < ncols, so the flat
        // column-major index j*nrows + i is within data (len == nrows*ncols).
        unsafe { *self.data.get_unchecked(j * self.nrows + i) }
    }

    /// Swaps columns `j1` and `j2`.
    pub fn swap_cols(&mut self, j1: usize, j2: usize) {
        if j1 == j2 {
            return;
        }
        let (a, b) = self.two_cols_mut(j1, j2);
        a.swap_with_slice(b);
    }

    /// Swaps rows `i1` and `i2`.
    pub fn swap_rows(&mut self, i1: usize, i2: usize) {
        if i1 == i2 {
            return;
        }
        let m = self.nrows;
        for j in 0..self.ncols {
            self.data.swap(j * m + i1, j * m + i2);
        }
    }

    /// Returns the transpose.
    pub fn transpose(&self) -> Matrix {
        let mut t = Matrix::zeros(self.ncols, self.nrows);
        for j in 0..self.ncols {
            let c = self.col(j);
            for i in 0..self.nrows {
                t.data[i * self.ncols + j] = c[i];
            }
        }
        t
    }

    /// Transposes a square matrix in its own buffer.
    pub fn transpose_in_place(&mut self) {
        assert!(
            self.is_square(),
            "in-place transpose of a non-square matrix"
        );
        let n = self.nrows;
        for j in 0..n {
            for i in j + 1..n {
                self.data.swap(j * n + i, i * n + j);
            }
        }
    }

    /// Copies `src` into `self` (shapes must match).
    pub fn copy_from(&mut self, src: &Matrix) {
        assert_eq!(self.nrows, src.nrows);
        assert_eq!(self.ncols, src.ncols);
        self.data.copy_from_slice(&src.data);
    }

    /// Sets every element to `v`.
    pub fn fill(&mut self, v: f64) {
        self.data.fill(v);
    }

    /// Multiplies every element by `alpha`.
    pub fn scale(&mut self, alpha: f64) {
        for x in &mut self.data {
            *x *= alpha;
        }
    }

    /// `self += alpha * other` (shapes must match).
    pub fn axpy(&mut self, alpha: f64, other: &Matrix) {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        for (x, &y) in self.data.iter_mut().zip(other.data.iter()) {
            *x += alpha * y;
        }
    }

    /// Main diagonal as a vector (length `min(nrows, ncols)`).
    pub fn diag(&self) -> Vec<f64> {
        let k = self.nrows.min(self.ncols);
        (0..k).map(|i| self[(i, i)]).collect()
    }

    /// Frobenius norm.
    pub fn norm_fro(&self) -> f64 {
        // Two-pass scaled sum to avoid overflow on the graded matrices DQMC
        // produces (elements spanning hundreds of orders of magnitude).
        let amax = self.max_abs();
        if amax == 0.0 || !amax.is_finite() {
            return amax;
        }
        let mut s = 0.0;
        for &x in &self.data {
            let t = x / amax;
            s += t * t;
        }
        amax * s.sqrt()
    }

    /// Largest absolute element (0 for empty matrices).
    pub fn max_abs(&self) -> f64 {
        self.data.iter().fold(0.0f64, |m, &x| m.max(x.abs()))
    }

    /// Extracts the contiguous sub-matrix with rows `r0..r0+nr`, cols `c0..c0+nc`.
    pub fn submatrix(&self, r0: usize, c0: usize, nr: usize, nc: usize) -> Matrix {
        assert!(r0 + nr <= self.nrows && c0 + nc <= self.ncols);
        Matrix::from_fn(nr, nc, |i, j| self[(r0 + i, c0 + j)])
    }

    /// Writes `block` into `self` at offset `(r0, c0)`.
    pub fn set_submatrix(&mut self, r0: usize, c0: usize, block: &Matrix) {
        assert!(r0 + block.nrows <= self.nrows && c0 + block.ncols <= self.ncols);
        for j in 0..block.ncols {
            let src = block.col(j);
            let dst = &mut self.col_mut(c0 + j)[r0..r0 + block.nrows];
            dst.copy_from_slice(src);
        }
    }

    /// Maximum absolute element-wise difference to `other`.
    pub fn max_abs_diff(&self, other: &Matrix) -> f64 {
        assert_eq!(self.nrows, other.nrows);
        assert_eq!(self.ncols, other.ncols);
        self.data
            .iter()
            .zip(other.data.iter())
            .fold(0.0f64, |m, (&a, &b)| m.max((a - b).abs()))
    }

    /// Random matrix with i.i.d. uniform `[-1, 1)` entries (for tests/benches).
    pub fn random(nrows: usize, ncols: usize, rng: &mut util::Rng) -> Matrix {
        Matrix::from_fn(nrows, ncols, |_, _| 2.0 * rng.next_f64() - 1.0)
    }

    /// Consumes the matrix, returning the column-major buffer.
    pub fn into_vec(self) -> Vec<f64> {
        self.data
    }
}

/// A sub-block as `(first row, first column, rows, columns)`.
pub(crate) type Block = (usize, usize, usize, usize);

/// Read-only view of a sub-block of a column-major buffer: column `j` starts
/// `j * ld` elements past the block's first element. The blocked kernels take
/// their operands in this form so a factorization can update a trailing
/// block in place instead of copying it out and back.
#[derive(Clone, Copy)]
pub(crate) struct View<'a> {
    ptr: *const f64,
    rows: usize,
    cols: usize,
    ld: usize,
    _borrow: PhantomData<&'a [f64]>,
}

// SAFETY: a View is a shared borrow of `f64`s (the lifetime ties it to the
// owning buffer) and offers reads only, exactly like `&[f64]`.
unsafe impl Send for View<'_> {}
// SAFETY: as above; sharing a View shares read access only.
unsafe impl Sync for View<'_> {}

/// Mutable counterpart of [`View`]: a view whose pointer came from an
/// exclusive borrow, so it may be written through. [`ViewMut::split`] is the
/// one way to hold a writable block and readable blocks of the same buffer
/// at once, and it checks that they are disjoint.
pub(crate) struct ViewMut<'a> {
    block: View<'a>,
    _borrow: PhantomData<&'a mut [f64]>,
}

/// A block handed out piecewise to the chunks of one [`crate::team`] job:
/// shareable across threads, and each chunk carves its own writable column
/// range out of it.
#[derive(Clone, Copy)]
pub(crate) struct Shards<'a> {
    block: View<'a>,
    _borrow: PhantomData<&'a mut [f64]>,
}

impl Shards<'_> {
    /// Columns `c0..c0 + nc` of the block, writable.
    ///
    /// # Safety
    /// Views taken from one `Shards` that are alive at the same time must
    /// cover disjoint column ranges.
    #[inline]
    pub(crate) unsafe fn cols(&self, c0: usize, nc: usize) -> ViewMut<'_> {
        ViewMut {
            block: self.block.sub((0, c0, self.block.rows, nc)),
            _borrow: PhantomData,
        }
    }
}

impl Matrix {
    /// The whole matrix as a [`View`].
    #[inline]
    pub(crate) fn view(&self) -> View<'_> {
        View {
            ptr: self.data.as_ptr(),
            rows: self.nrows,
            cols: self.ncols,
            ld: self.nrows,
            _borrow: PhantomData,
        }
    }

    /// The whole matrix as a [`ViewMut`].
    #[inline]
    pub(crate) fn view_mut(&mut self) -> ViewMut<'_> {
        let ptr = self.data.as_mut_ptr();
        ViewMut {
            block: View { ptr, ..self.view() },
            _borrow: PhantomData,
        }
    }

    /// The buffer read as a `rows × cols` matrix: a reshape, no copy.
    #[inline]
    pub(crate) fn view_as(&self, rows: usize, cols: usize) -> View<'_> {
        assert_eq!(rows * cols, self.data.len(), "reshape changes the length");
        View {
            rows,
            cols,
            ld: rows,
            ..self.view()
        }
    }

    /// [`Matrix::view_as`], writable.
    #[inline]
    pub(crate) fn view_mut_as(&mut self, rows: usize, cols: usize) -> ViewMut<'_> {
        assert_eq!(rows * cols, self.data.len(), "reshape changes the length");
        ViewMut::of_columns(&mut self.data, rows)
    }
}

impl<'a> View<'a> {
    #[inline]
    pub(crate) fn nrows(&self) -> usize {
        self.rows
    }

    #[inline]
    pub(crate) fn ncols(&self) -> usize {
        self.cols
    }

    /// The `nr × nc` sub-block starting at `(r0, c0)`.
    #[inline]
    pub(crate) fn sub(self, (r0, c0, nr, nc): Block) -> View<'a> {
        assert!(
            r0 + nr <= self.rows && c0 + nc <= self.cols,
            "view out of bounds"
        );
        // An empty block has no first element (its corner may lie past the
        // buffer, e.g. rows 32.. of an m×0 matrix): it keeps this view's
        // pointer and is never dereferenced.
        let offset = if nr == 0 || nc == 0 {
            0
        } else {
            c0 * self.ld + r0
        };
        // SAFETY: a non-empty block inside this view (asserted above) has
        // r0 < rows and c0 < cols, so the offset addresses an element of the
        // borrowed buffer.
        let ptr = unsafe { self.ptr.add(offset) };
        View {
            ptr,
            rows: nr,
            cols: nc,
            ..self
        }
    }

    /// Column `j` of the block as a slice.
    #[inline]
    pub(crate) fn col(&self, j: usize) -> &'a [f64] {
        assert!(j < self.cols, "view column out of bounds");
        // SAFETY: j < cols, so the `rows` elements from j*ld lie inside the
        // buffer this view borrows for 'a; no ViewMut overlaps them (split
        // checks disjointness).
        unsafe { std::slice::from_raw_parts(self.ptr.add(j * self.ld), self.rows) }
    }

    /// Unchecked element read (bounds checked only in debug builds).
    ///
    /// # Safety
    /// `i < nrows` and `j < ncols` must hold.
    #[inline(always)]
    pub(crate) unsafe fn get_unchecked(&self, i: usize, j: usize) -> f64 {
        debug_assert!(i < self.rows && j < self.cols);
        // SAFETY: the caller guarantees i < rows and j < cols, so j*ld + i
        // addresses an element of the borrowed block.
        unsafe { *self.ptr.add(j * self.ld + i) }
    }
}

impl<'a> ViewMut<'a> {
    /// `buf` as a matrix of `rows`-element columns — the packed GEMM
    /// operands, whose micro-panels are such columns.
    #[inline]
    pub(crate) fn of_columns(buf: &'a mut [f64], rows: usize) -> ViewMut<'a> {
        assert!(
            rows > 0 && buf.len().is_multiple_of(rows),
            "ragged column buffer"
        );
        ViewMut {
            block: View {
                ptr: buf.as_mut_ptr(),
                rows,
                cols: buf.len() / rows,
                ld: rows,
                _borrow: PhantomData,
            },
            _borrow: PhantomData,
        }
    }

    /// The block as [`Shards`]: exclusive for as long as the shards live.
    #[inline]
    pub(crate) fn shards(&mut self) -> Shards<'_> {
        Shards {
            block: self.block,
            _borrow: PhantomData,
        }
    }
}

impl ViewMut<'_> {
    #[inline]
    pub(crate) fn nrows(&self) -> usize {
        self.block.rows
    }

    #[inline]
    pub(crate) fn ncols(&self) -> usize {
        self.block.cols
    }

    /// Leading dimension: the distance between the starts of two columns.
    #[inline]
    pub(crate) fn ld(&self) -> usize {
        self.block.ld
    }

    /// Pointer to the block's first element, for the GEMM tile writers.
    #[inline]
    pub(crate) fn as_mut_ptr(&mut self) -> *mut f64 {
        self.block.ptr.cast_mut()
    }

    /// Reborrows the whole block read-only.
    #[inline]
    pub(crate) fn as_view(&self) -> View<'_> {
        self.block
    }

    /// Reborrows the whole block writable.
    #[inline]
    pub(crate) fn reborrow(&mut self) -> ViewMut<'_> {
        ViewMut {
            block: self.block,
            _borrow: PhantomData,
        }
    }

    /// The `nr × nc` sub-block starting at `(r0, c0)`, writable.
    #[inline]
    pub(crate) fn sub(&mut self, block: Block) -> ViewMut<'_> {
        self.split(block, []).0
    }

    /// One writable block `w` and `K` readable blocks `r` of the same buffer.
    /// Panics unless every block is in bounds and no `r` overlaps `w`.
    pub(crate) fn split<const K: usize>(
        &mut self,
        w: Block,
        r: [Block; K],
    ) -> (ViewMut<'_>, [View<'_>; K]) {
        let (r0, c0, nr, nc) = w;
        for &(s0, d0, ns, nd) in &r {
            let rows_meet = s0 < r0 + nr && r0 < s0 + ns;
            let cols_meet = d0 < c0 + nc && c0 < d0 + nd;
            assert!(
                !(rows_meet && cols_meet),
                "split: read block overlaps write block"
            );
        }
        // The read views cover no element of `w` (asserted above) and every
        // borrow of `self` ends with them, so no `&mut` ever aliases a `&`.
        let wv = ViewMut {
            block: self.block.sub(w),
            _borrow: PhantomData,
        };
        (wv, r.map(|b| self.block.sub(b)))
    }

    /// Calls `f` on the block's elements as the fewest contiguous runs: its
    /// columns, or the whole block at once when they are adjacent in memory
    /// (`ld == rows`) — one memset for GEMM's `beta = 0` instead of `n`.
    pub(crate) fn for_each_run(&mut self, mut f: impl FnMut(&mut [f64])) {
        let View {
            ptr,
            rows,
            cols,
            ld,
            ..
        } = self.block;
        let (runs, len) = if ld == rows {
            (cols.min(1), rows * cols)
        } else {
            (cols, rows)
        };
        for j in 0..runs {
            // SAFETY: run j starts at column j and covers that column, or —
            // columns being adjacent — all of them; either way elements of
            // the block this view borrows exclusively.
            f(unsafe { std::slice::from_raw_parts_mut(ptr.cast_mut().add(j * ld), len) });
        }
    }

    /// Column `j` of the block as a mutable slice.
    #[inline]
    pub(crate) fn col_mut(&mut self, j: usize) -> &mut [f64] {
        let View {
            ptr,
            rows,
            cols,
            ld,
            ..
        } = self.block;
        assert!(j < cols, "view column out of bounds");
        // SAFETY: column j lies inside the block, which this view borrows
        // exclusively through a pointer that may be written.
        unsafe { std::slice::from_raw_parts_mut(ptr.cast_mut().add(j * ld), rows) }
    }
}

impl Index<(usize, usize)> for Matrix {
    type Output = f64;
    #[inline]
    fn index(&self, (i, j): (usize, usize)) -> &f64 {
        assert!(
            i < self.nrows && j < self.ncols,
            "index ({i},{j}) out of bounds"
        );
        &self.data[j * self.nrows + i]
    }
}

impl IndexMut<(usize, usize)> for Matrix {
    #[inline]
    fn index_mut(&mut self, (i, j): (usize, usize)) -> &mut f64 {
        assert!(
            i < self.nrows && j < self.ncols,
            "index ({i},{j}) out of bounds"
        );
        &mut self.data[j * self.nrows + i]
    }
}

impl fmt::Debug for Matrix {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "Matrix {}x{} [", self.nrows, self.ncols)?;
        let show_r = self.nrows.min(8);
        let show_c = self.ncols.min(8);
        for i in 0..show_r {
            write!(f, "  ")?;
            for j in 0..show_c {
                write!(f, "{:>12.5e} ", self[(i, j)])?;
            }
            if show_c < self.ncols {
                write!(f, "...")?;
            }
            writeln!(f)?;
        }
        if show_r < self.nrows {
            writeln!(f, "  ...")?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn construction_and_indexing() {
        let a = Matrix::from_fn(3, 2, |i, j| (i * 10 + j) as f64);
        assert_eq!(a[(0, 0)], 0.0);
        assert_eq!(a[(2, 1)], 21.0);
        assert_eq!(a.col(1), &[1.0, 11.0, 21.0]);
    }

    #[test]
    fn column_major_layout() {
        let a = Matrix::from_fn(2, 2, |i, j| (i + 2 * j) as f64);
        assert_eq!(a.as_slice(), &[0.0, 1.0, 2.0, 3.0]);
    }

    #[test]
    fn identity_and_diag() {
        let i3 = Matrix::identity(3);
        assert_eq!(i3.diag(), vec![1.0, 1.0, 1.0]);
        assert_eq!(i3[(0, 1)], 0.0);
        let d = Matrix::from_diag(&[2.0, 3.0]);
        assert_eq!(d[(0, 0)], 2.0);
        assert_eq!(d[(1, 0)], 0.0);
    }

    #[test]
    fn transpose_round_trip() {
        let mut rng = util::Rng::new(3);
        let a = Matrix::random(5, 7, &mut rng);
        let att = a.transpose().transpose();
        assert_eq!(a, att);
        assert_eq!(a.transpose()[(2, 4)], a[(4, 2)]);
        let b = Matrix::random(6, 6, &mut rng);
        let mut bt = b.clone();
        bt.transpose_in_place();
        assert_eq!(bt, b.transpose());
    }

    #[test]
    fn swap_cols_and_rows() {
        let mut a = Matrix::from_fn(2, 3, |i, j| (10 * i + j) as f64);
        a.swap_cols(0, 2);
        assert_eq!(a[(0, 0)], 2.0);
        assert_eq!(a[(0, 2)], 0.0);
        a.swap_rows(0, 1);
        assert_eq!(a[(0, 0)], 12.0);
        // self-swap is a no-op
        let b = a.clone();
        a.swap_cols(1, 1);
        a.swap_rows(0, 0);
        assert_eq!(a, b);
    }

    #[test]
    fn two_cols_mut_order() {
        let mut a = Matrix::from_fn(2, 3, |i, j| (i + 10 * j) as f64);
        {
            let (c2, c0) = a.two_cols_mut(2, 0);
            assert_eq!(c2, &[20.0, 21.0]);
            assert_eq!(c0, &[0.0, 1.0]);
        }
        let (c0, c2) = a.two_cols_mut(0, 2);
        assert_eq!(c0, &[0.0, 1.0]);
        assert_eq!(c2, &[20.0, 21.0]);
    }

    #[test]
    fn norms() {
        let a = Matrix::from_col_major(2, 2, vec![3.0, 4.0, 0.0, 0.0]);
        assert!((a.norm_fro() - 5.0).abs() < 1e-15);
        assert_eq!(a.max_abs(), 4.0);
        assert_eq!(Matrix::zeros(2, 2).norm_fro(), 0.0);
    }

    #[test]
    fn norm_fro_graded_no_overflow() {
        // Elements around 1e200: naive sum of squares would overflow.
        let a = Matrix::from_diag(&[1e200, 1e-200, 1.0]);
        assert!((a.norm_fro() / 1e200 - 1.0).abs() < 1e-12);
    }

    #[test]
    fn submatrix_and_set() {
        let a = Matrix::from_fn(4, 4, |i, j| (i * 4 + j) as f64);
        let s = a.submatrix(1, 2, 2, 2);
        assert_eq!(s[(0, 0)], a[(1, 2)]);
        assert_eq!(s[(1, 1)], a[(2, 3)]);
        let mut b = Matrix::zeros(4, 4);
        b.set_submatrix(1, 2, &s);
        assert_eq!(b[(1, 2)], a[(1, 2)]);
        assert_eq!(b[(0, 0)], 0.0);
    }

    #[test]
    fn axpy_and_scale() {
        let mut a = Matrix::identity(2);
        let b = Matrix::identity(2);
        a.axpy(2.0, &b);
        assert_eq!(a[(0, 0)], 3.0);
        a.scale(0.5);
        assert_eq!(a[(1, 1)], 1.5);
        assert_eq!(a[(0, 1)], 0.0);
    }

    #[test]
    fn empty_sub_block_keeps_the_view_pointer() {
        // Rows 32.. of a 40×0 matrix and the far corner of a sub-view with
        // ld > rows both have corners past the buffer: no offset is taken.
        let mut empty = Matrix::zeros(40, 0);
        let base = empty.view().ptr;
        assert_eq!(empty.view().sub((32, 0, 8, 0)).ptr, base);
        let w = empty.view_mut().sub((32, 0, 8, 0)).as_mut_ptr();
        assert_eq!(w.cast_const(), base);
        let a = Matrix::zeros(6, 6);
        let inner = a.view().sub((4, 4, 2, 2));
        assert_eq!(inner.sub((2, 2, 0, 0)).ptr, inner.ptr);
        assert_eq!(inner.sub((1, 1, 1, 1)).ptr, a.view().sub((5, 5, 1, 1)).ptr);
    }

    #[test]
    #[should_panic(expected = "out of bounds")]
    fn index_out_of_bounds_panics() {
        let a = Matrix::zeros(2, 2);
        let _ = a[(2, 0)];
    }

    #[test]
    #[should_panic(expected = "buffer length")]
    fn from_col_major_checks_len() {
        let _ = Matrix::from_col_major(2, 2, vec![1.0; 3]);
    }
}
