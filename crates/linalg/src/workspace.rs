//! Reusable scratch-buffer arena for the kernel hot paths.
//!
//! The blocked GEMM packs its operands into panel buffers, the blocked QR
//! materialises V/T/W panels, and the pivoted QR builds an auxiliary F
//! matrix — all of these used to be `vec![…]` allocations made again on
//! every call, inside loops that run `O(N·sweeps)` times over a simulation.
//! The paper's kernels amortise such staging buffers across the entire run
//! (MKL keeps per-thread packing arenas; the GPU path allocates device
//! buffers once); this module gives the Rust kernels the same property.
//!
//! Buffers live in a **thread-local pool**: [`take`] pops (or grows) a
//! buffer, [`put`] returns it. Each call borrows the pool only for the
//! duration of the pop/push, so nested kernels (a QR whose block reflector
//! calls GEMM, which takes its own packing buffers) compose without
//! re-entrancy hazards, and every scheduler worker thread simply owns an
//! independent arena — no locks on the hot path.
//!
//! The pool is bounded (`MAX_POOLED` buffers, largest kept) so pathological
//! call patterns cannot hoard memory. Returned buffers are always
//! **zero-filled** to keep kernel semantics identical to a fresh
//! `vec![0.0; len]` — the memset is O(buffer), negligible against the
//! O(buffer·N) flops every consumer performs on it.
//!
//! This module is a `dqmc-lint` hot module: the only allocation points are
//! the explicitly pardoned one-time growth sites below.

#![cfg_attr(any(), deny_hot_alloc)]

use crate::matrix::Matrix;
use std::cell::RefCell;

/// Upper bound on pooled buffers per thread (beyond this, the smallest is
/// dropped on [`put`]).
const MAX_POOLED: usize = 16;

/// A pool of reusable `f64` buffers. Usually accessed through the
/// thread-local [`take`]/[`put`] free functions; owning one directly is
/// useful for tests and for callers that want deterministic lifetimes.
#[derive(Debug, Default)]
pub struct Workspace {
    pool: Vec<Vec<f64>>,
}

impl Workspace {
    /// An empty arena.
    // dqmc-lint: allow(hot_alloc) — `Vec::new` here is the empty pool
    // constant; it performs no heap allocation.
    pub const fn new() -> Self {
        Workspace { pool: Vec::new() }
    }

    /// Number of buffers currently parked in the pool (test hook).
    pub fn pooled(&self) -> usize {
        self.pool.len()
    }

    /// Takes a zero-filled buffer of exactly `len` elements, reusing pooled
    /// capacity when possible.
    pub fn take(&mut self, len: usize) -> Vec<f64> {
        let mut buf = self.take_scratch(len);
        buf.fill(0.0);
        buf
    }

    /// Takes a buffer of exactly `len` elements whose contents are
    /// unspecified (whatever an earlier user left, zeros where it had to
    /// grow) — for callers that overwrite every element they read, like the
    /// GEMM packing buffers, and so need not pay [`Workspace::take`]'s
    /// memset.
    // dqmc-lint: allow(hot_alloc) — this is the arena's one growth site: a
    // buffer is allocated (or grown) only when no pooled buffer has enough
    // capacity, i.e. O(1) times per (thread, size class) over a whole run.
    pub fn take_scratch(&mut self, len: usize) -> Vec<f64> {
        // Best fit: the smallest pooled buffer whose capacity suffices —
        // keeps big GEMM panels from being burned on tiny requests.
        let mut best: Option<(usize, usize)> = None;
        for (i, b) in self.pool.iter().enumerate() {
            let cap = b.capacity();
            if cap >= len && best.is_none_or(|(_, c)| cap < c) {
                best = Some((i, cap));
            }
        }
        let mut buf = match best {
            Some((i, _)) => self.pool.swap_remove(i),
            // No pooled buffer fits: grow the largest (if any) or start fresh.
            None => self.pool.pop().unwrap_or_default(),
        };
        buf.resize(len, 0.0);
        buf
    }

    /// Returns a buffer to the pool for reuse. When the pool is full the
    /// smallest-capacity buffer is dropped, so the arena converges on the
    /// working set's largest size classes.
    pub fn put(&mut self, buf: Vec<f64>) {
        if buf.capacity() == 0 {
            return;
        }
        self.pool.push(buf);
        if self.pool.len() > MAX_POOLED {
            if let Some(i) = (0..self.pool.len()).min_by_key(|&i| self.pool[i].capacity()) {
                self.pool.swap_remove(i);
            }
        }
    }

    /// Takes a zeroed `nrows × ncols` matrix backed by a pooled buffer.
    pub fn take_matrix(&mut self, nrows: usize, ncols: usize) -> Matrix {
        Matrix::from_col_major(nrows, ncols, self.take(nrows * ncols))
    }

    /// Returns a matrix's backing buffer to the pool.
    pub fn put_matrix(&mut self, m: Matrix) {
        self.put(m.into_vec());
    }
}

thread_local! {
    /// Per-thread arena behind the free-function API.
    static POOL: RefCell<Workspace> = const { RefCell::new(Workspace::new()) };
}

/// Takes a zero-filled buffer of `len` elements from this thread's arena.
///
/// The borrow of the thread-local pool lasts only for the pop itself, so
/// kernels that take buffers and then call other workspace-using kernels
/// nest without restriction.
pub fn take(len: usize) -> Vec<f64> {
    POOL.with(|p| p.borrow_mut().take(len))
}

/// Takes a buffer of `len` elements with unspecified contents from this
/// thread's arena (see [`Workspace::take_scratch`]).
pub fn take_scratch(len: usize) -> Vec<f64> {
    POOL.with(|p| p.borrow_mut().take_scratch(len))
}

/// Returns a buffer to this thread's arena.
pub fn put(buf: Vec<f64>) {
    POOL.with(|p| p.borrow_mut().put(buf));
}

/// Takes a zeroed `nrows × ncols` matrix backed by this thread's arena.
pub fn take_matrix(nrows: usize, ncols: usize) -> Matrix {
    POOL.with(|p| p.borrow_mut().take_matrix(nrows, ncols))
}

/// Returns a matrix's backing buffer to this thread's arena.
pub fn put_matrix(m: Matrix) {
    POOL.with(|p| p.borrow_mut().put_matrix(m));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn take_is_zeroed_even_after_reuse() {
        let mut ws = Workspace::new();
        let mut b = ws.take(8);
        b.iter_mut().for_each(|x| *x = 7.0);
        ws.put(b);
        let b2 = ws.take(8);
        assert_eq!(b2.len(), 8);
        assert!(b2.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn reuses_capacity() {
        let mut ws = Workspace::new();
        let b = ws.take(100);
        let p = b.as_ptr();
        ws.put(b);
        // Smaller request should reuse the same allocation.
        let b2 = ws.take(50);
        assert_eq!(b2.as_ptr(), p);
        assert_eq!(b2.len(), 50);
    }

    #[test]
    fn best_fit_prefers_smallest_adequate() {
        let mut ws = Workspace::new();
        let big = ws.take(1000);
        let small = ws.take(10);
        let big_ptr = big.as_ptr();
        let small_ptr = small.as_ptr();
        ws.put(big);
        ws.put(small);
        let got = ws.take(10);
        assert_eq!(
            got.as_ptr(),
            small_ptr,
            "small request must not burn the big buffer"
        );
        ws.put(got);
        let got = ws.take(500);
        assert_eq!(got.as_ptr(), big_ptr);
    }

    #[test]
    fn pool_is_bounded() {
        let mut ws = Workspace::new();
        let bufs: Vec<_> = (1..=MAX_POOLED + 5).map(|i| ws.take(i * 8)).collect();
        for b in bufs {
            ws.put(b);
        }
        assert!(ws.pooled() <= MAX_POOLED);
        // The largest size classes survive the eviction.
        let caps: Vec<usize> = (0..ws.pooled()).map(|_| ws.take(1).capacity()).collect();
        assert!(caps.iter().all(|&c| c >= 6 * 8));
    }

    #[test]
    fn matrix_round_trip() {
        let mut ws = Workspace::new();
        let mut m = ws.take_matrix(4, 3);
        m[(2, 1)] = 5.0;
        assert_eq!(m.nrows(), 4);
        assert_eq!(m.ncols(), 3);
        ws.put_matrix(m);
        let m2 = ws.take_matrix(3, 4);
        assert!(m2.as_slice().iter().all(|&x| x == 0.0));
    }

    #[test]
    fn thread_local_api_round_trips() {
        let b = take(64);
        assert_eq!(b.len(), 64);
        put(b);
        let m = take_matrix(8, 8);
        put_matrix(m);
    }

    #[test]
    fn empty_buffer_not_pooled() {
        let mut ws = Workspace::new();
        ws.put(Vec::new());
        assert_eq!(ws.pooled(), 0);
    }
}
