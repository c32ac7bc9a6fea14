//! Level-1 vector kernels (ddot / daxpy / dscal / dnrm2 / dswap analogues).
//!
//! These are the scalar building blocks of the factorizations, written as
//! straightforward loops over slices. Their cost is *not* negligible next to
//! the level-3 work: the QR leaves and the whole QRP panel are
//! single-accumulator `s += v[i] * c[i]` chains, which the compiler cannot
//! vectorise without reassociating the sum, and [`nrm2`] divides once per
//! element. Routing those chains through a multi-accumulator FMA [`dot`] /
//! [`axpy`] is ROADMAP item 3, sized at N = 256 (PR 16: `qr_in_place`
//! 1.78 → 1.34 ms, `qrp_in_place` 4.17 → 2.61 ms on the FMA tile). It is
//! *not* the lever at N = 36: prototyped in the QR panel loop when PR 22
//! resized the panels, `qr_in_place` moved 22.3 → 20.7 µs, against 22.7 →
//! 11.5 µs from the panel widths alone. What did show there is [`nrm2`]: a
//! sum-of-squares fast path with the scaled loop as the overflow fallback
//! read `qr_in_place` 13.9 → 11.9 µs and `qrp_in_place` 31.5 → 26.1 µs at
//! n = 36 — left for item 3 with the rest of level 1, since each of these
//! changes the summation order and therefore every `obs_fnv`.

use crate::simd::axpy_unfused;

/// Dot product `xᵀy`.
#[inline]
pub fn dot(x: &[f64], y: &[f64]) -> f64 {
    assert_eq!(x.len(), y.len());
    // Four-way unrolled accumulation: better ILP and reproducible results.
    let mut acc = [0.0f64; 4];
    let chunks = x.len() / 4;
    for k in 0..chunks {
        let i = 4 * k;
        acc[0] += x[i] * y[i];
        acc[1] += x[i + 1] * y[i + 1];
        acc[2] += x[i + 2] * y[i + 2];
        acc[3] += x[i + 3] * y[i + 3];
    }
    let mut s = (acc[0] + acc[1]) + (acc[2] + acc[3]);
    for i in 4 * chunks..x.len() {
        s += x[i] * y[i];
    }
    s
}

/// `y += alpha * x`, a multiply and an add per element (never fused), at
/// the widest vector width the kernel path allows; every path gives the
/// portable loop's bits ([`crate::simd`]).
pub fn axpy(alpha: f64, x: &[f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    if alpha == 0.0 {
        return;
    }
    axpy_unfused(alpha, x, y);
}

/// `x *= alpha`.
#[inline]
pub fn scal(alpha: f64, x: &mut [f64]) {
    for xi in x.iter_mut() {
        *xi *= alpha;
    }
}

/// Euclidean norm, computed with scaling to avoid overflow/underflow
/// (the graded DQMC matrices have columns spanning ~1e±150).
pub fn nrm2(x: &[f64]) -> f64 {
    let mut scale = 0.0f64;
    let mut ssq = 1.0f64;
    for &xi in x {
        if xi != 0.0 {
            let a = xi.abs();
            if scale < a {
                let r = scale / a;
                ssq = 1.0 + ssq * r * r;
                scale = a;
            } else {
                let r = a / scale;
                ssq += r * r;
            }
        }
    }
    scale * ssq.sqrt()
}

/// Swaps the contents of two equal-length slices.
pub fn swap(x: &mut [f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len());
    x.swap_with_slice(y);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn dot_known() {
        assert_eq!(dot(&[1.0, 2.0, 3.0], &[4.0, 5.0, 6.0]), 32.0);
        assert_eq!(dot(&[], &[]), 0.0);
        // length > 4 exercises the unrolled path + remainder
        let x: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let y = vec![1.0; 9];
        assert_eq!(dot(&x, &y), 45.0);
    }

    #[test]
    fn axpy_basic() {
        let x = [1.0, 2.0];
        let mut y = [10.0, 20.0];
        axpy(2.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
        axpy(0.0, &x, &mut y);
        assert_eq!(y, [12.0, 24.0]);
    }

    #[test]
    fn scal_basic() {
        let mut x = [1.0, -2.0, 3.0];
        scal(-2.0, &mut x);
        assert_eq!(x, [-2.0, 4.0, -6.0]);
    }

    #[test]
    fn nrm2_pythagorean() {
        assert!((nrm2(&[3.0, 4.0]) - 5.0).abs() < 1e-15);
        assert_eq!(nrm2(&[]), 0.0);
        assert_eq!(nrm2(&[0.0, 0.0]), 0.0);
    }

    #[test]
    fn nrm2_extreme_scales() {
        // Would overflow with naive sum of squares.
        let big = nrm2(&[1e200, 1e200]);
        assert!((big / (1e200 * 2.0f64.sqrt()) - 1.0).abs() < 1e-12);
        // Would underflow to 0 naively.
        let small = nrm2(&[1e-200, 1e-200]);
        assert!((small / (1e-200 * 2.0f64.sqrt()) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn swap_exchanges_contents() {
        let mut a = [1.0, 2.0];
        let mut b = [3.0, 4.0];
        swap(&mut a, &mut b);
        assert_eq!((a, b), ([3.0, 4.0], [1.0, 2.0]));
    }
}
