//! The benchmark's own arithmetic: order statistics, the tail-percentile
//! rule, operation and byte counts for the kernel probes, fingerprints.

/// Median of a sample (mean of the two middle values for even `n`). An
/// empty sample — every operation of a pass failed — reads NaN, which the
/// JSON writer turns into `null`: no number is made up for a failed pass.
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

/// First and third quartile as Python's `statistics.quantiles(v, n=4)`
/// gives them (the exclusive method), so that `compare` resolves spreads
/// the way the acceptance check does. A sample of one has no spread.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    if values.is_empty() {
        return (f64::NAN, f64::NAN);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let ld = v.len();
    if ld == 1 {
        return (v[0], v[0]);
    }
    let cut = |i: usize| {
        let j = (i * (ld + 1) / 4).clamp(1, ld - 1);
        let delta = (i * (ld + 1)) as f64 - (j * 4) as f64;
        (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
    };
    (cut(1), cut(3))
}

/// Distance between the quartiles as a share of the median.
pub fn spread(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    (q3 - q1) / median(values).abs()
}

/// The highest whole percentile that still has at least ten samples
/// beyond it, and its nearest-rank value; `None` below 11 samples.
pub fn tail(values: &[f64]) -> Option<(u32, f64)> {
    let n = values.len();
    if n <= 10 {
        return None;
    }
    let pct = tail_percentile(n);
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (pct as usize * n).div_ceil(100).max(1);
    Some((pct, v[rank - 1]))
}

/// `floor(100·(n−10)/n)`: n = 24 → 58, n = 400 → 97.
pub fn tail_percentile(n: usize) -> u32 {
    (100 * n.saturating_sub(10) / n.max(1)) as u32
}

/// A timing sample reduced to what the ledger prints.
#[derive(Clone, Debug, PartialEq)]
pub struct Summary {
    pub median: f64,
    pub q1: f64,
    pub q3: f64,
    /// `(percentile, value)` by the ten-samples-beyond rule.
    pub tail: Option<(u32, f64)>,
    pub n: usize,
}

impl Summary {
    pub fn of(values: &[f64]) -> Summary {
        let (q1, q3) = quartiles(values);
        Summary {
            median: median(values),
            q1,
            q3,
            tail: tail(values),
            n: values.len(),
        }
    }

    /// The same summary in another unit (seconds → milliseconds, …).
    pub fn scaled(&self, k: f64) -> Summary {
        Summary {
            median: self.median * k,
            q1: self.q1 * k,
            q3: self.q3 * k,
            tail: self.tail.map(|(p, v)| (p, v * k)),
            n: self.n,
        }
    }
}

/// Floating-point operations of an `n×n×n` GEMM (computed, not counted).
pub fn flops_gemm(n: usize) -> f64 {
    2.0 * (n as f64).powi(3)
}

/// Operations of an `n×n` Householder QR, pivoted or not.
pub fn flops_qr(n: usize) -> f64 {
    4.0 / 3.0 * (n as f64).powi(3)
}

/// LU factorisation (2/3·n³) plus the solve against `n` right-hand sides
/// (2·n³).
pub fn flops_lu_solve(n: usize) -> f64 {
    8.0 / 3.0 * (n as f64).powi(3)
}

/// Bytes a row-and-column scaling of an `n×n` matrix moves: the matrix is
/// read and written once, the two vectors are read once. Computed from
/// array sizes; cache misses are not in it.
pub fn bytes_row_col_scale(n: usize) -> f64 {
    (2 * n * n + 2 * n) as f64 * 8.0
}

/// Bytes column norms of an `n×n` matrix move: one read of the matrix,
/// one write of the norms.
pub fn bytes_col_norms(n: usize) -> f64 {
    (n * n + n) as f64 * 8.0
}

/// Bytes one STREAM-triad pass over arrays of `len` doubles moves: two
/// reads and one write.
pub fn bytes_triad(len: usize) -> f64 {
    3.0 * len as f64 * 8.0
}

pub fn gflops(flops: f64, seconds: f64) -> f64 {
    flops / seconds / 1e9
}

pub fn gbs(bytes: f64, seconds: f64) -> f64 {
    bytes / seconds / 1e9
}

/// FNV-1a over a byte string: the `obs_fnv` fingerprint.
pub fn fnv(bytes: &[u8]) -> u64 {
    let mut f = util::Fnv1a::new();
    f.update(bytes);
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_quartiles_match_python() {
        // statistics.median / statistics.quantiles(v, n=4) on the same data.
        let v = [3.0, 1.0, 4.0, 1.0, 5.0, 9.0, 2.0, 6.0, 5.0, 3.0];
        assert_eq!(median(&v), 3.5);
        let (q1, q3) = quartiles(&v);
        assert!((q1 - 1.75).abs() < 1e-12 && (q3 - 5.25).abs() < 1e-12);
        assert_eq!(median(&[2.0, 7.0, 4.0]), 4.0);
        assert_eq!(quartiles(&[2.0, 7.0, 4.0]), (2.0, 7.0));
        assert_eq!(quartiles(&[5.0]), (5.0, 5.0));
        assert!((spread(&v) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn tail_rule_keeps_ten_samples_beyond() {
        assert_eq!(tail_percentile(24), 58);
        assert_eq!(tail_percentile(400), 97);
        assert_eq!(tail(&[1.0; 10]), None);
        let v: Vec<f64> = (1..=24).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!((p, x), (58, 14.0));
        assert_eq!(v.iter().filter(|&&y| y > x).count(), 10);
        let v: Vec<f64> = (1..=400).map(f64::from).collect();
        let (p, x) = tail(&v).unwrap();
        assert_eq!(p, 97);
        assert!(v.iter().filter(|&&y| y > x).count() >= 10);
    }

    #[test]
    fn operation_and_byte_counts() {
        assert_eq!(flops_gemm(10), 2000.0);
        assert!((flops_qr(10) - 4000.0 / 3.0).abs() < 1e-9);
        assert!((flops_lu_solve(3) - 72.0).abs() < 1e-9);
        assert_eq!(bytes_row_col_scale(4), (32.0 + 8.0) * 8.0);
        assert_eq!(bytes_col_norms(4), 20.0 * 8.0);
        assert_eq!(bytes_triad(1000), 24000.0);
        assert_eq!(gflops(flops_gemm(256), 0.5), 2.0 * 256f64.powi(3) / 0.5e9);
        assert_eq!(gbs(4e9, 2.0), 2.0);
    }

    #[test]
    fn summary_scales_every_field() {
        let v: Vec<f64> = (1..=24).map(f64::from).collect();
        let s = Summary::of(&v).scaled(1e3);
        assert_eq!(s.median, 12500.0);
        assert_eq!(s.tail, Some((58, 14000.0)));
        assert_eq!(s.n, 24);
    }
}
