//! Statistics for Monte Carlo estimation and benchmark reporting.
//!
//! Three tools cover everything the paper reports:
//!
//! - [`RunningStats`]: numerically-stable (Welford) running mean/variance,
//! - [`BinnedAccumulator`]: bin means for Monte Carlo error bars — successive
//!   sweeps are correlated, so naive standard errors underestimate; binning
//!   into blocks longer than the autocorrelation time fixes that, and
//!   [`jackknife_mean`] / [`jackknife_ratio`] give every error bar from the
//!   bins,
//! - [`FiveNumber`]: min / Q1 / median / Q3 / max summaries, the
//!   box-and-whisker statistic of the paper's Figure 2.

/// Numerically stable running mean and variance (Welford's algorithm).
#[derive(Clone, Debug, Default)]
pub struct RunningStats {
    n: u64,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl RunningStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        RunningStats {
            n: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 if empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 for fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }

    /// Smallest observation (+inf if empty).
    pub fn min(&self) -> f64 {
        self.min
    }

    /// Largest observation (-inf if empty).
    pub fn max(&self) -> f64 {
        self.max
    }

    /// Serializes the accumulator for checkpointing.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        w.put_u64(self.n);
        w.put_f64(self.mean);
        w.put_f64(self.m2);
        w.put_f64(self.min);
        w.put_f64(self.max);
    }

    /// Deserializes an accumulator written by [`RunningStats::encode`].
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> Result<Self, crate::codec::CodecError> {
        Ok(RunningStats {
            n: r.get_u64()?,
            mean: r.get_f64()?,
            m2: r.get_f64()?,
            min: r.get_f64()?,
            max: r.get_f64()?,
        })
    }

    /// Merges another accumulator into this one (parallel reduction).
    pub fn merge(&mut self, other: &RunningStats) {
        if other.n == 0 {
            return;
        }
        if self.n == 0 {
            *self = other.clone();
            return;
        }
        let n = self.n + other.n;
        let delta = other.mean - self.mean;
        let mean = self.mean + delta * other.n as f64 / n as f64;
        let m2 = self.m2 + other.m2 + delta * delta * self.n as f64 * other.n as f64 / n as f64;
        self.n = n;
        self.mean = mean;
        self.m2 = m2;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }
}

/// Bin-averaged accumulator for correlated Monte Carlo time series.
///
/// Observations are grouped into consecutive bins of `bin_size`; the bin
/// means are treated as (approximately) independent samples, which
/// [`jackknife_mean`] and [`jackknife_ratio`] resample. Incomplete trailing
/// bins are left out of [`BinnedAccumulator::bins`].
#[derive(Clone, Debug)]
pub struct BinnedAccumulator {
    bin_size: usize,
    current_sum: f64,
    current_count: usize,
    bins: Vec<f64>,
}

impl BinnedAccumulator {
    /// Creates an accumulator with the given bin size (≥ 1).
    pub fn new(bin_size: usize) -> Self {
        assert!(bin_size >= 1);
        BinnedAccumulator {
            bin_size,
            current_sum: 0.0,
            current_count: 0,
            bins: Vec::new(),
        }
    }

    /// Adds one (possibly autocorrelated) observation.
    pub fn push(&mut self, x: f64) {
        self.current_sum += x;
        self.current_count += 1;
        if self.current_count == self.bin_size {
            self.bins.push(self.current_sum / self.bin_size as f64);
            self.current_sum = 0.0;
            self.current_count = 0;
        }
    }

    /// Number of complete bins.
    pub fn bin_count(&self) -> usize {
        self.bins.len()
    }

    /// Total number of pushed observations, including the incomplete bin.
    pub fn count(&self) -> usize {
        self.bins.len() * self.bin_size + self.current_count
    }

    /// Serializes the accumulator — bin size, the open partial bin, and every
    /// complete bin mean — for checkpointing.
    pub fn encode(&self, w: &mut crate::codec::ByteWriter) {
        w.put_u64(self.bin_size as u64);
        w.put_f64(self.current_sum);
        w.put_u64(self.current_count as u64);
        w.put_f64_slice(&self.bins);
    }

    /// Deserializes an accumulator written by [`BinnedAccumulator::encode`].
    /// A zero bin size or a partial-bin count at or past the bin size decodes
    /// to [`crate::codec::CodecError::Invalid`] instead of violating the
    /// accumulator's invariants.
    pub fn decode(r: &mut crate::codec::ByteReader<'_>) -> Result<Self, crate::codec::CodecError> {
        let bin_size = r.get_u64()? as usize;
        let current_sum = r.get_f64()?;
        let current_count = r.get_u64()? as usize;
        let bins = r.get_f64_vec()?;
        if bin_size == 0 {
            return Err(crate::codec::CodecError::Invalid(
                "bin size must be >= 1".into(),
            ));
        }
        if current_count >= bin_size {
            return Err(crate::codec::CodecError::Invalid(format!(
                "partial bin holds {current_count} observations but bins close at {bin_size}"
            )));
        }
        Ok(BinnedAccumulator {
            bin_size,
            current_sum,
            current_count,
            bins,
        })
    }

    /// Merges another accumulator's *complete* bins into this one
    /// (independent-chain ensembles; partial bins of `other` are dropped,
    /// and the bin sizes must match so bin means stay comparable).
    pub fn merge(&mut self, other: &BinnedAccumulator) {
        assert_eq!(
            self.bin_size, other.bin_size,
            "cannot merge accumulators with different bin sizes"
        );
        self.bins.extend_from_slice(&other.bins);
    }

    /// The complete bin means, in push order. Resampling estimators
    /// ([`jackknife_mean`], [`jackknife_ratio`]) operate on this view.
    pub fn bins(&self) -> &[f64] {
        &self.bins
    }

    /// The configured bin size.
    pub fn bin_size(&self) -> usize {
        self.bin_size
    }
}

/// Delete-one jackknife estimate of the mean of `bins`: returns
/// `(mean, err)` where `err` is the jackknife standard error
/// `sqrt((n-1)/n · Σᵢ (θ̂ᵢ − θ̄)²)` over the leave-one-out means `θ̂ᵢ`.
///
/// For the plain mean the jackknife error coincides with the classical
/// standard error of the mean — the point of routing even this case through
/// the jackknife is that pooled sweep reports then quote *one* error
/// convention for every observable, linear or ratio. Fewer than two bins
/// yield an error of 0.
pub fn jackknife_mean(bins: &[f64]) -> (f64, f64) {
    let n = bins.len();
    if n == 0 {
        return (0.0, 0.0);
    }
    let total: f64 = bins.iter().sum();
    let mean = total / n as f64;
    if n < 2 {
        return (mean, 0.0);
    }
    let mut sq = 0.0;
    let mut loo_sum = 0.0;
    let nm1 = (n - 1) as f64;
    for &b in bins {
        loo_sum += (total - b) / nm1;
    }
    let loo_mean = loo_sum / n as f64;
    for &b in bins {
        let d = (total - b) / nm1 - loo_mean;
        sq += d * d;
    }
    (mean, (nm1 / n as f64 * sq).sqrt())
}

/// Whether the sign bins `sign` sum to exactly 0 (or there are none): the
/// sign has collapsed, and a sign-weighted ratio over them has no estimate.
pub fn sign_collapsed(sign: &[f64]) -> bool {
    sign.iter().sum::<f64>() == 0.0
}

/// Delete-one jackknife of the ratio estimator `mean(num) / mean(den)` over
/// paired bins — the sign-problem observable estimator: each physical
/// observable is `⟨O·s⟩ / ⟨s⟩`, and the jackknife propagates the (correlated)
/// fluctuations of numerator and denominator through the nonlinearity, which
/// naive error division cannot.
///
/// `num` and `den` must pair up index-wise (bin `i` of both came from the
/// same block of sweeps). Returns `(ratio, err)`; with fewer than two bins
/// the error is 0, and a [`sign_collapsed`] denominator yields `(0, 0)`
/// (no estimate exists). When a delete-one denominator `Σden − den[i]` is
/// exactly 0 (sign bins +1, −1, +1) the error is NaN: the ratio is still
/// returned, but it has no error bar.
pub fn jackknife_ratio(num: &[f64], den: &[f64]) -> (f64, f64) {
    assert_eq!(num.len(), den.len(), "jackknife bins must pair up");
    if sign_collapsed(den) {
        return (0.0, 0.0);
    }
    let n = num.len();
    let sn: f64 = num.iter().sum();
    let sd: f64 = den.iter().sum();
    let ratio = sn / sd;
    if n < 2 {
        return (ratio, 0.0);
    }
    let mut loo_sum = 0.0;
    for i in 0..n {
        loo_sum += (sn - num[i]) / (sd - den[i]);
    }
    let loo_mean = loo_sum / n as f64;
    let mut sq = 0.0;
    for i in 0..n {
        let d = (sn - num[i]) / (sd - den[i]) - loo_mean;
        sq += d * d;
    }
    let nm1 = (n - 1) as f64;
    (ratio, (nm1 / n as f64 * sq).sqrt())
}

/// Five-number summary: the box-and-whisker statistic of the paper's Fig. 2.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct FiveNumber {
    /// Minimum observation.
    pub min: f64,
    /// Lower quartile (Q1).
    pub q1: f64,
    /// Median (Q2).
    pub median: f64,
    /// Upper quartile (Q3).
    pub q3: f64,
    /// Maximum observation.
    pub max: f64,
}

impl FiveNumber {
    /// Computes the summary of a non-empty sample.
    ///
    /// Quartiles use linear interpolation between order statistics
    /// (the "R-7" definition used by most plotting software).
    pub fn from_samples(samples: &[f64]) -> FiveNumber {
        assert!(!samples.is_empty(), "five-number summary of empty sample");
        let mut v: Vec<f64> = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("NaN in sample"));
        FiveNumber {
            min: v[0],
            q1: quantile_sorted(&v, 0.25),
            median: quantile_sorted(&v, 0.5),
            q3: quantile_sorted(&v, 0.75),
            max: v[v.len() - 1],
        }
    }
}

/// Integrated autocorrelation time of a Monte Carlo time series, estimated
/// with the standard self-consistent window (Sokal): sum normalised
/// autocorrelations ρ(t) for `t ≤ c·τ_int` with `c = 6`.
///
/// Returns `τ_int ≥ 0.5` (0.5 = fully independent samples). Used to choose
/// — and to *justify* — the measurement bin size: bins should span several
/// `2 τ_int` sweeps for the binned errors to be trustworthy.
pub fn autocorrelation_time(series: &[f64]) -> f64 {
    let n = series.len();
    if n < 8 {
        return 0.5;
    }
    let mean = series.iter().sum::<f64>() / n as f64;
    let var: f64 = series.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / n as f64;
    if var <= 0.0 {
        return 0.5;
    }
    let rho = |t: usize| -> f64 {
        let mut s = 0.0;
        for i in 0..(n - t) {
            s += (series[i] - mean) * (series[i + t] - mean);
        }
        s / ((n - t) as f64 * var)
    };
    let mut tau = 0.5;
    for t in 1..(n / 2) {
        tau += rho(t);
        // Self-consistent window: stop once t outruns 6·τ_int.
        if (t as f64) >= 6.0 * tau {
            break;
        }
    }
    tau.max(0.5)
}

/// Linear-interpolated quantile of a sorted slice (R-7 definition).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty());
    assert!((0.0..=1.0).contains(&q));
    let n = sorted.len();
    if n == 1 {
        return sorted[0];
    }
    let h = q * (n - 1) as f64;
    let lo = h.floor() as usize;
    let hi = h.ceil() as usize;
    sorted[lo] + (h - lo as f64) * (sorted[hi] - sorted[lo])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_zero_delete_one_sign_sum_leaves_the_ratio_without_an_error() {
        // Sign bins +1, −1, +1: deleting either +1 leaves a sign sum of 0.
        let (ratio, err) = jackknife_ratio(&[2.0, -2.0, 2.0], &[1.0, -1.0, 1.0]);
        assert_eq!(ratio, 2.0);
        assert!(err.is_nan());
    }

    #[test]
    fn running_stats_basic() {
        let mut s = RunningStats::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            s.push(x);
        }
        assert_eq!(s.count(), 8);
        assert!((s.mean() - 5.0).abs() < 1e-12);
        // population variance is 4 → sample variance 32/7
        assert!((s.variance() - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min(), 2.0);
        assert_eq!(s.max(), 9.0);
    }

    #[test]
    fn running_stats_merge_matches_sequential() {
        let xs: Vec<f64> = (0..100).map(|i| (i as f64).sin()).collect();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..37] {
            a.push(x);
        }
        for &x in &xs[37..] {
            b.push(x);
        }
        a.merge(&b);
        assert!((a.mean() - whole.mean()).abs() < 1e-12);
        assert!((a.variance() - whole.variance()).abs() < 1e-12);
        assert_eq!(a.count(), whole.count());
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = RunningStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = (a.count(), a.mean(), a.variance());
        a.merge(&RunningStats::new());
        assert_eq!(before, (a.count(), a.mean(), a.variance()));
    }

    #[test]
    fn binned_mean_matches_plain_mean() {
        let mut acc = BinnedAccumulator::new(5);
        for i in 0..100 {
            acc.push(i as f64);
        }
        let (mean, _) = jackknife_mean(acc.bins());
        assert!((mean - 49.5).abs() < 1e-12);
        assert_eq!(acc.bin_count(), 20);
        assert_eq!(acc.count(), 100);
    }

    #[test]
    fn binning_inflates_error_for_correlated_series() {
        // Strongly correlated series: long plateaus.
        let mut naive = BinnedAccumulator::new(1);
        let mut binned = BinnedAccumulator::new(50);
        let mut rngstate = 1u64;
        let mut level = 0.0;
        for i in 0..5000 {
            if i % 50 == 0 {
                // pseudo-random level change
                rngstate = rngstate.wrapping_mul(6364136223846793005).wrapping_add(1);
                level = (rngstate >> 40) as f64 / (1u64 << 24) as f64;
            }
            naive.push(level);
            binned.push(level);
        }
        let (_, e_naive) = jackknife_mean(naive.bins());
        let (_, e_binned) = jackknife_mean(binned.bins());
        assert!(
            e_binned > 3.0 * e_naive,
            "binned {e_binned} vs naive {e_naive}"
        );
    }

    #[test]
    fn binned_merge_pools_bins() {
        let mut a = BinnedAccumulator::new(2);
        let mut b = BinnedAccumulator::new(2);
        for x in [1.0, 3.0, 5.0, 7.0] {
            a.push(x);
        }
        for x in [9.0, 11.0, 100.0] {
            b.push(x); // the trailing 100.0 is an incomplete bin: dropped
        }
        a.merge(&b);
        assert_eq!(a.bin_count(), 3);
        let (mean, _) = jackknife_mean(a.bins());
        assert!((mean - (2.0 + 6.0 + 10.0) / 3.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "different bin sizes")]
    fn binned_merge_rejects_mismatched_bins() {
        let mut a = BinnedAccumulator::new(2);
        let b = BinnedAccumulator::new(3);
        a.merge(&b);
    }

    #[test]
    fn five_number_of_known_sample() {
        let v = [1.0, 2.0, 3.0, 4.0, 5.0];
        let f = FiveNumber::from_samples(&v);
        assert_eq!(f.min, 1.0);
        assert_eq!(f.q1, 2.0);
        assert_eq!(f.median, 3.0);
        assert_eq!(f.q3, 4.0);
        assert_eq!(f.max, 5.0);
    }

    #[test]
    fn five_number_interpolates() {
        let v = [1.0, 2.0, 3.0, 4.0];
        let f = FiveNumber::from_samples(&v);
        assert!((f.q1 - 1.75).abs() < 1e-12);
        assert!((f.median - 2.5).abs() < 1e-12);
        assert!((f.q3 - 3.25).abs() < 1e-12);
    }

    #[test]
    fn five_number_unsorted_input() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        let f = FiveNumber::from_samples(&v);
        assert_eq!(f.median, 3.0);
    }

    #[test]
    fn autocorrelation_of_independent_series_is_half() {
        // A deterministic low-discrepancy stream behaves as independent.
        let mut state = 1u64;
        let xs: Vec<f64> = (0..4000)
            .map(|_| {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 11) as f64 / (1u64 << 53) as f64
            })
            .collect();
        let tau = autocorrelation_time(&xs);
        assert!((tau - 0.5).abs() < 0.2, "tau = {tau}");
    }

    #[test]
    fn autocorrelation_detects_plateaus() {
        // Series constant over stretches of 20: τ_int ≈ 10 (≈ (ℓ+1)/2).
        let mut state = 7u64;
        let mut xs = Vec::new();
        for _ in 0..300 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let level = (state >> 11) as f64 / (1u64 << 53) as f64;
            xs.extend(std::iter::repeat_n(level, 20));
        }
        let tau = autocorrelation_time(&xs);
        assert!((5.0..20.0).contains(&tau), "tau = {tau}");
    }

    #[test]
    fn autocorrelation_degenerate_inputs() {
        assert_eq!(autocorrelation_time(&[]), 0.5);
        assert_eq!(autocorrelation_time(&[1.0, 2.0]), 0.5);
        assert_eq!(autocorrelation_time(&vec![3.0; 100]), 0.5);
    }

    #[test]
    fn quantile_single_element() {
        assert_eq!(quantile_sorted(&[7.0], 0.25), 7.0);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn five_number_empty_panics() {
        let _ = FiveNumber::from_samples(&[]);
    }

    #[test]
    fn jackknife_mean_matches_classical_error_on_iid_series() {
        // For a plain mean the delete-one jackknife reproduces the classical
        // standard error exactly (algebraic identity, not asymptotics).
        let mut rng = crate::Rng::new(11);
        let xs: Vec<f64> = (0..200).map(|_| rng.next_normal()).collect();
        let (jm, je) = jackknife_mean(&xs);
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let std_err = (s.variance() / xs.len() as f64).sqrt();
        assert!((jm - s.mean()).abs() < 1e-12, "{jm} vs {}", s.mean());
        assert!((je - std_err).abs() < 1e-12 * std_err, "{je} vs {std_err}");
    }

    #[test]
    fn jackknife_mean_error_matches_known_variance() {
        // Unit-variance synthetic series: the error of the mean of n samples
        // must come out near 1/sqrt(n).
        let n = 4096;
        let mut rng = crate::Rng::new(5);
        let xs: Vec<f64> = (0..n).map(|_| rng.next_normal()).collect();
        let (_, err) = jackknife_mean(&xs);
        let expect = 1.0 / (n as f64).sqrt();
        assert!(
            (err - expect).abs() < 0.1 * expect,
            "err {err} vs expected {expect}"
        );
    }

    #[test]
    fn jackknife_ratio_constant_ratio_has_zero_error() {
        // num = c·den bin-wise ⇒ every leave-one-out ratio is exactly c.
        let den = [1.0, 2.0, 0.5, 1.5, 3.0];
        let num: Vec<f64> = den.iter().map(|d| 0.25 * d).collect();
        let (r, e) = jackknife_ratio(&num, &den);
        assert!((r - 0.25).abs() < 1e-15);
        assert!(e < 1e-15);
    }

    #[test]
    fn jackknife_ratio_with_unit_denominator_reduces_to_mean() {
        let num = [0.3, 0.1, 0.4, 0.15, 0.9, 0.2];
        let den = [1.0; 6];
        let (r, e) = jackknife_ratio(&num, &den);
        let (m, me) = jackknife_mean(&num);
        assert!((r - m).abs() < 1e-15);
        assert!((e - me).abs() < 1e-15);
    }

    #[test]
    fn jackknife_degenerate_inputs() {
        assert_eq!(jackknife_mean(&[]), (0.0, 0.0));
        assert_eq!(jackknife_mean(&[2.5]), (2.5, 0.0));
        // A collapsed sign (zero denominator) reports "no estimate", not NaN.
        assert_eq!(jackknife_ratio(&[1.0, -1.0], &[1.0, -1.0]), (0.0, 0.0));
    }

    #[test]
    fn binned_mean_invariant_under_bin_size() {
        // Pushing the same series with different bin sizes must give the
        // same mean whenever the series divides evenly into bins; only the
        // error estimate is allowed to move (that is binning's purpose).
        let mut rng = crate::Rng::new(17);
        let xs: Vec<f64> = (0..240).map(|_| rng.next_f64()).collect();
        let mut means = Vec::new();
        for bin in [1usize, 2, 4, 8] {
            let mut acc = BinnedAccumulator::new(bin);
            for &x in &xs {
                acc.push(x);
            }
            means.push(jackknife_mean(acc.bins()).0);
        }
        for m in &means[1..] {
            assert!((m - means[0]).abs() < 1e-12, "{m} vs {}", means[0]);
        }
    }

    #[test]
    fn bins_view_exposes_complete_bins_only() {
        let mut acc = BinnedAccumulator::new(2);
        for x in [1.0, 3.0, 5.0, 7.0, 9.0] {
            acc.push(x);
        }
        assert_eq!(acc.bins(), &[2.0, 6.0]);
        assert_eq!(acc.bin_size(), 2);
    }
}

#[cfg(test)]
mod shard_merge_props {
    //! Property tests for the fleet-sharding stats contract: splitting a
    //! series across shard accumulators, serialising each, and merging the
    //! decoded copies must be indistinguishable from merging the live
    //! accumulators — and, when splits are bin-aligned, from never having
    //! sharded at all.

    use super::{jackknife_mean, BinnedAccumulator};
    use crate::codec::{ByteReader, ByteWriter};
    use proptest::prelude::*;

    /// Strategy: a sample series, bin size, and shard split points.
    fn series_and_splits() -> impl Strategy<Value = (Vec<f64>, usize, Vec<usize>)> {
        (1usize..=6, 1usize..=5, 0u64..1000).prop_map(|(nshards, bin, seed)| {
            let mut rng = crate::Rng::new(seed);
            let len = 8 + (rng.next_u64() % 120) as usize;
            let xs: Vec<f64> = (0..len).map(|_| rng.next_f64() * 4.0 - 2.0).collect();
            // nshards-1 split points anywhere in the series, sorted.
            let mut cuts: Vec<usize> = (1..nshards)
                .map(|_| (rng.next_u64() % (len as u64 + 1)) as usize)
                .collect();
            cuts.sort_unstable();
            (xs, bin, cuts)
        })
    }

    fn segments<'a>(xs: &'a [f64], cuts: &[usize]) -> Vec<&'a [f64]> {
        let mut out = Vec::with_capacity(cuts.len() + 1);
        let mut start = 0;
        for &c in cuts {
            out.push(&xs[start..c]);
            start = c;
        }
        out.push(&xs[start..]);
        out
    }

    fn accumulate(bin: usize, xs: &[f64]) -> BinnedAccumulator {
        let mut acc = BinnedAccumulator::new(bin);
        for &x in xs {
            acc.push(x);
        }
        acc
    }

    fn round_trip(acc: &BinnedAccumulator) -> BinnedAccumulator {
        let mut w = ByteWriter::new();
        acc.encode(&mut w);
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = BinnedAccumulator::decode(&mut r).expect("round trip");
        assert!(r.is_exhausted(), "codec left trailing bytes");
        back
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]

        #[test]
        fn decoded_shard_merge_equals_live_merge((xs, bin, cuts) in series_and_splits()) {
            let shards: Vec<BinnedAccumulator> =
                segments(&xs, &cuts).iter().map(|s| accumulate(bin, s)).collect();

            let mut live = BinnedAccumulator::new(bin);
            let mut decoded = BinnedAccumulator::new(bin);
            for s in &shards {
                live.merge(s);
                decoded.merge(&round_trip(s));
            }

            // Bit-for-bit equality: the codec may not perturb a single bin,
            // so every downstream estimator agrees exactly.
            prop_assert_eq!(live.bins(), decoded.bins());
            prop_assert_eq!(
                jackknife_mean(live.bins()),
                jackknife_mean(decoded.bins())
            );
        }

        #[test]
        fn bin_aligned_shards_merge_back_to_the_unsharded_bins(
            (xs, bin, cuts) in series_and_splits()
        ) {
            // Align every split to a bin boundary — the fleet invariant: a
            // shard boundary never cuts a measurement bin in half.
            let aligned: Vec<usize> = cuts.iter().map(|c| c - c % bin).collect();
            let mono = accumulate(bin, &xs);
            let mut merged = BinnedAccumulator::new(bin);
            for s in segments(&xs, &aligned) {
                merged.merge(&round_trip(&accumulate(bin, s)));
            }
            prop_assert_eq!(mono.bins(), merged.bins());
            prop_assert_eq!(jackknife_mean(mono.bins()), jackknife_mean(merged.bins()));
        }
    }
}
