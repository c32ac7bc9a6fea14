//! Property-based tests for the utility crate.

use proptest::prelude::*;
use util::stats::{quantile_sorted, FiveNumber};
use util::{jackknife_mean, BinnedAccumulator, Rng, RunningStats};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(60))]

    #[test]
    fn running_stats_match_direct_formulas(xs in proptest::collection::vec(-1e3f64..1e3, 2..200)) {
        let mut s = RunningStats::new();
        for &x in &xs {
            s.push(x);
        }
        let n = xs.len() as f64;
        let mean = xs.iter().sum::<f64>() / n;
        let var = xs.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / (n - 1.0);
        prop_assert!((s.mean() - mean).abs() < 1e-8 * mean.abs().max(1.0));
        prop_assert!((s.variance() - var).abs() < 1e-6 * var.max(1.0));
        prop_assert_eq!(s.count(), xs.len() as u64);
    }

    #[test]
    fn merge_equals_sequential(
        xs in proptest::collection::vec(-1e2f64..1e2, 1..100),
        split in 0usize..100,
    ) {
        let cut = split % xs.len();
        let mut whole = RunningStats::new();
        for &x in &xs {
            whole.push(x);
        }
        let mut a = RunningStats::new();
        let mut b = RunningStats::new();
        for &x in &xs[..cut] {
            a.push(x);
        }
        for &x in &xs[cut..] {
            b.push(x);
        }
        a.merge(&b);
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-9);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-7);
    }

    #[test]
    fn binned_mean_equals_plain_mean_on_complete_bins(
        xs in proptest::collection::vec(-1e2f64..1e2, 1..50),
        bin in 1usize..8,
    ) {
        let mut acc = BinnedAccumulator::new(bin);
        // Truncate to a whole number of bins so means agree exactly.
        let keep = (xs.len() / bin) * bin;
        prop_assume!(keep > 0);
        for &x in &xs[..keep] {
            acc.push(x);
        }
        let (mean, err) = jackknife_mean(acc.bins());
        let direct = xs[..keep].iter().sum::<f64>() / keep as f64;
        prop_assert!((mean - direct).abs() < 1e-9);
        prop_assert!(err >= 0.0);
    }

    #[test]
    fn five_number_is_ordered_and_bounded(xs in proptest::collection::vec(-1e3f64..1e3, 1..100)) {
        let f = FiveNumber::from_samples(&xs);
        prop_assert!(f.min <= f.q1 + 1e-12);
        prop_assert!(f.q1 <= f.median + 1e-12);
        prop_assert!(f.median <= f.q3 + 1e-12);
        prop_assert!(f.q3 <= f.max + 1e-12);
        let lo = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(f.min, lo);
        prop_assert_eq!(f.max, hi);
    }

    #[test]
    fn quantiles_interpolate_monotonically(
        xs in proptest::collection::vec(-1e3f64..1e3, 2..50),
        q1 in 0.0f64..1.0,
        q2 in 0.0f64..1.0,
    ) {
        let mut v = xs;
        v.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let (lo, hi) = if q1 <= q2 { (q1, q2) } else { (q2, q1) };
        prop_assert!(quantile_sorted(&v, lo) <= quantile_sorted(&v, hi) + 1e-12);
    }

    #[test]
    fn rng_range_always_in_bounds(seed in 0u64..10_000, n in 1u64..1000) {
        let mut rng = Rng::new(seed);
        for _ in 0..100 {
            prop_assert!(rng.next_range(n) < n);
        }
    }

    #[test]
    fn rng_split_streams_decorrelated(seed in 0u64..10_000) {
        let mut parent = Rng::new(seed);
        let mut a = parent.split();
        let mut b = parent.split();
        let matches = (0..32).filter(|_| a.next_u64() == b.next_u64()).count();
        prop_assert!(matches < 2);
    }

    #[test]
    fn pooled_bins_are_order_independent(
        seed in 0u64..10_000,
        nchains in 2usize..6,
        rot in 0usize..6,
    ) {
        // Chain pooling in the sweep harness: merging per-chain accumulators
        // must give statistics independent of completion order. Bin means
        // themselves are permuted (merge concatenates), so the pooled
        // mean/error — symmetric functions of the bins — are what must
        // agree, and the bin multisets must be exact permutations.
        let mut chains: Vec<BinnedAccumulator> = Vec::new();
        let mut rng = Rng::new(seed);
        for _ in 0..nchains {
            let mut acc = BinnedAccumulator::new(3);
            for _ in 0..30 {
                acc.push(rng.next_f64() - 0.5);
            }
            chains.push(acc);
        }
        let pool = |order: &[usize]| {
            let mut merged = BinnedAccumulator::new(3);
            for &i in order {
                merged.merge(&chains[i]);
            }
            merged
        };
        let fwd: Vec<usize> = (0..nchains).collect();
        let rotated: Vec<usize> = (0..nchains).map(|i| (i + rot) % nchains).collect();
        let mut reversed = fwd.clone();
        reversed.reverse();
        let base = pool(&fwd);
        let (m0, e0) = jackknife_mean(base.bins());
        for order in [&rotated, &reversed] {
            let alt = pool(order);
            let (m, e) = jackknife_mean(alt.bins());
            prop_assert!((m - m0).abs() <= 1e-12 * m0.abs().max(1.0), "{} vs {}", m, m0);
            prop_assert!((e - e0).abs() <= 1e-12 * e0.abs().max(1.0), "{} vs {}", e, e0);
            let mut a: Vec<f64> = base.bins().to_vec();
            let mut b: Vec<f64> = alt.bins().to_vec();
            a.sort_by(|x, y| x.partial_cmp(y).unwrap());
            b.sort_by(|x, y| x.partial_cmp(y).unwrap());
            prop_assert_eq!(a, b);
        }
    }
}
