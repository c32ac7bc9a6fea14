//! Ensembles: independent Markov chains with pooled measurements.
//!
//! The paper parallelises *inside* the linear algebra because a single
//! Markov chain is inherently sequential. The complementary axis — running
//! several independent chains with different seeds and pooling their
//! measurements — costs no communication at all. This module provides the
//! pooling: each chain is a full walker with its own warmup (so chains are
//! independently thermalised), run as a [`Crowd`] of one after the other on
//! the calling thread, with the accumulated observables merged bin-wise in
//! chain order. Chains run in parallel, and in larger crowds, when the
//! `sched` crate drives them — same seeds, same bytes, since a walker's
//! bytes do not depend on its crowd.

use crate::crowd::Crowd;
use crate::hubbard::SimParams;
use crate::measure::Observables;
use crate::recovery::RecoveryLog;

/// Result of an ensemble run.
#[derive(Debug)]
pub struct EnsembleResult {
    /// Pooled observables across all chains.
    pub observables: Observables,
    /// Per-chain acceptance rates (diagnostics).
    pub acceptance_rates: Vec<f64>,
    /// Largest wrap error seen by any chain.
    pub max_wrap_error: f64,
    /// Per-chain recovery logs, indexed like `acceptance_rates`: what the
    /// fault-tolerance ladder did inside each chain, surfaced so ensemble
    /// runs report healing the same way [`crate::Walker::recovery_log`] does.
    pub recovery_logs: Vec<RecoveryLog>,
}

/// The seed for chain `chain` of grid point `point` under base seed `base`.
///
/// Both [`run_ensemble`] (`point = 0`) and the sweep scheduler (one `point`
/// per grid coordinate) derive chain seeds through this single function, so
/// an ensemble run at a grid point and the scheduler's run of the same point
/// sample identical Markov chains. The hash-split (see
/// [`util::rng::derive_seed`]) is what makes adjacent grid points safe: the
/// old additive `seed + chain` scheme handed chain 1 of seed `s` and chain 0
/// of seed `s + 1` the *same* generator.
pub fn chain_seed(base: u64, point: u64, chain: u64) -> u64 {
    util::rng::derive_seed(base, point, chain)
}

/// Runs `chains` independent simulations with hash-split per-chain seeds
/// (see [`chain_seed`]) and merges their measurements: chain `c` receives
/// [`chain_seed`]`(params.seed, 0, c)` and runs as a crowd of one; the
/// chains merge in chain order.
///
/// Panics if `chains == 0`. Deterministic: the result is a pure function of
/// `(params, chains)`.
pub fn run_ensemble(params: &SimParams, chains: usize) -> EnsembleResult {
    assert!(chains >= 1, "need at least one chain");
    let mut acceptance_rates = Vec::with_capacity(chains);
    let mut recovery_logs = Vec::with_capacity(chains);
    let mut max_wrap_error = 0.0f64;
    let mut observables: Option<Observables> = None;
    for c in 0..chains {
        let seed = chain_seed(params.seed, 0, c as u64);
        let mut crowd = Crowd::new(vec![params.clone().with_seed(seed)]);
        crowd.run();
        for sim in crowd.walkers() {
            match observables.as_mut() {
                None => observables = Some(sim.observables().clone()),
                Some(obs) => obs.merge(sim.observables()),
            }
            acceptance_rates.push(sim.acceptance_rate());
            max_wrap_error = max_wrap_error.max(sim.max_wrap_error());
            recovery_logs.push(sim.recovery_log().clone());
        }
    }
    EnsembleResult {
        observables: observables.expect("chains >= 1"),
        acceptance_rates,
        max_wrap_error,
        recovery_logs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubbard::ModelParams;
    use crate::sim::Simulation;
    use lattice::Lattice;

    fn params() -> SimParams {
        let model = ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 8);
        SimParams::new(model)
            .with_sweeps(10, 20)
            .with_seed(100)
            .with_cluster_size(4)
            .with_bin_size(2)
    }

    #[test]
    fn pools_counts_across_chains() {
        let res = run_ensemble(&params(), 3);
        assert_eq!(res.observables.count(), 60);
        assert_eq!(res.acceptance_rates.len(), 3);
        // Chains differ (different seeds) but all behave.
        for &r in &res.acceptance_rates {
            assert!(r > 0.05 && r < 0.99);
        }
        assert!(res.max_wrap_error < 1e-6);
        // Fault-free chains surface empty (but present) recovery logs.
        assert_eq!(res.recovery_logs.len(), 3);
        assert!(res.recovery_logs.iter().all(|log| log.total() == 0));
    }

    #[test]
    fn chain_seeds_do_not_collide_across_adjacent_base_seeds() {
        // The regression the hash-split fixes: stepping the base seed by one
        // (adjacent grid points, re-submitted campaigns) must not replay any
        // chain of the previous base.
        let mut seen = std::collections::HashSet::new();
        for base in [100u64, 101, 102, 103] {
            for c in 0..4u64 {
                assert!(seen.insert(chain_seed(base, 0, c)), "base {base} chain {c}");
            }
        }
    }

    #[test]
    fn ensemble_is_deterministic() {
        let a = run_ensemble(&params(), 2);
        let b = run_ensemble(&params(), 2);
        let (da, _) = a.observables.double_occupancy();
        let (db, _) = b.observables.double_occupancy();
        assert_eq!(da, db);
    }

    #[test]
    fn merged_mean_is_chain_average() {
        // Pooled estimate equals the bin-weighted average of single chains.
        let p = params();
        let pooled = run_ensemble(&p, 2);
        let solo: Vec<f64> = (0..2)
            .map(|c| {
                let mut sim = Simulation::new(p.clone().with_seed(chain_seed(p.seed, 0, c)));
                sim.run();
                sim.observables().double_occupancy().0
            })
            .collect();
        let (dp, _) = pooled.observables.double_occupancy();
        let avg = (solo[0] + solo[1]) / 2.0;
        // Equal bin counts per chain ⇒ exact average (up to ratio-estimator
        // nonlinearity in the sign, which is exactly 1 at half filling).
        assert!((dp - avg).abs() < 1e-12, "{dp} vs {avg}");
    }

    #[test]
    fn more_chains_tighter_errors() {
        let small = run_ensemble(&params(), 1);
        let big = run_ensemble(&params(), 4);
        let (_, e1) = small.observables.double_occupancy();
        let (_, e4) = big.observables.double_occupancy();
        assert!(
            e4 < e1,
            "4 chains should beat 1 chain statistically: {e4} !< {e1}"
        );
    }
}
