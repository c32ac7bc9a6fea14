//! Ensembles: independent Markov chains with pooled measurements.
//!
//! The paper parallelises *inside* the linear algebra because a single
//! Markov chain is inherently sequential. The complementary axis — running
//! several independent chains with different seeds and pooling their
//! measurements — costs no communication at all. This module provides the
//! pooling: each chain is a full walker with its own warmup (so chains are
//! independently thermalised), grouped into [`Crowd`]s that run one after
//! another on the calling thread, with the accumulated observables merged
//! bin-wise in chain order. Chains run in parallel when the `sched` crate
//! drives them — one job per worker thread, same seeds, same bytes.

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
/// (see [`chain_seed`]) and merges their measurements:
/// [`run_ensemble_crowd`] with crowds of one.
///
/// Panics if `chains == 0`. Deterministic: the result is a pure function of
/// `(params, chains)`.
pub fn run_ensemble(params: &SimParams, chains: usize) -> EnsembleResult {
    run_ensemble_crowd(params, chains, 1)
}

/// Runs `chains` independent chains organized into crowds of up to
/// `crowd_size` walkers stepped in lockstep (see [`crate::crowd`]) and
/// merges their measurements.
///
/// Chain `c` receives [`chain_seed`]`(params.seed, 0, c)` whatever the
/// grouping and every backend kernel is bit-identical per walker, so the
/// result is byte-for-byte the same for **any** `crowd_size` — crowds change
/// only the batching economics (one launch per crowd instead of per walker
/// on a batched backend), never the statistics. The crowds run sequentially
/// and merge in chain order; for chains on several threads submit the same
/// point to `sched`, which derives the same seeds.
///
/// Panics if `chains == 0` or `crowd_size == 0`.
pub fn run_ensemble_crowd(params: &SimParams, chains: usize, crowd_size: usize) -> EnsembleResult {
    assert!(chains >= 1, "need at least one chain");
    assert!(crowd_size >= 1, "need a positive crowd size");
    let mut acceptance_rates = Vec::with_capacity(chains);
    let mut recovery_logs = Vec::with_capacity(chains);
    let mut max_wrap_error = 0.0f64;
    let mut observables: Option<Observables> = None;
    for c0 in (0..chains).step_by(crowd_size) {
        let ps: Vec<SimParams> = (c0..chains.min(c0 + crowd_size))
            .map(|c| {
                params
                    .clone()
                    .with_seed(chain_seed(params.seed, 0, c as u64))
            })
            .collect();
        let mut crowd = Crowd::new(ps);
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
    fn crowd_ensemble_is_bit_identical_for_every_crowd_size() {
        // Crowd size is a throughput knob, not a physics knob: pooled
        // observables are byte-identical whether 5 chains run solo, in
        // crowds of 2 (last crowd ragged), or in one crowd of 8 (capped at
        // the chain count).
        let p = params();
        let solo = run_ensemble(&p, 5);
        let (ds, es) = solo.observables.double_occupancy();
        for crowd_size in [1, 2, 8] {
            let crowd = run_ensemble_crowd(&p, 5, crowd_size);
            let (dc, ec) = crowd.observables.double_occupancy();
            assert_eq!(ds.to_bits(), dc.to_bits(), "crowd size {crowd_size}");
            assert_eq!(es.to_bits(), ec.to_bits(), "crowd size {crowd_size}");
            assert_eq!(solo.acceptance_rates, crowd.acceptance_rates);
            assert_eq!(
                solo.max_wrap_error.to_bits(),
                crowd.max_wrap_error.to_bits()
            );
        }
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
