//! Shard planner: splits a (U, β) grid into contiguous point blocks for
//! multi-process execution (`crates/fleet`).
//!
//! The shard unit is a **whole grid point**: every chain of a point runs
//! inside one shard, so the shard's [`crate::report::PointSummary`] is
//! produced by the very same `summarize_point` pooling — in canonical
//! chain order — that the single-process sweep uses. Point summaries are
//! pure functions of (grid, seeds) by the determinism contract, which
//! makes the fleet merge trivial to get byte-exact: reassemble the
//! fragments in canonical point order and emit them through the one shared
//! [`crate::report::observables_json_for`] emitter.
//!
//! Blocks are *contiguous* in point order and weighted by each point's
//! slice count (β / Δτ): at fixed lattice size a sweep's cost is linear in
//! the number of imaginary-time slices, so a β-heavy grid splits by cost
//! rather than by point count. The partition is deterministic — same grid,
//! same process count, same plan — because the plan is part of the fleet's
//! reproducibility story: a re-run of a crashed shard must cover exactly
//! the points the dead process owned.

use crate::grid::GridSpec;
use util::codec::Fnv1a;

/// One process's slice of the campaign: a contiguous block of canonical
/// point indices.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardBlock {
    /// Shard id, `0..nshards`.
    pub shard: usize,
    /// Canonical (u-major) point indices this shard owns, ascending.
    pub points: Vec<usize>,
}

/// A full shard plan over a grid (or a subset of its points).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardPlan {
    /// Blocks in shard order; every requested point appears in exactly
    /// one block.
    pub blocks: Vec<ShardBlock>,
}

/// Plans `procs` shards over the whole grid.
pub fn plan_shards(spec: &GridSpec, procs: usize) -> ShardPlan {
    let all: Vec<usize> = (0..spec.points().len()).collect();
    plan_shard_subset(spec, &all, procs)
}

/// Plans up to `procs` shards over a subset of canonical point indices
/// (the result-cache service shards only the points it missed on).
///
/// Produces `min(procs, points.len())` non-empty blocks: a process with
/// nothing to do is never spawned. Weights are the points' slice counts,
/// and blocks are closed greedily against the ideal remaining-weight
/// split, so the heaviest shard stays close to `total/procs` without any
/// randomized rebalancing — determinism is part of the plan's contract.
pub fn plan_shard_subset(spec: &GridSpec, points: &[usize], procs: usize) -> ShardPlan {
    let grid_points = spec.points();
    let mut wanted: Vec<usize> = points.to_vec();
    wanted.sort_unstable();
    wanted.dedup();
    let weights: Vec<u64> = wanted
        .iter()
        .map(|&i| grid_points.get(i).map_or(1, |p| p.slices as u64).max(1))
        .collect();
    let total: u64 = weights.iter().sum();
    let nshards = procs.clamp(1, wanted.len().max(1));

    let mut blocks: Vec<ShardBlock> = Vec::with_capacity(nshards);
    let mut cursor = 0usize;
    let mut weight_left = total;
    for shard in 0..nshards {
        let shards_left = (nshards - shard) as u64;
        // Must leave at least one point for each later shard.
        let max_take = wanted.len() - cursor - (nshards - shard - 1);
        let target = weight_left.div_ceil(shards_left);
        let mut taken = 0usize;
        let mut acc = 0u64;
        while taken < max_take && (taken == 0 || acc + weights[cursor + taken] / 2 < target) {
            acc += weights[cursor + taken];
            taken += 1;
        }
        blocks.push(ShardBlock {
            shard,
            points: wanted[cursor..cursor + taken].to_vec(),
        });
        cursor += taken;
        weight_left -= acc;
    }
    // Rounding in the greedy walk can leave a tail; it belongs to the last
    // shard (contiguity demands it).
    if cursor < wanted.len() {
        if let Some(last) = blocks.last_mut() {
            last.points.extend_from_slice(&wanted[cursor..]);
        }
    }
    ShardPlan { blocks }
}

/// Content fingerprint of a grid's physics closure — what every shard of
/// one fleet campaign must agree on before its fragments may merge.
///
/// Folds the same inputs that fix the observable bytes: per-chain
/// parameter fingerprints (model, knobs, hash-split seed, sweep counts)
/// for every point, plus the chain count and crowd width. Scheduling
/// knobs (workers, devices, quanta, fault scripts) are excluded — the
/// determinism tier proves they cannot move the bytes, so two grids that
/// differ only there are mergeable.
pub fn grid_fingerprint(spec: &GridSpec) -> u64 {
    let mut f = Fnv1a::new();
    f.update(b"dqmc-fleet-grid-v1");
    f.update_u64(spec.chains as u64);
    f.update_u64(spec.crowd.max(1) as u64);
    let points = spec.points();
    f.update_u64(points.len() as u64);
    for point in &points {
        for chain in 0..spec.chains {
            f.update_u64(dqmc::params_fingerprint(&spec.chain_params(point, chain)));
        }
    }
    f.finish()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec() -> GridSpec {
        GridSpec::parse(
            "
            lx = 2
            ly = 2
            u = 2.0, 4.0
            beta = 1.0, 2.0, 4.0
            chains = 2
            warmup = 2
            sweeps = 4
            bin_size = 2
            cluster_size = 4
            seed = 9
            ",
        )
        .expect("grid parses")
    }

    fn flat(plan: &ShardPlan) -> Vec<usize> {
        plan.blocks.iter().flat_map(|b| b.points.clone()).collect()
    }

    #[test]
    fn plan_partitions_every_point_exactly_once_and_contiguously() {
        let s = spec();
        let npoints = s.points().len();
        for procs in 1..=8 {
            let plan = plan_shards(&s, procs);
            let all = flat(&plan);
            assert_eq!(all, (0..npoints).collect::<Vec<_>>(), "procs={procs}");
            assert_eq!(plan.blocks.len(), procs.min(npoints));
            for b in &plan.blocks {
                assert!(!b.points.is_empty(), "no empty shard at procs={procs}");
                assert!(b.points.windows(2).all(|w| w[1] == w[0] + 1));
            }
        }
    }

    #[test]
    fn plan_is_deterministic_and_weights_by_slices() {
        let s = spec();
        let a = plan_shards(&s, 2);
        let b = plan_shards(&s, 2);
        assert_eq!(a, b);
        // β = 1, 2, 4 at dtau 0.125 → slices 8/16/32 per U value. A
        // balanced-by-cost split of the 6 points cannot put all four
        // heavy (β ≥ 2) points in one shard.
        let points = s.points();
        let heavy = |b: &ShardBlock| b.points.iter().filter(|&&i| points[i].slices >= 16).count();
        assert!(a.blocks.iter().all(|b| heavy(b) < 4), "{a:?}");
    }

    #[test]
    fn subset_plans_cover_only_the_subset() {
        let s = spec();
        let plan = plan_shard_subset(&s, &[4, 1, 2], 2);
        assert_eq!(flat(&plan), vec![1, 2, 4]);
        assert_eq!(plan.blocks.len(), 2);
        // More shards than points: one point each, no empty processes.
        let plan = plan_shard_subset(&s, &[3, 0], 5);
        assert_eq!(plan.blocks.len(), 2);
        assert_eq!(flat(&plan), vec![0, 3]);
    }

    #[test]
    fn fingerprint_tracks_physics_not_scheduling() {
        let base = grid_fingerprint(&spec());
        assert_eq!(base, grid_fingerprint(&spec()), "deterministic");
        let mut seeded = spec();
        seeded.seed ^= 1;
        assert_ne!(base, grid_fingerprint(&seeded), "seed is physics");
        let mut sweeps = spec();
        sweeps.sweeps += 1;
        assert_ne!(base, grid_fingerprint(&sweeps), "sweep count is physics");
        let mut sched_only = spec();
        sched_only.workers = 7;
        sched_only.devices = 3;
        sched_only.quantum = 1;
        assert_eq!(
            base,
            grid_fingerprint(&sched_only),
            "scheduling knobs are not physics"
        );
    }
}
