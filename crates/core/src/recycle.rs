//! Matrix-cluster cache (the paper's "recycling", §III-B2).
//!
//! Within one sweep only the cluster containing the slice currently being
//! updated changes; the other `L_k − 1` cluster products are bitwise
//! reusable — and across the sweep boundary into the next sweep. Storing
//! them trades O(L_k·N²) memory (tens of MB at N = 1024, as the paper
//! notes) for skipping most of the clustering GEMMs.
//!
//! The sweep's stratification stacks ([`crate::sweep`]) read each product
//! twice a sweep: clusters `1 … L_k − 1` when the first boundary stands the
//! left stack, which then releases them (`ClusterCache::release`), and
//! every cluster at its right push, after its updates. A push reads a
//! product the prefill rebuilt if a flip made it stale, and otherwise
//! rebuilds the released one from the field. [`ClusterCache::stats`]
//! counts reads through [`ClusterCache::get`]: a hit is a product built
//! for an earlier read — the left stand's, of products the previous
//! sweep's pushes left — and a rebuild is every product built, by the
//! prefill or by a read. A stand anywhere else (recycling off, the
//! recovery rungs) reads all `L_k` products at its boundary, as the
//! paper's recycling does.

use crate::bmat::BMatrixFactory;
use crate::hs::HsField;
use crate::hubbard::Spin;
use linalg::Matrix;

/// Cache of per-spin cluster products `B̂_c = B_{(c+1)k−1} ⋯ B_{ck}` with
/// dirty tracking, for the spins a walker evolves: both, or the up spin
/// alone on the particle–hole path (see [`crate::sweep`]).
#[derive(Clone, Debug)]
pub struct ClusterCache {
    k: usize,
    slices: usize,
    nclusters: usize,
    /// `store[spin][c]`: one row per held spin, up first.
    store: Vec<Vec<Slot>>,
    /// Rebuild counters (for the Table I "clustering" cost attribution).
    rebuilds: usize,
    hits: usize,
}

/// One cluster product's place in the cache.
#[derive(Clone, Debug, Default)]
enum Slot {
    /// Never built, or its field changed: a prefill's work.
    #[default]
    Stale,
    /// Handed to its reader ([`ClusterCache::release`]) while its field is
    /// unchanged: a read rebuilds it from the field, bit for bit, and no
    /// prefill sends it to the backend again.
    Released,
    /// Held. `fresh`: installed by a prefill and not read yet, so the read
    /// that follows is the product's first use, not a recycling hit.
    Held { m: Matrix, fresh: bool },
}

impl ClusterCache {
    /// Creates an empty cache of both spins for `slices` time slices
    /// clustered by `k`.
    pub fn new(slices: usize, k: usize) -> Self {
        ClusterCache::with_spins(slices, k, 2)
    }

    /// An empty cache holding the first `spins` of `[up, down]`.
    pub(crate) fn with_spins(slices: usize, k: usize, spins: usize) -> Self {
        assert!((1..=2).contains(&spins), "a cache holds one or two spins");
        let mut cache = ClusterCache {
            k,
            slices,
            nclusters: 0,
            store: vec![Vec::new(); spins],
            rebuilds: 0,
            hits: 0,
        };
        cache.reshape(k);
        cache
    }

    /// Cluster size `k`.
    pub fn cluster_size(&self) -> usize {
        self.k
    }

    /// Number of clusters `L_k`.
    pub fn nclusters(&self) -> usize {
        self.nclusters
    }

    /// Cluster index containing time slice `l`.
    pub fn cluster_of(&self, l: usize) -> usize {
        debug_assert!(l < self.slices);
        l / self.k
    }

    /// Slice range `[lo, hi)` of cluster `c`.
    pub fn range(&self, c: usize) -> (usize, usize) {
        debug_assert!(c < self.nclusters);
        (c * self.k, ((c + 1) * self.k).min(self.slices))
    }

    /// Invalidates the cluster containing slice `l` for every held spin
    /// (call after any accepted flip on that slice).
    pub fn invalidate_slice(&mut self, l: usize) {
        let c = self.cluster_of(l);
        for s in &mut self.store {
            s[c] = Slot::Stale;
        }
    }

    /// Invalidates everything (e.g. after externally replacing the field).
    pub fn invalidate_all(&mut self) {
        for s in &mut self.store {
            s.fill(Slot::Stale);
        }
    }

    /// Re-clusters the cache at a new (smaller or larger) cluster size,
    /// dropping every cached product but keeping the hit/rebuild counters.
    /// Used by the recovery layer's adaptive cluster-size shrink.
    pub fn reshape(&mut self, k: usize) {
        assert!(k >= 1 && k <= self.slices, "cluster size must be in 1..=L");
        let nclusters = self.slices.div_ceil(k);
        self.k = k;
        self.nclusters = nclusters;
        for s in &mut self.store {
            *s = vec![Slot::Stale; nclusters];
        }
    }

    /// The row of `spin`. Naming a spin the cache does not hold is a caller
    /// bug: a one-spin cache has no down-spin products to read or install.
    fn row(&self, spin: Spin) -> usize {
        let s = spin.index();
        assert!(
            s < self.store.len(),
            "this cluster cache holds the up spin alone (particle–hole path): \
             {spin:?} products are not cached; build a two-spin ClusterCache::new to read them"
        );
        s
    }

    /// Returns cluster `c` for `spin`, rebuilding from the field if it is
    /// not held.
    pub fn get(&mut self, fac: &BMatrixFactory, h: &HsField, c: usize, spin: Spin) -> &Matrix {
        let (lo, hi) = self.range(c);
        let s = self.row(spin);
        let slot = &mut self.store[s][c];
        match slot {
            Slot::Held { fresh, .. } => {
                if !std::mem::take(fresh) {
                    self.hits += 1;
                }
            }
            Slot::Stale | Slot::Released => {
                *slot = Slot::Held {
                    m: fac.cluster(h, lo, hi, spin),
                    fresh: false,
                };
                self.rebuilds += 1;
            }
        }
        match slot {
            Slot::Held { m, .. } => m,
            _ => unreachable!("just filled"),
        }
    }

    /// Takes cluster `c` of `spin` out of the cache for a reader that
    /// consumes it; the slot is [`Slot::Released`] until the field of
    /// cluster `c` changes. The product must be held (read it through
    /// [`Self::get`] first).
    pub(crate) fn release(&mut self, c: usize, spin: Spin) -> Matrix {
        let s = self.row(spin);
        match std::mem::replace(&mut self.store[s][c], Slot::Released) {
            Slot::Held { m, .. } => m,
            _ => panic!("cluster product {c} released before it was read"),
        }
    }

    /// The first cluster from `from` on that would need a rebuild of any
    /// held spin on next access (empty or invalidated; a released product
    /// is rebuilt by its reader instead). The sweep driver scans this to
    /// decide which walkers join a batched prefill, which rebuilds every
    /// held spin.
    pub fn first_stale(&self, from: usize) -> Option<usize> {
        let stale = |slot: &Slot| matches!(slot, Slot::Stale);
        (from..self.nclusters).find(|&c| self.store.iter().any(|s| stale(&s[c])))
    }

    /// Installs an externally computed product for cluster `c` (a batched
    /// prefill), scanning for non-finite taint *before* caching: a poisoned
    /// product must never enter the cache (or the stratification, where
    /// `checked-invariants` builds would abort before recovery could act).
    /// On `Err` (the taint's detail) the slot stays stale and the caller
    /// decides how to heal.
    pub fn install(&mut self, c: usize, spin: Spin, m: Matrix) -> Result<(), String> {
        let (lo, hi) = self.range(c);
        if let Some((i, v)) = linalg::check::first_non_finite(m.as_slice()) {
            return Err(format!(
                "{v} at flat index {i} in prefilled cluster [{lo}, {hi}) {spin:?}"
            ));
        }
        let s = self.row(spin);
        self.store[s][c] = Slot::Held { m, fresh: true };
        self.rebuilds += 1;
        Ok(())
    }

    /// Cluster `c` of `spin`, borrowed without counting a read: the caller
    /// has counted it through [`Self::get`] first.
    pub(crate) fn lend(&self, c: usize, spin: Spin) -> &Matrix {
        match &self.store[self.row(spin)][c] {
            Slot::Held { m, .. } => m,
            _ => panic!("cluster product {c} lent before it was read"),
        }
    }

    /// Collects the factor sequence for the Green's function used at slice
    /// `l+1` (i.e. after wrapping past slice `l`, the last slice of its
    /// cluster): the product `B_l ⋯ B_0 · B_{L−1} ⋯ B_{l+1}`, as owned
    /// copies of the cluster products in application order (rightmost
    /// factor first), stale ones rebuilt. This is the paper's from-scratch
    /// evaluation's input, for the figure benches and probes; the sweep
    /// reads the cache through its stratification stacks instead.
    pub fn factors_after_slice(
        &mut self,
        fac: &BMatrixFactory,
        h: &HsField,
        l: usize,
        spin: Spin,
    ) -> Vec<Matrix> {
        let c = self.cluster_of(l);
        assert_eq!(
            l + 1,
            self.range(c).1,
            "recompute must land on a cluster boundary"
        );
        // Applied first: cluster c+1 (its rightmost factor is B_{l+1}), then
        // wrap around to cluster c last.
        let nclusters = self.nclusters;
        (1..=nclusters)
            .map(|off| self.get(fac, h, (c + off) % nclusters, spin).clone())
            .collect()
    }

    /// `(rebuilds, hits)` counters.
    pub fn stats(&self) -> (usize, usize) {
        (self.rebuilds, self.hits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hubbard::ModelParams;
    use lattice::Lattice;

    fn setup() -> (BMatrixFactory, HsField) {
        let model = ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 12);
        let fac = BMatrixFactory::new(&model);
        let mut rng = util::Rng::new(1);
        let h = HsField::random(4, 12, &mut rng);
        (fac, h)
    }

    #[test]
    fn geometry_of_clusters() {
        let c = ClusterCache::new(12, 4);
        assert_eq!(c.nclusters(), 3);
        assert_eq!(c.cluster_of(0), 0);
        assert_eq!(c.cluster_of(3), 0);
        assert_eq!(c.cluster_of(4), 1);
        assert_eq!(c.range(2), (8, 12));
    }

    #[test]
    fn ragged_final_cluster() {
        let c = ClusterCache::new(10, 4);
        assert_eq!(c.nclusters(), 3);
        assert_eq!(c.range(2), (8, 10));
    }

    #[test]
    fn get_matches_direct_cluster() {
        let (fac, h) = setup();
        let mut cache = ClusterCache::new(12, 4);
        let got = cache.get(&fac, &h, 1, Spin::Up).clone();
        let want = fac.cluster(&h, 4, 8, Spin::Up);
        assert!(got.max_abs_diff(&want) < 1e-15);
    }

    #[test]
    fn cache_hit_avoids_rebuild() {
        let (fac, h) = setup();
        let mut cache = ClusterCache::new(12, 4);
        let _ = cache.get(&fac, &h, 0, Spin::Up);
        let _ = cache.get(&fac, &h, 0, Spin::Up);
        let _ = cache.get(&fac, &h, 0, Spin::Down);
        assert_eq!(cache.stats(), (2, 1));
    }

    #[test]
    fn invalidate_slice_forces_rebuild() {
        let (fac, mut h) = setup();
        let mut cache = ClusterCache::new(12, 4);
        let before = cache.get(&fac, &h, 0, Spin::Up).clone();
        h.flip(2, 1); // slice 2 lives in cluster 0
        cache.invalidate_slice(2);
        let after = cache.get(&fac, &h, 0, Spin::Up).clone();
        assert!(before.max_abs_diff(&after) > 1e-12, "must reflect the flip");
        let direct = fac.cluster(&h, 0, 4, Spin::Up);
        assert!(after.max_abs_diff(&direct) < 1e-15);
    }

    #[test]
    fn factors_order_rotates_correctly() {
        let (fac, h) = setup();
        let mut cache = ClusterCache::new(12, 4);
        // After slice 7 (end of cluster 1), updating slice 8 uses
        // B_7…B_0 B_11…B_8: application order = cluster 2, cluster 0, cluster 1.
        let factors = cache.factors_after_slice(&fac, &h, 7, Spin::Up);
        assert_eq!(factors.len(), 3);
        assert!(factors[0].max_abs_diff(&fac.cluster(&h, 8, 12, Spin::Up)) < 1e-15);
        assert!(factors[1].max_abs_diff(&fac.cluster(&h, 0, 4, Spin::Up)) < 1e-15);
        assert!(factors[2].max_abs_diff(&fac.cluster(&h, 4, 8, Spin::Up)) < 1e-15);
    }

    #[test]
    fn canonical_order_at_sweep_end() {
        let (fac, h) = setup();
        let mut cache = ClusterCache::new(12, 4);
        // After the last slice (11): canonical order, cluster 0 first.
        let factors = cache.factors_after_slice(&fac, &h, 11, Spin::Down);
        assert!(factors[0].max_abs_diff(&fac.cluster(&h, 0, 4, Spin::Down)) < 1e-15);
        assert!(factors[2].max_abs_diff(&fac.cluster(&h, 8, 12, Spin::Down)) < 1e-15);
    }

    #[test]
    #[should_panic(expected = "cluster boundary")]
    fn mid_cluster_recompute_rejected() {
        let (fac, h) = setup();
        let mut cache = ClusterCache::new(12, 4);
        let _ = cache.factors_after_slice(&fac, &h, 5, Spin::Up);
    }

    #[test]
    fn reshape_preserves_boundaries_and_drops_cache() {
        let (fac, h) = setup();
        let mut cache = ClusterCache::new(12, 4);
        let _ = cache.get(&fac, &h, 0, Spin::Up);
        cache.reshape(2);
        assert_eq!(cache.cluster_size(), 2);
        assert_eq!(cache.nclusters(), 6);
        // Old boundary l = 7 is still a boundary under the halved size.
        let factors = cache.factors_after_slice(&fac, &h, 7, Spin::Up);
        assert_eq!(factors.len(), 6);
        assert!(factors[0].max_abs_diff(&fac.cluster(&h, 8, 10, Spin::Up)) < 1e-15);
        // All cached products were dropped: every factor was a rebuild
        // (1 from before + 6 now), and the pre-reshape hit count is kept.
        assert_eq!(cache.stats().0, 7);
    }

    #[test]
    fn a_one_spin_cache_holds_the_up_spin_alone() {
        // The particle–hole path's cache: one install per cluster leaves it
        // fresh, and there is no down-spin slot to fill or to read.
        let (fac, mut h) = setup();
        let mut cache = ClusterCache::with_spins(12, 4, 1);
        assert_eq!(cache.first_stale(0), Some(0));
        cache
            .install(0, Spin::Up, fac.cluster(&h, 0, 4, Spin::Up))
            .unwrap();
        assert_eq!(cache.first_stale(0), Some(1));
        h.flip(1, 0);
        cache.invalidate_slice(1);
        assert_eq!(cache.first_stale(0), Some(0));
        cache.reshape(2);
        assert_eq!(cache.first_stale(0), Some(0));
    }

    #[test]
    #[should_panic(expected = "holds the up spin alone")]
    fn a_one_spin_cache_has_no_down_spin_to_read() {
        let (fac, h) = setup();
        let mut cache = ClusterCache::with_spins(12, 4, 1);
        let _ = cache.get(&fac, &h, 0, Spin::Down);
    }

    #[test]
    fn installed_product_is_read_back_without_counting_a_hit() {
        let (fac, h) = setup();
        let mut cache = ClusterCache::new(12, 4);
        assert_eq!(cache.first_stale(0), Some(0));
        cache
            .install(0, Spin::Up, fac.cluster(&h, 0, 4, Spin::Up))
            .unwrap();
        assert_eq!(cache.first_stale(0), Some(0), "the down spin is stale");
        cache
            .install(0, Spin::Down, fac.cluster(&h, 0, 4, Spin::Down))
            .unwrap();
        assert_eq!(cache.first_stale(0), Some(1));
        // The read after a prefill is the product's first use; the one
        // after that is a recycling hit.
        let _ = cache.get(&fac, &h, 0, Spin::Up);
        assert_eq!(cache.stats(), (2, 0));
        let _ = cache.get(&fac, &h, 0, Spin::Up);
        assert_eq!(cache.stats(), (2, 1));
    }

    #[test]
    fn install_rejects_tainted_product_without_caching() {
        let (fac, h) = setup();
        let mut cache = ClusterCache::new(12, 4);
        let mut m = Matrix::identity(fac.nsites());
        m[(0, 0)] = f64::NAN;
        let err = cache.install(0, Spin::Up, m).unwrap_err();
        assert!(err.contains("NaN at flat index 0"), "{err}");
        // The poisoned product must not have been cached: the slot is still
        // stale and a host read rebuilds cleanly.
        assert_eq!(cache.first_stale(0), Some(0));
        let clean = cache.get(&fac, &h, 0, Spin::Up);
        assert!(clean.as_slice().iter().all(|x| x.is_finite()));
    }
}
