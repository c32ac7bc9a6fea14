//! Metropolis rank-1 Green's-function updates, with delay blocking, and the
//! site loop of a time slice.
//!
//! After an accepted flip at site `i` the Green's function changes by a
//! rank-1 matrix (§II-B):
//!
//! ```text
//! G ← G − (α/d) u wᵀ,   u = (I − G)e_i,  w = Gᵀe_i,  d = 1 + α(1 − G_ii)
//! ```
//!
//! Applying each update immediately is a level-2 `ger` (memory bound). QUEST
//! instead *delays* them [Jarrell, ref 27 of the paper]: accumulate the
//! scaled `u`/`w` pairs in `N×nb` panels and reconstruct the handful of
//! entries each Metropolis step actually needs (one diagonal element, then
//! one row and one column) from `G₀ + U·Wᵀ` at O(N·j) cost. Every `nb`
//! accepted updates the panels are flushed into `G₀` with a single GEMM.
//!
//! **One spin alone.** At half filling on a bipartite lattice the walker
//! evolves `G↑` only ([`crate::sweep`]): `1 − G↓_ii = G↑_ii` makes
//! `d_dn = 1 + α_dn·G↑_ii`, so `visit_sites_up` forms `r = d_up·d_dn`
//! from the one accumulator, and `r = d_up²·e^{2νh} > 0` keeps the sign at
//! +1. The slice's flushes are the only rank-k GEMMs in flight, and they
//! fork across the team past the cut like any other kernel.
//!
//! **One spin per core** (the two-spin path, away from half filling or on a
//! non-bipartite lattice). The two spins of a slice share only the
//! accept/reject decision, which needs `r = d_up·d_dn`. Past the fork cut
//! (`2N³ ≥ FORK_FLOPS`) `visit_sites` runs each spin's side on its own core
//! for the whole slice ([`team::lockstep`]): at every site the sides swap
//! their `d_σ`, both form `r` in that order and draw the site's uniform from
//! their own copy of the walker's stream, so they decide alike with no second
//! handoff. Each side then applies its own rank-1 column and flush, whose
//! GEMM runs serially because the team is taken, so a spin's `G`, `U` and
//! `W` stay in one core's cache. Below the cut, with the team taken, or when
//! the pair is refused, the same per-site steps run in turn on the calling
//! thread. Each spin keeps its op order either way, so no byte depends on
//! which loop ran.

use crate::backend;
use crate::hs::HsField;
use crate::hubbard::Acceptance;
use linalg::blas1::axpy;
use linalg::blas3::rank_k_update;
use linalg::{team, workspace, Matrix};
use util::Rng;

/// Delayed-update accumulator around one spin's Green's function at a fixed
/// time slice.
///
/// The `U`/`W` panels and the row/col reconstruction scratch are leased from
/// the [`linalg::workspace`] arena on construction and returned by
/// [`SliceUpdater::into_g`], so the per-slice updater churn of a sweep
/// performs no steady-state heap allocation.
#[derive(Clone, Debug)]
pub struct SliceUpdater {
    g: Matrix,
    /// Scaled update columns: `U[:, m] = (α/d)_m u_m`.
    u: Matrix,
    /// Update rows: `W[:, m] = w_m`.
    w: Matrix,
    /// Scratch for the reconstructed row `G[i, :]`.
    scratch_row: Vec<f64>,
    /// Scratch for the reconstructed column `G[:, i]`.
    scratch_col: Vec<f64>,
    /// Number of pending (unflushed) updates.
    pending: usize,
    nb: usize,
}

/// Reconstructs row `G[i,:]` and column `G[:,i]` through the pending
/// updates into the provided scratch buffers:
/// `col = G₀[:,i] + U · W[i,:]ᵀ`, `row = G₀[i,:] + U[i,:] · Wᵀ` — both
/// O(N·pending). A free function over disjoint field borrows so
/// [`SliceUpdater::accept`] can reconstruct while it owns `u`/`w` mutably.
fn reconstruct_row_col(
    g: &Matrix,
    u: &Matrix,
    w: &Matrix,
    pending: usize,
    i: usize,
    row: &mut [f64],
    col: &mut [f64],
) {
    let n = g.nrows();
    let (row, col) = (&mut row[..n], &mut col[..n]);
    col.copy_from_slice(g.col(i));
    for (c, x) in row.iter_mut().enumerate() {
        *x = g[(i, c)];
    }
    // `axpy` skips a zero coefficient, and its products are the loops'
    // `ucol[r]·wim` and `uim·wcol[c]` bit for bit.
    for m in 0..pending {
        axpy(w[(i, m)], u.col(m), col);
        axpy(u[(i, m)], w.col(m), row);
    }
}

impl SliceUpdater {
    /// Wraps a Green's function with delay block size `nb ≥ 1`.
    pub fn new(g: Matrix, nb: usize) -> Self {
        assert!(g.is_square(), "Green's function must be square");
        assert!(nb >= 1);
        let n = g.nrows();
        SliceUpdater {
            g,
            u: workspace::take_matrix(n, nb),
            w: workspace::take_matrix(n, nb),
            scratch_row: workspace::take(n),
            scratch_col: workspace::take(n),
            pending: 0,
            nb,
        }
    }

    /// Matrix order `N`.
    pub fn n(&self) -> usize {
        self.g.nrows()
    }

    /// Current `G_ii`, reconstructed through the pending updates:
    /// `G_ii = G₀_ii + Σ_m U_im W_im`.
    pub fn gii(&self, i: usize) -> f64 {
        let mut v = self.g[(i, i)];
        for m in 0..self.pending {
            v += self.u[(i, m)] * self.w[(i, m)];
        }
        v
    }

    /// Records an accepted flip at site `i` with HS coefficient `alpha` and
    /// acceptance denominator `d = 1 + α(1 − G_ii)`.
    ///
    /// Flushes automatically when the delay block fills.
    pub fn accept(&mut self, i: usize, alpha: f64, d: f64) {
        let n = self.n();
        let scalef = alpha / d;
        let m = self.pending;
        {
            let SliceUpdater {
                g,
                u,
                w,
                scratch_row,
                scratch_col,
                ..
            } = self;
            reconstruct_row_col(g, u, w, m, i, scratch_row, scratch_col);
            // G ← G − (α/d)(e_i − G[:,i])·G(i,:), stored as G += U·Wᵀ with
            // U[:,m] = (α/d)(G[:,i] − e_i).
            let ucol = u.col_mut(m);
            for r in 0..n {
                ucol[r] = scalef * (scratch_col[r] - if r == i { 1.0 } else { 0.0 });
            }
            w.col_mut(m).copy_from_slice(scratch_row);
        }
        self.pending += 1;
        if self.pending == self.nb {
            self.flush();
        }
    }

    /// Flushes pending updates into `G₀` with one GEMM, `G₀ += U Wᵀ`, on the
    /// panels' leading `pending` columns in place.
    pub fn flush(&mut self) {
        if self.pending == 0 {
            return;
        }
        rank_k_update(&self.u, &self.w, self.pending, &mut self.g);
        self.pending = 0;
    }

    /// Flushes, returns the fully updated Green's function, and gives the
    /// U/W panels and scratch buffers back to the workspace arena.
    pub fn into_g(mut self) -> Matrix {
        self.flush();
        let SliceUpdater {
            g,
            u,
            w,
            scratch_row,
            scratch_col,
            ..
        } = self;
        workspace::put_matrix(u);
        workspace::put_matrix(w);
        workspace::put(scratch_row);
        workspace::put(scratch_col);
        g
    }

    /// Read access to the *flushed* base matrix (test hook; call
    /// [`SliceUpdater::flush`] first for the true current G).
    pub fn base(&self) -> &Matrix {
        &self.g
    }

    /// Number of pending updates (test hook).
    pub fn pending(&self) -> usize {
        self.pending
    }
}

/// One spin's side of a slice: its delayed-update accumulator, the slice's
/// `α_σ` per site, and the `G_σ(i,i)` and `d_σ` of the site last proposed.
pub(crate) struct SpinSide {
    upd: SliceUpdater,
    alpha: Vec<f64>,
    gii: f64,
    d: f64,
}

impl SpinSide {
    /// Wraps `g` with delay block `nb` and the slice's `α_σ` per site.
    pub(crate) fn new(g: Matrix, nb: usize, alpha: Vec<f64>) -> Self {
        SpinSide {
            upd: SliceUpdater::new(g, nb),
            alpha,
            gii: 0.0,
            d: 0.0,
        }
    }

    /// `d_σ = 1 + α_σ(1 − G_σ(i,i))` of a flip at site `i`.
    fn propose(&mut self, i: usize) -> f64 {
        self.gii = self.upd.gii(i);
        self.d = 1.0 + self.alpha[i] * (1.0 - self.gii);
        self.d
    }

    /// Applies the flip at site `i` to `G_σ` if it was accepted.
    fn commit(&mut self, i: usize, accepted: bool) {
        if accepted {
            self.upd.accept(i, self.alpha[i], self.d);
        }
    }

    /// Flushes and returns the updated Green's function.
    pub(crate) fn into_g(self) -> Matrix {
        self.upd.into_g()
    }
}

/// The accept/reject half of a slice: a copy of the walker's stream, the
/// configuration sign and the tally. On the two-spin path both sides hold
/// one and make the same draws; side 0's, the one that holds the HS field,
/// is written back.
pub(crate) struct Decider<'a> {
    pub(crate) rng: Rng,
    acceptance: Acceptance,
    /// The field and the slice whose entries accepted flips negate.
    field: Option<(&'a mut HsField, usize)>,
    pub(crate) sign: f64,
    pub(crate) accepted: u64,
}

impl<'a> Decider<'a> {
    pub(crate) fn new(
        rng: Rng,
        acceptance: Acceptance,
        sign: f64,
        field: Option<(&'a mut HsField, usize)>,
    ) -> Self {
        Decider {
            rng,
            acceptance,
            field,
            sign,
            accepted: 0,
        }
    }

    /// Accepts the flip at site `i` with probability `p(|r|)`,
    /// `r = d_up·d_dn`, drawing one uniform.
    fn decide(&mut self, i: usize, d_up: f64, d_dn: f64) -> bool {
        let r = d_up * d_dn;
        let accepted = self.rng.next_f64() < self.acceptance.probability(r.abs());
        if accepted {
            self.accepted += 1;
            if r < 0.0 {
                self.sign = -self.sign;
            }
            if let Some((h, l)) = &mut self.field {
                h.flip(*l, i);
            }
        }
        accepted
    }
}

/// One spin's seat in a slice.
pub(crate) struct Side<'a> {
    pub(crate) spin: SpinSide,
    pub(crate) decider: Decider<'a>,
}

/// Visits sites `0..n` of a slice with both spins, `sides[0]` up and
/// `sides[1]` down: as a lockstep pair past the fork cut when the team
/// grants one, otherwise in turn on this thread (module docs).
pub(crate) fn visit_sites(sides: &mut [Side<'_>; 2], n: usize) {
    let lockstep = backend::spins_fork(n)
        && team::lockstep(sides, |s, side, partner| {
            for i in 0..n {
                let d = side.spin.propose(i);
                let Some(other) = partner.swap(d) else {
                    return;
                };
                let (d_up, d_dn) = if s == 0 { (d, other) } else { (other, d) };
                let accepted = side.decider.decide(i, d_up, d_dn);
                side.spin.commit(i, accepted);
            }
            // The last partial block, on this side's core too.
            side.spin.upd.flush();
        });
    if !lockstep {
        let [up, dn] = sides;
        for i in 0..n {
            let (d_up, d_dn) = (up.spin.propose(i), dn.spin.propose(i));
            let accepted = up.decider.decide(i, d_up, d_dn);
            up.spin.commit(i, accepted);
            dn.spin.commit(i, accepted);
        }
    }
}

/// Visits sites `0..n` of a slice with the up spin alone, reading the down
/// spin's ratio through the particle–hole identity: `d_dn = 1 + α_dn·G↑_ii`
/// with `alpha_dn` the slice's `α_↓` per site (module docs).
pub(crate) fn visit_sites_up(up: &mut Side<'_>, alpha_dn: &[f64], n: usize) {
    for i in 0..n {
        let d_up = up.spin.propose(i);
        let d_dn = 1.0 + alpha_dn[i] * up.spin.gii;
        let accepted = up.decider.decide(i, d_up, d_dn);
        up.spin.commit(i, accepted);
    }
}

/// Immediate (non-delayed) reference implementation:
/// `G ← G − (α/d)·(e_i − G[:,i])·G(i,:)`.
///
/// This is the Sherman–Morrison inverse of the rank-1 change
/// `M' = M + α (M − I) e_i e_iᵀ` produced by flipping `h_{l,i}` when `B_l`
/// is the *rightmost* factor of the chain — the paper's update order
/// (update slice `l` against the canonical G, then wrap).
pub fn rank1_update_naive(g: &mut Matrix, i: usize, alpha: f64, d: f64) {
    let n = g.nrows();
    let col: Vec<f64> = (0..n).map(|r| g[(r, i)]).collect();
    let row: Vec<f64> = (0..n).map(|c| g[(i, c)]).collect();
    let s = alpha / d;
    for c in 0..n {
        let rc = s * row[c];
        if rc != 0.0 {
            for r in 0..n {
                let u = if r == i { 1.0 } else { 0.0 } - col[r];
                g[(r, c)] -= u * rc;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use linalg::blas3::Op;

    fn random_g(n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        // Plausible Green's function scale: entries O(1), diagonal near 0.5.
        let mut g = Matrix::random(n, n, &mut rng);
        g.scale(0.3);
        for i in 0..n {
            g[(i, i)] += 0.5;
        }
        g
    }

    #[test]
    fn single_update_matches_naive() {
        let g0 = random_g(8, 1);
        let mut naive = g0.clone();
        rank1_update_naive(&mut naive, 3, 0.7, 1.0 + 0.7 * (1.0 - g0[(3, 3)]));

        let mut del = SliceUpdater::new(g0.clone(), 4);
        let d = 1.0 + 0.7 * (1.0 - del.gii(3));
        del.accept(3, 0.7, d);
        let got = del.into_g();
        assert!(got.max_abs_diff(&naive) < 1e-13);
    }

    #[test]
    fn sequence_matches_naive_across_flush_boundary() {
        let g0 = random_g(10, 2);
        let sites = [0usize, 7, 3, 3, 9, 1, 4, 2, 8];
        let alphas = [0.5, -0.3, 1.2, 0.1, -0.8, 0.9, 0.2, -0.1, 0.7];

        let mut naive = g0.clone();
        for (&i, &a) in sites.iter().zip(alphas.iter()) {
            let d = 1.0 + a * (1.0 - naive[(i, i)]);
            rank1_update_naive(&mut naive, i, a, d);
        }

        // nb = 4 forces two flushes plus a partial block.
        let mut del = SliceUpdater::new(g0, 4);
        for (&i, &a) in sites.iter().zip(alphas.iter()) {
            let d = 1.0 + a * (1.0 - del.gii(i));
            del.accept(i, a, d);
        }
        let got = del.into_g();
        assert!(
            got.max_abs_diff(&naive) < 1e-11,
            "{}",
            got.max_abs_diff(&naive)
        );
    }

    #[test]
    fn gii_sees_pending_updates() {
        let g0 = random_g(6, 3);
        let mut del = SliceUpdater::new(g0.clone(), 16); // never auto-flush
        let before = del.gii(2);
        let d = 1.0 + 0.9 * (1.0 - before);
        del.accept(2, 0.9, d);
        let after_pending = del.gii(2);
        assert!(del.pending() == 1);
        // Compare with naive update applied eagerly.
        let mut naive = g0;
        rank1_update_naive(&mut naive, 2, 0.9, d);
        assert!((after_pending - naive[(2, 2)]).abs() < 1e-13);
    }

    #[test]
    fn explicit_flush_idempotent() {
        let g0 = random_g(5, 5);
        let mut del = SliceUpdater::new(g0.clone(), 8);
        del.flush(); // nothing pending
        assert!(del.base().max_abs_diff(&g0) < 1e-15);
        let d = 1.0 + 0.3 * (1.0 - del.gii(0));
        del.accept(0, 0.3, d);
        del.flush();
        del.flush();
        assert_eq!(del.pending(), 0);
    }

    #[test]
    fn nb_one_flushes_every_update() {
        let g0 = random_g(6, 6);
        let mut del = SliceUpdater::new(g0.clone(), 1);
        let d = 1.0 + 0.5 * (1.0 - del.gii(4));
        del.accept(4, 0.5, d);
        assert_eq!(del.pending(), 0, "nb=1 must flush immediately");
        let mut naive = g0;
        rank1_update_naive(&mut naive, 4, 0.5, d);
        assert!(del.base().max_abs_diff(&naive) < 1e-13);
    }

    #[test]
    fn update_preserves_inverse_identity() {
        // If G = M⁻¹ and we flip via the HS formula, the updated G must equal
        // the inverse of the rank-1-updated M: M' = M + Δ, where flipping
        // site i multiplies row i of B by (1+α): M' differs by α·outer.
        // Verify G' · M' ≈ I on a synthetic M.
        let n = 6;
        let mut rng = Rng::new(7);
        let mut m = Matrix::random(n, n, &mut rng);
        for i in 0..n {
            m[(i, i)] += 3.0;
        }
        let g = linalg::lu::inverse(&m).unwrap();
        let i = 2;
        let alpha = 0.6;
        // DQMC identity: M' = M + α (M − I) e_i e_iᵀ ⇒ written via columns.
        let mut mprime = m.clone();
        for r in 0..n {
            let delta = alpha * (m[(r, i)] - if r == i { 1.0 } else { 0.0 });
            mprime[(r, i)] += delta;
        }
        let d = 1.0 + alpha * (1.0 - g[(i, i)]);
        let mut del = SliceUpdater::new(g, 4);
        del.accept(i, alpha, d);
        let gp = del.into_g();
        let prod = linalg::blas3::matmul(&gp, Op::NoTrans, &mprime, Op::NoTrans);
        assert!(
            prod.max_abs_diff(&Matrix::identity(n)) < 1e-10,
            "{}",
            prod.max_abs_diff(&Matrix::identity(n))
        );
    }
}
