//! Graded-decomposition stratification — Algorithms 2 and 3 of the paper.
//!
//! The long product `B_L⋯B_1` is maintained as `Q·diag(D)·T` with `Q`
//! orthogonal, `D` the graded magnitudes (descending), and `T` well
//! conditioned. Algorithm 2 grades every step with a *pivoted* QR; the
//! paper's contribution, Algorithm 3, observes that after the first step the
//! iterates are already nearly column-graded, so a cheap **pre-pivot**
//! (sorting columns by norm) followed by an *unpivoted* QR preserves the
//! grading at GEMM-class speed. Both are implemented here over the same
//! [`Udt`] representation so they can be compared element by element
//! (Figure 2) and swapped freely in the simulation.

use linalg::blas3::{gemm, Op};
use linalg::{qr, qrp, scale, tri, Matrix, Permutation, QrFactors};
use std::borrow::Borrow;

/// Which stratification variant to run.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StratAlgo {
    /// Algorithm 2: pivoted QR (DGEQP3) at every step.
    Qrp,
    /// Algorithm 3: column-norm pre-pivot + unpivoted QR (DGEQRF).
    PrePivot,
}

/// Graded decomposition `Q · diag(D) · T` of a matrix product.
#[derive(Clone, Debug)]
pub struct Udt {
    /// Orthogonal factor.
    pub q: Matrix,
    /// Graded diagonal (descending magnitude).
    pub d: Vec<f64>,
    /// Well-conditioned right factor.
    pub t: Matrix,
    /// Sign of `det Q` accumulated from the final QR (for fermion signs).
    pub q_sign: f64,
    /// Total column interchanges performed by the pivoting/pre-pivoting —
    /// the quantity the paper observes to be small under grading.
    pub interchanges: usize,
}

impl Udt {
    /// Dense reconstruction `Q·diag(D)·T` (tests; overflows for long chains).
    pub fn to_matrix(&self) -> Matrix {
        let mut qd = self.q.clone();
        scale::col_scale(&self.d, &mut qd);
        let mut out = Matrix::zeros(qd.nrows(), self.t.ncols());
        gemm(1.0, &qd, Op::NoTrans, &self.t, Op::NoTrans, 0.0, &mut out);
        out
    }

    /// Applies the represented product to a vector: `Q D T x` — stable for
    /// moderate chain lengths, used by property tests.
    pub fn apply(&self, x: &[f64]) -> Vec<f64> {
        let n = self.t.nrows();
        let mut tx = vec![0.0; n];
        linalg::blas2::gemv(1.0, &self.t, x, 0.0, &mut tx);
        for (v, d) in tx.iter_mut().zip(self.d.iter()) {
            *v *= d;
        }
        let mut out = vec![0.0; self.q.nrows()];
        linalg::blas2::gemv(1.0, &self.q, &tx, 0.0, &mut out);
        out
    }
}

/// Incremental stratification: maintains the graded `Q·D·T` of a growing
/// left-product `B_m ⋯ B_1` one factor at a time.
///
/// This is the engine behind [`stratify`] and the unequal-time Green's
/// function propagation ([`crate::tdm`]), which needs the intermediate
/// decomposition after every cluster.
#[derive(Clone, Debug)]
pub struct StratifyState {
    algo: StratAlgo,
    udt: Udt,
    /// Number of cluster boundaries absorbed so far (0 after `new`); names
    /// the failing boundary in checked-invariants panic messages.
    boundary: usize,
}

impl StratifyState {
    /// Starts the decomposition from the first (rightmost) factor — the
    /// pivoted QR of step 1, shared by both algorithms.
    pub fn new(first: &Matrix, algo: StratAlgo) -> Self {
        assert!(first.is_square(), "stratify: factors must be square");
        // Checked before the QRP so a poisoned input is reported against the
        // boundary, not as a pivot-norm failure deep inside the factorization.
        linalg::check_finite!(first.as_slice(), "stratify factor at cluster boundary 0");
        let f0 = qrp::qrp_in_place(first.clone());
        let p0 = f0.permutation();
        let interchanges = p0.displacement();
        let d = f0.r_diag();
        // T₁ = D₁⁻¹ R₁ P₁ᵀ
        let t = {
            let mut r = f0.r();
            scale::row_scale_inv(&d, &mut r);
            p0.permute_cols_inv(&r)
        };
        let q_sign = f0.q_det_sign();
        linalg::check_graded!(&d, 1.0 + 1e-7, "stratified D at cluster boundary 0");
        StratifyState {
            algo,
            udt: Udt {
                q: f0.into_q(),
                d,
                t,
                q_sign,
                interchanges,
            },
            boundary: 0,
        }
    }

    /// Multiplies a new leftmost factor into the decomposition (step 3).
    pub fn push(&mut self, b: &Matrix) {
        let n = self.udt.q.nrows();
        assert!(b.nrows() == n && b.ncols() == n, "stratify: factor shape");
        self.boundary += 1;
        // Must fire before the GEMM/QR below: those would surface the taint
        // as an unrelated pivot-norm or orthogonality failure.
        linalg::check_finite!(
            b.as_slice(),
            "stratify factor at cluster boundary {}",
            self.boundary
        );
        // Step 3a: C = (Bᵢ Q_{i−1}) D_{i−1} — GEMM then a column scaling,
        // ordered exactly as the paper prescribes for accuracy. The step
        // works in three N×N buffers: Q's, T's and one staging matrix from
        // the workspace arena, each recycled the moment its content is dead.
        let mut c = linalg::workspace::take_matrix(n, n);
        gemm(1.0, b, Op::NoTrans, &self.udt.q, Op::NoTrans, 0.0, &mut c);
        scale::col_scale(&self.udt.d, &mut c);
        // Q_{i−1} is dead from here on.
        let mut spare = std::mem::replace(&mut self.udt.q, Matrix::zeros(0, 0));

        // Step 3b: grade C. R and the reflectors stay packed in one buffer;
        // the other becomes `spare`.
        let (mut f, pi) = match self.algo {
            StratAlgo::Qrp => {
                let f = qrp::qrp_in_place(c);
                let p = f.permutation();
                (QrFactors { a: f.a, tau: f.tau }, p)
            }
            StratAlgo::PrePivot => {
                // Pre-pivot: descending column norms, then plain QR.
                let norms = scale::col_norms(&c);
                let p = Permutation::sort_descending(&norms);
                p.permute_cols_into(&c, &mut spare);
                (qr::qr_in_place(std::mem::replace(&mut spare, c)), p)
            }
        };
        self.udt.interchanges += pi.displacement();

        // Step 3c: Dᵢ = diag(Rᵢ); Tᵢ = (Dᵢ⁻¹ Rᵢ)(Pᵢᵀ T_{i−1}).
        // Refill the graded diagonal in place — its capacity persists across
        // every boundary of the chain.
        self.udt.d.clear();
        self.udt.d.extend((0..n).map(|i| f.a[(i, i)]));
        // QRP grades strictly; the pre-pivot variant only preserves the
        // essential graded structure (§IV-A), hence the wide slack.
        linalg::check_graded!(
            &self.udt.d,
            match self.algo {
                StratAlgo::Qrp => 1.0 + 1e-7,
                StratAlgo::PrePivot => 1e3,
            },
            "stratified D at cluster boundary {}",
            self.boundary
        );
        // T first, reading Dᵢ⁻¹Rᵢ from the upper triangle of the packed
        // factors; only then is Qᵢ formed over them (DORGQR in place), so
        // the step never holds R and Q as two matrices.
        scale::row_scale_inv_upper(&self.udt.d, &mut f.a);
        pi.permute_rows_t_into(&self.udt.t, &mut spare);
        tri::trmm_upper(&f.a, &mut spare);
        linalg::workspace::put_matrix(std::mem::replace(&mut self.udt.t, spare));
        self.udt.q_sign = f.q_det_sign();
        self.udt.q = f.into_q();
    }

    /// The current decomposition.
    pub fn udt(&self) -> &Udt {
        &self.udt
    }

    /// Consumes the state, returning the decomposition.
    pub fn into_udt(self) -> Udt {
        self.udt
    }
}

/// Runs the stratified decomposition of `B_m ⋯ B_2 B_1` where
/// `factors[0] = B_1` is applied first (rightmost in the product).
///
/// Matrices may be the raw per-slice B's or pre-clustered products
/// (§III-A2); the algorithm is identical.
///
/// The factors may be owned or borrowed (`&[Matrix]`, `&[&Matrix]`): the
/// sweep hands in references to its cached cluster products.
pub fn stratify<M: Borrow<Matrix>>(factors: &[M], algo: StratAlgo) -> Udt {
    assert!(!factors.is_empty(), "stratify: empty factor list");
    let mut state = StratifyState::new(factors[0].borrow(), algo);
    for b in &factors[1..] {
        state.push(b.borrow());
    }
    state.into_udt()
}

#[cfg(test)]
mod tests {
    use super::*;
    use util::Rng;

    fn random_chain(n: usize, len: usize, scale_spread: f64, seed: u64) -> Vec<Matrix> {
        let mut rng = Rng::new(seed);
        (0..len)
            .map(|_| {
                let mut m = Matrix::random(n, n, &mut rng);
                // push the chain towards gradedness, like e^{±ν} factors do
                for i in 0..n {
                    let s = (scale_spread * (rng.next_f64() - 0.5)).exp();
                    linalg::blas1::scal(s, m.col_mut(i));
                }
                // keep it comfortably nonsingular
                for i in 0..n {
                    m[(i, i)] += 2.0;
                }
                m
            })
            .collect()
    }

    fn explicit_product(factors: &[Matrix]) -> Matrix {
        let n = factors[0].nrows();
        let mut acc = Matrix::identity(n);
        for f in factors {
            let mut next = Matrix::zeros(n, n);
            gemm(1.0, f, Op::NoTrans, &acc, Op::NoTrans, 0.0, &mut next);
            acc = next;
        }
        acc
    }

    #[test]
    fn single_factor_reconstruction_both_algorithms() {
        let chain = random_chain(10, 1, 1.0, 1);
        for algo in [StratAlgo::Qrp, StratAlgo::PrePivot] {
            let udt = stratify(&chain, algo);
            let rec = udt.to_matrix();
            assert!(
                rec.max_abs_diff(&chain[0]) < 1e-11,
                "{algo:?}: {}",
                rec.max_abs_diff(&chain[0])
            );
        }
    }

    #[test]
    fn short_chain_matches_explicit_product() {
        let chain = random_chain(8, 4, 1.0, 2);
        let exact = explicit_product(&chain);
        for algo in [StratAlgo::Qrp, StratAlgo::PrePivot] {
            let udt = stratify(&chain, algo);
            let rec = udt.to_matrix();
            let rel = rec.max_abs_diff(&exact) / exact.max_abs();
            assert!(rel < 1e-11, "{algo:?}: rel {rel}");
        }
    }

    #[test]
    fn d_is_graded_descending() {
        let chain = random_chain(12, 6, 3.0, 3);
        // QRP grades strictly; pre-pivoting preserves the *essential* graded
        // structure "although not as strong" (§IV-A) — allow slack there.
        let udt = stratify(&chain, StratAlgo::Qrp);
        for w in udt.d.windows(2) {
            assert!(
                w[0].abs() >= w[1].abs() * (1.0 - 1e-8),
                "Qrp: D not graded: {} then {}",
                w[0],
                w[1]
            );
        }
        let udt = stratify(&chain, StratAlgo::PrePivot);
        for w in udt.d.windows(2) {
            assert!(
                10.0 * w[0].abs() >= w[1].abs(),
                "PrePivot: grading badly violated: {} then {}",
                w[0],
                w[1]
            );
        }
        // The global dynamic range must still be captured by D's ends.
        assert!(udt.d[0].abs() > udt.d[11].abs());
    }

    #[test]
    fn q_is_orthogonal_t_is_well_conditioned() {
        let chain = random_chain(10, 8, 2.0, 4);
        let udt = stratify(&chain, StratAlgo::PrePivot);
        let qtq = linalg::blas3::matmul(&udt.q, Op::Trans, &udt.q, Op::NoTrans);
        assert!(qtq.max_abs_diff(&Matrix::identity(10)) < 1e-12);
        // T's rows are D⁻¹R-scaled: entries bounded by ~1 per construction.
        assert!(
            udt.t.max_abs() < 1e3,
            "T should stay O(1): {}",
            udt.t.max_abs()
        );
    }

    #[test]
    fn algorithms_agree_on_action() {
        // The two algorithms produce different Q/D/T but the same product;
        // compare their action on vectors (the Figure 2 comparison is done
        // at the Green's-function level in greens.rs).
        let chain = random_chain(9, 6, 2.0, 5);
        let u1 = stratify(&chain, StratAlgo::Qrp);
        let u2 = stratify(&chain, StratAlgo::PrePivot);
        let mut rng = Rng::new(6);
        for _ in 0..4 {
            let x: Vec<f64> = (0..9).map(|_| rng.next_f64() - 0.5).collect();
            let y1 = u1.apply(&x);
            let y2 = u2.apply(&x);
            let scale = y1.iter().fold(0.0f64, |m, &v| m.max(v.abs())).max(1.0);
            for (a, b) in y1.iter().zip(y2.iter()) {
                assert!((a - b).abs() / scale < 1e-10, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn blocked_kernels_keep_the_small_n_contracts_at_n96() {
        // N = 96 puts the T update, the QR trailing updates and form_q on
        // their blocked (GEMM) paths; the N ≤ 16 tests above never leave the
        // level-2 ones. Same two contracts: the short chain reproduces the
        // explicit product, and Algorithms 2 and 3 agree on action.
        let n = 96;
        let chain = random_chain(n, 4, 1.0, 10);
        let exact = explicit_product(&chain);
        let u_qrp = stratify(&chain, StratAlgo::Qrp);
        let u_pre = stratify(&chain, StratAlgo::PrePivot);
        for (algo, udt) in [("Qrp", &u_qrp), ("PrePivot", &u_pre)] {
            let rel = udt.to_matrix().max_abs_diff(&exact) / exact.max_abs();
            assert!(rel < 1e-11, "{algo}: rel {rel}");
        }
        let mut rng = Rng::new(11);
        for _ in 0..4 {
            let x: Vec<f64> = (0..n).map(|_| rng.next_f64() - 0.5).collect();
            let (y1, y2) = (u_qrp.apply(&x), u_pre.apply(&x));
            let scale = y1.iter().fold(1.0f64, |m, &v| m.max(v.abs()));
            for (a, b) in y1.iter().zip(&y2) {
                assert!((a - b).abs() / scale < 1e-10, "{a} vs {b}");
            }
        }
    }

    #[test]
    fn handles_extreme_grading_without_overflow() {
        // Chain whose explicit product spans ~1e±120: the UDT keeps Q and T
        // tame while D absorbs the dynamic range.
        let mut chain = random_chain(6, 20, 0.5, 7);
        for (i, m) in chain.iter_mut().enumerate() {
            m.scale(if i % 2 == 0 { 1e6 } else { 1e-3 });
        }
        let udt = stratify(&chain, StratAlgo::PrePivot);
        assert!(udt.q.as_slice().iter().all(|x| x.is_finite()));
        assert!(udt.t.as_slice().iter().all(|x| x.is_finite()));
        assert!(udt.d.iter().all(|x| x.is_finite()));
        assert!(udt.d[0].abs() > udt.d[5].abs());
    }

    #[test]
    fn prepivot_interchanges_fewer_on_graded_chains() {
        // As the chain grows, later steps of Algorithm 3 should need almost
        // no reordering relative to a fresh unsorted matrix: compare the
        // displacement against the worst case n per step.
        let chain = random_chain(16, 10, 1.0, 8);
        let udt = stratify(&chain, StratAlgo::PrePivot);
        let worst = 16 * 10;
        assert!(
            udt.interchanges < worst,
            "expected progressive grading to limit interchanges"
        );
    }

    #[test]
    fn q_sign_is_plus_minus_one() {
        let chain = random_chain(7, 3, 1.0, 9);
        for algo in [StratAlgo::Qrp, StratAlgo::PrePivot] {
            let udt = stratify(&chain, algo);
            assert!(udt.q_sign == 1.0 || udt.q_sign == -1.0);
        }
    }

    #[test]
    #[should_panic(expected = "empty factor list")]
    fn empty_chain_rejected() {
        let _ = stratify::<Matrix>(&[], StratAlgo::Qrp);
    }
}
