//! Strided-batch kernels for crowd execution (cuBLAS
//! `cublasDgemmStridedBatched` analogue).
//!
//! A *crowd* of B walkers stepped in lockstep issues the same GEMM shape B
//! times with different payloads. Looping [`crate::gemm`] already recycles
//! its packing buffers through the workspace arena, but it re-packs any
//! operand the B calls *share* (the `e^{−ΔτK}` exponential in wrapping and
//! clustering) once per walker. The batched driver here packs a
//! [`GemmOperand::Shared`] operand once per `KC` slab for the whole crowd
//! and streams only the per-walker operand, so the packing tax — like the
//! launch tax on the simulated device — is paid once per crowd. Every batch
//! takes this driver, whatever its shape: at N = 36, where packing is a
//! third of a call, four walkers' wrap reads 51 GFlop/s against 46 for four
//! solo calls (`linalg.gemm_batched_gflops_n36_b4`, `linalg.gemm_gflops_n36`).
//!
//! **Bit-identity contract**: for every entry `e`, the values written to
//! `cs[e]` are bit-identical to a solo `gemm` call on that entry's
//! operands. This holds because packing is a pure data re-arrangement (the
//! packed slabs contain the same values whether packed once or B times) and
//! the per-entry macro-/micro-kernel call sequence is exactly the solo one.
//! The crowd execution model (DESIGN.md §13) leans on this: batching may
//! only change *cost*, never *bytes*.
//!
//! This module is a `dqmc-lint` hot module: heap allocation inside its
//! loops is rejected by `cargo xtask lint` unless explicitly waived.

#![cfg_attr(any(), deny_hot_alloc)]

use crate::blas3::{self, Op, KC};
use crate::matrix::{Matrix, View};
use crate::qrp::{self, QrpFactors};
use crate::simd::{self, KernelPath};
use crate::workspace;

/// One side of a batched GEMM: either a single operand shared by every
/// entry of the batch, or one operand per entry.
#[derive(Clone, Copy, Debug)]
pub enum GemmOperand<'a> {
    /// The same matrix multiplies every entry (packed once per crowd).
    Shared(&'a Matrix),
    /// Entry `e` uses `ms[e]` (packed per entry, like solo GEMM).
    Each(&'a [&'a Matrix]),
}

impl<'a> GemmOperand<'a> {
    /// The matrix entry `e` of the batch sees.
    fn entry(&self, e: usize) -> View<'a> {
        match self {
            GemmOperand::Shared(m) => m.view(),
            GemmOperand::Each(ms) => ms[e].view(),
        }
    }

    /// What entry `e` packs for one slab: its own matrix, or — a shared
    /// operand past entry 0 — nothing, the slab being in the buffer already.
    fn slab_of(&self, e: usize, op: Op) -> Option<(View<'a>, Op)> {
        match self {
            GemmOperand::Shared(_) if e > 0 => None,
            _ => Some((self.entry(e), op)),
        }
    }

    fn check_batch(&self, b: usize, side: &str) {
        if let GemmOperand::Each(ms) = self {
            assert_eq!(ms.len(), b, "dgemm_strided_batched: {side} operand count");
        }
    }
}

/// Batched general matrix multiply over a stack of B entries:
/// `C_e = alpha * op(A_e) * op(B_e) + beta * C_e` for each `e`.
///
/// All entries must share one shape (that is what makes the batch
/// "strided": entry `e` of a stacked buffer is one matrix-stride past entry
/// `e−1`, as in cuBLAS's strided-batched API). A [`GemmOperand::Shared`]
/// operand is packed once per `KC` slab for the whole batch instead of once
/// per entry. Every entry's result is bit-identical to a solo [`crate::gemm`]
/// call (see the module docs for why).
pub fn dgemm_strided_batched(
    alpha: f64,
    a: GemmOperand<'_>,
    opa: Op,
    b: GemmOperand<'_>,
    opb: Op,
    beta: f64,
    cs: &mut [&mut Matrix],
) {
    let bsz = cs.len();
    if bsz == 0 {
        return;
    }
    a.check_batch(bsz, "A");
    b.check_batch(bsz, "B");
    let m = opa.rows(a.entry(0));
    let k = opa.cols(a.entry(0));
    let n = opb.cols(b.entry(0));
    for e in 0..bsz {
        let (ae, be) = (a.entry(e), b.entry(e));
        assert_eq!(opa.rows(ae), m, "dgemm_strided_batched: A[{e}] row count");
        assert_eq!(
            opa.cols(ae),
            k,
            "dgemm_strided_batched: A[{e}] column count"
        );
        assert_eq!(opb.rows(be), k, "dgemm_strided_batched: inner dimensions");
        assert_eq!(
            opb.cols(be),
            n,
            "dgemm_strided_batched: B[{e}] column count"
        );
        assert_eq!(cs[e].nrows(), m, "dgemm_strided_batched: C[{e}] row count");
        assert_eq!(
            cs[e].ncols(),
            n,
            "dgemm_strided_batched: C[{e}] column count"
        );
    }

    // Beta once up front, exactly as gemm_impl does per entry.
    for c in cs.iter_mut() {
        if beta == 0.0 {
            c.fill(0.0);
        } else if beta != 1.0 {
            c.scale(beta);
        }
    }
    if alpha == 0.0 || m == 0 || n == 0 || k == 0 {
        return;
    }

    match simd::kernel_path().or_fallback() {
        KernelPath::Scalar => blocked_batched::<8, 4>(alpha, &a, opa, &b, opb, cs, m, n, k),
        KernelPath::Fma => blocked_batched::<8, 6>(alpha, &a, opa, &b, opb, cs, m, n, k),
        KernelPath::Avx512 => blocked_batched::<16, 12>(alpha, &a, opa, &b, opb, cs, m, n, k),
    }
    for _c in cs.iter() {
        crate::check_finite!(
            _c.as_slice(),
            "dgemm_strided_batched output ({}x{})",
            _c.nrows(),
            _c.ncols()
        );
    }
}

/// The blocked batched path, monomorphised per micro-tile shape `MR × NR`
/// exactly like `gemm_blocked`. One packing buffer is leased for the whole
/// crowd; a shared operand's slab is packed once per `pc`
/// iteration (by entry 0, and stays in its buffer for the rest of the
/// crowd), a per-entry operand's slab once per entry (the solo cost).
#[allow(clippy::too_many_arguments)]
fn blocked_batched<const MR: usize, const NR: usize>(
    alpha: f64,
    a: &GemmOperand<'_>,
    opa: Op,
    b: &GemmOperand<'_>,
    opb: Op,
    cs: &mut [&mut Matrix],
    m: usize,
    n: usize,
    k: usize,
) {
    let (mut packed, a_len) = blas3::lease_panels::<MR, NR>(m, n, k);
    let (packed_a, packed_b) = packed.split_at_mut(a_len);

    let mut pc = 0;
    while pc < k {
        let kc = KC.min(k - pc);
        for (e, c) in cs.iter_mut().enumerate() {
            blas3::slab::<MR, NR>(
                alpha,
                a.slab_of(e, opa),
                b.slab_of(e, opb),
                pc,
                kc,
                packed_a,
                packed_b,
                &mut c.view_mut(),
            );
        }
        pc += kc;
    }

    workspace::put(packed);
}

/// Batched pivoted QR over a stack of B factor-chain matrices.
///
/// Entry `e` of the result is bit-identical to `qrp_in_place(ms[e])`: the
/// factorizations are independent and run one after another.
// dqmc-lint: allow(hot_alloc) — the output Vec is the API (one factor set
// per batch entry); QRP runs at cluster boundaries, not per slice.
pub fn qrp_batched(ms: Vec<Matrix>) -> Vec<QrpFactors> {
    ms.into_iter().map(qrp::qrp_in_place).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::blas3::gemm;
    use util::Rng;

    fn random(m: usize, n: usize, seed: u64) -> Matrix {
        let mut rng = Rng::new(seed);
        Matrix::random(m, n, &mut rng)
    }

    fn assert_bits_eq(a: &Matrix, b: &Matrix, what: &str) {
        assert_eq!(a.nrows(), b.nrows());
        assert_eq!(a.ncols(), b.ncols());
        for (x, y) in a.as_slice().iter().zip(b.as_slice()) {
            assert_eq!(x.to_bits(), y.to_bits(), "{what}: {x} vs {y}");
        }
    }

    /// Batched vs per-entry solo gemm, bitwise, for one configuration.
    fn check_case(m: usize, n: usize, k: usize, shared_a: bool, shared_b: bool, seed: u64) {
        let bsz = 3;
        let shared = random(
            if shared_a { m } else { k },
            if shared_a { k } else { n },
            seed,
        );
        let each: Vec<Matrix> = (0..bsz)
            .map(|e| {
                if shared_a {
                    random(k, n, seed + 10 + e as u64)
                } else {
                    random(m, k, seed + 10 + e as u64)
                }
            })
            .collect();
        let c0: Vec<Matrix> = (0..bsz)
            .map(|e| random(m, n, seed + 20 + e as u64))
            .collect();

        // Solo reference.
        let mut solo = c0.clone();
        for e in 0..bsz {
            let (a, b) = if shared_a {
                (&shared, &each[e])
            } else {
                (&each[e], &shared)
            };
            gemm(1.7, a, Op::NoTrans, b, Op::NoTrans, 0.3, &mut solo[e]);
        }

        // Batched.
        let mut batched = c0;
        let each_refs: Vec<&Matrix> = each.iter().collect();
        let mut c_refs: Vec<&mut Matrix> = batched.iter_mut().collect();
        let (a_op, b_op) = match (shared_a, shared_b) {
            (true, false) => (GemmOperand::Shared(&shared), GemmOperand::Each(&each_refs)),
            (false, true) => (GemmOperand::Each(&each_refs), GemmOperand::Shared(&shared)),
            _ => unreachable!("one side shared in these tests"),
        };
        dgemm_strided_batched(1.7, a_op, Op::NoTrans, b_op, Op::NoTrans, 0.3, &mut c_refs);

        for e in 0..bsz {
            assert_bits_eq(&batched[e], &solo[e], &format!("entry {e} ({m}x{n}x{k})"));
        }
    }

    #[test]
    fn batched_matches_solo_bitwise_at_16_36_and_a_ragged_shape() {
        // The small systems: one row panel (16), three with a short last one
        // (36), and a shape that fills no tile. The shared operand is packed
        // by entry 0 alone; every entry must still get the solo bits.
        check_case(16, 16, 16, true, false, 1);
        check_case(16, 16, 16, false, true, 2);
        check_case(36, 36, 36, true, false, 7);
        check_case(36, 36, 36, false, true, 8);
        check_case(7, 13, 5, true, false, 3);
    }

    #[test]
    fn batched_matches_solo_bitwise_at_64_and_past_one_slab() {
        check_case(64, 64, 64, true, false, 4);
        check_case(64, 64, 64, false, true, 5);
        // Odd edges and a k past one KC slab.
        check_case(61, 53, 300, true, false, 6);
    }

    #[test]
    fn each_each_matches_solo_bitwise() {
        let bsz = 2;
        let a: Vec<Matrix> = (0..bsz).map(|e| random(64, 64, 30 + e as u64)).collect();
        let b: Vec<Matrix> = (0..bsz).map(|e| random(64, 64, 40 + e as u64)).collect();
        let mut solo: Vec<Matrix> = (0..bsz).map(|_| Matrix::zeros(64, 64)).collect();
        for e in 0..bsz {
            gemm(
                1.0,
                &a[e],
                Op::NoTrans,
                &b[e],
                Op::NoTrans,
                0.0,
                &mut solo[e],
            );
        }
        let mut batched: Vec<Matrix> = (0..bsz).map(|_| Matrix::zeros(64, 64)).collect();
        let a_refs: Vec<&Matrix> = a.iter().collect();
        let b_refs: Vec<&Matrix> = b.iter().collect();
        let mut c_refs: Vec<&mut Matrix> = batched.iter_mut().collect();
        dgemm_strided_batched(
            1.0,
            GemmOperand::Each(&a_refs),
            Op::NoTrans,
            GemmOperand::Each(&b_refs),
            Op::NoTrans,
            0.0,
            &mut c_refs,
        );
        for e in 0..bsz {
            assert_bits_eq(&batched[e], &solo[e], &format!("each-each entry {e}"));
        }
    }

    #[test]
    fn transposed_operands_supported() {
        // The crowd paths use NoTrans only, but the driver mirrors gemm's
        // full Op surface; spot-check a Trans combination bitwise.
        let a = random(64, 70, 50);
        let bs: Vec<Matrix> = (0..2).map(|e| random(64, 66, 60 + e as u64)).collect();
        let mut solo: Vec<Matrix> = (0..2).map(|_| Matrix::zeros(70, 66)).collect();
        for e in 0..2 {
            gemm(1.0, &a, Op::Trans, &bs[e], Op::NoTrans, 0.0, &mut solo[e]);
        }
        let mut batched: Vec<Matrix> = (0..2).map(|_| Matrix::zeros(70, 66)).collect();
        let b_refs: Vec<&Matrix> = bs.iter().collect();
        let mut c_refs: Vec<&mut Matrix> = batched.iter_mut().collect();
        dgemm_strided_batched(
            1.0,
            GemmOperand::Shared(&a),
            Op::Trans,
            GemmOperand::Each(&b_refs),
            Op::NoTrans,
            0.0,
            &mut c_refs,
        );
        for e in 0..2 {
            assert_bits_eq(&batched[e], &solo[e], &format!("trans entry {e}"));
        }
    }

    #[test]
    fn empty_batch_is_a_no_op() {
        let a = random(4, 4, 70);
        let mut cs: Vec<&mut Matrix> = Vec::new();
        dgemm_strided_batched(
            1.0,
            GemmOperand::Shared(&a),
            Op::NoTrans,
            GemmOperand::Shared(&a),
            Op::NoTrans,
            0.0,
            &mut cs,
        );
    }

    #[test]
    fn qrp_batched_matches_solo_bitwise() {
        let ms: Vec<Matrix> = (0..4).map(|e| random(32, 32, 80 + e as u64)).collect();
        let solo: Vec<QrpFactors> = ms.iter().map(|m| qrp::qrp_in_place(m.clone())).collect();
        let batched = qrp_batched(ms);
        assert_eq!(batched.len(), solo.len());
        for (e, (b, s)) in batched.iter().zip(&solo).enumerate() {
            assert_bits_eq(&b.a, &s.a, &format!("qrp entry {e} packed factors"));
            assert_eq!(b.jpvt, s.jpvt, "qrp entry {e} pivots");
            for (x, y) in b.tau.iter().zip(&s.tau) {
                assert_eq!(x.to_bits(), y.to_bits(), "qrp entry {e} tau");
            }
        }
    }

    #[test]
    #[should_panic(expected = "inner dimensions")]
    fn shape_mismatch_panics() {
        let a = random(4, 3, 99);
        let b = random(4, 4, 98);
        let mut c = Matrix::zeros(4, 4);
        let mut cs = vec![&mut c];
        dgemm_strided_batched(
            1.0,
            GemmOperand::Shared(&a),
            Op::NoTrans,
            GemmOperand::Shared(&b),
            Op::NoTrans,
            0.0,
            &mut cs,
        );
    }
}
