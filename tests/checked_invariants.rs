//! NaN-injection tests for the `checked-invariants` feature.
//!
//! With the feature on, poisoning one factor of a stratified chain must
//! abort with a panic that names the *cluster boundary* where the taint
//! entered — not a downstream pivot-norm or orthogonality failure. With the
//! feature off, the invariant macros expand to nothing and release behaviour
//! is exactly the seed's: the taint surfaces (much later) as a low-level
//! pivot-selection failure that names no boundary.
//!
//! The same two halves hold GEMM to IEEE semantics at every size: `Inf · 0`
//! and `NaN · 0` are NaN, so a non-finite element of A must reach C whatever
//! it is multiplied by — at 4×4 as at 64×64 (the unpacked small-product loop
//! deleted in PR 22 skipped zero multipliers and let it vanish below 48³).

use dqmc::stratify::{StratAlgo, StratifyState};
use linalg::{gemm, gemm_naive, Matrix, Op};

/// Deterministic well-conditioned factor: identity plus a small dense
/// perturbation, different per `seed` so the chain is not trivial.
fn factor(n: usize, seed: u64) -> Matrix {
    let mut s = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1);
    Matrix::from_fn(n, n, |i, j| {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let r = ((s >> 33) as f64) / (1u64 << 31) as f64 - 1.0; // in [-1, 1)
        if i == j {
            1.0 + 0.1 * r
        } else {
            0.1 * r
        }
    })
}

/// Builds a chain of `len` factors and poisons the one absorbed at cluster
/// boundary `poison_at` (entry `(1, 2)`) with a NaN.
fn chain(n: usize, len: usize, poison_at: Option<usize>) -> Vec<Matrix> {
    (0..len)
        .map(|k| {
            let mut b = factor(n, k as u64);
            if poison_at == Some(k) {
                b[(1, 2)] = f64::NAN;
            }
            b
        })
        .collect()
}

fn run_chain(factors: &[Matrix], algo: StratAlgo) -> StratifyState {
    let mut st = StratifyState::new(&factors[0], algo);
    for b in &factors[1..] {
        st.push(b);
    }
    st
}

/// `A · B` of order `n` where `A[1, 2]` is `poison` and row 2 of `B` — all
/// that multiplies it — is zero: through `gemm`, and through the reference
/// loop (which no feature checks).
fn poisoned_product(n: usize, poison: f64) -> (Matrix, Matrix) {
    let mut a = factor(n, 40);
    a[(1, 2)] = poison;
    let mut b = factor(n, 41);
    for j in 0..n {
        b[(2, j)] = 0.0;
    }
    let (mut c, mut c_ref) = (Matrix::zeros(n, n), Matrix::zeros(n, n));
    gemm_naive(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c_ref);
    gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c);
    (c, c_ref)
}

/// Runs `f` expecting a panic, and returns the panic message.
fn panic_message<F: FnOnce() + std::panic::UnwindSafe>(f: F) -> String {
    let prev = std::panic::take_hook();
    // Silence the default hook's backtrace spam for the expected panic.
    std::panic::set_hook(Box::new(|_| {}));
    let res = std::panic::catch_unwind(f);
    std::panic::set_hook(prev);
    let err = res.expect_err("poisoned chain must panic");
    if let Some(s) = err.downcast_ref::<String>() {
        s.clone()
    } else if let Some(s) = err.downcast_ref::<&str>() {
        (*s).to_string()
    } else {
        panic!("panic payload was not a string");
    }
}

#[cfg(feature = "checked-invariants")]
mod checked {
    use super::*;

    #[test]
    fn poisoned_push_names_the_cluster_boundary() {
        for algo in [StratAlgo::Qrp, StratAlgo::PrePivot] {
            // Factor k is absorbed at cluster boundary k (factor 0 via `new`).
            let factors = chain(8, 6, Some(3));
            let msg = panic_message(move || {
                run_chain(&factors, algo);
            });
            assert!(
                msg.contains("stratify factor at cluster boundary 3"),
                "panic must name boundary 3, got: {msg}"
            );
            assert!(msg.contains("non-finite"), "unexpected message: {msg}");
        }
    }

    #[test]
    fn poisoned_first_factor_names_boundary_zero() {
        let factors = chain(8, 2, Some(0));
        let msg = panic_message(move || {
            run_chain(&factors, StratAlgo::Qrp);
        });
        assert!(
            msg.contains("cluster boundary 0"),
            "panic must name boundary 0, got: {msg}"
        );
    }

    #[test]
    fn non_finite_operand_trips_the_gemm_output_check_at_every_size() {
        for n in [4, 64] {
            for poison in [f64::NAN, f64::INFINITY] {
                let msg = panic_message(move || {
                    poisoned_product(n, poison);
                });
                assert!(
                    msg.contains("gemm output") && msg.contains("non-finite"),
                    "n={n} poison={poison}: {msg}"
                );
            }
        }
    }

    #[test]
    fn clean_chain_passes_all_checks() {
        for algo in [StratAlgo::Qrp, StratAlgo::PrePivot] {
            let factors = chain(8, 6, None);
            let st = run_chain(&factors, algo);
            let udt = st.udt();
            assert!(udt.d.iter().all(|d| d.is_finite()));
        }
    }
}

#[cfg(not(feature = "checked-invariants"))]
mod unchecked {
    use super::*;

    #[test]
    fn release_mode_failure_does_not_name_a_boundary() {
        // Release semantics are exactly the seed's: the invariant macros are
        // no-ops, so the taint travels until QRP's pivot selection trips over
        // a NaN column norm — a low-level message with no boundary context.
        let factors = chain(8, 6, Some(3));
        let msg = panic_message(move || {
            run_chain(&factors, StratAlgo::Qrp);
        });
        assert!(
            !msg.contains("cluster boundary"),
            "boundary naming must be gated behind checked-invariants, got: {msg}"
        );
        assert!(
            !msg.contains("invariant violation"),
            "invariant layer must be compiled out, got: {msg}"
        );
    }

    #[test]
    fn non_finite_operand_reaches_c_identically_at_every_size() {
        // Row 1 of C, and only it, is NaN — the reference loop's pattern.
        for n in [4, 64] {
            for poison in [f64::NAN, f64::INFINITY] {
                let (c, c_ref) = poisoned_product(n, poison);
                for j in 0..n {
                    for i in 0..n {
                        assert_eq!(c[(i, j)].is_nan(), i == 1, "n={n} C({i},{j})");
                        assert_eq!(c_ref[(i, j)].is_nan(), i == 1, "n={n} naive C({i},{j})");
                    }
                }
            }
        }
    }

    #[test]
    fn clean_chain_is_unaffected() {
        let factors = chain(8, 6, None);
        let st = run_chain(&factors, StratAlgo::Qrp);
        assert!(st.udt().d.iter().all(|d| d.is_finite()));
    }
}
