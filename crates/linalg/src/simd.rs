//! Runtime-dispatched SIMD micro-kernels for the GEMM register tile (and
//! the unfused `axpy` of [`crate::blas1`] and plane rotation of
//! [`crate::eig`]).
//!
//! The paper's performance argument (Figure 1, Table I) rests on DGEMM
//! reaching a high fraction of machine peak; MKL gets there with
//! ISA-specific micro-kernels selected at runtime. This module reproduces
//! that structure for the blocked GEMM in [`crate::blas3`]:
//!
//! | path | tile (`MR × NR`) | registers | per k step |
//! |---|---|---|---|
//! | `avx512` | 16 × 12 | 24 acc + 2 A + 1 B of 32 `zmm` | 2 loads, 12 broadcasts, 24 FMAs |
//! | `fma` | 8 × 6 | 12 acc + 2 A + 1 B of 16 `ymm` | 2 loads, 6 broadcasts, 12 FMAs |
//! | `scalar` | 8 × 4 | — (portable loop) | 32 `f64::mul_add` |
//!
//! - the path is selected once ([`kernel_path`], `is_x86_feature_detected!`
//!   cached in a `OnceLock`): the fastest the host has, or the one
//!   `LINALG_KERNEL=scalar|fma|avx512` pins for tests and benches;
//! - a pinned path the host lacks runs the next rung of the ladder
//!   `avx512 → fma → scalar` ([`KernelPath::or_fallback`]), never a slower
//!   one than it must.
//!
//! Numerics: every tile fuses each multiply-add (one rounding, not two; the
//! scalar tile through `f64::mul_add`, correctly rounded on every target),
//! so the three paths are **bit-identical**: an element of C is one lane of
//! one accumulator, which receives `fma(a[i,p], b[p,j], acc)` for `p`
//! ascending from a zero start whatever the tile's shape, then
//! `C += alpha · acc` as a multiply and an add. The tile shape decides which
//! elements share a register, not what any of them is — nor does the way a
//! tile reaches C (`avx512`: from the registers under a row mask, at half
//! height for a short last row panel; `fma` and `scalar`: a stack tile and
//! the clipped loop `c += alpha * v`). Every product reaches one of these
//! tiles, from 1×1×1 up, so the contract covers every size —
//! `tests/kernel_paths.rs` pins it on all of them, and every path against
//! the naive loop. The scalar tile pays for it: without a native FMA the
//! `mul_add` is a libm call.

use std::sync::OnceLock;

/// Which GEMM micro-kernel the blocked driver uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum KernelPath {
    /// Portable scalar 8×4 register tile (`f64::mul_add`; bit-identical to
    /// the SIMD tiles; always available).
    Scalar,
    /// AVX2+FMA 8×6 register tile (`x86_64` with avx2+fma only).
    Fma,
    /// AVX-512F 16×12 register tile (`x86_64` with avx512f only);
    /// bit-identical to [`KernelPath::Fma`].
    Avx512,
}

/// Every path, fastest first: the order [`KernelPath::or_fallback`] descends.
const LADDER: [KernelPath; 3] = [KernelPath::Avx512, KernelPath::Fma, KernelPath::Scalar];

impl KernelPath {
    /// Micro-tile height (rows of packed A panels) for this path.
    pub fn mr(self) -> usize {
        match self {
            KernelPath::Scalar | KernelPath::Fma => 8,
            KernelPath::Avx512 => 16,
        }
    }

    /// Micro-tile width (columns of packed B panels) for this path.
    pub fn nr(self) -> usize {
        match self {
            KernelPath::Scalar => 4,
            KernelPath::Fma => 6,
            KernelPath::Avx512 => 12,
        }
    }

    /// Stable name used by `LINALG_KERNEL` and the bench JSON.
    pub fn name(self) -> &'static str {
        match self {
            KernelPath::Scalar => "scalar",
            KernelPath::Fma => "fma",
            KernelPath::Avx512 => "avx512",
        }
    }

    /// Whether this path can run on the current host.
    pub fn available(self) -> bool {
        match self {
            KernelPath::Scalar => true,
            KernelPath::Fma => fma_detected(),
            KernelPath::Avx512 => avx512_detected(),
        }
    }

    /// This path when the host has it, otherwise the fastest one below it:
    /// `avx512 → fma → scalar`. A pinned AVX-512 run on an AVX2-only host
    /// therefore runs the FMA tile, not the far slower scalar one.
    pub fn or_fallback(self) -> KernelPath {
        self.or_fallback_on(KernelPath::available)
    }

    /// [`KernelPath::or_fallback`] against a stated host (unit-testable).
    fn or_fallback_on(self, has: impl Fn(KernelPath) -> bool) -> KernelPath {
        let mut from_self = LADDER.into_iter().skip_while(|&p| p != self);
        from_self.find(|&p| has(p)).unwrap_or(KernelPath::Scalar)
    }
}

/// True when the host supports the AVX2+FMA kernel.
#[cfg(target_arch = "x86_64")]
fn fma_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx2") && std::arch::is_x86_feature_detected!("fma")
}

/// True when the host supports the AVX-512F kernel.
#[cfg(target_arch = "x86_64")]
fn avx512_detected() -> bool {
    std::arch::is_x86_feature_detected!("avx512f")
}

/// Non-x86_64 hosts never support the FMA kernel.
#[cfg(not(target_arch = "x86_64"))]
fn fma_detected() -> bool {
    false
}

/// Non-x86_64 hosts never support the AVX-512 kernel.
#[cfg(not(target_arch = "x86_64"))]
fn avx512_detected() -> bool {
    false
}

static DISPATCH: OnceLock<KernelPath> = OnceLock::new();

/// The process-wide kernel path: the `LINALG_KERNEL` override when set,
/// otherwise the fastest detected path. A pinned path the host lacks runs
/// the next one down the ladder and an unrecognised value runs
/// auto-detection, each with one warning on stderr. Computed once and cached.
pub fn kernel_path() -> KernelPath {
    *DISPATCH.get_or_init(|| {
        let request = std::env::var("LINALG_KERNEL").ok();
        let (path, warning) = select_kernel_path(request.as_deref(), KernelPath::available);
        if let Some(w) = warning {
            eprintln!("linalg: {w}");
        }
        path
    })
}

/// Uncached selection logic behind [`kernel_path`], against a stated request
/// and host: the path to run and the warning to print, if any.
fn select_kernel_path(
    request: Option<&str>,
    has: impl Fn(KernelPath) -> bool,
) -> (KernelPath, Option<String>) {
    let best = KernelPath::Avx512.or_fallback_on(&has);
    let Some(request) = request else {
        return (best, None);
    };
    let name = request.to_ascii_lowercase();
    let Some(pinned) = LADDER.into_iter().find(|p| p.name() == name) else {
        let w = format!("unknown LINALG_KERNEL value {request:?}; using auto-detection");
        return (best, Some(w));
    };
    let path = pinned.or_fallback_on(&has);
    let warning = (path != pinned).then(|| {
        format!(
            "LINALG_KERNEL={} requested but the host lacks it; using {}",
            pinned.name(),
            path.name()
        )
    });
    (path, warning)
}

/// AVX2+FMA micro-kernel: an 8×6 register tile over packed panels.
///
/// `apanel` holds `kc` steps of 8 A values (k-major), `bpanel` holds `kc`
/// steps of 6 B values. `acc` points to a zero-initialised column-major
/// 8×6 tile (`acc[j*8 + i]`), which receives
/// `acc[j][i] = Σ_p apanel[p*8+i] · bpanel[p*6+j]`.
///
/// Register budget: 12 accumulators + 2 A vectors + 1 B broadcast = 15 of
/// the 16 `ymm` registers — the classic BLIS-style occupancy.
///
/// # Safety
///
/// Caller must ensure the host supports AVX2 and FMA (checked by
/// [`KernelPath::available`]), `apanel.len() ≥ kc*8`, `bpanel.len() ≥ kc*6`,
/// and `acc` is valid for 48 writes.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2,fma")]
pub(crate) unsafe fn micro_kernel_fma_8x6(
    kc: usize,
    apanel: &[f64],
    bpanel: &[f64],
    acc: *mut f64,
) {
    use std::arch::x86_64::*;
    debug_assert!(apanel.len() >= kc * 8);
    debug_assert!(bpanel.len() >= kc * 6);

    let mut c00 = _mm256_setzero_pd();
    let mut c01 = _mm256_setzero_pd();
    let mut c10 = _mm256_setzero_pd();
    let mut c11 = _mm256_setzero_pd();
    let mut c20 = _mm256_setzero_pd();
    let mut c21 = _mm256_setzero_pd();
    let mut c30 = _mm256_setzero_pd();
    let mut c31 = _mm256_setzero_pd();
    let mut c40 = _mm256_setzero_pd();
    let mut c41 = _mm256_setzero_pd();
    let mut c50 = _mm256_setzero_pd();
    let mut c51 = _mm256_setzero_pd();

    let mut ap = apanel.as_ptr();
    let mut bp = bpanel.as_ptr();
    for _ in 0..kc {
        let a0 = _mm256_loadu_pd(ap);
        let a1 = _mm256_loadu_pd(ap.add(4));

        let b0 = _mm256_broadcast_sd(&*bp);
        c00 = _mm256_fmadd_pd(a0, b0, c00);
        c01 = _mm256_fmadd_pd(a1, b0, c01);
        let b1 = _mm256_broadcast_sd(&*bp.add(1));
        c10 = _mm256_fmadd_pd(a0, b1, c10);
        c11 = _mm256_fmadd_pd(a1, b1, c11);
        let b2 = _mm256_broadcast_sd(&*bp.add(2));
        c20 = _mm256_fmadd_pd(a0, b2, c20);
        c21 = _mm256_fmadd_pd(a1, b2, c21);
        let b3 = _mm256_broadcast_sd(&*bp.add(3));
        c30 = _mm256_fmadd_pd(a0, b3, c30);
        c31 = _mm256_fmadd_pd(a1, b3, c31);
        let b4 = _mm256_broadcast_sd(&*bp.add(4));
        c40 = _mm256_fmadd_pd(a0, b4, c40);
        c41 = _mm256_fmadd_pd(a1, b4, c41);
        let b5 = _mm256_broadcast_sd(&*bp.add(5));
        c50 = _mm256_fmadd_pd(a0, b5, c50);
        c51 = _mm256_fmadd_pd(a1, b5, c51);

        ap = ap.add(8);
        bp = bp.add(6);
    }

    _mm256_storeu_pd(acc, c00);
    _mm256_storeu_pd(acc.add(4), c01);
    _mm256_storeu_pd(acc.add(8), c10);
    _mm256_storeu_pd(acc.add(12), c11);
    _mm256_storeu_pd(acc.add(16), c20);
    _mm256_storeu_pd(acc.add(20), c21);
    _mm256_storeu_pd(acc.add(24), c30);
    _mm256_storeu_pd(acc.add(28), c31);
    _mm256_storeu_pd(acc.add(32), c40);
    _mm256_storeu_pd(acc.add(36), c41);
    _mm256_storeu_pd(acc.add(40), c50);
    _mm256_storeu_pd(acc.add(44), c51);
}

/// The AVX-512 register tile: 12 columns of `H` `zmm` each over packed
/// 16×12 panels — `acc[j][h]` holds rows `8h..8h+8` of column `j`, every lane
/// `Σ_p apanel[p*16+i] · bpanel[p*12+j]` fused in `p` order from zero. `H = 2`
/// is the whole 16×12 tile; `H = 1` its upper 8 rows, for a last row panel
/// of at most 8 rows (the 4 rows left of 36 after two full panels), which
/// would otherwise spend half its multiply-adds on padding.
///
/// Register budget at `H = 2`: 24 accumulators + 2 A vectors + 1 B broadcast
/// = 27 of the 32 `zmm` registers. The loops have constant bounds and unroll;
/// the array never leaves registers once this is inlined into its caller.
///
/// # Safety
///
/// `apanel.len() ≥ kc*16` and `bpanel.len() ≥ kc*12`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
#[inline]
unsafe fn accumulate_avx512<const H: usize>(
    kc: usize,
    apanel: &[f64],
    bpanel: &[f64],
) -> [[std::arch::x86_64::__m512d; H]; 12] {
    use std::arch::x86_64::*;
    debug_assert!(apanel.len() >= kc * 16);
    debug_assert!(bpanel.len() >= kc * 12);

    let mut acc = [[_mm512_setzero_pd(); H]; 12];
    let mut ap = apanel.as_ptr();
    let mut bp = bpanel.as_ptr();
    for _ in 0..kc {
        // SAFETY: step p < kc reads apanel[16p..16p+8H] (H ≤ 2) and
        // bpanel[12p..12p+12], in bounds by the caller's contract.
        unsafe {
            let a: [__m512d; H] = std::array::from_fn(|h| _mm512_loadu_pd(ap.add(8 * h)));
            for (j, accj) in acc.iter_mut().enumerate() {
                let b = _mm512_set1_pd(*bp.add(j));
                for (h, lanes) in accj.iter_mut().enumerate() {
                    *lanes = _mm512_fmadd_pd(a[h], b, *lanes);
                }
            }
            ap = ap.add(16);
            bp = bp.add(12);
        }
    }
    acc
}

/// AVX-512 micro-kernel: `C += alpha · tile` straight from the accumulators,
/// for the leading `mr × nr` corner of a 16×12 block of C at `c` with leading
/// dimension `ldc`; `H` is 2, or 1 when `mr ≤ 8`. Columns are loaded and
/// stored under a row mask (all ones for a full tile, where it costs
/// nothing: 256×256×32 reads 72–73 GFlop/s with or without an unmasked
/// branch) and clipped at `nr`, so no tile, edge or not, goes through memory
/// on its way to C. The product and the sum round separately (a multiply, then an add — not a
/// fused one), as the scalar `c += alpha * v` of the other two paths'
/// write-back does.
///
/// # Safety
///
/// Caller must ensure the host supports AVX-512F, `apanel.len() ≥ kc*16`,
/// `bpanel.len() ≥ kc*12`, `H ≤ 2`, `mr ≤ 8H`, `nr ≤ 12`, and
/// `c.add(j*ldc + i)` is valid for reads and writes for every `i < mr`,
/// `j < nr`.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
pub(crate) unsafe fn micro_kernel_avx512_update<const H: usize>(
    kc: usize,
    apanel: &[f64],
    bpanel: &[f64],
    alpha: f64,
    c: *mut f64,
    ldc: usize,
    mr: usize,
    nr: usize,
) {
    use std::arch::x86_64::*;
    debug_assert!(H <= 2 && mr <= 8 * H && nr <= 12);
    // SAFETY: the panel lengths are this function's own contract; column j's
    // loads and stores touch c[j*ldc..j*ldc+mr] only (masked-off lanes are
    // neither read nor written), valid by it too.
    unsafe {
        let tile = accumulate_avx512::<H>(kc, apanel, bpanel);
        let valpha = _mm512_set1_pd(alpha);
        let rows = (1u32 << mr) - 1;
        let masks = [rows as u8, (rows >> 8) as u8];
        for (j, col) in tile.iter().enumerate().take(nr) {
            for (h, &v) in col.iter().enumerate() {
                let cp = c.add(j * ldc + h * 8);
                let scaled = _mm512_mul_pd(valpha, v);
                let sum = _mm512_add_pd(_mm512_maskz_loadu_pd(masks[h], cp), scaled);
                _mm512_mask_storeu_pd(cp, masks[h], sum);
            }
        }
    }
}

/// `y += alpha * x` for [`crate::blas1::axpy`]: a multiply and an add per
/// element (never fused) at the widest vector width the [`kernel_path`]
/// allows. Each element is rounded twice on every path, so every path gives
/// the portable loop's bits.
pub(crate) fn axpy_unfused(alpha: f64, x: &[f64], y: &mut [f64]) {
    match kernel_path() {
        // SAFETY: `kernel_path` returns only a path the host supports.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx512 => unsafe { axpy_avx512(alpha, x, y) },
        // SAFETY: as above; the FMA path implies AVX2.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Fma => unsafe { axpy_avx2(alpha, x, y) },
        _ => axpy_loop(alpha, x, y),
    }
}

/// The loop behind [`axpy_unfused`]; the compiler vectorises it to the width
/// of the function it is inlined into.
#[inline(always)]
fn axpy_loop(alpha: f64, x: &[f64], y: &mut [f64]) {
    for (yi, &xi) in y.iter_mut().zip(x) {
        *yi += alpha * xi;
    }
}

/// # Safety
/// The host supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn axpy_avx512(alpha: f64, x: &[f64], y: &mut [f64]) {
    axpy_loop(alpha, x, y);
}

/// # Safety
/// The host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn axpy_avx2(alpha: f64, x: &[f64], y: &mut [f64]) {
    axpy_loop(alpha, x, y);
}

/// The plane rotation `x' = c·x − s·y`, `y' = s·x + c·y` for
/// [`crate::eig::sym_eig`]'s QL sweeps: two multiplies and an add or a
/// subtract per element (never fused) at the widest vector width the
/// [`kernel_path`] allows. Each element is rounded three times on every
/// path, so every path gives the portable loop's bits.
pub(crate) fn rot_unfused(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
    assert_eq!(x.len(), y.len(), "rot_unfused: length mismatch");
    match kernel_path() {
        // SAFETY: `kernel_path` returns only a path the host supports.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Avx512 => unsafe { rot_avx512(c, s, x, y) },
        // SAFETY: as above; the FMA path implies AVX2.
        #[cfg(target_arch = "x86_64")]
        KernelPath::Fma => unsafe { rot_avx2(c, s, x, y) },
        _ => rot_loop(c, s, x, y),
    }
}

/// The loop behind [`rot_unfused`]; the compiler vectorises it to the width
/// of the function it is inlined into.
#[inline(always)]
fn rot_loop(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
    for (xi, yi) in x.iter_mut().zip(y.iter_mut()) {
        let (a, b) = (*xi, *yi);
        *xi = c * a - s * b;
        *yi = s * a + c * b;
    }
}

/// # Safety
/// The host supports AVX-512F.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
unsafe fn rot_avx512(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
    rot_loop(c, s, x, y);
}

/// # Safety
/// The host supports AVX2.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
unsafe fn rot_avx2(c: f64, s: f64, x: &mut [f64], y: &mut [f64]) {
    rot_loop(c, s, x, y);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rot_gives_the_portable_loops_bits_at_every_width() {
        let mut rng = util::Rng::new(12);
        let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
        for len in [1, 7, 8, 33, 256] {
            let x0: Vec<f64> = (0..len).map(|_| rng.next_f64() - 0.5).collect();
            let y0: Vec<f64> = (0..len).map(|_| 1e3 * (rng.next_f64() - 0.5)).collect();
            let theta = 6.0 * rng.next_f64();
            let (c, s) = (theta.cos(), theta.sin());
            let (mut want_x, mut want_y) = (x0.clone(), y0.clone());
            for (xi, yi) in want_x.iter_mut().zip(want_y.iter_mut()) {
                let (a, b) = (*xi, *yi);
                *xi = c * a - s * b;
                *yi = s * a + c * b;
            }
            let (mut x, mut y) = (x0.clone(), y0.clone());
            rot_unfused(c, s, &mut x, &mut y);
            assert_eq!(bits(&x), bits(&want_x), "len {len}, dispatched, x");
            assert_eq!(bits(&y), bits(&want_y), "len {len}, dispatched, y");
            #[cfg(target_arch = "x86_64")]
            for path in [KernelPath::Avx512, KernelPath::Fma] {
                if path.available() {
                    let (mut x, mut y) = (x0.clone(), y0.clone());
                    // SAFETY: the host has this path's features.
                    unsafe {
                        match path {
                            KernelPath::Avx512 => rot_avx512(c, s, &mut x, &mut y),
                            _ => rot_avx2(c, s, &mut x, &mut y),
                        }
                    };
                    assert_eq!(bits(&x), bits(&want_x), "len {len}, {}, x", path.name());
                    assert_eq!(bits(&y), bits(&want_y), "len {len}, {}, y", path.name());
                }
            }
        }
    }

    #[test]
    fn axpy_gives_the_portable_loops_bits_at_every_width() {
        let mut rng = util::Rng::new(11);
        for len in [1, 7, 8, 33, 256] {
            let x: Vec<f64> = (0..len).map(|_| rng.next_f64() - 0.5).collect();
            let y0: Vec<f64> = (0..len).map(|_| 1e3 * (rng.next_f64() - 0.5)).collect();
            let alpha = rng.next_f64() - 0.5;
            let mut want = y0.clone();
            for (w, &xi) in want.iter_mut().zip(&x) {
                *w += alpha * xi;
            }
            let bits = |v: &[f64]| v.iter().map(|e| e.to_bits()).collect::<Vec<_>>();
            let mut got = y0.clone();
            axpy_unfused(alpha, &x, &mut got);
            assert_eq!(bits(&got), bits(&want), "len {len}, dispatched");
            #[cfg(target_arch = "x86_64")]
            for path in [KernelPath::Avx512, KernelPath::Fma] {
                if path.available() {
                    let mut got = y0.clone();
                    // SAFETY: the host has this path's features.
                    unsafe {
                        match path {
                            KernelPath::Avx512 => axpy_avx512(alpha, &x, &mut got),
                            _ => axpy_avx2(alpha, &x, &mut got),
                        }
                    };
                    assert_eq!(bits(&got), bits(&want), "len {len}, {}", path.name());
                }
            }
        }
    }

    #[test]
    fn scalar_always_available() {
        assert!(KernelPath::Scalar.available());
    }

    #[test]
    fn nr_matches_paths() {
        assert_eq!(KernelPath::Scalar.nr(), 4);
        assert_eq!(KernelPath::Fma.nr(), 6);
        assert_eq!(KernelPath::Avx512.nr(), 12);
        assert_eq!(LADDER.map(KernelPath::mr), [16, 8, 8]);
    }

    #[test]
    fn names_round_trip() {
        assert_eq!(KernelPath::Scalar.name(), "scalar");
        assert_eq!(KernelPath::Fma.name(), "fma");
        assert_eq!(KernelPath::Avx512.name(), "avx512");
    }

    #[test]
    fn unavailable_path_falls_to_the_next_rung_never_past_it() {
        use KernelPath::*;
        let avx2_host = |p| p != Avx512;
        let bare_host = |p| p == Scalar;
        assert_eq!(Avx512.or_fallback_on(avx2_host), Fma);
        assert_eq!(Avx512.or_fallback_on(bare_host), Scalar);
        assert_eq!(Fma.or_fallback_on(bare_host), Scalar);
        // A pin is a ceiling: an available lower path is never upgraded.
        for p in LADDER {
            assert_eq!(p.or_fallback_on(|_| true), p);
            assert!(p.or_fallback().available());
        }
        assert_eq!(Scalar.or_fallback_on(avx2_host), Scalar);
        assert_eq!(Fma.or_fallback_on(avx2_host), Fma);
    }

    #[test]
    fn selection_follows_the_ladder_and_warns_once_for_the_env_case() {
        use KernelPath::*;
        let avx2_host = |p| p != Avx512;
        assert_eq!(select_kernel_path(None, |_| true), (Avx512, None));
        assert_eq!(select_kernel_path(None, avx2_host), (Fma, None));
        assert_eq!(select_kernel_path(Some("AVX512"), |_| true), (Avx512, None));
        assert_eq!(select_kernel_path(Some("fma"), |_| true), (Fma, None));
        assert_eq!(select_kernel_path(Some("scalar"), |_| true), (Scalar, None));
        let (path, warning) = select_kernel_path(Some("avx512"), avx2_host);
        assert_eq!(path, Fma, "an AVX2-only host runs the FMA tile, not scalar");
        assert!(warning.expect("a fallback warns").contains("using fma"));
        let (path, warning) = select_kernel_path(Some("fma"), |p| p == Scalar);
        assert_eq!(path, Scalar);
        assert!(warning.expect("a fallback warns").contains("using scalar"));
        let (path, warning) = select_kernel_path(Some("bogus"), avx2_host);
        assert_eq!(path, Fma);
        assert!(warning
            .expect("unknown warns")
            .contains("using auto-detection"));
    }

    #[test]
    fn kernel_path_is_stable() {
        // Cached: two reads agree.
        assert_eq!(kernel_path(), kernel_path());
        assert!(kernel_path().available());
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn fma_tile_matches_scalar_reference() {
        if !KernelPath::Fma.available() {
            eprintln!("skipping: host lacks avx2+fma");
            return;
        }
        let kc = 37;
        let apanel: Vec<f64> = (0..kc * 8).map(|i| (i as f64 * 0.37).sin()).collect();
        let bpanel: Vec<f64> = (0..kc * 6).map(|i| (i as f64 * 0.61).cos()).collect();
        let mut acc = [0.0f64; 48];
        // SAFETY: availability checked above; panel lengths are kc*8 and
        // kc*6; acc holds 48 elements.
        unsafe { micro_kernel_fma_8x6(kc, &apanel, &bpanel, acc.as_mut_ptr()) };
        for j in 0..6 {
            for i in 0..8 {
                let mut s = 0.0;
                for p in 0..kc {
                    s += apanel[p * 8 + i] * bpanel[p * 6 + j];
                }
                let got = acc[j * 8 + i];
                assert!(
                    (got - s).abs() <= 1e-14 * s.abs().max(1.0),
                    "({i},{j}): {got} vs {s}"
                );
            }
        }
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn avx512_tile_matches_scalar_reference_and_the_fma_tile_exactly() {
        if !(KernelPath::Avx512.available() && KernelPath::Fma.available()) {
            eprintln!("skipping: host lacks avx512f (or avx2+fma to compare with)");
            return;
        }
        let kc = 37;
        let apanel: Vec<f64> = (0..kc * 16).map(|i| (i as f64 * 0.37).sin()).collect();
        let bpanel: Vec<f64> = (0..kc * 12).map(|i| (i as f64 * 0.61).cos()).collect();
        // The raw tile: a full update of a zero C with alpha = 1 (0 + 1·x is
        // x, and no lane sums to a signed zero here).
        let mut acc = [0.0f64; 192];
        // SAFETY: availability checked above; panel lengths are kc*16 and
        // kc*12; acc holds 12 columns of 16 elements.
        unsafe {
            micro_kernel_avx512_update::<2>(kc, &apanel, &bpanel, 1.0, acc.as_mut_ptr(), 16, 16, 12)
        };
        for j in 0..12 {
            for i in 0..16 {
                let mut s = 0.0;
                for p in 0..kc {
                    s += apanel[p * 16 + i] * bpanel[p * 12 + j];
                }
                let got = acc[j * 16 + i];
                assert!(
                    (got - s).abs() <= 1e-14 * s.abs().max(1.0),
                    "({i},{j}): {got} vs {s}"
                );
            }
        }

        // The four 8×6 tiles over the same rows and columns, bit for bit:
        // an element's chain of fused multiply-adds does not know its tile.
        for (i0, j0) in [(0, 0), (8, 0), (0, 6), (8, 6)] {
            let sub = |panel: &[f64], w: usize, o: usize, len: usize| -> Vec<f64> {
                let steps = panel.chunks(w);
                steps.flat_map(|s| &s[o..o + len]).copied().collect()
            };
            let (a8, b6) = (sub(&apanel, 16, i0, 8), sub(&bpanel, 12, j0, 6));
            let mut small = [0.0f64; 48];
            // SAFETY: avx2+fma checked above; panels hold kc*8 and kc*6
            // elements; `small` holds 48.
            unsafe { micro_kernel_fma_8x6(kc, &a8, &b6, small.as_mut_ptr()) };
            for j in 0..6 {
                for i in 0..8 {
                    let (big, small) = (acc[(j0 + j) * 16 + i0 + i], small[j * 8 + i]);
                    assert_eq!(big.to_bits(), small.to_bits(), "({i0}+{i},{j0}+{j})");
                }
            }
        }

        // Every corner of the tile, at both heights, against the raw tile
        // pushed through the scalar write-back `c += alpha * v` the other
        // paths run, on a C with ldc > 16: the masked edge form and the
        // half-height form write the same bits and nothing outside mr × nr.
        let (alpha, ldc) = (-1.7, 19);
        let c0: Vec<f64> = (0..ldc * 12).map(|i| (i as f64 * 0.11).sin()).collect();
        for mr in 1..=16 {
            for nr in 1..=12 {
                let mut c = c0.clone();
                // SAFETY: as above; `c` holds 12 columns of ldc ≥ 16 elements.
                unsafe {
                    let (cp, a, b) = (c.as_mut_ptr(), &apanel[..], &bpanel[..]);
                    if mr <= 8 {
                        micro_kernel_avx512_update::<1>(kc, a, b, alpha, cp, ldc, mr, nr)
                    } else {
                        micro_kernel_avx512_update::<2>(kc, a, b, alpha, cp, ldc, mr, nr)
                    }
                };
                for j in 0..12 {
                    for i in 0..ldc {
                        let mut want = c0[j * ldc + i];
                        if i < mr && j < nr {
                            want += alpha * acc[j * 16 + i];
                        }
                        assert_eq!(
                            c[j * ldc + i].to_bits(),
                            want.to_bits(),
                            "C({i},{j}) of a {mr}x{nr} corner"
                        );
                    }
                }
            }
        }
    }
}
