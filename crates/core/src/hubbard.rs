//! Model and simulation parameters.
//!
//! Conventions (matching §II of the paper):
//!
//! - `H = H_T + H_V + H_μ` with hopping `t`, repulsion `U > 0`, chemical
//!   potential `μ`;
//! - the chemical potential enters the hopping matrix diagonal as
//!   `K_rr = −μ̃` with `μ̃ = μ − U/2` the particle–hole symmetric shift, so
//!   `μ̃ = 0` gives half filling (ρ = 1) for any `U` — the density studied
//!   in the paper's Figures 5–7;
//! - `β = L·Δτ`, `ν = arccosh(e^{UΔτ/2})`,
//!   `B_{l,σ} = e^{−ΔτK} e^{σν·diag(h_l)}` (see `bmat` for why the potential
//!   factor sits on the right).

use lattice::Lattice;

/// Electron spin species, σ ∈ {+, −}.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Spin {
    /// Spin up (σ = +1).
    Up,
    /// Spin down (σ = −1).
    Down,
}

impl Spin {
    /// Both species, in `[Up, Down]` order.
    pub const BOTH: [Spin; 2] = [Spin::Up, Spin::Down];

    /// The sign σ = ±1.
    #[inline]
    pub fn sign(self) -> f64 {
        match self {
            Spin::Up => 1.0,
            Spin::Down => -1.0,
        }
    }

    /// Index 0 (up) or 1 (down) for array storage.
    #[inline]
    pub fn index(self) -> usize {
        match self {
            Spin::Up => 0,
            Spin::Down => 1,
        }
    }
}

/// Physical parameters of one Hubbard-model DQMC run.
#[derive(Clone, Debug)]
pub struct ModelParams {
    /// Lattice geometry.
    pub lattice: Lattice,
    /// On-site repulsion `U ≥ 0`.
    pub u: f64,
    /// Shifted chemical potential `μ̃ = μ − U/2` (0 ⇒ half filling).
    pub mu_tilde: f64,
    /// Imaginary-time step `Δτ`.
    pub dtau: f64,
    /// Number of time slices `L` (so `β = L·Δτ`).
    pub slices: usize,
}

impl ModelParams {
    /// Creates and validates a parameter set.
    pub fn new(lattice: Lattice, u: f64, mu_tilde: f64, dtau: f64, slices: usize) -> Self {
        assert!(u >= 0.0, "repulsive Hubbard model requires U ≥ 0");
        assert!(dtau > 0.0, "Δτ must be positive");
        assert!(slices >= 1, "need at least one time slice");
        ModelParams {
            lattice,
            u,
            mu_tilde,
            dtau,
            slices,
        }
    }

    /// Number of lattice sites `N`.
    pub fn nsites(&self) -> usize {
        self.lattice.nsites()
    }

    /// Inverse temperature `β = L·Δτ`.
    pub fn beta(&self) -> f64 {
        self.slices as f64 * self.dtau
    }

    /// The sublattice signs `s` of the particle–hole identity, when it
    /// holds: at `μ̃ = 0` on a bipartite lattice, `G↓ = I − D·G↑ᵀ·D` with
    /// `D = diag(s)` for every HS field, so a walker evolves the up spin
    /// alone. `None` otherwise (both spins are evolved).
    pub(crate) fn particle_hole_signs(&self) -> Option<Vec<f64>> {
        (self.mu_tilde == 0.0)
            .then(|| self.lattice.sublattice_signs())
            .flatten()
    }

    /// Hubbard–Stratonovich coupling `ν = arccosh(e^{UΔτ/2})`.
    pub fn nu(&self) -> f64 {
        let x = (self.u * self.dtau / 2.0).exp();
        // acosh(x) for x ≥ 1; x = 1 exactly when U = 0.
        (x + (x * x - 1.0).max(0.0).sqrt()).ln()
    }
}

/// Which stratification variant evaluates the Green's function.
pub use crate::stratify::StratAlgo;

/// Acceptance rule for proposed HS flips (QUEST supports both).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Acceptance {
    /// Accept with probability `min(1, |r|)`.
    Metropolis,
    /// Accept with probability `|r| / (1 + |r|)` (detailed balance with a
    /// smoother acceptance profile; useful at strong coupling).
    HeatBath,
}

impl Acceptance {
    /// Acceptance probability for ratio magnitude `r ≥ 0`.
    #[inline]
    pub fn probability(self, r: f64) -> f64 {
        match self {
            Acceptance::Metropolis => r.min(1.0),
            Acceptance::HeatBath => r / (1.0 + r),
        }
    }
}

/// Full simulation configuration (model + algorithmic knobs).
#[derive(Clone, Debug)]
pub struct SimParams {
    /// Physics.
    pub model: ModelParams,
    /// Warmup (thermalisation) sweeps.
    pub warmup_sweeps: usize,
    /// Measurement sweeps.
    pub measure_sweeps: usize,
    /// Matrix cluster size `k` (§III-A2; paper default 10).
    pub cluster_size: usize,
    /// Delayed-update block size (QUEST uses ~32).
    pub delay_block: usize,
    /// RNG seed; a run is a pure function of `(params, seed)`.
    pub seed: u64,
    /// Green's-function algorithm (Algorithm 2 or 3).
    pub algo: StratAlgo,
    /// Reuse unchanged matrix clusters across evaluations (§III-B2).
    pub recycle: bool,
    /// Measurement bin size (sweeps per bin) for error analysis.
    pub bin_size: usize,
    /// Also measure time-dependent observables (unequal-time Green's
    /// functions at cluster-spaced τ) during measurement sweeps. This is
    /// QUEST's "dynamic" measurement mode; it adds O(N³L/k) work per sweep.
    pub measure_unequal_time: bool,
    /// Measure equal-time observables at every cluster boundary rather than
    /// once per sweep. Equal-time expectation values are τ-translation
    /// invariant, so the extra samples are valid; they are correlated, which
    /// the binned error analysis absorbs. QUEST measures this way.
    pub measure_per_cluster: bool,
    /// Flip acceptance rule.
    pub acceptance: Acceptance,
    /// Fault-recovery policy (retry / cluster-shrink / host-fallback); see
    /// [`crate::recovery`]. Enabled by default — the policy never consumes
    /// the Metropolis RNG stream, so a fault-free run is bit-identical
    /// whatever the policy says.
    pub recovery: crate::recovery::RecoveryPolicy,
}

impl SimParams {
    /// Defaults matching the paper: k = 10, delayed block 32, pre-pivoted
    /// stratification, recycling on.
    pub fn new(model: ModelParams) -> Self {
        let cluster = 10.min(model.slices).max(1);
        SimParams {
            model,
            warmup_sweeps: 100,
            measure_sweeps: 200,
            cluster_size: cluster,
            delay_block: 32,
            seed: 0,
            algo: StratAlgo::PrePivot,
            recycle: true,
            bin_size: 10,
            measure_unequal_time: false,
            measure_per_cluster: false,
            acceptance: Acceptance::Metropolis,
            recovery: crate::recovery::RecoveryPolicy::default(),
        }
    }

    /// Sets warmup and measurement sweep counts.
    pub fn with_sweeps(mut self, warmup: usize, measure: usize) -> Self {
        self.warmup_sweeps = warmup;
        self.measure_sweeps = measure;
        self
    }

    /// Sets the RNG seed.
    pub fn with_seed(mut self, seed: u64) -> Self {
        self.seed = seed;
        self
    }

    /// Selects the stratification algorithm.
    pub fn with_algo(mut self, algo: StratAlgo) -> Self {
        self.algo = algo;
        self
    }

    /// Sets the cluster size `k` (clipped to `L`; `L % k == 0` recommended).
    pub fn with_cluster_size(mut self, k: usize) -> Self {
        assert!(k >= 1);
        self.cluster_size = k.min(self.model.slices);
        self
    }

    /// Sets the delayed-update block size (1 = plain rank-1 updates).
    pub fn with_delay_block(mut self, nb: usize) -> Self {
        assert!(nb >= 1);
        self.delay_block = nb;
        self
    }

    /// Enables or disables cluster recycling.
    pub fn with_recycle(mut self, on: bool) -> Self {
        self.recycle = on;
        self
    }

    /// Sets the measurement bin size.
    pub fn with_bin_size(mut self, b: usize) -> Self {
        assert!(b >= 1);
        self.bin_size = b;
        self
    }

    /// Enables time-dependent (unequal-time) measurements.
    pub fn with_unequal_time(mut self, on: bool) -> Self {
        self.measure_unequal_time = on;
        self
    }

    /// Enables measuring at every cluster boundary within a sweep.
    pub fn with_measure_per_cluster(mut self, on: bool) -> Self {
        self.measure_per_cluster = on;
        self
    }

    /// Selects the flip acceptance rule.
    pub fn with_acceptance(mut self, a: Acceptance) -> Self {
        self.acceptance = a;
        self
    }

    /// Sets the fault-recovery policy.
    pub fn with_recovery(mut self, policy: crate::recovery::RecoveryPolicy) -> Self {
        self.recovery = policy;
        self
    }

    /// Number of clusters `L_k = ⌈L / k⌉`.
    pub fn nclusters(&self) -> usize {
        self.model.slices.div_ceil(self.cluster_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> ModelParams {
        ModelParams::new(Lattice::square(4, 4, 1.0), 4.0, 0.0, 0.125, 16)
    }

    #[test]
    fn beta_is_l_dtau() {
        let m = model();
        assert!((m.beta() - 2.0).abs() < 1e-15);
        assert_eq!(m.nsites(), 16);
    }

    #[test]
    fn nu_matches_cosh_identity() {
        let m = model();
        let nu = m.nu();
        // cosh(ν) = e^{UΔτ/2}
        assert!((nu.cosh() - (m.u * m.dtau / 2.0).exp()).abs() < 1e-12);
    }

    #[test]
    fn nu_zero_at_u_zero() {
        let m = ModelParams::new(Lattice::square(2, 2, 1.0), 0.0, 0.0, 0.1, 4);
        assert_eq!(m.nu(), 0.0);
    }

    #[test]
    fn spin_signs_and_indices() {
        assert_eq!(Spin::Up.sign(), 1.0);
        assert_eq!(Spin::Down.sign(), -1.0);
        assert_eq!(Spin::Up.index(), 0);
        assert_eq!(Spin::Down.index(), 1);
    }

    #[test]
    fn sim_params_builders() {
        let p = SimParams::new(model())
            .with_sweeps(5, 10)
            .with_seed(42)
            .with_cluster_size(8)
            .with_delay_block(16)
            .with_recycle(false)
            .with_bin_size(2);
        assert_eq!(p.warmup_sweeps, 5);
        assert_eq!(p.measure_sweeps, 10);
        assert_eq!(p.seed, 42);
        assert_eq!(p.cluster_size, 8);
        assert_eq!(p.nclusters(), 2);
        assert!(!p.recycle);
    }

    #[test]
    fn cluster_size_clipped_to_slices() {
        let m = ModelParams::new(Lattice::square(2, 2, 1.0), 1.0, 0.0, 0.1, 4);
        let p = SimParams::new(m).with_cluster_size(100);
        assert_eq!(p.cluster_size, 4);
        assert_eq!(p.nclusters(), 1);
    }

    #[test]
    fn acceptance_probabilities() {
        assert_eq!(Acceptance::Metropolis.probability(2.0), 1.0);
        assert_eq!(Acceptance::Metropolis.probability(0.25), 0.25);
        assert!((Acceptance::HeatBath.probability(1.0) - 0.5).abs() < 1e-15);
        assert!((Acceptance::HeatBath.probability(3.0) - 0.75).abs() < 1e-15);
        assert_eq!(Acceptance::HeatBath.probability(0.0), 0.0);
    }

    #[test]
    #[should_panic(expected = "U ≥ 0")]
    fn negative_u_rejected() {
        let _ = ModelParams::new(Lattice::square(2, 2, 1.0), -1.0, 0.0, 0.1, 4);
    }
}
