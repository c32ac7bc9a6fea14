//! Cross-crate integration of the simulated accelerator: the device path
//! must be interchangeable with the host path inside a running DQMC
//! simulation, and its clock must charge the recorded sequences.

use dqmc::{
    chain_seed, greens_from_udt, stratify, BMatrixFactory, ComputeBackend, Crowd, DqmcError,
    HsField, ModelParams, SimParams, Simulation, Spin, StratAlgo,
};
use gpusim::{try_cluster_crowd, Device, DeviceBackend, DeviceSpec, FaultPlan};
use lattice::Lattice;
use linalg::Matrix;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn thermalised_core(lside: usize, slices: usize) -> dqmc::sweep::DqmcCore {
    let model = dqmc::ModelParams::new(Lattice::square(lside, lside, 1.0), 4.0, 0.0, 0.125, slices);
    let mut core =
        dqmc::sweep::DqmcCore::new(SimParams::new(model).with_seed(17).with_cluster_size(5));
    for _ in 0..3 {
        core.sweep(None);
    }
    core
}

#[test]
fn device_clusters_reproduce_simulation_greens() {
    // Build the Green's function of a thermalised configuration entirely
    // from the device backend's cluster matrices; must match the engine's
    // own.
    let core = thermalised_core(3, 20);
    let mut devb = DeviceBackend::new(Device::new(DeviceSpec::tesla_c2050()));
    let mut clusters: [Vec<Matrix>; 2] = [Vec::new(), Vec::new()];
    for lo in (0..20).step_by(5) {
        let products = devb.cluster(&core.fac, &Spin::BOTH, &[&core.h], lo, lo + 5);
        let [[up, dn]] = <[[Matrix; 2]; 1]>::try_from(
            products
                .unwrap()
                .into_iter()
                .map(|w| <[Matrix; 2]>::try_from(w).expect("two spins"))
                .collect::<Vec<_>>(),
        )
        .expect("one walker");
        clusters[0].push(up);
        clusters[1].push(dn);
    }
    assert!(devb.device_seconds() > 0.0);
    for spin in Spin::BOTH {
        let g = greens_from_udt(&stratify(&clusters[spin.index()], StratAlgo::PrePivot));
        let rel = dqmc::greens::relative_difference(&g.g, core.greens(spin));
        assert!(rel < 1e-9, "{spin:?}: {rel}");
    }
}

#[test]
fn simulated_time_is_deterministic() {
    let run = || {
        let core = thermalised_core(3, 20);
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let mut product = core.fac.cluster(&core.h, 0, 5, Spin::Up);
        try_cluster_crowd(&mut dev, &[9], 5, &mut [&mut product]).unwrap();
        dev.elapsed()
    };
    assert_eq!(run(), run(), "device model must be exactly reproducible");
}

// ---- the device behind the sweep driver -------------------------------------

/// Delegates to a [`DeviceBackend`] and shares its launch counts with
/// the test after the driver has taken ownership of the box.
#[derive(Debug)]
struct Probe {
    inner: DeviceBackend,
    wrap_launches: Arc<AtomicU64>,
    cluster_launches: Arc<AtomicU64>,
}

impl Probe {
    fn counted<T>(&mut self, into_wrap: bool, call: impl FnOnce(&mut DeviceBackend) -> T) -> T {
        let before = self.inner.device().kernels_launched();
        let out = call(&mut self.inner);
        let counter = if into_wrap {
            &self.wrap_launches
        } else {
            &self.cluster_launches
        };
        counter.fetch_add(
            self.inner.device().kernels_launched() - before,
            Ordering::Relaxed,
        );
        out
    }
}

impl ComputeBackend for Probe {
    fn name(&self) -> &str {
        "probe"
    }
    fn wrap(
        &mut self,
        fac: &BMatrixFactory,
        hs: &[&HsField],
        l: usize,
        gs: &[&[Matrix]],
        outs: &mut [&mut [Matrix]],
    ) -> Result<(), DqmcError> {
        self.counted(true, |be| be.wrap(fac, hs, l, gs, outs))
    }
    fn cluster(
        &mut self,
        fac: &BMatrixFactory,
        spins: &[Spin],
        hs: &[&HsField],
        lo: usize,
        hi: usize,
    ) -> Result<Vec<Vec<Matrix>>, DqmcError> {
        self.counted(false, |be| be.cluster(fac, spins, hs, lo, hi))
    }
    fn notify_fault(&mut self) {
        self.inner.notify_fault()
    }
    fn device_seconds(&self) -> f64 {
        self.inner.device_seconds()
    }
}

/// 2×2, L = 8, k = 4, 14 sweeps: chain `c` of the gpusim crowd tests. At
/// `mu_tilde` = 0 the chain evolves one spin, otherwise two.
fn run_params(c: u64, recycle: bool, mu_tilde: f64) -> SimParams {
    let model = ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, mu_tilde, 0.125, 8);
    SimParams::new(model)
        .with_sweeps(4, 10)
        .with_seed(chain_seed(50, 0, c))
        .with_cluster_size(4)
        .with_bin_size(2)
        .with_recycle(recycle)
}

fn obs_bytes(w: &dqmc::Walker) -> Vec<u8> {
    let mut bytes = util::ByteWriter::new();
    w.observables().encode(&mut bytes);
    bytes.into_bytes()
}

/// Runs `b` walkers through a probed device backend armed with `plan`;
/// returns the crowd and its (wrap, cluster) launch counts.
fn probed_run(b: u64, recycle: bool, mu_tilde: f64, plan: FaultPlan) -> (Crowd, u64, u64) {
    let (wrap_launches, cluster_launches) =
        (Arc::new(AtomicU64::new(0)), Arc::new(AtomicU64::new(0)));
    let mut dev = Device::new(DeviceSpec::tesla_c2050());
    dev.arm_faults(plan);
    let probe = Probe {
        inner: DeviceBackend::new(dev),
        wrap_launches: wrap_launches.clone(),
        cluster_launches: cluster_launches.clone(),
    };
    let params = (0..b).map(|c| run_params(c, recycle, mu_tilde)).collect();
    let mut crowd = Crowd::new(params).with_backend(Box::new(probe));
    crowd.run();
    let counts = (
        wrap_launches.load(Ordering::Relaxed),
        cluster_launches.load(Ordering::Relaxed),
    );
    (crowd, counts.0, counts.1)
}

#[test]
fn the_device_clock_charges_the_recorded_sequences() {
    // (μ̃, B, recycle, wrap launches, cluster launches, device-seconds
    // bits), recorded on the commit that put half filling on one spin: at
    // μ̃ = 0 the device is billed for the up spin alone, at μ̃ = 0.25 for
    // both — and charges, to the bit, the rows every earlier commit
    // recorded at μ̃ = 0 with two spins. How the device gets its numbers
    // must not move the model clock or a fault ordinal.
    let recorded = [
        (0.0, 1, true, 448, 224, 0x3f85c387c3d0fabd_u64),
        (0.0, 1, false, 448, 448, 0x3f8bda1ee44c5b86),
        (0.0, 4, true, 448, 308, 0x3f871b9e5c5eafca),
        (0.0, 4, false, 448, 616, 0x3f8e6e003e078587),
        (0.25, 1, true, 896, 448, 0x3f95be43dc6aca1b),
        (0.25, 1, false, 896, 896, 0x3f9bd4dafce62b7c),
        (0.25, 4, true, 896, 616, 0x3f97165a74f87ee0),
        (0.25, 4, false, 896, 1232, 0x3f9e68bc56a1549b),
    ];
    for (mu, b, recycle, wraps, clusters, seconds) in recorded {
        let (crowd, wrap_launches, cluster_launches) = probed_run(b, recycle, mu, FaultPlan::new());
        let what = format!("μ̃ = {mu}, B = {b}, recycle {recycle}");
        assert_eq!(wrap_launches, wraps, "{what}");
        assert_eq!(cluster_launches, clusters, "{what}");
        assert_eq!(crowd.device_seconds().to_bits(), seconds, "{what}");
    }
    // A failed launch and a corrupted download: two retries, charged as
    // recorded, and the healed crowd measures what the host crowd does, on
    // either path.
    for (mu, seconds) in [(0.0, 0x3f87669c33078eb9_u64), (0.25, 0x3f974dd7e5a3b006)] {
        let plan = FaultPlan::new().fail_launch(2).corrupt_transfer(6);
        let (faulted, _, _) = probed_run(4, true, mu, plan);
        assert_eq!(faulted.device_seconds().to_bits(), seconds, "μ̃ = {mu}");
        let mut host = Crowd::new((0..4).map(|c| run_params(c, true, mu)).collect());
        host.run();
        for (c, (h, d)) in host.walkers().iter().zip(faulted.walkers()).enumerate() {
            assert_eq!(obs_bytes(h), obs_bytes(d), "μ̃ = {mu}, walker {c}");
        }
        let events: u64 = faulted
            .walkers()
            .iter()
            .map(|w| w.recovery_log().total())
            .sum();
        assert_eq!(events, 2, "μ̃ = {mu}");
    }
}

#[test]
fn a_crowd_past_the_crossover_is_byte_identical_on_the_device() {
    // Byte identity holds by construction (the device bills what
    // `HostBackend` computes); this is the one end-to-end check of it,
    // below `KRON_MIN_SITES` (one dense factor) and past it (one factor
    // per lattice axis).
    for side in [4, 12] {
        let model = ModelParams::new(Lattice::square(side, side, 1.0), 4.0, 0.0, 0.125, 8);
        assert_eq!(model.nsites() >= dqmc::bmat::KRON_MIN_SITES, side == 12);
        let params: Vec<SimParams> = (0..2)
            .map(|c| {
                SimParams::new(model.clone())
                    .with_sweeps(1, 1)
                    .with_seed(chain_seed(51, 0, c))
                    .with_cluster_size(4)
                    .with_bin_size(1)
            })
            .collect();
        let mut host = Crowd::new(params.clone());
        host.run();
        let device = DeviceBackend::new(Device::new(DeviceSpec::tesla_c2050()));
        let mut dev = Crowd::new(params).with_backend(Box::new(device));
        dev.run();
        assert!(dev.device_seconds() > 0.0, "the products ran on the device");
        for (c, (h, d)) in host.walkers().iter().zip(dev.walkers()).enumerate() {
            assert_eq!(obs_bytes(h), obs_bytes(d), "{side}x{side}, walker {c}");
        }
        assert!(host.checkpoint_bytes() == dev.checkpoint_bytes());
    }
}

#[test]
fn recycling_off_sends_every_cluster_product_through_the_device() {
    // 14 sweeps × 2 boundaries × spins × 2 clusters: with recycling off
    // every one of those products is a device call, whatever B is, and the
    // physics stays the host's. Half filling bills one spin, μ̃ = 0.25 two.
    for (mu, spins) in [(0.0, 1), (0.25, 2)] {
        for b in [1, 4] {
            let (crowd, wrap_launches, cluster_launches) =
                probed_run(b, false, mu, FaultPlan::new());
            assert_eq!(
                wrap_launches,
                14 * 8 * spins * 4,
                "four launches a wrap call"
            );
            // One seeding dcopy per walker, then 1 + 2·(k − 1) batched
            // launches per call.
            assert_eq!(cluster_launches, 14 * 2 * spins * 2 * (b + 7), "B = {b}");
            let (_, _, recycled) = probed_run(b, true, mu, FaultPlan::new());
            assert!(
                recycled < cluster_launches,
                "recycling skips clean clusters"
            );
            for (c, w) in crowd.walkers().iter().enumerate() {
                assert_eq!(w.cache_stats().1, 0, "nothing is recycled");
                let mut host = Simulation::new(run_params(c as u64, false, mu));
                host.run();
                assert_eq!(host.greens(Spin::Up), w.greens(Spin::Up), "walker {c}");
                assert_eq!(obs_bytes(&host), obs_bytes(w), "walker {c}");
            }
        }
    }
}
