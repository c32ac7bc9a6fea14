//! Scripted fault drills: every injected failure class must complete the
//! simulation through the recovery ladder (retry → cluster shrink → host
//! fallback) instead of panicking, and one-shot faults must heal with
//! **bit-identical** observables — retries consume no Metropolis RNG.
//!
//! The device backend takes its products from the host backend, so a clean
//! device run, a healed one and a plain host run all agree to the last bit.

use dqmc::{ModelParams, RecoveryAction, SimParams, Simulation, Spin};
use gpusim::{Device, DeviceBackend, DeviceSpec, FaultPlan};
use lattice::Lattice;

fn params(seed: u64) -> SimParams {
    let model = ModelParams::new(Lattice::square(4, 4, 1.0), 4.0, 0.0, 0.125, 16);
    SimParams::new(model)
        .with_sweeps(10, 30)
        .with_seed(seed)
        .with_cluster_size(4)
        .with_bin_size(5)
}

fn device_sim(seed: u64, plan: FaultPlan) -> Simulation {
    let mut dev = Device::new(DeviceSpec::tesla_c2050());
    dev.arm_faults(plan);
    Simulation::new(params(seed)).with_backend(Box::new(DeviceBackend::new(dev)))
}

fn assert_observables_bit_identical(a: &Simulation, b: &Simulation) {
    assert_eq!(a.greens(Spin::Up), b.greens(Spin::Up), "G_up bits");
    assert_eq!(a.greens(Spin::Down), b.greens(Spin::Down), "G_dn bits");
    let (oa, ob) = (a.observables(), b.observables());
    assert_eq!(oa.density(), ob.density());
    assert_eq!(oa.double_occupancy(), ob.double_occupancy());
    assert_eq!(oa.avg_sign(), ob.avg_sign());
    assert_eq!(a.acceptance_rate().to_bits(), b.acceptance_rate().to_bits());
}

#[test]
fn clean_device_run_is_bit_identical_to_the_host_run() {
    // The entry point the CLI's `backend = gpusim` takes: placing a run on
    // the device moves its model clock and nothing else. The Green's
    // function is rebuilt from cluster products at every cluster boundary,
    // which forgives a wrap that is off in the last ulp; the wrap-drift
    // maximum (a line of `dqmc-run run`'s output) reads every wrapped G
    // directly and does not.
    let mut host = Simulation::new(params(7));
    host.run();
    let mut device = device_sim(7, FaultPlan::new());
    device.run();
    assert!(device.device_seconds() > 0.0, "the run was on the device");
    assert_eq!(device.recovery_log().total(), 0);
    assert_observables_bit_identical(&host, &device);
    assert_eq!(
        host.max_wrap_error().to_bits(),
        device.max_wrap_error().to_bits(),
        "wrap drift bits"
    );
}

#[test]
fn transfer_corruption_heals_bit_identically() {
    // Scattered one-shot D2H corruptions: some land on cluster products
    // (caught by the cache's taint scan), some on wrapped Green's functions
    // (caught by the wrap path's scan). Each heals with a clean retry.
    let mut clean = device_sim(7, FaultPlan::new());
    clean.run();
    let mut faulted = device_sim(
        7,
        FaultPlan::new()
            .with_seed(1)
            .corrupt_transfer(3)
            .corrupt_transfer(40)
            .corrupt_transfer(90)
            .corrupt_transfer(200),
    );
    faulted.run();
    let log = faulted.recovery_log();
    assert!(
        log.total() >= 4,
        "all four corruptions seen: {}",
        log.summary()
    );
    assert_observables_bit_identical(&clean, &faulted);
}

#[test]
fn arena_oom_during_clustering_retries_bit_identically() {
    // The very first device allocations happen while clustering for the
    // initial Green's function; one-shot exhaustion there must retry clean.
    let mut clean = device_sim(8, FaultPlan::new());
    clean.run();
    let mut faulted = device_sim(8, FaultPlan::new().oom_at_alloc(1).oom_at_alloc(5));
    faulted.run();
    let log = faulted.recovery_log();
    assert!(
        log.events()
            .iter()
            .any(|e| matches!(e.action, RecoveryAction::Retry { .. })),
        "OOM must surface as retries: {}",
        log.summary()
    );
    assert_observables_bit_identical(&clean, &faulted);
}

#[test]
fn persistent_launch_failure_falls_back_to_host() {
    // Every launch fails forever: retries are futile, so the ladder must
    // abandon the device. The whole run then computes on the host path,
    // bit-identical to a plain host-backend run (failed attempts consume
    // no sweep RNG).
    let mut host = Simulation::new(params(9));
    host.run();

    let mut plan = FaultPlan::new();
    for n in 1..=100_000 {
        plan = plan.fail_launch(n);
    }
    let mut faulted = device_sim(9, plan);
    faulted.run();
    let log = faulted.recovery_log();
    assert!(
        log.events()
            .iter()
            .any(|e| matches!(e.action, RecoveryAction::HostFallback)),
        "expected host fallback: {}",
        log.summary()
    );
    assert_observables_bit_identical(&host, &faulted);
}

#[test]
fn nan_poisoned_greens_repairs_at_simulation_level() {
    // Poison G between sweeps (the model of an undetected upstream
    // corruption): the sweep-start taint scan must repair before any
    // Metropolis decision reads the NaN, leaving the run bit-identical.
    let mut clean = Simulation::new(params(10));
    clean.run();

    let mut poisoned = Simulation::new(params(10));
    poisoned.step(12);
    poisoned.core_mut().poison_greens(Spin::Up, 2, 3, f64::NAN);
    while !poisoned.is_complete() {
        poisoned.step(7);
    }
    let log = poisoned.recovery_log();
    assert!(
        log.events()
            .iter()
            .any(|e| matches!(e.action, RecoveryAction::TaintRepair)),
        "expected a taint repair: {}",
        log.summary()
    );
    assert_observables_bit_identical(&clean, &poisoned);
}

#[test]
fn random_fault_storm_completes_within_tolerance() {
    // A randomized storm across all categories, including finite bit flips
    // (which are *not* bit-identity-preserving: a flipped value can steer
    // Metropolis until the wrap-divergence monitor heals it). The run must
    // complete without panicking and stay physical.
    let mut clean = device_sim(11, FaultPlan::new());
    clean.run();
    let mut faulted = device_sim(11, FaultPlan::random(33, 400, 0.02));
    faulted.run();
    assert!(faulted.is_complete());

    let (rho, rho_err) = faulted.observables().density();
    let (rho0, rho0_err) = clean.observables().density();
    let tol = 0.05 + 4.0 * (rho_err + rho0_err);
    assert!(
        (rho - rho0).abs() < tol,
        "density drifted: {rho}±{rho_err} vs {rho0}±{rho0_err}"
    );
    let (sign, _) = faulted.observables().avg_sign();
    assert!(sign.abs() <= 1.0 && sign.is_finite());
}
