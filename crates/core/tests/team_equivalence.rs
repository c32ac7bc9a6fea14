//! The fork-join team must not reach a byte: runs at a size whose GEMMs
//! fork, whose spin pair splits (the Metropolis slice, wraps, cluster
//! products, recomputes) and whose `e^{∓ΔτK}` products run factor by factor,
//! with the team free, against the same runs with the team held (one thread
//! does everything).

use dqmc::{Acceptance, Crowd, ModelParams, SimParams, Simulation, StratAlgo};
use lattice::Lattice;
use linalg::team;
use util::codec::ByteWriter;

/// N = 100 (2·N³ is past `team::FORK_FLOPS`, N is `KRON_MIN_SITES`), L = 12
/// in clusters of 4, at chemical potential `mu`.
fn params(mu: f64) -> SimParams {
    let model = ModelParams::new(Lattice::square(10, 10, 1.0), 4.0, mu, 0.125, 12);
    assert!(2 * model.nsites().pow(3) >= team::FORK_FLOPS);
    assert!(model.nsites() >= dqmc::bmat::KRON_MIN_SITES);
    SimParams::new(model)
        .with_seed(17)
        .with_sweeps(2, 3)
        .with_cluster_size(4)
}

/// Observables bytes and the checkpoint image at the end of a run.
type End = (Vec<u8>, Vec<u8>);

/// One walker to the end of its run.
fn run(params: SimParams) -> End {
    let mut sim = Simulation::new(params);
    sim.run();
    let mut obs = ByteWriter::new();
    sim.observables().encode(&mut obs);
    (obs.into_bytes(), sim.checkpoint_bytes())
}

/// A crowd of two walkers, through one driver, to the end of their run.
fn run_crowd(params: SimParams) -> End {
    let walkers = (0..2).map(|w| params.clone().with_seed(17 + w)).collect();
    let mut crowd = Crowd::new(walkers);
    crowd.run();
    let mut obs = ByteWriter::new();
    for walker in crowd.walkers() {
        walker.observables().encode(&mut obs);
    }
    (obs.into_bytes(), crowd.checkpoint_bytes())
}

/// Runs `case` with the team held, then free: both must end on the same
/// bytes.
fn held_equals_free(name: &str, case: impl Fn() -> End) {
    let held = {
        let _one_thread = team::hold();
        case()
    };
    let free = case();
    assert!(held.0 == free.0, "{name}: observables bytes differ");
    assert!(held.1 == free.1, "{name}: checkpoint bytes differ");
}

#[test]
fn held_and_free_sweeps_end_on_the_same_bytes() {
    for algo in [StratAlgo::PrePivot, StratAlgo::Qrp] {
        held_equals_free(&format!("{algo:?}"), || run(params(0.0).with_algo(algo)));
    }
    // Away from half filling under the heat-bath rule: negative ratios, sign
    // flips and the second acceptance rule cross the swap.
    held_equals_free("mu = 0.5, heat bath", || {
        run(params(0.5).with_acceptance(Acceptance::HeatBath))
    });
    held_equals_free("crowd of 2", || run_crowd(params(0.0)));
    // The free runs did fork: with a second core the team's helper exists.
    #[cfg(target_os = "linux")]
    if std::thread::available_parallelism().is_ok_and(|p| p.get() > 1) {
        let helper = std::fs::read_dir("/proc/self/task")
            .expect("procfs lists this process's threads")
            .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
            .any(|name| name.starts_with("linalg-team"));
        assert!(
            helper,
            "no helper thread after sweeps past the flop constant"
        );
    }
}
