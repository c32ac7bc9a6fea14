//! The fork-join team must not reach a byte: a run at a size whose GEMMs
//! fork, whose spin pair splits (wraps, cluster products, recomputes) and
//! whose `e^{∓ΔτK}` products run factor by factor, with the team free,
//! against the same run with the team held (one thread does everything).

use dqmc::{ModelParams, SimParams, Simulation, StratAlgo};
use lattice::Lattice;
use linalg::team;
use util::codec::ByteWriter;

/// N = 100 (2·N³ is past `team::FORK_FLOPS`, N is `KRON_MIN_SITES`), L = 12
/// in clusters of 4.
fn params(algo: StratAlgo) -> SimParams {
    let model = ModelParams::new(Lattice::square(10, 10, 1.0), 4.0, 0.0, 0.125, 12);
    assert!(2 * model.nsites().pow(3) >= team::FORK_FLOPS);
    assert!(model.nsites() >= dqmc::bmat::KRON_MIN_SITES);
    SimParams::new(model)
        .with_seed(17)
        .with_sweeps(2, 3)
        .with_cluster_size(4)
        .with_algo(algo)
}

/// Observables bytes and the walker image at the end of a full run.
fn run(algo: StratAlgo) -> (Vec<u8>, Vec<u8>) {
    let mut sim = Simulation::new(params(algo));
    sim.run();
    let mut obs = ByteWriter::new();
    sim.observables().encode(&mut obs);
    (obs.into_bytes(), sim.checkpoint_bytes())
}

#[test]
fn held_and_free_sweeps_end_on_the_same_bytes() {
    for algo in [StratAlgo::PrePivot, StratAlgo::Qrp] {
        let held = {
            let _one_thread = team::hold();
            run(algo)
        };
        let free = run(algo);
        assert!(held.0 == free.0, "{algo:?}: observables bytes differ");
        assert!(held.1 == free.1, "{algo:?}: checkpoint bytes differ");
    }
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
