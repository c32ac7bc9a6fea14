//! A system under `team::FORK_FLOPS` never comes near the team: after a
//! crowd sweep at N = 36 the process has no helper thread. Alone in its
//! test binary, so no other test can have spawned one.

use dqmc::{Crowd, ModelParams, SimParams};
use lattice::Lattice;

/// Names of this process's threads.
#[cfg(target_os = "linux")]
fn thread_names() -> Vec<String> {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("comm")).ok())
        .map(|name| name.trim().to_owned())
        .collect()
}

#[test]
#[cfg(target_os = "linux")]
fn a_crowd_at_n36_spawns_no_helper() {
    let model = ModelParams::new(Lattice::square(6, 6, 1.0), 4.0, 0.0, 0.125, 8);
    assert!(2 * model.nsites().pow(3) < linalg::team::FORK_FLOPS);
    let walkers = (0..4)
        .map(|w| {
            SimParams::new(model.clone())
                .with_seed(w)
                .with_sweeps(1, 2)
                .with_cluster_size(4)
        })
        .collect();
    let mut crowd = Crowd::new(walkers);
    crowd.run();
    assert!(crowd.is_complete());
    let names = thread_names();
    assert!(
        !names.iter().any(|n| n.starts_with("linalg-team")),
        "helper spawned below the flop constant: {names:?}"
    );
}
