//! A system under `team::FORK_FLOPS` never comes near the team: after a
//! crowd sweep at N = 36, or the factorizations, triangular products and
//! solves of N ≤ 64, the process has no helper thread. Alone in their test
//! binary, so no other test can have spawned one.

use dqmc::{Crowd, ModelParams, SimParams};
use lattice::Lattice;
use linalg::{lu, qr, qrp, tri, Matrix};

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

#[test]
#[cfg(target_os = "linux")]
fn kernels_at_n64_and_under_spawn_no_helper() {
    // Under every cut: no block reflector, triangular call or solve of
    // these orders splits its columns, and no GEMM inside them forks.
    for n in [16, 36, 64] {
        let mut rng = util::Rng::new(n as u64);
        let a = Matrix::random(n, n, &mut rng);
        let f = qr::qr_in_place(a.clone());
        let _ = f.form_q();
        let q = f.into_q();
        let _ = qrp::qrp_in_place(a.clone());
        let mut b = a.clone();
        tri::trmm_upper(&q, &mut b);
        let mut dominant = a.clone();
        (0..n).for_each(|i| dominant[(i, i)] += n as f64);
        let mut x = a;
        lu::lu_in_place(dominant)
            .expect("diagonally dominant")
            .solve_in_place(&mut x);
    }
    let names = thread_names();
    assert!(
        !names.iter().any(|n| n.starts_with("linalg-team")),
        "helper spawned by a kernel at N ≤ 64: {names:?}"
    );
}
