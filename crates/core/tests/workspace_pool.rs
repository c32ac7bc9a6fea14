//! The workspace arena reaches a steady state: a walker's sweeps take back
//! every buffer they return, so the bytes parked in the calling thread's
//! pool stop changing after the first sweeps. A caller that `put`s more
//! buffers than it later `take`s would park them here for the whole run.

use dqmc::sweep::DqmcCore;
use dqmc::{ModelParams, SimParams};
use lattice::Lattice;

#[test]
fn a_walkers_pool_is_steady_from_the_second_sweep() {
    // 12×12 is on the factored path (N ≥ KRON_MIN_SITES); the team is held
    // so every lease is this thread's.
    let _one_thread = linalg::team::hold();
    let model = ModelParams::new(Lattice::square(12, 12, 1.0), 4.0, 0.0, 0.125, 16);
    let n = model.nsites();
    assert!(n >= dqmc::bmat::KRON_MIN_SITES);
    let mut core = DqmcCore::new(SimParams::new(model).with_seed(3).with_cluster_size(4));
    let mut after = Vec::new();
    for _ in 0..3 {
        core.sweep(None);
        after.push(linalg::workspace::pooled_bytes());
    }
    assert_eq!(after[1], after[2], "pooled bytes after sweeps 2 and 3");
    // 4.6 N² matrices' worth (766 208 B): the GEMMs' packing panels and the
    // factored products' ping-pong buffers. Mode products that leased
    // packing panels of their own would hold 5.4 N² (896 512 B).
    let bound = 5 * n * n * std::mem::size_of::<f64>();
    assert!(
        after[2] <= bound,
        "{} pooled bytes > 5 N² = {bound}",
        after[2]
    );
}
