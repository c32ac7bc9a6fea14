//! The workspace arena reaches a steady state: a walker's sweeps take back
//! every buffer they return, so the bytes parked in the calling thread's
//! pool stop changing after the first sweeps. A caller that `put`s more
//! buffers than it later `take`s would park them here for the whole run.

use dqmc::sweep::DqmcCore;
use dqmc::{ModelParams, SimParams};
use lattice::Lattice;
use std::sync::Mutex;

/// The two cases run one at a time: one holds the team, which would keep
/// the other's kernels from splitting.
static ONE_AT_A_TIME: Mutex<()> = Mutex::new(());

#[test]
fn a_walkers_pool_is_steady_from_the_second_sweep() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
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

#[test]
fn at_n256_the_caller_owns_every_split_buffer() {
    let _alone = ONE_AT_A_TIME.lock().unwrap_or_else(|e| e.into_inner());
    // The paper's 16×16 at half filling: one spin, the team free, so the
    // block reflectors, the T update and the LU solves split their columns
    // over the team. Every range's scratch is leased by the caller, so the
    // caller's pool reaches a steady state and the team's helpers park
    // nothing.
    let model = ModelParams::new(Lattice::square(16, 16, 1.0), 4.0, 0.0, 0.125, 32);
    let n = model.nsites();
    let mut core = DqmcCore::new(SimParams::new(model).with_seed(1).with_cluster_size(10));
    let mut after = Vec::new();
    for _ in 0..3 {
        core.sweep(None);
        let helper = linalg::team::helper_pooled_bytes();
        after.push((linalg::workspace::pooled_bytes(), helper));
    }
    assert_eq!(after[1], after[2], "(pool, helper) after sweeps 2 and 3");
    let (pool, helper) = after[2];
    // 5.0 N² (2 636 544 B): 4.5 N² without the splits, and the two ranges'
    // leases (the triangular kernels' packing for 132 and 124 columns of B).
    let bound = 11 * n * n * std::mem::size_of::<f64>() / 2;
    assert!(pool <= bound, "{pool} pooled bytes > 5.5 N² = {bound}");
    if let Some(helper) = helper {
        assert_eq!(helper, 0, "a team helper parked scratch of its own");
    }
}
