//! Batched device kernels: one launch services every walker of a call.
//!
//! Clustering amortises PCIe transfers over the `k` GEMMs of a cluster —
//! the paper's §III lever. These kernels add the second amortisation axis:
//! the batched driver calls ([`Device::try_dgemm_strided_batched`] and
//! friends) submit all B walkers of a call per kernel launch and move their
//! operands as one stacked PCIe transaction, so launch overhead and
//! transfer latency are paid once per call instead of once per walker.
//! They are the only bit-exact device kernels: a solo call
//! ([`crate::wrap::try_wrap_on_device_bitexact_into`],
//! [`crate::cluster::try_cluster_custom_kernel`]) is a batch of one, and at
//! B = 1 every batched [`Device`] op charges exactly what its per-matrix
//! form does.
//!
//! The deterministic-execution contract: entry `i` of every batched kernel
//! issues exactly the floating-point op sequence the host path issues for
//! walker `i`, so batching is *unobservable in the numerics* — a call over B
//! walkers produces bit-identical matrices to B calls over one. Only the
//! simulated cost accounting changes.

use crate::device::{DGemmOperand, DMatrix, Device};
use crate::faults::DeviceError;
use dqmc::{BMatrixFactory, HsField, Spin};
use linalg::{workspace, Matrix};

/// Batched bit-exact wrap: `outs[i] ← B_l(h_i)·gs[i]·B_l(h_i)⁻¹` for every
/// walker, issuing per entry the host path's exact op order (row-scale,
/// GEMM, col-scale, GEMM — `BMatrixFactory::wrap_into`) as separate device
/// launches, so each downloaded matrix is bit-identical to the host wrap.
///
/// Cost shape: **4 kernel launches** for the whole call (two batched
/// scales, two strided-batched GEMMs) instead of `4·B`, and four stacked
/// PCIe transactions (G stack down, two diagonal stacks down, product stack
/// back) instead of `4·B`, so per-transfer latency is paid once per call.
/// No finiteness check is performed on the download — the recovery-aware
/// caller scans each walker's matrix.
#[allow(clippy::too_many_arguments)]
pub fn try_wrap_crowd_bitexact_into(
    dev: &mut Device,
    expk_dev: &DMatrix,
    expk_inv_dev: &DMatrix,
    fac: &BMatrixFactory,
    hs: &[&HsField],
    l: usize,
    spin: Spin,
    gs: &[&Matrix],
    outs: &mut [&mut Matrix],
) -> Result<(), DeviceError> {
    let b = hs.len();
    assert!(gs.len() == b && outs.len() == b);
    if b == 0 {
        return Ok(());
    }
    let n = fac.nsites();
    for (g, out) in gs.iter().zip(outs.iter()) {
        assert!(g.nrows() == n && g.ncols() == n);
        assert!(out.nrows() == n && out.ncols() == n);
    }
    let mut dgs = dev.set_matrix_stack(gs);
    let mut vhs: Vec<Vec<f64>> = hs.iter().map(|h| fac.v_diag(h, l, spin)).collect();
    // Inner closure so the staging diagonals return to the workspace pool on
    // every exit path, including early faults.
    let r = (|| {
        let vrefs: Vec<&[f64]> = vhs.iter().map(|v| v.as_slice()).collect();
        let dvs = dev.set_vector_stack(&vrefs);
        // diag(v_i)·G_i — the host's b_mul_left_into row scaling, batched.
        dev.try_scale_rows_kernel_batched(&dvs, &mut dgs)?;
        // e^{−ΔτK} · (V_i G_i): one strided-batched GEMM with the shared
        // resident read B times.
        let mut ts = dev.try_alloc_stack(n, n, b)?;
        dev.try_dgemm_strided_batched(
            1.0,
            DGemmOperand::Shared(expk_dev),
            DGemmOperand::Each(&dgs),
            0.0,
            &mut ts,
        )?;
        // (·)·diag(v_i)⁻¹ — the host's b_inv_mul_right_into inverts after
        // the first GEMM; 1/x is exact in the same order here.
        for vh in vhs.iter_mut() {
            for x in vh.iter_mut() {
                *x = 1.0 / *x;
            }
        }
        let vinvrefs: Vec<&[f64]> = vhs.iter().map(|v| v.as_slice()).collect();
        let dvinvs = dev.set_vector_stack(&vinvrefs);
        dev.try_scale_cols_kernel_batched(&dvinvs, &mut ts)?;
        // · e^{+ΔτK}
        let mut prods = dev.try_alloc_stack(n, n, b)?;
        dev.try_dgemm_strided_batched(
            1.0,
            DGemmOperand::Each(&ts),
            DGemmOperand::Shared(expk_inv_dev),
            0.0,
            &mut prods,
        )?;
        let prefs: Vec<&DMatrix> = prods.iter().collect();
        dev.get_matrix_stack_into(&prefs, outs);
        Ok(())
    })();
    for vh in vhs {
        workspace::put(vh);
    }
    r
}

/// Batched cluster product (Algorithms 4+5 with the custom one-launch
/// scaling kernels): `B_{hi−1}(h_i) ⋯ B_{lo}(h_i)` for every walker, per
/// entry in the host's op order — bit-identical to
/// [`BMatrixFactory::cluster`]. Returns a [`DeviceError`] on a scheduled
/// launch failure or arena exhaustion and performs **no finiteness check**
/// on the download.
///
/// The `k` diagonal stacks go down as one stacked transfer per slice and
/// each slice costs one batched scale plus one strided-batched GEMM for the
/// whole call; the B products come back in a single stacked download. Only
/// the initial `e^{−ΔτK}` seeding copies remain per-walker (`B` on-device
/// `dcopy` launches — no PCIe traffic).
pub fn try_cluster_crowd(
    dev: &mut Device,
    expk_dev: &DMatrix,
    fac: &BMatrixFactory,
    hs: &[&HsField],
    lo: usize,
    hi: usize,
    spin: Spin,
) -> Result<Vec<Matrix>, DeviceError> {
    let b = hs.len();
    if b == 0 {
        return Ok(Vec::new());
    }
    assert!(lo < hi && hi <= hs[0].slices());
    let n = fac.nsites();
    let mut vhs: Vec<Vec<f64>> = (0..b).map(|_| workspace::take(n)).collect();
    let r = (|| {
        let mut ts = Vec::with_capacity(b);
        for _ in 0..b {
            ts.push(dev.try_dcopy(expk_dev)?);
        }
        for (vh, h) in vhs.iter_mut().zip(hs) {
            fac.v_diag_into(h, lo, spin, vh);
        }
        let vrefs: Vec<&[f64]> = vhs.iter().map(|v| v.as_slice()).collect();
        let mut dvs = dev.set_vector_stack(&vrefs);
        dev.try_scale_cols_kernel_batched(&dvs, &mut ts)?;
        // `t`/`next` ping-pong: the GEMM writes the fresh products into the
        // other stack, then the stacks swap wholesale — one device
        // allocation per walker for the whole cluster, not one per slice.
        let mut nexts = dev.try_alloc_stack(n, n, b)?;
        for l in (lo + 1)..hi {
            for (vh, h) in vhs.iter_mut().zip(hs) {
                fac.v_diag_into(h, l, spin, vh);
            }
            let vrefs: Vec<&[f64]> = vhs.iter().map(|v| v.as_slice()).collect();
            dev.set_vector_stack_into(&vrefs, &mut dvs);
            dev.try_scale_rows_kernel_batched(&dvs, &mut ts)?;
            dev.try_dgemm_strided_batched(
                1.0,
                DGemmOperand::Shared(expk_dev),
                DGemmOperand::Each(&ts),
                0.0,
                &mut nexts,
            )?;
            std::mem::swap(&mut ts, &mut nexts);
        }
        let mut outs: Vec<Matrix> = (0..b).map(|_| Matrix::zeros(n, n)).collect();
        {
            let trefs: Vec<&DMatrix> = ts.iter().collect();
            let mut orefs: Vec<&mut Matrix> = outs.iter_mut().collect();
            dev.get_matrix_stack_into(&trefs, &mut orefs);
        }
        Ok(outs)
    })();
    for vh in vhs {
        workspace::put(vh);
    }
    r
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DeviceBackend;
    use crate::cluster::upload_expk;
    use crate::device::DeviceSpec;
    use crate::faults::FaultPlan;
    use crate::wrap::{try_wrap_on_device_bitexact_into, upload_expk_inv};
    use dqmc::{chain_seed, Crowd, ModelParams, SimParams, Simulation};
    use lattice::Lattice;

    fn setup(b: usize) -> (BMatrixFactory, Vec<HsField>, Vec<Matrix>) {
        let model = ModelParams::new(Lattice::square(4, 4, 1.0), 4.0, 0.0, 0.125, 8);
        let fac = BMatrixFactory::new(&model);
        let mut hs = Vec::new();
        let mut gs = Vec::new();
        for c in 0..b {
            let mut rng = util::Rng::new(40 + c as u64);
            let h = HsField::random(16, 8, &mut rng);
            gs.push(dqmc::greens::greens_naive(&fac, &h, Spin::Up).g);
            hs.push(h);
        }
        (fac, hs, gs)
    }

    #[test]
    fn crowd_wrap_is_bit_identical_to_solo_bitexact_wraps() {
        let b = 4;
        let (fac, hs, gs) = setup(b);
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let ek = upload_expk(&mut dev, &fac);
        let eki = upload_expk_inv(&mut dev, &fac);

        let hrefs: Vec<&HsField> = hs.iter().collect();
        let grefs: Vec<&Matrix> = gs.iter().collect();
        let mut crowd_outs: Vec<Matrix> = (0..b).map(|_| Matrix::zeros(16, 16)).collect();
        let mut orefs: Vec<&mut Matrix> = crowd_outs.iter_mut().collect();
        try_wrap_crowd_bitexact_into(
            &mut dev,
            &ek,
            &eki,
            &fac,
            &hrefs,
            0,
            Spin::Up,
            &grefs,
            &mut orefs,
        )
        .unwrap();

        for i in 0..b {
            let mut solo = Matrix::zeros(16, 16);
            try_wrap_on_device_bitexact_into(
                &mut dev,
                &ek,
                &eki,
                &fac,
                &hs[i],
                0,
                Spin::Up,
                &gs[i],
                &mut solo,
            )
            .unwrap();
            assert_eq!(crowd_outs[i].max_abs_diff(&solo), 0.0, "walker {i}");
            let host = dqmc::greens::wrap(&fac, &hs[i], 0, Spin::Up, &gs[i]);
            assert_eq!(crowd_outs[i].max_abs_diff(&host), 0.0, "walker {i} vs host");
        }
    }

    #[test]
    fn crowd_cluster_is_bit_identical_to_host_products() {
        let b = 3;
        let (fac, hs, _) = setup(b);
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let ek = upload_expk(&mut dev, &fac);
        let hrefs: Vec<&HsField> = hs.iter().collect();
        let prods = try_cluster_crowd(&mut dev, &ek, &fac, &hrefs, 0, 8, Spin::Down).unwrap();
        assert_eq!(prods.len(), b);
        for (i, (p, h)) in prods.iter().zip(&hs).enumerate() {
            let want = fac.cluster(h, 0, 8, Spin::Down);
            assert_eq!(p.max_abs_diff(&want), 0.0, "walker {i}");
        }
    }

    #[test]
    fn crowd_wrap_pays_four_launches_total_and_stacked_transfers() {
        // The amortisation headline: a B=4 crowd wrap launches 4 kernels
        // (not 16) and makes 4 stacked PCIe transactions (not 16), while
        // moving exactly B× the solo byte volume.
        let b = 4usize;
        let n = 16usize;
        let (fac, hs, gs) = setup(b);
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let ek = upload_expk(&mut dev, &fac);
        let eki = upload_expk_inv(&mut dev, &fac);
        let (k0, b0) = (dev.kernels_launched(), dev.bytes_transferred());
        let hrefs: Vec<&HsField> = hs.iter().collect();
        let grefs: Vec<&Matrix> = gs.iter().collect();
        let mut outs: Vec<Matrix> = (0..b).map(|_| Matrix::zeros(n, n)).collect();
        let mut orefs: Vec<&mut Matrix> = outs.iter_mut().collect();
        try_wrap_crowd_bitexact_into(
            &mut dev,
            &ek,
            &eki,
            &fac,
            &hrefs,
            0,
            Spin::Up,
            &grefs,
            &mut orefs,
        )
        .unwrap();
        assert_eq!(dev.kernels_launched() - k0, 4);
        assert_eq!(
            (dev.bytes_transferred() - b0) as usize,
            b * (2 * n * n * 8 + 2 * n * 8)
        );

        // Same op stream solo costs 4 launches per walker.
        let (k1, _) = (dev.kernels_launched(), ());
        for i in 0..b {
            let mut out = Matrix::zeros(n, n);
            try_wrap_on_device_bitexact_into(
                &mut dev,
                &ek,
                &eki,
                &fac,
                &hs[i],
                0,
                Spin::Up,
                &gs[i],
                &mut out,
            )
            .unwrap();
        }
        assert_eq!(dev.kernels_launched() - k1, 4 * b as u64);
    }

    #[test]
    fn crowd_wrap_is_cheaper_than_solo_wraps_on_the_model_clock() {
        let b = 8usize;
        let (fac, hs, gs) = setup(b);
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let ek = upload_expk(&mut dev, &fac);
        let eki = upload_expk_inv(&mut dev, &fac);
        let hrefs: Vec<&HsField> = hs.iter().collect();
        let grefs: Vec<&Matrix> = gs.iter().collect();

        dev.reset_clock();
        let mut outs: Vec<Matrix> = (0..b).map(|_| Matrix::zeros(16, 16)).collect();
        let mut orefs: Vec<&mut Matrix> = outs.iter_mut().collect();
        try_wrap_crowd_bitexact_into(
            &mut dev,
            &ek,
            &eki,
            &fac,
            &hrefs,
            0,
            Spin::Up,
            &grefs,
            &mut orefs,
        )
        .unwrap();
        let t_crowd = dev.elapsed();

        dev.reset_clock();
        for i in 0..b {
            let mut out = Matrix::zeros(16, 16);
            try_wrap_on_device_bitexact_into(
                &mut dev,
                &ek,
                &eki,
                &fac,
                &hs[i],
                0,
                Spin::Up,
                &gs[i],
                &mut out,
            )
            .unwrap();
        }
        let t_solo = dev.elapsed();
        assert!(
            t_crowd < t_solo / 2.0,
            "B=8 crowd wrap should amortise at least 2x on small matrices: {t_crowd} !< {t_solo}/2"
        );
    }

    fn crowd_sim_params(seed: u64) -> SimParams {
        let model = ModelParams::new(Lattice::square(2, 2, 1.0), 4.0, 0.0, 0.125, 8);
        SimParams::new(model)
            .with_sweeps(4, 10)
            .with_seed(seed)
            .with_cluster_size(4)
            .with_bin_size(2)
    }

    fn crowd_of(b: usize) -> Vec<SimParams> {
        (0..b)
            .map(|c| crowd_sim_params(chain_seed(50, 0, c as u64)))
            .collect()
    }

    #[test]
    fn device_crowd_simulation_is_bit_identical_to_solo_host_runs() {
        // The full tentpole contract at the gpusim level: a complete crowd
        // simulation batched through the device backend is byte-identical,
        // walker for walker, to solo host simulations on the same seeds.
        let b = 3;
        let mut crowd = Crowd::new(crowd_of(b)).with_backend(Box::new(
            DeviceBackend::with_spec(DeviceSpec::tesla_c2050()).with_bitexact_wrap(true),
        ));
        crowd.run();
        for (c, w) in crowd.walkers().iter().enumerate() {
            let mut solo = Simulation::new(crowd_sim_params(chain_seed(50, 0, c as u64)));
            solo.run();
            assert_eq!(
                solo.greens(Spin::Up).max_abs_diff(w.greens(Spin::Up)),
                0.0,
                "walker {c}"
            );
            let s = solo.observables().jackknife_scalars();
            let d = w.observables().jackknife_scalars();
            assert_eq!(s.double_occ, d.double_occ);
            assert_eq!(s.kinetic, d.kinetic);
            assert_eq!(s.saf, d.saf);
        }
    }

    #[test]
    fn corrupted_crowd_download_heals_bit_identically() {
        // A transfer corruption lands in one walker of the stacked download;
        // the crowd ladder retries, and the final physics is byte-identical
        // to the fault-free run — mid-crowd healing is unobservable.
        let b = 3;
        let mut clean = Crowd::new(crowd_of(b)).with_backend(Box::new(
            DeviceBackend::with_spec(DeviceSpec::tesla_c2050()).with_bitexact_wrap(true),
        ));
        clean.run();

        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        dev.arm_faults(
            FaultPlan::new()
                .with_seed(9)
                .corrupt_transfer(4)
                .corrupt_transfer(11),
        );
        let mut faulty = Crowd::new(crowd_of(b))
            .with_backend(Box::new(DeviceBackend::new(dev).with_bitexact_wrap(true)));
        faulty.run();

        let healed: u64 = faulty
            .walkers()
            .iter()
            .map(|w| w.recovery_log().total())
            .sum();
        assert!(healed > 0, "the fault plan must actually fire");
        for (c, (cw, fw)) in clean.walkers().iter().zip(faulty.walkers()).enumerate() {
            assert_eq!(
                cw.greens(Spin::Up).max_abs_diff(fw.greens(Spin::Up)),
                0.0,
                "walker {c}"
            );
            let a = cw.observables().jackknife_scalars();
            let f = fw.observables().jackknife_scalars();
            assert_eq!(a.double_occ, f.double_occ);
        }
    }

    #[test]
    fn launch_storm_falls_back_to_host_bit_identically() {
        let b = 2;
        let mut clean = Crowd::new(crowd_of(b));
        clean.run();
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        let plan = (1..=40).fold(FaultPlan::new(), |p, i| p.fail_launch(i));
        dev.arm_faults(plan);
        let mut faulty = Crowd::new(crowd_of(b))
            .with_backend(Box::new(DeviceBackend::new(dev).with_bitexact_wrap(true)));
        faulty.run();
        assert_eq!(faulty.active_backend_name(), "host");
        for (cw, fw) in clean.walkers().iter().zip(faulty.walkers()) {
            let a = cw.observables().jackknife_scalars();
            let f = fw.observables().jackknife_scalars();
            assert_eq!(a.double_occ, f.double_occ);
        }
    }

    #[test]
    fn bit_flip_shrinks_one_walker_of_four_without_desynchronising_the_rest() {
        // Compute op 130 is walker 1's entry of the first batched cluster
        // call (ops 1–128 are the wraps of slices 0–3): a finite, wrong
        // product that only the wrap-vs-recompute monitor can see. Walker 1
        // drops its cache and halves its cluster size; the other three keep
        // k = 4 and must neither stall nor receive a neighbour's products.
        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        dev.arm_faults(FaultPlan::new().with_seed(1).flip_bit_after_op(130));
        let mut crowd = Crowd::new(crowd_of(4))
            .with_backend(Box::new(DeviceBackend::new(dev).with_bitexact_wrap(true)));
        crowd.run();
        for (c, w) in crowd.walkers().iter().enumerate() {
            let events = w.recovery_log().events();
            if c == 1 {
                assert!(
                    matches!(
                        events,
                        [dqmc::RecoveryEvent {
                            cause: dqmc::RecoveryCause::WrapDivergence { .. },
                            action: dqmc::RecoveryAction::ClusterShrink { from: 4, to: 2 },
                            ..
                        }]
                    ),
                    "{events:?}"
                );
            } else {
                assert!(events.is_empty(), "walker {c}: {events:?}");
            }
            let mut host = Simulation::new(crowd_sim_params(chain_seed(50, 0, c as u64)));
            host.run();
            if c != 1 {
                assert_eq!(host.greens(Spin::Up), w.greens(Spin::Up), "walker {c}");
                let s = host.observables().jackknife_scalars();
                let d = w.observables().jackknife_scalars();
                assert_eq!(s.double_occ, d.double_occ);
                assert_eq!(s.kinetic, d.kinetic);
            }
        }
        let victim = crowd.walker_mut(1).core_mut();
        assert_eq!(victim.runtime_cluster_size(), 2);
        for spin in Spin::BOTH {
            let naive = dqmc::greens::greens_naive(&victim.fac, &victim.h, spin);
            let diff = dqmc::greens::relative_difference(victim.greens(spin), &naive.g);
            assert!(diff < 1e-8, "{spin:?}: {diff}");
        }
    }
}
