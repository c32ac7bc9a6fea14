//! Tests of the batched kernels in [`crate::kernels`] at B > 1, and of whole
//! crowds running through them behind [`crate::DeviceBackend`].

#[cfg(test)]
mod tests {
    use crate::backend::DeviceBackend;
    use crate::device::{Device, DeviceSpec};
    use crate::device_with_residents;
    use crate::faults::FaultPlan;
    use crate::kernels::try_wrap_crowd;
    use dqmc::{
        chain_seed, BMatrixFactory, Crowd, HsField, ModelParams, SimParams, Simulation, Spin,
    };
    use lattice::Lattice;
    use linalg::Matrix;

    fn setup(b: usize) -> (ModelParams, BMatrixFactory, Vec<HsField>, Vec<Matrix>) {
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
        (model, fac, hs, gs)
    }

    /// One sweep wrap call (slice 0, spin up) over the given walkers: the
    /// host wraps, billed with one dense factor each way.
    fn wrap_call(dev: &mut Device, fac: &BMatrixFactory, hs: &[HsField], gs: &[Matrix]) {
        let mut outs: Vec<Matrix> = hs
            .iter()
            .zip(gs)
            .map(|(h, g)| dqmc::greens::wrap(fac, h, 0, Spin::Up, g))
            .collect();
        let mut orefs: Vec<&mut Matrix> = outs.iter_mut().collect();
        let n = [fac.nsites()];
        try_wrap_crowd(dev, &n, &n, &mut orefs).unwrap();
    }

    #[test]
    fn crowd_wrap_pays_four_launches_total_and_stacked_transfers() {
        // The amortisation headline: a B=4 crowd wrap launches 4 kernels
        // (not 16) and makes 4 stacked PCIe transactions (not 16), while
        // moving exactly B× the solo byte volume.
        let b = 4usize;
        let n = 16usize;
        let (model, fac, hs, gs) = setup(b);
        let mut dev = device_with_residents(&model);
        let (k0, b0) = (dev.kernels_launched(), dev.bytes_transferred());
        wrap_call(&mut dev, &fac, &hs, &gs);
        assert_eq!(dev.kernels_launched() - k0, 4);
        assert_eq!(
            (dev.bytes_transferred() - b0) as usize,
            b * (2 * n * n * 8 + 2 * n * 8)
        );

        // The same walkers one call each cost 4 launches per walker.
        let k1 = dev.kernels_launched();
        for i in 0..b {
            wrap_call(&mut dev, &fac, &hs[i..=i], &gs[i..=i]);
        }
        assert_eq!(dev.kernels_launched() - k1, 4 * b as u64);
    }

    #[test]
    fn crowd_wrap_is_cheaper_than_solo_wraps_on_the_model_clock() {
        let b = 8usize;
        let (model, fac, hs, gs) = setup(b);
        let mut dev = device_with_residents(&model);

        dev.reset_clock();
        wrap_call(&mut dev, &fac, &hs, &gs);
        let t_crowd = dev.elapsed();

        dev.reset_clock();
        for i in 0..b {
            wrap_call(&mut dev, &fac, &hs[i..=i], &gs[i..=i]);
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
        let mut crowd = Crowd::new(crowd_of(b)).with_backend(Box::new(DeviceBackend::new(
            Device::new(DeviceSpec::tesla_c2050()),
        )));
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
        let mut clean = Crowd::new(crowd_of(b)).with_backend(Box::new(DeviceBackend::new(
            Device::new(DeviceSpec::tesla_c2050()),
        )));
        clean.run();

        let mut dev = Device::new(DeviceSpec::tesla_c2050());
        dev.arm_faults(
            FaultPlan::new()
                .with_seed(9)
                .corrupt_transfer(4)
                .corrupt_transfer(11),
        );
        let mut faulty = Crowd::new(crowd_of(b)).with_backend(Box::new(DeviceBackend::new(dev)));
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
        let mut faulty = Crowd::new(crowd_of(b)).with_backend(Box::new(DeviceBackend::new(dev)));
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
        let mut crowd = Crowd::new(crowd_of(4)).with_backend(Box::new(DeviceBackend::new(dev)));
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
