//! Grid-spec files: the declarative input of a sweep campaign, and the one
//! description of a Markov chain.
//!
//! A grid spec is written in the `key = value` dialect of
//! [`util::settings`]. Its keys are two tables. [`CHAIN`] holds the 24
//! keys of one chain: lattice, model, discretisation, sweeps, algorithm,
//! measurement and recovery. The input file (`dqmc_cli::InputFile`)
//! extends the same table with its run keys, so a chain key has one name,
//! one set of aliases, one setter and one check for both front ends, and
//! [`GridSpec::point_params`] is the one place it becomes a [`SimParams`]
//! field. `SCHED` adds the campaign's scheduling keys. `dqmc-run sweep`
//! prints both tables, `dqmc-run --help` the input's. Two keys take lists,
//! `u` and `beta`, and their Cartesian product is the grid. Every other key
//! is shared by all points. Each dialect keeps its own defaults (see
//! [`GridSpec::default`]).
//! `examples/inputs/grid_smoke.sweep` is a commented example.
//!
//! Points are numbered u-major (`point = iu * nbeta + ib`); that index is
//! the `stream` coordinate of the seed hash-split, so renumbering the grid
//! is a physics change and the ordering is part of the format contract.
//!
//! The `faults` and `slot_faults` scripts are device-fault vocabulary:
//! `gpusim::faults` parses them into [`FaultPlan`]s ([`FaultPlan::parse`],
//! [`FaultPlan::parse_slots`]), reading each item with [`util::settings`].
//! This module keeps only the policy. `faults` arms every *device-placed*
//! job with the same plan, so it admits only the bit-identically-healing
//! classes (launch failures, arena exhaustion, NaN transfer corruption —
//! all healed by RNG-free retry, and latency inflation below the launch
//! deadline); finite bit flips are refused because their repair path
//! rebuilds `G` from the HS field, which is correct but not bit-identical
//! to the never-faulted stream, and sick classes belong on a pool slot.
//! `slot_faults` must name slots the pool has.

use dqmc::{Acceptance, ModelParams, RecoveryPolicy, SimParams, StratAlgo};
use gpusim::faults::Fault;
use gpusim::{DeviceSpec, FaultPlan};
use lattice::Lattice;
use util::settings::{choice, put, Dialect, Key, SettingsError, Value};

/// A declared sweep campaign: grid axes plus shared physics and scheduling
/// parameters.
#[derive(Clone, Debug)]
pub struct GridSpec {
    /// Lattice extent in x.
    pub lx: usize,
    /// Lattice extent in y.
    pub ly: usize,
    /// Stacked layers (1 = single plane).
    pub layers: usize,
    /// Periodic stacking instead of open.
    pub periodic_z: bool,
    /// In-plane hopping along x.
    pub t: f64,
    /// In-plane hopping along y (None = isotropic, same as `t`).
    pub ty: Option<f64>,
    /// Inter-layer hopping.
    pub tz: f64,
    /// Shifted chemical potential μ̃ (0 = half filling).
    pub mu: f64,
    /// Imaginary-time step Δτ.
    pub dtau: f64,
    /// Grid axis: on-site repulsion values.
    pub us: Vec<f64>,
    /// Grid axis: inverse temperatures (slices = β/Δτ, rounded).
    pub betas: Vec<f64>,
    /// Independent Markov chains per grid point.
    pub chains: usize,
    /// Crowd size B: chains batched per job, stepped in lockstep through
    /// one (batched) backend. 1 = solo jobs; larger crowds amortise kernel
    /// launches and transfer latency without changing any observable.
    pub crowd: usize,
    /// Warmup sweeps per chain.
    pub warmup: usize,
    /// Measurement sweeps per chain.
    pub sweeps: usize,
    /// Measurement bin size.
    pub bin_size: usize,
    /// Cluster size k (clamped per point to its slice count).
    pub cluster_size: usize,
    /// Delayed-update block.
    pub delay_block: usize,
    /// Stratification algorithm (Algorithm 2 or 3).
    pub algorithm: StratAlgo,
    /// Cluster recycling.
    pub recycle: bool,
    /// Measure at every cluster boundary.
    pub measure_per_cluster: bool,
    /// Flip acceptance rule.
    pub acceptance: Acceptance,
    /// Campaign base seed; chain seeds hash-split from it.
    pub seed: u64,
    /// Fault recovery ladder on/off.
    pub recovery: bool,
    /// Retry budget inside the recovery ladder.
    pub max_retries: u32,
    /// Smallest cluster size the recovery shrink may reach.
    pub min_cluster: usize,
    /// Worker threads.
    pub workers: usize,
    /// Simulated accelerator slots in the device pool.
    pub devices: usize,
    /// Sweeps per scheduling quantum (0 = run jobs to completion).
    pub quantum: usize,
    /// Scheduler-level restarts of a panicked job.
    pub job_retries: u32,
    /// Scripted faults armed on every device-placed job, unseeded: each
    /// job's copy comes from [`GridSpec::fault_plan`].
    pub faults: FaultPlan,
    /// Scripted sick-device profiles, one merged `(slot, plan, persistent)`
    /// per slot, ready for
    /// [`DevicePool::set_slot_profile`](gpusim::DevicePool::set_slot_profile).
    /// Ordinals count the slot's launches within one placement. Persistent
    /// profiles survive a breaker opening; the others heal while the slot
    /// rests in quarantine.
    pub slot_faults: Vec<(usize, FaultPlan, bool)>,
}

/// A grid spec's defaults. An input file starts from these too, except
/// warmup 100, `bin_size` 10, k 10, seed 0, and L = 32 slices where a grid
/// has β = 2.
impl Default for GridSpec {
    fn default() -> Self {
        GridSpec {
            lx: 4,
            ly: 4,
            layers: 1,
            periodic_z: false,
            t: 1.0,
            ty: None,
            tz: 1.0,
            mu: 0.0,
            dtau: 0.125,
            us: vec![4.0],
            betas: vec![2.0],
            chains: 2,
            crowd: 1,
            warmup: 50,
            sweeps: 200,
            bin_size: 5,
            cluster_size: 8,
            delay_block: 32,
            algorithm: StratAlgo::PrePivot,
            recycle: true,
            measure_per_cluster: false,
            acceptance: Acceptance::Metropolis,
            seed: 42,
            recovery: true,
            max_retries: 2,
            min_cluster: 1,
            workers: 1,
            devices: 1,
            quantum: 0,
            job_retries: 1,
            faults: FaultPlan::new(),
            slot_faults: Vec::new(),
        }
    }
}

/// One grid coordinate with its resolved discretisation.
#[derive(Clone, Copy, Debug)]
pub struct GridPoint {
    /// Flat point index (u-major) — the seed hash-split's stream id.
    pub index: usize,
    /// On-site repulsion at this point.
    pub u: f64,
    /// Inverse temperature at this point.
    pub beta: f64,
    /// Time slices `round(beta / dtau)`, at least 1.
    pub slices: usize,
}

// The choice keys' names, aliases included.
#[rustfmt::skip]
const ALGORITHMS: &[(&str, StratAlgo)] = &[
    ("qrp", StratAlgo::Qrp), ("algorithm2", StratAlgo::Qrp), ("prepivot", StratAlgo::PrePivot),
    ("pre-pivot", StratAlgo::PrePivot), ("algorithm3", StratAlgo::PrePivot),
];
#[rustfmt::skip]
const ACCEPTANCES: &[(&str, Acceptance)] = &[
    ("metropolis", Acceptance::Metropolis), ("heatbath", Acceptance::HeatBath),
    ("heat-bath", Acceptance::HeatBath),
];

/// The chain keys, which input files and grid specs share: the one place
/// each is named. `u` and `beta` take lists; an input file allows one value.
#[rustfmt::skip]
pub const CHAIN: Dialect<GridSpec> = Dialect { name: "chain", base: None, keys: &[
    Key("lx", &[], "8", |s, v| put(&mut s.lx, v)),
    Key("ly", &[], "8", |s, v| put(&mut s.ly, v)),
    Key("layers", &[], "3", |s, v| put(&mut s.layers, v)),
    Key("periodic_z", &[], "no", |s, v| put(&mut s.periodic_z, v)),
    Key("t", &["tx"], "1.0", |s, v| put(&mut s.t, v)),
    Key("ty", &[], "0.5", |s, v| f64::read(v).map(|x| s.ty = Some(x))),
    Key("tz", &[], "0.5", |s, v| put(&mut s.tz, v)),
    Key("u", &[], "4.0", |s, v| axis(&mut s.us, v, |u| u >= 0.0, "u must be non-negative (repulsive model)")),
    Key("mu", &["mu_tilde"], "0.0", |s, v| put(&mut s.mu, v)),
    Key("dtau", &[], "0.125", |s, v| put(&mut s.dtau, v)),
    Key("beta", &[], "4.0", |s, v| axis(&mut s.betas, v, |b| b > 0.0, "beta must be positive")),
    Key("warmup", &[], "100", |s, v| put(&mut s.warmup, v)),
    Key("sweeps", &[], "200", |s, v| put(&mut s.sweeps, v)),
    Key("seed", &[], "42", |s, v| put(&mut s.seed, v)),
    Key("cluster_size", &["k"], "10", |s, v| put(&mut s.cluster_size, v)),
    Key("delay_block", &[], "32", |s, v| put(&mut s.delay_block, v)),
    Key("algorithm", &[], "qrp", |s, v| choice(v, "algorithm", ALGORITHMS).map(|x| s.algorithm = x)),
    Key("recycle", &[], "yes", |s, v| put(&mut s.recycle, v)),
    Key("measure_per_cluster", &[], "no", |s, v| put(&mut s.measure_per_cluster, v)),
    Key("acceptance", &[], "heatbath", |s, v| choice(v, "acceptance", ACCEPTANCES).map(|x| s.acceptance = x)),
    Key("bin_size", &[], "10", |s, v| put(&mut s.bin_size, v)),
    Key("recovery", &[], "yes", |s, v| put(&mut s.recovery, v)),
    Key("max_retries", &[], "2", |s, v| put(&mut s.max_retries, v)),
    Key("min_cluster", &[], "1", |s, v| put(&mut s.min_cluster, v)),
]};

/// Reads the list `v` into `axis` if `ok` holds for every value, or says
/// `why` not.
fn axis(axis: &mut Vec<f64>, v: &str, ok: fn(f64) -> bool, why: &str) -> Result<(), String> {
    match Vec::<f64>::read(v)? {
        xs if xs.iter().all(|&x| ok(x)) => {
            *axis = xs;
            Ok(())
        }
        _ => Err(format!("{why}, got '{v}'")),
    }
}

/// The grid spec: the chain keys plus the campaign's scheduling keys.
#[rustfmt::skip]
const SCHED: Dialect<GridSpec> = Dialect { name: "grid spec", base: Some((&CHAIN, |s| s)), keys: &[
    Key("chains", &[], "2", |s, v| put(&mut s.chains, v)),
    Key("crowd", &[], "1", |s, v| put(&mut s.crowd, v)),
    Key("workers", &[], "2", |s, v| put(&mut s.workers, v)),
    Key("devices", &[], "1", |s, v| put(&mut s.devices, v)),
    Key("quantum", &[], "10", |s, v| put(&mut s.quantum, v)),
    Key("job_retries", &[], "1", |s, v| put(&mut s.job_retries, v)),
    Key("faults", &[], "fail_launch:2, corrupt_transfer:6", |s, v| FaultPlan::parse(v, per_job).map(|x| s.faults = x)),
    Key("slot_faults", &[], "hang@0:3", |s, v| FaultPlan::parse_slots(v).map(|x| s.slot_faults = x)),
]};

impl GridSpec {
    /// Parses a grid-spec file in the `key = value` dialect of
    /// [`util::settings`].
    pub fn parse(text: &str) -> Result<GridSpec, SettingsError> {
        let mut spec = GridSpec::default();
        SCHED.apply(&mut spec, text)?;
        spec.validate().map_err(|m| SCHED.error(0, m))?;
        Ok(spec)
    }

    /// Every grid-spec key with an example value, for usage texts.
    pub fn keys_help() -> String {
        SCHED.help()
    }

    /// What no single key can refuse: the checks across keys, and the
    /// positive counts. Both dialects run it.
    pub fn validate(&self) -> Result<(), String> {
        if self.lx == 0 || self.ly == 0 || self.layers == 0 {
            return Err("lattice dimensions must be positive".into());
        }
        if self.layers > 1 && self.ty.is_some_and(|ty| ty != self.t) {
            return Err("anisotropic in-plane hopping requires layers = 1".into());
        }
        if self.dtau <= 0.0 {
            return Err("dtau must be positive".into());
        }
        if self.us.is_empty() || self.betas.is_empty() {
            return Err("grid axes 'u' and 'beta' must be non-empty".into());
        }
        #[rustfmt::skip]
        let counts = [
            ("sweeps", self.sweeps), ("cluster_size", self.cluster_size),
            ("delay_block", self.delay_block), ("bin_size", self.bin_size),
            ("min_cluster", self.min_cluster), ("chains", self.chains),
            ("crowd", self.crowd), ("workers", self.workers),
        ];
        if let Some((name, _)) = counts.iter().find(|&&(_, n)| n == 0) {
            return Err(format!("{name} must be positive"));
        }
        if let Some((slot, ..)) = self.slot_faults.iter().find(|(s, ..)| *s >= self.devices) {
            return Err(format!(
                "slot_faults names slot {slot} but the pool has {} devices",
                self.devices
            ));
        }
        Ok(())
    }

    /// The grid points in canonical (u-major) order.
    pub fn points(&self) -> Vec<GridPoint> {
        let mut pts = Vec::with_capacity(self.us.len() * self.betas.len());
        for (iu, &u) in self.us.iter().enumerate() {
            for (ib, &beta) in self.betas.iter().enumerate() {
                let index = iu * self.betas.len() + ib;
                let slices = ((beta / self.dtau).round() as usize).max(1);
                pts.push(GridPoint {
                    index,
                    u,
                    beta,
                    slices,
                });
            }
        }
        pts
    }

    /// Total jobs the campaign schedules.
    pub fn total_jobs(&self) -> usize {
        self.us.len() * self.betas.len() * self.chains
    }

    /// The lattice the chain keys describe.
    pub fn lattice(&self) -> Lattice {
        match (self.layers, self.ty) {
            (1, Some(ty)) if ty != self.t => Lattice::anisotropic(self.lx, self.ly, self.t, ty),
            (1, _) => Lattice::square(self.lx, self.ly, self.t),
            (n, _) if self.periodic_z => {
                Lattice::multilayer_periodic(self.lx, self.ly, n, self.t, self.tz)
            }
            (n, _) => Lattice::multilayer(self.lx, self.ly, n, self.t, self.tz),
        }
    }

    /// The simulation parameters of one point, with seed 0: the one place
    /// a chain key becomes a [`SimParams`] field. A campaign's chain adds
    /// its hash-split seed ([`GridSpec::chain_params`]); an input file's
    /// run adds its raw `seed`.
    pub fn point_params(&self, point: &GridPoint) -> SimParams {
        let model = ModelParams::new(self.lattice(), point.u, self.mu, self.dtau, point.slices);
        let policy = if self.recovery {
            RecoveryPolicy {
                max_retries: self.max_retries,
                min_cluster: self.min_cluster,
                ..RecoveryPolicy::default()
            }
        } else {
            RecoveryPolicy::disabled()
        };
        SimParams::new(model)
            .with_sweeps(self.warmup, self.sweeps)
            .with_cluster_size(self.cluster_size)
            .with_delay_block(self.delay_block)
            .with_algo(self.algorithm)
            .with_recycle(self.recycle)
            .with_bin_size(self.bin_size)
            .with_measure_per_cluster(self.measure_per_cluster)
            .with_acceptance(self.acceptance)
            .with_recovery(policy)
    }

    /// The simulation parameters for one chain of one point, with the
    /// hash-split seed. This is *the* definition of the campaign's physics:
    /// every consumer (scheduler, tests, reference serial runs) must build
    /// parameters through here so they agree bit-for-bit.
    pub fn chain_params(&self, point: &GridPoint, chain: usize) -> SimParams {
        self.point_params(point)
            .with_seed(self.chain_seed(point, chain))
    }

    /// Builds the scripted device fault plan for one job, or `None` when
    /// the campaign declares no faults. The corruption RNG is seeded from
    /// the job's chain seed, so a given job misbehaves identically on every
    /// attempt and in every scheduling configuration.
    pub fn fault_plan(&self, point: &GridPoint, chain: usize) -> Option<FaultPlan> {
        if self.faults.is_empty() {
            return None;
        }
        let seed = self.chain_seed(point, chain);
        Some(self.faults.clone().with_seed(seed ^ 0xFA17_FA17_FA17_FA17))
    }

    fn chain_seed(&self, point: &GridPoint, chain: usize) -> u64 {
        dqmc::chain_seed(self.seed, point.index as u64, chain as u64)
    }
}

/// Which fault classes a per-job plan may carry: refuses `item` when its
/// `fault` would break the determinism contract or indicts the device.
fn per_job(item: &str, fault: Fault) -> Result<(), String> {
    match fault {
        Fault::BitFlip => Err(
            "flip_bit is not allowed in sweep fault plans: finite corruption \
             repairs via HS-field rebuild, which is not bit-identical to the \
             unfaulted stream and would break sweep determinism"
                .into(),
        ),
        Fault::Hang => Err(sick_per_job("'hang'")),
        Fault::SickThrough(_) => Err(sick_per_job("'sick'")),
        Fault::Slow(factor) if DeviceSpec::tesla_c2050().launch_hangs(factor) => Err(sick_per_job(
            &format!("'{item}' (a launch slowed to the launch deadline hangs)"),
        )),
        _ => Ok(()),
    }
}

/// Why a per-job fault plan may not carry `what`, a sick-class fault.
fn sick_per_job(what: &str) -> String {
    format!(
        "{what} is not allowed in per-job fault plans: sickness indicts \
         the *device*, and a job-carried sick plan would re-arm on every \
         placement, livelocking the requeue path — script it on a pool \
         slot via `slot_faults` instead"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    const SMOKE: &str = "
        # tiny campaign
        lx = 2
        ly = 2
        u = 2.0, 4.0
        beta = 1.0, 2.0   # 8 and 16 slices
        chains = 2
        warmup = 4
        sweeps = 8
        bin_size = 2
        cluster_size = 4
        seed = 7
        workers = 2
        devices = 1
        quantum = 3
        faults = fail_launch:2, corrupt_transfer:4
    ";

    #[test]
    fn parses_axes_and_scheduler_knobs() {
        let spec = GridSpec::parse(SMOKE).unwrap();
        assert_eq!(spec.us, vec![2.0, 4.0]);
        assert_eq!(spec.betas, vec![1.0, 2.0]);
        assert_eq!(spec.total_jobs(), 8);
        assert_eq!(spec.workers, 2);
        assert_eq!(spec.quantum, 3);
        assert_eq!(
            spec.faults,
            FaultPlan::new().fail_launch(2).corrupt_transfer(4)
        );
        let pts = spec.points();
        assert_eq!(pts.len(), 4);
        // u-major: (2,1) (2,2) (4,1) (4,2); slices = beta/dtau.
        assert_eq!(pts[1].u, 2.0);
        assert_eq!(pts[1].beta, 2.0);
        assert_eq!(pts[1].slices, 16);
        assert_eq!(pts[2].index, 2);
        assert_eq!(pts[2].u, 4.0);
    }

    #[test]
    fn chain_params_use_hash_split_seeds() {
        let spec = GridSpec::parse(SMOKE).unwrap();
        let pts = spec.points();
        let p00 = spec.chain_params(&pts[0], 0);
        let p01 = spec.chain_params(&pts[0], 1);
        let p10 = spec.chain_params(&pts[1], 0);
        assert_ne!(p00.seed, p01.seed);
        assert_ne!(p00.seed, p10.seed);
        assert_ne!(p01.seed, p10.seed);
        assert_eq!(p00.seed, dqmc::chain_seed(7, 0, 0));
        // Cluster size clamps to the point's slice count.
        assert_eq!(p00.cluster_size, 4);
    }

    #[test]
    fn a_one_chain_campaign_reports_what_its_simulation_reports() {
        // Doped 2x2 at β = 4: a point with a sign problem, where an error
        // bar divided by ⟨sign⟩ and a jackknifed ratio part.
        let spec = GridSpec::parse(
            "lx = 2\nly = 2\nu = 4\nmu = 1\nbeta = 4\ndtau = 0.125\nchains = 1\n\
             warmup = 20\nsweeps = 100\nbin_size = 10\nseed = 7\nworkers = 1\ndevices = 0\n",
        )
        .unwrap();
        let report = crate::run_sweep(
            &spec,
            &crate::SchedConfig::from_spec(&spec),
            &crate::EventLog::new(),
        );
        let got = report.points[0].scalars.expect("the chain completed");
        let point = spec.points()[0];
        let params = spec
            .point_params(&point)
            .with_seed(dqmc::chain_seed(spec.seed, 0, 0));
        let mut sim = dqmc::Simulation::new(params);
        sim.run();
        let obs = sim.observables();
        assert!(obs.avg_sign().0 < 1.0, "sign {:?}", obs.avg_sign());
        assert_eq!(got.sign, obs.avg_sign());
        assert_eq!(got.density, obs.density());
        assert_eq!(got.double_occ, obs.double_occupancy());
        assert_eq!(got.kinetic, obs.kinetic_energy());
        assert_eq!(got.potential, obs.potential_energy());
        assert_eq!(got.saf, obs.af_structure_factor());
    }

    #[test]
    fn unknown_keys_and_bad_faults_are_rejected() {
        // The chain keys' examples run through both dialects in
        // `dqmc_cli`'s cross-dialect test; the scheduling keys' run here.
        for Key(name, aliases, example, _) in SCHED.keys {
            for name in std::iter::once(name).chain(*aliases) {
                let text = format!("{name} = {example}");
                GridSpec::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            }
        }
        let err = GridSpec::parse("lattice = 4").unwrap_err();
        assert!(err.message.contains("unknown key"), "{err}");
        let err = GridSpec::parse("ly = 2\nlx = 0").unwrap_err();
        assert!(err.message.contains("lattice dimensions"), "{err}");
        assert_eq!(
            err.to_string(),
            "grid spec: lattice dimensions must be positive"
        );
        for (text, why) in [
            ("faults = flip_bit:3", "determinism"),
            ("faults = fail_launch:0", "1-based"),
            ("faults = hang:2", "slot_faults"),
            ("faults = sick:2", "slot_faults"),
            ("faults = slow:3:1", ">= 2"),
            ("faults = slow:1:285715", "slot_faults"),
            ("slot_faults = hang@0:0", "1-based"),
            ("slot_faults = slow@0:1:1", ">= 2"),
            ("slot_faults = sick@0:6-2", "lo > hi"),
            ("devices = 1\nslot_faults = hang@3:1", "slot_faults"),
            ("sweeps = 0", "sweeps must be positive"),
        ] {
            let err = GridSpec::parse(text).unwrap_err();
            assert!(err.message.contains(why), "{text:?}: {err}");
        }
        let err = GridSpec::parse("u = ").unwrap_err();
        assert!(err.message.contains("not a finite number"), "{err}");
        // `nan` passes `u < 0.0` and `inf` passes `dtau <= 0.0`: the parser
        // refuses both, on their line, before validation sees them.
        for (text, line) in [("u = nan, 2", 1), ("lx = 2\nt = 1\ndtau = inf", 3)] {
            let err = GridSpec::parse(text).unwrap_err();
            assert!(err.message.contains("not a finite number"), "{err}");
            assert_eq!(err.line, line, "{err}");
        }
    }

    #[test]
    fn validation_catches_empty_axes_and_zero_workers() {
        let mut spec = GridSpec::default();
        spec.us.clear();
        assert!(spec.validate().is_err());
        let spec = GridSpec {
            workers: 0,
            ..GridSpec::default()
        };
        assert!(spec.validate().is_err());
    }

    #[test]
    fn fault_plans_are_per_job_deterministic() {
        let spec = GridSpec::parse(SMOKE).unwrap();
        let pts = spec.points();
        assert!(spec.fault_plan(&pts[0], 0).is_some());
        let clean = GridSpec::default();
        assert!(clean.fault_plan(&pts[0], 0).is_none());
    }

    #[test]
    fn fault_arming_edge_cases() {
        // Ordinal 1 (the first operation) is valid — the off-by-one trap.
        let spec = GridSpec::parse("faults = fail_launch:1").unwrap();
        assert_eq!(spec.faults, FaultPlan::new().fail_launch(1));
        // Overlapping latency + corruption on the same ordinal both arm.
        let spec = GridSpec::parse("faults = slow:3:10, corrupt_transfer:3").unwrap();
        assert_eq!(
            spec.faults,
            FaultPlan::new().slow_launch(3, 10.0).corrupt_transfer(3)
        );
        let plan = spec.fault_plan(&spec.points()[0], 0).unwrap();
        assert!(!plan.is_empty());
        // Factor below 2 would be a no-op disguised as a fault.
        let err = GridSpec::parse("faults = slow:3:1").unwrap_err();
        assert!(err.message.contains(">= 2"), "{err}");
    }

    #[test]
    fn sick_classes_are_rejected_per_job_but_allowed_per_slot() {
        for op in ["hang:2", "sick:2"] {
            let err = GridSpec::parse(&format!("faults = {op}")).unwrap_err();
            assert!(err.message.contains("slot_faults"), "{err}");
        }
        let spec = GridSpec::parse(
            "devices = 3\nslot_faults = hang@1:3, sick@2:1-6!, hang@0:2, slow@1:4:100",
        )
        .unwrap();
        // Slot 1 has two ops: they merge into one profile.
        assert_eq!(
            spec.slot_faults,
            vec![
                (
                    1,
                    FaultPlan::new().hang_at_launch(3).slow_launch(4, 100.0),
                    false
                ),
                (2, FaultPlan::new().sick_window(1, 6), true),
                (0, FaultPlan::new().hang_at_launch(2), false),
            ]
        );
    }

    #[test]
    fn per_job_slow_reaching_the_launch_deadline_is_a_hang() {
        // The C2050 launches in 7 µs, so 285 715× reaches the 2 s deadline.
        let spec = GridSpec::parse("faults = slow:1:285714").unwrap();
        assert_eq!(spec.faults, FaultPlan::new().slow_launch(1, 285_714.0));
        let err = GridSpec::parse("faults = slow:1:285715").unwrap_err();
        assert!(err.message.contains("slot_faults"), "{err}");
        assert!(err.message.contains("deadline"), "{err}");
        // On a pool slot the same launch is a scripted hang, and allowed.
        let spec = GridSpec::parse("devices = 1\nslot_faults = slow@0:1:285715").unwrap();
        assert_eq!(
            spec.slot_faults,
            vec![(0, FaultPlan::new().slow_launch(1, 285_715.0), false)]
        );
    }

    #[test]
    fn slot_fault_dsl_rejects_malformed_and_out_of_pool() {
        let err = GridSpec::parse("slot_faults = hang@0:0").unwrap_err();
        assert!(err.message.contains("1-based"), "{err}");
        let err = GridSpec::parse("slot_faults = sick@0:6-2").unwrap_err();
        assert!(err.message.contains("lo > hi"), "{err}");
        let err = GridSpec::parse("slot_faults = flip_bit@0:1").unwrap_err();
        assert!(err.message.contains("unknown slot fault"), "{err}");
        // Slot index must exist in the declared pool.
        let err = GridSpec::parse("devices = 1\nslot_faults = hang@3:1").unwrap_err();
        assert!(err.message.contains("pool has 1 devices"), "{err}");
    }

    #[test]
    fn wedge_is_refused_in_both_fault_dsls() {
        // A wedge is a hang: `hang@slot:n!` is a device that stays dead.
        let err = GridSpec::parse("devices = 1\nslot_faults = wedge@0:2").unwrap_err();
        assert!(
            err.message.contains("unknown slot fault kind 'wedge'"),
            "{err}"
        );
        let err = GridSpec::parse("faults = wedge:2").unwrap_err();
        assert!(err.message.contains("unknown fault op 'wedge'"), "{err}");
    }
}
