//! QUEST-style input-file configuration.
//!
//! QUEST drives its simulations from a free-format input file; this crate
//! provides the same interface for the Rust engine:
//!
//! ```text
//! # half-filled 8x8 Hubbard lattice
//! lx     = 8
//! ly     = 8
//! u      = 4.0
//! dtau   = 0.125
//! slices = 64          # beta = 8
//! warmup = 200
//! sweeps = 500
//! seed   = 42
//! ```
//!
//! The keys are one table, `INPUT`, in the `key = value` dialect of
//! [`util::settings`]; `dqmc-run --help` prints it.

use dqmc::{Acceptance, ModelParams, RecoveryPolicy, SimParams, StratAlgo};
use lattice::Lattice;
use util::settings::{self, put, Dialect, Key, SettingsError, Value};

/// Which compute backend runs the sweep's cluster/wrap kernels.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Backend {
    /// Host BLAS path (infallible).
    Host,
    /// The simulated accelerator from the `gpusim` crate. It issues the
    /// host path's floating-point op order, so choosing it changes the run's
    /// model clock, never a byte of its output.
    Gpusim,
}

/// A parsed input file.
#[derive(Clone, Debug, PartialEq)]
pub struct InputFile {
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
    /// On-site repulsion.
    pub u: f64,
    /// Shifted chemical potential μ̃ (0 = half filling).
    pub mu_tilde: f64,
    /// Imaginary-time step.
    pub dtau: f64,
    /// Time slices L.
    pub slices: usize,
    /// Warmup sweeps.
    pub warmup: usize,
    /// Measurement sweeps.
    pub sweeps: usize,
    /// RNG seed.
    pub seed: u64,
    /// Cluster size k.
    pub cluster_size: usize,
    /// Delayed-update block.
    pub delay_block: usize,
    /// Stratification algorithm.
    pub algorithm: StratAlgo,
    /// Cluster recycling.
    pub recycle: bool,
    /// Time-dependent measurements.
    pub unequal_time: bool,
    /// Measure at every cluster boundary.
    pub measure_per_cluster: bool,
    /// Flip acceptance rule.
    pub acceptance: Acceptance,
    /// Bin size for error analysis.
    pub bin_size: usize,
    /// Compute backend for cluster/wrap kernels.
    pub backend: Backend,
    /// Checkpoint file path (None = no checkpointing).
    pub checkpoint: Option<String>,
    /// Sweeps between checkpoint saves.
    pub checkpoint_every: usize,
    /// Fault recovery (retry / cluster shrink / host fallback) on or off.
    pub recovery: bool,
    /// Retries per fault incident before escalating.
    pub max_retries: u32,
    /// Smallest cluster size the recovery shrink may reach.
    pub min_cluster: usize,
}

impl Default for InputFile {
    fn default() -> Self {
        InputFile {
            lx: 4,
            ly: 4,
            layers: 1,
            periodic_z: false,
            t: 1.0,
            ty: None,
            tz: 1.0,
            u: 4.0,
            mu_tilde: 0.0,
            dtau: 0.125,
            slices: 32,
            warmup: 100,
            sweeps: 200,
            seed: 0,
            cluster_size: 10,
            delay_block: 32,
            algorithm: StratAlgo::PrePivot,
            recycle: true,
            unequal_time: false,
            measure_per_cluster: false,
            acceptance: Acceptance::Metropolis,
            bin_size: 10,
            backend: Backend::Host,
            checkpoint: None,
            checkpoint_every: 50,
            recovery: true,
            max_retries: 2,
            min_cluster: 1,
        }
    }
}

/// What the input keys set: the file, plus the state of the rule that
/// `beta` stands in for `slices` once every key is read.
#[derive(Default)]
struct Draft {
    cfg: InputFile,
    beta: Option<f64>,
    slices_given: bool,
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
#[rustfmt::skip]
const BACKENDS: &[(&str, Backend)] = &[
    ("host", Backend::Host), ("cpu", Backend::Host),
    ("gpusim", Backend::Gpusim), ("gpu", Backend::Gpusim), ("device", Backend::Gpusim),
];

/// The input-file keys: the one place each key is named.
#[rustfmt::skip]
const INPUT: Dialect<Draft> = Dialect { name: "input", keys: &[
    Key("lx", &[], "8", |d, v| put(&mut d.cfg.lx, v)),
    Key("ly", &[], "8", |d, v| put(&mut d.cfg.ly, v)),
    Key("layers", &[], "3", |d, v| put(&mut d.cfg.layers, v)),
    Key("periodic_z", &[], "no", |d, v| put(&mut d.cfg.periodic_z, v)),
    Key("t", &["tx"], "1.0", |d, v| put(&mut d.cfg.t, v)),
    Key("ty", &[], "0.5", |d, v| f64::read(v).map(|x| d.cfg.ty = Some(x))),
    Key("tz", &[], "0.5", |d, v| put(&mut d.cfg.tz, v)),
    Key("u", &[], "4.0", |d, v| put(&mut d.cfg.u, v)),
    Key("mu_tilde", &["mu"], "0.0", |d, v| put(&mut d.cfg.mu_tilde, v)),
    Key("dtau", &[], "0.125", |d, v| put(&mut d.cfg.dtau, v)),
    Key("slices", &["l"], "32", |d, v| {
        d.slices_given = true;
        put(&mut d.cfg.slices, v)
    }),
    Key("beta", &[], "4.0", |d, v| match f64::read(v)? {
        b if b > 0.0 => {
            d.beta = Some(b);
            Ok(())
        }
        _ => Err(format!("beta must be positive, got '{v}'")),
    }),
    Key("warmup", &[], "100", |d, v| put(&mut d.cfg.warmup, v)),
    Key("sweeps", &[], "200", |d, v| put(&mut d.cfg.sweeps, v)),
    Key("seed", &[], "42", |d, v| put(&mut d.cfg.seed, v)),
    Key("cluster_size", &["k"], "10", |d, v| put(&mut d.cfg.cluster_size, v)),
    Key("delay_block", &[], "32", |d, v| put(&mut d.cfg.delay_block, v)),
    Key("algorithm", &[], "qrp", |d, v| {
        settings::choice(v, "algorithm", ALGORITHMS).map(|x| d.cfg.algorithm = x)
    }),
    Key("recycle", &[], "yes", |d, v| put(&mut d.cfg.recycle, v)),
    Key("unequal_time", &[], "no", |d, v| put(&mut d.cfg.unequal_time, v)),
    Key("measure_per_cluster", &[], "no", |d, v| put(&mut d.cfg.measure_per_cluster, v)),
    Key("acceptance", &[], "heatbath", |d, v| {
        settings::choice(v, "acceptance", ACCEPTANCES).map(|x| d.cfg.acceptance = x)
    }),
    Key("bin_size", &[], "10", |d, v| put(&mut d.cfg.bin_size, v)),
    Key("backend", &[], "gpusim", |d, v| {
        settings::choice(v, "backend", BACKENDS).map(|x| d.cfg.backend = x)
    }),
    Key("checkpoint", &[], "run.ckpt", |d, v| {
        d.cfg.checkpoint = Some(v.to_string());
        Ok(())
    }),
    Key("checkpoint_every", &[], "50", |d, v| put(&mut d.cfg.checkpoint_every, v)),
    Key("recovery", &[], "yes", |d, v| put(&mut d.cfg.recovery, v)),
    Key("max_retries", &[], "2", |d, v| put(&mut d.cfg.max_retries, v)),
    Key("min_cluster", &[], "1", |d, v| put(&mut d.cfg.min_cluster, v)),
]};

impl Draft {
    fn finish(mut self) -> Result<InputFile, String> {
        if let Some(b) = self.beta {
            if self.slices_given {
                return Err("give either 'beta' or 'slices', not both".into());
            }
            if self.cfg.dtau <= 0.0 {
                return Err("beta requires a positive dtau".into());
            }
            self.cfg.slices = (b / self.cfg.dtau).round().max(1.0) as usize;
        }
        self.cfg.validate()?;
        Ok(self.cfg)
    }
}

impl InputFile {
    /// Parses an input file's text. `beta` may be given instead of
    /// `slices`: it is rounded to `beta/dtau` once every key is read.
    pub fn parse(text: &str) -> Result<InputFile, SettingsError> {
        let mut draft = Draft::default();
        INPUT.apply(&mut draft, text)?;
        draft.finish().map_err(|m| INPUT.error(0, m))
    }

    /// Every input key with an example value, for `--help`.
    pub fn keys_help() -> String {
        INPUT.help()
    }

    fn validate(&self) -> Result<(), String> {
        if self.lx == 0 || self.ly == 0 || self.layers == 0 {
            return Err("lattice dimensions must be positive".into());
        }
        if self.u < 0.0 {
            return Err("u must be non-negative (repulsive model)".into());
        }
        if self.dtau <= 0.0 {
            return Err("dtau must be positive".into());
        }
        if self.slices == 0 {
            return Err("slices must be positive".into());
        }
        if self.cluster_size == 0 || self.delay_block == 0 || self.bin_size == 0 {
            return Err("cluster_size, delay_block, bin_size must be positive".into());
        }
        if self.checkpoint_every == 0 {
            return Err("checkpoint_every must be positive".into());
        }
        if self.min_cluster == 0 {
            return Err("min_cluster must be positive".into());
        }
        if self.layers > 1 && self.ty.map(|ty| ty != self.t).unwrap_or(false) {
            return Err("anisotropic in-plane hopping requires layers = 1".into());
        }
        Ok(())
    }

    /// The lattice this input describes.
    pub fn lattice(&self) -> Lattice {
        if self.layers == 1 {
            match self.ty {
                Some(ty) if ty != self.t => Lattice::anisotropic(self.lx, self.ly, self.t, ty),
                _ => Lattice::square(self.lx, self.ly, self.t),
            }
        } else if self.periodic_z {
            Lattice::multilayer_periodic(self.lx, self.ly, self.layers, self.t, self.tz)
        } else {
            Lattice::multilayer(self.lx, self.ly, self.layers, self.t, self.tz)
        }
    }

    /// Converts into engine parameters.
    pub fn sim_params(&self) -> SimParams {
        let model = ModelParams::new(
            self.lattice(),
            self.u,
            self.mu_tilde,
            self.dtau,
            self.slices,
        );
        let recovery = if self.recovery {
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
            .with_seed(self.seed)
            .with_cluster_size(self.cluster_size)
            .with_delay_block(self.delay_block)
            .with_algo(self.algorithm)
            .with_recycle(self.recycle)
            .with_bin_size(self.bin_size)
            .with_unequal_time(self.unequal_time)
            .with_measure_per_cluster(self.measure_per_cluster)
            .with_acceptance(self.acceptance)
            .with_recovery(recovery)
    }
}

/// The value after a command-line `flag`, parsed. A missing or unparsable
/// value prints `{flag} needs {what}` and exits 2.
pub fn flag_value<T: std::str::FromStr>(flag: &str, what: &str, value: Option<&String>) -> T {
    match value.map(|v| v.parse()) {
        Some(Ok(v)) => v,
        _ => {
            eprintln!("{flag} needs {what}");
            std::process::exit(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_minimal_file() {
        let cfg = InputFile::parse("lx = 8\nly = 8\nu = 2.0\n").unwrap();
        assert_eq!(cfg.lx, 8);
        assert_eq!(cfg.u, 2.0);
        // everything else default
        assert_eq!(cfg.slices, 32);
        assert_eq!(cfg.algorithm, StratAlgo::PrePivot);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header\nlx = 6   # inline comment\n\n  ly=6\n";
        let cfg = InputFile::parse(text).unwrap();
        assert_eq!((cfg.lx, cfg.ly), (6, 6));
    }

    #[test]
    fn beta_converts_to_slices() {
        let cfg = InputFile::parse("dtau = 0.1\nbeta = 4.0\n").unwrap();
        assert_eq!(cfg.slices, 40);
    }

    #[test]
    fn beta_and_slices_conflict() {
        let e = InputFile::parse("beta = 4.0\nslices = 10\n").unwrap_err();
        assert!(e.message.contains("not both"));
        assert_eq!(e.line, 0);
        assert_eq!(
            e.to_string(),
            "input: give either 'beta' or 'slices', not both"
        );
    }

    #[test]
    fn unknown_key_rejected_with_line_number() {
        for Key(name, aliases, example, _) in INPUT.keys {
            for name in std::iter::once(name).chain(*aliases) {
                let text = format!("{name} = {example}");
                InputFile::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
            }
        }
        let e = InputFile::parse("lx = 4\nbogus = 7\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn checkerboard_key_is_refused() {
        let e = InputFile::parse("lx = 4\ncheckerboard = no\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("unknown key"), "{}", e.message);
    }

    #[test]
    fn bad_value_reports_line() {
        // `nan` passes `u < 0.0`, a negative beta would round to one slice,
        // and 2^32 + 1 retries would wrap to 1 in a cast to `u32`.
        for (text, line, says) in [
            ("lx = banana\n", 1, "not a non-negative integer"),
            ("lx = 4\nu = nan\n", 2, "not a finite number"),
            ("dtau = inf\n", 1, "not a finite number"),
            ("dtau = 0.1\nbeta = -3\n", 2, "beta must be positive"),
            ("max_retries = 4294967297\n", 1, "not an integer"),
        ] {
            let e = InputFile::parse(text).unwrap_err();
            assert_eq!(e.line, line, "{text:?}");
            assert!(e.message.contains(says), "{text:?}: {}", e.message);
        }
    }

    #[test]
    fn algorithm_names() {
        assert_eq!(
            InputFile::parse("algorithm = qrp\n").unwrap().algorithm,
            StratAlgo::Qrp
        );
        assert_eq!(
            InputFile::parse("algorithm = PrePivot\n")
                .unwrap()
                .algorithm,
            StratAlgo::PrePivot
        );
        assert!(InputFile::parse("algorithm = magic\n").is_err());
    }

    #[test]
    fn booleans_accept_variants() {
        for (v, want) in [
            ("yes", true),
            ("0", false),
            ("TRUE", true),
            ("on", true),
            ("Off", false),
        ] {
            let cfg = InputFile::parse(&format!("unequal_time = {v}\n")).unwrap();
            assert_eq!(cfg.unequal_time, want);
        }
    }

    #[test]
    fn every_example_input_parses() {
        let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/../../examples/inputs");
        let (mut inputs, mut grids) = (0, 0);
        for entry in std::fs::read_dir(dir).expect("examples/inputs is listable") {
            let path = entry.expect("directory entry").path();
            let text = std::fs::read_to_string(&path).expect("example is readable");
            match path.extension().and_then(|x| x.to_str()) {
                Some("in") => {
                    inputs += 1;
                    InputFile::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                }
                Some("sweep") => {
                    grids += 1;
                    sched::GridSpec::parse(&text).unwrap_or_else(|e| panic!("{path:?}: {e}"));
                }
                _ => {}
            }
        }
        assert!(inputs >= 3 && grids >= 1, "{inputs} inputs, {grids} grids");
    }

    #[test]
    fn multilayer_lattice_construction() {
        let cfg = InputFile::parse("lx = 4\nly = 4\nlayers = 3\ntz = 0.5\n").unwrap();
        let lat = cfg.lattice();
        assert_eq!(lat.nsites(), 48);
        assert_eq!(lat.layers(), 3);
        assert_eq!(lat.tz(), 0.5);
    }

    #[test]
    fn acceptance_key() {
        let cfg = InputFile::parse("acceptance = heatbath\n").unwrap();
        assert_eq!(cfg.acceptance, Acceptance::HeatBath);
        assert!(InputFile::parse("acceptance = magic\n").is_err());
    }

    #[test]
    fn anisotropic_hopping_keys() {
        let cfg = InputFile::parse("lx = 4\nly = 4\ntx = 1.0\nty = 0.5\n").unwrap();
        let lat = cfg.lattice();
        assert_eq!(lat.t(), 1.0);
        assert_eq!(lat.ty(), 0.5);
        assert!(InputFile::parse("layers = 2\nty = 0.5\n").is_err());
    }

    #[test]
    fn validation_catches_nonsense() {
        assert!(InputFile::parse("lx = 0\n").is_err());
        assert!(InputFile::parse("dtau = -1\n").is_err());
        assert!(InputFile::parse("u = -2\n").is_err());
    }

    #[test]
    fn backend_and_checkpoint_keys() {
        let cfg =
            InputFile::parse("backend = gpusim\ncheckpoint = run.ckpt\ncheckpoint_every = 25\n")
                .unwrap();
        assert_eq!(cfg.backend, Backend::Gpusim);
        assert_eq!(cfg.checkpoint.as_deref(), Some("run.ckpt"));
        assert_eq!(cfg.checkpoint_every, 25);
        assert_eq!(
            InputFile::parse("backend = cpu\n").unwrap().backend,
            Backend::Host
        );
        assert!(InputFile::parse("backend = fpga\n").is_err());
        assert!(InputFile::parse("checkpoint_every = 0\n").is_err());
    }

    #[test]
    fn recovery_keys_shape_the_policy() {
        let cfg = InputFile::parse("max_retries = 5\nmin_cluster = 2\n").unwrap();
        let p = cfg.sim_params();
        assert!(p.recovery.enabled);
        assert_eq!(p.recovery.max_retries, 5);
        assert_eq!(p.recovery.min_cluster, 2);

        let off = InputFile::parse("recovery = no\n").unwrap().sim_params();
        assert!(!off.recovery.enabled);
        assert!(InputFile::parse("min_cluster = 0\n").is_err());
    }

    #[test]
    fn sim_params_round_trip() {
        let cfg = InputFile::parse(
            "lx = 4\nly = 4\nu = 6.0\ndtau = 0.125\nslices = 16\nseed = 9\nk = 8\nalgorithm = qrp\nrecycle = no\n",
        )
        .unwrap();
        let p = cfg.sim_params();
        assert_eq!(p.model.u, 6.0);
        assert_eq!(p.seed, 9);
        assert_eq!(p.cluster_size, 8);
        assert_eq!(p.algo, StratAlgo::Qrp);
        assert!(!p.recycle);
    }
}

/// Exit codes for `dqmc-run submit`, distinguishing server back-pressure
/// from server shutdown so shell callers can choose between retrying with
/// backoff (full) and giving up or failing over (closed).
pub mod submit_exit {
    /// Submission refused for any other reason (bad grid, tenant cap,
    /// protocol trouble, socket loss).
    pub const FAILED: i32 = 1;
    /// The shared job queue had no room for the campaign — transient
    /// back-pressure; retry later.
    pub const QUEUE_FULL: i32 = 3;
    /// The job queue is closed — the server is draining for shutdown;
    /// retrying the same server cannot succeed.
    pub const QUEUE_CLOSED: i32 = 4;

    /// Maps a server rejection reason to the submit exit code by its
    /// stable machine-readable prefix (see [`serve::REASON_QUEUE_FULL`]).
    pub fn for_rejection(reason: &str) -> i32 {
        if reason.starts_with(serve::REASON_QUEUE_FULL) {
            QUEUE_FULL
        } else if reason.starts_with(serve::REASON_QUEUE_CLOSED) {
            QUEUE_CLOSED
        } else {
            FAILED
        }
    }
}

#[cfg(test)]
mod submit_exit_tests {
    use super::submit_exit;

    #[test]
    fn queue_pressure_maps_to_distinct_codes() {
        assert_eq!(
            submit_exit::for_rejection("queue-full: batch of 9 refused: job queue bound is 4"),
            submit_exit::QUEUE_FULL
        );
        assert_eq!(
            submit_exit::for_rejection("queue-closed: job queue is closed"),
            submit_exit::QUEUE_CLOSED
        );
        assert_eq!(
            submit_exit::for_rejection("tenant 'x' at campaign capacity (2 in flight)"),
            submit_exit::FAILED
        );
        assert_ne!(submit_exit::QUEUE_FULL, submit_exit::QUEUE_CLOSED);
    }

    #[test]
    fn prefixes_match_the_server_constants() {
        // The mapping contract lives in the serve crate's constants; a
        // drifted literal here would silently collapse the codes to 1.
        assert!("queue-full: x".starts_with(serve::REASON_QUEUE_FULL));
        assert!("queue-closed: x".starts_with(serve::REASON_QUEUE_CLOSED));
    }
}
