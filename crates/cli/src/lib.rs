//! QUEST-style input-file configuration.
//!
//! QUEST drives its simulations from a free-format input file; this crate
//! provides the same interface for the Rust engine. Files are plain
//! `key = value` lines, `#` starts a comment, keys are case-insensitive,
//! unknown keys are errors (catching typos beats silently ignoring them).
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
//! See [`InputFile::parse`] for the full key list.

use dqmc::{ModelParams, RecoveryPolicy, SimParams, StratAlgo};
use lattice::Lattice;

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
    pub acceptance: dqmc::Acceptance,
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
            acceptance: dqmc::Acceptance::Metropolis,
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

/// Input-file parse error with a line number.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseError {
    /// 1-based line number.
    pub line: usize,
    /// Human-readable problem.
    pub message: String,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "input line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ParseError {}

impl InputFile {
    /// Parses an input file's text.
    ///
    /// Recognised keys (case-insensitive): `lx ly layers periodic_z t|tx ty tz u
    /// mu_tilde|mu dtau slices|l beta warmup sweeps seed cluster_size|k
    /// delay_block algorithm recycle unequal_time measure_per_cluster
    /// acceptance bin_size backend checkpoint checkpoint_every recovery
    /// max_retries min_cluster`.
    /// `backend` accepts `host` or `gpusim` (same output bytes either way; the
    /// device only keeps a model clock); `checkpoint` is a file path
    /// (saved every `checkpoint_every` sweeps and resumed from if present);
    /// `recovery` toggles the retry / cluster-shrink / host-fallback ladder,
    /// tuned by `max_retries` and `min_cluster`.
    /// `beta` may be given instead of `slices` (rounded to `beta/dtau`,
    /// applied after all keys are read). Booleans accept
    /// `true/false/yes/no/1/0`; `algorithm` accepts `qrp` or `prepivot`.
    pub fn parse(text: &str) -> Result<InputFile, ParseError> {
        let mut cfg = InputFile::default();
        let mut beta: Option<f64> = None;
        let mut slices_given = false;
        for (idx, raw) in text.lines().enumerate() {
            let lineno = idx + 1;
            let line = raw.split('#').next().unwrap_or("").trim();
            if line.is_empty() {
                continue;
            }
            let (key, value) = line.split_once('=').ok_or_else(|| ParseError {
                line: lineno,
                message: format!("expected 'key = value', got '{line}'"),
            })?;
            let key = key.trim().to_ascii_lowercase();
            let value = value.trim();
            let err = |msg: String| ParseError {
                line: lineno,
                message: msg,
            };
            let parse_usize = |v: &str| {
                v.parse::<usize>()
                    .map_err(|_| err(format!("'{v}' is not a non-negative integer")))
            };
            let parse_f64 = |v: &str| {
                v.parse::<f64>()
                    .map_err(|_| err(format!("'{v}' is not a number")))
            };
            let parse_bool = |v: &str| match v.to_ascii_lowercase().as_str() {
                "true" | "yes" | "1" => Ok(true),
                "false" | "no" | "0" => Ok(false),
                other => Err(err(format!("'{other}' is not a boolean"))),
            };
            match key.as_str() {
                "lx" => cfg.lx = parse_usize(value)?,
                "ly" => cfg.ly = parse_usize(value)?,
                "layers" => cfg.layers = parse_usize(value)?,
                "periodic_z" => cfg.periodic_z = parse_bool(value)?,
                "t" | "tx" => cfg.t = parse_f64(value)?,
                "ty" => cfg.ty = Some(parse_f64(value)?),
                "tz" => cfg.tz = parse_f64(value)?,
                "u" => cfg.u = parse_f64(value)?,
                "mu_tilde" | "mu" => cfg.mu_tilde = parse_f64(value)?,
                "dtau" => cfg.dtau = parse_f64(value)?,
                "slices" | "l" => {
                    cfg.slices = parse_usize(value)?;
                    slices_given = true;
                }
                "beta" => beta = Some(parse_f64(value)?),
                "warmup" => cfg.warmup = parse_usize(value)?,
                "sweeps" => cfg.sweeps = parse_usize(value)?,
                "seed" => {
                    cfg.seed = value
                        .parse::<u64>()
                        .map_err(|_| err(format!("'{value}' is not a seed")))?
                }
                "cluster_size" | "k" => cfg.cluster_size = parse_usize(value)?,
                "delay_block" => cfg.delay_block = parse_usize(value)?,
                "algorithm" => {
                    cfg.algorithm = match value.to_ascii_lowercase().as_str() {
                        "qrp" | "algorithm2" => StratAlgo::Qrp,
                        "prepivot" | "pre-pivot" | "algorithm3" => StratAlgo::PrePivot,
                        other => {
                            return Err(err(format!(
                                "unknown algorithm '{other}' (use qrp or prepivot)"
                            )))
                        }
                    }
                }
                "recycle" => cfg.recycle = parse_bool(value)?,
                "unequal_time" => cfg.unequal_time = parse_bool(value)?,
                "measure_per_cluster" => cfg.measure_per_cluster = parse_bool(value)?,
                "acceptance" => {
                    cfg.acceptance = match value.to_ascii_lowercase().as_str() {
                        "metropolis" => dqmc::Acceptance::Metropolis,
                        "heatbath" | "heat-bath" => dqmc::Acceptance::HeatBath,
                        other => {
                            return Err(err(format!(
                                "unknown acceptance '{other}' (metropolis or heatbath)"
                            )))
                        }
                    }
                }
                "bin_size" => cfg.bin_size = parse_usize(value)?,
                "backend" => {
                    cfg.backend = match value.to_ascii_lowercase().as_str() {
                        "host" | "cpu" => Backend::Host,
                        "gpusim" | "gpu" | "device" => Backend::Gpusim,
                        other => {
                            return Err(err(format!(
                                "unknown backend '{other}' (use host or gpusim)"
                            )))
                        }
                    }
                }
                "checkpoint" => cfg.checkpoint = Some(value.to_string()),
                "checkpoint_every" => cfg.checkpoint_every = parse_usize(value)?,
                "recovery" => cfg.recovery = parse_bool(value)?,
                "max_retries" => cfg.max_retries = parse_usize(value)? as u32,
                "min_cluster" => cfg.min_cluster = parse_usize(value)?,
                other => {
                    return Err(err(format!("unknown key '{other}'")));
                }
            }
        }
        if let Some(b) = beta {
            if slices_given {
                return Err(ParseError {
                    line: 0,
                    message: "give either 'beta' or 'slices', not both".into(),
                });
            }
            if cfg.dtau <= 0.0 {
                return Err(ParseError {
                    line: 0,
                    message: "beta requires a positive dtau".into(),
                });
            }
            cfg.slices = (b / cfg.dtau).round().max(1.0) as usize;
        }
        cfg.validate()?;
        Ok(cfg)
    }

    fn validate(&self) -> Result<(), ParseError> {
        let bad = |message: String| Err(ParseError { line: 0, message });
        if self.lx == 0 || self.ly == 0 || self.layers == 0 {
            return bad("lattice dimensions must be positive".into());
        }
        if self.u < 0.0 {
            return bad("u must be non-negative (repulsive model)".into());
        }
        if self.dtau <= 0.0 {
            return bad("dtau must be positive".into());
        }
        if self.slices == 0 {
            return bad("slices must be positive".into());
        }
        if self.cluster_size == 0 || self.delay_block == 0 || self.bin_size == 0 {
            return bad("cluster_size, delay_block, bin_size must be positive".into());
        }
        if self.checkpoint_every == 0 {
            return bad("checkpoint_every must be positive".into());
        }
        if self.min_cluster == 0 {
            return bad("min_cluster must be positive".into());
        }
        if self.layers > 1 && self.ty.map(|ty| ty != self.t).unwrap_or(false) {
            return bad("anisotropic in-plane hopping requires layers = 1".into());
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
    }

    #[test]
    fn unknown_key_rejected_with_line_number() {
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
        let e = InputFile::parse("lx = banana\n").unwrap_err();
        assert_eq!(e.line, 1);
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
        for (v, want) in [("yes", true), ("0", false), ("TRUE", true)] {
            let cfg = InputFile::parse(&format!("unequal_time = {v}\n")).unwrap();
            assert_eq!(cfg.unequal_time, want);
        }
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
        assert_eq!(cfg.acceptance, dqmc::Acceptance::HeatBath);
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
