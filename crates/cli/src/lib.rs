//! QUEST-style input-file configuration, and the command lines of
//! `dqmc-run` and `dqmc-serve`.
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
//! An input file describes one point of a grid spec: its keys are
//! `sched::grid`'s chain table ([`sched::grid::CHAIN`]) plus the five run
//! keys in `INPUT`, in the `key = value` dialect of [`util::settings`];
//! `dqmc-run --help` prints both tables.
//!
//! Each command line is a struct plus a flag table of the same
//! [`util::settings`] kind ([`Command`]), so files and argv have one
//! reader, and every usage line is rendered from its table.

use dqmc::{Observables, SimParams, TimeDependentObs};
use sched::{GridPoint, GridSpec};
use serve::ServerConfig;
use std::num::{NonZeroU64, NonZeroUsize};
use std::path::PathBuf;
use util::settings::{self, none, one, put, Command, Dialect, Key, SettingsError, Value};
use util::table::{fmt_f, Table};

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

/// A parsed input file: one chain at one grid point, plus how to run it.
#[derive(Clone, Debug)]
pub struct InputFile {
    /// The chain, with one `u` and one `beta`.
    pub spec: GridSpec,
    /// Time slices L as the `slices` key gives them (32 when neither it nor
    /// `beta` is given); `None` when `beta` gives them.
    pub slices: Option<usize>,
    /// Time-dependent measurements.
    pub unequal_time: bool,
    /// Compute backend for cluster/wrap kernels.
    pub backend: Backend,
    /// Checkpoint file path (None = no checkpointing).
    pub checkpoint: Option<String>,
    /// Sweeps between checkpoint saves.
    pub checkpoint_every: usize,
}

#[rustfmt::skip]
const BACKENDS: &[(&str, Backend)] = &[
    ("host", Backend::Host), ("cpu", Backend::Host),
    ("gpusim", Backend::Gpusim), ("gpu", Backend::Gpusim), ("device", Backend::Gpusim),
];

/// The input-file keys: the chain keys plus the run keys.
#[rustfmt::skip]
const INPUT: Dialect<InputFile, GridSpec> = Dialect {
    name: "input",
    base: Some((&sched::grid::CHAIN, |input| &mut input.spec)),
    keys: &[
        Key("slices", &["l"], "32", |i, v| usize::read(v).map(|l| i.slices = Some(l))),
        Key("unequal_time", &[], "no", |i, v| put(&mut i.unequal_time, v)),
        Key("backend", &[], "gpusim", |i, v| settings::choice(v, "backend", BACKENDS).map(|x| i.backend = x)),
        Key("checkpoint", &[], "run.ckpt", |i, v| put(&mut i.checkpoint, v)),
        Key("checkpoint_every", &[], "50", |i, v| put(&mut i.checkpoint_every, v)),
    ],
};

impl InputFile {
    /// Parses an input file's text. `beta` may be given instead of
    /// `slices`: it is rounded to `beta/dtau` once every key is read.
    pub fn parse(text: &str) -> Result<InputFile, SettingsError> {
        // An input's defaults differ from a grid's in five keys; `beta`
        // starts empty so that the rules below can tell whether it was set.
        let mut input = InputFile {
            spec: GridSpec {
                warmup: 100,
                bin_size: 10,
                cluster_size: 10,
                seed: 0,
                betas: Vec::new(),
                ..GridSpec::default()
            },
            slices: None,
            unequal_time: false,
            backend: Backend::Host,
            checkpoint: None,
            checkpoint_every: 50,
        };
        INPUT.apply(&mut input, text)?;
        input.finish().map_err(|m| INPUT.error(0, m))?;
        Ok(input)
    }

    fn finish(&mut self) -> Result<(), String> {
        if self.spec.betas.is_empty() {
            let slices = *self.slices.get_or_insert(32);
            self.spec.betas = vec![slices as f64 * self.spec.dtau];
        } else if self.slices.is_some() {
            return Err("give either 'beta' or 'slices', not both".into());
        }
        if self.spec.us.len() != 1 || self.spec.betas.len() != 1 {
            return Err("an input file runs one point: give one 'u' and one 'beta'".into());
        }
        if self.slices == Some(0) {
            return Err("slices must be positive".into());
        }
        if self.checkpoint_every == 0 {
            return Err("checkpoint_every must be positive".into());
        }
        self.spec.validate()?;
        let (bin_size, sweeps) = (self.spec.bin_size, self.spec.sweeps);
        if bin_size > sweeps {
            // The run would print a sign of 0 and NaN for every other scalar.
            return Err(format!(
                "bin_size ({bin_size}) exceeds sweeps ({sweeps}): no bin would complete"
            ));
        }
        Ok(())
    }

    /// The one grid point this input runs.
    fn point(&self) -> GridPoint {
        let point = self.spec.points()[0];
        GridPoint {
            slices: self.slices.unwrap_or(point.slices),
            ..point
        }
    }

    /// Converts into engine parameters: the point's chain with the raw
    /// `seed`, not a hash-split one.
    pub fn sim_params(&self) -> SimParams {
        self.spec
            .point_params(&self.point())
            .with_seed(self.spec.seed)
            .with_unequal_time(self.unequal_time)
    }
}

/// Where a client finds `dqmc-serve`, and where it listens, by default.
pub const ADDR: &str = "127.0.0.1:7070";

// The command structs. A field that is not an operand is set by the flag
// of its name (`obs_out` by `--obs-out`) in the command's table below,
// which also documents it; `Serve::config` by the flags of its fields.

/// `dqmc-run sweep`: a grid through the checkpoint-aware scheduler.
#[derive(Debug, Default, PartialEq)]
pub struct Sweep {
    pub grid: String,
    pub out: Option<String>,
    pub obs_out: Option<String>,
    pub trace: bool,
}

/// `dqmc-run shard`: a grid as a supervised process fleet. An explicit
/// `workdir` keeps its shard files; a scratch one is removed unless `keep`.
#[derive(Debug, Default, PartialEq)]
pub struct Shard {
    pub grid: String,
    pub procs: usize,
    pub workdir: Option<PathBuf>,
    pub out: Option<String>,
    pub keep: bool,
    pub trace: bool,
    pub heartbeat_timeout_ms: Option<NonZeroU64>,
}

/// `dqmc-run merge`: shard reports (or work directories holding them) back
/// into one observables document.
#[derive(Debug, Default, PartialEq)]
pub struct Merge {
    pub inputs: Vec<PathBuf>,
    pub out: Option<String>,
}

/// `dqmc-run submit`: a grid to a running `dqmc-serve`.
#[derive(Debug, Default, PartialEq)]
pub struct Submit {
    pub grid: String,
    pub addr: String,
    pub tenant: String,
    pub priority: u8,
}

/// `dqmc-run serve-shutdown`: drain and stop a running `dqmc-serve`.
#[derive(Debug, Default, PartialEq)]
pub struct ServeShutdown {
    pub addr: String,
}

/// `dqmc-serve`: the resident sweep service. `fleet = 0` runs campaigns
/// in-process.
#[derive(Debug, Default)]
pub struct Serve {
    pub addr: String,
    pub config: ServerConfig,
    pub fleet: usize,
    pub fleet_dir: Option<PathBuf>,
}

/// `dqmc-run <input-file>`: one simulation; `-` reads the input from
/// stdin. Its help lists every command and the input keys.
#[rustfmt::skip]
pub const RUN: Command<String> = Command {
    flags: Dialect { name: "dqmc-run", keys: &[], base: None },
    operands: "<input-file | ->", take: |c, ops| one(ops).map(|f| *c = f),
    init: String::new,
    more: || {
        let usage = [SWEEP.usage(), SHARD.usage(), MERGE.usage(), SUBMIT.usage(), SERVE_SHUTDOWN.usage()];
        usage.iter().map(|u| format!("       {u}\n")).collect::<String>() + &INPUT.help()
    },
};

/// `dqmc-run sweep`.
#[rustfmt::skip]
pub const SWEEP: Command<Sweep> = Command {
    flags: Dialect { name: "dqmc-run sweep", base: None, keys: &[
        Key("out", &["o"], "report.json", |c, v| put(&mut c.out, v)),
        Key("obs-out", &[], "obs.json", |c, v| put(&mut c.obs_out, v)),
        Key("trace", &[], "", |c, v| put(&mut c.trace, v)),
    ] },
    operands: "<grid-file>", take: |c, ops| one(ops).map(|f| c.grid = f),
    init: Sweep::default, more: GridSpec::keys_help,
};

/// `dqmc-run shard`.
#[rustfmt::skip]
pub const SHARD: Command<Shard> = Command {
    flags: Dialect { name: "dqmc-run shard", base: None, keys: &[
        Key("procs", &[], "P", |c, v| NonZeroUsize::read(v).map(|n| c.procs = n.get())),
        Key("workdir", &[], "DIR", |c, v| put(&mut c.workdir, v)),
        Key("out", &["o"], "obs.json", |c, v| put(&mut c.out, v)),
        Key("keep", &[], "", |c, v| put(&mut c.keep, v)),
        Key("trace", &[], "", |c, v| put(&mut c.trace, v)),
        Key("heartbeat-timeout-ms", &[], "N", |c, v| put(&mut c.heartbeat_timeout_ms, v)),
    ] },
    operands: "<grid-file>", take: |c, ops| one(ops).map(|f| c.grid = f),
    init: || Shard { procs: 2, ..Shard::default() }, more: GridSpec::keys_help,
};

/// `dqmc-run merge`.
#[rustfmt::skip]
pub const MERGE: Command<Merge> = Command {
    flags: Dialect { name: "dqmc-run merge", base: None, keys: &[
        Key("out", &["o"], "obs.json", |c, v| put(&mut c.out, v)),
    ] },
    operands: "<workdir | shard-*.dqsr ...>",
    init: Merge::default,
    take: |c, ops| {
        c.inputs = ops.iter().map(PathBuf::from).collect();
        if ops.is_empty() { Err("missing operand".into()) } else { Ok(()) }
    },
    more: String::new,
};

/// `dqmc-run submit`.
#[rustfmt::skip]
pub const SUBMIT: Command<Submit> = Command {
    flags: Dialect { name: "dqmc-run submit", base: None, keys: &[
        Key("addr", &[], "host:port", |c, v| put(&mut c.addr, v)),
        Key("tenant", &[], "NAME", |c, v| put(&mut c.tenant, v)),
        Key("priority", &[], "N", |c, v| put(&mut c.priority, v)),
    ] },
    operands: "<grid-file>", take: |c, ops| one(ops).map(|f| c.grid = f),
    init: || Submit { addr: ADDR.into(), tenant: "cli".into(), ..Submit::default() }, more: GridSpec::keys_help,
};

/// `dqmc-run serve-shutdown`.
#[rustfmt::skip]
pub const SERVE_SHUTDOWN: Command<ServeShutdown> = Command {
    flags: Dialect { name: "dqmc-run serve-shutdown", base: None, keys: &[
        Key("addr", &[], "host:port", |c, v| put(&mut c.addr, v)),
    ] },
    operands: "", take: |_, ops| none(ops),
    init: || ServeShutdown { addr: ADDR.into() }, more: String::new,
};

/// `dqmc-serve`: its keys set `ServerConfig` fields directly.
#[rustfmt::skip]
pub const SERVE: Command<Serve> = Command {
    flags: Dialect { name: "dqmc-serve", base: None, keys: &[
        Key("addr", &[], "host:port", |s, v| put(&mut s.addr, v)),
        Key("workers", &[], "N", |s, v| NonZeroUsize::read(v).map(|n| s.config.service.workers = n.get())),
        Key("devices", &[], "N", |s, v| put(&mut s.config.service.devices, v)),
        Key("quantum", &[], "SWEEPS", |s, v| put(&mut s.config.service.quantum, v)),
        Key("queue-bound", &[], "N", |s, v| put(&mut s.config.service.queue_bound, v)),
        Key("job-retries", &[], "N", |s, v| put(&mut s.config.service.job_retries, v)),
        Key("cache-dir", &[], "PATH", |s, v| put(&mut s.config.cache_dir, v)),
        Key("max-tenant-campaigns", &[], "N", |s, v| put(&mut s.config.max_tenant_campaigns, v)),
        Key("fleet", &[], "N", |s, v| put(&mut s.fleet, v)),
        Key("fleet-dir", &[], "PATH", |s, v| put(&mut s.fleet_dir, v)),
    ] },
    operands: "", take: |_, ops| none(ops),
    init: || Serve { addr: ADDR.into(), ..Serve::default() }, more: String::new,
};

/// A table cell: `-` where there is no estimate (a collapsed sign, or a
/// value that is not finite), else `x` to `decimals` places.
fn estimate(x: f64, collapsed: bool, decimals: usize) -> String {
    if collapsed || !x.is_finite() {
        "-".into()
    } else {
        fmt_f(x, decimals)
    }
}

/// `dqmc-run`'s scalar table: the sign, the five sign-weighted jackknife
/// estimates and `P_s(q=0)`. Under a collapsed sign
/// ([`Observables::sign_collapsed`]) the sign-weighted rows have no
/// estimate and print `-`; so does any other cell that is not finite (an
/// error bar [`util::jackknife_ratio`] cannot give, a `P_s` over a zero
/// total weight).
pub fn scalar_table(obs: &Observables) -> String {
    let j = obs.jackknife_scalars();
    let collapsed = obs.sign_collapsed();
    let cell = |x: f64| estimate(x, collapsed, 6);
    let mut t = Table::new(vec!["observable", "value", "error"]);
    t.row(vec!["sign".into(), fmt_f(j.sign.0, 6), fmt_f(j.sign.1, 6)]);
    #[rustfmt::skip]
    let weighted = [
        ("density", j.density), ("double-occ", j.double_occ),
        ("e-kinetic", j.kinetic), ("e-potential", j.potential), ("S(pi,pi)", j.saf),
    ];
    for (name, (value, error)) in weighted {
        t.row(vec![name.into(), cell(value), cell(error)]);
    }
    let ps = obs.swave_structure_factor();
    t.row(vec!["P_s(q=0)".into(), cell(ps), "-".into()]);
    t.render()
}

/// `dqmc-run`'s `G_loc(τ)` table, one `τ value error` line per τ point;
/// `-` cells under a collapsed sign ([`TimeDependentObs::sign_collapsed`])
/// and for any cell that is not finite.
pub fn gloc_table(tdm: &TimeDependentObs) -> String {
    let collapsed = tdm.sign_collapsed();
    let cell = |x: f64| estimate(x, collapsed, 5);
    let line = |(tau, (g, e)): (&f64, (f64, f64))| format!("{tau:.4}  {}  {}\n", cell(g), cell(e));
    tdm.taus().iter().zip(tdm.gloc()).map(line).collect()
}

/// `dqmc-run`'s `<n_k>` table, one `arc value` line per point of the
/// Γ→M→X→Γ path; `-` where `⟨n_k⟩` is not finite (a zero total weight,
/// see [`Observables::czz`]).
pub fn nk_table(obs: &Observables) -> String {
    let line = |(arc, v): (f64, f64)| format!("{arc:.4}  {}\n", estimate(v, false, 4));
    obs.momentum_distribution_path()
        .into_iter()
        .map(line)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dqmc::{params_fingerprint, Acceptance, StratAlgo};

    #[test]
    fn parses_minimal_file() {
        let cfg = InputFile::parse("lx = 8\nly = 8\nu = 2.0\n").unwrap();
        assert_eq!(cfg.spec.lx, 8);
        assert_eq!(cfg.spec.us, vec![2.0]);
        // everything else default
        assert_eq!(cfg.point().slices, 32);
        assert_eq!(cfg.spec.algorithm, StratAlgo::PrePivot);
    }

    #[test]
    fn comments_and_blank_lines_ignored() {
        let text = "\n# header\nlx = 6   # inline comment\n\n  ly=6\n";
        let cfg = InputFile::parse(text).unwrap();
        assert_eq!((cfg.spec.lx, cfg.spec.ly), (6, 6));
    }

    #[test]
    fn beta_converts_to_slices() {
        let cfg = InputFile::parse("dtau = 0.1\nbeta = 4.0\n").unwrap();
        assert_eq!(cfg.point().slices, 40);
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
        let e = InputFile::parse("lx = 4\nbogus = 7\n").unwrap_err();
        assert_eq!(e.line, 2);
        assert!(e.message.contains("bogus"));
    }

    #[test]
    fn every_chain_key_means_the_same_in_both_dialects() {
        // The five chain settings whose defaults differ between the
        // dialects, written out so that both start from the same chain.
        const SAME: &str = "warmup = 50\nbin_size = 5\nk = 8\nseed = 42\nbeta = 2.0\n";
        for Key(name, aliases, example, _) in sched::grid::CHAIN.keys {
            for name in std::iter::once(name).chain(*aliases) {
                let text = format!("{SAME}{name} = {example}\n");
                let input = InputFile::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
                let spec = GridSpec::parse(&text).unwrap_or_else(|e| panic!("{text:?}: {e}"));
                let run = input.sim_params();
                let point = spec.point_params(&spec.points()[0]).with_seed(spec.seed);
                assert_eq!(
                    params_fingerprint(&run),
                    params_fingerprint(&point),
                    "{text:?}"
                );
                assert_eq!(run.recovery, point.recovery, "{text:?}");
            }
        }
        let e = InputFile::parse("u = 2.0, 4.0\n").unwrap_err();
        assert!(e.message.contains("one point"), "{e}");
        let p = InputFile::parse("dtau = 0.1\n").unwrap().sim_params();
        assert_eq!((p.model.slices, p.model.dtau), (32, 0.1));
        let e = InputFile::parse("beta = 2.0\nl = 16\n").unwrap_err();
        assert!(e.message.contains("not both"), "{e}");
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
            InputFile::parse("algorithm = qrp\n")
                .unwrap()
                .spec
                .algorithm,
            StratAlgo::Qrp
        );
        assert_eq!(
            InputFile::parse("algorithm = PrePivot\n")
                .unwrap()
                .spec
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
        let lat = cfg.spec.lattice();
        assert_eq!(lat.nsites(), 48);
        assert_eq!(lat.layers(), 3);
        assert_eq!(lat.tz(), 0.5);
    }

    #[test]
    fn acceptance_key() {
        let cfg = InputFile::parse("acceptance = heatbath\n").unwrap();
        assert_eq!(cfg.spec.acceptance, Acceptance::HeatBath);
        assert!(InputFile::parse("acceptance = magic\n").is_err());
    }

    #[test]
    fn anisotropic_hopping_keys() {
        let cfg = InputFile::parse("lx = 4\nly = 4\ntx = 1.0\nty = 0.5\n").unwrap();
        let lat = cfg.spec.lattice();
        assert_eq!(lat.t(), 1.0);
        assert_eq!(lat.ty(), 0.5);
        assert!(InputFile::parse("layers = 2\nty = 0.5\n").is_err());
    }

    #[test]
    fn validation_catches_nonsense() {
        assert!(InputFile::parse("lx = 0\n").is_err());
        assert!(InputFile::parse("dtau = -1\n").is_err());
        assert!(InputFile::parse("u = -2\n").is_err());
        // Zero measurement sweeps would print a table of NaN.
        let e =
            InputFile::parse("lx = 2\nly = 2\nslices = 8\nwarmup = 2\nsweeps = 0\n").unwrap_err();
        assert!(e.message.contains("sweeps must be positive"), "{e}");
        // Fewer sweeps than one bin would print sign 0 and NaN scalars.
        let e = InputFile::parse("sweeps = 5\nbin_size = 10\n").unwrap_err();
        let want = "bin_size (10) exceeds sweeps (5): no bin would complete";
        assert!(e.message.contains(want), "{e}");
        assert!(InputFile::parse("sweeps = 10\nbin_size = 10\n").is_ok());
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

    fn words(line: &str) -> Vec<String> {
        line.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn every_command_line_parses_into_its_struct() {
        assert_eq!(RUN.parse(&words("-")).unwrap(), "-");
        let sweep = SWEEP.parse(&words("g.sweep -o r.json --obs-out o.json --trace"));
        let want = Sweep {
            grid: "g.sweep".into(),
            out: Some("r.json".into()),
            obs_out: Some("o.json".into()),
            trace: true,
        };
        assert_eq!(sweep.unwrap(), want);
        let line = "--procs 3 g.sweep --workdir w --out o.json --keep --trace \
                    --heartbeat-timeout-ms 250";
        let want = Shard {
            grid: "g.sweep".into(),
            procs: 3,
            workdir: Some("w".into()),
            out: Some("o.json".into()),
            keep: true,
            trace: true,
            heartbeat_timeout_ms: std::num::NonZeroU64::new(250),
        };
        assert_eq!(SHARD.parse(&words(line)).unwrap(), want);
        assert_eq!(SHARD.parse(&words("g")).unwrap().procs, 2);
        let merge = MERGE.parse(&words("w a.dqsr -o m.json b.dqsr")).unwrap();
        let inputs: Vec<PathBuf> = ["w", "a.dqsr", "b.dqsr"].map(PathBuf::from).into();
        assert_eq!((merge.inputs, merge.out), (inputs, Some("m.json".into())));
        let line = "g.sweep --addr h:1 --tenant t --priority 255";
        let want = Submit {
            grid: "g.sweep".into(),
            addr: "h:1".into(),
            tenant: "t".into(),
            priority: 255,
        };
        assert_eq!(SUBMIT.parse(&words(line)).unwrap(), want);
        let submit = SUBMIT.parse(&words("g.sweep")).unwrap();
        assert_eq!(
            (submit.addr.as_str(), submit.tenant.as_str()),
            (ADDR, "cli")
        );
        let addr = SERVE_SHUTDOWN.parse(&words("--addr h:2")).unwrap().addr;
        assert_eq!(addr, "h:2");
        let line = "--addr h:3 --workers 3 --devices 2 --quantum 5 --queue-bound 9 \
                    --job-retries 4 --cache-dir c --max-tenant-campaigns 6 --fleet 2 \
                    --fleet-dir f";
        let serve = SERVE.parse(&words(line)).unwrap();
        let c = &serve.config;
        let service = (c.service.workers, c.service.devices, c.service.quantum);
        assert_eq!(service, (3, 2, 5));
        let queue = (
            c.service.queue_bound,
            c.service.job_retries,
            c.max_tenant_campaigns,
        );
        assert_eq!(queue, (9, 4, 6));
        assert_eq!(c.cache_dir, Some(PathBuf::from("c")));
        let fleet = (serve.addr.as_str(), serve.fleet, serve.fleet_dir);
        assert_eq!(fleet, ("h:3", 2, Some(PathBuf::from("f"))));
    }

    #[test]
    fn command_lines_refuse_what_the_old_loops_refused() {
        for (command, line) in [
            (SHARD.parse(&words("g --procs 0")).err(), "--procs"),
            (SERVE.parse(&words("--workers 0")).err(), "--workers"),
            (
                SHARD.parse(&words("g --heartbeat-timeout-ms 0")).err(),
                "--heartbeat",
            ),
            (SUBMIT.parse(&words("g --priority 256")).err(), "--priority"),
            (SWEEP.parse(&words("a b")).err(), "unexpected operand 'b'"),
            (
                SWEEP.parse(&words("--bogus g")).err(),
                "unknown flag '--bogus'",
            ),
            (MERGE.parse(&words("-o m.json")).err(), "missing operand"),
            (
                SERVE_SHUTDOWN.parse(&words("x")).err(),
                "unexpected operand",
            ),
        ] {
            let e = command.unwrap_or_else(|| panic!("{line} was accepted"));
            assert!(e.to_string().contains(line), "{e}");
        }
    }

    /// Hand-built configurations of the given signs, all with one Green's
    /// function, in bins of `bin`.
    fn recorded(signs: &[f64], bin: usize) -> (Observables, TimeDependentObs) {
        let params = InputFile::parse("lx = 2\nly = 2\nslices = 4\nk = 2\n")
            .unwrap()
            .sim_params();
        let model = &params.model;
        let sim = dqmc::Simulation::new(params.clone());
        let g = sim.greens(dqmc::Spin::Up);
        let ladder = vec![g.clone(); 3];
        let mut obs = Observables::new(model, bin);
        let mut tdm = TimeDependentObs::new(&model.lattice, 2, model.slices, model.dtau, bin);
        for &sign in signs {
            obs.record(model.u, g, g, sign);
            tdm.record(&ladder, &ladder, sign);
        }
        (obs, tdm)
    }

    /// A table line's cells after its first (the row's name or τ).
    fn cells(line: &str) -> Vec<&str> {
        line.split_whitespace().skip(1).collect()
    }

    #[test]
    fn a_collapsed_sign_prints_no_estimate() {
        // Two configurations of opposite sign in bins of one: the sign bins
        // sum to exactly 0, so no sign-weighted row has an estimate.
        let (obs, tdm) = recorded(&[1.0, -1.0], 1);
        assert!(obs.sign_collapsed() && tdm.sign_collapsed());
        let scalars = scalar_table(&obs);
        let rows: Vec<&str> = scalars.lines().skip(2).collect();
        assert_eq!(rows.len(), 7, "{scalars}");
        assert_eq!(cells(rows[0]), ["0.000000", "1.000000"], "the sign itself");
        for row in &rows[1..] {
            assert_eq!(cells(row), ["-", "-"], "{row}");
        }
        let gloc = gloc_table(&tdm);
        assert_eq!(gloc.lines().count(), 3);
        for line in gloc.lines() {
            assert_eq!(cells(line), ["-", "-"], "{line}");
        }
        // Two more positive configurations and every row has an estimate.
        let (obs, tdm) = recorded(&[1.0, -1.0, 1.0, 1.0], 1);
        assert!(!obs.sign_collapsed() && !tdm.sign_collapsed());
        let (scalars, gloc) = (scalar_table(&obs), gloc_table(&tdm));
        assert!(!scalars.contains("NaN") && !gloc.contains("NaN"));
        let dashes = |line: &str| cells(line).iter().filter(|c| **c == "-").count();
        let per_row: Vec<usize> = scalars.lines().skip(2).map(dashes).collect();
        assert_eq!(per_row, [0, 0, 0, 0, 0, 0, 1], "only P_s has no error bar");
        assert!(gloc.lines().all(|l| dashes(l) == 0), "{gloc}");
    }

    #[test]
    fn an_error_bar_with_no_delete_one_sign_prints_a_dash() {
        // Sign bins +1, −1, +1: two delete-one sign sums are 0, so every
        // sign-weighted error is NaN while the values stand.
        let (obs, tdm) = recorded(&[1.0, -1.0, 1.0], 1);
        assert!(!obs.sign_collapsed() && !tdm.sign_collapsed());
        let (scalars, gloc) = (scalar_table(&obs), gloc_table(&tdm));
        assert!(
            !scalars.contains("NaN") && !gloc.contains("NaN"),
            "{scalars}{gloc}"
        );
        let weighted = scalars.lines().skip(3).take(5);
        for line in weighted.chain(gloc.lines()) {
            let c = cells(line);
            assert!(c[0].parse::<f64>().is_ok() && c[1] == "-", "{line}");
        }
    }

    #[test]
    fn a_zero_total_weight_prints_no_lattice_estimate() {
        // Bins of three: the full bin's signs sum to 1, and the trailing
        // partial bin's −1 brings the weight over every configuration to 0.
        let (obs, _) = recorded(&[1.0, 1.0, -1.0, -1.0], 3);
        assert!(!obs.sign_collapsed());
        let scalars = scalar_table(&obs);
        let rows: Vec<&str> = scalars.lines().skip(2).collect();
        let density: f64 = cells(rows[1])[0]
            .parse()
            .expect("the full bin has an estimate");
        assert!(density.is_finite(), "{scalars}");
        assert_eq!(cells(rows[6]), ["-", "-"], "P_s: {scalars}");
        let nk = nk_table(&obs);
        assert_eq!(nk.lines().count(), 4, "{nk}");
        assert!(nk.lines().all(|l| cells(l) == ["-"]), "{nk}");
    }

    #[test]
    fn sim_params_round_trip() {
        let cfg = InputFile::parse(
            "lx = 4\nly = 4\nu = 6.0\ndtau = 0.125\nslices = 16\nseed = 9\nk = 8\nalgorithm = qrp\nrecycle = no\n\
             mu = 0.5\nwarmup = 7\nsweeps = 9\nbin_size = 3\ndelay_block = 16\n\
             acceptance = heatbath\nmeasure_per_cluster = yes\n",
        )
        .unwrap();
        let p = cfg.sim_params();
        assert_eq!(p.model.u, 6.0);
        assert_eq!(p.seed, 9);
        assert_eq!(p.cluster_size, 8);
        assert_eq!(p.algo, StratAlgo::Qrp);
        assert!(!p.recycle);
        assert_eq!(p.model.mu_tilde, 0.5);
        assert_eq!((p.warmup_sweeps, p.measure_sweeps, p.bin_size), (7, 9, 3));
        assert_eq!(p.delay_block, 16);
        assert_eq!(p.acceptance, Acceptance::HeatBath);
        assert!(p.measure_per_cluster);
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
