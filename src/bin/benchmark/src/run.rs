//! What every workload shares: the run context, metrics, output checks,
//! the time-budgeted unit loop and the repeated set-up.

use crate::json::Value;
use crate::stats::{self, Summary};
use crate::trace::Tracer;
use std::path::PathBuf;
use std::time::Instant;

/// Set-up is run this many times and its median reported, so that one
/// slow start does not read as a regression of `setup_s`.
pub const SETUP_REPS: usize = 3;

pub struct Ctx {
    /// The only source of a workload's inputs.
    pub seed: u64,
    /// Time budget of the timed section; 0 under `--smoke`.
    pub seconds: f64,
    pub smoke: bool,
    /// Scratch and output directory, inside the checkout.
    pub out: PathBuf,
    pub tracer: Tracer,
}

impl Ctx {
    /// Runs `unit` at least `min_units` times and then until the time
    /// budget is spent. Outputs are checked per unit, so the number of
    /// units a run fits in its budget changes no checked byte.
    pub fn run_units(&mut self, min_units: usize, mut unit: impl FnMut(&mut Ctx, usize)) {
        let start = Instant::now();
        let mut done = 0;
        while done < min_units || start.elapsed().as_secs_f64() < self.seconds {
            unit(self, done);
            done += 1;
        }
    }

    /// Runs the set-up [`SETUP_REPS`] times under `setup` spans; returns
    /// the last product and the seconds of every repetition.
    pub fn setup<T>(&mut self, mut build: impl FnMut(&mut Ctx) -> T) -> (T, Vec<f64>) {
        let mut secs = Vec::with_capacity(SETUP_REPS);
        let mut last = None;
        for _ in 0..SETUP_REPS {
            // Drop the previous product first: two servers or two N = 256
            // simulations alive at once would count in `peak_rss_mb`.
            drop(last.take());
            let span = self.tracer.begin("setup");
            let t = Instant::now();
            last = Some(build(self));
            secs.push(t.elapsed().as_secs_f64());
            self.tracer.end(span);
        }
        (last.expect("SETUP_REPS is at least 1"), secs)
    }

    /// A scratch directory under `out`, emptied first.
    pub fn scratch(&self, name: &str) -> PathBuf {
        let dir = self.out.join(format!("tmp-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).expect("create scratch directory under --out");
        dir
    }
}

#[derive(Clone, Debug)]
pub struct Metric {
    pub name: String,
    pub unit: &'static str,
    pub value: f64,
    /// Present for timings reduced from samples.
    pub summary: Option<Summary>,
    /// Why a value is withheld (printed as `null`, emitted as 0).
    pub withheld: Option<String>,
}

impl Metric {
    pub fn value(name: &str, unit: &'static str, value: f64) -> Metric {
        Metric {
            name: name.to_string(),
            unit,
            value,
            summary: None,
            withheld: None,
        }
    }

    /// A timing: the median of `samples` (seconds) times `scale`.
    pub fn timing(name: &str, unit: &'static str, samples: &[f64], scale: f64) -> Metric {
        let summary = Summary::of(samples).scaled(scale);
        Metric {
            name: name.to_string(),
            unit,
            value: summary.median,
            summary: Some(summary),
            withheld: None,
        }
    }

    pub fn withheld(name: &str, unit: &'static str, reason: String) -> Metric {
        Metric {
            withheld: Some(reason),
            ..Metric::value(name, unit, 0.0)
        }
    }

    /// `name workload value unit (median/quartiles/pXX, n)`.
    pub fn line(&self, workload: &str) -> String {
        let mut s = match &self.withheld {
            Some(reason) => format!("{} {workload} null {} ({reason})", self.name, self.unit),
            None => format!("{} {workload} {} {}", self.name, self.value, self.unit),
        };
        if let Some(m) = &self.summary {
            s.push_str(&format!(" (median {} q1 {} q3 {}", m.median, m.q1, m.q3));
            if let Some((p, v)) = m.tail {
                s.push_str(&format!(" p{p} {v}"));
            }
            s.push_str(&format!(", n {})", m.n));
        }
        s
    }

    pub fn to_json(&self) -> Value {
        let mut fields = vec![
            (
                "value",
                if self.withheld.is_some() {
                    Value::Null
                } else {
                    Value::Num(self.value)
                },
            ),
            ("unit", Value::str(self.unit)),
        ];
        if let Some(reason) = &self.withheld {
            fields.push(("withheld", Value::str(reason)));
        }
        if let Some(m) = &self.summary {
            fields.push(("q1", Value::Num(m.q1)));
            fields.push(("q3", Value::Num(m.q3)));
            if let Some((p, v)) = m.tail {
                fields.push(("tail_percentile", Value::Num(f64::from(p))));
                fields.push(("tail", Value::Num(v)));
            }
            fields.push(("n", Value::Num(m.n as f64)));
        }
        Value::obj(fields)
    }
}

/// One output check; a failed one counts in `failed` and fails the run.
#[derive(Clone, Debug)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

#[derive(Default)]
pub struct Checks(pub Vec<Check>);

impl Checks {
    pub fn add(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        self.0.push(Check {
            name: name.to_string(),
            ok,
            detail: if ok { String::new() } else { detail() },
        });
    }

    /// A check repeated per unit is kept once: it fails if any unit failed.
    pub fn add_once(&mut self, name: &str, ok: bool, detail: impl FnOnce() -> String) {
        match self.0.iter_mut().find(|c| c.name == name) {
            Some(c) if c.ok && !ok => {
                c.ok = false;
                c.detail = detail();
            }
            Some(_) => {}
            None => self.add(name, ok, detail),
        }
    }
}

/// What one pass over one workload produced.
pub struct Outcome {
    /// `setup_s`, `unit_s`, `work_per_s` (the caller adds `peak_rss_mb`).
    pub end_to_end: Vec<Metric>,
    /// Layer metrics read at the boundaries of this workload's own calls.
    pub per_layer: Vec<Metric>,
    pub checks: Checks,
    /// Chains, submissions or shards attempted and failed, besides checks.
    pub operations: u64,
    pub failed_operations: u64,
    /// Fingerprint of the observables bytes at a fixed point of the work.
    pub obs_fnv: u64,
    pub inputs: Vec<(&'static str, String)>,
}

impl Outcome {
    pub fn attempted(&self) -> u64 {
        self.operations + self.checks.0.len() as u64
    }

    pub fn failed(&self) -> u64 {
        self.failed_operations + self.checks.0.iter().filter(|c| !c.ok).count() as u64
    }
}

/// The three end-to-end metrics every workload reports the same way.
/// `work_per_s` is the work of one unit over the median unit: a mean over
/// the run would carry every disturbed unit into the figure.
pub fn end_to_end(setup_secs: &[f64], unit_secs: &[f64], work_per_unit: f64) -> Vec<Metric> {
    vec![
        Metric::timing("setup_s", "s", setup_secs, 1.0),
        Metric::timing("unit_s", "s", unit_secs, 1.0),
        Metric::value(
            "work_per_s",
            "1/s",
            work_per_unit / stats::median(unit_secs),
        ),
    ]
}

/// `VmHWM` of this process in MB; the workload runs in a process of its
/// own, so this is the workload's peak resident set.
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Best-of-`reps` seconds of a repeatable call, for the kernel probes:
/// the least disturbed repetition is the kernel's speed.
pub fn time_best<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t = Instant::now();
        std::hint::black_box(f());
        best = best.min(t.elapsed().as_secs_f64());
    }
    best
}

/// Median seconds of a repeatable call, for the latency probes.
pub fn time_median<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    let samples: Vec<f64> = (0..reps)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(f());
            t.elapsed().as_secs_f64()
        })
        .collect();
    stats::median(&samples)
}
