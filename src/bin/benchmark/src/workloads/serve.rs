//! `serve_warm`: an in-process `serve::Server` and one blocking client in
//! a closed loop (the next request is sent when the previous one is done;
//! one connection at a time). Kernel work is tiny here: framing, the
//! result cache, `write_atomic` fsyncs and per-connection handling carry
//! the warm and partial phases.
//!
//! A cycle has three phases. **cold**: campaigns with seeds no earlier
//! cycle used (compute + cache store). **warm**: resubmissions of those
//! campaigns (cache lookup + frame encode + TCP, no job). **partial**:
//! the cold campaigns again with half of the U axis replaced (cached
//! points are streamed while the new ones are enqueued).
//!
//! The gated unit is the whole cycle. A warm submission alone is four or
//! five thread hand-offs, and on this host their wake-up latency sits in
//! one of two modes for minutes at a time (0.16 or 0.23 ms a submission
//! with no change to the code), so it is reported per layer, not gated.

use crate::grid::Grid;
use crate::run::{Checks, Ctx, Metric, Outcome};
use crate::stats;
use sched::{EventLog, SchedConfig, ServiceConfig};
use serve::{Client, Server, ServerConfig, ServerHandle, SubmitOutcome};
use std::path::Path;
use std::time::{Duration, Instant};

pub struct Size {
    pub warmup: usize,
    pub sweeps: usize,
    pub cold: usize,
    pub warm: usize,
    pub partial: usize,
    pub min_cycles: usize,
}

const FULL: Size = Size {
    warmup: 10,
    sweeps: 40,
    cold: 8,
    warm: 1000,
    partial: 8,
    min_cycles: 2,
};

const SMOKE: Size = Size {
    warmup: 2,
    sweeps: 8,
    cold: 2,
    warm: 20,
    partial: 2,
    min_cycles: 1,
};

const LSIDE: usize = 4;
const COLD_US: [f64; 2] = [2.0, 4.0];
/// Same first U (same point indices, same chain seeds: cached), new second.
const PARTIAL_US: [f64; 2] = [2.0, 3.0];
const BETAS: [f64; 2] = [1.0, 2.0];
const CHAINS: usize = 2;
const TENANT: &str = "bench";

fn grid(size: &Size, us: &'static [f64], seed: u64) -> Grid<'static> {
    Grid {
        lside: LSIDE,
        us,
        betas: &BETAS,
        chains: CHAINS,
        crowd: 1,
        warmup: size.warmup,
        sweeps: size.sweeps,
        workers: 1,
        devices: 0,
        quantum: 0,
        seed,
    }
}

/// Campaign `i` of cycle `cycle` gets a seed no other campaign of the run
/// has, so a cold submission never finds its points cached.
fn campaign_seed(seed: u64, cycle: usize, i: usize) -> u64 {
    util::derive_seed(seed, cycle as u64, i as u64)
}

/// A server on an ephemeral loopback port with its accept loop on a
/// thread; dropping it shuts the server down and joins the thread.
pub struct Served {
    pub handle: ServerHandle,
    pub addr: String,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl Served {
    pub fn start(cache_dir: &Path) -> Served {
        let cfg = ServerConfig {
            service: ServiceConfig {
                workers: 1,
                ..ServiceConfig::default()
            },
            cache_dir: Some(cache_dir.to_path_buf()),
            ..ServerConfig::default()
        };
        let server = Server::bind("127.0.0.1:0", &cfg).expect("bind an ephemeral loopback port");
        let handle = server.handle();
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        let served = Served {
            handle,
            addr,
            thread: Some(thread),
        };
        // Bound and accepting before set-up counts as done.
        served.client().stats().expect("stats round trip");
        served
    }

    pub fn client(&self) -> Client {
        Client::connect_retry(&self.addr, 50, Duration::from_millis(20)).expect("connect")
    }
}

impl Drop for Served {
    fn drop(&mut self) {
        self.handle.request_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// One traced submission on a fresh connection: seconds for connect +
/// submit + stream + done, and seconds from submit to the first point.
fn submit(ctx: &mut Ctx, server: &Served, text: &str) -> Option<(SubmitOutcome, f64, f64)> {
    let span = ctx.tracer.begin("serve.submit");
    let start = Instant::now();
    let mut client = Client::connect(&server.addr).ok()?;
    let submitted = Instant::now();
    let mut first_point = None;
    let outcome = client.submit_with(TENANT, 0, text, |_| {
        first_point.get_or_insert_with(Instant::now);
    });
    let total = start.elapsed().as_secs_f64();
    if let Some(at) = first_point {
        ctx.tracer.mark("first_point", at);
    }
    ctx.tracer.end(span);
    let first = first_point?.duration_since(submitted).as_secs_f64();
    Some((outcome.ok()?, total, first))
}

#[derive(Default)]
struct Samples {
    warm: Vec<f64>,
    cold_first: Vec<f64>,
    partial_first: Vec<f64>,
    /// Seconds of each cycle's cold phase, and of each whole cycle.
    cold_phase: Vec<f64>,
    cycle: Vec<f64>,
    submissions: u64,
    failed: u64,
}

pub fn run(ctx: &mut Ctx) -> Outcome {
    let size = if ctx.smoke { &SMOKE } else { &FULL };
    let seed = ctx.seed;
    let mut checks = Checks::default();
    let cache_dir = ctx.scratch("serve-cache");

    let ((server, reference), setup_secs) = ctx.setup(|_| {
        let _ = std::fs::remove_dir_all(&cache_dir);
        let server = Served::start(&cache_dir);
        // The bytes the first cold campaign must stream: the same grid
        // through the in-process scheduler.
        let spec = grid(size, &COLD_US, campaign_seed(seed, 0, 0)).spec();
        let cfg = SchedConfig::from_spec(&spec);
        let reference = sched::run_sweep(&spec, &cfg, &EventLog::new()).observables_json();
        (server, reference)
    });

    let points = COLD_US.len() * BETAS.len();
    let cached_in_partial = BETAS.len();
    let mut s = Samples::default();
    let mut first_cycle = None;

    let timed = ctx.tracer.begin("timed");
    ctx.run_units(size.min_cycles, |ctx, cycle| {
        let cycle_start = Instant::now();
        let counters_before = (server.handle.cache_hits(), server.handle.cache_misses());
        let texts: Vec<String> = (0..size.cold)
            .map(|i| grid(size, &COLD_US, campaign_seed(seed, cycle, i)).text())
            .collect();

        let phase = ctx.tracer.begin("phase.cold");
        let cold_start = Instant::now();
        let mut cold: Vec<Option<SubmitOutcome>> = Vec::new();
        for text in &texts {
            s.submissions += 1;
            let done = submit(ctx, &server, text);
            match &done {
                Some((out, _, first)) => {
                    s.cold_first.push(*first);
                    let computed = out.computed_points == points as u64 && out.jobs_run > 0;
                    checks.add_once("cold_campaigns_compute_every_point", computed, || {
                        format!("computed {} jobs {}", out.computed_points, out.jobs_run)
                    });
                }
                None => s.failed += 1,
            }
            cold.push(done.map(|d| d.0));
        }
        s.cold_phase.push(cold_start.elapsed().as_secs_f64());
        ctx.tracer.end(phase);
        if cycle == 0 {
            let served = cold[0].as_ref().map(|out| out.observables.as_str());
            checks.add(
                "served_bytes_equal_in_process_run",
                served == Some(&reference),
                || "the first cold document differs from sched::run_sweep".to_string(),
            );
        }

        let phase = ctx.tracer.begin("phase.warm");
        for j in 0..size.warm {
            let i = j % size.cold;
            s.submissions += 1;
            let (Some((out, total, _)), Some(cold)) = (submit(ctx, &server, &texts[i]), &cold[i])
            else {
                s.failed += 1;
                continue;
            };
            s.warm.push(total);
            checks.add_once(
                "warm_document_equals_cold",
                out.observables == cold.observables,
                || format!("campaign {i} of cycle {cycle} changed bytes on resubmission"),
            );
            let no_work = out.jobs_run == 0 && out.cached_points == points as u64;
            checks.add_once("warm_runs_no_job", no_work, || {
                format!(
                    "jobs_run {} cached_points {}",
                    out.jobs_run, out.cached_points
                )
            });
        }
        ctx.tracer.end(phase);

        let phase = ctx.tracer.begin("phase.partial");
        for (i, cold) in cold.iter().enumerate().take(size.partial) {
            let text = grid(size, &PARTIAL_US, campaign_seed(seed, cycle, i)).text();
            s.submissions += 1;
            let (Some((out, _, first)), Some(cold)) = (submit(ctx, &server, &text), cold) else {
                s.failed += 1;
                continue;
            };
            s.partial_first.push(first);
            let head = &out.points[..cached_in_partial.min(out.points.len())];
            let cached_first = head.len() == cached_in_partial
                && head.iter().all(|p| p.cached)
                && out.cached_points == cached_in_partial as u64
                && out.computed_points == (points - cached_in_partial) as u64;
            checks.add_once("partial_streams_cached_points_first", cached_first, || {
                format!(
                    "cached {} computed {}",
                    out.cached_points, out.computed_points
                )
            });
            let same = head.iter().all(|p| {
                cold.points
                    .iter()
                    .any(|c| c.index == p.index && c.json == p.json)
            });
            checks.add_once("partial_cached_fragments_equal_cold", same, || {
                format!("campaign {i} of cycle {cycle}: a cached fragment changed bytes")
            });
        }
        ctx.tracer.end(phase);
        s.cycle.push(cycle_start.elapsed().as_secs_f64());

        if cycle == 0 {
            let hits = server.handle.cache_hits() - counters_before.0;
            let misses = server.handle.cache_misses() - counters_before.1;
            let document = cold[0]
                .as_ref()
                .map_or(String::new(), |c| c.observables.clone());
            first_cycle = Some((hits, misses, document));
        }
    });
    ctx.tracer.end(timed);
    drop(server);
    let _ = std::fs::remove_dir_all(&cache_dir);

    let (hits, misses, document) = first_cycle.expect("min_cycles units always run");
    let warm_tail = stats::tail(&s.warm).map_or(f64::NAN, |(_, v)| v);
    // Counts of the first cycle: every cycle does the same lookups, so
    // they repeat exactly however many cycles the budget fit.
    let per_layer = vec![
        Metric::timing("serve.first_point_ms", "ms", &s.cold_first, 1e3),
        Metric::timing("serve.partial_first_point_ms", "ms", &s.partial_first, 1e3),
        Metric::timing("serve.warm_submit_ms", "ms", &s.warm, 1e3),
        Metric::value("serve.warm_submit_tail_ms", "ms", warm_tail * 1e3),
        Metric::value("serve.cache_hits", "count", hits as f64),
        Metric::value("serve.cache_misses", "count", misses as f64),
        Metric::value(
            "serve.cache_hit_ratio",
            "ratio",
            hits as f64 / (hits + misses).max(1) as f64,
        ),
    ];

    Outcome {
        end_to_end: vec![
            Metric::timing("setup_s", "s", &setup_secs, 1.0),
            Metric::timing("unit_s", "s", &s.cycle, 1.0),
            Metric::value(
                "work_per_s",
                "1/s",
                (size.cold * points) as f64 / stats::median(&s.cold_phase),
            ),
        ],
        per_layer,
        checks,
        operations: s.submissions,
        failed_operations: s.failed,
        obs_fnv: stats::fnv(document.as_bytes()),
        inputs: vec![
            ("cold_grid", grid(size, &COLD_US, 0).describe()),
            ("partial_u", format!("{PARTIAL_US:?}")),
            (
                "cycle",
                format!(
                    "{} cold + {} warm + {} partial submissions",
                    size.cold, size.warm, size.partial
                ),
            ),
            (
                "load",
                "closed loop, 1 client, 1 connection at a time, service workers 1".to_string(),
            ),
            (
                "unit",
                "one cycle: cold, warm and partial phase".to_string(),
            ),
            ("work", "grid points computed in the cold phase".to_string()),
        ],
    }
}
