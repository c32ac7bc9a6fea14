//! Layer probes: public functions of each layer timed at the shapes the
//! workloads issue. They take no input from the workload, so every traced
//! pass runs all of them and a layer's number can be read beside any
//! workload's. One span per probe group.

use crate::grid::Grid;
use crate::run::{time_best, time_median, Ctx, Metric};
use crate::stats::{self, gbs, gflops};
use crate::workloads::serve::Served;
use dqmc::{
    greens_from_udt, stratify, BMatrixFactory, ClusterCache, Crowd, ModelParams, SimParams,
    Simulation, Spin, StratAlgo,
};
use lattice::Lattice;
use linalg::{dgemm_strided_batched, gemm, qrp_batched, GemmOperand, Matrix, Op};
use sched::{EventLog, GridSpec, PointSummary, SchedConfig};
use serve::{encode_frame, parse_frame, point_key, Frame, ResultCache};

/// Sizes of the probes; the smoke variant walks the same calls.
pub struct Size {
    /// The big shape (`solo_n256`'s matrices).
    pub n_big: usize,
    pub lside_big: usize,
    pub slices_big: usize,
    pub cluster_big: usize,
    pub reps: usize,
    /// Bytes of one STREAM-triad array.
    pub triad_bytes: usize,
}

pub const FULL: Size = Size {
    n_big: 256,
    lside_big: 16,
    slices_big: 32,
    cluster_big: 10,
    reps: 5,
    // Four times a 32 MiB last-level cache. This host reports 260 MiB (the
    // whole socket's, shared with other tenants); arrays of four times that
    // cost 11 s of page faults in every traced pass, so the size is fixed
    // here and both sizes are reported for the reader to set side by side.
    triad_bytes: 128 << 20,
};

/// Smoke keeps the metric names (they carry the full shapes) but runs
/// small matrices and a cache-resident triad; its numbers are never compared.
pub const SMOKE: Size = Size {
    n_big: 32,
    lside_big: 4,
    slices_big: 8,
    cluster_big: 4,
    reps: 2,
    triad_bytes: 1 << 20,
};

const N_MID: usize = 36;
const N_SMALL: usize = 16;
const BATCH: usize = 4;

fn span<T>(ctx: &mut Ctx, name: &'static str, f: impl FnOnce(&mut Ctx) -> T) -> T {
    let id = ctx.tracer.begin(name);
    let out = f(ctx);
    ctx.tracer.end(id);
    out
}

/// Seconds per call: best of `reps` timings of `inner` back-to-back calls.
fn per_call(reps: usize, inner: usize, mut f: impl FnMut()) -> f64 {
    time_best(reps, || {
        for _ in 0..inner {
            f();
        }
    }) / inner as f64
}

/// Best seconds of a call that consumes its input; the copies are made
/// before the clock starts.
fn time_best_consuming<T, R>(inputs: Vec<T>, mut f: impl FnMut(T) -> R) -> f64 {
    let reps = inputs.len();
    let mut inputs = inputs.into_iter();
    time_best(reps, || f(inputs.next().expect("one input per repetition")))
}

pub fn run_all(ctx: &mut Ctx, size: &Size) -> Vec<Metric> {
    let mut out = Vec::new();
    let gemm_big = span(ctx, "probe.linalg", |ctx| {
        linalg_probes(ctx.seed, size, &mut out)
    });
    span(ctx, "probe.host", |_| host_probes(size, &mut out));
    span(ctx, "probe.core", |ctx| {
        core_probes(ctx.seed, size, gemm_big, &mut out)
    });
    let points = span(ctx, "probe.sched", |ctx| sched_probes(ctx.seed, &mut out));
    span(ctx, "probe.serve", |ctx| {
        serve_probes(ctx, &points, &mut out)
    });
    span(ctx, "probe.fleet", |_| fleet_probes(&points, &mut out));
    span(ctx, "probe.util", |ctx| util_probes(ctx, &mut out));
    out
}

/// Returns the big-shape GEMM rate, the base of `core.greens_gemm_frac`.
fn linalg_probes(seed: u64, size: &Size, out: &mut Vec<Metric>) -> f64 {
    let mut rng = util::Rng::new(seed);
    let n = size.n_big;
    let reps = size.reps;
    let a = Matrix::random(n, n, &mut rng);
    let b = Matrix::random(n, n, &mut rng);
    let mut c = Matrix::zeros(n, n);
    let copies = |m: &Matrix| vec![m.clone(); reps];

    let t = time_best(reps, || {
        gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c)
    });
    let gemm_big = gflops(stats::flops_gemm(n), t);
    out.push(Metric::value(
        "linalg.gemm_gflops_n256",
        "GFlop/s",
        gemm_big,
    ));
    let t = time_best_consuming(copies(&a), linalg::qr::qr_in_place);
    out.push(Metric::value(
        "linalg.qr_gflops_n256",
        "GFlop/s",
        gflops(stats::flops_qr(n), t),
    ));
    let t = time_best_consuming(copies(&a), linalg::qrp::qrp_in_place);
    out.push(Metric::value(
        "linalg.qrp_gflops_n256",
        "GFlop/s",
        gflops(stats::flops_qr(n), t),
    ));

    // Diagonally dominant, so the solve meets no tiny pivot.
    let mut dominant = a.clone();
    dominant.axpy(n as f64, &Matrix::identity(n));
    let t = time_best(reps, || {
        linalg::lu::solve(&dominant, &b).expect("dominant matrix is regular")
    });
    out.push(Metric::value(
        "linalg.lu_solve_gflops_n256",
        "GFlop/s",
        gflops(stats::flops_lu_solve(n), t),
    ));

    // Unit diagonals: the traffic of a scaling without drifting the values.
    let ones = vec![1.0; n];
    let mut scaled = a.clone();
    let t = per_call(reps, 20, || {
        linalg::scale::row_col_scale(&ones, &ones, &mut scaled)
    });
    out.push(Metric::value(
        "linalg.scale_gbs_n256",
        "GB/s",
        gbs(stats::bytes_row_col_scale(n), t),
    ));
    let t = per_call(reps, 20, || {
        std::hint::black_box(linalg::scale::col_norms(&a));
    });
    out.push(Metric::value(
        "linalg.col_norms_gbs_n256",
        "GB/s",
        gbs(stats::bytes_col_norms(n), t),
    ));

    let m = N_MID;
    let a = Matrix::random(m, m, &mut rng);
    let bs: Vec<Matrix> = (0..BATCH).map(|_| Matrix::random(m, m, &mut rng)).collect();
    let mut cs: Vec<Matrix> = vec![Matrix::zeros(m, m); BATCH];
    let t = per_call(reps, 200, || {
        gemm(1.0, &a, Op::NoTrans, &bs[0], Op::NoTrans, 0.0, &mut cs[0])
    });
    out.push(Metric::value(
        "linalg.gemm_gflops_n36",
        "GFlop/s",
        gflops(stats::flops_gemm(m), t),
    ));
    let b_refs: Vec<&Matrix> = bs.iter().collect();
    let t = per_call(reps, 50, || {
        let mut c_refs: Vec<&mut Matrix> = cs.iter_mut().collect();
        dgemm_strided_batched(
            1.0,
            GemmOperand::Shared(&a),
            Op::NoTrans,
            GemmOperand::Each(&b_refs),
            Op::NoTrans,
            0.0,
            &mut c_refs,
        );
    });
    out.push(Metric::value(
        "linalg.gemm_batched_gflops_n36_b4",
        "GFlop/s",
        gflops(BATCH as f64 * stats::flops_gemm(m), t),
    ));
    let t = time_best_consuming(vec![bs.clone(); reps.max(3)], qrp_batched);
    out.push(Metric::value(
        "linalg.qrp_batched_gflops_n36_b4",
        "GFlop/s",
        gflops(BATCH as f64 * stats::flops_qr(m), t),
    ));

    let s = N_SMALL;
    let a = Matrix::random(s, s, &mut rng);
    let b = Matrix::random(s, s, &mut rng);
    let mut c = Matrix::zeros(s, s);
    let t = per_call(reps, 2000, || {
        gemm(1.0, &a, Op::NoTrans, &b, Op::NoTrans, 0.0, &mut c)
    });
    out.push(Metric::value("linalg.gemm_call_ns_n16", "ns", t * 1e9));
    gemm_big
}

/// Size in bytes of the largest cache level the kernel reports for cpu0.
fn last_level_cache_bytes() -> Option<usize> {
    let mut best = None;
    for index in 0..8 {
        let dir = format!("/sys/devices/system/cpu/cpu0/cache/index{index}");
        let Ok(size) = std::fs::read_to_string(format!("{dir}/size")) else {
            continue;
        };
        let size = size.trim();
        let (digits, unit) = size.split_at(size.trim_end_matches(char::is_alphabetic).len());
        let scale = match unit {
            "K" => 1 << 10,
            "M" => 1 << 20,
            "G" => 1 << 30,
            _ => 1,
        };
        if let Ok(n) = digits.parse::<usize>() {
            best = best.max(Some(n * scale));
        }
    }
    best
}

/// STREAM triad `a = b + s·c`, one thread, with the array size and the
/// last-level cache size reported beside the rate.
fn host_probes(size: &Size, out: &mut Vec<Metric>) {
    let llc = last_level_cache_bytes().unwrap_or(0);
    let len = size.triad_bytes / 8;
    let b = vec![1.0f64; len];
    let c = vec![2.0f64; len];
    let mut a = vec![0.0f64; len];
    let t = time_best(2, || {
        for ((x, y), z) in a.iter_mut().zip(&b).zip(&c) {
            *x = *y + 3.0 * *z;
        }
        a[len / 2]
    });
    out.extend([
        Metric::value("host.triad_gbs", "GB/s", gbs(stats::bytes_triad(len), t)),
        Metric::value(
            "host.triad_array_mb",
            "MB",
            (len * 8) as f64 / f64::from(1 << 20),
        ),
        Metric::value("host.llc_mb", "MB", llc as f64 / f64::from(1 << 20)),
        Metric::value(
            "host.cores",
            "count",
            crate::provenance::host_cores() as f64,
        ),
    ]);
}

fn square(lside: usize, slices: usize) -> ModelParams {
    ModelParams::new(Lattice::square(lside, lside, 1.0), 4.0, 0.0, 0.125, slices)
}

fn core_probes(seed: u64, size: &Size, gemm_big: f64, out: &mut Vec<Metric>) {
    let (slices, k, reps) = (size.slices_big, size.cluster_big, size.reps.min(3));
    let model = square(size.lside_big, slices);
    let n = model.nsites();
    let t = time_best(reps, || BMatrixFactory::new(&model));
    out.push(Metric::value("core.factory_build_s_n256", "s", t));

    // One sweep, so the field is a sampled one and not the random start.
    let params = SimParams::new(model)
        .with_seed(seed)
        .with_sweeps(1, 1)
        .with_cluster_size(k);
    let mut sim = Simulation::new(params.clone());
    sim.step(1);
    let g = sim.greens(Spin::Up).clone();
    let core = sim.core_mut();
    let (fac, h) = (&core.fac, &core.h);

    // A Green's evaluation as a sweep issues it: every cluster cached but
    // one (the method of the paper's Fig. 3 and 4).
    let mut cache = ClusterCache::new(slices, k);
    let factors = cache.factors_after_slice(fac, h, slices - 1, Spin::Up);
    let t = time_best(reps, || {
        cache.invalidate_slice(0);
        let factors = cache.factors_after_slice(fac, h, slices - 1, Spin::Up);
        greens_from_udt(&stratify(&factors, StratAlgo::PrePivot))
    });
    out.push(Metric::value("core.greens_eval_s_n256", "s", t));
    // Computed operations, as crates/bench's fig4 counts them: k−1 GEMMs
    // for the rebuilt cluster, per stratification step one GEMM, one QR,
    // forming Q and the T update, and the final assembly.
    let nf = (n as f64).powi(3);
    let steps = slices.div_ceil(k) as f64;
    let flops = (k - 1) as f64 * 2.0 * nf
        + steps * (2.0 + 4.0 / 3.0 + 4.0 / 3.0 + 1.0) * nf
        + 8.0 / 3.0 * nf;
    out.push(Metric::value(
        "core.greens_gemm_frac_n256",
        "ratio",
        gflops(flops, t) / gemm_big,
    ));
    let t = time_best(reps, || stratify(&factors, StratAlgo::PrePivot));
    out.push(Metric::value("core.stratify_prepivot_s_n256", "s", t));
    let t = time_best(reps, || stratify(&factors, StratAlgo::Qrp));
    out.push(Metric::value("core.stratify_qrp_s_n256", "s", t));
    let t = time_best(reps, || fac.cluster(h, 0, k.min(slices), Spin::Up));
    out.push(Metric::value("core.cluster_build_s_n256", "s", t));
    let mut wrapped = Matrix::zeros(n, n);
    let t = time_best(reps, || fac.wrap_into(h, 0, Spin::Up, &g, &mut wrapped));
    out.push(Metric::value("core.wrap_s_n256", "s", t));

    let image = sim.checkpoint_bytes();
    out.push(Metric::value(
        "core.checkpoint_bytes_n256",
        "B",
        image.len() as f64,
    ));
    let t = time_median(reps, || sim.checkpoint_bytes());
    out.push(Metric::value(
        "core.checkpoint_encode_ms_n256",
        "ms",
        t * 1e3,
    ));
    let t = time_median(reps, || {
        Simulation::resume_bytes(&image, &params).expect("own image resumes")
    });
    out.push(Metric::value("core.resume_ms_n256", "ms", t * 1e3));

    // The campaign shape: 6×6, β = 2, what one parked image costs and what
    // a walker costs inside a crowd of four against alone.
    let sweeps = 30;
    let mid = SimParams::new(square(6, 16))
        .with_seed(seed)
        .with_sweeps(5, sweeps - 5)
        .with_cluster_size(8);
    let mut sim = Simulation::new(mid.clone());
    sim.step(2);
    let image = sim.checkpoint_bytes();
    out.push(Metric::value(
        "core.checkpoint_bytes_n36",
        "B",
        image.len() as f64,
    ));
    let t = time_median(20, || sim.checkpoint_bytes());
    out.push(Metric::value(
        "core.checkpoint_encode_us_n36",
        "us",
        t * 1e6,
    ));
    let t = time_median(20, || {
        Simulation::resume_bytes(&image, &mid).expect("own image resumes")
    });
    out.push(Metric::value("core.resume_us_n36", "us", t * 1e6));

    let solo = time_best(2, || Simulation::new(mid.clone()).run());
    let walkers = |seed0: u64| {
        (0..BATCH as u64)
            .map(|w| mid.clone().with_seed(seed0 + w))
            .collect()
    };
    let crowd = time_best(2, || Crowd::new(walkers(seed)).run());
    out.push(Metric::value(
        "core.crowd_per_walker_ratio_n36_b4",
        "ratio",
        crowd / BATCH as f64 / solo,
    ));
}

/// Returns the point summaries of a small campaign, the real payloads the
/// serve and fleet probes frame, store and merge.
fn sched_probes(seed: u64, out: &mut Vec<Metric>) -> (GridSpec, Vec<PointSummary>) {
    // 64 one-sweep 2×2 jobs through the scheduler against the same chains
    // through `run_ensemble`: what is left is the cost of being a job.
    let jobs = 64;
    let tiny = Grid {
        lside: 2,
        us: &[2.0],
        betas: &[1.0],
        chains: jobs,
        crowd: 1,
        warmup: 0,
        sweeps: 1,
        workers: 1,
        devices: 0,
        quantum: 0,
        seed,
    }
    .spec();
    let cfg = SchedConfig::from_spec(&tiny);
    let scheduled = time_best(10, || sched::run_sweep(&tiny, &cfg, &EventLog::new()));
    let params = tiny.chain_params(&tiny.points()[0], 0);
    let bare = time_best(10, || dqmc::run_ensemble(&params, jobs));
    out.push(Metric::value(
        "sched.job_overhead_us",
        "us",
        (scheduled - bare) / jobs as f64 * 1e6,
    ));

    let spec = Grid {
        lside: 4,
        us: &[2.0, 4.0],
        betas: &[0.5, 1.0, 1.5, 2.0],
        chains: 4,
        crowd: 1,
        warmup: 2,
        sweeps: 8,
        workers: 1,
        devices: 0,
        quantum: 0,
        seed,
    }
    .spec();
    let report = sched::run_sweep(&spec, &SchedConfig::from_spec(&spec), &EventLog::new());
    (spec, report.points)
}

fn serve_probes(
    ctx: &mut Ctx,
    (spec, points): &(GridSpec, Vec<PointSummary>),
    out: &mut Vec<Metric>,
) {
    let frame = Frame::Point {
        index: 0,
        cached: true,
        json: points[0].observables_json(),
    };
    let bytes = encode_frame(&frame);
    let mb = bytes.len() as f64 / 1e6;
    let t = per_call(5, 2000, || {
        std::hint::black_box(encode_frame(&frame));
    });
    out.push(Metric::value("serve.frame_encode_mbs", "MB/s", mb / t));
    let t = per_call(5, 2000, || {
        std::hint::black_box(parse_frame(&bytes).expect("own frame parses"));
    });
    out.push(Metric::value("serve.frame_decode_mbs", "MB/s", mb / t));

    let dir = ctx.scratch("probe-cache");
    let cache = ResultCache::open(&dir).expect("open the probe cache");
    let key = point_key(spec, &spec.points()[0]);
    let t = time_median(20, || {
        cache.store(key, &points[0]).expect("store a cache entry")
    });
    out.push(Metric::value("serve.cache_store_us", "us", t * 1e6));
    let t = time_median(200, || cache.lookup(key));
    out.push(Metric::value("serve.cache_lookup_us", "us", t * 1e6));

    let server = Served::start(&dir);
    let mut client = server.client();
    let t = time_median(200, || client.stats().expect("stats round trip"));
    out.push(Metric::value("serve.stats_rtt_us", "us", t * 1e6));
    let t = time_median(200, || {
        serve::Client::connect(&server.addr).expect("connect")
    });
    out.push(Metric::value("serve.connect_us", "us", t * 1e6));
    drop(client);
    drop(server);
    let _ = std::fs::remove_dir_all(&dir);
}

fn fleet_probes((spec, points): &(GridSpec, Vec<PointSummary>), out: &mut Vec<Metric>) {
    // Two shard reports as two children would leave them: the points of
    // the campaign split in halves.
    let half = points.len() / 2;
    let reports: Vec<::fleet::ShardReport> = [&points[..half], &points[half..]]
        .iter()
        .enumerate()
        .map(|(shard, fragments)| ::fleet::ShardReport {
            shard,
            nshards: 2,
            fingerprint: sched::grid_fingerprint(spec),
            seed: spec.seed,
            chains: spec.chains,
            warmup: spec.warmup,
            sweeps: spec.sweeps,
            assigned: fragments.iter().map(|p| p.point).collect(),
            fragments: fragments.to_vec(),
            failed_chains: 0,
        })
        .collect();
    let t = time_median(50, || {
        ::fleet::merge_reports(&reports).expect("complete shards merge")
    });
    out.push(Metric::value("fleet.merge_ms", "ms", t * 1e3));
    let t = time_median(50, || reports[0].encode());
    out.push(Metric::value("fleet.report_encode_us", "us", t * 1e6));
    out.push(Metric::value(
        "fleet.report_bytes",
        "B",
        reports[0].encode().len() as f64,
    ));
}

fn util_probes(ctx: &mut Ctx, out: &mut Vec<Metric>) {
    // Heartbeat, shard report and N = 256 checkpoint sizes, on the
    // filesystem the workloads write to.
    let dir = ctx.scratch("probe-vfs");
    let path = dir.join("probe.bin");
    for (name, unit, scale, len, reps) in [
        ("util.write_atomic_us_64b", "us", 1e6, 64, 30),
        ("util.write_atomic_us_64k", "us", 1e6, 64 << 10, 20),
        ("util.write_atomic_ms_1m", "ms", 1e3, 1 << 20, 8),
    ] {
        let payload = vec![0xA5u8; len];
        let t = time_median(reps, || {
            util::vfs::write_atomic(&path, &payload).expect("atomic write")
        });
        out.push(Metric::value(name, unit, t * scale));
    }
    let _ = std::fs::remove_dir_all(&dir);

    let payload: Vec<u8> = (0..1usize << 20).map(|i| (i * 31) as u8).collect();
    let t = time_best(5, || util::crc32(&payload));
    out.push(Metric::value(
        "util.crc32_mbs",
        "MB/s",
        payload.len() as f64 / 1e6 / t,
    ));
}
