//! The sweep scheduler's determinism contract, end to end.
//!
//! A campaign's pooled observables must be a **pure function of
//! (grid, seeds)**: worker count, device-pool size, placement order,
//! preemption schedule and scripted one-shot fault plans may change every
//! scheduling decision, yet [`sched::SweepReport::observables_json`] must
//! come out byte-identical. Each test here runs the same tiny grid under a
//! different scheduling regime, *proves* via the trace stream that the
//! regime actually differed (yields happened, devices were used, injected
//! jobs cut in), and then asserts the bytes match the serial baseline.

use sched::{
    CampaignRequest, EventLog, GridSpec, PointObserver, PointSummary, SchedConfig, SweepService,
    TraceEvent,
};
use std::sync::{Arc, Barrier};

const GRID: &str = "
    lx = 2
    ly = 2
    u = 2.0, 4.0
    beta = 1.0      # 8 slices
    chains = 2
    warmup = 4
    sweeps = 8
    bin_size = 2
    cluster_size = 4
    seed = 7
    workers = 1
    devices = 0
";

fn spec() -> GridSpec {
    GridSpec::parse(GRID).expect("baseline grid parses")
}

/// Serial host-only reference: one worker, no devices, jobs run to
/// completion. Everything else is compared against this.
fn baseline() -> String {
    let spec = spec();
    let cfg = SchedConfig {
        workers: 1,
        devices: 0,
        queue_bound: 0,
        quantum: 0,
        yield_every_quanta: 0,
        job_retries: 1,
        ..SchedConfig::default()
    };
    sched::run_sweep(&spec, &cfg, &EventLog::new()).observables_json()
}

#[test]
fn baseline_is_reproducible() {
    assert_eq!(baseline(), baseline());
    // Every comparison in this file (and the served / sharded tiers) is
    // between two runs of the same router; this file is the oracle that is
    // not: bytes that cross commits, the same under every GEMM kernel path
    // (tests/golden/README.md).
    assert_eq!(baseline(), include_str!("golden/sweep_v1.obs.json"));
}

#[test]
fn worker_count_is_unobservable() {
    let spec = spec();
    let cfg = SchedConfig {
        workers: 4,
        devices: 0,
        queue_bound: 0,
        quantum: 0,
        yield_every_quanta: 0,
        job_retries: 1,
        ..SchedConfig::default()
    };
    let report = sched::run_sweep(&spec, &cfg, &EventLog::new());
    assert_eq!(report.workers, 4);
    assert_eq!(report.observables_json(), baseline());
}

#[test]
fn device_pool_size_is_unobservable() {
    let spec = spec();
    for (workers, devices) in [(2, 2), (1, 1), (3, 1)] {
        let cfg = SchedConfig {
            workers,
            devices,
            queue_bound: 0,
            quantum: 0,
            yield_every_quanta: 0,
            job_retries: 1,
            ..SchedConfig::default()
        };
        let events = EventLog::new();
        let report = sched::run_sweep(&spec, &cfg, &events);
        // The pool was actually exercised: someone ran on a device.
        assert!(
            report.leases_granted > 0,
            "{workers}w/{devices}d: no job ever leased a device"
        );
        assert!(report.device_quanta > 0);
        assert_eq!(
            report.observables_json(),
            baseline(),
            "{workers} workers / {devices} devices changed the physics"
        );
    }
}

#[test]
fn preemption_and_resume_are_unobservable() {
    let spec = spec();
    let cfg = SchedConfig {
        workers: 1,
        devices: 1,
        queue_bound: 0,
        quantum: 3,            // park every 3 sweeps...
        yield_every_quanta: 1, // ...after every single quantum
        job_retries: 1,
        ..SchedConfig::default()
    };
    let events = EventLog::new();
    let report = sched::run_sweep(&spec, &cfg, &events);
    // Preemption really happened: jobs parked and resumed from DQCP images.
    let yields = events.count(|e| matches!(e, TraceEvent::Yielded { .. }));
    let resumes = events.count(|e| matches!(e, TraceEvent::Started { resumed: true, .. }));
    assert!(yields >= 4, "expected forced yields, saw {yields}");
    assert!(resumes >= 4, "expected checkpoint resumes, saw {resumes}");
    assert_eq!(report.preemptions, yields as u64);
    assert_eq!(report.observables_json(), baseline());
}

#[test]
fn mid_sweep_priority_injection_is_unobservable() {
    // The path a tenant's urgent campaign takes: point 0 is submitted at
    // priority 0 and, while its two jobs time-slice on the one worker,
    // point 1 arrives as a second campaign at priority 1 and cuts in front
    // of point 0's remaining work.
    let spec = spec();
    let service = SweepService::start(&SchedConfig {
        workers: 1,
        quantum: 2,
        yield_every_quanta: 1,
        ..SchedConfig::default()
    });
    // The interleaving is forced, not hoped for: a pacer campaign is one job
    // of one quantum whose point observer parks the worker (observers run
    // on it, outside every lock) until the test thread has met it twice.
    let pacer = GridSpec {
        chains: 1,
        warmup: 0,
        sweeps: 2,
        ..spec.clone()
    };
    let gate = Arc::new(Barrier::new(2));
    let park_worker = || {
        let gate = Arc::clone(&gate);
        let observer: Arc<PointObserver> = Arc::new(move |_: &PointSummary| {
            gate.wait();
            gate.wait();
        });
        let req = CampaignRequest {
            spec: pacer.clone(),
            priority: 0,
            points: Some(vec![0]),
        };
        service
            .submit(&req, Some(observer))
            .expect("pacer admitted");
    };
    let campaign = |point, priority| {
        let req = CampaignRequest {
            spec: spec.clone(),
            priority,
            points: Some(vec![point]),
        };
        service.submit(&req, None).expect("campaign admitted")
    };
    park_worker();
    gate.wait(); // worker parked: what follows is queued as one unit
    let low = campaign(0, 0);
    park_worker(); // behind point 0's two jobs in their class
    gate.wait(); // worker released: each job of point 0 runs one quantum and
    gate.wait(); // yields, then the second pacer parks it again
    let high = campaign(1, 1);
    gate.wait();
    let mut points = low.wait().points;
    points.extend(high.wait().points);

    let snap = service.events().snapshot();
    let first_p1_start = snap
        .iter()
        .position(|e| matches!(e, TraceEvent::Started { point: 1, .. }))
        .expect("injected point ran");
    let p0_yields_before = snap[..first_p1_start]
        .iter()
        .filter(|e| matches!(e, TraceEvent::Yielded { point: 0, .. }))
        .count();
    assert_eq!(
        p0_yields_before, 2,
        "point 0 was mid-run when point 1 arrived"
    );
    // The injected point really did run before point 0 finished.
    let last_p0_done = snap
        .iter()
        .rposition(|e| matches!(e, TraceEvent::Completed { point: 0, .. }))
        .expect("point 0 completed");
    assert!(
        first_p1_start < last_p0_done,
        "injected jobs should preempt point 0's remaining work"
    );
    assert!(points.iter().all(|p| p.chains_failed == 0));
    assert_eq!(
        sched::observables_json_for(spec.seed, spec.chains, spec.warmup, spec.sweeps, &points),
        baseline()
    );
}

#[test]
fn scripted_device_faults_heal_bit_identically() {
    let faulty = GridSpec::parse(&format!(
        "{GRID}\n    faults = fail_launch:2, oom:1, corrupt_transfer:4\n"
    ))
    .expect("faulty grid parses");
    let cfg = SchedConfig {
        workers: 2,
        devices: 2,
        queue_bound: 0,
        quantum: 0,
        yield_every_quanta: 0,
        job_retries: 1,
        ..SchedConfig::default()
    };
    let report = sched::run_sweep(&faulty, &cfg, &EventLog::new());
    // The faults really fired and the recovery ladder really healed them.
    let recovery: u64 = report.points.iter().map(|p| p.recovery_events).sum();
    assert!(
        recovery > 0,
        "scripted faults never fired — the test proves nothing"
    );
    assert_eq!(report.failed_jobs, 0, "faults must heal, not kill jobs");
    assert_eq!(report.observables_json(), baseline());
}

#[test]
fn flip_bit_faults_are_rejected_at_parse_time() {
    let err = GridSpec::parse(&format!("{GRID}\n    faults = flip_bit:3\n")).unwrap_err();
    assert!(err.to_string().contains("determinism"), "{err}");
}

// ---- crowd-size invariance ------------------------------------------------
//
// Crowd-batched execution (jobs of B chains stepped in lockstep through
// strided-batch device kernels) is a *schedule-layer* optimisation: the
// observables bytes must not move when B changes, whether the crowd runs on
// the batched device backend, falls back to the host mid-run, or heals
// storms of scripted faults inside a batch.

const CROWD_GRID: &str = "
    lx = 2
    ly = 2
    u = 2.0, 4.0
    beta = 1.0      # 8 slices
    chains = 8
    warmup = 4
    sweeps = 8
    bin_size = 2
    cluster_size = 4
    seed = 7
    workers = 1
    devices = 0
";

fn crowd_spec(crowd: usize, extra: &str) -> GridSpec {
    GridSpec::parse(&format!("{CROWD_GRID}\n    crowd = {crowd}\n{extra}"))
        .expect("crowd grid parses")
}

/// Solo-job host reference for the crowd grid.
fn crowd_baseline() -> String {
    let cfg = SchedConfig {
        workers: 1,
        devices: 0,
        ..SchedConfig::default()
    };
    sched::run_sweep(&crowd_spec(1, ""), &cfg, &EventLog::new()).observables_json()
}

#[test]
fn crowd_size_is_unobservable() {
    let base = crowd_baseline();
    for crowd in [4, 8] {
        let spec = crowd_spec(crowd, "");
        let cfg = SchedConfig {
            workers: 2,
            devices: 2,
            ..SchedConfig::default()
        };
        let report = sched::run_sweep(&spec, &cfg, &EventLog::new());
        assert_eq!(report.crowd, crowd);
        // The batched device path really ran.
        assert!(report.leases_granted > 0, "crowd {crowd}: no device lease");
        assert!(report.device_quanta > 0);
        assert!(report.device_seconds > 0.0);
        assert_eq!(report.failed_jobs, 0);
        assert_eq!(
            report.observables_json(),
            base,
            "crowd size {crowd} changed the physics"
        );
    }
}

#[test]
fn crowd_jobs_survive_preemption_and_resume() {
    // Crowd checkpoints are DQCW envelopes of per-walker DQCP images; a
    // preempted crowd must resume bit-identically mid-batch.
    let spec = crowd_spec(4, "");
    let cfg = SchedConfig {
        workers: 1,
        devices: 1,
        quantum: 3,
        yield_every_quanta: 1,
        ..SchedConfig::default()
    };
    let events = EventLog::new();
    let report = sched::run_sweep(&spec, &cfg, &events);
    let yields = events.count(|e| matches!(e, TraceEvent::Yielded { .. }));
    let resumes = events.count(|e| matches!(e, TraceEvent::Started { resumed: true, .. }));
    assert!(yields >= 4, "expected forced crowd yields, saw {yields}");
    assert!(resumes >= 4, "expected crowd resumes, saw {resumes}");
    assert_eq!(report.failed_jobs, 0);
    assert_eq!(report.observables_json(), crowd_baseline());
}

#[test]
fn fault_storms_heal_mid_crowd_bit_identically() {
    // Scripted device faults land *inside* crowd batches: launch failures
    // retry the whole batch, silent corruption taints a single walker whose
    // solo repair path heals it without touching its neighbours — and the
    // pooled bytes still match the solo host reference.
    let spec = crowd_spec(
        4,
        "    faults = fail_launch:2, oom:1, corrupt_transfer:4, corrupt_transfer:9\n",
    );
    let cfg = SchedConfig {
        workers: 2,
        devices: 2,
        ..SchedConfig::default()
    };
    let report = sched::run_sweep(&spec, &cfg, &EventLog::new());
    let recovery: u64 = report.points.iter().map(|p| p.recovery_events).sum();
    assert!(
        recovery > 0,
        "scripted faults never fired inside a crowd — the test proves nothing"
    );
    assert_eq!(
        report.failed_jobs, 0,
        "crowd faults must heal, not kill jobs"
    );
    assert_eq!(report.observables_json(), crowd_baseline());
}

/// A grid past `linalg::team::FORK_FLOPS` (N = 100): every GEMM forks and
/// every Green's evaluation splits its spin pair — if the team is free.
const TEAM_GRID: &str = "
    lx = 10
    ly = 10
    u = 4.0
    beta = 1.0      # 8 slices
    chains = 2
    warmup = 1
    sweeps = 2
    bin_size = 1
    cluster_size = 4
    seed = 11
    workers = 1
    devices = 0
";

#[test]
fn workers_contending_for_the_kernel_team_are_unobservable() {
    // One worker has the team to itself. Two workers race for it at every
    // kernel: whoever finds it taken runs that kernel serially, and which
    // one that is changes from call to call. The bytes must not notice.
    let spec = GridSpec::parse(TEAM_GRID).expect("team grid parses");
    let run = |workers| {
        let cfg = SchedConfig {
            workers,
            devices: 0,
            queue_bound: 0,
            quantum: 0,
            yield_every_quanta: 0,
            job_retries: 1,
            ..SchedConfig::default()
        };
        sched::run_sweep(&spec, &cfg, &EventLog::new()).observables_json()
    };
    assert_eq!(run(2), run(1));
}
