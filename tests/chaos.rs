//! Tier: chaos. Seeded fault storms against the scheduler's health layer.
//!
//! The determinism tier (`tests/sched_determinism.rs`) proves the *happy*
//! schedules are invisible in the physics. This tier turns every health
//! mechanism on at once — sick windows, fail-slow latency inflation past
//! the device's launch deadline, a device that stays dead, circuit-breaker
//! quarantine with probation probes — on the product defaults (no health
//! setting exists to tune), and proves three things:
//!
//! 1. the pooled observables are **byte-identical** to a clean serial run
//!    (chaos reshapes the schedule, never the physics);
//! 2. the trace stream shows each mechanism actually fired (soft-deadline
//!    parks off every sick slot, a breaker open → probation probe →
//!    re-admission cycle);
//! 3. a pure sick-device storm completes with **zero panics caught** and
//!    zero failed jobs — classification carries the whole failure path;
//!    `catch_unwind` in the workers is a backstop that never engages.
//!
//! Every fault here is scripted and keyed to logical clocks (launch
//! ordinals, simulated device seconds, lease-request counts), so the storm
//! replays identically on any machine.

use sched::{EventLog, GridSpec, SchedConfig, TraceEvent};

/// Physics section shared by the clean baseline and every storm grid: the
/// determinism contract says these keys (plus the seed) fix the
/// observables bytes.
const PHYSICS: &str = "
    lx = 2
    ly = 2
    u = 2.0, 4.0
    beta = 1.0      # 8 slices
    chains = 2
    warmup = 4
    sweeps = 8
    bin_size = 2
    cluster_size = 4
    seed = 11
";

fn grid(schedule_keys: &str) -> GridSpec {
    GridSpec::parse(&format!("{PHYSICS}\n{schedule_keys}\n")).expect("chaos grid parses")
}

/// Serial host-only reference for the shared physics, with `physics_keys`
/// (e.g. a `chains` override) on top.
fn clean_baseline(physics_keys: &str) -> String {
    let cfg = SchedConfig {
        workers: 1,
        devices: 0,
        ..SchedConfig::default()
    };
    let spec = grid(&format!("devices = 0\n{physics_keys}"));
    sched::run_sweep(&spec, &cfg, &EventLog::new()).observables_json()
}

/// The storm's physics overrides: enough jobs that three of them pay the
/// product breaker's three strikes on the sick slot and others are left to
/// run its probation probe, each long enough (18 quanta) that a worker the
/// OS deschedules while it holds the sick slot cannot outlast the storm.
const STORM_PHYSICS: &str = "chains = 4\nsweeps = 32";

/// The full storm: slot 0 is intermittently sick (heals once the breaker
/// opens — the re-admission path), slot 1 is persistently fail-slow (its
/// first launch inflated ~4·10⁹×, far past the launch deadline: numerics
/// exact, the launch killed as a hang), slot 2 persistently hangs its
/// first launch (a device that stays dead).
fn storm_grid() -> GridSpec {
    grid(&format!(
        "{STORM_PHYSICS}\ndevices = 3\n\
         slot_faults = sick@0:1-3, slow@1:1:4000000000!, hang@2:1!"
    ))
}

fn storm_config() -> SchedConfig {
    SchedConfig {
        workers: 3,
        devices: 3,
        quantum: 2,
        yield_every_quanta: 1, // re-place after every quantum: maximum churn
        job_retries: 1,
        ..SchedConfig::default()
    }
}

#[test]
fn storm_observables_are_byte_identical_to_clean_run() {
    let spec = storm_grid();
    let cfg = storm_config();
    let events = EventLog::new();
    let report = sched::run_sweep(&spec, &cfg, &events);

    // The storm completed: sick classification carried every failure, the
    // panic backstop never engaged, and no job burned its retry budget.
    assert_eq!(report.failed_jobs, 0, "sick storms must not fail jobs");
    assert_eq!(report.panics_caught, 0, "classified errors must not unwind");

    // And it was invisible in the physics.
    assert_eq!(
        report.observables_json(),
        clean_baseline(STORM_PHYSICS),
        "fault storm leaked into the observables bytes"
    );
}

#[test]
fn storm_trace_proves_every_health_mechanism_fired() {
    let spec = storm_grid();
    let cfg = storm_config();
    let events = EventLog::new();
    let report = sched::run_sweep(&spec, &cfg, &events);
    let trace = events.snapshot();

    // Soft deadlines: sick launches on slot 0 park, and the launch deadline
    // catches the fail-slow device on slot 1 — a park on slot 1 can *only*
    // come from the deadline (its numerics are clean).
    assert!(
        trace
            .iter()
            .any(|e| matches!(e, TraceEvent::SoftDeadline { .. })),
        "no soft-deadline park in the storm trace"
    );
    assert!(
        trace
            .iter()
            .any(|e| matches!(e, TraceEvent::SoftDeadline { slot: 1, .. })),
        "the launch deadline never caught the fail-slow device"
    );
    assert!(report.soft_parks >= 2, "report undercounts soft parks");

    // The dead device on slot 2 parks its job like any other hang; the
    // job resumes from its parked image elsewhere.
    assert!(
        trace
            .iter()
            .any(|e| matches!(e, TraceEvent::SoftDeadline { slot: 2, .. })),
        "the dead device never parked a job"
    );

    // Breaker lifecycle on the healing slot 0: opened → probation probe →
    // re-admitted, in that order.
    let open_at = trace
        .iter()
        .position(|e| matches!(e, TraceEvent::BreakerOpen { slot: 0, .. }))
        .expect("breaker never opened on the sick slot");
    let probe_at = trace
        .iter()
        .position(|e| matches!(e, TraceEvent::ProbeGranted { slot: 0 }))
        .expect("quarantined slot never got a probation probe");
    let readmit_at = trace
        .iter()
        .position(|e| matches!(e, TraceEvent::SlotReadmitted { slot: 0 }))
        .expect("healed slot was never re-admitted");
    assert!(
        open_at < probe_at && probe_at < readmit_at,
        "breaker lifecycle out of order: open {open_at}, probe {probe_at}, readmit {readmit_at}"
    );
    assert!(report.quarantines >= 1 && report.probes >= 1 && report.readmissions >= 1);
}

#[test]
fn storm_is_reproducible_run_to_run() {
    let spec = storm_grid();
    let cfg = storm_config();
    let a = sched::run_sweep(&spec, &cfg, &EventLog::new()).observables_json();
    let b = sched::run_sweep(&spec, &cfg, &EventLog::new()).observables_json();
    assert_eq!(
        a, b,
        "storm physics must be reproducible despite racing workers"
    );
}

#[test]
fn fault_storm_over_the_socket_streams_clean_bytes() {
    // The service tier, under fire: a grid whose every device-placed job
    // is armed with one-shot launch failures and transfer corruption is
    // submitted over a real TCP socket. The recovery ladder must fire
    // (visible in the Done frame's counters) and the streamed bytes must
    // still equal the in-process clean run — chaos reshapes the schedule,
    // never the physics, and the socket adds nothing.
    use serve::{Client, Server, ServerConfig};

    let storm = "faults = fail_launch:1, corrupt_transfer:3";
    let spec = grid(storm);
    assert!(!spec.faults.is_empty(), "storm grid must arm job faults");

    let server = Server::bind(
        "127.0.0.1:0",
        &ServerConfig {
            service: sched::ServiceConfig {
                workers: 2,
                devices: 2,
                quantum: 2,
                job_retries: 1,
                ..sched::ServiceConfig::default()
            },
            ..ServerConfig::default()
        },
    )
    .expect("bind ephemeral port");
    let handle = server.handle();
    let addr = server.local_addr().to_string();
    let accept = std::thread::spawn(move || server.run());

    let outcome = Client::connect_retry(&addr, 50, std::time::Duration::from_millis(20))
        .expect("connect")
        .submit("chaos", 0, &format!("{PHYSICS}\n{storm}\n"))
        .expect("storm submission");

    assert_eq!(outcome.failed_chains, 0, "one-shot faults must heal");
    assert!(
        outcome.recovery_events > 0,
        "the storm never engaged the recovery ladder"
    );
    assert_eq!(
        outcome.observables,
        clean_baseline(""),
        "socket-served storm leaked into the observables bytes"
    );

    handle.request_shutdown();
    let _ = accept.join();
}

#[test]
fn hang_class_parks_softly_without_worker_loss() {
    // A hang: the driver kills the launch at its deadline, the job parks
    // and excludes the slot, and runs to the end on the host.
    let spec = grid("devices = 1\nchains = 1\nslot_faults = hang@0:1!");
    let cfg = SchedConfig {
        workers: 1,
        devices: 1,
        quantum: 2,
        ..SchedConfig::default()
    };
    let events = EventLog::new();
    let report = sched::run_sweep(&spec, &cfg, &events);
    assert_eq!(report.failed_jobs, 0);
    assert_eq!(report.panics_caught, 0);
    assert!(report.soft_parks >= 1, "hang must park softly");
    assert!(
        events
            .snapshot()
            .iter()
            .any(|e| matches!(e, TraceEvent::SoftDeadline { slot: 0, .. })),
        "the hung device never parked the job"
    );
    assert_eq!(
        report.observables_json(),
        sched::run_sweep(
            &grid("devices = 0\nchains = 1"),
            &SchedConfig::default(),
            &EventLog::new()
        )
        .observables_json(),
        "hang-and-requeue changed the physics"
    );
}

#[test]
fn fail_slow_device_is_caught_by_the_launch_deadline_on_default_config() {
    // A device whose first launch is ~4·10⁹× slow, under the config a grid
    // file alone yields — no budget or threshold set anywhere: the launch
    // reaches the device's deadline and is killed as a hang, the job parks
    // and runs elsewhere, and the physics does not move.
    let spec = grid("devices = 1\nslot_faults = slow@0:1:4000000000!");
    let events = EventLog::new();
    let report = sched::run_sweep(&spec, &SchedConfig::from_spec(&spec), &events);
    assert!(
        events
            .snapshot()
            .iter()
            .any(|e| matches!(e, TraceEvent::SoftDeadline { slot: 0, .. })),
        "the fail-slow device went undetected"
    );
    assert_eq!(report.failed_jobs, 0);
    assert_eq!(report.panics_caught, 0);
    assert_eq!(
        report.observables_json(),
        clean_baseline(""),
        "deadline park changed the physics"
    );
}
