//! Tier: service. End-to-end tests of `dqmc-serve` on a real TCP socket.
//!
//! Each test binds an ephemeral port, runs the accept loop on its own
//! thread, and drives it with the DQSF client. The scenarios pin the
//! service contract on top of the scheduler's determinism tier:
//!
//! 1. submit → stream → drain: a served campaign's bytes equal an
//!    in-process `run_sweep` of the same grid;
//! 2. cold miss vs warm hit: the second identical submission returns
//!    byte-identical observables **without enqueueing a single job**;
//! 3. two tenants with interleaved priorities both stream to completion,
//!    each byte-identical to its own baseline;
//! 4. a client that disconnects mid-stream does not poison the queue —
//!    its campaign completes, backfills the cache, and the next client
//!    is served normally;
//! 5. a corrupted cache entry is detected, evicted, and recomputed, with
//!    the recompute again byte-identical.

use sched::{EventLog, GridSpec, SchedConfig, ServiceConfig};
use serve::protocol::{read_frame, write_frame, Frame};
use serve::{Client, Server, ServerConfig, ServerHandle};
use std::net::TcpStream;
use std::path::PathBuf;
use std::time::Duration;

const GRID_A: &str = "
    lx = 2
    ly = 2
    u = 2.0, 4.0
    beta = 1.0
    chains = 2
    warmup = 2
    sweeps = 6
    bin_size = 2
    cluster_size = 4
    seed = 11
";

const GRID_B: &str = "
    lx = 2
    ly = 2
    u = 3.0
    beta = 1.0, 1.5
    chains = 2
    warmup = 2
    sweeps = 6
    bin_size = 2
    cluster_size = 4
    seed = 23
";

/// Serial in-process reference: the bytes the service must reproduce.
fn baseline(grid: &str) -> String {
    let spec = GridSpec::parse(grid).expect("grid parses");
    let cfg = SchedConfig {
        workers: 1,
        devices: 0,
        ..SchedConfig::default()
    };
    sched::run_sweep(&spec, &cfg, &EventLog::new()).observables_json()
}

/// Per-test scratch cache directory (pid-scoped; cleaned on entry).
fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("dqmc_serve_test_{}_{}", tag, std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

struct TestServer {
    handle: ServerHandle,
    addr: String,
    thread: Option<std::thread::JoinHandle<std::io::Result<()>>>,
}

impl TestServer {
    fn start(cfg: &ServerConfig) -> TestServer {
        let server = Server::bind("127.0.0.1:0", cfg).expect("bind ephemeral port");
        let handle = server.handle();
        let addr = server.local_addr().to_string();
        let thread = std::thread::spawn(move || server.run());
        TestServer {
            handle,
            addr,
            thread: Some(thread),
        }
    }

    fn client(&self) -> Client {
        Client::connect_retry(&self.addr, 50, Duration::from_millis(20)).expect("connect")
    }
}

impl Drop for TestServer {
    fn drop(&mut self) {
        self.handle.request_shutdown();
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

#[test]
fn served_campaign_streams_and_matches_in_process_run() {
    let server = TestServer::start(&ServerConfig {
        service: ServiceConfig {
            workers: 2,
            devices: 1,
            quantum: 2,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    });
    let mut streamed = Vec::new();
    let outcome = server
        .client()
        .submit_with("alice", 1, GRID_A, |p| streamed.push(p.index))
        .expect("submission");

    // Both points streamed (order is completion order), none from cache.
    let mut seen = streamed.clone();
    seen.sort_unstable();
    assert_eq!(seen, vec![0, 1]);
    assert!(outcome.points.iter().all(|p| !p.cached));
    assert_eq!(outcome.cached_points, 0);
    assert_eq!(outcome.computed_points, 2);
    assert_eq!(outcome.jobs_run, 4, "2 points x 2 chains, crowd 1");
    assert_eq!(outcome.failed_chains, 0);

    // The service bytes ARE the engine bytes.
    assert_eq!(outcome.observables, baseline(GRID_A));

    // Each streamed point fragment appears verbatim in the final document.
    for p in &outcome.points {
        assert!(
            outcome.observables.contains(&p.json),
            "streamed point {} not embedded in the final document",
            p.index
        );
    }
}

#[test]
fn warm_cache_hit_is_byte_identical_with_flat_job_counters() {
    let dir = scratch("warm");
    let server = TestServer::start(&ServerConfig {
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });

    let cold = server
        .client()
        .submit("alice", 0, GRID_A)
        .expect("cold submission");
    assert_eq!(cold.jobs_run, 4);
    assert_eq!(cold.cached_points, 0);
    let jobs_after_cold = server.handle.jobs_submitted();
    assert_eq!(jobs_after_cold, 4);

    let warm = server
        .client()
        .submit("bob", 0, GRID_A)
        .expect("warm submission");
    // Byte identity, disk-only: no jobs were enqueued anywhere.
    assert_eq!(warm.observables, cold.observables);
    assert_eq!(warm.jobs_run, 0);
    assert_eq!(warm.cached_points, 2);
    assert_eq!(warm.computed_points, 0);
    assert!(warm.points.iter().all(|p| p.cached));
    assert_eq!(
        server.handle.jobs_submitted(),
        jobs_after_cold,
        "a warm hit must not enqueue jobs"
    );
    assert_eq!(server.handle.cache_hits(), 2);
    // The per-point stream is byte-identical too, point by point.
    for p in &warm.points {
        let cold_p = cold
            .points
            .iter()
            .find(|q| q.index == p.index)
            .expect("cold run served this point");
        assert_eq!(p.json, cold_p.json);
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// One plain-HTTP probe on the service socket: the status line and body.
fn http_get(addr: &str, path: &str) -> (String, String) {
    use std::io::{Read, Write};
    let mut stream = TcpStream::connect(addr).expect("connect");
    let request = format!("GET {path} HTTP/1.1\r\nHost: probe\r\n\r\n");
    stream.write_all(request.as_bytes()).expect("send request");
    let mut response = String::new();
    stream.read_to_string(&mut response).expect("read response");
    let (head, body) = response.split_once("\r\n\r\n").expect("header terminator");
    let status = head.lines().next().unwrap_or_default();
    (status.to_string(), body.to_string())
}

#[test]
fn http_probes_answer_healthz_stats_and_not_found() {
    let dir = scratch("http");
    let server = TestServer::start(&ServerConfig {
        service: ServiceConfig {
            workers: 2,
            ..ServiceConfig::default()
        },
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });
    let ok = "HTTP/1.1 200 OK".to_string();
    assert_eq!(
        http_get(&server.addr, "/healthz"),
        (ok.clone(), "{\"ok\":true}".to_string())
    );

    server.client().submit("alice", 0, GRID_A).expect("cold");
    server.client().submit("bob", 0, GRID_A).expect("warm");
    let (status, body) = http_get(&server.addr, "/stats");
    let s = server.client().stats().expect("stats frame");
    assert_eq!((s.jobs_submitted, s.cache_hits, s.cache_misses), (4, 2, 2));
    // The eight keys, in this order, with the frame's counters; nothing
    // was scrubbed from the fresh cache directory.
    let expected = format!(
        "{{\"jobs_submitted\":{},\"campaigns_completed\":{},\"active_campaigns\":{},\
         \"cache_hits\":{},\"cache_misses\":{},\"cache_corrupt\":{},\
         \"cache_scrubbed_debris\":0,\"cache_scrubbed_corrupt\":0}}",
        s.jobs_submitted,
        s.campaigns_completed,
        s.active_campaigns,
        s.cache_hits,
        s.cache_misses,
        s.cache_corrupt,
    );
    assert_eq!((status, body), (ok, expected));

    let (status, _) = http_get(&server.addr, "/metrics");
    assert_eq!(status, "HTTP/1.1 404 Not Found");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn concurrent_tenants_with_interleaved_priorities_both_complete() {
    let server = TestServer::start(&ServerConfig {
        service: ServiceConfig {
            workers: 2,
            quantum: 1, // maximum interleaving between the two campaigns
            ..ServiceConfig::default()
        },
        max_tenant_campaigns: 2,
        ..ServerConfig::default()
    });

    let addr_a = server.addr.clone();
    let addr_b = server.addr.clone();
    let ta = std::thread::spawn(move || {
        Client::connect_retry(&addr_a, 50, Duration::from_millis(20))
            .expect("connect a")
            .submit("alice", 3, GRID_A)
            .expect("tenant a submission")
    });
    let tb = std::thread::spawn(move || {
        Client::connect_retry(&addr_b, 50, Duration::from_millis(20))
            .expect("connect b")
            .submit("bob", 1, GRID_B)
            .expect("tenant b submission")
    });
    let a = ta.join().expect("tenant a thread");
    let b = tb.join().expect("tenant b thread");

    // Both result sets streamed to completion, each with its own bytes —
    // multiplexing through one queue leaked nothing across tenants.
    assert_eq!(a.computed_points, 2);
    assert_eq!(b.computed_points, 2);
    assert_eq!(a.observables, baseline(GRID_A));
    assert_eq!(b.observables, baseline(GRID_B));
    assert_eq!(server.handle.campaigns_completed(), 2);
    assert_eq!(server.handle.active_campaigns(), 0);
}

#[test]
fn disconnect_mid_stream_does_not_poison_the_queue() {
    let dir = scratch("disco");
    let server = TestServer::start(&ServerConfig {
        service: ServiceConfig {
            workers: 1,
            quantum: 2,
            ..ServiceConfig::default()
        },
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });

    // Speak the protocol by hand: submit, read the Accepted frame, then
    // vanish without draining the stream.
    {
        let mut raw = TcpStream::connect(&server.addr).expect("connect raw");
        write_frame(
            &mut raw,
            &Frame::Submit {
                tenant: "ghost".into(),
                priority: 0,
                grid: GRID_A.into(),
            },
        )
        .expect("submit frame");
        match read_frame(&mut raw).expect("accepted frame") {
            Frame::Accepted { jobs, .. } => assert_eq!(jobs, 4),
            other => panic!("expected Accepted, got kind {}", other.kind()),
        }
        // Dropping the stream here closes the socket mid-stream.
    }

    // The orphaned campaign must still run to completion.
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while server.handle.campaigns_completed() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned campaign never completed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }
    assert_eq!(server.handle.active_campaigns(), 0);

    // A fresh client is served normally afterwards...
    let b = server
        .client()
        .submit("alice", 0, GRID_B)
        .expect("post-disconnect submission");
    assert_eq!(b.observables, baseline(GRID_B));

    // ...and the ghost's campaign backfilled the cache on its way out: the
    // same grid now comes back as a full warm hit, byte-identical.
    let warm = server
        .client()
        .submit("alice", 0, GRID_A)
        .expect("warm resubmission");
    assert_eq!(warm.jobs_run, 0);
    assert_eq!(warm.cached_points, 2);
    assert_eq!(warm.observables, baseline(GRID_A));
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resilient_resubmission_after_mid_stream_disconnect_is_idempotent() {
    let dir = scratch("resilient");
    let server = TestServer::start(&ServerConfig {
        service: ServiceConfig {
            workers: 1,
            quantum: 2,
            ..ServiceConfig::default()
        },
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });

    // A client loses its connection mid-stream: submit, read Accepted,
    // vanish. The server keeps running the orphaned campaign.
    {
        let mut raw = TcpStream::connect(&server.addr).expect("connect raw");
        write_frame(
            &mut raw,
            &Frame::Submit {
                tenant: "flaky".into(),
                priority: 0,
                grid: GRID_A.into(),
            },
        )
        .expect("submit frame");
        match read_frame(&mut raw).expect("accepted frame") {
            Frame::Accepted { .. } => {}
            other => panic!("expected Accepted, got kind {}", other.kind()),
        }
    }
    let deadline = std::time::Instant::now() + Duration::from_secs(60);
    while server.handle.campaigns_completed() < 1 {
        assert!(
            std::time::Instant::now() < deadline,
            "orphaned campaign never completed"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // The interrupted client's recovery procedure is simply to resubmit:
    // the campaign is content-addressed, so the retry is idempotent — a
    // full warm hit, not a recompute, byte-identical to the baseline.
    let mut streamed = 0usize;
    let outcome = Client::submit_resilient(
        &server.addr,
        "flaky",
        0,
        GRID_A,
        5,
        Duration::from_millis(10),
        |_| streamed += 1,
    )
    .expect("resilient resubmission");
    assert_eq!(outcome.observables, baseline(GRID_A));
    assert_eq!(outcome.jobs_run, 0, "idempotent retry must not recompute");
    assert_eq!(outcome.cached_points, 2);
    assert_eq!(streamed, 2, "every point streams on the surviving attempt");
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn resilient_submission_fails_cleanly_when_no_server_ever_answers() {
    // A port nobody listens on: the bounded retry loop must give up with
    // the underlying transport error instead of spinning forever.
    let t = std::time::Instant::now();
    let err = Client::submit_resilient(
        "127.0.0.1:9",
        "nobody",
        0,
        GRID_A,
        2,
        Duration::from_millis(5),
        |_| {},
    )
    .expect_err("no server must mean an error");
    assert!(
        matches!(err, serve::protocol::WireError::Io(_)),
        "transport failure surfaces as Io, got {err:?}"
    );
    assert!(
        t.elapsed() < Duration::from_secs(30),
        "bounded backoff must not spin for long"
    );
}

#[test]
fn corrupt_cache_entry_is_evicted_and_recomputed_identically() {
    let dir = scratch("corrupt");
    let server = TestServer::start(&ServerConfig {
        service: ServiceConfig::default(),
        cache_dir: Some(dir.clone()),
        ..ServerConfig::default()
    });

    let cold = server.client().submit("alice", 0, GRID_A).expect("cold");
    assert_eq!(cold.jobs_run, 4);

    // Corrupt one byte of one entry on disk.
    let mut entries: Vec<PathBuf> = std::fs::read_dir(&dir)
        .expect("cache dir")
        .filter_map(|e| e.ok())
        .map(|e| e.path())
        .filter(|p| p.extension().is_some_and(|x| x == "dqrc"))
        .collect();
    entries.sort();
    assert_eq!(entries.len(), 2, "one entry per point");
    let victim = &entries[0];
    let mut bytes = std::fs::read(victim).expect("read entry");
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0x01;
    std::fs::write(victim, &bytes).expect("write corrupt entry");

    // The resubmission detects the corruption, recomputes that point, and
    // serves the other from cache — same bytes as the cold run.
    let jobs_before = server.handle.jobs_submitted();
    let again = server.client().submit("alice", 0, GRID_A).expect("again");
    assert_eq!(again.cached_points, 1);
    assert_eq!(again.computed_points, 1);
    assert_eq!(again.jobs_run, 2, "one point x 2 chains recomputed");
    assert!(server.handle.jobs_submitted() > jobs_before);
    assert_eq!(server.handle.cache_corrupt(), 1);
    assert_eq!(again.observables, cold.observables);

    // The recompute rewrote the entry: third time is a full warm hit.
    let warm = server.client().submit("alice", 0, GRID_A).expect("warm");
    assert_eq!(warm.jobs_run, 0);
    assert_eq!(warm.cached_points, 2);
    assert_eq!(warm.observables, cold.observables);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn rejects_are_clean_and_the_connection_survives() {
    let server = TestServer::start(&ServerConfig::default());
    let mut client = server.client();
    // A malformed grid is refused with a reason, not a dropped socket.
    let err = client
        .submit("alice", 0, "lx = nope")
        .expect_err("must reject");
    assert!(matches!(err, serve::WireError::Rejected(_)));
    // So is a non-finite coupling, which no validation test can catch.
    let err = client
        .submit("alice", 0, &format!("{GRID_A}\nu = nan, 2"))
        .expect_err("must reject nan");
    assert!(
        matches!(&err, serve::WireError::Rejected(r) if r.contains("not a finite number")),
        "{err}"
    );
    // A zero-extent lattice is refused before it reaches the scheduler.
    let err = client
        .submit("alice", 0, &format!("{GRID_A}\nlx = 0"))
        .expect_err("must reject lx = 0");
    assert!(
        matches!(&err, serve::WireError::Rejected(r) if r.contains("lattice dimensions")),
        "{err}"
    );
    // Slot-fault grids are pool configuration, not tenant physics.
    let err = client
        .submit("alice", 0, &format!("{GRID_A}\nslot_faults = hang@0:1!"))
        .expect_err("must reject slot faults");
    assert!(
        matches!(&err, serve::WireError::Rejected(r) if r.contains("slot_faults")),
        "{err}"
    );
    // The same connection still serves a valid submission afterwards.
    let ok = client.submit("alice", 0, GRID_A).expect("valid submission");
    assert_eq!(ok.observables, baseline(GRID_A));
}

#[test]
fn future_protocol_version_gets_a_clean_error_frame_not_a_hang() {
    use std::io::Write;

    let server = TestServer::start(&ServerConfig::default());
    // Speak DQSF version+1 by hand: a well-formed frame whose version
    // field is one past what this build understands.
    let mut bytes = serve::encode_frame(&Frame::StatsRequest);
    let next = serve::protocol::VERSION + 1;
    bytes[4..8].copy_from_slice(&next.to_le_bytes());

    let mut stream = TcpStream::connect(&server.addr).expect("connect");
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .expect("set timeout");
    stream.write_all(&bytes).expect("send tampered frame");

    // The server must answer with a Rejected frame naming the version
    // problem — not stall, not slam the socket shut unannounced.
    match read_frame(&mut stream).expect("an error frame, not a hang") {
        Frame::Rejected { reason } => {
            assert!(
                reason.contains("version"),
                "reason should name the version mismatch: {reason}"
            );
            assert!(
                reason.contains(&next.to_string()),
                "reason should cite the offending version: {reason}"
            );
        }
        other => panic!("expected Rejected, got frame kind {}", other.kind()),
    }
    // After the error frame the connection is closed cleanly.
    assert!(
        matches!(read_frame(&mut stream), Err(serve::WireError::Io(_))),
        "connection should be closed after the version error"
    );

    // The server itself is unharmed: a fresh, correct-version client is
    // served as usual.
    let ok = server
        .client()
        .submit("alice", 0, GRID_A)
        .expect("submission");
    assert_eq!(ok.observables, baseline(GRID_A));
}

#[test]
fn queue_full_and_queue_closed_rejections_are_machine_distinguishable() {
    // GRID_A is 2 points x 2 chains = 4 jobs; admission is atomic, so a
    // bound of 3 can never fit it no matter how fast workers drain.
    let server = TestServer::start(&ServerConfig {
        service: ServiceConfig {
            queue_bound: 3,
            ..ServiceConfig::default()
        },
        ..ServerConfig::default()
    });
    let err = server
        .client()
        .submit("alice", 0, GRID_A)
        .expect_err("4 jobs cannot fit a bound of 3");
    let serve::WireError::Rejected(reason) = err else {
        panic!("expected Rejected, got {err}");
    };
    assert!(
        reason.starts_with(serve::REASON_QUEUE_FULL),
        "full-queue reason must carry the stable prefix: {reason}"
    );
    // The prefix is what `dqmc-run submit` maps to its exit codes.
    assert_eq!(
        dqmc_cli::submit_exit::for_rejection(&reason),
        dqmc_cli::submit_exit::QUEUE_FULL
    );
    assert_ne!(
        dqmc_cli::submit_exit::QUEUE_FULL,
        dqmc_cli::submit_exit::QUEUE_CLOSED
    );
}
