//! The resident `dqmc-serve` server: accepts DQSF submissions over TCP,
//! multiplexes tenants into the shared [`sched::SweepService`], streams
//! per-point observables as they complete, and short-circuits repeat
//! requests through the content-addressed [`ResultCache`].
//!
//! One thread per connection; one resident worker pool for the whole
//! process. A connection may carry many submissions in sequence. Writes to
//! a connection go through a mutex shared with the streaming observer, so
//! an in-flight point frame and the submission bookkeeping never interleave
//! bytes. A client that disconnects mid-stream flips the connection's dead
//! flag: its campaign runs to completion (results still land in the cache)
//! and the queue is never poisoned.
//!
//! Sockets also answer plain HTTP: `GET /healthz` and `GET /stats` return
//! JSON, so a curl probe works without speaking DQSF.

use crate::cache::{point_key, Lookup, ResultCache};
use crate::protocol::{read_frame, write_frame, Frame, WireError};
use fleet::{ChildCommand, FleetConfig};
use sched::{
    AdmitError, CampaignRequest, GridSpec, PointObserver, PointSummary, ServiceConfig, SubmitError,
    SweepService,
};
use std::io::{Read, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use util::sync::{relock, Condvar, Mutex, MutexGuard};

/// Machine-readable prefix on a `Rejected` reason when the shared job
/// queue was full. The wire carries only a reason string, so clients that
/// need to distinguish back-pressure from shutdown (distinct exit codes,
/// retry policies) match on these stable prefixes rather than on prose.
pub const REASON_QUEUE_FULL: &str = "queue-full: ";
/// Machine-readable prefix on a `Rejected` reason when the queue was
/// closed (the service is draining for shutdown).
pub const REASON_QUEUE_CLOSED: &str = "queue-closed: ";

/// Multi-process execution policy for a fleet-enabled server.
#[derive(Clone, Debug)]
pub struct FleetPolicy {
    /// Shard processes per campaign.
    pub procs: usize,
    /// How to launch shard children (usually the server binary re-entered
    /// in `shard-child` mode).
    pub child: ChildCommand,
    /// Scratch root for per-request shard files.
    pub dir: PathBuf,
}

/// Server configuration: the shared execution resources plus service
/// policy.
#[derive(Clone, Debug, Default)]
pub struct ServerConfig {
    /// Worker/device/queue configuration of the resident service.
    pub service: ServiceConfig,
    /// Result-cache directory; `None` disables caching.
    pub cache_dir: Option<PathBuf>,
    /// Campaigns one tenant may have in flight; `0` = unlimited.
    pub max_tenant_campaigns: usize,
    /// When set, cache-missed points execute on a local process fleet
    /// instead of the in-process service; the DQRC cache stays shared at
    /// the server, which probes before and backfills after each fleet
    /// run. Byte output is identical either way — that is the fleet
    /// merge's contract.
    pub fleet: Option<FleetPolicy>,
}

struct ServerInner {
    service: SweepService,
    cache: Option<ResultCache>,
    fleet: Option<FleetPolicy>,
    shutdown: AtomicBool,
    /// (tenant, campaigns in flight) — linear scan; tenant counts are
    /// small and the Vec keeps iteration deterministic.
    tenants: Mutex<Vec<(String, usize)>>,
    max_tenant: usize,
    requests: AtomicU64,
    addr: SocketAddr,
}

impl ServerInner {
    fn stats_frame(&self) -> Frame {
        Frame::StatsReply {
            jobs_submitted: self.service.jobs_submitted(),
            campaigns_completed: self.service.campaigns_completed(),
            active_campaigns: self.service.active_campaigns() as u64,
            cache_hits: self.cache.as_ref().map_or(0, |c| c.hits()),
            cache_misses: self.cache.as_ref().map_or(0, |c| c.misses()),
            cache_corrupt: self.cache.as_ref().map_or(0, |c| c.corrupt()),
        }
    }

    fn stats_json(&self) -> String {
        format!(
            "{{\"jobs_submitted\":{},\"campaigns_completed\":{},\"active_campaigns\":{},\
             \"cache_hits\":{},\"cache_misses\":{},\"cache_corrupt\":{},\
             \"cache_scrubbed_debris\":{},\"cache_scrubbed_corrupt\":{}}}",
            self.service.jobs_submitted(),
            self.service.campaigns_completed(),
            self.service.active_campaigns(),
            self.cache.as_ref().map_or(0, |c| c.hits()),
            self.cache.as_ref().map_or(0, |c| c.misses()),
            self.cache.as_ref().map_or(0, |c| c.corrupt()),
            self.cache.as_ref().map_or(0, |c| c.scrubbed_debris()),
            self.cache.as_ref().map_or(0, |c| c.scrubbed_corrupt()),
        )
    }

    /// Wakes the accept loop so it can observe the shutdown flag.
    fn wake_accept(&self) {
        let _ = TcpStream::connect(self.addr);
    }
}

/// In-process view of a running server — the counters the service tests
/// watch, plus a programmatic shutdown trigger.
#[derive(Clone)]
pub struct ServerHandle {
    inner: Arc<ServerInner>,
}

impl ServerHandle {
    /// Jobs enqueued since start (flat across a warm hit).
    pub fn jobs_submitted(&self) -> u64 {
        self.inner.service.jobs_submitted()
    }

    /// Campaigns fully completed.
    pub fn campaigns_completed(&self) -> u64 {
        self.inner.service.campaigns_completed()
    }

    /// Campaigns currently in flight.
    pub fn active_campaigns(&self) -> usize {
        self.inner.service.active_campaigns()
    }

    /// Result-cache hit count.
    pub fn cache_hits(&self) -> u64 {
        self.inner.cache.as_ref().map_or(0, |c| c.hits())
    }

    /// Result-cache miss count.
    pub fn cache_misses(&self) -> u64 {
        self.inner.cache.as_ref().map_or(0, |c| c.misses())
    }

    /// Cache entries evicted as corrupt.
    pub fn cache_corrupt(&self) -> u64 {
        self.inner.cache.as_ref().map_or(0, |c| c.corrupt())
    }

    /// Asks the accept loop to exit after draining current connections.
    pub fn request_shutdown(&self) {
        self.inner.shutdown.store(true, Ordering::SeqCst);
        self.inner.wake_accept();
    }
}

/// The resident server. [`Server::bind`] it, read
/// [`Server::local_addr`], then [`Server::run`] the accept loop (usually
/// on its own thread).
pub struct Server {
    inner: Arc<ServerInner>,
    listener: TcpListener,
}

impl Server {
    /// Binds the listener and starts the resident worker pool.
    pub fn bind(addr: &str, cfg: &ServerConfig) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let local = listener.local_addr()?;
        let cache = match &cfg.cache_dir {
            Some(dir) => Some(ResultCache::open(dir)?),
            None => None,
        };
        let inner = Arc::new(ServerInner {
            service: SweepService::start(&cfg.service),
            cache,
            fleet: cfg.fleet.clone(),
            shutdown: AtomicBool::new(false),
            tenants: Mutex::new(Vec::new()),
            max_tenant: cfg.max_tenant_campaigns,
            requests: AtomicU64::new(0),
            addr: local,
        });
        Ok(Server { inner, listener })
    }

    /// The bound address (read it back after binding port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.inner.addr
    }

    /// An in-process handle for counters and programmatic shutdown.
    pub fn handle(&self) -> ServerHandle {
        ServerHandle {
            inner: Arc::clone(&self.inner),
        }
    }

    /// Runs the accept loop until a `Shutdown` frame (or
    /// [`ServerHandle::request_shutdown`]) arrives, then joins every
    /// connection thread and drains the service.
    pub fn run(self) -> std::io::Result<()> {
        let mut conns: Vec<std::thread::JoinHandle<()>> = Vec::new();
        loop {
            let (stream, _) = match self.listener.accept() {
                Ok(pair) => pair,
                Err(_) if self.inner.shutdown.load(Ordering::SeqCst) => break,
                Err(e) => return Err(e),
            };
            if self.inner.shutdown.load(Ordering::SeqCst) {
                break;
            }
            let inner = Arc::clone(&self.inner);
            conns.push(std::thread::spawn(move || handle_conn(inner, stream)));
            conns.retain(|h| !h.is_finished());
        }
        for h in conns {
            let _ = h.join();
        }
        Ok(())
    }
}

/// Decrements the tenant's in-flight count when a submission finishes,
/// whatever path it exits by.
struct TenantSlot {
    inner: Arc<ServerInner>,
    tenant: String,
}

impl Drop for TenantSlot {
    fn drop(&mut self) {
        let mut t = relock(self.inner.tenants.lock());
        if let Some(i) = t.iter().position(|(name, _)| *name == self.tenant) {
            t[i].1 = t[i].1.saturating_sub(1);
            if t[i].1 == 0 {
                t.swap_remove(i);
            }
        }
    }
}

/// Sends a frame through the shared write lane; false once the peer is
/// gone.
fn send(writer: &Mutex<TcpStream>, frame: &Frame) -> bool {
    let mut g = relock(writer.lock());
    write_frame(&mut *g, frame).is_ok()
}

fn handle_conn(inner: Arc<ServerInner>, mut stream: TcpStream) {
    // One socket, two protocols: an HTTP GET for probes, DQSF for work.
    let mut probe = [0u8; 4];
    if let Ok(n) = stream.peek(&mut probe) {
        if n == 4 && &probe == b"GET " {
            handle_http(&inner, stream);
            return;
        }
    }
    let writer = match stream.try_clone() {
        Ok(w) => Arc::new(Mutex::new(w)),
        Err(_) => return,
    };
    loop {
        match read_frame(&mut stream) {
            Ok(Frame::Submit {
                tenant,
                priority,
                grid,
            }) => handle_submit(&inner, &writer, tenant, priority, &grid),
            Ok(Frame::StatsRequest) => {
                if !send(&writer, &inner.stats_frame()) {
                    return;
                }
            }
            Ok(Frame::Shutdown) => {
                inner.shutdown.store(true, Ordering::SeqCst);
                let _ = send(&writer, &Frame::ShutdownAck);
                inner.wake_accept();
                return;
            }
            Ok(other) => {
                let reject = Frame::Rejected {
                    reason: format!("unexpected frame kind {}", other.kind()),
                };
                if !send(&writer, &reject) {
                    return;
                }
            }
            // A clean disconnect or any undecodable stream ends the
            // connection; undecodable bytes get a reason if the socket
            // still listens.
            Err(WireError::Io(_)) => return,
            Err(e) => {
                let _ = send(
                    &writer,
                    &Frame::Rejected {
                        reason: e.to_string(),
                    },
                );
                return;
            }
        }
    }
}

fn handle_submit(
    inner: &Arc<ServerInner>,
    writer: &Arc<Mutex<TcpStream>>,
    tenant: String,
    priority: u8,
    grid: &str,
) {
    let spec = match GridSpec::parse(grid) {
        Ok(s) => s,
        Err(e) => {
            send(
                writer,
                &Frame::Rejected {
                    reason: e.to_string(),
                },
            );
            return;
        }
    };
    if !spec.slot_faults.is_empty() {
        send(
            writer,
            &Frame::Rejected {
                reason: "slot_faults configure the shared device pool; \
                         not accepted per-campaign"
                    .into(),
            },
        );
        return;
    }

    // Fair admission: one tenant may not monopolise the queue with
    // unbounded concurrent campaigns.
    let _slot = if inner.max_tenant > 0 {
        let mut t = relock(inner.tenants.lock());
        let count = t
            .iter()
            .find(|(name, _)| *name == tenant)
            .map_or(0, |(_, n)| *n);
        if count >= inner.max_tenant {
            drop(t);
            send(
                writer,
                &Frame::Rejected {
                    reason: format!("tenant '{tenant}' at campaign capacity ({count} in flight)"),
                },
            );
            return;
        }
        match t.iter_mut().find(|(name, _)| *name == tenant) {
            Some(entry) => entry.1 += 1,
            None => t.push((tenant.clone(), 1)),
        }
        drop(t);
        Some(TenantSlot {
            inner: Arc::clone(inner),
            tenant,
        })
    } else {
        None
    };

    // Probe the cache point by point: hits stream immediately, misses
    // become the campaign.
    let points = spec.points();
    let mut cached: Vec<PointSummary> = Vec::new();
    let mut missed: Vec<usize> = Vec::new();
    let mut keys: Vec<(usize, u64)> = Vec::new();
    for point in &points {
        match &inner.cache {
            Some(cache) => {
                let key = point_key(&spec, point);
                match cache.lookup(key) {
                    Lookup::Hit(summary) => cached.push(*summary),
                    Lookup::Miss | Lookup::Evicted => {
                        missed.push(point.index);
                        keys.push((point.index, key));
                    }
                }
            }
            None => missed.push(point.index),
        }
    }
    let request = inner.requests.fetch_add(1, Ordering::Relaxed) + 1;
    let npoints = points.len() as u64;
    let ncached = cached.len() as u64;

    // The observer streams each computed point and backfills the cache.
    // It runs on worker threads: the dead flag keeps a lost client from
    // turning every later point into a blocking write attempt.
    let dead = Arc::new(AtomicBool::new(false));
    // Streamed-point gate: campaign completion (handle.wait) does not
    // order the *other* workers' in-flight observer calls, so without it
    // the Done frame could overtake a computed Point frame still queued
    // on the write lane. Each observer call counts itself in after its
    // write; Done waits for the full count.
    let streamed = Arc::new((Mutex::new(0usize), Condvar::new()));
    let observer: Arc<PointObserver> = {
        let inner = Arc::clone(inner);
        let writer = Arc::clone(writer);
        let dead = Arc::clone(&dead);
        let streamed = Arc::clone(&streamed);
        let keys = keys.clone();
        Arc::new(move |p: &PointSummary| {
            if let Some(cache) = &inner.cache {
                if p.chains_failed == 0 {
                    if let Some(&(_, key)) = keys.iter().find(|(i, _)| *i == p.point) {
                        // Backfill rides out transient disk trouble with
                        // the deterministic bounded backoff; a write that
                        // still fails only costs a future recompute.
                        if let Err(e) = cache.store_retry(key, p) {
                            eprintln!("cache backfill for point {} failed: {e}", p.point);
                        }
                    }
                }
            }
            if !dead.load(Ordering::Relaxed) {
                let frame = Frame::Point {
                    index: p.point as u64,
                    cached: false,
                    json: p.observables_json(),
                };
                let mut g = relock(writer.lock());
                if write_frame(&mut *g, &frame).is_err() {
                    dead.store(true, Ordering::Relaxed);
                }
            }
            let (count, cv) = &*streamed;
            let mut n = relock(count.lock());
            *n += 1;
            drop(n);
            cv.notify_all();
        })
    };
    // The preamble: the Accepted frame, then every cached point.
    let preamble = |g: &mut MutexGuard<'_, TcpStream>, jobs: u64| {
        let accepted = Frame::Accepted {
            request,
            points: npoints,
            cached: ncached,
            jobs,
        };
        let sent = write_frame(&mut **g, &accepted).is_ok()
            && cached.iter().all(|p| {
                let frame = Frame::Point {
                    index: p.point as u64,
                    cached: true,
                    json: p.observables_json(),
                };
                write_frame(&mut **g, &frame).is_ok()
            });
        if !sent {
            dead.store(true, Ordering::Relaxed);
        }
    };

    let (jobs_run, computed, failed_chains, recovery_events) = if missed.is_empty() {
        // Full warm hit: no campaign, no jobs — disk bytes only.
        preamble(&mut relock(writer.lock()), 0);
        (0, Vec::new(), 0, 0)
    } else if let Some(policy) = &inner.fleet {
        // The fleet runs the missed points to completion; they then pass
        // through the observer in canonical order. The merge is
        // byte-deterministic, so only the streaming cadence differs.
        let jobs = (missed.len() * spec.chains) as u64;
        preamble(&mut relock(writer.lock()), jobs);
        let cfg = FleetConfig::new(
            policy.procs,
            policy.child.clone(),
            policy.dir.join(format!("req-{request}")),
        );
        let merged = match fleet::run_fleet_subset(grid, Some(&missed), &cfg) {
            Ok(o) => o.merged,
            Err(e) => {
                send(
                    writer,
                    &Frame::Rejected {
                        reason: format!("fleet execution failed: {e}"),
                    },
                );
                return;
            }
        };
        merged.points.iter().for_each(|p| observer(p));
        // Recovery tallies are schedule-layer diagnostics the shard
        // report codec deliberately omits; the fleet path reports none.
        (jobs, merged.points, merged.failed_chains as u64, 0)
    } else {
        let req = CampaignRequest {
            spec: spec.clone(),
            priority,
            points: Some(missed),
        };
        // Hold the write lane across admission so the preamble lands
        // before any streamed Point frame: the observer blocks on the
        // same mutex until it is out.
        let handle = {
            let mut g = relock(writer.lock());
            match inner.service.submit(&req, Some(observer)) {
                Ok(h) => {
                    preamble(&mut g, h.jobs as u64);
                    h
                }
                Err(e) => {
                    let _ = write_frame(
                        &mut *g,
                        &Frame::Rejected {
                            reason: rejection_reason(&e),
                        },
                    );
                    return;
                }
            }
        };
        let jobs_run = handle.jobs as u64;
        let expected_points = handle.points;
        let outcome = handle.wait();
        // Every computed Point frame is on the wire (or the connection is
        // dead) before the Done frame follows it.
        let (count, cv) = &*streamed;
        let mut n = relock(count.lock());
        while *n < expected_points {
            n = relock(cv.wait(n));
        }
        drop(n);
        let t = &outcome.recovery_tallies;
        let recovery_events = t.retries + t.shrinks + t.fallbacks + t.repairs + t.escalations;
        (
            jobs_run,
            outcome.points,
            outcome.failed_chains as u64,
            recovery_events,
        )
    };

    let computed_points = computed.len() as u64;
    let mut all = cached;
    all.extend(computed);
    all.sort_by_key(|p| p.point);
    let observables =
        sched::observables_json_for(spec.seed, spec.chains, spec.warmup, spec.sweeps, &all);
    send(
        writer,
        &Frame::Done {
            observables,
            jobs_run,
            cached_points: ncached,
            computed_points,
            failed_chains,
            recovery_events,
        },
    );
}

/// Renders a submission failure as a `Rejected` reason, prefixing the
/// queue-pressure cases with their stable machine-readable codes.
fn rejection_reason(e: &SubmitError) -> String {
    match e {
        SubmitError::Queue(AdmitError::Full { .. }) => format!("{REASON_QUEUE_FULL}{e}"),
        SubmitError::Queue(AdmitError::Closed) => format!("{REASON_QUEUE_CLOSED}{e}"),
        other => other.to_string(),
    }
}

/// Minimal HTTP/1.1 for probes: `GET /healthz`, `GET /stats`.
fn handle_http(inner: &ServerInner, mut stream: TcpStream) {
    let mut buf = Vec::new();
    let mut chunk = [0u8; 512];
    // Read until the header terminator; cap the request at 8 KiB.
    while !buf.windows(4).any(|w| w == b"\r\n\r\n") && buf.len() < 8192 {
        match stream.read(&mut chunk) {
            Ok(0) | Err(_) => break,
            Ok(n) => buf.extend_from_slice(&chunk[..n]),
        }
    }
    let request = String::from_utf8_lossy(&buf);
    let path = request
        .lines()
        .next()
        .and_then(|line| line.split_whitespace().nth(1))
        .unwrap_or("/");
    let (status, body) = match path {
        "/healthz" => ("200 OK", "{\"ok\":true}".to_string()),
        "/stats" => ("200 OK", inner.stats_json()),
        _ => ("404 Not Found", "{\"error\":\"not found\"}".to_string()),
    };
    let response = format!(
        "HTTP/1.1 {status}\r\nContent-Type: application/json\r\n\
         Content-Length: {}\r\nConnection: close\r\n\r\n{body}",
        body.len()
    );
    let _ = stream.write_all(response.as_bytes());
    let _ = stream.flush();
}
