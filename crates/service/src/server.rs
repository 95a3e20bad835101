//! The analysis server: listener → bounded queue → workers → sharded
//! session cache.
//!
//! ```text
//!                 ┌────────────┐  submit   ┌──────────────┐
//!  TCP accept ───▶│ bounded    │──────────▶│ worker pool  │
//!  (one thread)   │ queue      │  Full →   │ (W threads)  │
//!                 └────────────┘  503 +    └──────┬───────┘
//!                                 Retry-After     │ fingerprint
//!                                                 ▼
//!                                  ┌──────────────────────────┐
//!                                  │ sharded LRU session cache │
//!                                  │ fp → Arc<OwnedAnalyzer>   │
//!                                  └──────────────────────────┘
//! ```
//!
//! ## API
//!
//! | Route | Body | Response |
//! |---|---|---|
//! | `POST /analyze` | `{"graph": {...} \| "fingerprint": "hex", "memories": [..], "processors"?, "no_sim"?, "mode"?}` | the canonical analysis document ([`crate::analysis`]); `"mode":"compose"` selects partition-and-compose |
//! | `POST /batch` | `{"graphs": [graph \| "hex", ...], "memories": [..], "processors"?, "no_sim"?, "mode"?}` | the concatenation of the per-graph `/analyze` bodies |
//! | `POST /component` | `{"graph": {...} \| "fingerprint": "hex"}` | one compose component's spectra/min-cut, floats as bit-pattern hex |
//! | `POST /graphs` | `{"graph": {...}}` or a bare edge-list document | `{"fingerprint", "n", "edges", "cached"}` |
//! | `GET /healthz` | — | `{"status":"ok", ...}` |
//! | `GET /stats` | — | connection/request/cache/pool/engine counters |
//!
//! `POST /analyze` responses carry `X-Graphio-Fingerprint` and
//! `X-Graphio-Session: hit|store|miss` headers (`store` = RAM miss
//! back-filled from the persistent store, the warm-restart path; plus
//! `X-Graphio-Warnings` for deduplicated sweep points) so metadata never
//! perturbs the bit-identical body; `POST /batch` carries
//! `X-Graphio-Batch: N` and a comma-joined `X-Graphio-Session` list.
//!
//! ## Persistence (`--store DIR`)
//!
//! With a [`PersistenceConfig`], the session cache gains a disk tier
//! (`graphio_store`'s fingerprint-keyed segment log): boot warm-loads
//! the index, a RAM miss back-fills the decoded session from disk — a
//! store hit answers with **zero** eigensolves — completed analyses
//! write through (skip-if-unchanged), and graceful shutdown flushes a
//! compacted snapshot. See `DESIGN.md` §7.
//!
//! ## Connection lifecycle
//!
//! Connections are persistent per RFC 9112: each pooled worker runs a
//! request loop that honors `Connection: keep-alive`/`close`, closes
//! after [`IDLE_TIMEOUT`] of between-request silence or
//! [`MAX_REQUESTS_PER_CONNECTION`] requests (both configurable via
//! [`ServiceConfig`]) or [`crate::http::MAX_CONNECTION_LIFETIME`] of
//! total wall-clock (an idle keep-alive connection pins a pooled
//! worker; the lifetime cap bounds the pin regardless of request
//! pacing), and closes unconditionally after any malformed request —
//! once framing trust is lost there must be no second read.
//! `GET /stats` exposes `connections` vs `requests` so reuse is
//! observable.
//!
//! ## Relabeling semantics
//!
//! The cache key is relabeling-invariant, so a graph submitted under a
//! *different vertex numbering* than a cached structure hits the same
//! session and is answered on the session's stored representative (the
//! first-seen numbering). Spectra, bounds and min-cut values agree across
//! relabelings mathematically; what can differ from an offline run of
//! the relabeled input is numbering-dependent detail — the simulation
//! upper bound follows the representative's evaluation order, and
//! eigensolves on a permuted Laplacian may differ in final float bits.
//! The bit-identical contract is therefore stated (and tested) for
//! byte-identical graph inputs; cross-relabeling reuse trades exact
//! numbering fidelity for amortization, deliberately.

use crate::analysis::{
    analysis_body, analyze_component_cached, component_doc, compose_plan_for, parse_graph_doc,
    parse_request_json, parse_spec, AnalyzeSpec,
};
use crate::cache::{CacheConfig, SessionCache};
use crate::http::{
    respond_error, serve_connection, write_response, write_response_typed, ConnectionLimits,
    Request, IDLE_TIMEOUT, IO_TIMEOUT, MAX_REQUESTS_PER_CONNECTION, READ_TIMEOUT,
};
use crate::pool::{SubmitError, WorkerPool};
use graphio_graph::json::JsonValue;
use graphio_graph::{fingerprint, CompGraph, Fingerprint};
use graphio_linalg::stats::{
    dense_eigensolve_count, scalar_fallback_count, scale_tier_solve_count, simd_kernel_call_count,
    sparse_matvec_count,
};
use graphio_obs::recorder::{self, CacheOutcome};
use graphio_spectral::OwnedAnalyzer;
use graphio_store::{
    decode_trace_record, encode_trace_record, load_session, save_session, Store, StoreConfig,
    StoreStats, StoredTrace,
};
use std::io::{self, Write as _};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

pub use crate::analysis::MAX_BATCH_GRAPHS;

/// Where (and how) the server persists analysis sessions
/// (`graphio serve --store DIR`). See `graphio_store` for the on-disk
/// format; the service treats the store strictly as a second cache tier:
/// the index warm-loads at boot, RAM misses back-fill from disk (a store
/// hit performs **zero** eigensolves), completed analyses write through,
/// and graceful shutdown flushes a compacted snapshot.
#[derive(Debug, Clone)]
pub struct PersistenceConfig {
    /// Store directory (created if missing).
    pub dir: PathBuf,
    /// Segment-log sizing (byte budget, segment roll size).
    pub store: StoreConfig,
}

impl PersistenceConfig {
    /// Default store sizing in `dir`.
    pub fn at(dir: impl Into<PathBuf>) -> PersistenceConfig {
        PersistenceConfig {
            dir: dir.into(),
            store: StoreConfig::default(),
        }
    }
}

/// Where a request's session came from, for the `X-Graphio-Session`
/// response header: `hit` (RAM), `store` (disk back-fill — the warm
/// restart path), `miss` (computed fresh this request).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum SessionSource {
    Ram,
    Disk,
    Fresh,
}

impl SessionSource {
    fn header(self) -> &'static str {
        match self {
            SessionSource::Ram => "hit",
            SessionSource::Disk => "store",
            SessionSource::Fresh => "miss",
        }
    }
}

/// Where slow-log lines go.
#[derive(Debug, Clone)]
pub enum SlowLogTarget {
    /// One JSON line per slow request on the server's stderr.
    Stderr,
    /// Appended to a file (created if missing) — what the tests and CI
    /// use, so the lines can be parsed back.
    File(PathBuf),
}

/// Slow-request logging (`--slow-log-us N`): any request whose total
/// wall time reaches the threshold dumps its phase tree as one JSON
/// line ([`graphio_obs::TraceSummary::to_json`]). Threshold 0 logs every
/// request — the e2e tests use that to assert tree structure.
#[derive(Debug, Clone)]
pub struct SlowLogConfig {
    /// Log requests taking at least this many microseconds.
    pub threshold_us: u64,
    /// Where the lines go.
    pub target: SlowLogTarget,
    /// Size-based rotation (`--slow-log-rotate-mb N`): when a write would
    /// push a [`SlowLogTarget::File`] past this many bytes, the file is
    /// renamed to `<path>.1` (replacing any previous `.1`) and a fresh
    /// file opened — one generation of history, bounded disk. `None`
    /// (and the stderr target) never rotates.
    pub rotate_bytes: Option<u64>,
}

/// The opened slow-log sink: threshold plus a serialized writer.
/// Shared with the cluster router, which logs its own request trees.
pub struct SlowLog {
    threshold_us: u64,
    sink: std::sync::Mutex<SlowSink>,
    /// `(path, limit)` when file rotation is configured.
    rotate: Option<(PathBuf, u64)>,
}

struct SlowSink {
    writer: Box<dyn io::Write + Send>,
    /// Bytes in the current file (seeded from its length at open so
    /// rotation carries across restarts); meaningless for stderr.
    written: u64,
}

impl SlowLog {
    /// Opens the configured sink.
    ///
    /// # Errors
    /// Propagates file-open failures for [`SlowLogTarget::File`].
    pub fn open(config: &SlowLogConfig) -> io::Result<SlowLog> {
        let sink = match &config.target {
            SlowLogTarget::Stderr => SlowSink {
                writer: Box::new(io::stderr()),
                written: 0,
            },
            SlowLogTarget::File(path) => {
                let file = std::fs::OpenOptions::new()
                    .create(true)
                    .append(true)
                    .open(path)?;
                let written = file.metadata().map(|m| m.len()).unwrap_or(0);
                SlowSink {
                    writer: Box::new(file),
                    written,
                }
            }
        };
        let rotate = match (&config.target, config.rotate_bytes) {
            (SlowLogTarget::File(path), Some(limit)) => Some((path.clone(), limit.max(1))),
            _ => None,
        };
        Ok(SlowLog {
            threshold_us: config.threshold_us,
            sink: std::sync::Mutex::new(sink),
            rotate,
        })
    }

    /// The configured threshold in microseconds.
    #[must_use]
    pub fn threshold_us(&self) -> u64 {
        self.threshold_us
    }

    /// Writes one line. Best-effort: a full disk must not fail requests,
    /// and neither may a failed rotation (the line goes to the old file).
    pub fn log(&self, line: &str) {
        let mut sink = self.sink.lock().expect("slow log lock");
        let incoming = line.len() as u64 + 1;
        if let Some((path, limit)) = &self.rotate {
            if sink.written > 0 && sink.written + incoming > *limit {
                let mut rotated = path.as_os_str().to_owned();
                rotated.push(".1");
                if std::fs::rename(path, &rotated).is_ok() {
                    if let Ok(file) = std::fs::OpenOptions::new()
                        .create(true)
                        .append(true)
                        .open(path)
                    {
                        sink.writer = Box::new(file);
                        sink.written = 0;
                    }
                }
            }
        }
        let _ = writeln!(sink.writer, "{line}");
        let _ = sink.writer.flush();
        sink.written += incoming;
    }
}

/// Server sizing and binding knobs.
#[derive(Debug, Clone)]
pub struct ServiceConfig {
    /// Bind host (default loopback).
    pub host: String,
    /// Bind port; `0` asks the OS for an ephemeral port (read it back
    /// from [`Server::addr`]).
    pub port: u16,
    /// Worker threads handling requests.
    pub workers: usize,
    /// Bounded queue depth between the acceptor and the workers.
    pub queue_capacity: usize,
    /// How long a keep-alive connection may idle between requests before
    /// the server closes it (default [`IDLE_TIMEOUT`]).
    pub idle_timeout: Duration,
    /// Requests served on one connection before the server closes it
    /// (default [`MAX_REQUESTS_PER_CONNECTION`]; clamped to ≥ 1).
    pub max_requests_per_connection: usize,
    /// Session-cache sizing.
    pub cache: CacheConfig,
    /// Persistent session store (`None` keeps the cache RAM-only).
    pub store: Option<PersistenceConfig>,
    /// Slow-request logging (`None` disables it).
    pub slow_log: Option<SlowLogConfig>,
    /// Persistent trace store (`--trace-store DIR`): pinned flight-
    /// recorder records (slow and error traces) write through here so the
    /// last interesting traces survive a crash or restart. `None` keeps
    /// the recorder RAM-only.
    pub trace_store: Option<PathBuf>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            host: "127.0.0.1".to_string(),
            port: 0,
            workers: 4,
            queue_capacity: 256,
            idle_timeout: IDLE_TIMEOUT,
            max_requests_per_connection: MAX_REQUESTS_PER_CONNECTION,
            cache: CacheConfig::default(),
            store: None,
            slow_log: None,
            trace_store: None,
        }
    }
}

/// Shared server state: the session cache plus request counters.
pub(crate) struct ServiceState {
    pub(crate) cache: SessionCache,
    /// The persistent second cache tier, if configured.
    pub(crate) store: Option<Arc<Store>>,
    /// Per-fingerprint mark of the session state last persisted (the
    /// session's cumulative `spectrum_misses + mincut_misses` — exactly
    /// the count of artifacts computed locally). A hot session serving
    /// pure cache hits matches its mark, so steady-state requests skip
    /// the whole encode-then-discover-identical path, not just the disk
    /// append.
    pub(crate) persist_marks: std::sync::Mutex<std::collections::HashMap<u128, u64>>,
    /// Connections accepted. With keep-alive, `requests > connections` is
    /// the server-side evidence that connection reuse is happening — the
    /// per-connection TCP + dispatch cost amortizes across requests the
    /// same way the session cache amortizes eigensolves across queries.
    pub(crate) connections: AtomicU64,
    /// Requests served (every request on every connection).
    pub(crate) requests: AtomicU64,
    pub(crate) rejected: AtomicU64,
    pub(crate) analyze_ok: AtomicU64,
    pub(crate) batch_ok: AtomicU64,
    pub(crate) errors: AtomicU64,
    pub(crate) workers: usize,
    pub(crate) queue_capacity: usize,
    pub(crate) idle_timeout: Duration,
    pub(crate) max_requests_per_connection: usize,
    /// The slow-request log sink, when configured.
    pub(crate) slow_log: Option<SlowLog>,
    /// The persistent trace store (pinned flight-recorder records), when
    /// configured. Keyed by trace ID (reusing the fingerprint-keyed
    /// segment log — a trace ID is the same 128 bits).
    pub(crate) trace_store: Option<Arc<Store>>,
    /// Boot time, for the `uptime_seconds` stats field — the cluster
    /// router's aggregated stats use it to spot freshly-restarted
    /// backends (whose caches are cold).
    pub(crate) started: Instant,
}

/// A running analysis server. Dropping the handle shuts it down.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServiceState>,
    pool: Arc<WorkerPool>,
    stop: Arc<AtomicBool>,
    /// Behind a mutex so `shutdown(&self)` can be called from any thread
    /// — including while another thread blocks in [`Server::join`].
    acceptor: std::sync::Mutex<Option<JoinHandle<()>>>,
}

/// Binds and starts serving in background threads, returning immediately.
///
/// # Errors
/// Propagates bind failures.
pub fn serve(config: &ServiceConfig) -> io::Result<Server> {
    // Serving is the long-lived mode that wants phase histograms and
    // request traces; the offline CLI keeps spans at their free default.
    // Attaching the flight recorder also flips spans on, so recording is
    // the serving default — `GET /trace/{id}` works out of the box.
    recorder::attach(recorder::DEFAULT_CAPACITY);
    graphio_obs::set_enabled(true);
    // Allocation attribution is a second relaxed-load switch: flipping it
    // on here means per-phase `alloc_bytes`/`allocs` appear in trace
    // records and `/metrics` whenever the binary runs under
    // `graphio_obs::CountingAlloc` (the CLI installs it); without the
    // wrapper the switch is harmless.
    graphio_obs::alloc::set_enabled(true);
    let listener = TcpListener::bind((config.host.as_str(), config.port))?;
    let addr = listener.local_addr()?;
    // Opening the store *is* the boot-time index warm-load: every segment
    // is scanned (recovering past any torn tail) before the first request
    // is accepted, so fingerprint lookups can back-fill from disk
    // immediately.
    let store = config
        .store
        .as_ref()
        .map(|p| Store::open(&p.dir, p.store.clone()))
        .transpose()?
        .map(Arc::new);
    // The trace store shares the session store's segment-log machinery
    // but is its own directory and key space (trace IDs, not graph
    // fingerprints); opening it warm-loads the index so pinned traces
    // from before a restart answer `GET /trace/{id}` immediately.
    let trace_store = config
        .trace_store
        .as_ref()
        .map(|dir| Store::open(dir, StoreConfig::default()))
        .transpose()?
        .map(Arc::new);
    let state = Arc::new(ServiceState {
        cache: SessionCache::new(&config.cache),
        store,
        persist_marks: std::sync::Mutex::new(std::collections::HashMap::new()),
        connections: AtomicU64::new(0),
        requests: AtomicU64::new(0),
        rejected: AtomicU64::new(0),
        analyze_ok: AtomicU64::new(0),
        batch_ok: AtomicU64::new(0),
        errors: AtomicU64::new(0),
        workers: config.workers.max(1),
        queue_capacity: config.queue_capacity.max(1),
        idle_timeout: config.idle_timeout,
        max_requests_per_connection: config.max_requests_per_connection.max(1),
        slow_log: config.slow_log.as_ref().map(SlowLog::open).transpose()?,
        trace_store,
        started: Instant::now(),
    });
    let pool = Arc::new(WorkerPool::new(config.workers, config.queue_capacity));
    let stop = Arc::new(AtomicBool::new(false));

    let acceptor = {
        let state = Arc::clone(&state);
        let pool = Arc::clone(&pool);
        let stop = Arc::clone(&stop);
        std::thread::Builder::new()
            .name("graphio-acceptor".to_string())
            .spawn(move || accept_loop(&listener, &state, &pool, &stop))
            .expect("spawn acceptor thread")
    };

    Ok(Server {
        addr,
        state,
        pool,
        stop,
        acceptor: std::sync::Mutex::new(Some(acceptor)),
    })
}

impl Server {
    /// The bound address (resolves `port: 0` to the real port).
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// `http://host:port`, ready to hand to a client.
    pub fn url(&self) -> String {
        format!("http://{}", self.addr)
    }

    /// Point-in-time session-cache counters (also served as `GET /stats`).
    pub fn cache_stats(&self) -> crate::cache::CacheStats {
        self.state.cache.stats()
    }

    /// Point-in-time store counters, when persistence is configured.
    pub fn store_stats(&self) -> Option<StoreStats> {
        self.state.store.as_ref().map(|s| s.stats())
    }

    /// Part of the graceful drain: once no worker can be mid-analysis,
    /// flush a compacted snapshot so the next boot scans one tight
    /// segment. Best-effort — the log was already flushed record-by-
    /// record at write-through time, so a failure here costs compactness,
    /// not data.
    fn flush_store(&self) {
        if let Some(store) = &self.state.store {
            if let Err(e) = store.snapshot() {
                eprintln!("graphio-store: shutdown snapshot failed: {e}");
            }
        }
    }

    /// Stops accepting connections, drains in-flight work, joins all
    /// threads, and flushes a store snapshot. Takes `&self` so another
    /// thread can trigger it while one blocks in [`Server::join`].
    /// Idempotent.
    pub fn shutdown(&self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // Wake the blocking accept() with a throwaway connection.
        let _ = TcpStream::connect(self.addr);
        let handle = self.acceptor.lock().expect("acceptor lock").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        self.pool.shutdown();
        self.flush_store();
    }

    /// Blocks until the acceptor exits — i.e. until [`Server::shutdown`]
    /// is called from another thread, or forever for a foreground server
    /// that only dies with the process (the CLI's `graphio serve`).
    pub fn join(&self) {
        let handle = self.acceptor.lock().expect("acceptor lock").take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
        self.pool.shutdown();
        self.flush_store();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn accept_loop(
    listener: &TcpListener,
    state: &Arc<ServiceState>,
    pool: &Arc<WorkerPool>,
    stop: &AtomicBool,
) {
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            return;
        }
        let stream = match stream {
            Ok(stream) => stream,
            Err(_) => {
                // Persistent accept errors (fd exhaustion under overload)
                // must not busy-spin the acceptor while workers hold the
                // very fds that need releasing.
                std::thread::sleep(std::time::Duration::from_millis(10));
                continue;
            }
        };
        state.connections.fetch_add(1, Ordering::Relaxed);
        let _ = stream.set_read_timeout(Some(READ_TIMEOUT));
        let _ = stream.set_nodelay(true);
        let _ = stream.set_write_timeout(Some(IO_TIMEOUT));
        // The stream lives in a shared cell so the acceptor can take it
        // back and answer 503 itself when the queue rejects the job (the
        // closure — including anything it captured — is consumed by a
        // failed submit).
        let cell = Arc::new(std::sync::Mutex::new(Some(stream)));
        let job_cell = Arc::clone(&cell);
        let job_state = Arc::clone(state);
        let job_pool = Arc::clone(pool);
        let submitted = pool.submit(move || {
            if let Some(stream) = job_cell.lock().expect("stream cell").take() {
                handle_connection(stream, &job_state, &job_pool);
            }
        });
        match submitted {
            Ok(()) => {}
            Err(SubmitError::Full) => {
                state.rejected.fetch_add(1, Ordering::Relaxed);
                if let Some(mut stream) = cell.lock().expect("stream cell").take() {
                    let body = b"{\"error\":\"server busy, retry later\"}\n";
                    let _ = write_response(
                        &mut stream,
                        503,
                        crate::http::reason(503),
                        false,
                        &[("Retry-After", "1".to_string())],
                        body,
                    );
                }
            }
            Err(SubmitError::ShuttingDown) => return,
        }
    }
}

/// The per-connection request loop, shared with the cluster router via
/// [`serve_connection`]: serve requests until the peer closes, asks for
/// `Connection: close`, idles past the deadline, hits the per-connection
/// request cap, or sends something malformed (close-on-malformed — a peer
/// we cannot frame-sync with must not get a second read).
fn handle_connection(stream: TcpStream, state: &Arc<ServiceState>, pool: &Arc<WorkerPool>) {
    let limits = ConnectionLimits {
        idle_timeout: state.idle_timeout,
        max_requests: state.max_requests_per_connection,
    };
    serve_connection(
        stream,
        &limits,
        |stream, request, keep| {
            state.requests.fetch_add(1, Ordering::Relaxed);
            traced_request(
                request,
                &request.path,
                state.slow_log.as_ref(),
                state.trace_store.as_deref(),
                || {
                    route(stream, request, state, pool, keep);
                },
            );
        },
        |_| {
            state.errors.fetch_add(1, Ordering::Relaxed);
        },
    );
}

/// The static endpoint label a request records under — the fixed route
/// set, with everything else folded into `"other"` so an attacker probing
/// random paths cannot mint unbounded histogram label values.
pub fn endpoint_label(path: &str) -> &'static str {
    // The trace routes carry per-request path segments (`/trace/{id}`)
    // and query strings (`/traces?n=...`), so they label by prefix.
    if path.starts_with("/trace/") {
        return "/trace";
    }
    if path == "/traces" || path.starts_with("/traces?") {
        return "/traces";
    }
    if path == "/debug/profile" || path.starts_with("/debug/profile?") {
        return "/debug/profile";
    }
    match path {
        "/analyze" => "/analyze",
        "/batch" => "/batch",
        "/component" => "/component",
        "/graphs" => "/graphs",
        "/healthz" => "/healthz",
        "/stats" => "/stats",
        "/metrics" => "/metrics",
        _ => "other",
    }
}

/// The per-request observability envelope, shared with the cluster
/// router: open a request context (honoring an incoming `X-Graphio-Trace`
/// or minting one), run the handler under a root span named by endpoint,
/// then record the request-latency histogram (with the trace ID as the
/// bucket's exemplar), insert the completed request into the flight
/// recorder — pinning slow (≥ the endpoint's running p99) and error
/// traces, and writing pinned records through to `trace_store` when one
/// is configured — and emit a slow-log line when the request met the
/// threshold.
pub fn traced_request(
    request: &Request,
    path: &str,
    slow_log: Option<&SlowLog>,
    trace_store: Option<&Store>,
    handler: impl FnOnce(),
) {
    let trace = request
        .header("x-graphio-trace")
        .and_then(graphio_obs::parse_trace_hex)
        .unwrap_or_else(graphio_obs::mint_trace_id);
    let endpoint = endpoint_label(path);
    // Clear any annotations a previous request on this worker thread left
    // behind (e.g. a response written outside a traced scope).
    let _ = recorder::take_annotations();
    let guard = graphio_obs::begin_request(trace);
    {
        let _root = graphio_obs::span::SpanGuard::enter_dynamic(endpoint);
        handler();
    }
    let Some(summary) = guard.finish() else {
        return;
    };
    let elapsed = summary.elapsed_us.max(1);
    let hist = graphio_obs::histogram(REQUEST_FAMILY, "endpoint", endpoint);
    let (status, fingerprint, outcome) = recorder::take_annotations();
    if let Some(rec) = recorder::recorder() {
        // Tail-based retention: pin errors and requests at or above the
        // endpoint's running p99 (from the histogram *before* this
        // sample), so the interesting tail outlives ring eviction.
        let p99 = hist.snapshot().p99();
        let pin = status >= 400 || (p99 > 0 && elapsed >= p99);
        let mut record = graphio_obs::TraceRecord::from_summary(
            &summary,
            endpoint,
            status,
            fingerprint,
            outcome,
        );
        record.seq = rec.insert(record, pin);
        if pin {
            if let Some(store) = trace_store {
                // Best-effort, like the session write-through: a full
                // disk must not fail the request that already succeeded.
                let doc = encode_trace_record(&StoredTrace::from_record(&record));
                if let Err(e) = store.put(Fingerprint(trace), &doc) {
                    eprintln!("graphio-trace-store: write-through failed: {e}");
                }
            }
        }
    }
    hist.record_with_exemplar(elapsed, trace);
    if let Some(slow) = slow_log {
        if summary.elapsed_us >= slow.threshold_us() {
            slow.log(&summary.to_json(endpoint));
        }
    }
}

/// Resolves one trace ID to its `GET /trace/{id}` JSON body: the live
/// flight-recorder ring first (main or pinned), then the persistent trace
/// store — [`StoredTrace::to_json`] is byte-identical to
/// [`graphio_obs::TraceRecord::to_json`] for the same record, so callers
/// cannot tell which tier answered. Shared with the cluster router.
#[must_use]
pub fn trace_record_json(trace_store: Option<&Store>, trace: u128) -> Option<String> {
    if let Some(record) = recorder::recorder().and_then(|r| r.get(trace)) {
        return Some(record.to_json());
    }
    let doc = trace_store?.get(Fingerprint(trace)).ok().flatten()?;
    match decode_trace_record(&doc) {
        Ok(stored) => Some(stored.to_json()),
        Err(e) => {
            eprintln!(
                "graphio-trace-store: ignoring unreadable record for {}: {e}",
                graphio_obs::trace_hex(trace)
            );
            None
        }
    }
}

/// Parses the `GET /traces` query string (`n`, `min_us`, `status`) with
/// defaults `(50, 0, None)`. Shared with the cluster router.
///
/// # Errors
/// A message naming the unparsable or unknown parameter (→ 400).
pub fn parse_traces_query(path: &str) -> Result<(usize, u64, Option<u16>), String> {
    let query = path.split_once('?').map_or("", |x| x.1);
    let (mut n, mut min_us, mut status) = (50usize, 0u64, None);
    for pair in query.split('&').filter(|p| !p.is_empty()) {
        let (key, value) = pair.split_once('=').unwrap_or((pair, ""));
        match key {
            "n" => n = value.parse().map_err(|_| format!("bad n: {value:?}"))?,
            "min_us" => {
                min_us = value
                    .parse()
                    .map_err(|_| format!("bad min_us: {value:?}"))?;
            }
            "status" => {
                status = Some(
                    value
                        .parse()
                        .map_err(|_| format!("bad status: {value:?}"))?,
                );
            }
            other => return Err(format!("unknown query parameter {other:?}")),
        }
    }
    Ok((n, min_us, status))
}

/// The request-latency histogram family (`le` in microseconds), labeled
/// by endpoint. The phase histograms live under
/// [`graphio_obs::PHASE_FAMILY`].
pub const REQUEST_FAMILY: &str = "graphio_request_duration_microseconds";

/// Appends the per-request observability headers every 200 carries:
/// the trace ID (echoed end-to-end so a response can be correlated with
/// its slow-log line) and server-side elapsed microseconds (clamped to
/// ≥ 1 so "the header is present and positive" is a testable contract).
pub fn push_obs_headers(extra: &mut Vec<(&str, String)>) {
    if let Some(trace) = graphio_obs::current_trace_id() {
        extra.push(("X-Graphio-Trace", graphio_obs::trace_hex(trace)));
    }
    if let Some(us) = graphio_obs::request_elapsed_us() {
        extra.push(("X-Graphio-Elapsed-Us", us.max(1).to_string()));
    }
}

fn respond_json(
    stream: &mut TcpStream,
    status: u16,
    keep: bool,
    extra: &[(&str, String)],
    doc: &JsonValue,
) {
    let body = doc.to_string() + "\n";
    let mut headers: Vec<(&str, String)> = extra.to_vec();
    if status == 200 {
        push_obs_headers(&mut headers);
    }
    let _ = write_response(
        stream,
        status,
        crate::http::reason(status),
        keep,
        &headers,
        body.as_bytes(),
    );
}

fn route(
    stream: &mut TcpStream,
    request: &Request,
    state: &Arc<ServiceState>,
    pool: &Arc<WorkerPool>,
    keep: bool,
) {
    match (request.method.as_str(), request.path.as_str()) {
        ("GET", "/healthz") => handle_healthz(stream, state, keep),
        ("GET", "/stats") => handle_stats(stream, state, keep),
        ("GET", "/metrics") => handle_metrics(stream, state, keep),
        ("GET", p) if p.starts_with("/trace/") => handle_trace(stream, request, state, keep),
        ("GET", p) if p == "/traces" || p.starts_with("/traces?") => {
            handle_traces(stream, request, state, keep)
        }
        ("GET", p) if p == "/debug/profile" || p.starts_with("/debug/profile?") => {
            handle_profile(stream, request, state, keep)
        }
        ("POST", "/graphs") => handle_graphs(stream, request, state, keep),
        ("POST", "/analyze") => handle_analyze(stream, request, state, keep),
        ("POST", "/component") => handle_component(stream, request, state, keep),
        ("POST", "/batch") => handle_batch(stream, request, state, pool, keep),
        ("GET" | "POST", _) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 404, keep, &format!("no route for {}", request.path));
        }
        _ => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(
                stream,
                405,
                keep,
                &format!("method {} not supported", request.method),
            );
        }
    }
}

fn handle_healthz(stream: &mut TcpStream, state: &Arc<ServiceState>, keep: bool) {
    let doc = JsonValue::Object(vec![
        ("status".to_string(), JsonValue::String("ok".to_string())),
        (
            "workers".to_string(),
            JsonValue::Number(state.workers as f64),
        ),
        (
            "queue_capacity".to_string(),
            JsonValue::Number(state.queue_capacity as f64),
        ),
        (
            "sessions".to_string(),
            JsonValue::Number(state.cache.len() as f64),
        ),
    ]);
    respond_json(stream, 200, keep, &[], &doc);
}

/// The `"store"` sub-document of `GET /stats`: `{"enabled":false}` when
/// the server runs RAM-only, full segment-log metrics otherwise.
fn store_stats_doc(state: &Arc<ServiceState>) -> JsonValue {
    let num = |v: u64| JsonValue::Number(v as f64);
    let Some(store) = &state.store else {
        return JsonValue::Object(vec![("enabled".to_string(), JsonValue::Bool(false))]);
    };
    let s = store.stats();
    JsonValue::Object(vec![
        ("enabled".to_string(), JsonValue::Bool(true)),
        ("records".to_string(), num(s.records)),
        ("segments".to_string(), num(s.segments)),
        ("bytes_on_disk".to_string(), num(s.bytes_on_disk)),
        ("live_bytes".to_string(), num(s.live_bytes)),
        ("hits".to_string(), num(s.hits)),
        ("misses".to_string(), num(s.misses)),
        ("puts".to_string(), num(s.puts)),
        ("put_skips".to_string(), num(s.put_skips)),
        ("evictions".to_string(), num(s.evictions)),
        ("compactions".to_string(), num(s.compactions)),
        (
            "last_compaction_unix".to_string(),
            s.last_compaction_unix
                .map_or(JsonValue::Null, |t| JsonValue::Number(t as f64)),
        ),
    ])
}

fn handle_stats(stream: &mut TcpStream, state: &Arc<ServiceState>, keep: bool) {
    let cache = state.cache.stats();
    let num = |v: u64| JsonValue::Number(v as f64);
    // `requests` vs `connections` is the keep-alive throughput story:
    // requests/connections > 1 means the TCP + dispatch cost is being
    // amortized across a connection's lifetime. `version` and
    // `uptime_seconds` let the cluster router's aggregated stats flag
    // mixed-version rings and freshly-restarted (cold-cache) backends.
    let doc = JsonValue::Object(vec![
        (
            "version".to_string(),
            JsonValue::String(env!("CARGO_PKG_VERSION").to_string()),
        ),
        (
            "uptime_seconds".to_string(),
            num(state.started.elapsed().as_secs()),
        ),
        (
            "connections".to_string(),
            num(state.connections.load(Ordering::Relaxed)),
        ),
        (
            "requests".to_string(),
            num(state.requests.load(Ordering::Relaxed)),
        ),
        (
            "rejected".to_string(),
            num(state.rejected.load(Ordering::Relaxed)),
        ),
        (
            "analyze_ok".to_string(),
            num(state.analyze_ok.load(Ordering::Relaxed)),
        ),
        (
            "batch_ok".to_string(),
            num(state.batch_ok.load(Ordering::Relaxed)),
        ),
        (
            "errors".to_string(),
            num(state.errors.load(Ordering::Relaxed)),
        ),
        (
            "cache".to_string(),
            JsonValue::Object(vec![
                (
                    "sessions".to_string(),
                    JsonValue::Number(cache.sessions as f64),
                ),
                ("bytes".to_string(), JsonValue::Number(cache.bytes as f64)),
                (
                    "shard_bytes".to_string(),
                    JsonValue::Array(
                        cache
                            .shard_bytes
                            .iter()
                            .map(|&b| JsonValue::Number(b as f64))
                            .collect(),
                    ),
                ),
                ("hits".to_string(), num(cache.hits)),
                ("misses".to_string(), num(cache.misses)),
                ("evictions".to_string(), num(cache.evictions)),
            ]),
        ),
        ("store".to_string(), store_stats_doc(state)),
        (
            "engine".to_string(),
            JsonValue::Object(vec![
                (
                    "spectrum_misses".to_string(),
                    num(cache.engine.spectrum_misses),
                ),
                ("spectrum_hits".to_string(), num(cache.engine.spectrum_hits)),
                ("mincut_misses".to_string(), num(cache.engine.mincut_misses)),
                ("mincut_flows".to_string(), num(cache.engine.mincut_flows)),
                ("mincut_hits".to_string(), num(cache.engine.mincut_hits)),
            ]),
        ),
        (
            "linalg".to_string(),
            JsonValue::Object(vec![
                (
                    "dense_eigensolves".to_string(),
                    num(dense_eigensolve_count()),
                ),
                ("sparse_matvecs".to_string(), num(sparse_matvec_count())),
                (
                    "simd_kernel_calls".to_string(),
                    num(simd_kernel_call_count()),
                ),
                ("scalar_fallbacks".to_string(), num(scalar_fallback_count())),
                (
                    "scale_tier_solves".to_string(),
                    num(scale_tier_solve_count()),
                ),
            ]),
        ),
        ("process".to_string(), process_stats_doc()),
    ]);
    respond_json(stream, 200, keep, &[], &doc);
}

/// The `"process"` sub-document of `GET /stats`, read live from `/proc`:
/// `{"available":false}` on platforms without procfs so the key is
/// always present and the shape is discoverable. Shared with the cluster
/// router, whose `/stats` reports its own process the same way.
pub fn process_stats_doc() -> JsonValue {
    let Some(p) = graphio_obs::procfs::process_snapshot() else {
        return JsonValue::Object(vec![("available".to_string(), JsonValue::Bool(false))]);
    };
    JsonValue::Object(vec![
        ("available".to_string(), JsonValue::Bool(true)),
        (
            "resident_bytes".to_string(),
            JsonValue::Number(p.resident_bytes as f64),
        ),
        (
            "virtual_bytes".to_string(),
            JsonValue::Number(p.virtual_bytes as f64),
        ),
        ("threads".to_string(), JsonValue::Number(p.threads as f64)),
        ("open_fds".to_string(), JsonValue::Number(p.open_fds as f64)),
        (
            "cpu_user_seconds".to_string(),
            JsonValue::Number(p.cpu_user_seconds),
        ),
        (
            "cpu_system_seconds".to_string(),
            JsonValue::Number(p.cpu_system_seconds),
        ),
    ])
}

/// `GET /metrics`: Prometheus text exposition. Mirrors every `/stats`
/// counter (service, cache, store, engine, linalg) as a typed metric and
/// appends the live histogram registry — request latency per endpoint
/// plus per-phase pipeline histograms (`laplacian`, `eigensolve`,
/// `mincut`, `matvec`, codec/segment I/O, ...). The body is validated by
/// `graphio_obs::expo::parse` in the test suite and CI.
fn handle_metrics(stream: &mut TcpStream, state: &Arc<ServiceState>, keep: bool) {
    let mut m = graphio_obs::MetricsText::new();
    m.gauge(
        "graphio_service_uptime_seconds",
        &[],
        state.started.elapsed().as_secs() as f64,
    );
    let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
    m.counter(
        "graphio_service_connections_total",
        &[],
        load(&state.connections),
    );
    m.counter("graphio_service_requests_total", &[], load(&state.requests));
    m.counter("graphio_service_rejected_total", &[], load(&state.rejected));
    m.counter(
        "graphio_service_analyze_ok_total",
        &[],
        load(&state.analyze_ok),
    );
    m.counter("graphio_service_batch_ok_total", &[], load(&state.batch_ok));
    m.counter("graphio_service_errors_total", &[], load(&state.errors));

    let cache = state.cache.stats();
    m.gauge("graphio_cache_sessions", &[], cache.sessions as f64);
    m.gauge("graphio_cache_bytes", &[], cache.bytes as f64);
    m.counter("graphio_cache_hits_total", &[], cache.hits);
    m.counter("graphio_cache_misses_total", &[], cache.misses);
    m.counter("graphio_cache_evictions_total", &[], cache.evictions);

    m.gauge(
        "graphio_store_enabled",
        &[],
        if state.store.is_some() { 1.0 } else { 0.0 },
    );
    if let Some(store) = &state.store {
        let s = store.stats();
        m.gauge("graphio_store_records", &[], s.records as f64);
        m.gauge("graphio_store_segments", &[], s.segments as f64);
        m.gauge("graphio_store_bytes_on_disk", &[], s.bytes_on_disk as f64);
        m.gauge("graphio_store_live_bytes", &[], s.live_bytes as f64);
        m.counter("graphio_store_hits_total", &[], s.hits);
        m.counter("graphio_store_misses_total", &[], s.misses);
        m.counter("graphio_store_puts_total", &[], s.puts);
        m.counter("graphio_store_put_skips_total", &[], s.put_skips);
        m.counter("graphio_store_evictions_total", &[], s.evictions);
        m.counter("graphio_store_compactions_total", &[], s.compactions);
    }

    m.counter(
        "graphio_engine_spectrum_hits_total",
        &[],
        cache.engine.spectrum_hits,
    );
    m.counter(
        "graphio_engine_spectrum_misses_total",
        &[],
        cache.engine.spectrum_misses,
    );
    m.counter(
        "graphio_engine_mincut_hits_total",
        &[],
        cache.engine.mincut_hits,
    );
    m.counter(
        "graphio_engine_mincut_misses_total",
        &[],
        cache.engine.mincut_misses,
    );
    m.counter(
        "graphio_engine_mincut_flows_total",
        &[],
        cache.engine.mincut_flows,
    );

    m.counter(
        "graphio_linalg_dense_eigensolves_total",
        &[],
        dense_eigensolve_count(),
    );
    m.counter(
        "graphio_linalg_sparse_matvecs_total",
        &[],
        sparse_matvec_count(),
    );
    m.counter(
        "graphio_linalg_simd_kernel_calls_total",
        &[],
        simd_kernel_call_count(),
    );
    m.counter(
        "graphio_linalg_scalar_fallbacks_total",
        &[],
        scalar_fallback_count(),
    );
    m.counter(
        "graphio_linalg_scale_tier_solves_total",
        &[],
        scale_tier_solve_count(),
    );

    graphio_obs::render_registered(&mut m);
    recorder::render(&mut m);
    graphio_obs::alloc::render(&mut m);
    graphio_obs::procfs::render(&mut m);
    let body = m.into_string();
    let mut extra: Vec<(&str, String)> = Vec::new();
    push_obs_headers(&mut extra);
    let _ = write_response_typed(
        stream,
        200,
        "OK",
        keep,
        "text/plain; version=0.0.4",
        &extra,
        body.as_bytes(),
    );
}

/// Writes a response whose JSON body is already serialized (the trace
/// endpoints serve recorder/store JSON verbatim).
fn respond_raw_json(stream: &mut TcpStream, keep: bool, body: &str) {
    let mut extra: Vec<(&str, String)> = Vec::new();
    push_obs_headers(&mut extra);
    let _ = write_response(stream, 200, "OK", keep, &extra, body.as_bytes());
}

/// `GET /trace/{id}`: the flight-recorder record for one trace ID as
/// JSON — from the live ring, or from the persistent trace store for
/// pinned records that survived a restart. 404 when neither tier has it
/// (the ring is bounded; an unpinned record eventually evicts).
fn handle_trace(stream: &mut TcpStream, request: &Request, state: &Arc<ServiceState>, keep: bool) {
    let hex = request.path["/trace/".len()..]
        .split('?')
        .next()
        .unwrap_or("");
    let Some(trace) = graphio_obs::parse_trace_hex(hex) else {
        state.errors.fetch_add(1, Ordering::Relaxed);
        respond_error(stream, 400, keep, &format!("malformed trace id {hex:?}"));
        return;
    };
    match trace_record_json(state.trace_store.as_deref(), trace) {
        Some(body) => respond_raw_json(stream, keep, &(body + "\n")),
        None => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 404, keep, &format!("no record of trace {hex}"));
        }
    }
}

/// `GET /debug/profile?seconds=S`: runs the sampling profiler for S
/// seconds (capped well under the HTTP client's 60s read timeout so the
/// router's fan-out never times out) and serves the collapsed-stack
/// flamegraph text. The handler thread *is* the sampler — there is no
/// background profiling thread — so the cost is zero until someone asks.
fn handle_profile(
    stream: &mut TcpStream,
    request: &Request,
    state: &Arc<ServiceState>,
    keep: bool,
) {
    let query = request.path.split_once('?').map_or("", |x| x.1);
    let seconds = match graphio_obs::profile::parse_profile_query(query) {
        Ok(s) => s,
        Err(msg) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 400, keep, &msg);
            return;
        }
    };
    let profile = graphio_obs::profile::sample_for(
        std::time::Duration::from_secs(seconds),
        graphio_obs::profile::DEFAULT_HZ,
    );
    let body = profile.to_collapsed();
    let mut extra: Vec<(&str, String)> = Vec::new();
    push_obs_headers(&mut extra);
    let _ = write_response_typed(
        stream,
        200,
        "OK",
        keep,
        "text/plain; charset=utf-8",
        &extra,
        body.as_bytes(),
    );
}

/// `GET /traces?n=K&min_us=U&status=S`: summaries of the most recent
/// matching flight-recorder records, newest first.
fn handle_traces(stream: &mut TcpStream, request: &Request, state: &Arc<ServiceState>, keep: bool) {
    let (n, min_us, status) = match parse_traces_query(&request.path) {
        Ok(parsed) => parsed,
        Err(msg) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 400, keep, &msg);
            return;
        }
    };
    let records = recorder::recorder()
        .map(|r| r.recent(n, min_us, status))
        .unwrap_or_default();
    let summaries: Vec<String> = records.iter().map(|r| r.to_summary_json()).collect();
    respond_raw_json(stream, keep, &format!("[{}]\n", summaries.join(",")));
}

fn parse_body(request: &Request) -> Result<JsonValue, String> {
    parse_request_json(&request.body)
}

fn handle_graphs(stream: &mut TcpStream, request: &Request, state: &Arc<ServiceState>, keep: bool) {
    let result = parse_body(request).and_then(|doc| parse_graph_doc(&doc));
    let graph = match result {
        Ok(g) => g,
        Err(msg) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 400, keep, &msg);
            return;
        }
    };
    let (n, edges) = (graph.n(), graph.num_edges());
    let (analyzer, fp, source) = session_for_graph(state, graph);
    // Persist the registration (a graph-only record when the session is
    // new): after a restart the fingerprint resolves from disk instead of
    // requiring re-registration.
    write_through(state, fp, &analyzer);
    let doc = JsonValue::Object(vec![
        ("fingerprint".to_string(), JsonValue::String(fp.to_hex())),
        ("n".to_string(), JsonValue::Number(n as f64)),
        ("edges".to_string(), JsonValue::Number(edges as f64)),
        (
            "cached".to_string(),
            JsonValue::Bool(source != SessionSource::Fresh),
        ),
    ]);
    respond_json(stream, 200, keep, &[], &doc);
}

/// A parsed `/analyze` request: the (possibly cached) session, its
/// fingerprint, where the session came from, the validated spec, and any
/// validation warnings.
struct AnalyzeParts {
    analyzer: Arc<OwnedAnalyzer>,
    fp: Fingerprint,
    source: SessionSource,
    spec: AnalyzeSpec,
    warnings: Vec<String>,
}

/// Attempts the disk tier after a RAM miss: a stored session is decoded,
/// its spectra/min-cut caches imported, and the result back-filled into
/// the RAM cache (so the next request is a plain RAM hit). Undecodable
/// or unreadable records are treated as absent — the store is a cache of
/// recomputable artifacts, so the worst case of corruption is paying the
/// eigensolve again, never failing the request.
fn session_from_store(state: &Arc<ServiceState>, fp: Fingerprint) -> Option<Arc<OwnedAnalyzer>> {
    let store = state.store.as_ref()?;
    match load_session(store, fp) {
        Ok(Some(analyzer)) => Some(state.cache.insert_if_absent(fp, analyzer).0),
        Ok(None) => None,
        Err(e) => {
            eprintln!("graphio-store: ignoring unreadable record for {fp}: {e}");
            None
        }
    }
}

/// Persists `analyzer`'s current artifacts under `fp`. Two skip tiers:
/// the persist-mark map short-circuits before any encoding when the
/// session has computed nothing since its last save (the steady state —
/// a warm session would otherwise pay an O(n + m + h) serialization per
/// request just to discover the bytes are unchanged), and the store's
/// own CRC comparison de-duplicates whatever gets past the mark (e.g.
/// racing workers). Best-effort: a full disk must not fail the analysis
/// that already succeeded.
fn write_through(state: &Arc<ServiceState>, fp: Fingerprint, analyzer: &OwnedAnalyzer) {
    let Some(store) = &state.store else {
        return;
    };
    let s = analyzer.stats();
    // compose_plans counts built (not imported/replayed) plans, so a cold
    // compose moves the mark — and with it the save — even when every
    // component spectrum was already warm.
    let mark = s.spectrum_misses + s.mincut_misses + s.compose_plans;
    {
        let marks = state.persist_marks.lock().expect("persist marks lock");
        // The mark alone is not enough: the store's byte budget may have
        // evicted this record since we last saved it, and a hot session
        // whose mark never moves would then stay unpersisted forever —
        // losing warm restarts for exactly the hottest entries. The
        // `contains` index probe keeps the skip honest.
        if marks.get(&fp.0) == Some(&mark) && store.contains(fp) {
            return;
        }
    }
    match save_session(store, fp, analyzer) {
        Ok(_) => {
            let mut marks = state.persist_marks.lock().expect("persist marks lock");
            // Far above any plausible live set; a clear only costs one
            // redundant encode per fingerprint.
            if marks.len() > 1 << 20 {
                marks.clear();
            }
            marks.insert(fp.0, mark);
        }
        Err(e) => eprintln!("graphio-store: write-through for {fp} failed: {e}"),
    }
}

/// The compose-mode response body, with cluster-grade component
/// resolution: every component is its own cacheable sub-analysis, so
/// each resolves through the ordinary session tiers — RAM session cache,
/// then persistent store, then the plan's fresh sub-session (back-filled
/// into the RAM cache under the component's fingerprint). A component
/// analyzed before — standalone, inside another graph, or before a
/// restart — is therefore served with **zero** eigensolves, and every
/// resolved session writes through to the store under its own
/// fingerprint, exactly as a standalone analysis of the subgraph would.
fn compose_body_served(
    state: &Arc<ServiceState>,
    analyzer: &OwnedAnalyzer,
    spec: &AnalyzeSpec,
) -> String {
    let plan = compose_plan_for(analyzer);
    let mut resolved: std::collections::HashMap<u128, Arc<OwnedAnalyzer>> =
        std::collections::HashMap::new();
    let parts: Vec<_> = plan
        .fingerprints
        .iter()
        .zip(&plan.analyzers)
        .map(|(&fp, plan_an)| {
            let session = resolved.entry(fp.0).or_insert_with(|| {
                state
                    .cache
                    .get(fp)
                    .or_else(|| session_from_store(state, fp))
                    .unwrap_or_else(|| state.cache.insert_arc_if_absent(fp, Arc::clone(plan_an)).0)
            });
            crate::analysis::analyze_component_cached(fp, session)
        })
        .collect();
    for (&fp, an) in &resolved {
        write_through(state, Fingerprint(fp), an);
    }
    let mut body =
        crate::analysis::compose_doc(analyzer.graph(), spec, &plan.record(), &parts).to_string();
    body.push('\n');
    body
}

/// Dispatches between the monolithic and compose-mode response bodies.
/// Compose goes through [`compose_body_served`] so component sessions
/// resolve against the server's cache tiers; for byte-identical inputs
/// the result matches the offline `graphio analyze --compose --json`
/// bytes (the store round-trips floats by bit pattern).
fn response_body(
    state: &Arc<ServiceState>,
    analyzer: &OwnedAnalyzer,
    spec: &AnalyzeSpec,
) -> String {
    if spec.compose {
        compose_body_served(state, analyzer, spec)
    } else {
        analysis_body(analyzer, spec)
    }
}

/// Tells the flight recorder which session this request resolved and
/// how it was obtained — the `X-Graphio-Fingerprint` /
/// `X-Graphio-Session` headers' information, queryable after the fact
/// via `GET /trace/{id}`.
fn annotate_session(fp: Fingerprint, source: SessionSource) {
    recorder::annotate_fingerprint(fp.0);
    recorder::annotate_outcome(match source {
        SessionSource::Ram => CacheOutcome::Hit,
        SessionSource::Disk => CacheOutcome::Store,
        SessionSource::Fresh => CacheOutcome::Miss,
    });
}

/// Resolves the session for a request that carried a full graph:
/// RAM → disk → fresh. Exactly one hit-or-miss counter moves (in
/// [`SessionCache::get`]); the back-fill inserts are counter-silent.
fn session_for_graph(
    state: &Arc<ServiceState>,
    graph: CompGraph,
) -> (Arc<OwnedAnalyzer>, Fingerprint, SessionSource) {
    let fp = fingerprint(&graph);
    if let Some(analyzer) = state.cache.get(fp) {
        return (analyzer, fp, SessionSource::Ram);
    }
    if let Some(analyzer) = session_from_store(state, fp) {
        return (analyzer, fp, SessionSource::Disk);
    }
    let (analyzer, raced) = state
        .cache
        .insert_if_absent(fp, OwnedAnalyzer::from_graph(graph));
    // A racing request may have inserted between our get and insert;
    // either way the session exists now and this request computes (or
    // shares) the analysis.
    let source = if raced {
        SessionSource::Ram
    } else {
        SessionSource::Fresh
    };
    (analyzer, fp, source)
}

/// Resolves a fingerprint hex string to its session: RAM first, then the
/// persistent store (the warm-restart path — a fingerprint analyzed
/// before the last restart back-fills from disk instead of 404ing).
fn lookup_session(
    hex: &str,
    state: &Arc<ServiceState>,
) -> Result<(Arc<OwnedAnalyzer>, Fingerprint, SessionSource), (u16, String)> {
    let fp = Fingerprint::from_hex(hex)
        .ok_or_else(|| (400, format!("malformed fingerprint {hex:?}")))?;
    if let Some(analyzer) = state.cache.get(fp) {
        return Ok((analyzer, fp, SessionSource::Ram));
    }
    if let Some(analyzer) = session_from_store(state, fp) {
        return Ok((analyzer, fp, SessionSource::Disk));
    }
    Err((
        404,
        format!("no session for fingerprint {hex} (register via POST /graphs)"),
    ))
}

/// Parses the `/analyze` request body into a session handle + spec.
fn parse_analyze(
    doc: &JsonValue,
    state: &Arc<ServiceState>,
) -> Result<AnalyzeParts, (u16, String)> {
    let (spec, warnings) = parse_spec(doc)?;
    let (analyzer, fp, source) = if doc.get("graph").is_some() {
        let graph = parse_graph_doc(doc).map_err(|m| (400, m))?;
        session_for_graph(state, graph)
    } else {
        let hex = doc
            .get("fingerprint")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| (400, "need \"graph\" or \"fingerprint\"".to_string()))?;
        lookup_session(hex, state)?
    };
    Ok(AnalyzeParts {
        analyzer,
        fp,
        source,
        spec,
        warnings,
    })
}

fn handle_analyze(
    stream: &mut TcpStream,
    request: &Request,
    state: &Arc<ServiceState>,
    keep: bool,
) {
    let doc = match parse_body(request) {
        Ok(doc) => doc,
        Err(msg) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, 400, keep, &msg);
            return;
        }
    };
    let AnalyzeParts {
        analyzer,
        fp,
        source,
        spec,
        warnings,
    } = match parse_analyze(&doc, state) {
        Ok(parts) => parts,
        Err((status, msg)) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, status, keep, &msg);
            return;
        }
    };
    annotate_session(fp, source);
    let body = response_body(state, &analyzer, &spec);
    // The analysis may have grown the session (fresh spectra/min-cut
    // sweeps, a compose plan — whose component sessions already wrote
    // through under their own fingerprints): persist the growth, then
    // re-check the shard's byte budget now that it is visible.
    write_through(state, fp, &analyzer);
    state.cache.enforce_budget(fp);
    state.analyze_ok.fetch_add(1, Ordering::Relaxed);
    let mut extra = vec![
        ("X-Graphio-Fingerprint", fp.to_hex()),
        ("X-Graphio-Session", source.header().to_string()),
    ];
    if !warnings.is_empty() {
        extra.push(("X-Graphio-Warnings", warnings.join("; ")));
    }
    push_obs_headers(&mut extra);
    let _ = write_response(stream, 200, "OK", keep, &extra, body.as_bytes());
}

/// `POST /component`: one component sub-analysis of a compose-mode
/// request, as the cluster router scatters them. Body: `{"graph": {...}}`
/// or `{"fingerprint": "hex"}` — the graph *is* the component. The
/// response carries both spectra (as IEEE-754 bit-pattern hex, so the
/// router's composed document folds bit-identical floats), the min-cut,
/// and the size-scheduled solver name. Sessions resolve through the same
/// RAM → store → fresh tiers as `/analyze`, and write through, so a
/// component analyzed here is warm for every later compose or standalone
/// request that hashes to this backend.
fn handle_component(
    stream: &mut TcpStream,
    request: &Request,
    state: &Arc<ServiceState>,
    keep: bool,
) {
    let parsed = parse_body(request).map_err(|m| (400, m)).and_then(|doc| {
        if doc.get("graph").is_some() {
            let graph = parse_graph_doc(&doc).map_err(|m| (400, m))?;
            Ok(session_for_graph(state, graph))
        } else if let Some(hex) = doc.get("fingerprint").and_then(JsonValue::as_str) {
            lookup_session(hex, state)
        } else {
            Err((400, "need \"graph\" or \"fingerprint\"".to_string()))
        }
    });
    let (analyzer, fp, source) = match parsed {
        Ok(resolved) => resolved,
        Err((status, msg)) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, status, keep, &msg);
            return;
        }
    };
    annotate_session(fp, source);
    let part = analyze_component_cached(fp, &analyzer);
    write_through(state, fp, &analyzer);
    state.cache.enforce_budget(fp);
    state.analyze_ok.fetch_add(1, Ordering::Relaxed);
    let extra = vec![
        ("X-Graphio-Fingerprint", fp.to_hex()),
        ("X-Graphio-Session", source.header().to_string()),
    ];
    respond_json(stream, 200, keep, &extra, &component_doc(&part));
}

/// `POST /batch`: `{"graphs": [...], "memories": [...], "processors"?,
/// "no_sim"?}` — one sweep spec fanned across many graphs. Each element
/// of `graphs` is a graph document (`{"graph": ...}` or a bare edge
/// list) or a fingerprint hex string for an already-registered session.
///
/// The response body is *exactly* the concatenation of the `N`
/// individual `POST /analyze` bodies for the same graphs and spec — the
/// batch endpoint amortizes connection, parse and dispatch cost without
/// perturbing a single byte of the analysis documents (property-tested
/// in the integration suite and diffed in CI).
fn handle_batch(
    stream: &mut TcpStream,
    request: &Request,
    state: &Arc<ServiceState>,
    pool: &Arc<WorkerPool>,
    keep: bool,
) {
    let parsed = parse_body(request).map_err(|m| (400, m)).and_then(|doc| {
        let entries = crate::analysis::validate_batch_entries(&doc)?;
        let (spec, warnings) = parse_spec(&doc)?;
        // Resolve every entry before running anything: a batch with a bad
        // graph fails whole, like N requests where one would 400.
        let mut items = Vec::with_capacity(entries.len());
        let mut hits = Vec::with_capacity(entries.len());
        for (i, entry) in entries.iter().enumerate() {
            let (analyzer, fp, source) = if let Some(hex) = entry.as_str() {
                lookup_session(hex, state).map_err(|(s, m)| (s, format!("graphs[{i}]: {m}")))?
            } else {
                let graph =
                    parse_graph_doc(entry).map_err(|m| (400, format!("graphs[{i}]: {m}")))?;
                session_for_graph(state, graph)
            };
            items.push((analyzer, fp));
            hits.push(source.header());
        }
        Ok((items, hits, spec, warnings))
    });
    let (items, hits, spec, warnings) = match parsed {
        Ok(p) => p,
        Err((status, msg)) => {
            state.errors.fetch_add(1, Ordering::Relaxed);
            respond_error(stream, status, keep, &msg);
            return;
        }
    };

    let count = items.len();
    let spec = Arc::new(spec);
    let scatter_state = Arc::clone(state);
    let gather_started = Instant::now();
    let bodies = pool.scatter(
        items,
        move |(analyzer, fp): (Arc<OwnedAnalyzer>, Fingerprint)| {
            let body = response_body(&scatter_state, &analyzer, &spec);
            write_through(&scatter_state, fp, &analyzer);
            scatter_state.cache.enforce_budget(fp);
            body
        },
    );
    let mut body = String::new();
    for sub in &bodies {
        match sub {
            Some(s) => body.push_str(s),
            None => {
                state.errors.fetch_add(1, Ordering::Relaxed);
                respond_error(stream, 500, keep, "batch sub-analysis panicked");
                return;
            }
        }
    }
    state.analyze_ok.fetch_add(count as u64, Ordering::Relaxed);
    state.batch_ok.fetch_add(1, Ordering::Relaxed);
    let mut extra = vec![
        ("X-Graphio-Batch", count.to_string()),
        ("X-Graphio-Session", hits.join(",")),
    ];
    if !warnings.is_empty() {
        extra.push(("X-Graphio-Warnings", warnings.join("; ")));
    }
    if let Some(trace) = graphio_obs::current_trace_id() {
        extra.push(("X-Graphio-Trace", graphio_obs::trace_hex(trace)));
    }
    // For a batch, "elapsed" means the scatter/gather wall time — the
    // part that amortizes — not body assembly.
    let gather_us = gather_started.elapsed().as_micros() as u64;
    extra.push(("X-Graphio-Elapsed-Us", gather_us.max(1).to_string()));
    let _ = write_response(stream, 200, "OK", keep, &extra, body.as_bytes());
}
