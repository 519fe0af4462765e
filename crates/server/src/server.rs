//! The daemon: accept loop, per-connection sessions, credit-based
//! backpressure, per-request deadlines, and the graceful drain state
//! machine.
//!
//! # Concurrency model
//!
//! One accept thread polls a non-blocking listener. Each admitted
//! connection gets a **reader** thread (the only thread that reads its
//! socket) and a **writer** thread (the only one that writes it), sharing
//! a [`ConnShared`] — a mutex-guarded table of in-flight requests plus a
//! condvar the writer sleeps on. Request bodies run on the shared
//! work-stealing [`WorkerPool`]; a finished job parks its outcome in the
//! table and wakes the writer, which sends result chunks strictly against
//! the credit the client granted. Memory is bounded twice over: admission
//! charges every request's worst case up front, and the credit window
//! bounds what a slow reader can make the server buffer in its socket.
//!
//! # Drain state machine
//!
//! `Accepting → Draining → Stopped`, one way. During *Draining* the
//! listener keeps accepting — only to send a typed
//! [`RejectCode::Draining`] — established sessions finish their in-flight
//! requests (byte-identical to normal service), and new requests on old
//! connections get the same typed rejection. At the drain deadline every
//! live request is cancelled with [`CancelReason::Drain`] (the client
//! sees a typed error, not a torn connection), then sockets are
//! force-closed, the pool is drained, and the phase becomes *Stopped*.

use std::collections::{HashMap, VecDeque};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use lzfpga_core::HwConfig;
use lzfpga_deflate::crc32::Crc32;
use lzfpga_faults::registry::SERVER_RESULT_READY;
use lzfpga_faults::{Failpoints, InjectedFault, NoFaults};
use lzfpga_obs::MetricsRegistry;
use lzfpga_telemetry::TraceEvent;

use crate::jobs::{
    compress_job, decompress_job, range_job, CancelReason, JobFail, JobLedger, RequestCtl,
};
use crate::metrics::ServerMetrics;
use crate::pool::WorkerPool;
use crate::proto::{
    encode_response, parse_request, read_message, ProtoError, RejectCode, Request, Response,
};
use crate::quota::{Admission, QuotaConfig, SessionGuard};
use crate::store::{self, RecoveryReport, SessionOp, SessionStore};

const PHASE_ACCEPTING: u8 = 0;
const PHASE_DRAINING: u8 = 1;
const PHASE_STOPPED: u8 = 2;

/// How often blocked reads and waits wake up to poll cancellation state.
const POLL_TICK: Duration = Duration::from_millis(50);

/// Everything the daemon can be configured with.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Bind address (`"127.0.0.1:0"` picks a free port).
    pub addr: String,
    /// Worker threads in the shared pool (0 = available parallelism).
    pub workers: usize,
    /// Admission limits.
    pub quota: QuotaConfig,
    /// Hardware model compression jobs run with.
    pub hw: HwConfig,
    /// Frame size used when a compress request passes 0.
    pub frame_bytes: usize,
    /// Size of each [`Response::Data`] chunk (and the range job's step).
    pub chunk_bytes: usize,
    /// Deadline applied to requests that declare none (0 = none).
    pub default_deadline_ms: u32,
    /// Hard cap on client-declared deadlines (0 = uncapped).
    pub max_deadline_ms: u32,
    /// Close connections idle (no messages, no in-flight work) this long.
    pub idle_timeout_ms: u64,
    /// Drain window used by a remote [`Request::Shutdown`] passing 0.
    pub drain_ms: u64,
    /// Honor [`Request::Shutdown`] from clients.
    pub allow_remote_shutdown: bool,
    /// Collect connection → request span-trace events.
    pub collect_trace: bool,
    /// Root of the crash-durable session store. `None` (the default)
    /// serves everything from memory; `Some` journals every
    /// compress/decompress session so it survives `kill -9` and can be
    /// resumed via [`Request::Resume`].
    pub state_dir: Option<std::path::PathBuf>,
    /// How long a recovered-but-unclaimed session stays resumable before
    /// the orphan sweep garbage-collects it (session file removed, quota
    /// charge returned).
    pub resume_ttl_ms: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".to_string(),
            workers: 0,
            quota: QuotaConfig::default(),
            hw: HwConfig::paper_fast(),
            frame_bytes: 64 << 10,
            chunk_bytes: 256 << 10,
            default_deadline_ms: 0,
            max_deadline_ms: 0,
            idle_timeout_ms: 30_000,
            drain_ms: 5_000,
            allow_remote_shutdown: false,
            collect_trace: false,
            state_dir: None,
            resume_ttl_ms: 600_000,
        }
    }
}

/// A configured-but-not-started server.
pub struct Server {
    config: ServerConfig,
    registry: Arc<MetricsRegistry>,
    faults: Arc<dyn Failpoints + Send + Sync>,
}

impl Server {
    /// A server with a fresh metrics registry and no fault injection.
    pub fn new(config: ServerConfig) -> Self {
        Self { config, registry: Arc::new(MetricsRegistry::new()), faults: Arc::new(NoFaults) }
    }

    /// Export metrics through `registry` instead of a private one.
    #[must_use]
    pub fn with_registry(mut self, registry: Arc<MetricsRegistry>) -> Self {
        self.registry = registry;
        self
    }

    /// Arm a fault plan; jobs route their failpoint sites through it.
    #[must_use]
    pub fn with_faults(mut self, faults: Arc<dyn Failpoints + Send + Sync>) -> Self {
        self.faults = faults;
        self
    }

    /// Bind, spawn the pool and accept thread, and return the handle.
    ///
    /// # Errors
    /// Socket bind/configure failures.
    pub fn start(self) -> std::io::Result<ServerHandle> {
        let listener = TcpListener::bind(&self.config.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let workers = if self.config.workers == 0 {
            std::thread::available_parallelism().map_or(4, std::num::NonZeroUsize::get)
        } else {
            self.config.workers
        };
        let metrics =
            Arc::new(ServerMetrics::new(Arc::clone(&self.registry), self.config.collect_trace));
        let admission = Admission::new(self.config.quota);
        let (session_store, recovery) = match &self.config.state_dir {
            Some(dir) => {
                let store =
                    Arc::new(SessionStore::open(dir)?.with_params(self.config.hw.as_lzss_params()));
                let report = store.recover(&admission);
                (Some(store), report)
            }
            None => (None, RecoveryReport::default()),
        };
        let shared = Arc::new(Shared {
            config: self.config,
            admission,
            metrics,
            faults: self.faults,
            pool: Mutex::new(Some(WorkerPool::new(workers))),
            pool_panics: AtomicU64::new(0),
            phase: AtomicU8::new(PHASE_ACCEPTING),
            next_session: AtomicU64::new(0),
            live_conns: AtomicUsize::new(0),
            conns: Mutex::new(HashMap::new()),
            remote_drain: Mutex::new(None),
            shutdown_started: AtomicBool::new(false),
            store: session_store,
            recovery,
        });
        let accept = {
            let shared = Arc::clone(&shared);
            std::thread::Builder::new()
                .name("lzfpga-accept".to_string())
                .spawn(move || accept_loop(&shared, &listener))?
        };
        Ok(ServerHandle { shared, addr, accept: Mutex::new(Some(accept)) })
    }
}

/// Control handle over a running server.
pub struct ServerHandle {
    shared: Arc<Shared>,
    addr: SocketAddr,
    accept: Mutex<Option<JoinHandle<()>>>,
}

impl ServerHandle {
    /// The bound address.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The admission controller (leak assertions in drills).
    pub fn admission(&self) -> Arc<Admission> {
        Arc::clone(&self.shared.admission)
    }

    /// The metrics registry the server exports through.
    pub fn registry(&self) -> Arc<MetricsRegistry> {
        Arc::clone(self.shared.metrics.registry())
    }

    /// Worker panics the pool's backstop contained.
    pub fn pool_panics(&self) -> u64 {
        match self.shared.pool.lock().expect("pool lock").as_ref() {
            Some(p) => p.panic_count(),
            None => self.shared.pool_panics.load(Ordering::Relaxed),
        }
    }

    /// Flip to *Draining* without waiting: new connections and new
    /// requests get typed rejections, in-flight work keeps running.
    pub fn begin_drain(&self) {
        let _ = self.shared.phase.compare_exchange(
            PHASE_ACCEPTING,
            PHASE_DRAINING,
            Ordering::SeqCst,
            Ordering::SeqCst,
        );
    }

    /// True once draining (or stopped).
    pub fn is_draining(&self) -> bool {
        self.shared.phase() >= PHASE_DRAINING
    }

    /// Live connection count.
    pub fn live_connections(&self) -> usize {
        self.shared.live_conns.load(Ordering::SeqCst)
    }

    /// A point-in-time stats snapshot (no trace events).
    pub fn stats(&self) -> ServerStats {
        self.shared.stats_snapshot(self.pool_panics())
    }

    /// What startup recovery found in the state dir (all-zero when the
    /// server runs without one).
    pub fn recovery(&self) -> RecoveryReport {
        self.shared.recovery
    }

    /// The crash-durable session store, when configured (drill and test
    /// leak assertions).
    pub fn session_store(&self) -> Option<Arc<SessionStore>> {
        self.shared.store.clone()
    }

    /// Sweep every recovered-but-unclaimed session right now, regardless
    /// of the configured TTL. Returns how many were garbage-collected.
    pub fn sweep_orphans_now(&self) -> usize {
        match &self.shared.store {
            Some(store) => store.sweep_orphans(Duration::ZERO),
            None => 0,
        }
    }

    /// Gracefully drain within `drain`, then stop: finish or
    /// deadline-cancel in-flight requests, flush telemetry, join every
    /// thread. Idempotent — a second call (or a call racing a remote
    /// shutdown) just waits for the stop to finish.
    pub fn shutdown(&self, drain: Duration) -> ServerStats {
        trigger_drain(&self.shared, drain.as_millis().min(u128::from(u64::MAX)) as u64);
        self.wait();
        let pool_panics = self.pool_panics();
        let mut stats = self.shared.stats_snapshot(pool_panics);
        stats.trace = self.shared.metrics.finish_trace();
        stats
    }

    /// Block until the server reaches *Stopped* (e.g. after a remote
    /// shutdown request).
    pub fn wait(&self) {
        while self.shared.phase() != PHASE_STOPPED {
            std::thread::sleep(Duration::from_millis(5));
        }
        if let Some(h) = self.accept.lock().expect("accept lock").take() {
            let _ = h.join();
        }
    }
}

/// A point-in-time summary of what the server has done and is doing.
#[derive(Debug, Default)]
pub struct ServerStats {
    /// Connections that completed the handshake.
    pub sessions_total: u64,
    /// Requests admitted.
    pub requests_total: u64,
    /// Requests fully served.
    pub requests_done: u64,
    /// Requests that ended in a typed error.
    pub requests_failed: u64,
    /// Worker panics contained (ladder restarts + pool backstop).
    pub panics_contained: u64,
    /// Panics the pool backstop caught (a job escaping its own guard).
    pub pool_panics: u64,
    /// Hostile or unparseable wire messages seen.
    pub protocol_errors: u64,
    /// Live sessions right now.
    pub active_sessions: usize,
    /// Live in-flight requests right now.
    pub active_streams: usize,
    /// Live admitted bytes right now.
    pub active_bytes: u64,
    /// Span-trace events (only populated by [`ServerHandle::shutdown`]).
    pub trace: Vec<TraceEvent>,
}

struct Shared {
    config: ServerConfig,
    admission: Arc<Admission>,
    metrics: Arc<ServerMetrics>,
    faults: Arc<dyn Failpoints + Send + Sync>,
    pool: Mutex<Option<WorkerPool>>,
    /// Pool panic count, preserved across pool shutdown for final stats.
    pool_panics: AtomicU64,
    phase: AtomicU8,
    next_session: AtomicU64,
    live_conns: AtomicUsize,
    conns: Mutex<HashMap<u64, ConnEntry>>,
    remote_drain: Mutex<Option<u64>>,
    shutdown_started: AtomicBool,
    /// The crash-durable session store, when a state dir is configured.
    store: Option<Arc<SessionStore>>,
    /// What startup recovery found in the state dir.
    recovery: RecoveryReport,
}

impl Shared {
    fn phase(&self) -> u8 {
        self.phase.load(Ordering::SeqCst)
    }

    fn stats_snapshot(&self, pool_panics: u64) -> ServerStats {
        let snap = self.metrics.registry().snapshot();
        ServerStats {
            sessions_total: snap.counter("server_sessions_total"),
            requests_total: snap.counter("server_requests_total"),
            requests_done: snap.counter("server_requests_done"),
            requests_failed: snap.counter("server_requests_failed"),
            panics_contained: snap.counter("server_panics_contained"),
            pool_panics,
            protocol_errors: snap.counter("server_protocol_errors"),
            active_sessions: self.admission.active_sessions(),
            active_streams: self.admission.active_streams(),
            active_bytes: self.admission.active_bytes(),
            trace: Vec::new(),
        }
    }
}

/// What the drain sweep needs to reach a connection from outside.
struct ConnEntry {
    conn: Arc<ConnShared>,
    stream: TcpStream,
}

/// State shared between a connection's reader, its writer, and its jobs.
struct ConnShared {
    state: Mutex<ConnState>,
    wake: Condvar,
}

impl ConnShared {
    fn new() -> Self {
        Self {
            state: Mutex::new(ConnState {
                queue: VecDeque::new(),
                requests: HashMap::new(),
                tenant: String::new(),
                requests_started: 0,
                closed: false,
            }),
            wake: Condvar::new(),
        }
    }
}

struct ConnState {
    /// Control responses (handshake, rejects, request errors) to send.
    queue: VecDeque<Response>,
    /// In-flight requests by client-chosen id.
    requests: HashMap<u64, ReqState>,
    tenant: String,
    requests_started: u64,
    /// Set by the reader's teardown, a writer error, or the drain sweep;
    /// the writer flushes the control queue and exits, the reader stops.
    closed: bool,
}

/// One in-flight request as the writer sees it.
struct ReqState {
    ctl: Arc<RequestCtl>,
    /// Response credit remaining (bytes the client is ready to receive).
    credit: u64,
    /// Result bytes already queued to the socket.
    sent: u64,
    outcome: Option<Result<DoneBuf, JobFail>>,
    op: &'static str,
    start_us: f64,
    ordinal: u64,
    frames: u64,
    /// Durable session token, when the request is journaled in the state
    /// dir; the writer removes the session file after full delivery.
    session: Option<u64>,
}

/// A finished job's result, parked until credit lets it flow.
struct DoneBuf {
    bytes: Vec<u8>,
    crc: u32,
}

/// Decrements the live-connection count when a connection thread ends,
/// however it ends.
struct ConnCount(Arc<Shared>);

impl Drop for ConnCount {
    fn drop(&mut self) {
        self.0.live_conns.fetch_sub(1, Ordering::SeqCst);
    }
}

fn accept_loop(shared: &Arc<Shared>, listener: &TcpListener) {
    loop {
        if shared.phase() == PHASE_STOPPED {
            return;
        }
        if let Some(ms) = shared.remote_drain.lock().expect("drain lock").take() {
            trigger_drain(shared, ms);
        }
        shared.metrics.refresh_gauges(
            shared.admission.active_sessions(),
            shared.admission.active_streams(),
            shared.admission.active_bytes(),
        );
        if let Some(session_store) = &shared.store {
            let ttl = Duration::from_millis(shared.config.resume_ttl_ms.max(1));
            session_store.sweep_orphans(ttl);
        }
        match listener.accept() {
            Ok((stream, _peer)) => handle_accept(shared, stream),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(10));
            }
            Err(_) => std::thread::sleep(Duration::from_millis(10)),
        }
    }
}

fn handle_accept(shared: &Arc<Shared>, stream: TcpStream) {
    if shared.phase() >= PHASE_DRAINING {
        shared.metrics.reject(RejectCode::Draining);
        reject_and_close(stream, RejectCode::Draining, "server is draining");
        return;
    }
    let guard = match shared.admission.admit_session() {
        Ok(g) => g,
        Err(code) => {
            shared.metrics.reject(code);
            reject_and_close(stream, code, "concurrent session limit reached");
            return;
        }
    };
    let session = shared.next_session.fetch_add(1, Ordering::Relaxed) + 1;
    let conn = Arc::new(ConnShared::new());
    let entry_stream = match stream.try_clone() {
        Ok(s) => s,
        Err(_) => return,
    };
    shared
        .conns
        .lock()
        .expect("conns lock")
        .insert(session, ConnEntry { conn: Arc::clone(&conn), stream: entry_stream });
    shared.live_conns.fetch_add(1, Ordering::SeqCst);
    let count = ConnCount(Arc::clone(shared));
    let thread_shared = Arc::clone(shared);
    let spawned =
        std::thread::Builder::new().name(format!("lzfpga-conn-{session}")).spawn(move || {
            let _count = count;
            run_connection(&thread_shared, stream, &conn, session, guard);
        });
    if spawned.is_err() {
        // Spawn failed before the closure ran: the ConnCount guard and
        // session slot released when the closure dropped; the registry
        // entry is ours to clean.
        shared.conns.lock().expect("conns lock").remove(&session);
    }
}

/// Best-effort typed rejection for a connection refused at accept time.
fn reject_and_close(stream: TcpStream, code: RejectCode, detail: &str) {
    let _ = stream.set_write_timeout(Some(Duration::from_secs(1)));
    let mut s = stream;
    let msg = encode_response(&Response::Reject { code, detail: detail.to_string() });
    let _ = std::io::Write::write_all(&mut s, &msg);
    let _ = s.shutdown(Shutdown::Both);
}

/// Kick off the one-way drain → stop sequence (idempotent).
fn trigger_drain(shared: &Arc<Shared>, drain_ms: u64) {
    if shared.shutdown_started.swap(true, Ordering::SeqCst) {
        return;
    }
    let thread_shared = Arc::clone(shared);
    let spawned = std::thread::Builder::new()
        .name("lzfpga-drain".to_string())
        .spawn(move || drain_and_stop(&thread_shared, drain_ms));
    if spawned.is_err() {
        // Can't spawn: run inline rather than never stopping.
        drain_and_stop(shared, drain_ms);
    }
}

fn drain_and_stop(shared: &Arc<Shared>, drain_ms: u64) {
    shared.phase.store(PHASE_DRAINING, Ordering::SeqCst);
    let deadline = Instant::now() + Duration::from_millis(drain_ms);
    // Phase 1: let in-flight work finish; sessions close themselves once
    // they have nothing left in flight.
    while Instant::now() < deadline && shared.live_conns.load(Ordering::SeqCst) > 0 {
        std::thread::sleep(Duration::from_millis(10));
    }
    if shared.live_conns.load(Ordering::SeqCst) > 0 {
        // Phase 2: deadline hit — cancel every live request with the
        // drain reason so clients get a typed error, not a torn socket.
        let entries: Vec<Arc<ConnShared>> = shared
            .conns
            .lock()
            .expect("conns lock")
            .values()
            .map(|e| Arc::clone(&e.conn))
            .collect();
        for conn in &entries {
            let st = conn.state.lock().expect("conn state");
            for rs in st.requests.values() {
                rs.ctl.cancel(CancelReason::Drain);
            }
            drop(st);
            conn.wake.notify_all();
        }
        let grace = Instant::now() + Duration::from_millis(400);
        while Instant::now() < grace && shared.live_conns.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
        // Phase 3: force-close whatever is left.
        let leftovers: Vec<(Arc<ConnShared>, TcpStream)> = {
            let conns = shared.conns.lock().expect("conns lock");
            conns
                .values()
                .filter_map(|e| e.stream.try_clone().ok().map(|s| (Arc::clone(&e.conn), s)))
                .collect()
        };
        for (conn, stream) in leftovers {
            let mut st = conn.state.lock().expect("conn state");
            st.closed = true;
            drop(st);
            conn.wake.notify_all();
            let _ = stream.shutdown(Shutdown::Both);
        }
        let force = Instant::now() + Duration::from_secs(2);
        while Instant::now() < force && shared.live_conns.load(Ordering::SeqCst) > 0 {
            std::thread::sleep(Duration::from_millis(10));
        }
    }
    // Flush telemetry that depends on the pool, then stop it.
    if let Some(pool) = shared.pool.lock().expect("pool lock").take() {
        shared.pool_panics.store(pool.panic_count(), Ordering::Relaxed);
        pool.shutdown();
    }
    shared.metrics.refresh_gauges(
        shared.admission.active_sessions(),
        shared.admission.active_streams(),
        shared.admission.active_bytes(),
    );
    shared.phase.store(PHASE_STOPPED, Ordering::SeqCst);
}

fn run_connection(
    shared: &Arc<Shared>,
    stream: TcpStream,
    conn: &Arc<ConnShared>,
    session: u64,
    guard: SessionGuard,
) {
    let _guard = guard;
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(POLL_TICK));
    let started_us = shared.metrics.now_us();
    let writer = stream.try_clone().ok().map(|ws| {
        let conn = Arc::clone(conn);
        let shared = Arc::clone(shared);
        std::thread::Builder::new()
            .name(format!("lzfpga-conn-{session}-w"))
            .spawn(move || writer_loop(&shared, &conn, ws, session))
            .expect("spawn connection writer")
    });
    if writer.is_some() {
        let mut reader = stream;
        // The reader never unwinds in practice; the catch is the backstop
        // that guarantees teardown (cancel + flush + unregister) anyway.
        let _ = catch_unwind(AssertUnwindSafe(|| {
            read_loop(shared, conn, &mut reader, session);
        }));
    }
    {
        let mut st = conn.state.lock().expect("conn state");
        st.closed = true;
        for rs in st.requests.values() {
            rs.ctl.cancel(CancelReason::Client);
        }
    }
    conn.wake.notify_all();
    if let Some(w) = writer {
        let _ = w.join();
    }
    let (tenant, requests, dead_sessions) = {
        let mut st = conn.state.lock().expect("conn state");
        // Drop request entries now so their charges release as soon as the
        // (cancelled) jobs drop their control handles.
        let dead: Vec<u64> = st.requests.values().filter_map(|rs| rs.session).collect();
        st.requests.clear();
        (st.tenant.clone(), st.requests_started, dead)
    };
    if let Some(session_store) = &shared.store {
        // A torn connection ends its journaled sessions: resume is a
        // promise against server death, not client death — an abandoned
        // request must not pin disk or quota.
        for token in dead_sessions {
            session_store.finish(token);
        }
    }
    if !tenant.is_empty() {
        shared.metrics.trace_connection(session, &tenant, started_us, requests);
    }
    shared.conns.lock().expect("conns lock").remove(&session);
}

/// Push a control response and wake the writer.
fn queue_response(conn: &ConnShared, rsp: Response) {
    conn.state.lock().expect("conn state").queue.push_back(rsp);
    conn.wake.notify_all();
}

fn read_loop(shared: &Arc<Shared>, conn: &Arc<ConnShared>, reader: &mut TcpStream, session: u64) {
    let cap = shared.config.quota.max_request_bytes.saturating_add(256);
    let idle = Duration::from_millis(shared.config.idle_timeout_ms.max(100));
    let mut tenant: Option<String> = None;
    let mut credit_window = 0u64;
    let mut last_activity = Instant::now();
    loop {
        {
            let st = conn.state.lock().expect("conn state");
            if st.closed {
                return;
            }
            // During drain an established session closes as soon as it has
            // nothing left in flight — that is what lets the drain finish.
            if shared.phase() >= PHASE_DRAINING && st.requests.is_empty() && st.queue.is_empty() {
                return;
            }
        }
        let raw = match read_message(reader, cap) {
            Ok(None) => return,
            Ok(Some(raw)) => raw,
            Err(ProtoError::TimedOut) => {
                if last_activity.elapsed() > idle {
                    let in_flight = !conn.state.lock().expect("conn state").requests.is_empty();
                    if !in_flight {
                        return;
                    }
                }
                continue;
            }
            Err(ProtoError::TooLarge { len, cap }) => {
                shared.metrics.protocol_errors.inc();
                shared.metrics.reject(RejectCode::TooLarge);
                queue_response(
                    conn,
                    Response::Reject {
                        code: RejectCode::TooLarge,
                        detail: format!("message claims {len} bytes, cap is {cap}"),
                    },
                );
                return;
            }
            Err(ProtoError::Io(_)) | Err(ProtoError::UnexpectedEof) => return,
            Err(e @ ProtoError::Malformed(_)) => {
                shared.metrics.protocol_errors.inc();
                shared.metrics.reject(RejectCode::Protocol);
                queue_response(
                    conn,
                    Response::Reject { code: RejectCode::Protocol, detail: e.to_string() },
                );
                return;
            }
        };
        last_activity = Instant::now();
        let request = match parse_request(&raw) {
            Ok(r) => r,
            Err(e) => {
                shared.metrics.protocol_errors.inc();
                shared.metrics.reject(RejectCode::Protocol);
                queue_response(
                    conn,
                    Response::Reject { code: RejectCode::Protocol, detail: e.to_string() },
                );
                return;
            }
        };
        match (tenant.as_deref(), request) {
            (None, Request::Hello { tenant: t, credit }) => {
                if shared.phase() >= PHASE_DRAINING {
                    shared.metrics.reject(RejectCode::Draining);
                    queue_response(
                        conn,
                        Response::Reject {
                            code: RejectCode::Draining,
                            detail: "server is draining".to_string(),
                        },
                    );
                    return;
                }
                conn.state.lock().expect("conn state").tenant = t.clone();
                tenant = Some(t);
                credit_window = credit;
                shared.metrics.sessions_total.inc();
                queue_response(conn, Response::HelloOk { session });
            }
            (None, _) => {
                shared.metrics.reject(RejectCode::Protocol);
                queue_response(
                    conn,
                    Response::Reject {
                        code: RejectCode::Protocol,
                        detail: "first message must be Hello".to_string(),
                    },
                );
                return;
            }
            (Some(_), Request::Hello { .. }) => {
                shared.metrics.reject(RejectCode::Protocol);
                queue_response(
                    conn,
                    Response::Reject {
                        code: RejectCode::Protocol,
                        detail: "duplicate Hello".to_string(),
                    },
                );
                return;
            }
            (Some(t), Request::Compress { req, deadline_ms, frame_bytes, data }) => {
                let fb =
                    if frame_bytes == 0 { shared.config.frame_bytes } else { frame_bytes as usize }
                        .clamp(4096, lzfpga_container::MAX_FRAME_BYTES);
                // Worst case output: stored frames (payload + per-frame
                // headers) + index + trailer, comfortably under 2x + slack.
                let cost = (data.len() as u64).saturating_mul(2).saturating_add(16_384);
                start_job(
                    shared,
                    conn,
                    t,
                    req,
                    deadline_ms,
                    credit_window,
                    cost,
                    data,
                    JobKind::Compress { frame_bytes: fb },
                );
            }
            (Some(t), Request::Decompress { req, deadline_ms, max_result, data }) => {
                let cost = (data.len() as u64).saturating_add(max_result);
                start_job(
                    shared,
                    conn,
                    t,
                    req,
                    deadline_ms,
                    credit_window,
                    cost,
                    data,
                    JobKind::Decompress { max_result },
                );
            }
            (Some(t), Request::Range { req, deadline_ms, start, end, max_result, data }) => {
                let span = end.saturating_sub(start).min(max_result);
                let cost = (data.len() as u64).saturating_add(span);
                start_job(
                    shared,
                    conn,
                    t,
                    req,
                    deadline_ms,
                    credit_window,
                    cost,
                    data,
                    JobKind::Range { start, end, max_result },
                );
            }
            (Some(t), Request::Resume { req, deadline_ms, token, acked }) => {
                // The recovered session holds its own re-admitted charge;
                // this request pays only a fixed slack for the machinery.
                start_job(
                    shared,
                    conn,
                    t,
                    req,
                    deadline_ms,
                    credit_window,
                    16_384,
                    Vec::new(),
                    JobKind::Resume { token, acked },
                );
            }
            (Some(_), Request::Credit { req, bytes }) => {
                let mut st = conn.state.lock().expect("conn state");
                if let Some(rs) = st.requests.get_mut(&req) {
                    rs.credit = rs.credit.saturating_add(bytes);
                }
                drop(st);
                conn.wake.notify_all();
            }
            (Some(_), Request::Cancel { req }) => {
                let st = conn.state.lock().expect("conn state");
                if let Some(rs) = st.requests.get(&req) {
                    rs.ctl.cancel(CancelReason::Client);
                }
                drop(st);
                conn.wake.notify_all();
            }
            (Some(_), Request::Shutdown { drain_ms }) => {
                if shared.config.allow_remote_shutdown {
                    let ms =
                        if drain_ms == 0 { shared.config.drain_ms } else { u64::from(drain_ms) };
                    *shared.remote_drain.lock().expect("drain lock") = Some(ms);
                } else {
                    shared.metrics.reject(RejectCode::Protocol);
                    queue_response(
                        conn,
                        Response::Reject {
                            code: RejectCode::Protocol,
                            detail: "remote shutdown is disabled".to_string(),
                        },
                    );
                    return;
                }
            }
        }
    }
}

/// Which job body a request runs.
enum JobKind {
    Compress { frame_bytes: usize },
    Decompress { max_result: u64 },
    Range { start: u64, end: u64, max_result: u64 },
    Resume { token: u64, acked: u64 },
}

impl JobKind {
    fn op(&self) -> &'static str {
        match self {
            JobKind::Compress { .. } => "compress",
            JobKind::Decompress { .. } => "decompress",
            JobKind::Range { .. } => "range",
            JobKind::Resume { .. } => "resume",
        }
    }
}

#[allow(clippy::too_many_arguments)]
fn start_job(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    tenant: &str,
    req: u64,
    deadline_ms: u32,
    credit: u64,
    cost: u64,
    data: Vec<u8>,
    kind: JobKind,
) {
    let fail = |code: RejectCode, detail: String| {
        shared.metrics.reject(code);
        shared.metrics.requests_failed.inc();
        queue_response(conn, Response::Error { req, code, detail });
    };
    if shared.phase() >= PHASE_DRAINING {
        fail(RejectCode::Draining, "server is draining".to_string());
        return;
    }
    if data.len() > shared.config.quota.max_request_bytes {
        fail(
            RejectCode::TooLarge,
            format!(
                "payload is {} bytes, per-request cap is {}",
                data.len(),
                shared.config.quota.max_request_bytes
            ),
        );
        return;
    }
    {
        let st = conn.state.lock().expect("conn state");
        if st.requests.contains_key(&req) {
            drop(st);
            fail(RejectCode::Protocol, format!("request id {req} is already in flight"));
            return;
        }
    }
    let charge = match shared.admission.admit_request(tenant, cost) {
        Ok(c) => c,
        Err(code) => {
            fail(code, format!("tenant quota refused a {cost}-byte admission"));
            return;
        }
    };
    let effective_deadline = if deadline_ms == 0 {
        shared.config.default_deadline_ms
    } else if shared.config.max_deadline_ms > 0 {
        deadline_ms.min(shared.config.max_deadline_ms)
    } else {
        deadline_ms
    };
    let ctl = Arc::new(RequestCtl::new(charge, effective_deadline));
    let ordinal = shared.metrics.next_request_ordinal();
    let op = kind.op();
    let start_us = shared.metrics.now_us();
    {
        let mut st = conn.state.lock().expect("conn state");
        st.requests_started += 1;
        st.requests.insert(
            req,
            ReqState {
                ctl: Arc::clone(&ctl),
                credit,
                sent: 0,
                outcome: None,
                op,
                start_us,
                ordinal,
                frames: 0,
                session: None,
            },
        );
    }
    shared.metrics.requests_total.inc();
    shared.metrics.bytes_in.add(data.len() as u64);
    shared.metrics.tenant_request(tenant, op, data.len() as u64);
    let job_shared = Arc::clone(shared);
    let job_conn = Arc::clone(conn);
    let job = Box::new(move || {
        run_job(&job_shared, &job_conn, req, &ctl, &data, &kind);
    });
    let pool = shared.pool.lock().expect("pool lock");
    match pool.as_ref() {
        Some(p) => p.submit(job),
        // Stopping: the request was admitted a hair before the pool went
        // away; fail it typed instead of leaving it parked forever.
        None => {
            drop(pool);
            let mut st = conn.state.lock().expect("conn state");
            if let Some(rs) = st.requests.get_mut(&req) {
                rs.outcome = Some(Err(JobFail::new(RejectCode::Cancelled, "server draining")));
            }
            drop(st);
            conn.wake.notify_all();
        }
    }
}

fn run_job(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    req: u64,
    ctl: &Arc<RequestCtl>,
    data: &[u8],
    kind: &JobKind,
) {
    let faults = &*shared.faults;
    let mut ledger = JobLedger::default();
    let result = catch_unwind(AssertUnwindSafe(|| match *kind {
        JobKind::Compress { frame_bytes } => match shared.store.as_deref() {
            Some(s) => durable_job(
                shared,
                conn,
                s,
                req,
                SessionOp::Compress,
                frame_bytes,
                0,
                data,
                ctl,
                &mut ledger,
            ),
            None => compress_job(data, frame_bytes, &shared.config.hw, ctl, faults, &mut ledger),
        },
        JobKind::Decompress { max_result } => match shared.store.as_deref() {
            Some(s) => durable_job(
                shared,
                conn,
                s,
                req,
                SessionOp::Decompress,
                0,
                max_result,
                data,
                ctl,
                &mut ledger,
            ),
            None => decompress_job(data, max_result, ctl, &mut ledger),
        },
        JobKind::Range { start, end, max_result } => range_job(
            data,
            start..end,
            max_result,
            shared.config.chunk_bytes as u64,
            ctl,
            faults,
            &mut ledger,
        ),
        JobKind::Resume { token, .. } => resume_job(shared, conn, req, token, ctl, &mut ledger),
    }));
    shared.metrics.frames_total.add(ledger.frames);
    shared.metrics.retries.add(ledger.failures.retries);
    shared.metrics.panics_contained.add(ledger.failures.worker_restarts);
    let outcome = match result {
        Ok(Ok(bytes)) => {
            let mut crc = Crc32::new();
            crc.update(&bytes);
            Ok(DoneBuf { crc: crc.finish(), bytes })
        }
        Ok(Err(fail)) => Err(fail),
        Err(_panic) => {
            shared.metrics.panics_contained.inc();
            Err(JobFail::new(RejectCode::Internal, "worker panicked; contained"))
        }
    };
    // A resumed request starts delivery at the client's acknowledged
    // offset — the prefix it already holds is never re-sent (Done still
    // carries the full total and CRC).
    let skip = match *kind {
        JobKind::Resume { acked, .. } => acked,
        _ => 0,
    };
    let mut st = conn.state.lock().expect("conn state");
    if let Some(rs) = st.requests.get_mut(&req) {
        rs.frames = ledger.frames;
        if rs.outcome.is_none() {
            if let Ok(buf) = &outcome {
                rs.sent = skip.min(buf.bytes.len() as u64);
            }
            rs.outcome = Some(outcome);
        }
    }
    drop(st);
    conn.wake.notify_all();
}

/// Run a journaled compress/decompress session. The journal syncs on its
/// own thread while this one computes the result in memory (DESIGN §14.1):
/// the token is announced only once the journal is durable, and the
/// journal thread is joined before this returns, so no result byte is
/// queued ahead of the token. A journal failure drops whatever the job
/// produced. A session that will not deliver is removed here rather than
/// left resumable.
#[allow(clippy::too_many_arguments)]
fn durable_job(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    session_store: &SessionStore,
    req: u64,
    op: SessionOp,
    frame_bytes: usize,
    max_result: u64,
    data: &[u8],
    ctl: &Arc<RequestCtl>,
    ledger: &mut JobLedger,
) -> Result<Vec<u8>, JobFail> {
    let faults = &*shared.faults;
    let tenant = conn.state.lock().expect("conn state").tenant.clone();
    let journal_fail =
        |e: std::io::Error| JobFail::new(RejectCode::Internal, format!("session journal: {e}"));
    let (token, path, file) = session_store.create().map_err(journal_fail)?;
    let (journaled, result) = std::thread::scope(|s| {
        let journal = s.spawn(|| {
            session_store
                .journal(token, &file, op, &tenant, frame_bytes as u32, max_result, data, faults)
                .map(|()| announce_session(conn, req, token))
        });
        let result = catch_unwind(AssertUnwindSafe(|| match op {
            SessionOp::Compress => store::durable_compress(
                &path,
                data,
                frame_bytes as u32,
                shared.config.hw.as_lzss_params(),
                ctl,
                faults,
                ledger,
            ),
            SessionOp::Decompress => decompress_job(data, max_result, ctl, ledger),
        }));
        (journal.join(), result)
    });
    let announced = match journaled {
        Ok(Ok(announced)) => announced,
        Ok(Err(e)) => {
            session_store.finish(token);
            return Err(journal_fail(e));
        }
        Err(panic) => {
            session_store.finish(token);
            resume_unwind(panic);
        }
    };
    let result = match result {
        Ok(Ok(bytes)) => catch_unwind(AssertUnwindSafe(|| result_ready(faults).map(|()| bytes))),
        failed => failed,
    };
    // Nothing else ends the session of a job that will not deliver, or of
    // a request the connection tore down before the token was announced.
    if !announced || !matches!(result, Ok(Ok(_))) {
        session_store.finish(token);
        clear_session(conn, req);
    }
    result.unwrap_or_else(|panic| resume_unwind(panic))
}

/// The crash site between a journaled session's computed result and its
/// delivery: the journal is durable and the client holds the token, and
/// no result byte is queued yet.
fn result_ready(faults: &dyn Failpoints) -> Result<(), JobFail> {
    if faults.check(SERVER_RESULT_READY) {
        return Err(JobFail::new(
            RejectCode::Internal,
            InjectedFault { site: SERVER_RESULT_READY }.to_string(),
        ));
    }
    Ok(())
}

/// Claim a journaled session after a restart and recompute its result.
/// The request is announced only once the result is ready; a recovery that
/// fails, or a request torn down before the announce, can never deliver,
/// so its session is removed here.
fn resume_job(
    shared: &Arc<Shared>,
    conn: &Arc<ConnShared>,
    req: u64,
    token: u64,
    ctl: &Arc<RequestCtl>,
    ledger: &mut JobLedger,
) -> Result<Vec<u8>, JobFail> {
    let Some(session_store) = shared.store.as_deref() else {
        return Err(JobFail::new(RejectCode::Unresumable, "server has no durable session store"));
    };
    let faults = &*shared.faults;
    let tenant = conn.state.lock().expect("conn state").tenant.clone();
    let rec = session_store.claim(token, &tenant)?;
    let result = catch_unwind(AssertUnwindSafe(|| {
        let params = shared.config.hw.as_lzss_params();
        let bytes = store::recover_session(&rec, params, ctl, faults, ledger)?;
        result_ready(faults)?;
        Ok(bytes)
    }));
    if !(matches!(result, Ok(Ok(_))) && announce_session(conn, req, token)) {
        // Reclaim the disk now; the re-admitted quota charge goes with `rec`.
        session_store.finish(token);
    }
    result.unwrap_or_else(|panic| resume_unwind(panic))
}

/// Record the durable session token on the request and tell the client.
/// Returns whether the request was still there to take it.
fn announce_session(conn: &ConnShared, req: u64, token: u64) -> bool {
    let mut st = conn.state.lock().expect("conn state");
    let recorded = match st.requests.get_mut(&req) {
        Some(rs) => {
            rs.session = Some(token);
            true
        }
        None => false,
    };
    st.queue.push_back(Response::Session { req, token });
    drop(st);
    conn.wake.notify_all();
    recorded
}

/// Forget a request's session token (its file is already gone).
fn clear_session(conn: &ConnShared, req: u64) {
    let mut st = conn.state.lock().expect("conn state");
    if let Some(rs) = st.requests.get_mut(&req) {
        rs.session = None;
    }
}

/// A request the writer finished with, for metric/trace emission outside
/// the connection lock.
struct FinishedReq {
    ordinal: u64,
    op: &'static str,
    start_us: f64,
    age_us: u64,
    frames: u64,
    failed: Option<RejectCode>,
    tenant: String,
    session: Option<u64>,
}

fn writer_loop(shared: &Arc<Shared>, conn: &Arc<ConnShared>, stream: TcpStream, session: u64) {
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_secs(10)));
    let chunk = shared.config.chunk_bytes.max(4096);
    loop {
        let mut bufs: Vec<Vec<u8>> = Vec::new();
        let mut finished: Vec<FinishedReq> = Vec::new();
        let mut exit = false;
        {
            let mut st = conn.state.lock().expect("conn state");
            loop {
                while let Some(rsp) = st.queue.pop_front() {
                    bufs.push(encode_response(&rsp));
                }
                let ids: Vec<u64> = st.requests.keys().copied().collect();
                for id in ids {
                    let closed = st.closed;
                    let tenant = st.tenant.clone();
                    let rs = st.requests.get_mut(&id).expect("request present");
                    let Some(outcome) = rs.outcome.as_ref() else { continue };
                    match outcome {
                        Err(_) => {
                            let rs = st.requests.remove(&id).expect("request present");
                            let Some(Err(fail)) = rs.outcome else { unreachable!() };
                            bufs.push(encode_response(&Response::Error {
                                req: id,
                                code: fail.code,
                                detail: fail.detail,
                            }));
                            finished.push(FinishedReq {
                                ordinal: rs.ordinal,
                                op: rs.op,
                                start_us: rs.start_us,
                                age_us: rs.ctl.age_us(),
                                frames: rs.frames,
                                failed: Some(fail.code),
                                tenant,
                                session: rs.session,
                            });
                        }
                        Ok(buf) => {
                            let total = buf.bytes.len() as u64;
                            let (mut sent, mut credit) = (rs.sent, rs.credit);
                            let crc = buf.crc;
                            while sent < total && credit > 0 && !closed {
                                let n = (chunk as u64).min(total - sent).min(credit) as usize;
                                let at = sent as usize;
                                bufs.push(encode_response(&Response::Data {
                                    req: id,
                                    offset: sent,
                                    bytes: buf.bytes[at..at + n].to_vec(),
                                }));
                                sent += n as u64;
                                credit -= n as u64;
                            }
                            rs.sent = sent;
                            rs.credit = credit;
                            if sent == total {
                                bufs.push(encode_response(&Response::Done { req: id, total, crc }));
                                let rs = st.requests.remove(&id).expect("request present");
                                finished.push(FinishedReq {
                                    ordinal: rs.ordinal,
                                    op: rs.op,
                                    start_us: rs.start_us,
                                    age_us: rs.ctl.age_us(),
                                    frames: rs.frames,
                                    failed: None,
                                    tenant,
                                    session: rs.session,
                                });
                            } else if !closed {
                                // Credit-starved: the deadline still
                                // applies while the client dawdles.
                                if let Err(fail) = rs.ctl.checkpoint() {
                                    bufs.push(encode_response(&Response::Error {
                                        req: id,
                                        code: fail.code,
                                        detail: fail.detail,
                                    }));
                                    let rs = st.requests.remove(&id).expect("request present");
                                    finished.push(FinishedReq {
                                        ordinal: rs.ordinal,
                                        op: rs.op,
                                        start_us: rs.start_us,
                                        age_us: rs.ctl.age_us(),
                                        frames: rs.frames,
                                        failed: Some(fail.code),
                                        tenant,
                                        session: rs.session,
                                    });
                                }
                            }
                        }
                    }
                }
                if !bufs.is_empty() {
                    break;
                }
                if st.closed {
                    exit = true;
                    break;
                }
                let (guard, _timeout) = conn.wake.wait_timeout(st, POLL_TICK).expect("conn state");
                st = guard;
            }
        }
        let mut write_failed = false;
        let mut bytes_out = 0u64;
        for buf in &bufs {
            bytes_out += buf.len() as u64;
            if std::io::Write::write_all(&mut stream, buf).is_err() {
                write_failed = true;
                break;
            }
        }
        shared.metrics.bytes_out.add(bytes_out);
        if let Some(session_store) = &shared.store {
            // The result is fully delivered (or finally failed): the
            // journaled session has nothing left to guarantee.
            for f in &finished {
                if let Some(token) = f.session {
                    session_store.finish(token);
                }
            }
        }
        for f in finished {
            match f.failed {
                None => shared.metrics.requests_done.inc(),
                Some(code) => {
                    shared.metrics.requests_failed.inc();
                    shared.metrics.reject(code);
                }
            }
            shared.metrics.request_latency(f.op, f.age_us);
            shared.metrics.trace_request(
                session,
                f.ordinal,
                f.op,
                &f.tenant,
                f.start_us,
                f.frames,
                if f.failed.is_some() { "failed" } else { "done" },
            );
        }
        if write_failed {
            let mut st = conn.state.lock().expect("conn state");
            st.closed = true;
            for rs in st.requests.values() {
                rs.ctl.cancel(CancelReason::Client);
            }
            drop(st);
            conn.wake.notify_all();
            return;
        }
        if exit {
            return;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::client::{Client, ClientError};
    use lzfpga_faults::registry::SERVER_JOURNAL_APPEND;
    use lzfpga_faults::{FailPlan, FailRule};
    use lzfpga_obs::validate_span_tree;
    use lzfpga_parallel::{compress_frames_parallel, EngineKind, ParallelConfig};

    fn sample(len: usize) -> Vec<u8> {
        (0..len).map(|i| (i % 251) as u8 ^ (i / 11) as u8).collect()
    }

    fn reference_stream(data: &[u8], frame_bytes: usize) -> Vec<u8> {
        let cfg =
            ParallelConfig { engine: EngineKind::Turbo, workers: 2, ..ParallelConfig::default() };
        let fc = lzfpga_container::FrameConfig {
            frame_bytes,
            index: true,
            ..lzfpga_container::FrameConfig::default()
        };
        compress_frames_parallel(data, &cfg, &fc).unwrap().framed
    }

    fn start(config: ServerConfig) -> ServerHandle {
        Server::new(config).start().expect("server starts")
    }

    #[test]
    fn roundtrip_over_tcp_is_byte_identical() {
        let handle =
            start(ServerConfig { workers: 2, collect_trace: true, ..ServerConfig::default() });
        let data = sample(300_000);
        let mut client = Client::connect(handle.addr(), "acme", 1 << 20).expect("connect");
        let framed = client.compress(&data, 0, 0).expect("compress");
        assert_eq!(framed, reference_stream(&data, 64 << 10));
        let back = client.decompress(&framed, data.len() as u64 * 2, 0).expect("decompress");
        assert_eq!(back, data);
        let slice = client.range(&framed, 70_000, 200_001, 1 << 20, 0).expect("range");
        assert_eq!(slice, &data[70_000..200_001]);
        drop(client);
        let stats = handle.shutdown(Duration::from_secs(5));
        assert_eq!(stats.sessions_total, 1);
        assert_eq!(stats.requests_done, 3);
        assert_eq!(stats.requests_failed, 0);
        assert_eq!(stats.active_sessions, 0);
        assert_eq!(stats.active_streams, 0);
        assert_eq!(stats.active_bytes, 0);
        let summary = validate_span_tree(&stats.trace).expect("one causal tree");
        assert!(summary.spans >= 5, "root + connection + 3 requests, got {}", summary.spans);
    }

    #[test]
    fn session_limit_is_a_typed_reject() {
        let handle = start(ServerConfig {
            workers: 1,
            quota: QuotaConfig { max_sessions: 1, ..QuotaConfig::default() },
            ..ServerConfig::default()
        });
        let _first = Client::connect(handle.addr(), "a", 1 << 20).expect("first connect");
        match Client::connect(handle.addr(), "b", 1 << 20) {
            Err(ClientError::Rejected { code: RejectCode::SessionLimit, .. }) => {}
            other => panic!("expected SessionLimit reject, got {other:?}"),
        }
        handle.shutdown(Duration::from_secs(2));
    }

    #[test]
    fn quota_and_size_rejections_are_typed_request_errors() {
        let handle = start(ServerConfig {
            workers: 1,
            quota: QuotaConfig {
                max_request_bytes: 64 << 10,
                max_bytes_per_tenant: 100 << 10,
                ..QuotaConfig::default()
            },
            ..ServerConfig::default()
        });
        let mut client = Client::connect(handle.addr(), "acme", 1 << 20).expect("connect");
        // Charge (2x payload + slack) exceeds the tenant byte budget.
        match client.compress(&sample(60 << 10), 0, 0) {
            Err(ClientError::Request { code: RejectCode::ByteQuota, .. }) => {}
            other => panic!("expected ByteQuota, got {other:?}"),
        }
        // The same session keeps working after a typed rejection. The
        // declared result budget counts against the byte quota too, so
        // keep it honest rather than "unlimited".
        let data = sample(10 << 10);
        let framed = client.compress(&data, 0, 0).expect("small compress");
        assert_eq!(client.decompress(&framed, 20 << 10, 0).expect("roundtrip"), data);
        handle.shutdown(Duration::from_secs(2));
    }

    #[test]
    fn draining_rejects_new_connections_typed() {
        let handle = start(ServerConfig { workers: 1, ..ServerConfig::default() });
        handle.begin_drain();
        match Client::connect(handle.addr(), "late", 1 << 20) {
            Err(ClientError::Rejected { code: RejectCode::Draining, .. }) => {}
            other => panic!("expected Draining reject, got {other:?}"),
        }
        handle.shutdown(Duration::from_secs(2));
    }

    #[test]
    fn credit_starved_responses_wait_for_grants() {
        let handle = start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let data = sample(120_000);
        // 1 KiB of credit: the server may send at most that much unasked.
        let mut client = Client::connect(handle.addr(), "slow", 1024).expect("connect");
        client.set_auto_credit(false);
        client
            .send(&Request::Compress { req: 1, deadline_ms: 0, frame_bytes: 0, data })
            .expect("send");
        let mut got = 0u64;
        let deadline = Instant::now() + Duration::from_secs(5);
        let total = loop {
            assert!(Instant::now() < deadline, "server never responded");
            match client.recv() {
                Ok(Response::Data { bytes, .. }) => got += bytes.len() as u64,
                Ok(Response::Done { total, .. }) => break total,
                Err(ClientError::TimedOut) => {
                    // Starved: the window is spent and nothing more may
                    // arrive until we grant credit.
                    assert!(got <= 1024, "server overran the credit window: {got}");
                    client.send(&Request::Credit { req: 1, bytes: 1 << 20 }).expect("grant");
                }
                other => panic!("unexpected response: {other:?}"),
            }
        };
        assert_eq!(got, total);
        handle.shutdown(Duration::from_secs(2));
    }

    #[test]
    fn injected_panics_degrade_requests_without_killing_the_server() {
        // Panic both engine attempts of the first frame: the ladder's
        // fresh rung (deliberately not injectable) still produces the
        // exact bytes, and the server contains both panics.
        let plan = Arc::new(
            FailPlan::new(11).rule(FailRule::new("server.chunk").on_hit(1).times(2).panics()),
        );
        let handle = Server::new(ServerConfig { workers: 1, ..ServerConfig::default() })
            .with_faults(plan)
            .start()
            .expect("server starts");
        let mut client = Client::connect(handle.addr(), "storm", 1 << 20).expect("connect");
        let data = sample(50_000);
        let framed = client.compress(&data, 0, 0).expect("degraded, not dead");
        assert_eq!(framed, reference_stream(&data, 64 << 10));
        let stats = handle.shutdown(Duration::from_secs(2));
        assert!(stats.panics_contained >= 2, "got {}", stats.panics_contained);
        assert_eq!(stats.requests_done, 1);
        assert_eq!(stats.active_streams, 0);
    }

    struct StateDir(std::path::PathBuf);

    impl StateDir {
        fn new(tag: &str) -> StateDir {
            let nanos = std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos();
            StateDir(
                std::env::temp_dir()
                    .join(format!("lzfpga-server-{tag}-{}-{nanos:x}", std::process::id())),
            )
        }
    }

    impl Drop for StateDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    fn durable_server(state: &StateDir, plan: FailPlan) -> ServerHandle {
        Server::new(ServerConfig {
            workers: 1,
            state_dir: Some(state.0.clone()),
            ..ServerConfig::default()
        })
        .with_faults(Arc::new(plan))
        .start()
        .expect("durable server starts")
    }

    /// What one request saw, in arrival order: `'S'` session, `'D'` data,
    /// `'F'` done, `'E'` error.
    fn drive(client: &mut Client, request: &Request) -> (String, Vec<u8>, Option<JobFail>) {
        client.send(request).expect("send");
        let (mut seen, mut bytes) = (String::new(), Vec::new());
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(Instant::now() < deadline, "no final response; saw {seen}");
            match client.recv() {
                Ok(Response::Session { .. }) => seen.push('S'),
                Ok(Response::Data { bytes: b, .. }) => {
                    seen.push('D');
                    bytes.extend_from_slice(&b);
                    let n = b.len() as u64;
                    client.send(&Request::Credit { req: 1, bytes: n }).expect("credit");
                }
                Ok(Response::Done { .. }) => return (seen + "F", bytes, None),
                Ok(Response::Error { code, detail, .. }) => {
                    return (seen + "E", bytes, Some(JobFail::new(code, detail)))
                }
                Err(ClientError::TimedOut) => {}
                other => panic!("unexpected response {other:?}"),
            }
        }
    }

    fn wait_for_sessions_on_disk(store: &SessionStore, n: usize) {
        let deadline = Instant::now() + Duration::from_secs(5);
        while store.sessions_on_disk() != n {
            assert!(
                Instant::now() < deadline,
                "{} session files, want {n}",
                store.sessions_on_disk()
            );
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    #[test]
    fn journal_error_fails_typed_and_never_announces() {
        let state = StateDir::new("journal-error");
        let plan = FailPlan::new(3).rule(FailRule::new(SERVER_JOURNAL_APPEND).errors());
        let handle = durable_server(&state, plan);
        let store = handle.session_store().expect("durable server has a store");
        let mut client = Client::connect(handle.addr(), "acme", 1 << 20).expect("connect");
        let data = sample(200_000);
        let request = Request::Compress { req: 1, deadline_ms: 0, frame_bytes: 0, data };
        let (seen, bytes, fail) = drive(&mut client, &request);
        assert_eq!(seen, "E", "no session token and no result byte may precede the error");
        assert!(bytes.is_empty());
        let fail = fail.expect("typed error");
        assert_eq!(fail.code, RejectCode::Internal);
        assert!(fail.detail.starts_with("session journal: "), "detail: {}", fail.detail);
        // The job's output was dropped and its file removed before
        // the error was queued.
        assert_eq!(store.sessions_on_disk(), 0, "a failed journal left its file");
        // The rule fired once: the same connection journals the next one.
        let framed = client.compress(&sample(50_000), 0, 0).expect("next request journals");
        assert_eq!(framed, reference_stream(&sample(50_000), 64 << 10));
        drop(client);
        let stats = handle.shutdown(Duration::from_secs(2));
        assert_eq!(stats.requests_failed, 1);
        assert_eq!((stats.active_streams, stats.active_bytes), (0, 0), "admission ledger leaked");
        assert_eq!(store.sessions_on_disk(), 0);
    }

    #[test]
    fn delayed_journal_announces_before_the_result() {
        let data = sample(300_000);
        let plain = start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let mut client = Client::connect(plain.addr(), "acme", 1 << 20).expect("connect");
        let framed = client.compress(&data, 0, 0).expect("store-less compress");
        plain.shutdown(Duration::from_secs(2));

        let state = StateDir::new("journal-delay");
        let plan =
            FailPlan::new(5).rule(FailRule::new(SERVER_JOURNAL_APPEND).times(2).delays_ms(20));
        let handle = durable_server(&state, plan);
        let store = handle.session_store().expect("durable server has a store");
        let mut client = Client::connect(handle.addr(), "acme", 1 << 20).expect("connect");
        let requests = [
            (
                Request::Compress { req: 1, deadline_ms: 0, frame_bytes: 0, data: data.clone() },
                &framed,
            ),
            (
                Request::Decompress {
                    req: 1,
                    deadline_ms: 0,
                    max_result: 1 << 20,
                    data: framed.clone(),
                },
                &data,
            ),
        ];
        for (request, want) in &requests {
            let (seen, bytes, fail) = drive(&mut client, request);
            assert!(fail.is_none(), "{fail:?}");
            assert!(
                seen.starts_with('S') && seen.ends_with('F'),
                "token first, then the result: {seen}"
            );
            assert_eq!(seen.matches('S').count(), 1, "{seen}");
            assert_eq!(&bytes, *want, "the durable bytes equal the store-less server's");
            wait_for_sessions_on_disk(&store, 0);
        }
        drop(client);
        let stats = handle.shutdown(Duration::from_secs(2));
        assert_eq!(stats.requests_done, 2);
        assert_eq!((stats.active_streams, stats.active_bytes), (0, 0));
    }

    #[test]
    fn a_request_ended_while_its_journal_syncs_leaks_no_directory() {
        let state = StateDir::new("journal-cancel");
        let plan =
            FailPlan::new(9).rule(FailRule::new(SERVER_JOURNAL_APPEND).times(2).delays_ms(300));
        let handle = durable_server(&state, plan);
        let store = handle.session_store().expect("durable server has a store");
        let data = sample(2 << 20);
        // Cancelled once its file exists, so while the journal is
        // delayed: the job stops typed (or, had it beaten the cancel,
        // delivers) and the session is removed.
        let mut client = Client::connect(handle.addr(), "acme", 1 << 20).expect("connect");
        client
            .send(&Request::Compress { req: 1, deadline_ms: 0, frame_bytes: 0, data: data.clone() })
            .expect("send");
        wait_for_sessions_on_disk(&store, 1);
        client.send(&Request::Cancel { req: 1 }).expect("cancel");
        let deadline = Instant::now() + Duration::from_secs(10);
        loop {
            assert!(Instant::now() < deadline, "the cancelled request never ended");
            match client.recv() {
                Ok(Response::Error { code, .. }) => {
                    assert_eq!(code, RejectCode::Cancelled);
                    break;
                }
                Ok(Response::Done { .. }) => break,
                Ok(Response::Data { bytes, .. }) => {
                    let n = bytes.len() as u64;
                    client.send(&Request::Credit { req: 1, bytes: n }).expect("credit");
                }
                Ok(_) | Err(ClientError::TimedOut) => {}
                Err(e) => panic!("transport failed: {e}"),
            }
        }
        wait_for_sessions_on_disk(&store, 0);
        // The connection dropped while the journal is delayed: by the time
        // the journal announces, the request is gone, so the job itself
        // must remove the session.
        let mut client = Client::connect(handle.addr(), "acme", 1 << 20).expect("connect");
        client
            .send(&Request::Compress { req: 1, deadline_ms: 0, frame_bytes: 0, data })
            .expect("send");
        wait_for_sessions_on_disk(&store, 1);
        drop(client);
        wait_for_sessions_on_disk(&store, 0);
        let stats = handle.shutdown(Duration::from_secs(5));
        assert_eq!((stats.active_streams, stats.active_bytes), (0, 0));
        assert_eq!(store.sessions_on_disk(), 0);
    }

    #[test]
    fn a_resume_torn_down_before_its_announce_leaks_nothing() {
        let state = StateDir::new("resume-torn");
        let data = sample(200_000);
        let token = SessionStore::open(&state.0)
            .and_then(|s| s.begin(SessionOp::Compress, "acme", 64 << 10, 0, &data, &NoFaults))
            .expect("journal a session")
            .0;
        // The resume recomputes, then waits at the result-ready site before
        // its announce; the connection is gone by the time it announces.
        let plan = FailPlan::new(13).rule(FailRule::new(SERVER_RESULT_READY).delays_ms(400));
        let handle = durable_server(&state, plan);
        assert_eq!(handle.recovery().recovered, 1);
        let store = handle.session_store().expect("durable server has a store");
        let mut client = Client::connect(handle.addr(), "acme", 1 << 20).expect("connect");
        client.send(&Request::Resume { req: 1, deadline_ms: 0, token, acked: 0 }).expect("send");
        std::thread::sleep(Duration::from_millis(150));
        drop(client);
        wait_for_sessions_on_disk(&store, 0);
        let stats = handle.shutdown(Duration::from_secs(5));
        assert_eq!((stats.active_streams, stats.active_bytes), (0, 0), "admission ledger leaked");
        assert_eq!(store.pending(), 0);
    }

    #[test]
    fn hostile_first_message_is_rejected_typed() {
        let handle = start(ServerConfig { workers: 1, ..ServerConfig::default() });
        let mut s = TcpStream::connect(handle.addr()).expect("connect");
        std::io::Write::write_all(&mut s, &[2u8, 0, 0, 0, 4, 1, 2, 3, 4]).expect("write");
        let msg = read_message(&mut s, usize::MAX).expect("read").expect("response");
        match crate::proto::parse_response(&msg).expect("parse") {
            Response::Reject { code: RejectCode::Protocol, .. } => {}
            other => panic!("expected Protocol reject, got {other:?}"),
        }
        let stats = handle.shutdown(Duration::from_secs(2));
        assert!(stats.protocol_errors >= 1);
    }
}
